//===- perfbench/src/main.cpp - The benchmark program ---------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Usage:
//   perfbench --workload kernels|l2tile|stress|serve --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//   perfbench --all [--seed N] [--seconds S] [--out-dir DIR]
//
// One workload per process: prints a table of every metric (name, value,
// unit, sample count), writes the full results document (and, traced, the
// Chrome trace) under the output directory, and ends stdout with one JSON
// line: {"correct", "attempted", "failed", "metrics"}, whose metrics are
// the end-to-end set untraced and the per-layer set traced.
//
// --all runs every workload untraced and then traced, in this one process,
// and ends with a summary table. The peak RSS is reset before each workload;
// where the kernel refuses the reset, a later workload's results file marks
// its peak_rss_mb as not comparable.
//
//===----------------------------------------------------------------------===//

#include "Compile.h"
#include "Report.h"
#include "Spans.h"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <omp.h>
#include <unistd.h>

using namespace perfbench;

namespace {

const char *const Workloads[] = {"kernels", "l2tile", "stress", "serve"};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "kernels|l2tile|stress|serve --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n       perfbench --all [--seed N] "
               "[--seconds S] [--out-dir DIR]\n",
               Why);
  return 2;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  return static_cast<bool>(Out);
}

RunResult runOne(const std::string &W, uint64_t Seed, unsigned Seconds,
                 bool Trace, const std::string &OutDir, SpanRecorder &Rec) {
  if (W == "serve") {
    std::string Sock = OutDir + "/plutod-" + std::to_string(getpid()) + ".sock";
    RunResult R = runServeWorkload(Seed, Seconds, Trace, Rec, Sock);
    std::filesystem::remove(Sock);
    return R;
  }
  return runCompileWorkload(W, Seed, Seconds, Trace, Rec);
}

/// Runs W and writes its outputs; returns the result.
RunResult runAndReport(const std::string &W, uint64_t Seed, unsigned Seconds,
                       bool Trace, const std::string &OutDir,
                       const HostInfo &H, bool FirstInProcess) {
  bool PeakReset = resetPeakRss();
  SpanRecorder Rec(Trace);
  RunResult R = runOne(W, Seed, Seconds, Trace, OutDir, Rec);
  R.PeakRssComparable = PeakReset || FirstInProcess;
  // Known defects are not failures, but the traced summary line says how
  // many operations ran into one, so it never reads as fully clean.
  if (Trace)
    setMetric(R.Layers, "bench.known_defects",
              static_cast<double>(R.knownDefectCount()), "count", R.Attempted);
  std::string Stem = OutDir + "/" + W + "-s" + std::to_string(Seed) + "-t" +
                     (Trace ? "1" : "0");
  if (!writeFile(Stem + ".json", resultJson(R, H)))
    std::fprintf(stderr, "perfbench: cannot write %s.json\n", Stem.c_str());
  if (Trace && !writeFile(Stem + ".trace.json", Rec.chromeJson()))
    std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n",
                 Stem.c_str());
  printTable(stdout, R, H);
  std::printf("  results: %s.json\n", Stem.c_str());
  if (Trace)
    std::printf("  trace: %s.trace.json\n", Stem.c_str());
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, OutDir = ".bench_out";
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  int Trace = -1;
  bool All = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--all") {
      All = true;
    } else if (A == "--workload" && (V = value())) {
      Workload = V;
    } else if (A == "--seed" && (V = value())) {
      Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds" && (V = value())) {
      long S = std::strtol(V, nullptr, 10);
      if (S < 1 || S > 600)
        return usage("--seconds must be 1..600");
      Seconds = static_cast<unsigned>(S);
    } else if (A == "--trace" && (V = value())) {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return usage("--trace must be 0 or 1");
      Trace = V[0] - '0';
    } else if (A == "--out-dir" && (V = value())) {
      OutDir = V;
    } else {
      return usage(("unknown or incomplete argument " + A).c_str());
    }
  }
  if (!All) {
    bool Known = false;
    for (const char *W : Workloads)
      Known |= Workload == W;
    if (!Known)
      return usage("--workload is required (or --all)");
  }
  std::error_code EC;
  std::filesystem::create_directories(OutDir, EC);
  if (EC)
    return usage(("cannot create " + OutDir).c_str());

  // Compiles run on this one thread; the dependence census's OpenMP region
  // is pinned too (OMP_NUM_THREADS, set by run.py, pins server workers).
  omp_set_num_threads(1);
  HostInfo H = hostInfo();

  if (!All) {
    RunResult R =
        runAndReport(Workload, Seed, Seconds, Trace == 1, OutDir, H, true);
    std::string Line, Msg;
    if (!summaryLine(R, Line, Msg)) {
      std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
      return 3;
    }
    std::printf("%s\n", Line.c_str());
    return 0;
  }

  std::vector<RunResult> Results;
  for (const char *W : Workloads)
    for (bool T : {false, true})
      Results.push_back(
          runAndReport(W, Seed, Seconds, T, OutDir, H, Results.empty()));
  std::string Doc = "[\n";
  for (size_t I = 0; I < Results.size(); ++I)
    Doc += (I ? ",\n" : "") + resultJson(Results[I], H);
  Doc += "]\n";
  std::string AllPath = OutDir + "/all-s" + std::to_string(Seed) + ".json";
  writeFile(AllPath, Doc);
  std::printf("\nsummary (seed %llu, %u s per run; %s)\n",
              static_cast<unsigned long long>(Seed), Seconds, AllPath.c_str());
  uint64_t Failed = 0;
  for (const RunResult &R : Results) {
    Failed += R.Failed;
    for (const auto *Set : {&R.EndToEnd, &R.Extra})
      for (const Metric &M : *Set)
        std::printf("  %-8s %-5s %-30s %14.6g %-6s n=%zu\n",
                    R.Workload.c_str(), R.Trace ? "trace" : "e2e",
                    M.Name.c_str(), M.Value, M.Unit.c_str(), M.Samples);
  }
  std::printf("  failed operations: %llu\n",
              static_cast<unsigned long long>(Failed));
  return Failed ? 1 : 0;
}
