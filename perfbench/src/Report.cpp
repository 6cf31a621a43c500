//===- perfbench/src/Report.cpp - Results, metrics and host print ---------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include "support/Json.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace perfbench;
using pluto::jsonQuote;

void RunResult::fail(const std::string &What) {
  ++Failed;
  ++NotOk;
  // Keep the document small: the first failures say what went wrong.
  if (Failures.size() < 20)
    Failures.push_back(What);
}

void RunResult::knownDefect(const std::string &What) {
  ++NotOk;
  for (auto &[Msg, N] : KnownDefects)
    if (Msg == What) {
      ++N;
      return;
    }
  KnownDefects.emplace_back(What, 1);
}

uint64_t RunResult::knownDefectCount() const {
  uint64_t N = 0;
  for (const auto &KD : KnownDefects)
    N += KD.second;
  return N;
}

void perfbench::setMetric(std::vector<Metric> &Ms, const std::string &Name,
                          double Value, const std::string &Unit,
                          size_t Samples) {
  for (Metric &M : Ms)
    if (M.Name == Name) {
      M = Metric{Name, Value, Unit, Samples};
      return;
    }
  Ms.push_back(Metric{Name, Value, Unit, Samples});
}

const std::vector<MetricSpec> &perfbench::endToEndSpec() {
  static const std::vector<MetricSpec> S = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"ok_ratio", "ratio"},
      {"work_units", "count"},
  };
  return S;
}

const std::vector<MetricSpec> &perfbench::perLayerSpec() {
  static const std::vector<MetricSpec> S = {
      {"parser.ms", "ms"},
      {"deps.ms", "ms"},
      {"deps.candidates", "count"},
      {"transform.ms", "ms"},
      {"transform.hyperplanes", "count"},
      {"transform.fastpath_hits", "count"},
      {"transform.fastpath_fallbacks", "count"},
      {"ilp.lexmin_calls", "count"},
      {"ilp.simplex_pivots", "count"},
      {"ilp.gomory_cuts", "count"},
      {"ilp.warm_starts", "count"},
      {"lower.ms", "ms"},
      {"tile.ms", "ms"},
      {"codegen.ms", "ms"},
      {"codegen.pieces", "count"},
      {"codegen.guard_fallbacks", "count"},
      {"poly.fm_eliminations", "count"},
      {"poly.fm_rows_generated", "count"},
      {"poly.fm_rows_pruned", "count"},
      {"poly.fm_prune_ratio", "ratio"},
      {"poly.redundancy_checks", "count"},
      {"poly.emptiness_tests", "count"},
      {"budget.work_units", "count"},
      {"service.emit_ms", "ms"},
      {"service.emitted_bytes", "bytes"},
      {"service.cache_key_us", "us"},
      {"pipeline.unattributed_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
      {"check.ms", "ms"},
      {"bench.known_defects", "count"},
  };
  return S;
}

//===----------------------------------------------------------------------===//
// Host and build fingerprint
//===----------------------------------------------------------------------===//

static std::string readLine(const std::string &Path) {
  std::ifstream In(Path);
  std::string Line;
  std::getline(In, Line);
  return Line;
}

static std::string commandFirstLine(const char *Cmd) {
  std::string Line;
  if (std::FILE *P = popen(Cmd, "r")) {
    char Buf[256];
    if (std::fgets(Buf, sizeof(Buf), P))
      Line = Buf;
    while (std::fgets(Buf, sizeof(Buf), P))
      ; // drain, so the child never blocks on a full pipe
    pclose(P);
  }
  while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
    Line.pop_back();
  return Line;
}

// Taken from the compiler, so -fsanitize passed any way (for instance
// through CMAKE_CXX_FLAGS) marks the results.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
static constexpr bool SanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
static constexpr bool SanitizedBuild = true;
#else
static constexpr bool SanitizedBuild = false;
#endif
#else
static constexpr bool SanitizedBuild = false;
#endif

HostInfo perfbench::hostInfo() {
  HostInfo H;
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  H.Nproc = N > 0 ? static_cast<unsigned>(N) : 1;
  for (unsigned I = 0;; ++I) {
    std::string Dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(I) + "/";
    std::string Size = readLine(Dir + "size");
    if (Size.empty())
      break;
    std::string Type = readLine(Dir + "type");
    H.Caches.push_back("L" + readLine(Dir + "level") +
                       (Type == "Data"          ? "d"
                        : Type == "Instruction" ? "i"
                                                : "") +
                       " " + Size);
  }
  H.CcVersion = commandFirstLine("cc --version 2>/dev/null");
  H.BuildType = PERFBENCH_BUILD_TYPE;
  H.Sanitize = SanitizedBuild;
  if (H.Sanitize) {
    H.Valid = false;
    H.InvalidReason = "sanitizer build";
  } else if (H.BuildType != "Release" && H.BuildType != "RelWithDebInfo") {
    H.Valid = false;
    H.InvalidReason = "unoptimized build type " + H.BuildType;
  }
  return H;
}

bool perfbench::resetPeakRss() {
  // Hand freed heap back first, so an earlier workload's memory does not
  // stay resident and set the floor of the next one's peak.
  malloc_trim(0);
  std::ofstream Out("/proc/self/clear_refs");
  Out << "5";
  Out.flush();
  return static_cast<bool>(Out);
}

double perfbench::peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // in kB
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

/// A double with all its significant digits.
static std::string num(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

static void printMetrics(std::FILE *Out, const char *Title,
                         const std::vector<Metric> &Ms) {
  if (Ms.empty())
    return;
  std::fprintf(Out, "  %s\n", Title);
  for (const Metric &M : Ms)
    std::fprintf(Out, "    %-30s %14.6g %-6s n=%zu\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str(), M.Samples);
}

void perfbench::printTable(std::FILE *Out, const RunResult &R,
                           const HostInfo &H) {
  std::fprintf(Out, "perfbench %s seed=%llu seconds=%u trace=%d\n",
               R.Workload.c_str(), static_cast<unsigned long long>(R.Seed),
               R.Seconds, R.Trace ? 1 : 0);
  std::fprintf(Out, "  host: nproc=%u", H.Nproc);
  for (const std::string &C : H.Caches)
    std::fprintf(Out, " %s", C.c_str());
  std::fprintf(Out, "; cc: %s; build: %s%s%s\n", H.CcVersion.c_str(),
               H.BuildType.c_str(), H.Sanitize ? "+sanitize" : "",
               H.Valid ? "" : " (INVALID for comparison)");
  std::fprintf(Out,
               "  operations: attempted=%llu not_ok=%llu failed=%llu "
               "(failed = wrong output or unexpected status)\n",
               static_cast<unsigned long long>(R.Attempted),
               static_cast<unsigned long long>(R.NotOk),
               static_cast<unsigned long long>(R.Failed));
  for (const std::string &F : R.Failures)
    std::fprintf(Out, "    FAIL %s\n", F.c_str());
  for (const auto &[Msg, N] : R.KnownDefects)
    std::fprintf(Out, "    KNOWN DEFECT (x%llu) %s\n",
                 static_cast<unsigned long long>(N), Msg.c_str());
  printMetrics(Out, "end-to-end", R.EndToEnd);
  printMetrics(Out, "per-layer", R.Layers);
  printMetrics(Out, "workload", R.Extra);
  if (!R.Units.empty()) {
    std::fprintf(Out, "  %-14s %-18s %10s %6s %12s %9s %8s  %s\n", "unit",
                 "status", "compile_ms", "n", "work_units", "gflops", "bytes",
                 "sha256");
    for (const UnitRow &U : R.Units)
      std::fprintf(Out, "  %-14s %-18s %10.3f %6zu %12.0f %9.3f %8zu  %.16s%s\n",
                   U.Name.c_str(), U.Status.c_str(), U.CompileMsP50, U.Samples,
                   U.WorkUnits, U.Gflops, U.Bytes, U.Sha256.c_str(),
                   U.Note.empty() ? "" : ("  " + U.Note).c_str());
  }
}

static void appendMetrics(std::string &Out, const std::vector<Metric> &Ms) {
  Out += "{";
  for (size_t I = 0; I < Ms.size(); ++I) {
    const Metric &M = Ms[I];
    Out += (I ? ", " : "") + jsonQuote(M.Name) + ": {\"value\": " +
           num(M.Value) + ", \"unit\": " + jsonQuote(M.Unit) +
           ", \"samples\": " + std::to_string(M.Samples) + "}";
  }
  Out += "}";
}

std::string perfbench::resultJson(const RunResult &R, const HostInfo &H) {
  std::string Out = "{\"perfbench_schema\": 1, \"workload\": " +
                    jsonQuote(R.Workload) +
                    ", \"seed\": " + std::to_string(R.Seed) +
                    ", \"seconds\": " + std::to_string(R.Seconds) +
                    ", \"trace\": " + (R.Trace ? "true" : "false") + ",\n";
  Out += "\"host\": {\"nproc\": " + std::to_string(H.Nproc) + ", \"caches\": [";
  for (size_t I = 0; I < H.Caches.size(); ++I)
    Out += (I ? ", " : "") + jsonQuote(H.Caches[I]);
  Out += "], \"cc_version\": " + jsonQuote(H.CcVersion) +
         ", \"cmake_build_type\": " + jsonQuote(H.BuildType) +
         ", \"sanitize\": " + (H.Sanitize ? "true" : "false") +
         "},\n\"valid\": " + (H.Valid ? "true" : "false") +
         ", \"invalid_reason\": " + jsonQuote(H.InvalidReason) +
         ", \"peak_rss_comparable\": " +
         (R.PeakRssComparable ? "true" : "false") + ",\n";
  Out += "\"attempted\": " + std::to_string(R.Attempted) +
         ", \"not_ok\": " + std::to_string(R.NotOk) +
         ", \"failed\": " + std::to_string(R.Failed) + ", \"failures\": [";
  for (size_t I = 0; I < R.Failures.size(); ++I)
    Out += (I ? ", " : "") + jsonQuote(R.Failures[I]);
  Out += "], \"known_defects\": [";
  for (size_t I = 0; I < R.KnownDefects.size(); ++I)
    Out += std::string(I ? ", " : "") + "{\"what\": " +
           jsonQuote(R.KnownDefects[I].first) +
           ", \"count\": " + std::to_string(R.KnownDefects[I].second) + "}";
  Out += "],\n\"end_to_end\": ";
  appendMetrics(Out, R.EndToEnd);
  Out += ",\n\"per_layer\": ";
  appendMetrics(Out, R.Layers);
  Out += ",\n\"workload_metrics\": ";
  appendMetrics(Out, R.Extra);
  Out += ",\n\"units\": [";
  for (size_t I = 0; I < R.Units.size(); ++I) {
    const UnitRow &U = R.Units[I];
    Out += std::string(I ? ",\n  " : "\n  ") + "{\"name\": " +
           jsonQuote(U.Name) + ", \"status\": " + jsonQuote(U.Status) +
           ", \"note\": " + jsonQuote(U.Note) +
           ", \"sha256\": " + jsonQuote(U.Sha256) +
           ", \"bytes\": " + std::to_string(U.Bytes) +
           ", \"compile_ms_p50\": " + num(U.CompileMsP50) +
           ", \"samples\": " + std::to_string(U.Samples);
    if (U.WorkUnits >= 0)
      Out += ", \"work_units\": " + num(U.WorkUnits);
    if (U.Gflops >= 0)
      Out += ", \"gflops\": " + num(U.Gflops);
    Out += "}";
  }
  Out += "]";
  for (const auto &[Key, Doc] : R.Attachments)
    Out += ",\n" + jsonQuote(Key) + ": " + Doc;
  Out += "}\n";
  return Out;
}

bool perfbench::summaryLine(const RunResult &R, std::string &Line,
                            std::string &Msg) {
  const std::vector<MetricSpec> &Spec =
      R.Trace ? perLayerSpec() : endToEndSpec();
  const std::vector<Metric> &Have = R.Trace ? R.Layers : R.EndToEnd;
  Line = "{\"correct\": " + std::string(R.Failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(R.Attempted) +
         ", \"failed\": " + std::to_string(R.Failed) + ", \"metrics\": {";
  for (size_t I = 0; I < Spec.size(); ++I) {
    const Metric *Found = nullptr;
    for (const Metric &M : Have)
      if (M.Name == Spec[I].Name)
        Found = &M;
    if (!Found || Found->Unit != Spec[I].Unit) {
      Msg = std::string("metric ") + Spec[I].Name + " was not measured";
      return false;
    }
    Line += (I ? ", " : "") + jsonQuote(Found->Name) +
            ": {\"value\": " + num(Found->Value) +
            ", \"unit\": " + jsonQuote(Found->Unit) + "}";
  }
  Line += "}}";
  return true;
}
