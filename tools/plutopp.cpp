//===- tools/plutopp.cpp - The plutopp command-line compiler --------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// The paper's tool front-end (Section 6, Figure 5) grown into a front door
// for the compilation service layer: read one or many restricted-C affine
// loop nests, compile them through pluto::Pipeline sessions - concurrently
// with --jobs, against a content-addressed result cache with --cache-dir -
// and emit tiled OpenMP C. Every paper knob is exposed symmetrically
// (--x / --no-x), and --report dumps the toolchain-wide diagnostics from
// src/observe including the cache hit/miss/eviction counters.
//
// Exit codes come from the shared StatusCode table (service/
// CompileService.h): 0 success, 1 internal/schedule failure (also plain
// I/O problems), 2 invalid options or source errors, 3 overloaded (only
// reachable through a daemon; never in-process), 4 resource budget
// exhausted (--timeout-ms/--max-memory-mb/--max-work). Multi-file batches
// fold per-unit codes with the documented precedence 2 > 1 > 4 > 3 > 0.
//
//===----------------------------------------------------------------------===//

#include "observe/PassStats.h"
#include "observe/Trace.h"
#include "parser/Parser.h"
#include "service/Batch.h"
#include "service/Pipeline.h"
#include "support/FaultInjector.h"
#include "support/Json.h"
#include "tune/Tuner.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

using namespace pluto;

namespace {

const char *UsageHead =
    "usage: plutopp [options] [input.c ...]\n"
    "\n"
    "Reads restricted-C affine loop nests (stdin when no input file is\n"
    "given) and emits tiled OpenMP C. With several inputs the units are\n"
    "compiled as one batch (see --jobs) and written to stdout in input\n"
    "order, separated by banner comments, unless --out-dir is given.\n"
    "\n"
    "transformation options (defaults shown):\n";

const char *UsageTail =
    "\n"
    "service options:\n"
    "  --jobs=N                        compile inputs on N worker threads\n"
    "                                  (1; 0 = all hardware threads)\n"
    "  --cache-dir=DIR                 persistent content-addressed result\n"
    "                                  cache shared across runs/processes\n"
    "  --cache-bytes=N                 in-memory cache budget in bytes\n"
    "                                  (67108864)\n"
    "\n"
    "resource budget (per unit; exceeding any limit exits 4):\n"
    "  --timeout-ms=N                  wall-clock budget per compile\n"
    "                                  (0 = unlimited)\n"
    "  --max-memory-mb=N               budget on tracked transient\n"
    "                                  allocations in MiB (0 = unlimited)\n"
    "  --max-work=N                    deterministic work-unit budget -\n"
    "                                  parsed statements, FM rows, simplex\n"
    "                                  pivots... (0 = unlimited)\n"
    "\n"
    "autotuning (single input only):\n"
    "  --tune[=spec]                   search the option space empirically:\n"
    "                                  enumerate tile/fusion/wavefront\n"
    "                                  variants, prune by static features,\n"
    "                                  JIT-measure the survivors (median of\n"
    "                                  K reps after warmup, pinned threads,\n"
    "                                  differential correctness gate) and\n"
    "                                  emit the winner. The spec is\n"
    "                                  semicolon-separated key=value:\n"
    "                                  axes tile=0,16,32 l2=0,8 wave=0,1,2\n"
    "                                  fuse=0,1 vec=0,1 (0 = feature off),\n"
    "                                  knobs n= reps= warmup= threads=\n"
    "                                  max-measure=. Default space:\n"
    "                                  tile=0,16,32,64;l2=0,8;wave=0,1,2\n"
    "  --tune-trace=FILE               write the JSON search trace\n"
    "                                  (tune_schema 1) to FILE instead of\n"
    "                                  stderr\n"
    "\n"
    "output options:\n"
    "  --out=FILE                      write the generated C to FILE\n"
    "                                  (single input only; default stdout)\n"
    "  --out-dir=DIR                   write each input's unit to\n"
    "                                  DIR/<stem>.pluto.c\n"
    "  --report                        human-readable statistics + decision\n"
    "                                  trace (stderr; stdout when no code\n"
    "                                  goes there). The trace covers\n"
    "                                  single-job runs only; batch runs\n"
    "                                  report timers/counters, including\n"
    "                                  cache hits/misses/evictions\n"
    "  --report=json                   the same as one JSON document\n"
    "                                  (schema: DESIGN.md sections 8-9;\n"
    "                                  includes a \"diagnostics\" array of\n"
    "                                  frontend errors with line:col spans)\n"
    "  -h, --help                      this text\n"
    "\n"
    "exit codes: 0 ok, 1 I/O or internal compile error, 2 invalid options\n"
    "or source errors (every problem is reported with its line:col span),\n"
    "4 resource budget exhausted\n";

[[noreturn]] void badNumber(const std::string &A) {
  std::fprintf(stderr, "plutopp: bad numeric argument in '%s'\n", A.c_str());
  std::exit(1);
}

/// Parses the =N suffix of A; exits on garbage.
long long numArg(const std::string &A) {
  long long V;
  if (!parseFlagNumber(A, V))
    badNumber(A);
  return V;
}

/// `path/to/foo.c` -> `foo` (the --out-dir output stem).
std::string stemOf(const std::string &Path) {
  std::string Stem = std::filesystem::path(Path).stem().string();
  return Stem.empty() ? "unit" : Stem;
}

} // namespace

int main(int argc, char **argv) {
  PlutoOptions Opts;
  BudgetLimits Budget;
  std::vector<std::string> InputPaths;
  bool Tune = false;
  std::string TuneSpec, TuneTracePath;
  std::string OutPath, OutDir, CacheDir;
  size_t CacheBytes = 64ull << 20;
  unsigned Jobs = 1;
  bool JobsGiven = false;
  enum class ReportMode { None, Text, Json } Report = ReportMode::None;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    // Range checks are deliberately left to PlutoOptions::validate() so
    // the CLI and library agree on what is rejected (exit code 2 below).
    FlagParse FP = parseOptionFlag(A, Opts);
    if (FP == FlagParse::BadNumber)
      badNumber(A);
    if (FP == FlagParse::Applied)
      continue;
    if (A.rfind("--jobs=", 0) == 0) {
      long long V = numArg(A);
      if (V < 0) {
        std::fprintf(stderr, "plutopp: --jobs must be >= 0\n");
        return 2;
      }
      Jobs = static_cast<unsigned>(V);
      JobsGiven = true;
    } else if (A.rfind("--timeout-ms=", 0) == 0) {
      long long V = numArg(A);
      Budget.WallMs = V < 0 ? 0u : static_cast<uint64_t>(V);
    } else if (A.rfind("--max-memory-mb=", 0) == 0) {
      long long V = numArg(A);
      Budget.MaxMemoryBytes = V < 0 ? 0u : static_cast<uint64_t>(V) << 20;
    } else if (A.rfind("--max-work=", 0) == 0) {
      long long V = numArg(A);
      Budget.MaxWorkUnits = V < 0 ? 0u : static_cast<uint64_t>(V);
    } else if (A.rfind("--cache-dir=", 0) == 0)
      CacheDir = A.substr(12);
    else if (A.rfind("--cache-bytes=", 0) == 0) {
      long long V = numArg(A);
      if (V <= 0) {
        std::fprintf(stderr, "plutopp: --cache-bytes must be positive\n");
        return 2;
      }
      CacheBytes = static_cast<size_t>(V);
    } else if (A == "--tune")
      Tune = true;
    else if (A.rfind("--tune=", 0) == 0) {
      Tune = true;
      TuneSpec = A.substr(7);
    } else if (A.rfind("--tune-trace=", 0) == 0)
      TuneTracePath = A.substr(13);
    else if (A.rfind("--out=", 0) == 0)
      OutPath = A.substr(6);
    else if (A.rfind("--out-dir=", 0) == 0)
      OutDir = A.substr(10);
    else if (A == "--report")
      Report = ReportMode::Text;
    else if (A == "--report=json")
      Report = ReportMode::Json;
    else if (A == "--help" || A == "-h") {
      std::fputs(UsageHead, stdout);
      std::fputs(optionFlagsHelp().c_str(), stdout);
      std::fputs(UsageTail, stdout);
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "plutopp: unknown option '%s' (see --help)\n",
                   A.c_str());
      return 1;
    } else {
      InputPaths.push_back(A);
    }
  }

  // Fail fast on option sets the pipeline cannot lower - before any input
  // is read - with the distinct exit code scripts can branch on.
  if (auto V = Opts.validate(); !V) {
    std::fprintf(stderr, "plutopp: %s\n", V.error().c_str());
    return 2;
  }
  if (!OutPath.empty() && !OutDir.empty()) {
    std::fprintf(stderr, "plutopp: --out and --out-dir are exclusive\n");
    return 2;
  }
  if (!OutPath.empty() && InputPaths.size() > 1) {
    std::fprintf(stderr,
                 "plutopp: --out with several inputs is ambiguous; use "
                 "--out-dir\n");
    return 2;
  }
  if (Tune && (InputPaths.size() > 1 || !OutDir.empty())) {
    std::fprintf(stderr,
                 "plutopp: --tune takes a single input (and --out, not "
                 "--out-dir)\n");
    return 2;
  }
  if (!TuneTracePath.empty() && !Tune) {
    std::fprintf(stderr, "plutopp: --tune-trace requires --tune\n");
    return 2;
  }

  // Assemble the batch: named files, or stdin as a single anonymous unit.
  std::vector<CompileRequest> Batch;
  if (InputPaths.empty()) {
    std::stringstream SS;
    SS << std::cin.rdbuf();
    Batch.push_back({"<stdin>", SS.str(), Opts, Budget});
  } else {
    for (const std::string &Path : InputPaths) {
      std::ifstream In(Path);
      if (!In) {
        std::fprintf(stderr, "plutopp: cannot open '%s'\n", Path.c_str());
        return 1;
      }
      std::stringstream SS;
      SS << In.rdbuf();
      Batch.push_back({Path, SS.str(), Opts, Budget});
    }
  }

  if (!OutDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(OutDir, Ec);
    if (Ec || !std::filesystem::is_directory(OutDir)) {
      std::fprintf(stderr, "plutopp: cannot create --out-dir '%s'\n",
                   OutDir.c_str());
      return 1;
    }
  }

  BatchOptions BO;
  BO.Jobs = JobsGiven ? Jobs : 1;
  {
    ResultCache::Config CC;
    CC.MaxBytes = CacheBytes;
    CC.DiskDir = CacheDir;
    BO.Cache = std::make_shared<ResultCache>(CC);
    if (!CacheDir.empty() && !BO.Cache->diskEnabled())
      std::fprintf(stderr,
                   "plutopp: warning: cache dir '%s' unusable, continuing "
                   "with in-memory cache only\n",
                   CacheDir.c_str());
  }

  // Diagnostics are collected only when asked for; with no sink installed
  // every count site in the library is a null-check. The decision trace
  // builds interleaved strings and is serial-only, so it is recorded only
  // when one job runs on one thread.
  PassStats Stats;
  Trace Tr;
  bool WantTrace = Report != ReportMode::None && Batch.size() == 1 &&
                   BO.Jobs <= 1 && !Tune;
  if (Report != ReportMode::None)
    setActiveStats(&Stats);
  if (WantTrace)
    setActiveTrace(&Tr);

  // Deterministic fault injection for tests and the CI soak
  // ($PLUTOPP_FAULT, e.g. "cache.disk_write:*").
  FaultInjector::armFromEnv();

  if (Tune) {
    tune::SearchSpace SS;
    tune::TuneOptions TO;
    TO.Base = Opts;
    TO.Budget = Budget;
    TO.Jobs = BO.Jobs;
    TO.Cache = BO.Cache;
    if (auto P = tune::parseSpec(TuneSpec, SS, TO); !P) {
      std::fprintf(stderr, "plutopp: %s\n", P.error().c_str());
      return 2;
    }

    tune::TuneResult TR = tune::explore(Batch[0].Source, SS, TO);
    setActiveStats(nullptr);

    // The trace is written even on failure - a search that died is still a
    // search worth inspecting.
    std::string TraceDoc = TR.traceJson();
    if (!TuneTracePath.empty()) {
      std::ofstream Out(TuneTracePath, std::ios::binary | std::ios::trunc);
      if (Out)
        Out.write(TraceDoc.data(),
                  static_cast<std::streamsize>(TraceDoc.size()));
      if (!Out) {
        std::fprintf(stderr, "plutopp: cannot write '%s'\n",
                     TuneTracePath.c_str());
        return 1;
      }
    } else {
      std::fprintf(stderr, "%s\n", TraceDoc.c_str());
    }

    if (TR.Status != StatusCode::Ok) {
      for (const Diagnostic &D : TR.Diags) {
        std::fprintf(stderr, "plutopp: %s: %s\n", Batch[0].Name.c_str(),
                     D.toString().c_str());
        std::fputs(renderSnippet(Batch[0].Source, D).c_str(), stderr);
      }
      if (TR.Diags.empty())
        std::fprintf(stderr, "plutopp: %s: %s\n", Batch[0].Name.c_str(),
                     TR.Error.c_str());
      return TR.exitCode();
    }

    const tune::TuneVariant *W = TR.winner();
    std::fprintf(stderr,
                 "plutopp: tune: %llu enumerated, %llu distinct, %llu "
                 "measured, %llu errors\n",
                 static_cast<unsigned long long>(TR.Enumerated),
                 static_cast<unsigned long long>(TR.Distinct),
                 static_cast<unsigned long long>(TR.Measured),
                 static_cast<unsigned long long>(TR.Errors));
    if (W) {
      if (W->Measured)
        std::fprintf(stderr, "plutopp: tune: winner v%u (%.3f ms): %s\n",
                     W->Id, W->Time.MedianSeconds * 1e3,
                     W->Fingerprint.c_str());
      else
        std::fprintf(stderr, "plutopp: tune: winner v%u (by score): %s\n",
                     W->Id, W->Fingerprint.c_str());
    }

    if (!OutPath.empty()) {
      std::ofstream Out(OutPath, std::ios::binary | std::ios::trunc);
      if (Out)
        Out.write(TR.WinnerC.data(),
                  static_cast<std::streamsize>(TR.WinnerC.size()));
      if (!Out) {
        std::fprintf(stderr, "plutopp: cannot write '%s'\n", OutPath.c_str());
        return 1;
      }
    } else {
      std::fputs(TR.WinnerC.c_str(), stdout);
    }

    if (Report != ReportMode::None) {
      FILE *Dst = OutPath.empty() ? stderr : stdout;
      if (Report == ReportMode::Json) {
        std::fputs(Stats.toJson().c_str(), Dst);
        std::fputs("\n", Dst);
      } else {
        std::fputs(Stats.toText().c_str(), Dst);
      }
    }
    return 0;
  }

  std::vector<CompileResponse> Resps = compileRequests(Batch, BO);
  setActiveStats(nullptr);
  setActiveTrace(nullptr);

  // Report every failed unit, write the successful ones: to
  // --out/--out-dir files, or concatenated on stdout in input order
  // (banner-separated when there are several). Responses carry the
  // frontend's structured diagnostics, so every source problem is shown
  // with its line:col span and a caret snippet; the process exit code
  // folds the per-unit StatusCode exit codes through the one shared
  // table (2 bad input > 1 internal > 4 over budget > 3 overloaded > 0).
  int Exit = 0;
  bool WroteStdout = false;
  unsigned FailedUnits = 0;
  std::vector<const char *> UnitStatus(Batch.size(), "ok");
  std::string DiagsJson; // Rendered entries of the JSON "diagnostics" array.
  for (size_t I = 0; I < Batch.size(); ++I) {
    const CompileResponse &R = Resps[I];
    UnitStatus[I] = statusCodeName(R.Status);
    Exit = aggregateExitCodes(Exit, R.exitCode());
    if (!R.ok()) {
      ++FailedUnits;
      if (!R.Diags.empty()) {
        for (const Diagnostic &D : R.Diags) {
          std::fprintf(stderr, "plutopp: %s: %s\n", Batch[I].Name.c_str(),
                       D.toString().c_str());
          std::fputs(renderSnippet(Batch[I].Source, D).c_str(), stderr);
          if (Report == ReportMode::Json) {
            DiagsJson += DiagsJson.empty() ? "\n    " : ",\n    ";
            appendDiagnosticJson(DiagsJson, Batch[I].Name, D);
          }
        }
      } else {
        std::fprintf(stderr, "plutopp: %s: %s\n", Batch[I].Name.c_str(),
                     R.Error.c_str());
      }
      continue;
    }
    if (!OutDir.empty()) {
      std::string Path = OutDir + "/" + stemOf(Batch[I].Name) + ".pluto.c";
      std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
      if (Out)
        Out.write(R.EmittedC.data(),
                  static_cast<std::streamsize>(R.EmittedC.size()));
      if (!Out) {
        std::fprintf(stderr, "plutopp: cannot write '%s'\n", Path.c_str());
        UnitStatus[I] = "write-error";
        ++FailedUnits;
        Exit = aggregateExitCodes(Exit, exitCodeFor(StatusCode::Internal));
      }
    } else if (!OutPath.empty()) {
      std::ofstream Out(OutPath, std::ios::binary | std::ios::trunc);
      if (Out)
        Out.write(R.EmittedC.data(),
                  static_cast<std::streamsize>(R.EmittedC.size()));
      if (!Out) {
        std::fprintf(stderr, "plutopp: cannot write '%s'\n", OutPath.c_str());
        UnitStatus[I] = "write-error";
        ++FailedUnits;
        Exit = aggregateExitCodes(Exit, exitCodeFor(StatusCode::Internal));
      }
    } else {
      if (Batch.size() > 1)
        std::printf("/* ===== plutopp: %s ===== */\n", Batch[I].Name.c_str());
      std::fputs(R.EmittedC.c_str(), stdout);
      WroteStdout = true;
    }
  }

  // Multi-file runs used to end with just an exit code; now every unit's
  // terminal status is summarized so a failing file in a big batch is
  // findable without scrolling the diagnostics.
  if (Batch.size() > 1 && FailedUnits) {
    std::fprintf(stderr, "plutopp: %u of %zu units failed:\n", FailedUnits,
                 Batch.size());
    for (size_t I = 0; I < Batch.size(); ++I)
      std::fprintf(stderr, "plutopp:   %s: %s\n", Batch[I].Name.c_str(),
                   UnitStatus[I]);
  }

  // The report goes to stderr so it never mixes with code on stdout; when
  // the code went to files, stdout is free and scripts can capture the
  // report (JSON in particular) cleanly there.
  if (Report != ReportMode::None) {
    FILE *Dst = WroteStdout ? stderr : stdout;
    if (Report == ReportMode::Json) {
      std::string Extra =
          "\"diagnostics\": [" + DiagsJson + (DiagsJson.empty() ? "]" : "\n  ]");
      std::fputs(Stats.toJson(WantTrace ? &Tr : nullptr, &Extra).c_str(),
                 Dst);
      std::fputs("\n", Dst);
    } else {
      std::fputs(Stats.toText().c_str(), Dst);
      if (WantTrace) {
        std::fputs("decision trace:\n", Dst);
        std::fputs(Tr.toText().c_str(), Dst);
      }
    }
  }
  return Exit;
}
