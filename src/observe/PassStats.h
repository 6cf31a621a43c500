//===- observe/PassStats.h - Toolchain-wide pass statistics -----*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-run statistics collected across every layer of the toolchain: scoped
/// wall-clock timers for the five pipeline passes and counters fed by the
/// ILP core, the polyhedral library, dependence analysis, the transform
/// framework, tiling and code generation.
///
/// Collection is opt-in and zero-overhead when disabled: a single global
/// `std::atomic<PassStats *>` is consulted with a relaxed load (a plain
/// load on x86) at every count site, and the site is a no-op when it is
/// null — which is the default. Counters are atomic because dependence
/// analysis counts from inside an OpenMP parallel region and the service
/// layer's compileRequests() runs whole pipelines on worker threads; pass
/// timers accumulate through a CAS loop for the same reason. Hot loops
/// never count per iteration: instrumentation sits at aggregation
/// boundaries (end of a lexmin call, end of one FM elimination step) so
/// the counted quantities are bulk-added.
///
/// The JSON schema emitted by toJson() is documented in DESIGN.md section 8.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_OBSERVE_PASSSTATS_H
#define PLUTOPP_OBSERVE_PASSSTATS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace pluto {

class Trace;

/// The five pipeline passes timed by the driver (paper Figure 5 stages;
/// "schedule" is the Pluto ILP transformation, "tile" covers tiling,
/// wavefronting and intra-tile reordering together).
enum class Pass : unsigned {
  Parse,
  Deps,
  Schedule,
  Tile,
  Codegen,
  NumPasses,
};

/// Every counter any layer reports. Grouped by the module that feeds it.
enum class Counter : unsigned {
  // ilp/ - lexicographic dual simplex + Gomory cuts.
  LexMinCalls,
  SimplexPivots,
  GomoryCuts,
  IlpAborts,
  LexMinWarmStarts, ///< solves served from a warm-started band tableau
  // poly/ - Fourier-Motzkin core.
  FmEliminations,  ///< variable eliminations performed via FM combination
  FmRowsGenerated, ///< lower*upper combinations formed across eliminations
  FmRowsPruned,    ///< generated rows dropped by inline/Imbert pruning
  RedundancyChecks,
  EmptinessTests,
  // parser/ - frontend diagnostics.
  ParserErrors, ///< error diagnostics produced by the frontend
  // deps/ - dependence analysis.
  DepCandidates, ///< conflicting access pairs tested
  DepFlow,
  DepAnti,
  DepOutput,
  DepInput,
  DepLoopIndependent, ///< edges satisfied only at the textual level
  DepCarried,         ///< edges carried by some loop level
  DepKeptOnAbort,     ///< candidates kept conservatively on a solver abort
  ReductionsDetected, ///< statements whose self-deps form a reduction cycle
  // transform/ - the Pluto algorithm.
  HyperplanesFound,
  SccCuts,
  TextualOrderRows,
  ScheduleFastPathHits,      ///< hyperplanes from dimension matching
  ScheduleFastPathFallbacks, ///< rows that needed the exact lexmin ILP
  // tile/ - Algorithms 1 & 2, section 5.4.
  BandsTiled,
  WavefrontsApplied,
  VectorizedLoops,
  // codegen/ - QRW-style separation.
  CodegenPieces,
  CodegenGuardFallbacks,
  // driver/ - final loop classification of the emitted schedule rows.
  LoopsParallel,
  LoopsPipeline,
  LoopsSequential,
  ReductionParallelLoops, ///< parallel rows that needed reduction clauses
  // service/ - compilation-service layer (Pipeline sessions, result cache).
  CacheHits,      ///< in-memory result-cache hits
  CacheDiskHits,  ///< hits served from the persistent on-disk cache
  CacheMisses,    ///< keys that required a cold compile
  CacheEvictions, ///< entries evicted to stay under the byte budget
  CacheCoalesced, ///< duplicate in-flight compiles joined (single-flight)
  StageReuses,    ///< pipeline stage accessors served from a memoized artifact
  // robustness - budgets, degraded modes, fault injection.
  CacheWriteErrors, ///< disk-cache writes that failed (ENOSPC, permission)
  JitRetries,       ///< transient JIT compiler invocations retried
  JitStaleDirsSwept, ///< stale TMPDIR work directories removed at startup
  BudgetExhausted,  ///< compiles stopped by a resource budget
  FaultsInjected,   ///< failures injected by the FaultInjector
  // tune/ - the empirical autotuner's search accounting.
  TuneVariantsEnumerated, ///< option sets enumerated from the search space
  TuneVariantsPruned,     ///< distinct variants dropped by the static pruner
  TuneVariantsMeasured,   ///< variants JIT-compiled and timed
  TuneVariantsErrors,     ///< variants skipped on a per-variant failure
  NumCounters,
};

/// Human-readable snake_case name of a counter (the JSON key).
const char *counterName(Counter C);

/// Name of a pass (the JSON key).
const char *passName(Pass P);

/// How deep the per-level dependence histogram goes; deeper carry levels
/// are clamped into the last bucket.
constexpr unsigned MaxDepLevels = 8;

/// Buckets of the scheduler's cluster-size histogram: bucket I counts
/// clusters of I + 1 statements, larger clusters clamp into the last.
constexpr unsigned MaxClusterSizes = 8;

/// One run's worth of statistics. Instances are plain data; install one
/// with setActiveStats() to start collecting.
struct PassStats {
  std::atomic<uint64_t> Counters[static_cast<unsigned>(Counter::NumCounters)];
  /// deps-by-depth histogram: bucket 0 = loop-independent, bucket L = edges
  /// first carried at loop level L (clamped to MaxDepLevels - 1).
  std::atomic<uint64_t> DepsAtLevel[MaxDepLevels];
  /// Scheduler decomposition histogram: bucket I counts weakly-connected
  /// clusters of I + 1 statements (clamped to MaxClusterSizes - 1).
  std::atomic<uint64_t> ClustersOfSize[MaxClusterSizes];
  /// Wall-clock seconds per pass. Atomic because compileRequests() runs
  /// pipeline stages on worker threads that all feed one sink; accumulation
  /// goes through addSeconds() (a CAS loop - timers fire once per stage, so
  /// contention is negligible).
  std::atomic<double> PassSeconds[static_cast<unsigned>(Pass::NumPasses)];

  PassStats() { clear(); }

  void clear();
  uint64_t get(Counter C) const {
    return Counters[static_cast<unsigned>(C)].load(std::memory_order_relaxed);
  }
  double seconds(Pass P) const {
    return PassSeconds[static_cast<unsigned>(P)].load(
        std::memory_order_relaxed);
  }
  void addSeconds(Pass P, double D) {
    auto &A = PassSeconds[static_cast<unsigned>(P)];
    double Cur = A.load(std::memory_order_relaxed);
    while (!A.compare_exchange_weak(Cur, Cur + D, std::memory_order_relaxed))
      ;
  }

  /// Serializes this run to the JSON document described in DESIGN.md
  /// section 8 ({"schema": 2, "passes": {...}, "counters": {...},
  /// "deps_by_level": [...], "trace": [...]}); the "trace" member is
  /// present iff T is non-null. "schema" versions the document shape for
  /// every consumer (plutopp --report=json, the plutod metrics endpoint).
  /// Extra, when non-null, is spliced verbatim as additional top-level
  /// members (callers pass pre-rendered JSON like
  /// `"diagnostics": [...]`).
  std::string toJson(const Trace *T = nullptr,
                     const std::string *Extra = nullptr) const;

  /// Human-readable multi-line report (the non-JSON --report form).
  std::string toText() const;
};

namespace detail {
extern std::atomic<PassStats *> ActiveStats;
} // namespace detail

/// The currently-installed sink, or null when collection is off.
inline PassStats *activeStats() {
  return detail::ActiveStats.load(std::memory_order_relaxed);
}

/// Installs (or, with null, removes) the global statistics sink. Not
/// thread-safe against concurrent pipeline runs; the driver is serial.
inline void setActiveStats(PassStats *S) {
  detail::ActiveStats.store(S, std::memory_order_relaxed);
}

/// Bulk-adds N to counter C iff collection is on. The disabled path is a
/// relaxed load + branch.
inline void count(Counter C, uint64_t N = 1) {
  if (PassStats *S = activeStats())
    S->Counters[static_cast<unsigned>(C)].fetch_add(N,
                                                    std::memory_order_relaxed);
}

/// Records one dependence edge first carried at Level (0 = loop
/// independent) in the by-depth histogram.
inline void countDepAtLevel(unsigned Level) {
  if (PassStats *S = activeStats()) {
    unsigned B = Level < MaxDepLevels ? Level : MaxDepLevels - 1;
    S->DepsAtLevel[B].fetch_add(1, std::memory_order_relaxed);
  }
}

/// Records one scheduler cluster of Size statements (Size >= 1) in the
/// cluster-size histogram.
inline void countClusterOfSize(unsigned Size) {
  if (PassStats *S = activeStats()) {
    unsigned B = Size == 0 ? 0 : Size - 1;
    if (B >= MaxClusterSizes)
      B = MaxClusterSizes - 1;
    S->ClustersOfSize[B].fetch_add(1, std::memory_order_relaxed);
  }
}

/// RAII wall-clock timer for one pass; accumulates into the sink that was
/// active at construction time (so a sink removed mid-pass still gets the
/// partial time, and a null sink costs one load).
class ScopedPassTimer {
public:
  explicit ScopedPassTimer(Pass P)
      : P(P), S(activeStats()),
        Start(S ? std::chrono::steady_clock::now()
                : std::chrono::steady_clock::time_point()) {}
  ~ScopedPassTimer() {
    if (S)
      S->addSeconds(P, std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Start)
                           .count());
  }
  ScopedPassTimer(const ScopedPassTimer &) = delete;
  ScopedPassTimer &operator=(const ScopedPassTimer &) = delete;

private:
  Pass P;
  PassStats *S;
  std::chrono::steady_clock::time_point Start;
};

} // namespace pluto

#endif // PLUTOPP_OBSERVE_PASSSTATS_H
