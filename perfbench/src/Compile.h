//===- perfbench/src/Compile.h - Timed calls into the Pipeline --*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How the benchmark measures one compile, from outside the program:
///
///  - coldCompile: a fresh Pipeline session and one compileRequest, no
///    cache and no statistics sink - what the end-to-end metrics time. The
///    unit's budget is installed around the call as a support::Budget
///    (rather than carried in the request), so its work units - the
///    compiler's own operation count - can be read back;
///  - tracedCompile: the same cold compile, then the same compile with a
///    PassStats sink installed (the per-unit counter deltas, and the
///    compileRequest time the pass timers do not cover), then the stage
///    accessors called one at a time under the benchmark's spans with a
///    Budget installed to count work units.
///
/// LayerTotals folds traced compiles into the per-layer metrics, each a
/// mean per compiled unit.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMPILE_H
#define PERFBENCH_COMPILE_H

#include "Report.h"
#include "Spans.h"

#include "observe/PassStats.h"
#include "service/Pipeline.h"
#include "support/Budget.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct CompileUnit {
  std::string Name;
  std::string Source;
  pluto::PlutoOptions Opts;
  pluto::BudgetLimits Budget;
  /// Expected to end resource-exhausted today (a known defect): counted as
  /// not ok, but not as a failed check. Should it compile, its output is
  /// checked like any other.
  bool KnownDefect = false;
};

struct ColdCompile {
  /// The session that compiled (kept for the correctness gate).
  std::optional<pluto::Pipeline> Session;
  pluto::CompileResponse Resp;
  /// Session creation + compileRequest, in milliseconds.
  double Ms = 0;
  /// Budget work units the compile charged (deterministic).
  double WorkUnits = 0;
};

ColdCompile coldCompile(const CompileUnit &U);

/// Everything one traced measurement of a unit yields.
struct LayerSample {
  ColdCompile Cold;
  double TracedMs = 0;
  double UnattributedMs = 0;
  double CacheKeyUs = 0;
  double ParserMs = 0, DepsMs = 0, TransformMs = 0, LowerMs = 0;
  double TileMs = 0, CodegenMs = 0, EmitMs = 0;
  double WorkUnits = 0;
  double EmittedBytes = 0;
  /// The per-layer PassStats counters, in layerCounters() order.
  std::vector<uint64_t> Counts;
};

/// The PassStats counters reported per layer, with their metric names.
const std::vector<std::pair<const char *, pluto::Counter>> &layerCounters();

/// Measures U three ways (see the file comment). UntracedFirst alternates
/// which of the untraced and traced compileRequest runs first, so neither
/// always finds the caches warmed by the other.
LayerSample tracedCompile(const CompileUnit &U, SpanRecorder &Rec, uint64_t Req,
                          bool UntracedFirst);

class LayerTotals {
public:
  void add(const LayerSample &S);
  /// Counter totals over every added unit, in layerCounters() order.
  const std::vector<uint64_t> &counts() const { return Sum.Counts; }
  /// Sets every compile-path per-layer metric (means per unit) plus
  /// trace.overhead_ratio; check.ms is the caller's.
  void emit(std::vector<Metric> &Layers) const;

private:
  size_t N = 0;
  LayerSample Sum;
  double UntracedMs = 0;
};

/// Runs a compile workload ("kernels", "l2tile" or "stress").
RunResult runCompileWorkload(const std::string &Workload, uint64_t Seed,
                             unsigned Seconds, bool Trace, SpanRecorder &Rec);

/// The generated-code phase of the kernels workload: JIT-compiles and runs
/// the emitted C of the six paper kernels (EmittedC, keyed by corpus name),
/// checks each against its native reference, and records GFLOPS.
void runPaperKernels(const std::vector<std::pair<std::string, std::string>> &
                         EmittedC,
                     RunResult &R, SpanRecorder &Rec, double &CheckMs);

/// Runs the serve workload; the server listens on SocketPath.
RunResult runServeWorkload(uint64_t Seed, unsigned Seconds, bool Trace,
                           SpanRecorder &Rec, const std::string &SocketPath);

} // namespace perfbench

#endif // PERFBENCH_COMPILE_H
