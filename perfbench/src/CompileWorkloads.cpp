//===- perfbench/src/CompileWorkloads.cpp - kernels, l2tile, stress -------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// The three compile workloads share one loop: round after round, every
// unit is compiled cold (fresh session, no cache) on this one thread, in a
// seeded order, until the measured time is used up. A round always
// completes, so every unit has the same number of samples.
//
//===----------------------------------------------------------------------===//

#include "Compile.h"
#include "Gate.h"
#include "Inputs.h"
#include "Stats.h"

#include "observe/PassStats.h"
#include "service/Hash.h"
#include "support/StressGen.h"

#include <set>

using namespace perfbench;
using namespace pluto;

namespace {

/// Times the set-up runs before the first timed compile (it runs again
/// after every round); setup_s is the median.
constexpr unsigned SetupReps = 3;
/// Deterministic work budget of one l2tile compile: about ten times the
/// heaviest unit that completes (Fdtd2D, ~100k units).
constexpr uint64_t L2WorkBudget = 1000000;
/// Statements per stress program, and programs per stress round.
constexpr unsigned StressStatements = 100;
constexpr unsigned StressPrograms = 4;
/// Largest parameter value in the interpreter gate: past one 32-wide tile,
/// so partial and full tiles both execute (deep nests run smaller).
constexpr long long GateParam = 34;

CompileRequest requestFor(const CompileUnit &U) {
  CompileRequest R;
  R.Name = U.Name;
  R.Source = U.Source;
  R.Opts = U.Opts;
  R.Budget = U.Budget;
  return R;
}

PlutoOptions optionsFor(const std::string &Workload) {
  PlutoOptions O;
  O.SecondLevelTile = Workload == "l2tile";
  return O;
}

std::vector<CompileUnit> makeUnits(const std::string &Workload,
                                   uint64_t Seed) {
  std::vector<CompileUnit> Us;
  if (Workload == "stress") {
    for (unsigned long long S : stressSeeds(Seed, StressPrograms)) {
      CompileUnit U;
      U.Name = "stress100-" + std::to_string(S);
      U.Source = generateStressProgram(StressStatements, S);
      Us.push_back(std::move(U));
    }
    return Us;
  }
  for (const CorpusKernel &K : corpus()) {
    CompileUnit U;
    U.Name = K.Name;
    U.Source = K.Source;
    U.Opts = optionsFor(Workload);
    if (Workload == "l2tile") {
      U.Budget.MaxWorkUnits = L2WorkBudget;
      // The codegen projection blowup (ROADMAP): trips the budget today.
      U.KnownDefect = U.Name == "Seidel2D";
    }
    Us.push_back(std::move(U));
  }
  return Us;
}

/// Per-unit state across rounds.
struct UnitState {
  std::vector<double> Ms;
  std::string Status;
  std::string FirstSha;
  std::string EmittedC;
  size_t Bytes = 0;
  std::set<std::string> Verified;
  double WorkUnits = -1;
};

struct Tally {
  uint64_t Ok = 0;
  uint64_t Nondeterministic = 0;
  uint64_t GateRuns = 0;
};

/// Checks one compile. An output is verified by the interpreter gate the
/// first time it appears, and later copies by their bytes.
void checkUnit(const CompileUnit &U, ColdCompile &C, UnitState &S,
               RunResult &R, Tally &T) {
  const CompileResponse &Resp = C.Resp;
  S.Status = statusCodeName(Resp.Status);
  if (!Resp.ok()) {
    std::string What = U.Name + ": " + S.Status + ": " + Resp.Error;
    if (U.KnownDefect && Resp.Status == StatusCode::ResourceExhausted)
      R.knownDefect(What);
    else
      R.fail(What);
    return;
  }
  std::string Sha = sha256Hex(Resp.EmittedC);
  if (S.FirstSha.empty()) {
    S.FirstSha = Sha;
    S.Bytes = Resp.EmittedC.size();
    S.EmittedC = Resp.EmittedC;
  } else if (Sha != S.FirstSha) {
    ++T.Nondeterministic;
  }
  if (!S.Verified.count(Sha)) {
    ++T.GateRuns;
    std::string Why = interpreterGate(*C.Session, GateParam);
    if (!Why.empty()) {
      R.fail(U.Name + ": " + Why);
      return;
    }
    S.Verified.insert(Sha);
  }
  ++T.Ok;
}

} // namespace

const std::vector<std::pair<const char *, Counter>> &perfbench::layerCounters() {
  static const std::vector<std::pair<const char *, Counter>> L = {
      {"deps.candidates", Counter::DepCandidates},
      {"transform.hyperplanes", Counter::HyperplanesFound},
      {"transform.fastpath_hits", Counter::ScheduleFastPathHits},
      {"transform.fastpath_fallbacks", Counter::ScheduleFastPathFallbacks},
      {"ilp.lexmin_calls", Counter::LexMinCalls},
      {"ilp.simplex_pivots", Counter::SimplexPivots},
      {"ilp.gomory_cuts", Counter::GomoryCuts},
      {"ilp.warm_starts", Counter::LexMinWarmStarts},
      {"codegen.pieces", Counter::CodegenPieces},
      {"codegen.guard_fallbacks", Counter::CodegenGuardFallbacks},
      {"poly.fm_eliminations", Counter::FmEliminations},
      {"poly.fm_rows_generated", Counter::FmRowsGenerated},
      {"poly.fm_rows_pruned", Counter::FmRowsPruned},
      {"poly.redundancy_checks", Counter::RedundancyChecks},
      {"poly.emptiness_tests", Counter::EmptinessTests},
  };
  return L;
}

ColdCompile perfbench::coldCompile(const CompileUnit &U) {
  ColdCompile C;
  CompileRequest Req = requestFor(U);
  Req.Budget = BudgetLimits();
  Budget B(U.Budget);
  Clock::time_point T0 = Clock::now();
  {
    ScopedBudget Install(&B);
    auto P = Pipeline::create(U.Opts);
    if (P) {
      C.Session.emplace(std::move(*P));
      C.Resp = C.Session->compileRequest(Req);
    } else {
      C.Resp.Status = StatusCode::BadRequest;
      C.Resp.Error = P.error();
    }
  }
  C.Ms = secondsSince(T0) * 1e3;
  C.WorkUnits = static_cast<double>(B.workUsed());
  return C;
}

//===----------------------------------------------------------------------===//
// Traced compiles
//===----------------------------------------------------------------------===//

LayerSample perfbench::tracedCompile(const CompileUnit &U, SpanRecorder &Rec,
                                     uint64_t Req, bool UntracedFirst) {
  LayerSample S;
  int Root = Rec.open("unit " + U.Name, "bench", Req);

  auto Untraced = [&] { S.Cold = coldCompile(U); };
  auto Traced = [&] {
    PassStats St;
    setActiveStats(&St);
    CompileRequest CR = requestFor(U);
    int Span = Rec.open("compile", "service", Req, Root);
    Clock::time_point T0 = Clock::now();
    auto P = Pipeline::create(U.Opts);
    double RequestMs = 0;
    if (P)
      RequestMs = timedSpan(Rec, "compileRequest", "service", Req, Span,
                            [&] { (void)P->compileRequest(CR); });
    S.TracedMs = secondsSince(T0) * 1e3;
    Rec.close(Span);
    setActiveStats(nullptr);
    double PassMs = 0;
    for (unsigned I = 0; I < static_cast<unsigned>(Pass::NumPasses); ++I)
      PassMs += St.seconds(static_cast<Pass>(I)) * 1e3;
    S.UnattributedMs = RequestMs - PassMs;
    for (const auto &[Name, C] : layerCounters())
      S.Counts.push_back(St.get(C));
  };
  if (UntracedFirst) {
    Untraced();
    Traced();
  } else {
    Traced();
    Untraced();
  }

  // The stage accessors one at a time, each under its own span; the
  // installed Budget (the unit's limits, or unlimited) counts work units.
  {
    PassStats St;
    setActiveStats(&St);
    Budget B(U.Budget);
    ScopedBudget Install(&B);
    auto P = Pipeline::create(U.Opts);
    if (P) {
      S.CacheKeyUs = 1e3 * timedSpan(Rec, "cacheKey", "service", Req, Root,
                                     [&] { (void)P->cacheKey(U.Source); });
      P->setSource(U.Source);
      bool Ok = true;
      S.ParserMs = timedSpan(Rec, "parsed", "parser", Req, Root,
                             [&] { Ok = static_cast<bool>(P->parsed()); });
      if (Ok)
        S.DepsMs = timedSpan(Rec, "dependences", "deps", Req, Root, [&] {
          Ok = static_cast<bool>(P->dependences());
        });
      if (Ok)
        S.TransformMs = timedSpan(Rec, "scheduled", "transform", Req, Root, [&] {
          Ok = static_cast<bool>(P->scheduled());
        });
      if (Ok)
        S.LowerMs = timedSpan(Rec, "lowered", "lower", Req, Root,
                              [&] { Ok = static_cast<bool>(P->lowered()); });
      if (Ok)
        S.EmitMs = timedSpan(Rec, "emitted", "service", Req, Root, [&] {
          auto E = P->emitted();
          if (E)
            S.EmittedBytes = static_cast<double>((*E)->size());
        });
      S.TileMs = St.seconds(Pass::Tile) * 1e3;
      S.CodegenMs = St.seconds(Pass::Codegen) * 1e3;
    }
    S.WorkUnits = static_cast<double>(B.workUsed());
    setActiveStats(nullptr);
  }
  Rec.close(Root);
  return S;
}

void LayerTotals::add(const LayerSample &S) {
  ++N;
  UntracedMs += S.Cold.Ms;
  Sum.TracedMs += S.TracedMs;
  Sum.UnattributedMs += S.UnattributedMs;
  Sum.CacheKeyUs += S.CacheKeyUs;
  Sum.ParserMs += S.ParserMs;
  Sum.DepsMs += S.DepsMs;
  Sum.TransformMs += S.TransformMs;
  Sum.LowerMs += S.LowerMs;
  Sum.TileMs += S.TileMs;
  Sum.CodegenMs += S.CodegenMs;
  Sum.EmitMs += S.EmitMs;
  Sum.WorkUnits += S.WorkUnits;
  Sum.EmittedBytes += S.EmittedBytes;
  Sum.Counts.resize(S.Counts.size());
  for (size_t I = 0; I < S.Counts.size(); ++I)
    Sum.Counts[I] += S.Counts[I];
}

void LayerTotals::emit(std::vector<Metric> &L) const {
  double D = N ? static_cast<double>(N) : 1;
  auto M = [&](const char *Name, double Total, const char *Unit) {
    setMetric(L, Name, Total / D, Unit, N);
  };
  M("parser.ms", Sum.ParserMs, "ms");
  M("deps.ms", Sum.DepsMs, "ms");
  M("transform.ms", Sum.TransformMs, "ms");
  M("lower.ms", Sum.LowerMs, "ms");
  M("tile.ms", Sum.TileMs, "ms");
  M("codegen.ms", Sum.CodegenMs, "ms");
  M("budget.work_units", Sum.WorkUnits, "count");
  M("service.emit_ms", Sum.EmitMs, "ms");
  M("service.emitted_bytes", Sum.EmittedBytes, "bytes");
  M("service.cache_key_us", Sum.CacheKeyUs, "us");
  M("pipeline.unattributed_ms", Sum.UnattributedMs, "ms");
  double Generated = 0, Pruned = 0;
  const auto &Counters = layerCounters();
  for (size_t I = 0; I < Counters.size(); ++I) {
    double Total =
        I < Sum.Counts.size() ? static_cast<double>(Sum.Counts[I]) : 0;
    M(Counters[I].first, Total, "count");
    if (Counters[I].second == Counter::FmRowsGenerated)
      Generated = Total;
    if (Counters[I].second == Counter::FmRowsPruned)
      Pruned = Total;
  }
  setMetric(L, "poly.fm_prune_ratio", Generated ? Pruned / Generated : 0,
            "ratio", N);
  setMetric(L, "trace.overhead_ratio",
            UntracedMs > 0 ? Sum.TracedMs / UntracedMs : 0, "ratio", N);
}

//===----------------------------------------------------------------------===//
// The workload loop
//===----------------------------------------------------------------------===//

RunResult perfbench::runCompileWorkload(const std::string &Workload,
                                        uint64_t Seed, unsigned Seconds,
                                        bool Trace, SpanRecorder &Rec) {
  RunResult R;
  R.Workload = Workload;
  R.Seed = Seed;
  R.Seconds = Seconds;
  R.Trace = Trace;

  // Set-up is input generation: the corpus units, or the stress programs.
  // It runs SetupReps times up front and once more after every round
  // (outside the timed compiles), so its median samples the host across
  // the whole run rather than one moment of it.
  std::vector<CompileUnit> Units;
  std::vector<double> SetupS;
  auto setUp = [&] {
    Clock::time_point T0 = Clock::now();
    Units = makeUnits(Workload, Seed);
    SetupS.push_back(secondsSince(T0));
  };
  for (unsigned I = 0; I < SetupReps; ++I)
    setUp();

  std::vector<UnitState> States(Units.size());
  Rng Order(Seed);
  LayerTotals Totals;
  Tally T;
  double CheckMs = 0, CompileS = 0, WorkUnits = 0;
  // Checks and the repeated set-ups do not use up the measured time.
  double UntimedS = 0;
  unsigned Rounds = 0;
  Clock::time_point Start = Clock::now();
  do {
    for (unsigned Idx :
         permutation(static_cast<unsigned>(Units.size()), Order)) {
      const CompileUnit &U = Units[Idx];
      uint64_t Req = R.Attempted++;
      ColdCompile C;
      if (Trace) {
        LayerSample S = tracedCompile(U, Rec, Req, Rounds % 2 == 0);
        Totals.add(S);
        C = std::move(S.Cold);
      } else {
        C = coldCompile(U);
      }
      States[Idx].Ms.push_back(C.Ms);
      States[Idx].WorkUnits = C.WorkUnits;
      CompileS += C.Ms / 1e3;
      WorkUnits += C.WorkUnits;

      Clock::time_point T0 = Clock::now();
      int Span = Rec.open("check " + U.Name, "bench", Req);
      checkUnit(U, C, States[Idx], R, T);
      Rec.close(Span);
      double CheckS = secondsSince(T0);
      CheckMs += CheckS * 1e3;
      UntimedS += CheckS;
    }
    ++Rounds;
    setUp();
    UntimedS += SetupS.back();
  } while (secondsSince(Start) - UntimedS < Seconds);

  std::vector<double> All;
  for (size_t I = 0; I < Units.size(); ++I) {
    const UnitState &S = States[I];
    All.insert(All.end(), S.Ms.begin(), S.Ms.end());
    UnitRow Row;
    Row.Name = Units[I].Name;
    Row.Status = S.Status;
    Row.Sha256 = S.FirstSha;
    Row.Bytes = S.Bytes;
    Row.CompileMsP50 = median(S.Ms);
    Row.Samples = S.Ms.size();
    Row.WorkUnits = S.WorkUnits;
    if (Units[I].KnownDefect)
      Row.Note = "(known defect: expected resource-exhausted)";
    R.Units.push_back(Row);
  }
  double Attempted = static_cast<double>(R.Attempted);
  if (!Trace) {
    Summary Sum = summarize(All);
    setMetric(R.EndToEnd, "setup_s", median(SetupS), "s", SetupS.size());
    setMetric(R.EndToEnd, "peak_rss_mb", peakRssMb(), "MB");
    setMetric(R.EndToEnd, "ok_ratio", static_cast<double>(T.Ok) / Attempted,
              "ratio", R.Attempted);
    setMetric(R.EndToEnd, "work_units", WorkUnits / Attempted, "count",
              R.Attempted);
    setMetric(R.Extra, "compile_per_s",
              static_cast<double>(All.size()) / CompileS, "1/s", All.size());
    setMetric(R.Extra, "compile_ms.p50", Sum.P50, "ms", Sum.N);
    setMetric(R.Extra, "compile_ms.tail", Sum.Tail, "ms", Sum.N);
    setMetric(R.Extra, "compile_ms.tail_pct", Sum.TailPct, "%", Sum.N);
  }
  if (Trace && Workload == "kernels") {
    std::vector<std::pair<std::string, std::string>> Paper;
    for (size_t I = 0; I < Units.size(); ++I)
      if (corpus()[I].Paper)
        Paper.emplace_back(Units[I].Name, States[I].EmittedC);
    runPaperKernels(Paper, R, Rec, CheckMs);
  }
  setMetric(R.Extra, "fail_ratio",
            static_cast<double>(R.NotOk) / static_cast<double>(R.Attempted),
            "ratio", R.Attempted);
  setMetric(R.Extra, "rounds", Rounds, "count");
  setMetric(R.Extra, "nondeterministic_outputs",
            static_cast<double>(T.Nondeterministic), "count");
  setMetric(R.Extra, "gate_runs", static_cast<double>(T.GateRuns), "count");
  if (Trace) {
    Totals.emit(R.Layers);
    setMetric(R.Layers, "check.ms", CheckMs, "ms", T.GateRuns);
  } else {
    setMetric(R.Extra, "check.ms", CheckMs, "ms", T.GateRuns);
  }
  return R;
}
