//===- perfbench/src/RunKernels.cpp - Speed of the generated code ---------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// The paper's Figures 6-13 (experiments E1-E6): the emitted C of the six
// paper kernels, JIT-compiled by the host cc and run at fixed sizes on a
// pinned thread count, checked against each kernel's own source compiled
// directly by cc and run serially.
//
//===----------------------------------------------------------------------===//

#include "Compile.h"
#include "Gate.h"
#include "Inputs.h"
#include "Stats.h"

#include "runtime/Jit.h"

#include <algorithm>
#include <map>
#include <omp.h>
#include <set>

using namespace perfbench;
using namespace pluto;

namespace {

using Params = std::map<std::string, long long>;

struct PaperRun {
  const char *Name;
  Params Sizes;
  /// Floating-point operations of one execution.
  double (*Flops)(const Params &);
};

double p(const Params &P, const char *N) {
  return static_cast<double>(P.at(N));
}

/// Fixed problem sizes (each run is tens of MFLOP). The first parameter is
/// the emitted code's inner array extent, so it is the largest.
const std::vector<PaperRun> &paperRuns() {
  static const std::vector<PaperRun> Runs = {
      {"Jacobi1D", {{"T", 500}, {"N", 100000}},
       [](const Params &P) { return 3 * p(P, "T") * (p(P, "N") - 3); }},
      {"Fdtd2D", {{"tmax", 200}, {"nx", 200}, {"ny", 200}},
       [](const Params &P) {
         double X = p(P, "nx"), Y = p(P, "ny");
         return p(P, "tmax") *
                (3 * (X - 1) * Y + 3 * X * (Y - 1) + 5 * (X - 1) * (Y - 1));
       }},
      {"LU", {{"N", 512}},
       [](const Params &P) {
         double F = 0, N = p(P, "N");
         for (double K = 0; K < N; ++K)
           F += (N - K - 1) + 2 * (N - K - 1) * (N - K - 1);
         return F;
       }},
      {"MVT", {{"N", 2000}},
       [](const Params &P) { return 4 * p(P, "N") * p(P, "N"); }},
      {"Seidel2D", {{"T", 200}, {"N", 200}},
       [](const Params &P) {
         return 9 * p(P, "T") * (p(P, "N") - 2) * (p(P, "N") - 2);
       }},
      {"MatMul", {{"N", 384}},
       [](const Params &P) { return 2 * p(P, "N") * p(P, "N") * p(P, "N"); }},
  };
  return Runs;
}

/// Buffers with the emitted code's layout, filled deterministically. LU
/// gets a dominant diagonal so elimination without pivoting stays finite.
std::vector<std::vector<double>> makeBuffers(const ParsedProgram &PP,
                                             const Params &Sizes,
                                             bool DominantDiagonal) {
  const Program &Prog = PP.Prog;
  long long Max = 1;
  for (const auto &[Name, V] : Sizes)
    Max = std::max(Max, V);
  long long Stride = Prog.ParamNames.empty() ? 1024 : Sizes.at(Prog.ParamNames[0]);
  std::vector<std::vector<double>> Bufs;
  unsigned Seed = 1;
  for (const ArrayInfo &A : Prog.Arrays) {
    size_t N = A.Rank == 0 ? 1 : static_cast<size_t>(Max + 2);
    for (unsigned D = 1; D < A.Rank; ++D)
      N *= static_cast<size_t>(Stride);
    std::vector<double> B(N);
    unsigned X = Seed++ * 2654435761u + 17;
    for (double &V : B) {
      X = X * 1664525u + 1013904223u;
      V = static_cast<double>((X >> 16) % 64) / 64.0;
    }
    if (DominantDiagonal && A.Rank == 2)
      for (long long I = 0; I < Stride; ++I)
        B[static_cast<size_t>(I * Stride + I)] += static_cast<double>(Max);
    Bufs.push_back(std::move(B));
  }
  return Bufs;
}

bool sameArrays(const std::vector<std::vector<double>> &Want,
                const std::vector<std::vector<double>> &Got) {
  std::string Where;
  for (size_t B = 0; B < Want.size(); ++B)
    if (!closeEnough(Want[B], Got[B], 1e-9, Where))
      return false;
  return true;
}

/// Kernels whose emitted parallel loops are known to race today: their
/// multi-threaded output is wrong while one thread matches. Counted as not
/// ok and kept out of the GFLOPS geomean, but never skipped. (LU: the
/// j-tile loop is marked parallel although tiles of one k-tile read the
/// column k that another tile of the same band writes.)
const std::set<std::string> KnownRaces = {"LU"};

std::vector<double *> pointers(std::vector<std::vector<double>> &Bufs) {
  std::vector<double *> Ps;
  for (auto &B : Bufs)
    Ps.push_back(B.data());
  return Ps;
}

} // namespace

void perfbench::runPaperKernels(
    const std::vector<std::pair<std::string, std::string>> &EmittedC,
    RunResult &R, SpanRecorder &Rec, double &CheckMs) {
  int SavedThreads = omp_get_max_threads();
  unsigned Threads = std::min(4u, static_cast<unsigned>(omp_get_num_procs()));
  std::vector<double> Gflops, JitMs;
  for (const PaperRun &Run : paperRuns()) {
    uint64_t Req = R.Attempted++;
    std::string Name = Run.Name;
    auto It = std::find_if(EmittedC.begin(), EmittedC.end(),
                           [&](const auto &E) { return E.first == Name; });
    if (It == EmittedC.end() || It->second.empty()) {
      R.fail("run " + Name + ": no emitted C to run");
      continue;
    }
    const CorpusKernel *K = nullptr;
    for (const CorpusKernel &C : corpus())
      if (Name == C.Name)
        K = &C;
    auto P = Pipeline::create();
    P->setSource(K->Source);
    auto Parsed = P->parsed();
    if (!Parsed) {
      R.fail("run " + Name + ": " + Parsed.error());
      continue;
    }
    const ParsedProgram &PP = **Parsed;

    Result<CompiledKernel> Gen = Err(std::string("not compiled"));
    JitMs.push_back(timedSpan(Rec, "jit " + Name, "runtime", Req, -1, [&] {
      Gen = CompiledKernel::compile(It->second);
    }));
    if (!Gen) {
      R.fail("run " + Name + ": JIT: " + Gen.error());
      continue;
    }

    std::vector<long long> ParamV;
    for (const std::string &Pm : PP.Prog.ParamNames)
      ParamV.push_back(Run.Sizes.at(Pm));
    std::vector<double> Consts(PP.SymConsts.size(), 0.05);
    bool Dominant = Name == "LU";
    std::vector<std::vector<double>> Pristine =
        makeBuffers(PP, Run.Sizes, Dominant);

    // Reference: the kernel's own source, serially.
    Clock::time_point C0 = Clock::now();
    int CheckSpan = Rec.open("reference " + Name, "bench", Req);
    auto Ref = CompiledKernel::compile(
        referenceWrapper(PP, K->Source, "reference"), "reference");
    std::vector<std::vector<double>> Want = Pristine;
    if (Ref) {
      omp_set_num_threads(1);
      std::vector<double *> WantP = pointers(Want);
      Ref->call(WantP, ParamV, Consts);
    }
    Rec.close(CheckSpan);
    CheckMs += secondsSince(C0) * 1e3;
    if (!Ref) {
      R.fail("run " + Name + ": reference JIT: " + Ref.error());
      continue;
    }

    std::vector<std::vector<double>> Work = Pristine;
    std::vector<double *> WorkP = pointers(Work);
    auto Reset = [&] {
      for (size_t B = 0; B < Work.size(); ++B)
        std::copy(Pristine[B].begin(), Pristine[B].end(), Work[B].begin());
    };
    MeasureOptions MO;
    MO.Warmup = 1;
    MO.Reps = 5;
    MO.Threads = Threads;
    Measurement M = measureRun(
        [&] {
          int S = Rec.open("kernel " + Name, "runtime", Req);
          Gen->call(WorkP, ParamV, Consts);
          Rec.close(S);
        },
        Reset, MO);

    // The last rep's output against the reference. On a mismatch, rerun on
    // one thread to tell a race in the parallel loops from a serial bug.
    C0 = Clock::now();
    bool Same = sameArrays(Want, Work);
    bool SerialSame = Same;
    if (!Same) {
      Reset();
      omp_set_num_threads(1);
      Gen->call(WorkP, ParamV, Consts);
      SerialSame = sameArrays(Want, Work);
    }
    CheckMs += secondsSince(C0) * 1e3;
    double G = Run.Flops(Run.Sizes) / M.MedianSeconds / 1e9;
    UnitRow *Row = nullptr;
    for (UnitRow &U : R.Units)
      if (U.Name == Name)
        Row = &U;
    if (Row)
      Row->Gflops = G;
    if (!Same) {
      std::string What = "run " + Name + ": output on " +
                         std::to_string(Threads) +
                         " threads differs from the serial reference" +
                         (SerialSame ? " (one thread matches: a race in the "
                                       "emitted parallel loops)"
                                     : " (one thread differs too)");
      if (SerialSame && KnownRaces.count(Name)) {
        R.knownDefect(What);
        if (Row)
          Row->Note = "(known defect: parallel output wrong; not in geomean)";
      } else {
        R.fail(What);
      }
      continue;
    }
    Gflops.push_back(G);
  }
  omp_set_num_threads(SavedThreads);
  setMetric(R.Extra, "run_gflops.geomean", geomean(Gflops), "GFLOPS",
            Gflops.size());
  setMetric(R.Extra, "runtime.jit_compile_ms", mean(JitMs), "ms", JitMs.size());
  setMetric(R.Extra, "runtime.threads", Threads, "count");
}
