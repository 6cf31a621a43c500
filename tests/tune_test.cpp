//===- tests/tune_test.cpp - Autotuner (tune::explore) tests --------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "tune/Tuner.h"

#include "driver/Kernels.h"
#include "observe/PassStats.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#ifndef PLUTOPP_EXAMPLES_DIR
#error "PLUTOPP_EXAMPLES_DIR must be defined by the build"
#endif

using namespace pluto;
using namespace pluto::tune;

namespace {

/// A small static space (no JIT, no compiler needed): three L1 tiles by
/// two wavefront degrees plus the implicit base variant.
SearchSpace smallSpace() {
  SearchSpace SS;
  SS.TileSizes = {0, 16, 32};
  SS.L2TileSizes = {0};
  SS.WavefrontDegrees = {0, 1};
  return SS;
}

TuneOptions staticOptions() {
  TuneOptions TO;
  TO.RunMeasurements = false;
  return TO;
}

//===----------------------------------------------------------------------===//
// Schedule grouping
//===----------------------------------------------------------------------===//

// Variants share a schedule exactly when they agree on every option the
// field table tags schedule-stage: flipping one of those must split the
// group key, flipping a lower-stage option must not.
TEST(ScheduleGroupTest, KeyFollowsTheStageTags) {
  const PlutoOptions Base;
  const std::string BaseKey = scheduleGroupKey(Base);
  for (const OptionField &F : OptionFields) {
    PlutoOptions Flipped = Base;
    F.set(Flipped, F.kind() == OptionKind::Bool ? !F.get(Base)
                                                : F.get(Base) + 1);
    if (F.Stage == OptionStage::Schedule)
      EXPECT_NE(scheduleGroupKey(Flipped), BaseKey) << F.WireKey;
    else
      EXPECT_EQ(scheduleGroupKey(Flipped), BaseKey) << F.WireKey;
  }
}

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

TEST(TuneSpecTest, ParsesAxesAndScalars) {
  SearchSpace SS;
  TuneOptions TO;
  auto R = parseSpec("tile=0,16;l2=0,8;wave=0,2;fuse=0,1;vec=1;n=32;reps=5;"
                     "warmup=2;threads=4;max-measure=3;measure=0",
                     SS, TO);
  ASSERT_TRUE(R) << R.error();
  EXPECT_EQ(SS.TileSizes, (std::vector<unsigned>{0, 16}));
  EXPECT_EQ(SS.L2TileSizes, (std::vector<unsigned>{0, 8}));
  EXPECT_EQ(SS.WavefrontDegrees, (std::vector<unsigned>{0, 2}));
  EXPECT_EQ(SS.Fusion, (std::vector<bool>{false, true}));
  EXPECT_EQ(SS.Vectorize, (std::vector<bool>{true}));
  EXPECT_EQ(TO.ProblemSize, 32u);
  EXPECT_EQ(TO.Measure.Reps, 5u);
  EXPECT_EQ(TO.Measure.Warmup, 2u);
  EXPECT_EQ(TO.Measure.Threads, 4u);
  EXPECT_EQ(TO.MaxMeasure, 3u);
  EXPECT_FALSE(TO.RunMeasurements);
}

TEST(TuneSpecTest, EmptySpecKeepsDefaults) {
  SearchSpace SS;
  TuneOptions TO;
  ASSERT_TRUE(parseSpec("", SS, TO));
  EXPECT_EQ(SS.TileSizes, SearchSpace().TileSizes);
  EXPECT_TRUE(TO.RunMeasurements);
}

TEST(TuneSpecTest, RejectsMalformedSpecs) {
  SearchSpace SS;
  TuneOptions TO;
  EXPECT_FALSE(parseSpec("tile", SS, TO));          // not key=value
  EXPECT_FALSE(parseSpec("bogus=1", SS, TO));       // unknown key
  EXPECT_FALSE(parseSpec("tile=8,x", SS, TO));      // malformed number
  EXPECT_FALSE(parseSpec("tile=", SS, TO));         // empty axis entry
  EXPECT_FALSE(parseSpec("fuse=2", SS, TO));        // bool axis out of range
  EXPECT_FALSE(parseSpec("measure=2", SS, TO));     // measure is 0|1
  EXPECT_FALSE(parseSpec("n=0", SS, TO));           // problem size >= 1
  EXPECT_FALSE(parseSpec("reps=0", SS, TO));        // at least one rep
  EXPECT_FALSE(parseSpec("max-measure=0", SS, TO)); // front must be nonempty
  // Each failure reports which entry was bad.
  auto R = parseSpec("wave=1,zap", SS, TO);
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().find("zap"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Enumeration + fingerprint dedup
//===----------------------------------------------------------------------===//

TEST(TuneExploreTest, DedupCollapsesAliasedPoints) {
  // Base defaults are tiled 32 + 1-d wavefront, so the (tile=32, wave=1)
  // cross-product point aliases the implicit base variant 0.
  TuneResult R = explore(kernels::MatMul, smallSpace(), staticOptions());
  ASSERT_EQ(R.Status, StatusCode::Ok) << R.Error;
  EXPECT_EQ(R.Enumerated, 7u); // base + 3 tiles x 2 waves
  EXPECT_EQ(R.Distinct, 6u);
  ASSERT_EQ(R.Variants.size(), 7u);

  // Exactly one duplicate, and it points at the base with an identical
  // fingerprint; duplicates are never separately compiled or scored.
  unsigned Dups = 0;
  for (const TuneVariant &V : R.Variants)
    if (V.DuplicateOf >= 0) {
      ++Dups;
      EXPECT_EQ(V.DuplicateOf, 0);
      EXPECT_EQ(V.Fingerprint, R.Variants[0].Fingerprint);
      EXPECT_FALSE(V.Measured);
      EXPECT_TRUE(V.Key.empty());
    }
  EXPECT_EQ(Dups, 1u);
}

TEST(TuneExploreTest, RedundantCombinationsShareOneFingerprint) {
  // An L2 size under an untiled variant is normalized away: both untiled
  // points collapse onto one canonical variant (the aliasing bugfix).
  SearchSpace SS;
  SS.TileSizes = {0};
  SS.L2TileSizes = {0, 8};
  SS.WavefrontDegrees = {0};
  TuneResult R = explore(kernels::MatMul, SS, staticOptions());
  ASSERT_EQ(R.Status, StatusCode::Ok) << R.Error;
  EXPECT_EQ(R.Enumerated, 3u); // base + 2 points
  EXPECT_EQ(R.Distinct, 2u);   // base, untiled (l2 collapsed)
  EXPECT_EQ(R.Variants[1].Fingerprint, R.Variants[2].Fingerprint);
}

//===----------------------------------------------------------------------===//
// Determinism of the static search trace
//===----------------------------------------------------------------------===//

TEST(TuneExploreTest, StaticTraceIsByteReproducible) {
  // With measurements off nothing in the trace depends on a clock: two
  // identical searches must serialize to the identical document.
  TuneResult A = explore(kernels::MatMul, smallSpace(), staticOptions());
  TuneResult B = explore(kernels::MatMul, smallSpace(), staticOptions());
  ASSERT_EQ(A.Status, StatusCode::Ok) << A.Error;
  EXPECT_EQ(A.traceJson(), B.traceJson());
  EXPECT_NE(A.traceJson().find("\"tune_schema\": 1"), std::string::npos);
  // The winner is the best-scored compiling variant, and its artifacts
  // ride along.
  ASSERT_NE(A.WinnerId, -1);
  EXPECT_FALSE(A.WinnerC.empty());
  EXPECT_FALSE(A.WinnerKey.empty());
  EXPECT_EQ(A.WinnerId, B.WinnerId);
}

//===----------------------------------------------------------------------===//
// Pruning
//===----------------------------------------------------------------------===//

TEST(TuneExploreTest, PruneFrontIsMonotoneInMaxMeasure) {
  // Growing the front can only admit variants, never evict one: the
  // non-pruned set at MaxMeasure=2 is contained in the one at 4.
  auto FrontIds = [](const TuneResult &R) {
    std::set<unsigned> Ids;
    for (const TuneVariant &V : R.Variants)
      if (V.Status == StatusCode::Ok && V.DuplicateOf < 0 && !V.Pruned)
        Ids.insert(V.Id);
    return Ids;
  };
  TuneOptions TO = staticOptions();
  TO.MaxMeasure = 2;
  TuneResult Small = explore(kernels::MatMul, smallSpace(), TO);
  TO.MaxMeasure = 4;
  TuneResult Large = explore(kernels::MatMul, smallSpace(), TO);
  ASSERT_EQ(Small.Status, StatusCode::Ok) << Small.Error;
  ASSERT_EQ(Large.Status, StatusCode::Ok) << Large.Error;
  std::set<unsigned> SmallFront = FrontIds(Small), LargeFront = FrontIds(Large);
  EXPECT_TRUE(std::includes(LargeFront.begin(), LargeFront.end(),
                            SmallFront.begin(), SmallFront.end()));
  EXPECT_LE(SmallFront.size(), LargeFront.size());
  // The base variant always rides along in the front, whatever its rank.
  EXPECT_EQ(SmallFront.count(0), 1u);
  EXPECT_EQ(Small.Pruned + SmallFront.size(), Small.Distinct);
}

//===----------------------------------------------------------------------===//
// Per-variant failure isolation
//===----------------------------------------------------------------------===//

TEST(TuneExploreTest, InjectedCompileFaultSkipsOneVariantOnly) {
  ASSERT_TRUE(FaultInjector::arm("tune.compile:2"));
  TuneResult R = explore(kernels::MatMul, smallSpace(), staticOptions());
  FaultInjector::disarm();
  // The search survives; exactly the second distinct variant is lost.
  ASSERT_EQ(R.Status, StatusCode::Ok) << R.Error;
  unsigned Injected = 0;
  for (const TuneVariant &V : R.Variants)
    if (V.Error.find("injected fault") != std::string::npos) {
      ++Injected;
      EXPECT_EQ(V.Status, StatusCode::ScheduleAbort);
      EXPECT_FALSE(V.Measured);
    }
  EXPECT_EQ(Injected, 1u);
  EXPECT_EQ(R.Errors, 1u);
  ASSERT_NE(R.WinnerId, -1);
  EXPECT_EQ(R.Variants[R.WinnerId].Status, StatusCode::Ok);
}

TEST(TuneExploreTest, SourceErrorFailsTheWholeSearch) {
  TuneResult R = explore("for (i = 0; i < N; i++) { a[i] = ; }", smallSpace(),
                         staticOptions());
  EXPECT_EQ(R.Status, StatusCode::SourceError);
  EXPECT_FALSE(R.Diags.empty());
  EXPECT_EQ(R.WinnerId, -1);
  EXPECT_EQ(R.exitCode(), exitCodeFor(StatusCode::SourceError));
}

TEST(TuneExploreTest, TinyBudgetDegradesToResourceExhausted) {
  // A one-work-unit budget trips inside the shared frontend: every variant
  // is resource-exhausted and the search reports that taxonomy instead of
  // hanging or crashing.
  TuneOptions TO = staticOptions();
  TO.Budget.MaxWorkUnits = 1;
  TuneResult R = explore(kernels::MatMul, smallSpace(), TO);
  EXPECT_EQ(R.Status, StatusCode::ResourceExhausted);
  EXPECT_EQ(R.WinnerId, -1);
  for (const TuneVariant &V : R.Variants)
    if (V.DuplicateOf < 0) {
      EXPECT_EQ(V.Status, StatusCode::ResourceExhausted) << V.Id;
    }
}

//===----------------------------------------------------------------------===//
// Observability
//===----------------------------------------------------------------------===//

TEST(TuneExploreTest, CountersFlowIntoPassStats) {
  PassStats S;
  setActiveStats(&S);
  TuneResult R = explore(kernels::MatMul, smallSpace(), staticOptions());
  setActiveStats(nullptr);
  ASSERT_EQ(R.Status, StatusCode::Ok) << R.Error;
  EXPECT_EQ(S.get(Counter::TuneVariantsEnumerated), R.Enumerated);
  EXPECT_EQ(S.get(Counter::TuneVariantsPruned), R.Pruned);
  EXPECT_EQ(S.get(Counter::TuneVariantsMeasured), R.Measured);
  EXPECT_EQ(S.get(Counter::TuneVariantsErrors), R.Errors);
  EXPECT_EQ(R.Measured, 0u); // static mode never measures
}

//===----------------------------------------------------------------------===//
// End-to-end measured search (needs the system C compiler)
//===----------------------------------------------------------------------===//

TEST(TuneExploreTest, MeasuredWinnerPassesDifferentialGate) {
  if (!CompiledKernel::compilerAvailable())
    GTEST_SKIP() << "no system C compiler";
  TuneOptions TO;
  TO.ProblemSize = 12;
  TO.Measure.Warmup = 1;
  TO.Measure.Reps = 2;
  TO.MaxMeasure = 3;
  TuneResult R = explore(kernels::MatMul, smallSpace(), TO);
  ASSERT_EQ(R.Status, StatusCode::Ok) << R.Error;
  // Every measured variant passed the interpreter differential gate (a
  // diverging variant would have landed in Errors, never in Measured).
  EXPECT_EQ(R.Errors, 0u);
  EXPECT_GE(R.Measured, 1u);
  EXPECT_LT(R.Measured, R.Enumerated);
  ASSERT_NE(R.WinnerId, -1);
  const TuneVariant &W = R.Variants[R.WinnerId];
  EXPECT_TRUE(W.Measured);
  ASSERT_EQ(W.Time.RepSeconds.size(), 2u);
  EXPECT_GT(W.Time.MedianSeconds, 0.0);
  // No measured variant beats the winner.
  for (const TuneVariant &V : R.Variants)
    if (V.Measured) {
      EXPECT_LE(W.Time.MedianSeconds, V.Time.MedianSeconds);
    }
  // The trace carries the timing on "_ms" lines only: stripping them
  // reproduces the static document byte-for-byte across runs.
  std::string Trace = R.traceJson();
  EXPECT_NE(Trace.find("median_ms"), std::string::npos);
  std::string Stripped;
  size_t Pos = 0;
  while (Pos < Trace.size()) {
    size_t End = Trace.find('\n', Pos);
    if (End == std::string::npos)
      End = Trace.size();
    std::string Line = Trace.substr(Pos, End - Pos);
    if (Line.find("_ms") == std::string::npos)
      Stripped += Line + "\n";
    Pos = End + 1;
  }
  EXPECT_EQ(Stripped.find("_ms"), std::string::npos);
  EXPECT_NE(Stripped.find("\"tune_schema\": 1"), std::string::npos);
}

TEST(TuneExploreTest, WinnerIsCorrectAcrossExamplesCorpus) {
  if (!CompiledKernel::compilerAvailable())
    GTEST_SKIP() << "no system C compiler";
  // A tiny measured search on real corpus files of different shapes
  // (3-d matmul, 1-d time-iterated stencil, in-place skewed stencil):
  // every measured variant must clear the interpreter differential gate,
  // so zero per-variant errors means the winner computes the right
  // answer.
  SearchSpace SS;
  SS.TileSizes = {0, 16};
  SS.L2TileSizes = {0};
  SS.WavefrontDegrees = {0, 1};
  for (const char *Name : {"matmul.c", "jacobi1d.c", "seidel2d.c"}) {
    std::ifstream In(std::string(PLUTOPP_EXAMPLES_DIR) + "/" + Name,
                     std::ios::binary);
    ASSERT_TRUE(In.good()) << Name;
    std::stringstream Src;
    Src << In.rdbuf();
    TuneOptions TO;
    TO.ProblemSize = 10;
    TO.Measure.Warmup = 1;
    TO.Measure.Reps = 2;
    TO.MaxMeasure = 2;
    TuneResult R = explore(Src.str(), SS, TO);
    ASSERT_EQ(R.Status, StatusCode::Ok) << Name << ": " << R.Error;
    EXPECT_EQ(R.Errors, 0u) << Name;
    EXPECT_GE(R.Measured, 1u) << Name;
    ASSERT_NE(R.WinnerId, -1) << Name;
    EXPECT_TRUE(R.Variants[R.WinnerId].Measured) << Name;
    EXPECT_FALSE(R.WinnerC.empty()) << Name;
  }
}

} // namespace
