//===- perfbench/tests/perfbench_test.cpp - The benchmark's own tests -----===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Seeded determinism of every generated input, tail-percentile selection,
// and due-time latency accounting of the open loop.
//
//===----------------------------------------------------------------------===//

#include "Gate.h"
#include "Inputs.h"
#include "OpenLoop.h"
#include "Report.h"
#include "Stats.h"

#include "support/Json.h"
#include "support/StressGen.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <set>

using namespace perfbench;

TEST(Inputs, SameSeedSameInputs) {
  auto A = planTraffic(7, 200, 3, 40, 2, "m");
  auto B = planTraffic(7, 200, 3, 40, 2, "m");
  ASSERT_EQ(A.size(), 600u);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].DueS, B[I].DueS);
    EXPECT_EQ(A[I].Kernel, B[I].Kernel);
    EXPECT_EQ(A[I].Miss, B[I].Miss);
    EXPECT_EQ(A[I].Source, B[I].Source);
    EXPECT_EQ(A[I].Conn, B[I].Conn);
  }
  EXPECT_EQ(stressSeeds(7, 4), stressSeeds(7, 4));
  for (unsigned long long S : stressSeeds(7, 2))
    EXPECT_EQ(pluto::generateStressProgram(100, S),
              pluto::generateStressProgram(100, S));
  Rng R1(7), R2(7);
  EXPECT_EQ(permutation(15, R1), permutation(15, R2));
}

TEST(Inputs, OtherSeedOtherInputs) {
  auto A = planTraffic(7, 200, 3, 40, 2, "m");
  auto B = planTraffic(8, 200, 3, 40, 2, "m");
  bool Differ = false;
  for (size_t I = 0; I < A.size(); ++I)
    Differ |= A[I].Source != B[I].Source;
  EXPECT_TRUE(Differ);
  EXPECT_NE(stressSeeds(7, 4), stressSeeds(8, 4));
}

TEST(Inputs, EvenlySpacedMissesEachNew) {
  for (uint64_t Seed : {3u, 4u, 5u}) {
    auto Plan = planTraffic(Seed, 100, 10, 15, 2, "m");
    std::set<std::string> MissSources;
    std::set<unsigned> Kernels;
    std::vector<size_t> At;
    for (size_t I = 0; I < Plan.size(); ++I) {
      if (Plan[I].Miss) {
        At.push_back(I);
        MissSources.insert(Plan[I].Source);
        Kernels.insert(Plan[I].Kernel);
        EXPECT_NE(Plan[I].Source, corpus()[Plan[I].Kernel].Source);
      } else {
        EXPECT_EQ(Plan[I].Source, corpus()[Plan[I].Kernel].Source);
      }
    }
    // Exactly one cycle: every kernel once, every source new, even spacing.
    ASSERT_EQ(At.size(), 15u);
    EXPECT_EQ(MissSources.size(), 15u);
    EXPECT_EQ(Kernels.size(), corpus().size());
    for (size_t K = 1; K < At.size(); ++K)
      EXPECT_EQ(At[K] - At[K - 1], Plan.size() / 15);
  }
}

TEST(Inputs, RenameIsWholeIdentifier) {
  EXPECT_EQ(renameIdentifier("a[i] = aa[i] + a[i-1];", "a", "b"),
            "b[i] = aa[i] + b[i-1];");
  EXPECT_EQ(arrayNames("x1[i] = x1[i] + a[i][j] * y1[j];"),
            (std::vector<std::string>{"x1", "a", "y1"}));
}

TEST(Stats, TailPercentileLeavesTenSamplesBeyond) {
  EXPECT_EQ(tailPercentile(0), 50.0);
  EXPECT_EQ(tailPercentile(39), 50.0);
  EXPECT_EQ(tailPercentile(40), 75.0);
  EXPECT_EQ(tailPercentile(99), 75.0);
  EXPECT_EQ(tailPercentile(100), 90.0);
  EXPECT_EQ(tailPercentile(200), 95.0);
  EXPECT_EQ(tailPercentile(999), 95.0);
  EXPECT_EQ(tailPercentile(1000), 99.0);
  EXPECT_EQ(tailPercentile(10000), 99.9);
  // Every rung really leaves at least ten samples above it.
  for (size_t N : {40u, 100u, 200u, 1000u, 10000u, 12345u}) {
    long Rung = std::lround(tailPercentile(N) * 10); // tenths of a percent
    EXPECT_GE(static_cast<long>(N) * (1000 - Rung), 10 * 1000) << N;
  }
}

TEST(Stats, QuantilesAndSummary) {
  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(I);
  EXPECT_DOUBLE_EQ(median(V), 50.5);
  Summary S = summarize(V);
  EXPECT_EQ(S.N, 100u);
  EXPECT_EQ(S.TailPct, 90.0);
  EXPECT_DOUBLE_EQ(S.Tail, quantile(V, 0.9));
  EXPECT_NEAR(geomean({1, 100}), 10, 1e-12);
  EXPECT_EQ(geomean({1, 0}), 0);
}

TEST(OpenLoop, LatencyRunsFromDueTime) {
  // Ten requests due every 10 ms. The generator stalls 100 ms before the
  // fourth: it and every later request are sent late, and the stall counts
  // in their latency even though the server answered each in 1 ms.
  std::vector<RequestTimes> Rs(10);
  for (size_t I = 0; I < Rs.size(); ++I) {
    RequestTimes &R = Rs[I];
    R.Due = 0.010 * static_cast<double>(I);
    R.Sent = I < 3 ? R.Due : std::max(R.Due, 0.130);
    R.Received = R.Sent + 0.001;
    R.Answered = R.Ok = true;
  }
  EXPECT_NEAR(dueLatencyMs(Rs[0]), 1, 1e-9);
  EXPECT_NEAR(dueLatencyMs(Rs[3]), 101, 1e-9);
  EXPECT_NEAR(genLagMs(Rs[3]), 100, 1e-9);
  OpenLoopSummary S = summarizeOpenLoop(Rs, 50, 0.1);
  EXPECT_NEAR(S.LagMaxMs, 100, 1e-9);
  // Requests 0-2 (1 ms) and 9 (41 ms) meet 50 ms; 3-8 (51-101 ms) do not.
  EXPECT_EQ(S.Good, 4u);
  EXPECT_NEAR(S.GoodputPerS, 40, 1e-9);
  EXPECT_GT(S.Latency.P50, 1.0);
}

TEST(OpenLoop, FailedOrUnansweredNeverMeetTheLimit) {
  std::vector<RequestTimes> Rs(3);
  for (RequestTimes &R : Rs) {
    R.Received = 0.001;
    R.Answered = true;
    R.Ok = true;
  }
  Rs[1].Ok = false;
  Rs[2].Answered = false;
  OpenLoopSummary S = summarizeOpenLoop(Rs, 50, 1);
  EXPECT_EQ(S.Good, 1u);
  EXPECT_EQ(S.Latency.N, 2u);
}

TEST(Gate, CloseEnoughIsRelative) {
  std::string Where;
  EXPECT_TRUE(closeEnough({1e6, 1}, {1e6 + 1e-4, 1 + 1e-10}, 1e-9, Where));
  EXPECT_FALSE(closeEnough({1}, {1.001}, 1e-9, Where));
  EXPECT_FALSE(closeEnough({1}, {std::nan("")}, 1e-9, Where));
}

TEST(Spec, BenchmarkJsonDeclaresWhatTheSummaryPrints) {
  std::ifstream In(PERFBENCH_SPEC_FILE);
  ASSERT_TRUE(In) << PERFBENCH_SPEC_FILE;
  std::stringstream Text;
  Text << In.rdbuf();
  auto Doc = pluto::JsonValue::parse(Text.str());
  ASSERT_TRUE(Doc) << Doc.error();
  auto expect = [&](const char *Key, const std::vector<MetricSpec> &Spec) {
    const pluto::JsonValue *List = Doc->find(Key);
    ASSERT_TRUE(List && List->isArray()) << Key;
    ASSERT_EQ(List->array().size(), Spec.size()) << Key;
    for (size_t I = 0; I < Spec.size(); ++I) {
      EXPECT_EQ(List->array()[I].find("name")->asString(), Spec[I].Name);
      EXPECT_EQ(List->array()[I].find("unit")->asString(), Spec[I].Unit);
    }
  };
  expect("end_to_end", endToEndSpec());
  expect("per_layer", perLayerSpec());
}
