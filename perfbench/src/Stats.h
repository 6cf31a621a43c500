//===- perfbench/src/Stats.h - Sample summaries -----------------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How the benchmark summarizes a set of timings: the median, and the
/// highest percentile of a fixed ladder that still has at least ten samples
/// beyond it (the "tail"). The ladder is fixed so that a change in sample
/// count between two runs moves the reported percentile only when it
/// crosses a rung, never continuously.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Linearly interpolated quantile, Q in [0, 1] (numpy's default rule).
/// Zero for an empty sample.
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// The tail percentile reported for N samples: the highest of 99.9, 99, 95,
/// 90 and 75 that leaves at least ten samples beyond it, else the median.
inline double tailPercentile(size_t N) {
  // Rungs in tenths of a percent; N * (1000 - R) / 1000 >= 10 in integers.
  for (unsigned R : {999u, 990u, 950u, 900u, 750u})
    if (N * (1000 - R) >= 10 * 1000)
      return R / 10.0;
  return 50.0;
}

/// Median and tail of one set of timings.
struct Summary {
  size_t N = 0;
  double P50 = 0;
  double Tail = 0;
  double TailPct = 50;
};

inline Summary summarize(const std::vector<double> &V) {
  Summary S;
  S.N = V.size();
  S.P50 = median(V);
  S.TailPct = tailPercentile(V.size());
  S.Tail = quantile(V, S.TailPct / 100.0);
  return S;
}

/// Geometric mean of positive values; zero when empty or any is <= 0.
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V) {
    if (!(X > 0))
      return 0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(V.size()));
}

inline double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += X;
  return S / static_cast<double>(V.size());
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
