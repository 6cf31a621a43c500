//===- perfbench/src/OpenLoop.h - Open-loop latency accounting --*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Accounting for open-loop traffic. Every request has a due time fixed in
/// advance by the schedule; its latency runs from that due time, not from
/// when the generator actually sent it, so a stall in the generator or in
/// the server is charged to every request it delayed. How late the
/// generator sent each request is reported separately (generator lag).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_OPENLOOP_H
#define PERFBENCH_OPENLOOP_H

#include "Stats.h"

#include <vector>

namespace perfbench {

/// One request's timeline, in seconds on one monotonic clock.
struct RequestTimes {
  double Due = 0;
  double Sent = 0;
  double Received = 0;
  /// A response arrived.
  bool Answered = false;
  /// The response was ok and its output passed the correctness gate.
  bool Ok = false;
};

/// Latency of one request in milliseconds, from its due time.
inline double dueLatencyMs(const RequestTimes &R) {
  return (R.Received - R.Due) * 1e3;
}

/// How late the generator sent one request, in milliseconds.
inline double genLagMs(const RequestTimes &R) { return (R.Sent - R.Due) * 1e3; }

struct OpenLoopSummary {
  /// Latency from due time over every answered request.
  Summary Latency;
  /// Ok responses within the latency limit, per second of schedule.
  double GoodputPerS = 0;
  size_t Good = 0;
  double LagP50Ms = 0;
  double LagMaxMs = 0;
};

/// Summarizes a run. A request that was not answered, or not ok, never
/// counts as meeting the limit. SpanS is the length of the schedule.
inline OpenLoopSummary summarizeOpenLoop(const std::vector<RequestTimes> &Rs,
                                         double LimitMs, double SpanS) {
  OpenLoopSummary S;
  std::vector<double> Lat, Lag;
  for (const RequestTimes &R : Rs) {
    Lag.push_back(genLagMs(R));
    if (!R.Answered)
      continue;
    double Ms = dueLatencyMs(R);
    Lat.push_back(Ms);
    if (R.Ok && Ms <= LimitMs)
      ++S.Good;
  }
  S.Latency = summarize(Lat);
  S.GoodputPerS = SpanS > 0 ? static_cast<double>(S.Good) / SpanS : 0;
  S.LagP50Ms = median(Lag);
  for (double L : Lag)
    S.LagMaxMs = std::max(S.LagMaxMs, L);
  return S;
}

} // namespace perfbench

#endif // PERFBENCH_OPENLOOP_H
