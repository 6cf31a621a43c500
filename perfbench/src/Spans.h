//===- perfbench/src/Spans.h - The benchmark's own trace spans --*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into the program's
/// public API (stage accessors, compileRequest, JIT compile, kernel calls,
/// serve requests). Spans of one unit or request share its request id and
/// name the span that caused them. They are kept in memory and written out
/// once, at the end of a traced run, as Chrome trace-event JSON (load it in
/// chrome://tracing or Perfetto). When tracing is off, recording is a
/// no-op and only the duration is measured.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

class SpanRecorder {
public:
  struct Span {
    std::string Name;
    std::string Layer;
    double StartUs = 0;
    double DurUs = 0;
    uint64_t Req = 0;
    int Parent = -1;
  };

  explicit SpanRecorder(bool On) : On(On), Epoch(Clock::now()) {}

  bool on() const { return On; }

  /// Opens a span; returns its index, or -1 when tracing is off.
  int open(const std::string &Name, const std::string &Layer, uint64_t Req,
           int Parent = -1);
  /// Closes span Idx; -1 (tracing off) is a no-op.
  void close(int Idx);

  /// Records a span that has already finished.
  void add(const std::string &Name, const std::string &Layer, uint64_t Req,
           Clock::time_point Start, Clock::time_point End, int Parent = -1);

  /// {"traceEvents": [...]} with one complete ("X") event per span.
  std::string chromeJson() const;

private:
  bool On;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

/// Runs F inside a span and returns its wall time in milliseconds.
template <typename Fn>
double timedSpan(SpanRecorder &Rec, const std::string &Name,
                 const std::string &Layer, uint64_t Req, int Parent, Fn &&F) {
  int Idx = Rec.open(Name, Layer, Req, Parent);
  Clock::time_point T0 = Clock::now();
  F();
  double Ms = secondsSince(T0) * 1e3;
  Rec.close(Idx);
  return Ms;
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
