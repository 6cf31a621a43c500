//===- perfbench/src/Spans.cpp - The benchmark's own trace spans ----------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "support/Json.h"

#include <cstdio>

using namespace perfbench;

static double usSince(Clock::time_point Epoch, Clock::time_point T) {
  return std::chrono::duration<double, std::micro>(T - Epoch).count();
}

int SpanRecorder::open(const std::string &Name, const std::string &Layer,
                       uint64_t Req, int Parent) {
  if (!On)
    return -1;
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.StartUs = usSince(Epoch, Clock::now());
  S.Req = Req;
  S.Parent = Parent;
  Spans.push_back(std::move(S));
  return static_cast<int>(Spans.size() - 1);
}

void SpanRecorder::close(int Idx) {
  if (Idx < 0)
    return;
  Span &S = Spans[static_cast<size_t>(Idx)];
  S.DurUs = usSince(Epoch, Clock::now()) - S.StartUs;
}

void SpanRecorder::add(const std::string &Name, const std::string &Layer,
                       uint64_t Req, Clock::time_point Start,
                       Clock::time_point End, int Parent) {
  if (!On)
    return;
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.StartUs = usSince(Epoch, Start);
  S.DurUs = usSince(Epoch, End) - S.StartUs;
  S.Req = Req;
  S.Parent = Parent;
  Spans.push_back(std::move(S));
}

std::string SpanRecorder::chromeJson() const {
  std::string Out = "{\"traceEvents\": [\n";
  char Buf[160];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out += "{\"name\": " + pluto::jsonQuote(S.Name) +
           ", \"cat\": " + pluto::jsonQuote(S.Layer);
    std::snprintf(Buf, sizeof(Buf),
                  ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"req\": %llu, \"span\": %zu, "
                  "\"parent\": %d}}",
                  S.StartUs, S.DurUs, static_cast<unsigned long long>(S.Req),
                  I, S.Parent);
    Out += Buf;
    Out += I + 1 < Spans.size() ? ",\n" : "\n";
  }
  Out += "]}\n";
  return Out;
}
