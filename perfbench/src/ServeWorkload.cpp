//===- perfbench/src/ServeWorkload.cpp - plutod under open-loop traffic ---===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// An in-process serve::Server (2 workers, in-memory sharded cache) driven
// over its AF_UNIX socket by one generator thread on 2 connections. The
// generator sends every request at its due time whether or not earlier
// ones were answered (an open loop), and reads responses in between.
// Latency runs from the due time. Most requests are warm hits on the
// prewarmed corpus; evenly spaced among them is one full cycle of cold
// misses, each a corpus kernel with one array renamed, which compiles and
// inserts. A whole cycle makes the miss mix - and so the compile work - the
// same in every run.
//
//===----------------------------------------------------------------------===//

#include "Compile.h"
#include "Inputs.h"
#include "OpenLoop.h"
#include "Stats.h"

#include "serve/Protocol.h"
#include "serve/Server.h"
#include "service/Hash.h"
#include "support/Json.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <map>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace perfbench;
using namespace pluto;
using namespace pluto::serve;

namespace {

constexpr unsigned SetupReps = 3;
constexpr unsigned Workers = 2;
constexpr unsigned Conns = 2;
/// Offered rate of the measured traffic. An assumption, not taken from
/// recorded plutod traffic: it was chosen so that one cycle of misses
/// through the corpus per run (at 100/s for 10 s, the 15 misses come every
/// 0.67 s, longer than any cold compile takes) never overlaps and the tail
/// percentile (p99 of 1000) falls inside the misses. It is far below the
/// server's capacity, which serve.max_rps measures.
constexpr double Rate = 100;
/// Latency limit for goodput and for the saturation ladder.
constexpr double LimitMs = 1000;
/// Saturation ladder (traced runs only): hits only, a quarter second per
/// rung.
constexpr double LadderRates[] = {1000, 2000, 4000, 8000, 16000, 32000, 64000};
constexpr double LadderStepS = 0.25;
/// How long to wait for stragglers after the last request is due.
constexpr double GraceS = 30;

/// A blocking NDJSON client; reads never block (MSG_DONTWAIT).
class Client {
public:
  Client() = default;
  ~Client() {
    if (Fd >= 0)
      close(Fd);
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  bool connectTo(const std::string &Path) {
    Fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    return connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0;
  }
  int fd() const { return Fd; }

  bool send(const std::string &Data) {
    size_t Off = 0;
    while (Off < Data.size()) {
      ssize_t N = write(Fd, Data.data() + Off, Data.size() - Off);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// Appends every complete line available now to Lines. False once the
  /// server closed the connection.
  bool readAvailable(std::vector<std::string> &Lines) {
    char Buf[1 << 16];
    for (;;) {
      ssize_t N = recv(Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
      if (N > 0) {
        In.append(Buf, static_cast<size_t>(N));
        continue;
      }
      if (N < 0 && errno == EINTR)
        continue;
      bool Open = N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      size_t Start = 0, Nl;
      while ((Nl = In.find('\n', Start)) != std::string::npos) {
        Lines.push_back(In.substr(Start, Nl - Start));
        Start = Nl + 1;
      }
      In.erase(0, Start);
      return Open;
    }
  }

private:
  int Fd = -1;
  std::string In;
};

/// The server's per-request log, captured in memory.
class LogCapture {
public:
  LogCapture() : F(open_memstream(&Buf, &Size)) {}
  ~LogCapture() {
    if (F)
      std::fclose(F);
    std::free(Buf);
  }
  LogCapture(const LogCapture &) = delete;
  LogCapture &operator=(const LogCapture &) = delete;

  std::FILE *stream() { return F; }
  /// Closes the stream (every writer must be gone) and returns its text.
  std::string take() {
    if (F) {
      std::fclose(F);
      F = nullptr;
    }
    return Buf ? std::string(Buf, Size) : std::string();
  }

private:
  char *Buf = nullptr;
  size_t Size = 0;
  std::FILE *F;
};

/// The id echoed at the head of a response line ({"plutod":1,"id":N,...}).
long long responseId(const std::string &Line) {
  size_t P = Line.find("\"id\":");
  if (P == std::string::npos)
    return -1;
  return std::strtoll(Line.c_str() + P + 5, nullptr, 10);
}

std::string wireLine(const std::string &Source, const std::string &Name,
                     long long Id) {
  WireRequest W;
  W.Operation = Op::Compile;
  W.Id = std::to_string(Id);
  W.Req.Name = Name;
  W.Req.Source = Source;
  return encodeRequest(W) + "\n";
}

/// One live server with its clients.
struct Rig {
  std::unique_ptr<LogCapture> Log;
  std::unique_ptr<Server> Srv;
  std::vector<std::unique_ptr<Client>> Clients;

  /// Drains the server (answering everything admitted), then disconnects.
  void stop() {
    if (Srv)
      Srv->drain();
    Clients.clear();
    Srv.reset();
  }
};

bool startRig(const std::string &SocketPath, Rig &G, std::string &Err) {
  G.Log = std::make_unique<LogCapture>();
  ServerConfig Cfg;
  Cfg.SocketPath = SocketPath;
  Cfg.Workers = Workers;
  Cfg.LogStream = G.Log->stream();
  auto S = Server::create(Cfg);
  if (!S) {
    Err = S.error();
    return false;
  }
  G.Srv = std::move(*S);
  G.Srv->start();
  for (unsigned I = 0; I < Conns; ++I) {
    G.Clients.push_back(std::make_unique<Client>());
    if (!G.Clients.back()->connectTo(SocketPath)) {
      Err = "cannot connect to " + SocketPath;
      return false;
    }
  }
  return true;
}

/// Sends Lines on connection 0 and waits for every answer.
bool roundTrip(Rig &G, const std::vector<std::string> &Lines,
               std::vector<std::string> &Answers) {
  for (const std::string &L : Lines)
    if (!G.Clients[0]->send(L))
      return false;
  while (Answers.size() < Lines.size()) {
    pollfd P{G.Clients[0]->fd(), POLLIN, 0};
    if (poll(&P, 1, 60000) <= 0)
      return false;
    if (!G.Clients[0]->readAvailable(Answers) && Answers.size() < Lines.size())
      return false;
  }
  return true;
}

/// Runs one open-loop schedule. Times are seconds from the schedule start.
struct LoopResult {
  Clock::time_point T0;
  std::vector<RequestTimes> Times;
  std::vector<std::string> Responses;
  uint64_t QueueDepthMax = 0;
};

LoopResult openLoop(Rig &G, const std::vector<PlannedRequest> &Plan,
                    const std::vector<std::string> &Wire, long long IdBase) {
  LoopResult Out;
  size_t N = Plan.size();
  Out.Times.resize(N);
  Out.Responses.resize(N);
  for (size_t I = 0; I < N; ++I)
    Out.Times[I].Due = Plan[I].DueS;
  double SpanS = N ? Plan.back().DueS : 0;
  Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(5);
  Out.T0 = T0;
  auto now = [&] {
    return std::chrono::duration<double>(Clock::now() - T0).count();
  };
  size_t Next = 0, Answered = 0;
  double NextSample = 0;
  std::vector<pollfd> Pfds;
  for (auto &C : G.Clients)
    Pfds.push_back(pollfd{C->fd(), POLLIN, 0});
  std::vector<std::string> Lines;
  while (Answered < N) {
    double Now = now();
    if (Now > SpanS + GraceS)
      break;
    while (Next < N && Plan[Next].DueS <= Now) {
      G.Clients[Plan[Next].Conn]->send(Wire[Next]);
      Out.Times[Next].Sent = now();
      ++Next;
    }
    if (Now >= NextSample) {
      Out.QueueDepthMax =
          std::max<uint64_t>(Out.QueueDepthMax, G.Srv->stats().QueueDepth);
      NextSample = Now + 0.005;
    }
    double WaitS = Next < N ? std::max(0.0, Plan[Next].DueS - now()) : 0.05;
    timespec Ts;
    Ts.tv_sec = static_cast<time_t>(WaitS);
    Ts.tv_nsec = static_cast<long>((WaitS - static_cast<double>(Ts.tv_sec)) * 1e9);
    for (pollfd &P : Pfds)
      P.revents = 0;
    if (ppoll(Pfds.data(), Pfds.size(), &Ts, nullptr) <= 0)
      continue;
    for (size_t C = 0; C < Pfds.size(); ++C) {
      if (!Pfds[C].revents)
        continue;
      Lines.clear();
      bool Open = G.Clients[C]->readAvailable(Lines);
      double At = now();
      for (std::string &L : Lines) {
        long long Id = responseId(L) - IdBase;
        if (Id < 0 || static_cast<size_t>(Id) >= N ||
            Out.Times[static_cast<size_t>(Id)].Answered)
          continue;
        RequestTimes &T = Out.Times[static_cast<size_t>(Id)];
        T.Received = At;
        T.Answered = true;
        Out.Responses[static_cast<size_t>(Id)] = std::move(L);
        ++Answered;
      }
      if (!Open)
        Pfds[C].fd = -1; // closed by the server: stop polling it
    }
  }
  return Out;
}

/// Server-side latency per request name, from the request log.
std::map<std::string, double> serverLatencies(const std::string &Log) {
  std::map<std::string, double> Ms;
  size_t Start = 0;
  while (Start < Log.size()) {
    size_t Nl = Log.find('\n', Start);
    if (Nl == std::string::npos)
      Nl = Log.size();
    auto V = JsonValue::parse(Log.substr(Start, Nl - Start));
    if (V) {
      const JsonValue *Name = V->find("name");
      const JsonValue *Lat = V->find("latency_ms");
      if (Name && Lat && Name->isString() && Lat->isNumber())
        Ms[Name->asString()] = Lat->asNumber();
    }
    Start = Nl + 1;
  }
  return Ms;
}

} // namespace

RunResult perfbench::runServeWorkload(uint64_t Seed, unsigned Seconds,
                                      bool Trace, SpanRecorder &Rec,
                                      const std::string &SocketPath) {
  RunResult R;
  R.Workload = "serve";
  R.Seed = Seed;
  R.Seconds = Seconds;
  R.Trace = Trace;
  const auto &Corpus = corpus();

  // Set-up: the seeded schedule and its wire lines, server start, and the
  // corpus prewarmed into the cache.
  Rig G;
  std::vector<PlannedRequest> Plan;
  std::vector<std::string> Wire;
  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    G.stop();
    Clock::time_point T0 = Clock::now();
    Plan = planTraffic(Seed, Rate, Seconds,
                       static_cast<unsigned>(Corpus.size()), Conns, "m");
    Wire.clear();
    for (size_t I = 0; I < Plan.size(); ++I)
      Wire.push_back(wireLine(Plan[I].Source, "r" + std::to_string(I),
                              static_cast<long long>(I)));
    std::string Err;
    if (!startRig(SocketPath, G, Err)) {
      R.fail("server start: " + Err);
      return R;
    }
    std::vector<std::string> Warm, Answers;
    for (size_t K = 0; K < Corpus.size(); ++K)
      Warm.push_back(wireLine(Corpus[K].Source, "w" + std::to_string(K),
                              -1 - static_cast<long long>(K)));
    if (!roundTrip(G, Warm, Answers)) {
      R.fail("prewarm: connection lost");
      G.stop();
      return R;
    }
    for (const std::string &A : Answers)
      if (A.find("\"status\":\"ok\"") == std::string::npos)
        R.fail("prewarm: " + A.substr(0, 200));
    SetupS.push_back(secondsSince(T0));
  }

  Server::Stats Before = G.Srv->stats();
  ResultCache::Snapshot CacheBefore = G.Srv->cacheSnapshot();
  std::string MetricsBefore = G.Srv->metricsJson();
  LoopResult Main = openLoop(G, Plan, Wire, 0);
  // Before the ladder and the checks, which are not part of the workload.
  double PeakRssMb = peakRssMb();
  Server::Stats After = G.Srv->stats();
  ResultCache::Snapshot CacheAfter = G.Srv->cacheSnapshot();
  std::string MetricsAfter = G.Srv->metricsJson();

  // Saturation ladder (traced runs): hits only, fresh schedule per rung.
  std::vector<std::pair<double, LoopResult>> Ladder;
  double MaxRps = 0;
  if (Trace) {
    long long IdBase = static_cast<long long>(Plan.size());
    for (double Rung : LadderRates) {
      std::vector<PlannedRequest> LP =
          planTraffic(Seed + static_cast<uint64_t>(Rung), Rung, LadderStepS, 0,
                      Conns, "l");
      std::vector<std::string> LW;
      for (size_t I = 0; I < LP.size(); ++I) {
        long long Id = IdBase + static_cast<long long>(I);
        LW.push_back(wireLine(LP[I].Source, "l" + std::to_string(Id), Id));
      }
      LoopResult LR = openLoop(G, LP, LW, IdBase);
      IdBase += static_cast<long long>(LP.size());
      // Met: every request answered ok within the limit, and no backlog
      // growing over the rung (last quarter no slower than twice the
      // first quarter, plus a millisecond).
      bool Met = true;
      std::vector<double> Lat;
      for (size_t I = 0; I < LR.Times.size(); ++I) {
        const RequestTimes &T = LR.Times[I];
        bool Ok = T.Answered &&
                  LR.Responses[I].find("\"status\":\"ok\"") != std::string::npos;
        if (!Ok || dueLatencyMs(T) > LimitMs)
          Met = false;
        Lat.push_back(T.Answered ? dueLatencyMs(T) : LimitMs);
      }
      size_t Q = Lat.size() / 4;
      if (Q > 0) {
        double First =
            median(std::vector<double>(Lat.begin(), Lat.begin() + static_cast<long>(Q)));
        double Last =
            median(std::vector<double>(Lat.end() - static_cast<long>(Q), Lat.end()));
        if (Last > 2 * First + 1)
          Met = false;
      }
      Ladder.emplace_back(Rung, std::move(LR));
      if (!Met)
        break;
      MaxRps = Rung;
    }
  }

  G.stop();
  std::string Log = G.Log->take();
  std::map<std::string, double> ServerMs = serverLatencies(Log);
  R.Attachments.emplace_back("server_metrics", MetricsAfter);

  // Spans: one per request, from due time to answer.
  if (Rec.on()) {
    for (size_t I = 0; I < Main.Times.size(); ++I) {
      const RequestTimes &T = Main.Times[I];
      if (!T.Answered)
        continue;
      auto At = [&](double S) {
        return Main.T0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(S));
      };
      Rec.add(std::string(Plan[I].Miss ? "miss " : "hit ") +
                  Corpus[Plan[I].Kernel].Name,
              "serve", I, At(T.Due), At(T.Received));
    }
  }

  // Correctness gate: every ok response byte-identical to an in-process
  // compileRequest of the same request.
  Clock::time_point C0 = Clock::now();
  std::map<unsigned, std::string> HitSha;
  for (size_t K = 0; K < Corpus.size(); ++K) {
    CompileUnit U;
    U.Name = Corpus[K].Name;
    U.Source = Corpus[K].Source;
    ColdCompile C = coldCompile(U);
    HitSha[static_cast<unsigned>(K)] =
        C.Resp.ok() ? sha256Hex(C.Resp.EmittedC) : "";
  }
  double CheckMs = secondsSince(C0) * 1e3;
  LayerTotals Totals;
  uint64_t Ok = 0, Checked = 0;
  std::vector<double> HitMs, MissMs, ServerSide, ClientOverhead;
  auto check = [&](const PlannedRequest &P, RequestTimes &T,
                   const std::string &Line, const std::string &Name,
                   uint64_t Req) {
    ++R.Attempted;
    if (!T.Answered) {
      R.fail(Name + ": no response");
      return;
    }
    auto W = decodeResponse(Line);
    if (!W || !W->ok()) {
      R.fail(Name + ": " + (W ? statusCodeName(W->Status) + (": " + W->Error)
                              : "undecodable response"));
      return;
    }
    // A hit must come from the cache and a miss must not: a cache that
    // recompiled hits, or served a stale entry for a new key, is wrong.
    if (W->CacheHit == P.Miss) {
      R.fail(Name + ": cache_hit is " + (W->CacheHit ? "true" : "false") +
             " on a planned " + (P.Miss ? "miss" : "hit"));
      return;
    }
    std::string Want;
    if (P.Miss) {
      CompileUnit U;
      U.Name = Name;
      U.Source = P.Source;
      ColdCompile C;
      if (Trace) {
        LayerSample S = tracedCompile(U, Rec, Req, Checked % 2 == 0);
        Totals.add(S);
        C = std::move(S.Cold);
      } else {
        C = coldCompile(U);
      }
      Want = C.Resp.ok() ? sha256Hex(C.Resp.EmittedC) : "";
    } else {
      Want = HitSha[P.Kernel];
    }
    ++Checked;
    if (Want.empty() || sha256Hex(W->EmittedC) != Want) {
      R.fail(Name + ": response differs from an in-process compile");
      return;
    }
    T.Ok = true;
    ++Ok;
  };
  for (size_t I = 0; I < Plan.size(); ++I) {
    Clock::time_point T1 = Clock::now();
    std::string Name = "r" + std::to_string(I);
    check(Plan[I], Main.Times[I], Main.Responses[I], Name, I);
    CheckMs += secondsSince(T1) * 1e3;
    const RequestTimes &T = Main.Times[I];
    if (!T.Answered)
      continue;
    (Plan[I].Miss ? MissMs : HitMs).push_back(dueLatencyMs(T));
    auto It = ServerMs.find(Name);
    if (It != ServerMs.end()) {
      ServerSide.push_back(It->second);
      ClientOverhead.push_back((T.Received - T.Sent) * 1e3 - It->second);
    }
  }
  for (auto &[Rung, LR] : Ladder) {
    for (size_t I = 0; I < LR.Times.size(); ++I) {
      Clock::time_point T1 = Clock::now();
      auto W = decodeResponse(LR.Responses[I]);
      ++R.Attempted;
      bool Good = LR.Times[I].Answered && W && W->ok();
      if (Good && !W->CacheHit) {
        R.fail("ladder " + std::to_string(Rung) + ": hit not served from cache");
        CheckMs += secondsSince(T1) * 1e3;
        continue;
      }
      if (Good) {
        bool Found = false;
        std::string Sha = sha256Hex(W->EmittedC);
        for (const auto &[K, S] : HitSha)
          Found |= S == Sha;
        Good = Found;
      }
      // Overload refusals above the saturation point are the ladder's
      // signal, not a wrong output.
      if (!Good && W && W->ok())
        R.fail("ladder " + std::to_string(Rung) + ": wrong output");
      else if (!Good)
        ++R.NotOk;
      CheckMs += secondsSince(T1) * 1e3;
    }
  }

  // The server's own toolchain counters over the traffic (the deltas of its
  // metrics document): the compiler work the server did. Hits compile
  // nothing and each miss compiles once, so in traced runs they must equal
  // the in-process compiles of the same misses.
  const auto &Counters = layerCounters();
  std::vector<long long> ServerCounts;
  {
    auto Before = JsonValue::parse(MetricsBefore);
    auto After = JsonValue::parse(MetricsAfter);
    for (size_t I = 0; I < Counters.size() && Before && After; ++I) {
      auto get = [&](const JsonValue &Doc) -> long long {
        const JsonValue *Cs = Doc.find("counters");
        const JsonValue *V = Cs ? Cs->find(counterName(Counters[I].second))
                                : nullptr;
        return V ? V->asInt() : -1;
      };
      ServerCounts.push_back(get(*After) - get(*Before));
    }
    if (!Before || !After)
      R.fail("server metrics document does not parse");
  }
  if (Trace)
    for (size_t I = 0; I < ServerCounts.size(); ++I)
      if (I < Totals.counts().size() &&
          ServerCounts[I] != static_cast<long long>(Totals.counts()[I]))
        R.fail(std::string("server counter ") +
               counterName(Counters[I].second) + " = " +
               std::to_string(ServerCounts[I]) +
               " over the misses, in-process " +
               std::to_string(Totals.counts()[I]));
  size_t PlannedMisses = 0;
  for (const PlannedRequest &P : Plan)
    PlannedMisses += P.Miss;
  double ServerWork = 0;
  for (long long C : ServerCounts)
    ServerWork += static_cast<double>(C);

  double SpanS = static_cast<double>(Plan.size()) / Rate;
  OpenLoopSummary Sum = summarizeOpenLoop(Main.Times, LimitMs, SpanS);
  if (!Trace) {
    setMetric(R.EndToEnd, "setup_s", median(SetupS), "s", SetupS.size());
    setMetric(R.EndToEnd, "peak_rss_mb", PeakRssMb, "MB");
    setMetric(R.EndToEnd, "ok_ratio",
              static_cast<double>(Ok) / static_cast<double>(Plan.size()),
              "ratio", Plan.size());
    setMetric(R.EndToEnd, "work_units",
              PlannedMisses ? ServerWork / static_cast<double>(PlannedMisses)
                            : 0,
              "count", PlannedMisses);
    setMetric(R.Extra, "serve_goodput_rps", Sum.GoodputPerS, "1/s", Sum.Good);
    setMetric(R.Extra, "serve_ms.p50", Sum.Latency.P50, "ms", Sum.Latency.N);
    setMetric(R.Extra, "serve_ms.tail", Sum.Latency.Tail, "ms", Sum.Latency.N);
    setMetric(R.Extra, "serve_ms.tail_pct", Sum.Latency.TailPct, "%",
              Sum.Latency.N);
  }
  setMetric(R.Extra, "serve.offered_rps", Rate, "1/s", Plan.size());
  setMetric(R.Extra, "bench.gen_lag_ms", Sum.LagP50Ms, "ms", Plan.size());
  setMetric(R.Extra, "bench.gen_lag_ms.max", Sum.LagMaxMs, "ms", Plan.size());
  setMetric(R.Extra, "serve.server_ms.p50", median(ServerSide), "ms",
            ServerSide.size());
  setMetric(R.Extra, "serve.client_overhead_ms", median(ClientOverhead), "ms",
            ClientOverhead.size());
  setMetric(R.Extra, "serve.hit_ms.p50", median(HitMs), "ms", HitMs.size());
  setMetric(R.Extra, "serve.miss_ms.p50", median(MissMs), "ms", MissMs.size());
  setMetric(R.Extra, "serve.rejected_overload",
            static_cast<double>(After.RejectedOverload - Before.RejectedOverload),
            "count");
  setMetric(R.Extra, "serve.queue_depth.max",
            static_cast<double>(Main.QueueDepthMax), "count");
  uint64_t Hits = CacheAfter.Hits - CacheBefore.Hits;
  uint64_t Misses = CacheAfter.Misses - CacheBefore.Misses;
  setMetric(R.Extra, "service.cache_hit_ratio",
            Hits + Misses ? static_cast<double>(Hits) /
                                static_cast<double>(Hits + Misses)
                          : 0,
            "ratio", Hits + Misses);
  setMetric(R.Extra, "fail_ratio",
            static_cast<double>(R.NotOk) / static_cast<double>(R.Attempted),
            "ratio", R.Attempted);
  if (Trace) {
    setMetric(R.Extra, "serve.max_rps", MaxRps, "1/s", Ladder.size());
    Totals.emit(R.Layers);
    setMetric(R.Layers, "check.ms", CheckMs, "ms", Checked);
  } else {
    setMetric(R.Extra, "check.ms", CheckMs, "ms", Checked);
  }
  return R;
}
