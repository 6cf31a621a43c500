//===- tests/serve_test.cpp - Serving-layer tests -------------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Wire-protocol round-trips (pure string work, no sockets), the sharded
// result cache's equivalence with a single shard, and the in-process
// Server over real AF_UNIX sockets: byte-identical round-trips against
// Pipeline, malformed/oversized-line resync, bounded-queue overload
// rejection, per-client fairness, graceful drain with zero dropped jobs,
// and a multi-threaded mixed-traffic soak that ends by parsing the
// metrics document.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/ShardedCache.h"
#include "service/Batch.h"
#include "service/Pipeline.h"
#include "support/Json.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace pluto;
using namespace pluto::serve;

namespace {

std::string uniqueSocketPath() {
  static std::atomic<unsigned> Seq{0};
  return "/tmp/plutopp-serve-test-" + std::to_string(getpid()) + "-" +
         std::to_string(Seq.fetch_add(1)) + ".sock";
}

/// A distinct valid kernel per index (distinct source => distinct cache
/// key => a real compile, not a hit).
std::string kernelSource(unsigned I) {
  std::string V = "v" + std::to_string(I);
  return "for (i = 0; i < N; i++) {\n"
         "  for (j = 0; j < N; j++) {\n"
         "    for (k = 0; k < N; k++) {\n"
         "      " + V + "[i][j] = " + V + "[i][j] + a[i][k] * b[k][j];\n"
         "    }\n"
         "  }\n"
         "}\n";
}

const char *BadSource = "for (i = 0; i < N; i++ {\n  a[i] = 0;\n}\n";

/// Minimal blocking test client over one AF_UNIX connection.
struct TestClient {
  int Fd = -1;
  std::string InBuf;

  ~TestClient() {
    if (Fd >= 0)
      close(Fd);
  }

  bool connectTo(const std::string &Path) {
    Fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
    return connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
           0;
  }

  bool sendAll(const std::string &Data) {
    size_t Off = 0;
    while (Off < Data.size()) {
      ssize_t W = send(Fd, Data.data() + Off, Data.size() - Off,
                       MSG_NOSIGNAL);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += static_cast<size_t>(W);
    }
    return true;
  }

  bool sendLine(const std::string &Line) { return sendAll(Line + "\n"); }

  /// Blocking line read with a timeout; false on timeout/EOF-without-line.
  bool readLine(std::string &Line, int TimeoutMs = 30000) {
    for (;;) {
      size_t Pos = InBuf.find('\n');
      if (Pos != std::string::npos) {
        Line = InBuf.substr(0, Pos);
        InBuf.erase(0, Pos + 1);
        return true;
      }
      pollfd P{Fd, POLLIN, 0};
      if (poll(&P, 1, TimeoutMs) <= 0)
        return false;
      char Buf[65536];
      ssize_t R = recv(Fd, Buf, sizeof(Buf), 0);
      if (R <= 0)
        return false;
      InBuf.append(Buf, static_cast<size_t>(R));
    }
  }

  /// Reads lines until EOF (used to collect everything through a drain).
  std::vector<std::string> readUntilEof(int TimeoutMs = 30000) {
    std::vector<std::string> Lines;
    for (;;) {
      size_t Pos;
      while ((Pos = InBuf.find('\n')) != std::string::npos) {
        Lines.push_back(InBuf.substr(0, Pos));
        InBuf.erase(0, Pos + 1);
      }
      pollfd P{Fd, POLLIN, 0};
      if (poll(&P, 1, TimeoutMs) <= 0)
        break;
      char Buf[65536];
      ssize_t R = recv(Fd, Buf, sizeof(Buf), 0);
      if (R <= 0)
        break;
      InBuf.append(Buf, static_cast<size_t>(R));
    }
    return Lines;
  }

  /// Non-blocking: how many complete lines are already buffered/readable.
  size_t drainAvailable(std::vector<std::string> &Lines) {
    for (;;) {
      pollfd P{Fd, POLLIN, 0};
      if (poll(&P, 1, 0) <= 0)
        break;
      char Buf[65536];
      ssize_t R = recv(Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
      if (R <= 0)
        break;
      InBuf.append(Buf, static_cast<size_t>(R));
    }
    size_t N = 0, Pos;
    while ((Pos = InBuf.find('\n')) != std::string::npos) {
      Lines.push_back(InBuf.substr(0, Pos));
      InBuf.erase(0, Pos + 1);
      ++N;
    }
    return N;
  }
};

std::string compileLine(const std::string &Id, const std::string &Name,
                        const std::string &Source,
                        const PlutoOptions &Opts = PlutoOptions()) {
  WireRequest R;
  R.Operation = Op::Compile;
  R.Id = Id;
  R.Req = {Name, Source, Opts};
  return encodeRequest(R);
}

//===----------------------------------------------------------------------===//
// Protocol round-trips (no sockets).
//===----------------------------------------------------------------------===//

TEST(Protocol, CompileRequestRoundTripsWithNonDefaultOptions) {
  PlutoOptions O;
  O.Tile = false;
  O.TileSize = 48;
  O.SecondLevelTile = true;
  O.L2TileSize = 4;
  O.Parallelize = false;
  O.Vectorize = false;
  O.WavefrontDegrees = 3;
  O.IncludeInputDeps = false;
  O.ParamMin = 9;
  O.FastSchedule = false;

  // Every row of the option table is exercised.
  for (const OptionField &F : OptionFields)
    EXPECT_NE(F.get(O), F.get(PlutoOptions())) << F.WireKey;

  WireRequest R;
  R.Operation = Op::Compile;
  R.Id = "{\"seq\": 7}"; // any JSON value is a legal id
  R.Req = {"unit.c", "for (i = 0; i < N; i++) { a[i] = 0; }", O};

  auto D = decodeRequest(encodeRequest(R));
  ASSERT_TRUE(bool(D)) << D.error();
  EXPECT_EQ(D->Operation, Op::Compile);
  EXPECT_EQ(D->Id, "{\"seq\":7}"); // re-serialized compactly, same value
  EXPECT_EQ(D->Req.Name, "unit.c");
  EXPECT_EQ(D->Req.Source, R.Req.Source);
  EXPECT_TRUE(D->Req.Opts == O) << "options did not survive the wire";
}

// Golden wire bytes: plutoctl and plutod of different builds must keep
// agreeing on the options object, member order included.
TEST(Protocol, OptionsJsonBytesArePinned) {
  EXPECT_EQ(optionsToJson(PlutoOptions()),
            "{\"tile\":true,\"tile_size\":32,\"l2tile\":false,"
            "\"l2tile_size\":8,\"parallel\":true,\"wavefront_degrees\":1,"
            "\"vectorize\":true,\"include_input_deps\":true,"
            "\"param_min\":4,\"fast_schedule\":true}");
  PlutoOptions O;
  O.Tile = false;
  O.TileSize = 16;
  O.SecondLevelTile = true;
  O.L2TileSize = 4;
  O.Parallelize = false;
  O.WavefrontDegrees = 2;
  O.Vectorize = false;
  O.IncludeInputDeps = false;
  O.ParamMin = 8;
  O.FastSchedule = false;
  EXPECT_EQ(optionsToJson(O),
            "{\"tile\":false,\"tile_size\":16,\"l2tile\":true,"
            "\"l2tile_size\":4,\"parallel\":false,\"wavefront_degrees\":2,"
            "\"vectorize\":false,\"include_input_deps\":false,"
            "\"param_min\":8,\"fast_schedule\":false}");
}

TEST(Protocol, PingAndMetricsRoundTrip) {
  for (Op O : {Op::Ping, Op::Metrics}) {
    WireRequest R;
    R.Operation = O;
    R.Id = "42";
    auto D = decodeRequest(encodeRequest(R));
    ASSERT_TRUE(bool(D)) << D.error();
    EXPECT_EQ(D->Operation, O);
    EXPECT_EQ(D->Id, "42");
  }
}

TEST(Protocol, DecodeRejectsBadRequests) {
  EXPECT_FALSE(bool(decodeRequest("not json at all")));
  EXPECT_FALSE(bool(decodeRequest("[1, 2]")));
  // Missing / wrong protocol version.
  EXPECT_FALSE(bool(decodeRequest("{\"op\": \"ping\"}")));
  EXPECT_FALSE(bool(decodeRequest("{\"plutod\": 2, \"op\": \"ping\"}")));
  // Unknown op; compile without source; bad options member.
  EXPECT_FALSE(bool(decodeRequest("{\"plutod\": 1, \"op\": \"explode\"}")));
  EXPECT_FALSE(bool(decodeRequest("{\"plutod\": 1, \"op\": \"compile\"}")));
  auto R = decodeRequest("{\"plutod\": 1, \"op\": \"compile\", \"source\": "
                         "\"x\", \"options\": {\"tille\": true}}");
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().find("tille"), std::string::npos)
      << "unknown option keys should be named: " << R.error();
  // Each option kind checks its JSON type; a signed field takes negatives
  // (validate(), at admission, rejects them).
  auto OptionsError = [](const std::string &Options) {
    auto D = decodeRequest("{\"plutod\": 1, \"op\": \"compile\", "
                           "\"source\": \"x\", \"options\": " +
                           Options + "}");
    return D ? std::string() : D.error();
  };
  EXPECT_EQ(OptionsError("{\"tile\": 1}"), "options.tile must be a boolean");
  EXPECT_EQ(OptionsError("{\"tile_size\": -1}"),
            "options.tile_size must be a non-negative integer");
  EXPECT_EQ(OptionsError("{\"param_min\": \"4\"}"),
            "options.param_min must be an integer");
  EXPECT_EQ(OptionsError("{\"param_min\": -3}"), "");
}

TEST(Protocol, ResponseRoundTripsOkAndError) {
  CompileResponse Ok;
  Ok.Status = StatusCode::Ok;
  Ok.Name = "m.c";
  Ok.Key = "abc123";
  Ok.EmittedC = "/* code */\nint x;\n";
  Ok.CacheHit = true;
  auto D = decodeResponse(encodeResponse("\"id-1\"", Ok));
  ASSERT_TRUE(bool(D)) << D.error();
  EXPECT_TRUE(D->ok());
  EXPECT_EQ(D->Id, "\"id-1\"");
  EXPECT_EQ(D->Key, "abc123");
  EXPECT_EQ(D->EmittedC, Ok.EmittedC);
  EXPECT_TRUE(D->CacheHit);

  CompileResponse Bad;
  Bad.Status = StatusCode::SourceError;
  Bad.Name = "b.c";
  Bad.Error = "line 1, col 2: error: boom";
  Diagnostic Diag;
  Diag.Line = 1;
  Diag.Col = 2;
  Diag.Message = "boom";
  Bad.Diags.push_back(Diag);
  auto E = decodeResponse(encodeResponse("3", Bad));
  ASSERT_TRUE(bool(E)) << E.error();
  EXPECT_EQ(E->Status, StatusCode::SourceError);
  ASSERT_EQ(E->Diags.size(), 1u);
  EXPECT_EQ(E->Diags[0].Line, 1u);
  EXPECT_EQ(E->Diags[0].Col, 2u);
  EXPECT_EQ(E->Diags[0].Message, "boom");

  auto S = decodeResponse(
      encodeSimpleResponse("null", StatusCode::Overloaded, "queue full"));
  ASSERT_TRUE(bool(S)) << S.error();
  EXPECT_EQ(S->Status, StatusCode::Overloaded);
  EXPECT_EQ(S->Error, "queue full");
}

TEST(Protocol, TuneRequestRoundTripsWithSpec) {
  WireRequest R;
  R.Operation = Op::Tune;
  R.Id = "9";
  R.Req = {"seidel.c", "for (i = 0; i < N; i++) { a[i] = 0; }",
           PlutoOptions()};
  R.Spec = "tile=0,16;wave=0,1;measure=0";
  auto D = decodeRequest(encodeRequest(R));
  ASSERT_TRUE(bool(D)) << D.error();
  EXPECT_EQ(D->Operation, Op::Tune);
  EXPECT_EQ(D->Req.Source, R.Req.Source);
  EXPECT_EQ(D->Spec, R.Spec);

  // Spec is optional: a bare tune request means the default space.
  R.Spec.clear();
  auto E = decodeRequest(encodeRequest(R));
  ASSERT_TRUE(bool(E)) << E.error();
  EXPECT_EQ(E->Operation, Op::Tune);
  EXPECT_TRUE(E->Spec.empty());

  // Like compile, tune without a source is rejected.
  EXPECT_FALSE(bool(decodeRequest("{\"plutod\": 1, \"op\": \"tune\"}")));
}

TEST(Protocol, TuneResponseCarriesWinnerAndTrace) {
  std::string Trace = "{\"tune_schema\":1,\"enumerated\":5,\"winner\":2}";
  auto D = decodeResponse(encodeTuneResponse("1", StatusCode::Ok, "s.c",
                                             "deadbeef", "/* winner */\n", "",
                                             Trace));
  ASSERT_TRUE(bool(D)) << D.error();
  EXPECT_TRUE(D->ok());
  EXPECT_EQ(D->Name, "s.c");
  EXPECT_EQ(D->Key, "deadbeef");
  EXPECT_EQ(D->EmittedC, "/* winner */\n");
  EXPECT_EQ(D->TraceJson, Trace);

  // Failed searches still ship the trace for post-mortems.
  auto E = decodeResponse(encodeTuneResponse(
      "2", StatusCode::ResourceExhausted, "s.c", "", "", "budget", Trace));
  ASSERT_TRUE(bool(E)) << E.error();
  EXPECT_EQ(E->Status, StatusCode::ResourceExhausted);
  EXPECT_EQ(E->Error, "budget");
  EXPECT_EQ(E->TraceJson, Trace);
}

TEST(Protocol, StatusNamesRoundTripAndExitCodesAggregate) {
  for (StatusCode S :
       {StatusCode::Ok, StatusCode::BadRequest, StatusCode::SourceError,
        StatusCode::ScheduleAbort, StatusCode::Internal,
        StatusCode::Overloaded}) {
    auto Back = statusCodeFromName(statusCodeName(S));
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(*Back, S);
  }
  EXPECT_FALSE(statusCodeFromName("teapot").has_value());

  // The one table: 0 ok, 2 bad input, 1 internal, 3 overloaded.
  EXPECT_EQ(exitCodeFor(StatusCode::Ok), 0);
  EXPECT_EQ(exitCodeFor(StatusCode::BadRequest), 2);
  EXPECT_EQ(exitCodeFor(StatusCode::SourceError), 2);
  EXPECT_EQ(exitCodeFor(StatusCode::ScheduleAbort), 1);
  EXPECT_EQ(exitCodeFor(StatusCode::Internal), 1);
  EXPECT_EQ(exitCodeFor(StatusCode::Overloaded), 3);

  // Precedence 2 > 1 > 3 > 0, in both argument orders.
  EXPECT_EQ(aggregateExitCodes(0, 0), 0);
  EXPECT_EQ(aggregateExitCodes(0, 3), 3);
  EXPECT_EQ(aggregateExitCodes(3, 1), 1);
  EXPECT_EQ(aggregateExitCodes(1, 2), 2);
  EXPECT_EQ(aggregateExitCodes(2, 0), 2);
  EXPECT_EQ(aggregateExitCodes(1, 3), 1);
}

//===----------------------------------------------------------------------===//
// Sharded cache.
//===----------------------------------------------------------------------===//

TEST(ShardedCache, TotalsMatchSingleShardForIdenticalTraffic) {
  ResultCache Single(
      ResultCache::Config{16ull << 20, std::string()});
  ShardedResultCache::Config SC;
  SC.Shards = 8;
  SC.MaxBytes = 16ull << 20; // split across shards; no evictions either way
  ShardedResultCache Sharded(SC);

  // Same traffic against both: N inserts, hits, misses and single-flight
  // computes.
  for (unsigned I = 0; I < 64; ++I) {
    std::string Key = "e3b0c44298fc1c" + std::to_string(I); // hex-ish prefix
    std::string Value(100 + I, 'v');
    Single.insert(Key, Value);
    Sharded.insert(Key, Value);
  }
  for (unsigned I = 0; I < 64; ++I) {
    std::string Key = "e3b0c44298fc1c" + std::to_string(I);
    EXPECT_TRUE(Single.lookup(Key).has_value());
    EXPECT_TRUE(Sharded.lookup(Key).has_value());
  }
  EXPECT_FALSE(Single.lookup("absent").has_value());
  EXPECT_FALSE(Sharded.lookup("absent").has_value());
  for (unsigned I = 0; I < 8; ++I) {
    std::string Key = "ffee" + std::to_string(I);
    auto Compute = [&]() -> Result<std::string> {
      return std::string("computed-") + std::to_string(I);
    };
    ASSERT_TRUE(bool(Single.getOrCompute(Key, Compute)));
    ASSERT_TRUE(bool(Sharded.getOrCompute(Key, Compute)));
  }

  ResultCache::Snapshot A = Single.snapshot();
  ResultCache::Snapshot B = Sharded.snapshot();
  EXPECT_EQ(A.Hits, B.Hits);
  EXPECT_EQ(A.DiskHits, B.DiskHits);
  EXPECT_EQ(A.Misses, B.Misses);
  EXPECT_EQ(A.Evictions, B.Evictions);
  EXPECT_EQ(A.Coalesced, B.Coalesced);
  EXPECT_EQ(A.Bytes, B.Bytes);
  EXPECT_EQ(A.Entries, B.Entries);
}

TEST(ShardedCache, RoutingIsStableAndInRange) {
  ShardedResultCache::Config SC;
  SC.Shards = 8;
  ShardedResultCache C(SC);
  EXPECT_EQ(C.shardCount(), 8u);
  for (const char *Key : {"00ab", "ffcd", "deadbeef", "not-hex-at-all"}) {
    unsigned S1 = C.shardIndex(Key);
    unsigned S2 = C.shardIndex(Key);
    EXPECT_EQ(S1, S2);
    EXPECT_LT(S1, 8u);
  }
}

TEST(ShardedCache, WorksAsThePipelineCacheThroughTheBaseInterface) {
  // compileRequests() only knows std::shared_ptr<ResultCache>; a sharded
  // cache must be a drop-in.
  ShardedResultCache::Config SC;
  SC.Shards = 4;
  BatchOptions BO;
  BO.Jobs = 4;
  BO.Cache = std::make_shared<ShardedResultCache>(SC);

  std::vector<CompileRequest> Reqs;
  for (unsigned I = 0; I < 8; ++I)
    Reqs.push_back({"k", kernelSource(0), PlutoOptions()}); // all identical
  auto Resps = compileRequests(Reqs, BO);
  ASSERT_EQ(Resps.size(), 8u);
  for (auto &R : Resps)
    ASSERT_TRUE(R.ok()) << R.Error;

  // Single-flight + cache: 8 identical jobs cost one cold compile.
  ResultCache::Snapshot S = BO.Cache->snapshot();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits + S.Coalesced, 7u);
}

//===----------------------------------------------------------------------===//
// Server over real sockets.
//===----------------------------------------------------------------------===//

TEST(Server, RoundTripsByteIdenticalWithPipeline) {
  ServerConfig Cfg;
  Cfg.SocketPath = uniqueSocketPath();
  Cfg.Workers = 2;
  auto S = Server::create(Cfg);
  ASSERT_TRUE(bool(S)) << S.error();
  (*S)->start();

  auto P = Pipeline::create(PlutoOptions());
  ASSERT_TRUE(bool(P));
  CompileRequest Req{"matmul", kernelSource(1), PlutoOptions()};
  CompileResponse Local = P->compileRequest(Req);
  ASSERT_TRUE(Local.ok()) << Local.Error;

  TestClient C;
  ASSERT_TRUE(C.connectTo(Cfg.SocketPath));
  ASSERT_TRUE(C.sendLine(compileLine("1", Req.Name, Req.Source)));
  std::string Line;
  ASSERT_TRUE(C.readLine(Line));
  auto R = decodeResponse(Line);
  ASSERT_TRUE(bool(R)) << R.error();
  ASSERT_TRUE(R->ok()) << R->Error;
  EXPECT_EQ(R->EmittedC, Local.EmittedC)
      << "daemon path must emit byte-identical C";
  EXPECT_EQ(R->Key, Local.Key);
  EXPECT_FALSE(R->CacheHit);

  // Same request again: served from the daemon's cache.
  ASSERT_TRUE(C.sendLine(compileLine("2", Req.Name, Req.Source)));
  ASSERT_TRUE(C.readLine(Line));
  R = decodeResponse(Line);
  ASSERT_TRUE(bool(R) && R->ok());
  EXPECT_TRUE(R->CacheHit);
  EXPECT_EQ(R->EmittedC, Local.EmittedC);

  (*S)->drain();
  Server::Stats St = (*S)->stats();
  EXPECT_EQ(St.RequestsAccepted, 2u);
  EXPECT_EQ(St.RequestsCompleted, 2u);
}

TEST(Server, TuneOpRunsAStaticSearchOverTheWire) {
  ServerConfig Cfg;
  Cfg.SocketPath = uniqueSocketPath();
  Cfg.Workers = 1;
  auto S = Server::create(Cfg);
  ASSERT_TRUE(bool(S)) << S.error();
  (*S)->start();

  WireRequest Req;
  Req.Operation = Op::Tune;
  Req.Id = "1";
  Req.Req = {"mm.c", kernelSource(1), PlutoOptions()};
  // measure=0 keeps the daemon-side search static and deterministic.
  Req.Spec = "tile=0,16;l2=0;wave=0,1;measure=0";

  TestClient C;
  ASSERT_TRUE(C.connectTo(Cfg.SocketPath));
  ASSERT_TRUE(C.sendLine(encodeRequest(Req)));
  std::string Line;
  ASSERT_TRUE(C.readLine(Line));
  auto R = decodeResponse(Line);
  ASSERT_TRUE(bool(R)) << R.error();
  ASSERT_TRUE(R->ok()) << R->Error;
  EXPECT_EQ(R->Name, "mm.c");
  EXPECT_FALSE(R->Key.empty()) << "winner key must ride along";
  EXPECT_NE(R->EmittedC.find("void kernel"), std::string::npos)
      << "winner translation unit must ride along";
  EXPECT_NE(R->TraceJson.find("\"tune_schema\":1"), std::string::npos)
      << "minified search trace must ride along: " << R->TraceJson;

  // A malformed spec is rejected at admission, before any worker runs.
  Req.Id = "2";
  Req.Spec = "tile=zap";
  ASSERT_TRUE(C.sendLine(encodeRequest(Req)));
  ASSERT_TRUE(C.readLine(Line));
  auto B = decodeResponse(Line);
  ASSERT_TRUE(bool(B)) << B.error();
  EXPECT_EQ(B->Status, StatusCode::BadRequest);
  EXPECT_NE(B->Error.find("zap"), std::string::npos) << B->Error;

  (*S)->drain();
  Server::Stats St = (*S)->stats();
  EXPECT_EQ(St.RequestsCompleted, 1u);
  EXPECT_EQ(St.BadRequests, 1u);
}

TEST(Server, SourceErrorsCarryDiagnosticsOverTheWire) {
  ServerConfig Cfg;
  Cfg.SocketPath = uniqueSocketPath();
  Cfg.Workers = 1;
  auto S = Server::create(Cfg);
  ASSERT_TRUE(bool(S)) << S.error();
  (*S)->start();

  TestClient C;
  ASSERT_TRUE(C.connectTo(Cfg.SocketPath));
  ASSERT_TRUE(C.sendLine(compileLine("1", "bad.c", BadSource)));
  std::string Line;
  ASSERT_TRUE(C.readLine(Line));
  auto R = decodeResponse(Line);
  ASSERT_TRUE(bool(R)) << R.error();
  EXPECT_EQ(R->Status, StatusCode::SourceError);
  EXPECT_FALSE(R->Diags.empty())
      << "source-error responses must carry structured diagnostics";
  for (const Diagnostic &D : R->Diags)
    EXPECT_GE(D.Line, 1u);
  (*S)->drain();
}

TEST(Server, MalformedAndOversizedLinesResyncTheConnection) {
  ServerConfig Cfg;
  Cfg.SocketPath = uniqueSocketPath();
  Cfg.Workers = 1;
  Cfg.MaxRequestBytes = 4096;
  auto S = Server::create(Cfg);
  ASSERT_TRUE(bool(S)) << S.error();
  (*S)->start();

  TestClient C;
  ASSERT_TRUE(C.connectTo(Cfg.SocketPath));

  // Garbage line: answered bad-request, connection stays usable.
  ASSERT_TRUE(C.sendLine("this is not json"));
  std::string Line;
  ASSERT_TRUE(C.readLine(Line));
  auto R = decodeResponse(Line);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R->Status, StatusCode::BadRequest);

  // Oversized line (never even valid JSON): rejected, then the stream
  // resynchronizes at the newline and the next request works.
  std::string Huge(2 * Cfg.MaxRequestBytes, 'x');
  ASSERT_TRUE(C.sendLine(Huge));
  ASSERT_TRUE(C.readLine(Line));
  R = decodeResponse(Line);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R->Status, StatusCode::BadRequest);
  EXPECT_NE(R->Error.find("byte cap"), std::string::npos) << R->Error;

  ASSERT_TRUE(C.sendLine(compileLine("7", "after.c", kernelSource(2))));
  ASSERT_TRUE(C.readLine(Line));
  R = decodeResponse(Line);
  ASSERT_TRUE(bool(R)) << R.error();
  EXPECT_TRUE(R->ok()) << R->Error;
  EXPECT_EQ(R->Id, "7");

  // Invalid PlutoOptions are classified bad-request at admission.
  PlutoOptions BadOpts;
  BadOpts.TileSize = 0;
  ASSERT_TRUE(C.sendLine(compileLine("8", "badopts.c", kernelSource(2),
                                     BadOpts)));
  ASSERT_TRUE(C.readLine(Line));
  R = decodeResponse(Line);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R->Status, StatusCode::BadRequest);

  (*S)->drain();
  Server::Stats St = (*S)->stats();
  EXPECT_EQ(St.RequestsAccepted, St.RequestsCompleted);
  EXPECT_GE(St.BadRequests, 3u);
}

TEST(Server, BoundedQueueRejectsOverloadCleanly) {
  ServerConfig Cfg;
  Cfg.SocketPath = uniqueSocketPath();
  Cfg.Workers = 1;
  Cfg.MaxQueue = 1;
  auto S = Server::create(Cfg);
  ASSERT_TRUE(bool(S)) << S.error();
  (*S)->start();

  // Burst 24 distinct compiles in one write: the single worker cannot
  // drain a 1-deep queue as fast as the event loop admits, so some are
  // rejected - and every single line still gets exactly one response.
  constexpr unsigned N = 24;
  TestClient C;
  ASSERT_TRUE(C.connectTo(Cfg.SocketPath));
  std::string Burst;
  for (unsigned I = 0; I < N; ++I)
    Burst += compileLine(std::to_string(I), "u" + std::to_string(I),
                         kernelSource(100 + I)) +
             "\n";
  ASSERT_TRUE(C.sendAll(Burst));

  unsigned OkCount = 0, Overloaded = 0;
  for (unsigned I = 0; I < N; ++I) {
    std::string Line;
    ASSERT_TRUE(C.readLine(Line)) << "response " << I << " never arrived";
    auto R = decodeResponse(Line);
    ASSERT_TRUE(bool(R)) << R.error();
    if (R->ok())
      ++OkCount;
    else {
      EXPECT_EQ(R->Status, StatusCode::Overloaded);
      EXPECT_NE(R->Error.find("queue"), std::string::npos) << R->Error;
      ++Overloaded;
    }
  }
  EXPECT_EQ(OkCount + Overloaded, N);
  EXPECT_GE(OkCount, 1u);
  EXPECT_GE(Overloaded, 1u) << "a 1-deep queue must reject under burst";

  (*S)->drain();
  Server::Stats St = (*S)->stats();
  EXPECT_EQ(St.RequestsAccepted, OkCount);
  EXPECT_EQ(St.RequestsCompleted, OkCount);
  EXPECT_EQ(St.RejectedOverload, Overloaded);
}

TEST(Server, RoundRobinSchedulingIsFairAcrossConnections) {
  ServerConfig Cfg;
  Cfg.SocketPath = uniqueSocketPath();
  Cfg.Workers = 1; // strictly sequential: scheduling order is observable
  auto S = Server::create(Cfg);
  ASSERT_TRUE(bool(S)) << S.error();
  (*S)->start();

  constexpr unsigned Deep = 16;
  TestClient A, B;
  ASSERT_TRUE(A.connectTo(Cfg.SocketPath));
  ASSERT_TRUE(B.connectTo(Cfg.SocketPath));

  // A pipelines a deep burst of distinct compiles; then B sends one.
  std::string Burst;
  for (unsigned I = 0; I < Deep; ++I)
    Burst += compileLine(std::to_string(I), "a" + std::to_string(I),
                         kernelSource(200 + I)) +
             "\n";
  ASSERT_TRUE(A.sendAll(Burst));
  ASSERT_TRUE(B.sendLine(compileLine("0", "b", kernelSource(300))));

  // B must be answered long before A's queue empties: round-robin gives
  // B's only job the next slot, it does not wait behind A's 16.
  std::string BLine;
  ASSERT_TRUE(B.readLine(BLine));
  auto BR = decodeResponse(BLine);
  ASSERT_TRUE(bool(BR)) << BR.error();
  EXPECT_TRUE(BR->ok()) << BR->Error;

  std::vector<std::string> ASeen;
  A.drainAvailable(ASeen);
  EXPECT_LT(ASeen.size(), Deep)
      << "B's single job was starved behind A's whole pipeline";

  (*S)->drain();
  Server::Stats St = (*S)->stats();
  EXPECT_EQ(St.RequestsAccepted, St.RequestsCompleted);
}

TEST(Server, DrainCompletesEveryAdmittedJobAndFlushes) {
  ServerConfig Cfg;
  Cfg.SocketPath = uniqueSocketPath();
  Cfg.Workers = 2;
  auto S = Server::create(Cfg);
  ASSERT_TRUE(bool(S)) << S.error();
  (*S)->start();

  constexpr unsigned N = 12;
  TestClient C;
  ASSERT_TRUE(C.connectTo(Cfg.SocketPath));
  std::string Burst;
  for (unsigned I = 0; I < N; ++I)
    Burst += compileLine(std::to_string(I), "d" + std::to_string(I),
                         kernelSource(400 + I)) +
             "\n";
  ASSERT_TRUE(C.sendAll(Burst));

  // Give the event loop a moment to admit, then drain concurrently with
  // the in-flight compiles.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  (*S)->drain();

  // Everything admitted was answered and flushed before the close.
  std::vector<std::string> Lines = C.readUntilEof(5000);
  Server::Stats St = (*S)->stats();
  EXPECT_EQ(St.RequestsAccepted, St.RequestsCompleted)
      << "drain dropped admitted jobs";
  EXPECT_EQ(Lines.size(),
            static_cast<size_t>(St.RequestsCompleted + St.RejectedOverload))
      << "every request line must be answered, even across a drain";
  for (const std::string &L : Lines) {
    auto R = decodeResponse(L);
    ASSERT_TRUE(bool(R)) << R.error();
    EXPECT_TRUE(R->Status == StatusCode::Ok ||
                R->Status == StatusCode::Overloaded);
  }
}

TEST(Server, SoakMixedTrafficThenMetricsAddUp) {
  ServerConfig Cfg;
  Cfg.SocketPath = uniqueSocketPath();
  Cfg.Workers = 4;
  Cfg.CacheShards = 4;
  auto S = Server::create(Cfg);
  ASSERT_TRUE(bool(S)) << S.error();
  (*S)->start();

  constexpr unsigned Threads = 4, PerThread = 18;
  std::atomic<unsigned> OkSeen{0}, SourceErrSeen{0}, PingsSeen{0};
  std::atomic<bool> Failed{false};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T) {
    Pool.emplace_back([&, T] {
      TestClient C;
      if (!C.connectTo(Cfg.SocketPath)) {
        Failed = true;
        return;
      }
      for (unsigned I = 0; I < PerThread && !Failed; ++I) {
        std::string Line;
        switch (I % 3) {
        case 0: // a fresh compile (some repeated across threads -> hits)
          C.sendLine(compileLine("0", "s.c", kernelSource(I % 6)));
          break;
        case 1: // a source error
          C.sendLine(compileLine("1", "bad.c", BadSource));
          break;
        case 2: { // a ping
          WireRequest R;
          R.Operation = Op::Ping;
          C.sendLine(encodeRequest(R));
          break;
        }
        }
        if (!C.readLine(Line)) {
          Failed = true;
          return;
        }
        auto R = decodeResponse(Line);
        if (!R) {
          Failed = true;
          return;
        }
        if (R->Status == StatusCode::Ok) {
          if (I % 3 == 2)
            ++PingsSeen;
          else
            ++OkSeen;
        } else if (R->Status == StatusCode::SourceError)
          ++SourceErrSeen;
      }
    });
  }
  for (auto &T : Pool)
    T.join();
  ASSERT_FALSE(Failed.load());
  EXPECT_EQ(OkSeen.load(), Threads * 6u);
  EXPECT_EQ(SourceErrSeen.load(), Threads * 6u);
  EXPECT_EQ(PingsSeen.load(), Threads * 6u);

  // Scrape metrics over the wire and cross-check against stats().
  TestClient M;
  ASSERT_TRUE(M.connectTo(Cfg.SocketPath));
  WireRequest MR;
  MR.Operation = Op::Metrics;
  MR.Id = "\"m\"";
  ASSERT_TRUE(M.sendLine(encodeRequest(MR)));
  std::string Line;
  ASSERT_TRUE(M.readLine(Line));
  auto R = decodeResponse(Line);
  ASSERT_TRUE(bool(R)) << R.error();
  ASSERT_TRUE(R->ok());
  auto Doc = JsonValue::parse(R->MetricsJson);
  ASSERT_TRUE(bool(Doc)) << Doc.error();

  const JsonValue *Schema = Doc->find("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->asInt(), 2);
  const JsonValue *Srv = Doc->find("server");
  ASSERT_NE(Srv, nullptr) << "metrics must carry the server section";
  Server::Stats St = (*S)->stats();
  EXPECT_EQ(Srv->find("requests_accepted")->asInt(),
            static_cast<long long>(St.RequestsAccepted));
  EXPECT_EQ(St.RequestsAccepted,
            static_cast<uint64_t>(Threads * PerThread * 2 / 3));
  const JsonValue *CacheJ = Doc->find("cache");
  ASSERT_NE(CacheJ, nullptr);
  ResultCache::Snapshot CS = (*S)->cacheSnapshot();
  EXPECT_EQ(CacheJ->find("misses")->asInt(),
            static_cast<long long>(CS.Misses));
  // 6 distinct ok kernels across 24 ok requests: at least 18 were served
  // warm (hit or coalesced). Failed compiles are never cached, so every
  // cold bad-source attempt is an extra miss - hence >=, not ==.
  EXPECT_GE(CS.Misses, 6u);
  EXPECT_GE(CS.Hits + CS.Coalesced, 18u);
  const JsonValue *Lat = Doc->find("latency_ms");
  ASSERT_NE(Lat, nullptr);
  EXPECT_EQ(Lat->find("count")->asInt(),
            static_cast<long long>(St.RequestsCompleted));
  const JsonValue *Counters = Doc->find("counters");
  ASSERT_NE(Counters, nullptr) << "toolchain counters must be present";
  EXPECT_GT(Counters->find("lexmin_calls")->asInt(), 0);

  (*S)->drain();
  St = (*S)->stats();
  EXPECT_EQ(St.RequestsAccepted, St.RequestsCompleted);
}

} // namespace
