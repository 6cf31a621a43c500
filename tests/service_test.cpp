//===- tests/service_test.cpp - Compilation service layer tests -----------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Covers the src/service stack: PlutoOptions validation/equality/
// fingerprinting, the SHA-256 content hash, the result cache (LRU byte
// budget, disk persistence, single-flight dedup), Pipeline sessions
// (staged artifacts, reuse, cache keys) and the concurrent batch driver -
// including the determinism contract that cached and cold compiles of
// every examples/*.c kernel are byte-identical.
//
//===----------------------------------------------------------------------===//

#include "service/Batch.h"
#include "service/Hash.h"
#include "service/Pipeline.h"
#include "service/ResultCache.h"
#include "service/Version.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>

#ifndef PLUTOPP_EXAMPLES_DIR
#error "PLUTOPP_EXAMPLES_DIR must be defined by the build"
#endif

using namespace pluto;
namespace fs = std::filesystem;

namespace {

const char *MatMul = "for (i = 0; i <= N - 1; i++)\n"
                     "  for (j = 0; j <= N - 1; j++)\n"
                     "    for (k = 0; k <= N - 1; k++)\n"
                     "      C[i][j] = C[i][j] + A[i][k] * B[k][j];\n";

const char *Jacobi = "for (t = 0; t <= T - 1; t++)\n"
                     "  for (i = 1; i <= N - 2; i++)\n"
                     "    b[i] = 0.333 * (a[i - 1] + a[i] + a[i + 1]);\n";

std::string tempDir(const std::string &Suffix) {
  const char *Tmp = std::getenv("TMPDIR");
  std::string Dir = (Tmp && *Tmp) ? Tmp : "/tmp";
  return Dir + "/plutopp_service_test_" + std::to_string(getpid()) + Suffix;
}

std::vector<fs::path> exampleKernels() {
  std::vector<fs::path> Out;
  for (const auto &E : fs::directory_iterator(PLUTOPP_EXAMPLES_DIR))
    if (E.path().extension() == ".c")
      Out.push_back(E.path());
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::string readFile(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// One default-options request per examples/*.c kernel.
std::vector<CompileRequest> exampleRequests() {
  std::vector<CompileRequest> Reqs;
  for (const fs::path &K : exampleKernels())
    Reqs.push_back({K.filename().string(), readFile(K)});
  return Reqs;
}

//===----------------------------------------------------------------------===//
// PlutoOptions: validate / equality / fingerprint
//===----------------------------------------------------------------------===//

TEST(OptionsTest, DefaultsValidate) {
  EXPECT_TRUE(PlutoOptions().validate().hasValue());
}

TEST(OptionsTest, RejectsDegenerateValues) {
  {
    PlutoOptions O;
    O.TileSize = 0;
    auto V = O.validate();
    ASSERT_FALSE(V.hasValue());
    EXPECT_NE(V.error().find("tile size"), std::string::npos);
  }
  {
    PlutoOptions O;
    O.L2TileSize = 0;
    EXPECT_FALSE(O.validate().hasValue());
  }
  {
    PlutoOptions O;
    O.WavefrontDegrees = 0;
    EXPECT_FALSE(O.validate().hasValue());
  }
  {
    PlutoOptions O;
    O.ParamMin = -1;
    EXPECT_FALSE(O.validate().hasValue());
  }
}

// The library-level regression for the tile-size-zero bug: a zero must be
// rejected before supernode construction, through every entry point.
TEST(OptionsTest, ZeroTileSizeFailsFastThroughEveryEntryPoint) {
  PlutoOptions O;
  O.TileSize = 0;
  EXPECT_FALSE(Pipeline::create(O).hasValue());
  EXPECT_FALSE(optimizeSource(MatMul, O).hasValue());
  auto B = compileRequests({{"m", MatMul, O}});
  EXPECT_EQ(B.at(0).Status, StatusCode::BadRequest);
}

TEST(OptionsTest, EqualityIsFieldWise) {
  PlutoOptions A, B;
  EXPECT_TRUE(A == B);
  B.TileSize = 16;
  EXPECT_TRUE(A != B);
  B = A;
  B.CG.ParallelPragmaRows.insert(2);
  EXPECT_TRUE(A != B);
}

TEST(OptionsTest, FingerprintIsSensitiveToEveryField) {
  const PlutoOptions Base;
  std::vector<PlutoOptions> Variants(13, Base);
  Variants[0].Tile = false;
  Variants[1].TileSize = 16;
  Variants[2].SecondLevelTile = true;
  // L2TileSize only matters under SecondLevelTile (alone it is normalized
  // away; see FingerprintNormalizesIgnoredFields below).
  Variants[3].SecondLevelTile = true;
  Variants[3].L2TileSize = 4;
  Variants[4].Parallelize = false;
  Variants[5].WavefrontDegrees = 2;
  Variants[6].Vectorize = false;
  Variants[7].IncludeInputDeps = false;
  Variants[8].ParamMin = 8;
  Variants[9].CG.MaxPieces = 12;
  Variants[10].CG.EnableSeparation = false;
  Variants[11].CG.ParallelPragmaRows.insert(1);
  Variants[12].FastSchedule = false;

  std::set<std::string> Fps;
  Fps.insert(Base.fingerprint());
  for (const PlutoOptions &V : Variants) {
    EXPECT_TRUE(V != Base);
    Fps.insert(V.fingerprint());
  }
  // Base + every single-field variant are pairwise distinct.
  EXPECT_EQ(Fps.size(), Variants.size() + 1);
  // Equal options, equal fingerprint; fingerprints are deterministic.
  PlutoOptions Copy = Base;
  EXPECT_EQ(Copy.fingerprint(), Base.fingerprint());
}

// The fingerprint-aliasing bugfix: fields the pipeline ignores under the
// current toggles (a wavefront degree without parallelism, tile sizes on
// an untiled run) must not split the fingerprint - such option sets cannot
// produce different output and must share one cache entry.
TEST(OptionsTest, FingerprintNormalizesIgnoredFields) {
  // Wavefront degree is meaningless without parallelization.
  PlutoOptions A, B;
  A.Parallelize = B.Parallelize = false;
  A.WavefrontDegrees = 1;
  B.WavefrontDegrees = 3;
  EXPECT_TRUE(A != B); // equality stays field-wise...
  EXPECT_EQ(A.fingerprint(), B.fingerprint()); // ...fingerprint looks through

  // Tile sizes (both levels) are meaningless on an untiled run.
  PlutoOptions C, D;
  C.Tile = D.Tile = false;
  C.TileSize = 16;
  D.TileSize = 64;
  D.SecondLevelTile = true;
  D.L2TileSize = 4;
  EXPECT_EQ(C.fingerprint(), D.fingerprint());

  // The L2 multiplier is meaningless without second-level tiling.
  PlutoOptions E, F;
  E.L2TileSize = 4;
  F.L2TileSize = 16;
  EXPECT_EQ(E.SecondLevelTile, false);
  EXPECT_EQ(E.fingerprint(), F.fingerprint());

  // But the same fields DO split the fingerprint once their toggle is on.
  PlutoOptions G = E, H = F;
  G.SecondLevelTile = H.SecondLevelTile = true;
  EXPECT_NE(G.fingerprint(), H.fingerprint());

  // normalized() is idempotent and is what fingerprint() hashes.
  EXPECT_EQ(A.normalized().fingerprint(), A.fingerprint());
  EXPECT_TRUE(A.normalized() == A.normalized().normalized());
}

/// Every transformation field of PlutoOptions moved off its default.
PlutoOptions allNonDefaultOptions() {
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
  return O;
}

// Golden fingerprints: the fingerprint is hashed into every cache key, so
// its bytes must not move without a ToolchainVersion bump. Note the
// fingerprint key for IncludeInputDeps is input_deps, not the wire key.
TEST(OptionsTest, FingerprintBytesArePinned) {
  EXPECT_EQ(PlutoOptions().fingerprint(),
            "tile=1;tile_size=32;l2tile=0;l2tile_size=8;parallel=1;"
            "wavefront_degrees=1;vectorize=1;input_deps=1;param_min=4;"
            "fast_schedule=1;cg_max_pieces=24;cg_separation=1;"
            "cg_pragma_rows=");
  // Untiled and unparallelized: normalization resets the sizes, the L2
  // level and the wavefront degree.
  EXPECT_EQ(allNonDefaultOptions().fingerprint(),
            "tile=0;tile_size=32;l2tile=0;l2tile_size=8;parallel=0;"
            "wavefront_degrees=1;vectorize=0;input_deps=0;param_min=8;"
            "fast_schedule=0;cg_max_pieces=24;cg_separation=1;"
            "cg_pragma_rows=");
  // The same with Tile and Parallelize back on, so every value shows.
  PlutoOptions Tiled = allNonDefaultOptions();
  Tiled.Tile = Tiled.Parallelize = true;
  EXPECT_EQ(Tiled.fingerprint(),
            "tile=1;tile_size=16;l2tile=1;l2tile_size=4;parallel=1;"
            "wavefront_degrees=2;vectorize=0;input_deps=0;param_min=8;"
            "fast_schedule=0;cg_max_pieces=24;cg_separation=1;"
            "cg_pragma_rows=");
  EXPECT_STREQ(ToolchainVersion, "plutopp-4");
}

//===----------------------------------------------------------------------===//
// SHA-256
//===----------------------------------------------------------------------===//

TEST(HashTest, Fips180Vectors) {
  EXPECT_EQ(
      sha256Hex(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      sha256Hex("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(HashTest, IncrementalMatchesOneShot) {
  std::string S(1000, 'x');
  for (size_t I = 0; I < S.size(); ++I)
    S[I] = static_cast<char>('a' + I % 26);
  Sha256 H;
  for (size_t I = 0; I < S.size(); I += 37)
    H.update(S.substr(I, 37));
  EXPECT_EQ(H.hexDigest(), sha256Hex(S));
}

//===----------------------------------------------------------------------===//
// ResultCache
//===----------------------------------------------------------------------===//

TEST(ResultCacheTest, HitMissAndLruEvictionUnderByteBudget) {
  ResultCache::Config C;
  C.MaxBytes = 3 * (1 + 10); // three 1-byte keys with 10-byte values
  ResultCache Cache(C);

  EXPECT_FALSE(Cache.lookup("a").has_value());
  Cache.insert("a", std::string(10, 'A'));
  Cache.insert("b", std::string(10, 'B'));
  Cache.insert("c", std::string(10, 'C'));
  EXPECT_EQ(Cache.snapshot().Entries, 3u);
  EXPECT_EQ(Cache.snapshot().Evictions, 0u);

  // Touch "a" so "b" becomes least recently used, then overflow.
  EXPECT_TRUE(Cache.lookup("a").has_value());
  Cache.insert("d", std::string(10, 'D'));
  auto S = Cache.snapshot();
  EXPECT_EQ(S.Entries, 3u);
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_FALSE(Cache.lookup("b").has_value()); // the LRU victim
  EXPECT_TRUE(Cache.lookup("a").has_value());
  EXPECT_TRUE(Cache.lookup("c").has_value());
  EXPECT_TRUE(Cache.lookup("d").has_value());
  EXPECT_LE(Cache.snapshot().Bytes, C.MaxBytes);
}

TEST(ResultCacheTest, OversizedValueIsNotMemoryResident) {
  ResultCache::Config C;
  C.MaxBytes = 8;
  ResultCache Cache(C);
  Cache.insert("k", std::string(100, 'V'));
  auto S = Cache.snapshot();
  EXPECT_EQ(S.Entries, 0u); // evicted itself immediately
  EXPECT_EQ(S.Evictions, 1u);
}

TEST(ResultCacheTest, DiskTierPersistsAcrossInstances) {
  std::string Dir = tempDir("_disk");
  {
    ResultCache::Config C;
    C.DiskDir = Dir;
    ResultCache Cache(C);
    ASSERT_TRUE(Cache.diskEnabled());
    Cache.insert("deadbeef", "emitted unit\n");
  }
  // The on-disk layout is versioned (DESIGN.md section 9).
  EXPECT_TRUE(fs::exists(fs::path(Dir) / "v1" / "deadbeef.c"));
  {
    ResultCache::Config C;
    C.DiskDir = Dir;
    ResultCache Cache(C); // fresh memory tier
    auto V = Cache.lookup("deadbeef");
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, "emitted unit\n");
    EXPECT_EQ(Cache.snapshot().DiskHits, 1u);
    // Promoted: the second lookup is a memory hit.
    Cache.lookup("deadbeef");
    EXPECT_EQ(Cache.snapshot().Hits, 1u);
  }
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
}

TEST(ResultCacheTest, SingleFlightComputesOncePerKey) {
  ResultCache Cache;
  std::atomic<unsigned> Computes{0};
  auto Slow = [&]() -> Result<std::string> {
    Computes.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return std::string("value");
  };
  std::vector<std::thread> Ts;
  std::atomic<unsigned> Successes{0};
  for (int I = 0; I < 4; ++I)
    Ts.emplace_back([&] {
      auto R = Cache.getOrCompute("key", Slow);
      if (R.hasValue() && *R == "value")
        Successes.fetch_add(1);
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Computes.load(), 1u);
  EXPECT_EQ(Successes.load(), 4u);
  // Latecomers coalesced onto the leader's flight (or, if the leader
  // finished first, hit the cache); either way no recompute happened.
  auto S = Cache.snapshot();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Coalesced + S.Hits, 3u);
}

TEST(ResultCacheTest, FailedComputeIsNotCachedAndSharedWithWaiters) {
  ResultCache Cache;
  auto Fail = [&]() -> Result<std::string> { return Err("boom"); };
  auto R1 = Cache.getOrCompute("k", Fail);
  ASSERT_FALSE(R1.hasValue());
  EXPECT_EQ(R1.error(), "boom");
  // Not cached: the next call recomputes (and can succeed).
  auto R2 = Cache.getOrCompute("k", []() -> Result<std::string> {
    return std::string("ok");
  });
  ASSERT_TRUE(R2.hasValue());
  EXPECT_EQ(*R2, "ok");
}

//===----------------------------------------------------------------------===//
// Pipeline sessions
//===----------------------------------------------------------------------===//

TEST(PipelineTest, StagedArtifactsAreMemoizedAndReused) {
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  P->setSource(MatMul);

  auto Parsed = P->parsed();
  ASSERT_TRUE(Parsed.hasValue());
  const ParsedProgram *FirstParsed = *Parsed;
  EXPECT_EQ(FirstParsed->Prog.Stmts.size(), 1u);

  auto Low = P->lowered();
  ASSERT_TRUE(Low.hasValue());
  // The early artifact is still the same object after late stages ran.
  auto Parsed2 = P->parsed();
  ASSERT_TRUE(Parsed2.hasValue());
  EXPECT_EQ(*Parsed2, FirstParsed);

  auto Em = P->emitted();
  ASSERT_TRUE(Em.hasValue());
  EXPECT_NE((*Em)->find("#pragma omp parallel for"), std::string::npos);

  // setSource invalidates the session.
  P->setSource(Jacobi);
  auto Parsed3 = P->parsed();
  ASSERT_TRUE(Parsed3.hasValue());
  EXPECT_EQ((*Parsed3)->Prog.Stmts.size(), 1u);
}

TEST(PipelineTest, MatchesOneShotShim) {
  PlutoOptions Opts;
  auto P = Pipeline::create(Opts);
  ASSERT_TRUE(P.hasValue());
  P->setSource(MatMul);
  auto Staged = P->takeLowered();
  ASSERT_TRUE(Staged.hasValue());

  auto OneShot = optimizeSource(MatMul, Opts);
  ASSERT_TRUE(OneShot.hasValue());
  EXPECT_EQ(Staged->Sched.toString(Staged->program()),
            OneShot->Sched.toString(OneShot->program()));
}

TEST(PipelineTest, CacheKeyCanonicalizesWhitespaceButNotSemantics) {
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  std::string Base = P->cacheKey(MatMul);
  EXPECT_EQ(Base.size(), 64u);

  // CRLF line endings, trailing spaces, outer blank lines: same key.
  std::string Cosmetic;
  for (char C : std::string(MatMul))
    Cosmetic += (C == '\n') ? std::string("  \r\n") : std::string(1, C);
  EXPECT_EQ(P->cacheKey("\n\n" + Cosmetic + "\n\n"), Base);

  // A semantic change: different key.
  std::string Other = MatMul;
  Other[Other.find("N - 1")] = 'M';
  EXPECT_NE(P->cacheKey(Other), Base);

  // Different options: different key for the same source.
  PlutoOptions O2;
  O2.TileSize = 16;
  auto P2 = Pipeline::create(O2);
  ASSERT_TRUE(P2.hasValue());
  EXPECT_NE(P2->cacheKey(MatMul), Base);
}

TEST(PipelineTest, CompileHitsCacheOnSecondCall) {
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  auto Cache = std::make_shared<ResultCache>();
  P->attachCache(Cache);

  CompileResponse Cold = P->compileRequest({"mm", MatMul});
  ASSERT_TRUE(Cold.ok());
  EXPECT_FALSE(Cold.CacheHit);

  CompileResponse Warm = P->compileRequest({"mm", MatMul});
  ASSERT_TRUE(Warm.ok());
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_EQ(Warm.Key, Cold.Key);
  EXPECT_EQ(Warm.EmittedC, Cold.EmittedC);
  EXPECT_EQ(Cache->snapshot().Hits, 1u);
}

TEST(PipelineTest, ParseErrorsPropagateAndAreNotCached) {
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  auto Cache = std::make_shared<ResultCache>();
  P->attachCache(Cache);
  CompileResponse R = P->compileRequest({"bad", "while (1) { a[i] = 0.0; }\n"});
  EXPECT_EQ(R.Status, StatusCode::SourceError);
  EXPECT_EQ(Cache->snapshot().Entries, 0u);
}

// The acceptance-criteria determinism sweep: for every examples/*.c
// kernel, a cold compile, a second cold compile (fresh session), and a
// cache-served compile must all emit byte-identical C.
TEST(PipelineTest, ColdAndCachedCompilesAreByteIdenticalForAllExamples) {
  auto Kernels = exampleKernels();
  ASSERT_FALSE(Kernels.empty());
  auto Cache = std::make_shared<ResultCache>();
  for (const fs::path &K : Kernels) {
    std::string Src = readFile(K);

    CompileRequest Req{K.filename().string(), Src};

    auto P1 = Pipeline::create();
    ASSERT_TRUE(P1.hasValue());
    CompileResponse Cold1 = P1->compileRequest(Req);
    ASSERT_TRUE(Cold1.ok()) << K << ": " << Cold1.Error;

    auto P2 = Pipeline::create();
    ASSERT_TRUE(P2.hasValue());
    CompileResponse Cold2 = P2->compileRequest(Req);
    ASSERT_TRUE(Cold2.ok());
    EXPECT_EQ(Cold1.EmittedC, Cold2.EmittedC) << K;

    auto P3 = Pipeline::create();
    ASSERT_TRUE(P3.hasValue());
    P3->attachCache(Cache);
    ASSERT_TRUE(P3->compileRequest(Req).ok()); // populates
    CompileResponse Warm = P3->compileRequest(Req); // served
    ASSERT_TRUE(Warm.ok());
    EXPECT_TRUE(Warm.CacheHit) << K;
    EXPECT_EQ(Warm.EmittedC, Cold1.EmittedC) << K;
  }
}

//===----------------------------------------------------------------------===//
// compileRequests
//===----------------------------------------------------------------------===//

TEST(BatchTest, DeterministicOrderingAndFailureIsolation) {
  std::vector<CompileRequest> Reqs = {
      {"matmul", MatMul},
      {"bad", "while (1) { a[i] = 0.0; }\n"},
      {"jacobi", Jacobi},
      {"matmul-again", MatMul},
  };
  std::vector<CompileResponse> R = compileRequests(Reqs);
  ASSERT_EQ(R.size(), 4u);
  ASSERT_TRUE(R[0].ok());
  EXPECT_FALSE(R[1].ok()); // only the bad job fails
  ASSERT_TRUE(R[2].ok());
  ASSERT_TRUE(R[3].ok());
  // Identical jobs dedup onto one compile: same key, same bytes.
  EXPECT_EQ(R[0].Key, R[3].Key);
  EXPECT_EQ(R[0].EmittedC, R[3].EmittedC);
  EXPECT_NE(R[0].Key, R[2].Key);
}

TEST(BatchTest, ConcurrentMatchesSerialByteForByte) {
  std::vector<CompileRequest> Reqs = exampleRequests();
  ASSERT_FALSE(Reqs.empty());

  BatchOptions Serial;
  Serial.Jobs = 1;
  std::vector<CompileResponse> RS = compileRequests(Reqs, Serial);

  BatchOptions Par;
  Par.Jobs = 4;
  std::vector<CompileResponse> RP = compileRequests(Reqs, Par);

  ASSERT_EQ(RS.size(), RP.size());
  for (size_t I = 0; I < RS.size(); ++I) {
    ASSERT_TRUE(RS[I].ok()) << Reqs[I].Name;
    ASSERT_TRUE(RP[I].ok()) << Reqs[I].Name;
    EXPECT_EQ(RS[I].EmittedC, RP[I].EmittedC) << Reqs[I].Name;
  }
}

TEST(BatchTest, SharedCacheMakesSecondBatchAllHits) {
  std::vector<CompileRequest> Reqs = exampleRequests();

  BatchOptions BO;
  BO.Jobs = 2;
  BO.Cache = std::make_shared<ResultCache>();
  std::vector<CompileResponse> Cold = compileRequests(Reqs, BO);
  std::vector<CompileResponse> Warm = compileRequests(Reqs, BO);
  for (size_t I = 0; I < Reqs.size(); ++I) {
    ASSERT_TRUE(Warm[I].ok());
    EXPECT_TRUE(Warm[I].CacheHit) << Reqs[I].Name;
    EXPECT_EQ(Warm[I].EmittedC, Cold[I].EmittedC);
  }
}

// The warm-vs-cold acceptance criterion at API level: serving the corpus
// from the cache must be at least 10x faster than compiling it.
TEST(BatchTest, WarmCacheIsAtLeastTenTimesFasterThanCold) {
  std::vector<CompileRequest> Reqs = exampleRequests();

  BatchOptions BO;
  BO.Cache = std::make_shared<ResultCache>();
  auto T0 = std::chrono::steady_clock::now();
  std::vector<CompileResponse> Cold = compileRequests(Reqs, BO);
  auto T1 = std::chrono::steady_clock::now();
  for (const CompileResponse &R : Cold)
    ASSERT_TRUE(R.ok());

  // Best warm run of three, to be robust against scheduler noise.
  double WarmBest = 1e9;
  for (int Rep = 0; Rep < 3; ++Rep) {
    auto W0 = std::chrono::steady_clock::now();
    std::vector<CompileResponse> Warm = compileRequests(Reqs, BO);
    auto W1 = std::chrono::steady_clock::now();
    for (const CompileResponse &R : Warm)
      ASSERT_TRUE(R.ok() && R.CacheHit);
    WarmBest =
        std::min(WarmBest, std::chrono::duration<double>(W1 - W0).count());
  }
  double ColdSecs = std::chrono::duration<double>(T1 - T0).count();
  EXPECT_GE(ColdSecs, WarmBest * 10.0)
      << "cold " << ColdSecs << "s vs warm " << WarmBest << "s";
}

//===----------------------------------------------------------------------===//
// CompileRequest/CompileResponse: the StatusCode-taxonomy API surface
//===----------------------------------------------------------------------===//

TEST(CompileServiceTest, PipelineCompileRequestReportsOkThenCacheHit) {
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  auto Cache = std::make_shared<ResultCache>();
  P->attachCache(Cache);

  CompileRequest Req;
  Req.Name = "matmul";
  Req.Source = MatMul;
  CompileResponse R = P->compileRequest(Req);
  ASSERT_EQ(R.Status, StatusCode::Ok);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.exitCode(), 0);
  EXPECT_EQ(R.Name, "matmul");
  EXPECT_EQ(R.Key.size(), 64u);
  EXPECT_FALSE(R.CacheHit);
  EXPECT_NE(R.EmittedC.find("#pragma"), std::string::npos);
  EXPECT_TRUE(R.Error.empty());
  EXPECT_TRUE(R.Diags.empty());

  CompileResponse Again = P->compileRequest(Req);
  ASSERT_EQ(Again.Status, StatusCode::Ok);
  EXPECT_TRUE(Again.CacheHit);
  EXPECT_EQ(Again.Key, R.Key);
  EXPECT_EQ(Again.EmittedC, R.EmittedC);
}

TEST(CompileServiceTest, SourceErrorsCarryStructuredDiagnostics) {
  auto P = Pipeline::create();
  ASSERT_TRUE(P.hasValue());
  CompileRequest Req;
  Req.Name = "broken";
  Req.Source = "for (i = 0; i < N; i++ {\n  a[i] = 0;\n}\n";
  CompileResponse R = P->compileRequest(Req);
  ASSERT_EQ(R.Status, StatusCode::SourceError);
  EXPECT_EQ(R.exitCode(), 2);
  EXPECT_FALSE(R.Error.empty());
  ASSERT_FALSE(R.Diags.empty());
  // Spans are 1-based and must point into the source, not be placeholders.
  for (const Diagnostic &D : R.Diags) {
    EXPECT_GE(D.Line, 1u);
    EXPECT_GE(D.Col, 1u);
    EXPECT_FALSE(D.Message.empty());
  }
}

TEST(CompileServiceTest, SessionOptionMismatchIsBadRequest) {
  PlutoOptions SessionOpts;
  auto P = Pipeline::create(SessionOpts);
  ASSERT_TRUE(P.hasValue());
  CompileRequest Req;
  Req.Name = "mismatch";
  Req.Source = MatMul;
  Req.Opts.TileSize = SessionOpts.TileSize + 1;
  CompileResponse R = P->compileRequest(Req);
  EXPECT_EQ(R.Status, StatusCode::BadRequest);
  EXPECT_EQ(R.exitCode(), 2);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_TRUE(R.EmittedC.empty());
}

// compileRequests with heterogeneous per-request option sets: valid
// requests succeed under their own options, an invalid option set fails
// only its own slot with the validate() message, and responses stay
// position-matched to requests.
TEST(CompileServiceTest, CompileRequestsIsolatesPerRequestBadOptions) {
  std::vector<CompileRequest> Reqs(4);
  Reqs[0].Name = "default";
  Reqs[0].Source = MatMul;
  Reqs[1].Name = "untiled";
  Reqs[1].Source = MatMul;
  Reqs[1].Opts.Tile = false;
  Reqs[2].Name = "bad-options";
  Reqs[2].Source = MatMul;
  Reqs[2].Opts.TileSize = 0;
  Reqs[3].Name = "jacobi";
  Reqs[3].Source = Jacobi;

  BatchOptions BO;
  BO.Jobs = 2;
  BO.Cache = std::make_shared<ResultCache>();
  auto Rs = compileRequests(Reqs, BO);
  ASSERT_EQ(Rs.size(), Reqs.size());

  EXPECT_EQ(Rs[0].Status, StatusCode::Ok);
  EXPECT_EQ(Rs[1].Status, StatusCode::Ok);
  EXPECT_EQ(Rs[3].Status, StatusCode::Ok);
  // Different options must key (and emit) differently.
  EXPECT_NE(Rs[0].Key, Rs[1].Key);
  EXPECT_NE(Rs[0].EmittedC, Rs[1].EmittedC);

  EXPECT_EQ(Rs[2].Status, StatusCode::BadRequest);
  EXPECT_EQ(Rs[2].Name, "bad-options");
  EXPECT_NE(Rs[2].Error.find("tile size"), std::string::npos)
      << "bad-request error should name the offending field: " << Rs[2].Error;
  EXPECT_TRUE(Rs[2].Key.empty());
}

TEST(CompileServiceTest, StatusErrorTagsSurviveTheCacheStringChannel) {
  using namespace pluto::detail;
  for (StatusCode S :
       {StatusCode::Ok, StatusCode::BadRequest, StatusCode::SourceError,
        StatusCode::ScheduleAbort, StatusCode::Internal,
        StatusCode::Overloaded}) {
    auto [Decoded, Msg] = decodeStatusError(encodeStatusError(S, "why"));
    EXPECT_EQ(Decoded, S);
    EXPECT_EQ(Msg, "why");
  }
  // Untagged strings (from code predating the taxonomy) classify Internal.
  auto [S, Msg] = decodeStatusError("plain failure");
  EXPECT_EQ(S, StatusCode::Internal);
  EXPECT_EQ(Msg, "plain failure");
}

TEST(CompileServiceTest, SharedDiagnosticSerializerShapesJson) {
  Diagnostic D;
  D.Line = 3;
  D.Col = 7;
  D.Message = "unexpected token '{'";
  std::string One;
  appendDiagnosticJson(One, "unit \"a\".c", D);
  EXPECT_EQ(One, "{\"unit\": \"unit \\\"a\\\".c\", \"line\": 3, \"col\": 7, "
                 "\"severity\": \"error\", \"message\": \"unexpected token "
                 "'{'\"}");
  EXPECT_EQ(diagnosticsJsonArray("u.c", {}), "[]");
  std::string Arr = diagnosticsJsonArray("u.c", {D, D});
  EXPECT_EQ(Arr.front(), '[');
  EXPECT_EQ(Arr.back(), ']');
  EXPECT_NE(Arr.find("}, {"), std::string::npos);
}

} // namespace
