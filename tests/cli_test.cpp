//===- tests/cli_test.cpp - plutopp CLI end-to-end tests ------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// Drives the installed tools/plutopp binary as a subprocess on the
// examples/ kernels: exit codes, emitted-C shape (and that it compiles,
// when a system compiler exists), and the --report=json document; and
// checks that plutoctl, through a plutod child, behaves like plutopp.
//
//===----------------------------------------------------------------------===//

#include "runtime/Jit.h"

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

#ifndef PLUTOPP_CLI_PATH
#error "PLUTOPP_CLI_PATH must be defined by the build"
#endif
#ifndef PLUTOPP_EXAMPLES_DIR
#error "PLUTOPP_EXAMPLES_DIR must be defined by the build"
#endif
#if !defined(PLUTOCTL_PATH) || !defined(PLUTOD_PATH)
#error "PLUTOCTL_PATH and PLUTOD_PATH must be defined by the build"
#endif

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Stdout;
};

/// Runs `<Tool> <args>` capturing stdout; stderr goes to the test log.
/// popen gives no portable stderr capture, so tests that need the report
/// use --out (which moves the report to stdout).
RunResult runTool(const char *Tool, const std::string &Args) {
  RunResult R;
  std::string Cmd = std::string(Tool) + " " + Args;
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return R;
  std::array<char, 4096> Buf;
  size_t N;
  while ((N = fread(Buf.data(), 1, Buf.size(), P)) > 0)
    R.Stdout.append(Buf.data(), N);
  int Status = pclose(P);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

RunResult runCli(const std::string &Args) {
  return runTool(PLUTOPP_CLI_PATH, Args);
}

std::string examplePath(const std::string &Name) {
  return std::string(PLUTOPP_EXAMPLES_DIR) + "/" + Name;
}

std::string tempPath(const std::string &Suffix) {
  const char *Tmp = std::getenv("TMPDIR");
  std::string Dir = (Tmp && *Tmp) ? Tmp : "/tmp";
  return Dir + "/plutopp_cli_test_" + std::to_string(getpid()) + Suffix;
}

//===----------------------------------------------------------------------===//
// A minimal recursive-descent JSON validator: enough to check the report
// is well-formed and to read top-level numeric fields.
//===----------------------------------------------------------------------===//

class JsonChecker {
public:
  explicit JsonChecker(const std::string &S) : S(S) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  const std::string &S;
  size_t Pos = 0;

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\n' ||
                              S[Pos] == '\t' || S[Pos] == '\r'))
      ++Pos;
  }
  bool literal(const char *L) {
    size_t N = std::strlen(L);
    if (S.compare(Pos, N, L) != 0)
      return false;
    Pos += N;
    return true;
  }
  bool string() {
    if (Pos >= S.size() || S[Pos] != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
      }
      ++Pos;
    }
    if (Pos >= S.size())
      return false;
    ++Pos; // closing quote
    return true;
  }
  bool number() {
    size_t Start = Pos;
    if (Pos < S.size() && (S[Pos] == '-' || S[Pos] == '+'))
      ++Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '.' || S[Pos] == 'e' || S[Pos] == 'E' ||
            S[Pos] == '-' || S[Pos] == '+'))
      ++Pos;
    return Pos > Start;
  }
  bool value() {
    skipWs();
    if (Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }
  bool object() {
    ++Pos; // '{'
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':')
        return false;
      ++Pos;
      if (!value())
        return false;
      skipWs();
      if (Pos < S.size() && S[Pos] == ',') {
        ++Pos;
        continue;
      }
      break;
    }
    skipWs();
    if (Pos >= S.size() || S[Pos] != '}')
      return false;
    ++Pos;
    return true;
  }
  bool array() {
    ++Pos; // '['
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      if (!value())
        return false;
      skipWs();
      if (Pos < S.size() && S[Pos] == ',') {
        ++Pos;
        continue;
      }
      break;
    }
    skipWs();
    if (Pos >= S.size() || S[Pos] != ']')
      return false;
    ++Pos;
    return true;
  }
};

/// Reads the numeric value following `"Key": ` (first occurrence).
double numberAfterKey(const std::string &J, const std::string &Key) {
  size_t At = J.find("\"" + Key + "\": ");
  if (At == std::string::npos)
    return -1.0;
  return std::atof(J.c_str() + At + Key.size() + 4);
}

TEST(CliTest, EmitsParallelOpenMpC) {
  for (const char *K : {"matmul.c", "jacobi1d.c", "lu.c", "mvt.c",
                        "seidel2d.c"}) {
    RunResult R = runCli("--tile --parallel " + examplePath(K));
    EXPECT_EQ(R.ExitCode, 0) << K;
    EXPECT_NE(R.Stdout.find("for ("), std::string::npos) << K;
    EXPECT_NE(R.Stdout.find("#pragma omp parallel for"), std::string::npos)
        << K;
  }
}

TEST(CliTest, NoParallelSuppressesPragmas) {
  RunResult R = runCli("--no-parallel " + examplePath("matmul.c"));
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Stdout.find("#pragma omp parallel for"), std::string::npos);
}

TEST(CliTest, ErrorExitCodes) {
  EXPECT_EQ(runCli("/nonexistent/input.c").ExitCode, 1);
  EXPECT_EQ(runCli("--frobnicate " + examplePath("matmul.c")).ExitCode, 1);
  // Invalid restricted-C input is the "bad input" class of error: exit 2,
  // with a source-located diagnostic on stderr.
  std::string Bad = tempPath("_bad.c");
  {
    std::ofstream Out(Bad);
    Out << "while (1) { a[i] = 0.0; }\n";
  }
  EXPECT_EQ(runCli(Bad).ExitCode, 2);
  std::remove(Bad.c_str());
  EXPECT_EQ(runCli("--help").ExitCode, 0);
}

// One compile of a file with three distinct problems must surface all
// three (error recovery), each with its line:col span, both as stderr
// text with caret snippets and as structured entries in the JSON
// report's "diagnostics" array - and exit 2.
TEST(CliTest, MultiErrorSourceReportsEveryDiagnostic) {
  std::string Bad = tempPath("_bad3.c");
  {
    std::ofstream Out(Bad);
    Out << "for (i = 0; i < N; i++) {\n"
           "  a[i] = ;\n"
           "  b[i] @ 1.0;\n"
           "  c[i] = a[i] +;\n"
           "}\n";
  }
  RunResult R = runCli("--report=json " + Bad + " 2>&1");
  EXPECT_EQ(R.ExitCode, 2);
  // Every line's problem is reported with its span (recovery kept going).
  EXPECT_NE(R.Stdout.find("line 2, col"), std::string::npos) << R.Stdout;
  EXPECT_NE(R.Stdout.find("line 3, col"), std::string::npos) << R.Stdout;
  EXPECT_NE(R.Stdout.find("line 4, col"), std::string::npos) << R.Stdout;
  // Caret snippets point into the offending source line.
  EXPECT_NE(R.Stdout.find("^"), std::string::npos);
  // The JSON report carries structured entries.
  EXPECT_NE(R.Stdout.find("\"diagnostics\": ["), std::string::npos);
  EXPECT_NE(R.Stdout.find("\"line\": 2"), std::string::npos);
  EXPECT_NE(R.Stdout.find("\"severity\": \"error\""), std::string::npos);
  std::remove(Bad.c_str());
}

// A clean compile's JSON report still has the (empty) diagnostics array,
// so consumers can key on it unconditionally.
TEST(CliTest, CleanReportHasEmptyDiagnosticsArray) {
  std::string Out = tempPath("_clean.c");
  RunResult R =
      runCli("--out=" + Out + " --report=json " + examplePath("matmul.c"));
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Stdout.find("\"diagnostics\": []"), std::string::npos)
      << R.Stdout;
  std::remove(Out.c_str());
}

// Regression for the unvalidated-zero-tile-size path: option validation
// (PlutoOptions::validate() via the service layer) must fail fast with
// exit code 2 - the options class of error - before a degenerate supernode
// is ever constructed, and before inputs are even read.
TEST(CliTest, InvalidOptionsExitCode2) {
  EXPECT_EQ(runCli("--tile-size=0 " + examplePath("matmul.c")).ExitCode, 2);
  // Rejected even when tiling is off: the option set itself is invalid.
  EXPECT_EQ(runCli("--no-tile --tile-size=0 " + examplePath("matmul.c"))
                .ExitCode,
            2);
  EXPECT_EQ(runCli("--l2tile-size=0 " + examplePath("matmul.c")).ExitCode, 2);
  EXPECT_EQ(runCli("--param-min=-3 " + examplePath("matmul.c")).ExitCode, 2);
  // Validation happens before input I/O: a nonexistent file with bad
  // options still reports the options error (2), not the I/O error (1).
  EXPECT_EQ(runCli("--tile-size=0 /nonexistent/input.c").ExitCode, 2);
  // Garbage (non-numeric) arguments remain the generic CLI error.
  EXPECT_EQ(runCli("--tile-size=banana " + examplePath("matmul.c")).ExitCode,
            1);
}

TEST(CliTest, OutFlagWritesFileAndFreesStdout) {
  std::string Out = tempPath("_matmul_tiled.c");
  RunResult R = runCli("--out=" + Out + " " + examplePath("matmul.c"));
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Stdout, ""); // No report requested: stdout stays empty.
  std::ifstream In(Out);
  ASSERT_TRUE(In.good());
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_NE(SS.str().find("#pragma omp parallel for"), std::string::npos);
  std::remove(Out.c_str());
}

TEST(CliTest, ReportJsonIsWellFormedWithLivePassData) {
  std::string Out = tempPath("_report_kernel.c");
  RunResult R = runCli("--tile --parallel --report=json --out=" + Out +
                       " " + examplePath("matmul.c"));
  ASSERT_EQ(R.ExitCode, 0);
  std::remove(Out.c_str());
  const std::string &J = R.Stdout;

  ASSERT_TRUE(JsonChecker(J).valid()) << J;
  // The documented members.
  for (const char *Key : {"passes", "counters", "deps_by_level", "trace"})
    EXPECT_NE(J.find(std::string("\"") + Key + "\""), std::string::npos)
        << Key;
  // Non-zero timers for all five passes.
  for (const char *P : {"parse", "deps", "schedule", "tile", "codegen"}) {
    size_t At = J.find(std::string("\"") + P + "\": {\"seconds\": ");
    ASSERT_NE(At, std::string::npos) << P;
    EXPECT_GT(std::atof(J.c_str() + At + std::strlen(P) + 16), 0.0) << P;
  }
  // Non-zero counters from every instrumented layer.
  for (const char *C : {"lexmin_calls", "simplex_pivots", "fm_eliminations",
                        "dep_candidates", "hyperplanes_found", "bands_tiled",
                        "loops_parallel"})
    EXPECT_GT(numberAfterKey(J, C), 0.0) << C;
}

TEST(CliTest, ReportTextListsPassesAndTrace) {
  std::string Out = tempPath("_report_text.c");
  RunResult R = runCli("--report --out=" + Out + " " +
                       examplePath("jacobi1d.c"));
  ASSERT_EQ(R.ExitCode, 0);
  std::remove(Out.c_str());
  EXPECT_NE(R.Stdout.find("pass timings"), std::string::npos);
  EXPECT_NE(R.Stdout.find("decision trace:"), std::string::npos);
  EXPECT_NE(R.Stdout.find("[transform]"), std::string::npos);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(CliTest, MultiFileStdoutIsBannerSeparatedInInputOrder) {
  RunResult R = runCli(examplePath("matmul.c") + " " +
                       examplePath("jacobi1d.c"));
  ASSERT_EQ(R.ExitCode, 0);
  size_t B1 = R.Stdout.find("/* ===== plutopp: ");
  size_t B2 = R.Stdout.find("/* ===== plutopp: ", B1 + 1);
  ASSERT_NE(B1, std::string::npos);
  ASSERT_NE(B2, std::string::npos);
  EXPECT_NE(R.Stdout.find("matmul.c", B1), std::string::npos);
  EXPECT_LT(R.Stdout.find("matmul.c", B1), B2); // input order preserved
  EXPECT_NE(R.Stdout.find("jacobi1d.c", B2), std::string::npos);
}

// Multi-file runs with a failing unit: the good unit still emits, stderr
// ends with the per-unit status summary (one line per unit, StatusCode
// names), and the exit code follows the aggregation table (source error
// anywhere -> 2).
TEST(CliTest, MultiFilePerUnitFailureSummary) {
  std::string Bad = tempPath("_summary_bad.c");
  {
    std::ofstream Out(Bad);
    Out << "for (i = 0; i < N; i++ {\n  a[i] = 0;\n}\n";
  }
  RunResult R = runCli(examplePath("matmul.c") + " " + Bad + " 2>&1");
  EXPECT_EQ(R.ExitCode, 2);
  // The failing batch names the failure count and each unit's status.
  EXPECT_NE(R.Stdout.find("plutopp: 1 of 2 units failed:"),
            std::string::npos)
      << R.Stdout;
  EXPECT_NE(R.Stdout.find(Bad + ": source-error"), std::string::npos)
      << R.Stdout;
  // The good unit still made it to stdout, banner and all.
  EXPECT_NE(R.Stdout.find("/* ===== plutopp: "), std::string::npos);
  EXPECT_NE(R.Stdout.find("#pragma omp parallel for"), std::string::npos);
  std::remove(Bad.c_str());
}

// The JSON report schema is versioned: every document leads with
// "schema": 2 so report consumers (and the plutod metrics op, which emits
// the same document) can detect drift.
TEST(CliTest, ReportJsonCarriesSchemaVersion) {
  std::string Out = tempPath("_schema.c");
  RunResult R =
      runCli("--report=json --out=" + Out + " " + examplePath("matmul.c"));
  ASSERT_EQ(R.ExitCode, 0);
  std::remove(Out.c_str());
  EXPECT_NE(R.Stdout.find("\"schema\": 2"), std::string::npos) << R.Stdout;
  // Leads the document: before any other member.
  EXPECT_LT(R.Stdout.find("\"schema\": 2"), R.Stdout.find("\"passes\""));
}

TEST(CliTest, OutWithMultipleInputsRejected) {
  RunResult R = runCli("--out=" + tempPath("_multi.c") + " " +
                       examplePath("matmul.c") + " " +
                       examplePath("jacobi1d.c"));
  EXPECT_EQ(R.ExitCode, 2);
}

// The service path end to end: concurrent batch over every example kernel
// against one persistent --cache-dir, run twice. The warm run must be
// served from the cache (counters in the JSON report) and its outputs must
// be byte-identical to the cold run's.
TEST(CliTest, BatchJobsWithPersistentCacheIsWarmAndIdentical) {
  namespace fs = std::filesystem;
  std::string CacheDir = tempPath("_cache");
  std::string OutDir1 = tempPath("_out1");
  std::string OutDir2 = tempPath("_out2");
  const char *Kernels[] = {"matmul.c", "jacobi1d.c", "lu.c", "mvt.c",
                           "seidel2d.c"};
  std::string Inputs;
  for (const char *K : Kernels)
    Inputs += " " + examplePath(K);
  std::string Common =
      "--jobs=4 --cache-dir=" + CacheDir + " --report=json";

  RunResult Cold = runCli(Common + " --out-dir=" + OutDir1 + Inputs);
  ASSERT_EQ(Cold.ExitCode, 0);
  ASSERT_TRUE(JsonChecker(Cold.Stdout).valid()) << Cold.Stdout;
  EXPECT_GE(numberAfterKey(Cold.Stdout, "cache_misses"), 5.0);
  EXPECT_EQ(numberAfterKey(Cold.Stdout, "cache_disk_hits"), 0.0);

  RunResult Warm = runCli(Common + " --out-dir=" + OutDir2 + Inputs);
  ASSERT_EQ(Warm.ExitCode, 0);
  ASSERT_TRUE(JsonChecker(Warm.Stdout).valid()) << Warm.Stdout;
  // A fresh process has an empty memory tier; all 5 units come from disk.
  EXPECT_GE(numberAfterKey(Warm.Stdout, "cache_disk_hits"), 5.0);
  EXPECT_EQ(numberAfterKey(Warm.Stdout, "cache_misses"), 0.0);

  for (const char *K : Kernels) {
    std::string Stem = fs::path(K).stem().string() + ".pluto.c";
    std::string A = readFile(OutDir1 + "/" + Stem);
    std::string B = readFile(OutDir2 + "/" + Stem);
    ASSERT_FALSE(A.empty()) << Stem;
    EXPECT_EQ(A, B) << Stem; // cached == cold, byte for byte
    EXPECT_NE(A.find("for ("), std::string::npos) << Stem;
  }
  // The persistent tier is the versioned layout of DESIGN.md section 9.
  EXPECT_TRUE(fs::is_directory(fs::path(CacheDir) / "v1"));

  std::error_code Ec;
  fs::remove_all(CacheDir, Ec);
  fs::remove_all(OutDir1, Ec);
  fs::remove_all(OutDir2, Ec);
}

/// A plutod child process on a private socket, drained with SIGTERM when
/// the scope ends.
class Daemon {
public:
  Daemon() {
    std::remove(Socket.c_str());
    Pid = fork();
    if (Pid == 0) {
      std::string SocketArg = "--socket=" + Socket;
      execl(PLUTOD_PATH, PLUTOD_PATH, SocketArg.c_str(), "--workers=1",
            "--quiet", static_cast<char *>(nullptr));
      _exit(127);
    }
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() {
    if (Pid > 0) {
      kill(Pid, SIGTERM);
      waitpid(Pid, nullptr, 0);
    }
    std::remove(Socket.c_str());
  }
  /// plutoctl arguments that reach this daemon, riding out its start-up.
  std::string ctlArgs() const { return "--socket=" + Socket + " --retries=10"; }

private:
  std::string Socket = tempPath(".sock");
  pid_t Pid = -1;
};

// plutoctl and plutopp read the transformation flags with one shared
// parser: for every flag set - valid, out of range or not a number - the
// client talking to plutod must exit like plutopp and print the same code.
TEST(CliTest, PlutoctlMatchesPlutoppOnEveryFlagSet) {
  Daemon D;
  ASSERT_EQ(runTool(PLUTOCTL_PATH, D.ctlArgs() + " --ping").ExitCode, 0);
  const char *FlagSets[] = {
      "",
      "--tile-size=-1",
      "--l2tile-size=-1",
      "--tile-size=banana",
      "--no-tile --tile-size=0",
      "--param-min=-3",
      "--no-tile --tile-size=16 --l2tile --l2tile-size=4 --no-parallel "
      "--no-vectorize --no-include-input-deps --no-fast-schedule "
      "--param-min=8",
      "--tile-size=16 --l2tile --l2tile-size=4 --no-vectorize "
      "--no-include-input-deps --no-fast-schedule --param-min=8",
  };
  std::string Input = " " + examplePath("matmul.c") + " 2> /dev/null";
  for (const char *Flags : FlagSets) {
    RunResult Local = runCli(Flags + Input);
    RunResult Served =
        runTool(PLUTOCTL_PATH, D.ctlArgs() + " " + Flags + Input);
    EXPECT_EQ(Served.ExitCode, Local.ExitCode) << "flags: " << Flags;
    EXPECT_EQ(Served.Stdout, Local.Stdout) << "flags: " << Flags;
  }
}

TEST(CliTest, EmittedCodeCompiles) {
  if (!pluto::CompiledKernel::compilerAvailable())
    GTEST_SKIP() << "no system C compiler";
  for (const char *K : {"matmul.c", "jacobi1d.c", "lu.c"}) {
    std::string Out = tempPath(std::string("_cc_") + K);
    RunResult R = runCli("--tile --parallel --out=" + Out + " " +
                         examplePath(K));
    ASSERT_EQ(R.ExitCode, 0) << K;
    std::string Obj = Out + ".o";
    std::string Cmd = "cc -fopenmp -std=c99 -c -o '" + Obj + "' '" + Out +
                      "' > /dev/null 2>&1";
    EXPECT_EQ(system(Cmd.c_str()), 0) << K;
    std::remove(Out.c_str());
    std::remove(Obj.c_str());
  }
}

} // namespace
