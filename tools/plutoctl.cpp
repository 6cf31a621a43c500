//===- tools/plutoctl.cpp - plutod client ---------------------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
//
// plutoctl: command-line client for the plutod compile daemon. Pipelines
// every input file to the daemon over one connection (requests carry an
// integer id, so out-of-order completions from the daemon's worker pool
// are re-sequenced here), renders source diagnostics locally with the
// same caret snippets plutopp shows, and exits through the shared
// StatusCode -> exit-code table, so scripts cannot tell the daemon path
// from the in-process path.
//
//===----------------------------------------------------------------------===//

#include "parser/Diagnostics.h"
#include "serve/Protocol.h"
#include "service/CompileService.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <poll.h>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace pluto;
using namespace pluto::serve;

namespace {

const char *UsageHead =
    "usage: plutoctl --socket=PATH [options] [input.c ...]\n"
    "\n"
    "Client for the plutod compile daemon. Compiles the given restricted-C\n"
    "units (stdin when none are given) through the daemon and writes the\n"
    "generated C to stdout in input order, separated by banner comments,\n"
    "or under --out-dir. Exit codes match plutopp: 0 ok, 2 bad input or\n"
    "bad request, 1 internal/schedule failure, 3 overloaded, 4 resource\n"
    "budget exhausted.\n"
    "\n"
    "operations:\n"
    "  (default)                  compile the inputs\n"
    "  --ping                     health-check the daemon\n"
    "  --metrics                  print the daemon's metrics document\n"
    "\n"
    "connection options:\n"
    "  --timeout=MS               per-wait deadline talking to the daemon\n"
    "                             (30000; 0 = wait forever)\n"
    "  --retries=N                connection attempts before giving up\n"
    "                             (5, exponential backoff from 50 ms);\n"
    "                             rides out a daemon that is still\n"
    "                             starting or briefly restarting\n"
    "\n"
    "per-request resource budget (forwarded on the wire):\n"
    "  --compile-timeout-ms=N     wall-clock budget per compile\n"
    "  --max-memory-mb=N          memory budget per compile in MiB\n"
    "  --max-work=N               deterministic work-unit budget\n"
    "\n"
    "transformation options (the plutopp flags, forwarded on the wire):\n";

const char *UsageTail =
    "\n"
    "output options:\n"
    "  --out-dir=DIR              write each unit to DIR/<stem>.pluto.c\n";

void printUsage(FILE *To) {
  std::fputs(UsageHead, To);
  std::fputs(optionFlagsHelp().c_str(), To);
  std::fputs(UsageTail, To);
}

struct Client {
  int Fd = -1;
  std::string InBuf;
  std::string OutBuf;
  /// Per-poll deadline talking to the daemon; <= 0 waits forever.
  int TimeoutMs = 30000;

  ~Client() {
    if (Fd >= 0)
      close(Fd);
  }

  /// One connection attempt.
  bool connectOnce(const std::string &Path, std::string &Error) {
    sockaddr_un Addr;
    if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
      Error = "bad socket path";
      errno = EINVAL; // not retryable
      return false;
    }
    Fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0) {
      Error = std::string("socket(): ") + std::strerror(errno);
      return false;
    }
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
    if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
      int E = errno;
      Error = "connect(" + Path + "): " + std::strerror(E);
      close(Fd);
      Fd = -1;
      errno = E; // the retry loop classifies on it
      return false;
    }
    return true;
  }

  /// Connects with up to Attempts tries, backing off exponentially from
  /// 50 ms, but only on the errors a daemon that is still starting (or
  /// briefly restarting) produces: no socket file yet, or nobody
  /// listening behind a stale one. Hard errors fail immediately.
  bool connectTo(const std::string &Path, unsigned Attempts,
                 std::string &Error) {
    auto Delay = std::chrono::milliseconds(50);
    for (unsigned Try = 1;; ++Try) {
      int SavedErrno = 0;
      if (connectOnce(Path, Error))
        return true;
      SavedErrno = errno;
      if (Try >= Attempts ||
          (SavedErrno != ECONNREFUSED && SavedErrno != ENOENT))
        return false;
      std::this_thread::sleep_for(Delay);
      Delay *= 2;
    }
  }

  void queue(const std::string &Line) {
    OutBuf += Line;
    OutBuf += '\n';
  }

  /// Pumps the connection until Want complete response lines have been
  /// collected (interleaving writes and reads, so a deep pipeline of
  /// large requests cannot deadlock against the daemon's replies).
  bool pump(size_t Want, std::vector<std::string> &Lines,
            std::string &Error) {
    while (Lines.size() < Want) {
      pollfd P{Fd, POLLIN, 0};
      if (!OutBuf.empty())
        P.events |= POLLOUT;
      int N = poll(&P, 1, TimeoutMs > 0 ? TimeoutMs : -1);
      if (N == 0) {
        Error = "timed out waiting for the daemon (after " +
                std::to_string(TimeoutMs) + " ms; see --timeout)";
        return false;
      }
      if (N < 0) {
        if (errno == EINTR)
          continue;
        Error = std::string("poll(): ") + std::strerror(errno);
        return false;
      }
      if (!OutBuf.empty() && (P.revents & POLLOUT)) {
        ssize_t W = send(Fd, OutBuf.data(), OutBuf.size(), MSG_NOSIGNAL);
        if (W > 0)
          OutBuf.erase(0, static_cast<size_t>(W));
        else if (W < 0 && errno != EAGAIN && errno != EINTR) {
          Error = std::string("send(): ") + std::strerror(errno);
          return false;
        }
      }
      if (P.revents & (POLLIN | POLLHUP)) {
        char Buf[65536];
        ssize_t R = recv(Fd, Buf, sizeof(Buf), 0);
        if (R > 0) {
          InBuf.append(Buf, static_cast<size_t>(R));
          size_t Pos;
          while ((Pos = InBuf.find('\n')) != std::string::npos) {
            Lines.push_back(InBuf.substr(0, Pos));
            InBuf.erase(0, Pos + 1);
          }
        } else if (R == 0) {
          if (Lines.size() < Want) {
            Error = "daemon closed the connection";
            return false;
          }
        } else if (errno != EAGAIN && errno != EINTR) {
          Error = std::string("recv(): ") + std::strerror(errno);
          return false;
        }
      }
    }
    return true;
  }
};

std::string readStream(std::istream &In) {
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string stemOf(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Base =
      Slash == std::string::npos ? Path : Path.substr(Slash + 1);
  size_t Dot = Base.find_last_of('.');
  if (Dot != std::string::npos && Dot > 0)
    Base.resize(Dot);
  return Base;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Socket;
  std::string OutDir;
  bool DoPing = false, DoMetrics = false;
  PlutoOptions Opts;
  BudgetLimits Budget;
  int TimeoutMs = 30000;
  unsigned Retries = 5;
  std::vector<std::string> Inputs;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    // The transformation flags and every numeric value parse as in
    // plutopp, so both tools accept and reject the same command lines.
    auto BadNumber = [&] {
      std::fprintf(stderr, "plutoctl: bad numeric argument in '%s'\n",
                   A.c_str());
      std::exit(1);
    };
    auto Num = [&] {
      long long V = 0;
      if (!parseFlagNumber(A, V))
        BadNumber();
      return V;
    };
    FlagParse FP = parseOptionFlag(A, Opts);
    if (FP == FlagParse::BadNumber)
      BadNumber();
    if (FP == FlagParse::Applied)
      continue;
    if (A == "--help" || A == "-h") {
      printUsage(stdout);
      return 0;
    } else if (A.rfind("--socket=", 0) == 0)
      Socket = A.substr(9);
    else if (A == "--ping")
      DoPing = true;
    else if (A == "--metrics")
      DoMetrics = true;
    else if (A.rfind("--out-dir=", 0) == 0)
      OutDir = A.substr(10);
    else if (A.rfind("--timeout=", 0) == 0)
      TimeoutMs = static_cast<int>(Num());
    else if (A.rfind("--retries=", 0) == 0)
      Retries = static_cast<unsigned>(Num());
    else if (A.rfind("--compile-timeout-ms=", 0) == 0)
      Budget.WallMs = static_cast<uint64_t>(Num());
    else if (A.rfind("--max-memory-mb=", 0) == 0)
      Budget.MaxMemoryBytes = static_cast<uint64_t>(Num()) << 20;
    else if (A.rfind("--max-work=", 0) == 0)
      Budget.MaxWorkUnits = static_cast<uint64_t>(Num());
    else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "plutoctl: unknown option '%s'\n", A.c_str());
      printUsage(stderr);
      return 2;
    } else
      Inputs.push_back(A);
  }

  if (Socket.empty()) {
    std::fprintf(stderr, "plutoctl: --socket=PATH is required\n");
    printUsage(stderr);
    return 2;
  }
  // Fail fast, as plutopp does, on an option set the daemon would reject.
  if (auto Valid = Opts.validate(); !Valid) {
    std::fprintf(stderr, "plutoctl: %s\n", Valid.error().c_str());
    return 2;
  }

  Client C;
  C.TimeoutMs = TimeoutMs;
  std::string Error;
  if (!C.connectTo(Socket, Retries == 0 ? 1 : Retries, Error)) {
    std::fprintf(stderr, "plutoctl: %s\n", Error.c_str());
    return 1;
  }

  if (DoPing || DoMetrics) {
    WireRequest R;
    R.Operation = DoMetrics ? Op::Metrics : Op::Ping;
    R.Id = "0";
    C.queue(encodeRequest(R));
    std::vector<std::string> Lines;
    if (!C.pump(1, Lines, Error)) {
      std::fprintf(stderr, "plutoctl: %s\n", Error.c_str());
      return 1;
    }
    auto Resp = decodeResponse(Lines[0]);
    if (!Resp) {
      std::fprintf(stderr, "plutoctl: bad response: %s\n",
                   Resp.error().c_str());
      return 1;
    }
    if (!Resp->ok()) {
      std::fprintf(stderr, "plutoctl: daemon answered %s: %s\n",
                   statusCodeName(Resp->Status), Resp->Error.c_str());
      return exitCodeFor(Resp->Status);
    }
    if (DoMetrics)
      std::printf("%s\n", Resp->MetricsJson.c_str());
    else
      std::printf("ok\n");
    return 0;
  }

  // Compile path: read every input up front, pipeline all requests.
  struct Unit {
    std::string Name;
    std::string Source;
  };
  std::vector<Unit> Units;
  if (Inputs.empty()) {
    Units.push_back({"<stdin>", readStream(std::cin)});
  } else {
    for (const std::string &Path : Inputs) {
      std::ifstream In(Path);
      if (!In) {
        std::fprintf(stderr, "plutoctl: cannot read '%s'\n", Path.c_str());
        return 2;
      }
      Units.push_back({Path, readStream(In)});
    }
  }

  for (size_t I = 0; I < Units.size(); ++I) {
    WireRequest R;
    R.Operation = Op::Compile;
    R.Id = std::to_string(I);
    R.Req.Name = Units[I].Name;
    R.Req.Source = Units[I].Source;
    R.Req.Opts = Opts;
    R.Req.Budget = Budget;
    C.queue(encodeRequest(R));
  }

  std::vector<std::string> Lines;
  if (!C.pump(Units.size(), Lines, Error)) {
    std::fprintf(stderr, "plutoctl: %s\n", Error.c_str());
    return 1;
  }

  // Re-sequence by echoed id (the daemon's worker pool may complete a
  // connection's jobs out of order).
  std::map<size_t, WireResponse> ById;
  for (const std::string &L : Lines) {
    auto Resp = decodeResponse(L);
    if (!Resp) {
      std::fprintf(stderr, "plutoctl: bad response line: %s\n",
                   Resp.error().c_str());
      return 1;
    }
    size_t Id = static_cast<size_t>(std::strtoull(Resp->Id.c_str(),
                                                  nullptr, 10));
    ById[Id] = std::move(*Resp);
  }

  int Exit = 0;
  unsigned Failed = 0;
  for (size_t I = 0; I < Units.size(); ++I) {
    auto It = ById.find(I);
    if (It == ById.end()) {
      std::fprintf(stderr, "plutoctl: no response for '%s'\n",
                   Units[I].Name.c_str());
      Exit = aggregateExitCodes(Exit, 1);
      ++Failed;
      continue;
    }
    const WireResponse &R = It->second;
    if (!R.ok()) {
      ++Failed;
      std::fprintf(stderr, "plutoctl: %s: %s: %s\n", Units[I].Name.c_str(),
                   statusCodeName(R.Status), R.Error.c_str());
      // Diagnostics render locally: the daemon sends spans, we own the
      // source text the snippets come from.
      for (const Diagnostic &D : R.Diags) {
        std::string Snip = renderSnippet(Units[I].Source, D);
        std::fprintf(stderr, "%s: %s\n", Units[I].Name.c_str(),
                     D.toString().c_str());
        if (!Snip.empty())
          std::fputs(Snip.c_str(), stderr);
      }
      Exit = aggregateExitCodes(Exit, exitCodeFor(R.Status));
      continue;
    }
    if (!OutDir.empty()) {
      std::string Path = OutDir + "/" + stemOf(Units[I].Name) + ".pluto.c";
      std::ofstream Out(Path);
      if (!Out) {
        std::fprintf(stderr, "plutoctl: cannot write '%s'\n", Path.c_str());
        Exit = aggregateExitCodes(Exit, 1);
        continue;
      }
      Out << R.EmittedC;
    } else {
      if (Units.size() > 1)
        std::printf("/* ===== plutopp: %s ===== */\n", Units[I].Name.c_str());
      std::fputs(R.EmittedC.c_str(), stdout);
    }
  }

  if (Units.size() > 1 && Failed)
    std::fprintf(stderr, "plutoctl: %u of %zu units failed\n", Failed,
                 Units.size());
  return Exit;
}
