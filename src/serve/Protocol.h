//===- serve/Protocol.h - plutod NDJSON wire protocol -----------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The plutod wire protocol: newline-delimited JSON over a local stream
/// socket, one request object per line in, one response object per line
/// out. Version 1 grammar:
///
///   request  := {"plutod": 1, "op": "compile" | "ping" | "metrics"
///                             | "tune",
///                "id": <any JSON value, echoed verbatim>,
///                "name": <string, compile/tune only, optional>,
///                "source": <string, compile/tune only>,
///                "options": <object, compile/tune only, optional>,
///                "spec": <string, tune only, optional>}
///   response := {"plutod": 1, "id": <echo>, "status": <StatusCode name>,
///                ... status-dependent payload ...}
///
/// Compile responses carry "key", "cache_hit" and "emitted_c" on ok;
/// "error" plus a "diagnostics" array (the same serializer the plutopp
/// --report=json schema uses) on source-error; "error" alone otherwise.
/// Metrics responses carry the full stats document under "metrics".
/// Tune requests run the autotuner (tune::explore) over "source": the
/// "options" object is the base configuration, "spec" the search-space
/// string of plutopp --tune= (parsed at admission, so a malformed spec is
/// a bad-request). Tune responses carry the winner's "key" and
/// "emitted_c" plus the minified search trace under "trace" on ok;
/// "error" (and "trace" when the search produced one) otherwise.
/// The "options" object carries one member per row of the PlutoOptions
/// field table (OptionFields in driver/Driver.h), under its snake_case
/// WireKey; absent keys take PlutoOptions defaults and unknown keys are a
/// bad-request, so client typos fail loudly instead of silently compiling
/// with defaults.
///
/// Encode/decode here is pure string work - no sockets - so the tests
/// can round-trip the protocol without a daemon.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_SERVE_PROTOCOL_H
#define PLUTOPP_SERVE_PROTOCOL_H

#include "service/CompileService.h"
#include "support/Json.h"

#include <string>
#include <vector>

namespace pluto {
namespace serve {

/// Version stamped into (and required of) every wire object.
constexpr int ProtocolVersion = 1;

enum class Op {
  Compile,
  Ping,
  Metrics,
  Tune,
};

/// One decoded request line.
struct WireRequest {
  Op Operation = Op::Ping;
  /// Raw JSON text of the client's "id" member, echoed verbatim into the
  /// response so clients can pipeline requests; "null" when absent.
  std::string Id = "null";
  /// Populated for Op::Compile and Op::Tune (name, source, base options,
  /// budget).
  CompileRequest Req;
  /// Search-space spec (Op::Tune only); empty = tuner defaults.
  std::string Spec;
};

/// One decoded response line (the client-side view).
struct WireResponse {
  StatusCode Status = StatusCode::Internal;
  std::string Id = "null"; ///< raw JSON text of the echoed id
  std::string Name;
  std::string Key;
  std::string EmittedC;
  bool CacheHit = false;
  std::vector<Diagnostic> Diags;
  std::string Error;
  /// Raw JSON text of the "metrics" member (metrics responses only).
  std::string MetricsJson;
  /// Raw JSON text of the "trace" member (tune responses only).
  std::string TraceJson;

  bool ok() const { return Status == StatusCode::Ok; }
};

/// PlutoOptions -> the wire "options" object: every OptionFields row's
/// WireKey, in table order.
std::string optionsToJson(const PlutoOptions &O);

/// The wire "options" object -> PlutoOptions. V must be a JSON object;
/// absent keys keep defaults, unknown keys or wrong types are errors.
/// Does not run PlutoOptions::validate() - admission does that so the
/// failure is classified as bad-request with the field name.
Result<PlutoOptions> optionsFromJson(const JsonValue &V);

/// One-line request encoding (no trailing newline).
std::string encodeRequest(const WireRequest &R);

/// Parses and validates one request line. Errors are client-facing
/// bad-request messages (unversioned object, unknown op, missing source,
/// malformed options...).
Result<WireRequest> decodeRequest(const std::string &Line);

/// One-line encoding of a compile response under echo id IdJson.
std::string encodeResponse(const std::string &IdJson,
                           const CompileResponse &Resp);

/// One-line non-compile response: status + optional error. Used for ping
/// acks, admission rejections and protocol errors.
std::string encodeSimpleResponse(const std::string &IdJson, StatusCode S,
                                 const std::string &Error);

/// One-line metrics response; MetricsJson must already be a single-line
/// JSON value (minifyJson the stats document first).
std::string encodeMetricsResponse(const std::string &IdJson,
                                  const std::string &MetricsJson);

/// One-line tune response: status, optional name, winner key + emitted C
/// and the minified search trace on ok; error (+ trace when non-empty)
/// otherwise. TraceJson must already be a single-line JSON value.
std::string encodeTuneResponse(const std::string &IdJson, StatusCode S,
                               const std::string &Name,
                               const std::string &WinnerKey,
                               const std::string &WinnerC,
                               const std::string &Error,
                               const std::string &TraceJson);

/// Parses one response line into the client-side view.
Result<WireResponse> decodeResponse(const std::string &Line);

} // namespace serve
} // namespace pluto

#endif // PLUTOPP_SERVE_PROTOCOL_H
