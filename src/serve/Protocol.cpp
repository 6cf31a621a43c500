//===- serve/Protocol.cpp - plutod NDJSON wire protocol -------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

using namespace pluto;
using namespace pluto::serve;

namespace {

void appendKey(std::string &Out, const char *Key) {
  Out += '"';
  Out += Key;
  Out += "\":";
}

void appendBool(std::string &Out, const char *Key, bool V) {
  appendKey(Out, Key);
  Out += V ? "true" : "false";
}

void appendInt(std::string &Out, const char *Key, long long V) {
  appendKey(Out, Key);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%lld", V);
  Out += Buf;
}

void appendStr(std::string &Out, const char *Key, const std::string &V) {
  appendKey(Out, Key);
  Out += jsonQuote(V);
}

/// `{"plutod":1,"id":<Id>` - the shared response/request prefix.
std::string head(const std::string &IdJson) {
  std::string Out = "{\"plutod\":";
  char Buf[8];
  std::snprintf(Buf, sizeof(Buf), "%d", ProtocolVersion);
  Out += Buf;
  Out += ",\"id\":";
  Out += IdJson.empty() ? std::string("null") : IdJson;
  return Out;
}

} // namespace

std::string pluto::serve::optionsToJson(const PlutoOptions &O) {
  std::string Out = "{";
  for (const OptionField &F : OptionFields) {
    if (Out.size() > 1)
      Out += ',';
    if (F.kind() == OptionKind::Bool)
      appendBool(Out, F.WireKey, F.get(O));
    else
      appendInt(Out, F.WireKey, F.get(O));
  }
  Out += '}';
  return Out;
}

Result<PlutoOptions> pluto::serve::optionsFromJson(const JsonValue &V) {
  if (!V.isObject())
    return Err("\"options\" must be a JSON object");
  PlutoOptions O;
  for (const auto &[Key, Val] : V.members()) {
    const OptionField *F = std::find_if(
        std::begin(OptionFields), std::end(OptionFields),
        [&](const OptionField &Row) { return Key == Row.WireKey; });
    if (F == std::end(OptionFields))
      return Err("unknown options key \"" + Key + "\"");
    const std::string Name = "options." + Key;
    switch (F->kind()) {
    case OptionKind::Bool:
      if (!Val.isBool())
        return Err(Name + " must be a boolean");
      F->set(O, Val.asBool());
      break;
    case OptionKind::Unsigned:
      if (!Val.isInteger() || Val.asInt() < 0)
        return Err(Name + " must be a non-negative integer");
      F->set(O, Val.asInt());
      break;
    case OptionKind::Signed:
      if (!Val.isInteger())
        return Err(Name + " must be an integer");
      F->set(O, Val.asInt());
      break;
    }
  }
  return O;
}

std::string pluto::serve::encodeRequest(const WireRequest &R) {
  std::string Out = head(R.Id);
  Out += ',';
  switch (R.Operation) {
  case Op::Ping:
    appendStr(Out, "op", "ping");
    break;
  case Op::Metrics:
    appendStr(Out, "op", "metrics");
    break;
  case Op::Tune:
  case Op::Compile:
    appendStr(Out, "op", R.Operation == Op::Tune ? "tune" : "compile");
    if (R.Operation == Op::Tune && !R.Spec.empty()) {
      Out += ',';
      appendStr(Out, "spec", R.Spec);
    }
    if (!R.Req.Name.empty()) {
      Out += ',';
      appendStr(Out, "name", R.Req.Name);
    }
    Out += ',';
    appendStr(Out, "source", R.Req.Source);
    Out += ",\"options\":";
    Out += optionsToJson(R.Req.Opts);
    // Budget members ride at the top level (not in "options"): they never
    // change the emitted code, so they must stay out of the options
    // fingerprint. Old servers ignore unknown top-level members.
    if (R.Req.Budget.WallMs) {
      Out += ',';
      appendInt(Out, "timeout_ms", static_cast<long long>(R.Req.Budget.WallMs));
    }
    if (R.Req.Budget.MaxMemoryBytes) {
      Out += ',';
      appendInt(Out, "max_memory_mb",
                static_cast<long long>(R.Req.Budget.MaxMemoryBytes >> 20));
    }
    if (R.Req.Budget.MaxWorkUnits) {
      Out += ',';
      appendInt(Out, "max_work",
                static_cast<long long>(R.Req.Budget.MaxWorkUnits));
    }
    break;
  }
  Out += '}';
  return Out;
}

Result<WireRequest> pluto::serve::decodeRequest(const std::string &Line) {
  auto Doc = JsonValue::parse(Line);
  if (!Doc)
    return Err("malformed JSON: " + Doc.error());
  if (!Doc->isObject())
    return Err("request must be a JSON object");

  const JsonValue *Ver = Doc->find("plutod");
  if (!Ver)
    return Err("missing \"plutod\" protocol version member");
  if (!Ver->isInteger() || Ver->asInt() != ProtocolVersion)
    return Err("unsupported protocol version (this server speaks "
               "\"plutod\": 1)");

  WireRequest R;
  if (const JsonValue *Id = Doc->find("id"))
    R.Id = Id->toJson();

  const JsonValue *OpV = Doc->find("op");
  if (!OpV || !OpV->isString())
    return Err("missing or non-string \"op\" member");
  const std::string &OpName = OpV->asString();
  if (OpName == "ping")
    R.Operation = Op::Ping;
  else if (OpName == "metrics")
    R.Operation = Op::Metrics;
  else if (OpName == "compile")
    R.Operation = Op::Compile;
  else if (OpName == "tune")
    R.Operation = Op::Tune;
  else
    return Err("unknown op \"" + OpName +
               "\" (expected compile, tune, ping or metrics)");

  if (R.Operation != Op::Compile && R.Operation != Op::Tune)
    return R;

  if (const JsonValue *Name = Doc->find("name")) {
    if (!Name->isString())
      return Err("\"name\" must be a string");
    R.Req.Name = Name->asString();
  }
  const JsonValue *Src = Doc->find("source");
  if (!Src || !Src->isString())
    return Err(std::string(R.Operation == Op::Tune ? "tune" : "compile") +
               " request needs a string \"source\" member");
  R.Req.Source = Src->asString();

  if (R.Operation == Op::Tune) {
    if (const JsonValue *Spec = Doc->find("spec")) {
      if (!Spec->isString())
        return Err("\"spec\" must be a string");
      R.Spec = Spec->asString();
    }
  }

  if (const JsonValue *Opts = Doc->find("options")) {
    auto O = optionsFromJson(*Opts);
    if (!O)
      return Err(O.error());
    R.Req.Opts = *O;
  }

  // Optional per-request resource budget (0 / absent = unlimited).
  auto ReadBudget = [&](const char *Key,
                        uint64_t &Field) -> Result<bool> {
    const JsonValue *V = Doc->find(Key);
    if (!V)
      return true;
    if (!V->isInteger() || V->asInt() < 0)
      return Err(std::string("\"") + Key +
                 "\" must be a non-negative integer");
    Field = static_cast<uint64_t>(V->asInt());
    return true;
  };
  uint64_t TimeoutMs = 0, MaxMemoryMb = 0, MaxWork = 0;
  if (auto B = ReadBudget("timeout_ms", TimeoutMs); !B)
    return Err(B.error());
  if (auto B = ReadBudget("max_memory_mb", MaxMemoryMb); !B)
    return Err(B.error());
  if (auto B = ReadBudget("max_work", MaxWork); !B)
    return Err(B.error());
  R.Req.Budget.WallMs = TimeoutMs;
  R.Req.Budget.MaxMemoryBytes = MaxMemoryMb << 20;
  R.Req.Budget.MaxWorkUnits = MaxWork;
  return R;
}

std::string pluto::serve::encodeResponse(const std::string &IdJson,
                                         const CompileResponse &Resp) {
  std::string Out = head(IdJson);
  Out += ',';
  appendStr(Out, "status", statusCodeName(Resp.Status));
  if (!Resp.Name.empty()) {
    Out += ',';
    appendStr(Out, "name", Resp.Name);
  }
  if (!Resp.Key.empty()) {
    Out += ',';
    appendStr(Out, "key", Resp.Key);
  }
  if (Resp.ok()) {
    Out += ',';
    appendBool(Out, "cache_hit", Resp.CacheHit);
    Out += ',';
    appendStr(Out, "emitted_c", Resp.EmittedC);
  } else {
    Out += ',';
    appendStr(Out, "error", Resp.Error);
    if (!Resp.Diags.empty()) {
      Out += ",\"diagnostics\":";
      Out += diagnosticsJsonArray(Resp.Name, Resp.Diags);
    }
  }
  Out += '}';
  return Out;
}

std::string pluto::serve::encodeSimpleResponse(const std::string &IdJson,
                                               StatusCode S,
                                               const std::string &Error) {
  std::string Out = head(IdJson);
  Out += ',';
  appendStr(Out, "status", statusCodeName(S));
  if (!Error.empty()) {
    Out += ',';
    appendStr(Out, "error", Error);
  }
  Out += '}';
  return Out;
}

std::string pluto::serve::encodeMetricsResponse(
    const std::string &IdJson, const std::string &MetricsJson) {
  std::string Out = head(IdJson);
  Out += ',';
  appendStr(Out, "status", statusCodeName(StatusCode::Ok));
  Out += ",\"metrics\":";
  Out += MetricsJson;
  Out += '}';
  return Out;
}

std::string pluto::serve::encodeTuneResponse(
    const std::string &IdJson, StatusCode S, const std::string &Name,
    const std::string &WinnerKey, const std::string &WinnerC,
    const std::string &Error, const std::string &TraceJson) {
  std::string Out = head(IdJson);
  Out += ',';
  appendStr(Out, "status", statusCodeName(S));
  if (!Name.empty()) {
    Out += ',';
    appendStr(Out, "name", Name);
  }
  if (S == StatusCode::Ok) {
    if (!WinnerKey.empty()) {
      Out += ',';
      appendStr(Out, "key", WinnerKey);
    }
    Out += ',';
    appendStr(Out, "emitted_c", WinnerC);
  } else if (!Error.empty()) {
    Out += ',';
    appendStr(Out, "error", Error);
  }
  if (!TraceJson.empty()) {
    Out += ",\"trace\":";
    Out += TraceJson;
  }
  Out += '}';
  return Out;
}

Result<WireResponse> pluto::serve::decodeResponse(const std::string &Line) {
  auto Doc = JsonValue::parse(Line);
  if (!Doc)
    return Err("malformed JSON: " + Doc.error());
  if (!Doc->isObject())
    return Err("response must be a JSON object");

  const JsonValue *Ver = Doc->find("plutod");
  if (!Ver || !Ver->isInteger() || Ver->asInt() != ProtocolVersion)
    return Err("missing or unsupported \"plutod\" protocol version");

  WireResponse R;
  if (const JsonValue *Id = Doc->find("id"))
    R.Id = Id->toJson();

  const JsonValue *St = Doc->find("status");
  if (!St || !St->isString())
    return Err("missing or non-string \"status\" member");
  auto Code = statusCodeFromName(St->asString());
  if (!Code)
    return Err("unknown status \"" + St->asString() + "\"");
  R.Status = *Code;

  if (const JsonValue *V = Doc->find("name"); V && V->isString())
    R.Name = V->asString();
  if (const JsonValue *V = Doc->find("key"); V && V->isString())
    R.Key = V->asString();
  if (const JsonValue *V = Doc->find("emitted_c"); V && V->isString())
    R.EmittedC = V->asString();
  if (const JsonValue *V = Doc->find("cache_hit"); V && V->isBool())
    R.CacheHit = V->asBool();
  if (const JsonValue *V = Doc->find("error"); V && V->isString())
    R.Error = V->asString();
  if (const JsonValue *V = Doc->find("metrics"))
    R.MetricsJson = V->toJson();
  if (const JsonValue *V = Doc->find("trace"))
    R.TraceJson = V->toJson();

  if (const JsonValue *Ds = Doc->find("diagnostics"); Ds && Ds->isArray()) {
    for (const JsonValue &DV : Ds->array()) {
      if (!DV.isObject())
        continue;
      Diagnostic D;
      if (const JsonValue *V = DV.find("line"); V && V->isInteger())
        D.Line = static_cast<unsigned>(V->asInt());
      if (const JsonValue *V = DV.find("col"); V && V->isInteger())
        D.Col = static_cast<unsigned>(V->asInt());
      if (const JsonValue *V = DV.find("severity"); V && V->isString())
        D.Sev = V->asString() == "warning" ? Severity::Warning
                                           : Severity::Error;
      if (const JsonValue *V = DV.find("message"); V && V->isString())
        D.Message = V->asString();
      R.Diags.push_back(std::move(D));
    }
  }
  return R;
}
