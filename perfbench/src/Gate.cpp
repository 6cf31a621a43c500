//===- perfbench/src/Gate.cpp - Correctness gates -------------------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//

#include "Gate.h"

#include "runtime/Interpreter.h"

#include <algorithm>
#include <cmath>
#include <set>

using namespace perfbench;
using namespace pluto;

static Result<Interpreter> runProgram(const ParsedProgram &PP,
                                      const CgNode &Ast, long long Param) {
  const Program &Prog = PP.Prog;
  std::map<std::string, std::vector<long long>> Extents;
  for (const ArrayInfo &A : Prog.Arrays)
    Extents[A.Name] = std::vector<long long>(A.Rank, Param + 2);
  Interpreter I;
  I.allocate(Prog, Extents);
  unsigned Seed = 1;
  for (auto &[Name, T] : I.Arrays)
    T.fillPattern(Seed++);
  for (const std::string &P : Prog.ParamNames)
    I.Params[P] = Param;
  double C = 0.25;
  for (const std::string &S : PP.SymConsts) {
    I.SymConsts[S] = C;
    C += 0.125;
  }
  auto R = I.run(Prog, Ast);
  if (!R)
    return Err(R.error());
  return I;
}

/// Statement instances of the deepest nest the gate executes per program.
constexpr double MaxInstances = 50000;

std::string perfbench::interpreterGate(Pipeline &Session, long long MaxParam) {
  auto Parsed = Session.parsed();
  if (!Parsed)
    return "parse: " + Parsed.error();
  size_t Depth = 1;
  for (const Statement &S : (*Parsed)->Prog.Stmts)
    Depth = std::max(Depth, S.IterNames.size());
  long long Param = MaxParam;
  while (Param > 4 && std::pow(static_cast<double>(Param),
                               static_cast<double>(Depth)) > MaxInstances)
    --Param;
  auto Lowered = Session.lowered();
  if (!Lowered)
    return "lower: " + Lowered.error();
  auto Orig = Session.originalAst((*Parsed)->Prog);
  if (!Orig)
    return "original AST: " + Orig.error();
  auto Want = runProgram(**Parsed, **Orig, Param);
  if (!Want)
    return "original program: " + Want.error();
  auto Got = runProgram(**Parsed, *(*Lowered)->Ast, Param);
  if (!Got)
    return "transformed program: " + Got.error();
  for (const auto &[Name, T] : Want->Arrays) {
    std::string Where;
    if (!closeEnough(T.Data, Got->Arrays[Name].Data, 1e-9, Where))
      return "array " + Name + " differs at " + Where;
  }
  return "";
}

std::string perfbench::referenceWrapper(const ParsedProgram &PP,
                                        const std::string &Source,
                                        const std::string &FuncName) {
  const Program &Prog = PP.Prog;
  std::string Stride = Prog.ParamNames.empty() ? "1024" : Prog.ParamNames[0];
  std::string Sig, Body;
  for (const ArrayInfo &A : Prog.Arrays) {
    Sig += (Sig.empty() ? "" : ", ") + ("double *" + A.Name + "_");
    if (A.Rank == 0) {
      Body += "#define " + A.Name + " (*" + A.Name + "_)\n";
    } else if (A.Rank == 1) {
      Body += "  double *" + A.Name + " = " + A.Name + "_;\n";
    } else {
      std::string Dims;
      for (unsigned D = 1; D < A.Rank; ++D)
        Dims += "[(" + Stride + ")]";
      Body += "  double (*" + A.Name + ")" + Dims + " = (double (*)" + Dims +
              ")" + A.Name + "_;\n";
    }
  }
  for (const std::string &P : Prog.ParamNames)
    Sig += (Sig.empty() ? "" : ", ") + ("long long " + P);
  for (const std::string &C : PP.SymConsts)
    Sig += (Sig.empty() ? "" : ", ") + ("double " + C);
  std::set<std::string> Iters;
  for (const Statement &S : Prog.Stmts)
    Iters.insert(S.IterNames.begin(), S.IterNames.end());
  std::string Decl;
  for (const std::string &I : Iters)
    Decl += (Decl.empty() ? "  long long " : ", ") + I;
  if (!Decl.empty())
    Decl += ";\n";
  // The entry point runtime/Jit looks up: arguments passed as vectors.
  std::string Call;
  auto pass = [&](const char *Vec, size_t Count) {
    for (size_t I = 0; I < Count; ++I)
      Call += (Call.empty() ? "" : ", ") + (Vec + ("[" + std::to_string(I) + "]"));
  };
  pass("arrays", Prog.Arrays.size());
  pass("params", Prog.ParamNames.size());
  pass("consts", PP.SymConsts.size());
  return "void " + FuncName + "(" + Sig + ") {\n" + Body + Decl + Source +
         "\n}\n\nvoid " + FuncName +
         "_entry(double **arrays, const long long *params, "
         "const double *consts) {\n  (void)arrays; (void)params; "
         "(void)consts;\n  " +
         FuncName + "(" + Call + ");\n}\n";
}

bool perfbench::closeEnough(const std::vector<double> &Want,
                            const std::vector<double> &Got, double RelTol,
                            std::string &Where) {
  if (Want.size() != Got.size()) {
    Where = "size " + std::to_string(Got.size()) + " vs " +
            std::to_string(Want.size());
    return false;
  }
  for (size_t I = 0; I < Want.size(); ++I) {
    double W = Want[I], G = Got[I];
    if (!std::isfinite(W) || !std::isfinite(G) ||
        std::fabs(W - G) > RelTol * std::max(1.0, std::fabs(W))) {
      Where = "element " + std::to_string(I) + " (" + std::to_string(G) +
              " vs " + std::to_string(W) + ")";
      return false;
    }
  }
  return true;
}
