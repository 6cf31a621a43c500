//===- driver/Driver.cpp - Compatibility shims over Pipeline --------------===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
// The stage implementations live in service/Pipeline.cpp; this file keeps
// the pre-service free-function API alive as thin wrappers and implements
// the PlutoOptions contract (validate / equality / fingerprint) they and
// the service layer share, plus the field table's accessors and the
// command-line flag parsing and help built from it.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include "service/Pipeline.h"

#include <cstdlib>
#include <sstream>
#include <type_traits>

using namespace pluto;

Result<bool> PlutoOptions::validate() const {
  if (TileSize == 0)
    return Err("invalid options: tile size must be positive (--tile-size)");
  if (L2TileSize == 0)
    return Err(
        "invalid options: L2 tile size must be positive (--l2tile-size)");
  if (WavefrontDegrees == 0)
    return Err("invalid options: wavefront degrees must be positive");
  if (ParamMin < 0)
    return Err("invalid options: parameter lower bound must be non-negative "
               "(--param-min)");
  if (CG.MaxPieces == 0)
    return Err("invalid options: codegen piece cap must be positive");
  return true;
}

bool PlutoOptions::operator==(const PlutoOptions &O) const {
  for (const OptionField &F : OptionFields)
    if (F.get(*this) != F.get(O))
      return false;
  return CG.MaxPieces == O.CG.MaxPieces &&
         CG.EnableSeparation == O.CG.EnableSeparation &&
         CG.ParallelPragmaRows == O.CG.ParallelPragmaRows;
}

PlutoOptions PlutoOptions::normalized() const {
  // Reset every field the pipeline cannot observe under the current
  // toggles to its default, so "tiled off but tile size 64" and "tiled
  // off, tile size 16" fingerprint (and cache) identically. The defaults
  // come from a fresh PlutoOptions so this never drifts from the header.
  const PlutoOptions Defaults;
  PlutoOptions N = *this;
  if (!N.Tile) {
    // Tiling off: no supernodes are built, so the sizes and the second
    // level are dead knobs.
    N.TileSize = Defaults.TileSize;
    N.SecondLevelTile = Defaults.SecondLevelTile;
    N.L2TileSize = Defaults.L2TileSize;
  }
  if (!N.SecondLevelTile)
    N.L2TileSize = Defaults.L2TileSize;
  // The wavefront only fires on tiled bands with parallelism extraction on
  // (lowerSchedule applies it under Parallelize && Tile).
  if (!N.Parallelize || !N.Tile)
    N.WavefrontDegrees = Defaults.WavefrontDegrees;
  return N;
}

std::string PlutoOptions::fingerprint() const {
  // Canonical key=value encoding of every output-affecting field, in a
  // fixed order, computed on the normalized form so semantically identical
  // option sets alias to one fingerprint. The encoding itself is the
  // fingerprint (it is short and diffable in logs); the service layer
  // hashes it together with the canonical source into the cache key.
  const PlutoOptions N = normalized();
  std::ostringstream OS;
  for (const OptionField &F : OptionFields)
    OS << F.FingerprintKey << '=' << F.get(N) << ';';
  OS << "cg_max_pieces=" << N.CG.MaxPieces
     << ";cg_separation=" << N.CG.EnableSeparation << ";cg_pragma_rows=";
  bool First = true;
  for (unsigned Row : N.CG.ParallelPragmaRows) {
    OS << (First ? "" : ",") << Row;
    First = false;
  }
  return OS.str();
}

long long OptionField::get(const PlutoOptions &O) const {
  return std::visit([&](auto M) { return static_cast<long long>(O.*M); },
                    Member);
}

void OptionField::set(PlutoOptions &O, long long V) const {
  std::visit(
      [&](auto M) {
        using T = std::remove_reference_t<decltype(O.*M)>;
        O.*M = std::is_unsigned_v<T> && V < 0 ? T(0) : static_cast<T>(V);
      },
      Member);
}

bool pluto::parseFlagNumber(const std::string &Arg, long long &V) {
  size_t Eq = Arg.find('=');
  if (Eq == std::string::npos)
    return false;
  const char *Begin = Arg.c_str() + Eq + 1;
  char *End = nullptr;
  V = std::strtoll(Begin, &End, 10);
  return End != Begin && *End == '\0';
}

FlagParse pluto::parseOptionFlag(const std::string &Arg, PlutoOptions &Opts) {
  for (const OptionField &F : OptionFields) {
    if (!F.Flag)
      continue;
    std::string Name = std::string("--") + F.Flag;
    if (F.kind() == OptionKind::Bool) {
      if (Arg == Name || Arg == std::string("--no-") + F.Flag) {
        F.set(Opts, Arg == Name);
        return FlagParse::Applied;
      }
    } else if (Arg.rfind(Name + "=", 0) == 0) {
      long long V;
      if (!parseFlagNumber(Arg, V))
        return FlagParse::BadNumber;
      F.set(Opts, V);
      return FlagParse::Applied;
    }
  }
  return FlagParse::NotAnOption;
}

std::string pluto::optionFlagsHelp() {
  const PlutoOptions Defaults;
  std::string Out;
  for (const OptionField &F : OptionFields) {
    if (!F.Flag)
      continue;
    long long Default = F.get(Defaults);
    bool IsBool = F.kind() == OptionKind::Bool;
    std::string Line = std::string("  --") + F.Flag;
    Line += IsBool ? std::string(" / --no-") + F.Flag : "=N";
    // Help text starts in column 35, on its own line after a long flag.
    Line += Line.size() < 34 ? std::string(34 - Line.size(), ' ')
                             : "\n" + std::string(34, ' ');
    Out += Line + F.Help + " (" +
           (IsBool ? (Default ? "on" : "off") : std::to_string(Default)) +
           ")\n";
  }
  return Out;
}

Result<PlutoResult> pluto::optimizeSource(const std::string &Source,
                                          const PlutoOptions &Opts) {
  auto P = Pipeline::create(Opts);
  if (!P)
    return Err(P.error());
  P->setSource(Source);
  return P->takeLowered();
}

Result<PlutoResult> pluto::lowerSchedule(ParsedProgram Parsed,
                                         DependenceGraph DG, Schedule Sched,
                                         const PlutoOptions &Opts) {
  auto P = Pipeline::create(Opts);
  if (!P)
    return Err(P.error());
  return P->lowerSchedule(std::move(Parsed), std::move(DG), std::move(Sched));
}

Result<CgNodePtr> pluto::buildOriginalAst(const Program &Prog,
                                          const PlutoOptions &Opts) {
  auto P = Pipeline::create(Opts);
  if (!P)
    return Err(P.error());
  return P->originalAst(Prog);
}
