//===- driver/Driver.h - Pipeline options and one-shot shims ----*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options and result types for the end-to-end source-to-source pipeline
/// (paper Figure 5): parse -> dependence analysis -> Pluto transformation
/// -> tiling -> wavefront -> intra-tile reordering -> code generation.
///
/// The documented public entry point is `pluto::Pipeline`
/// (service/Pipeline.h): a session object that validates and fingerprints
/// its PlutoOptions once, exposes every stage with memoized intermediate
/// artifacts, and plugs into the content-addressed result cache and the
/// concurrent batch driver (service/Batch.h). One-shot traffic should use
/// the CompileRequest/CompileResponse API (service/CompileService.h),
/// whose StatusCode taxonomy is shared by the CLI exit codes and the
/// plutod wire protocol. The three free functions below predate the
/// service layer and are [[deprecated]] compatibility shims over
/// Pipeline; they will not grow new features and new code must not call
/// them.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_DRIVER_DRIVER_H
#define PLUTOPP_DRIVER_DRIVER_H

#include "codegen/CEmitter.h"
#include "codegen/CodeGen.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "tile/Tiling.h"
#include "transform/PlutoTransform.h"

#include <variant>

namespace pluto {

/// Options for the optimization pipeline. Construct, adjust fields, then
/// hand to Pipeline::create(), which rejects invalid combinations via
/// validate(); the one-shot shims below validate the same way.
struct PlutoOptions {
  /// Tile every permutable band of width >= 2 (Algorithm 1).
  bool Tile = true;
  unsigned TileSize = 32;
  /// Tile the tile space once more (L2 tiling, Section 5.2 "Tiling multiple
  /// times"); the L2 size multiplies the L1 size.
  bool SecondLevelTile = false;
  unsigned L2TileSize = 8;
  /// Extract coarse-grained parallelism: mark communication-free bands
  /// parallel, wavefront pipelined bands (Algorithm 2).
  bool Parallelize = true;
  unsigned WavefrontDegrees = 1;
  /// Intra-tile reordering + vectorization pragma (Section 5.4).
  bool Vectorize = true;
  /// Consider read-after-read dependences (Section 4.1).
  bool IncludeInputDeps = true;
  /// Context assumption added for every parameter: p >= ParamMin.
  long long ParamMin = 4;
  /// Enable the scheduler's scaling fast paths (clustered decomposition,
  /// dimension matching, warm-started lexmin). Off reproduces the exact
  /// monolithic search; the fast paths fall back to it whenever they
  /// cannot prove they match, so results agree on the supported corpus.
  bool FastSchedule = true;
  CodeGenOptions CG;

  /// Checks the option set for values the pipeline cannot lower (zero tile
  /// sizes would build degenerate supernodes, zero wavefront degrees an
  /// empty wavefront, a negative ParamMin an unintended context). Returns
  /// true on success, an error message naming the offending field
  /// otherwise.
  Result<bool> validate() const;

  /// Field-wise equality (including codegen options).
  bool operator==(const PlutoOptions &O) const;
  bool operator!=(const PlutoOptions &O) const { return !(*this == O); }

  /// Canonical form for fingerprinting: fields the pipeline ignores under
  /// the current toggles are reset to their defaults, so semantically
  /// identical option sets collapse onto one fingerprint (and one cache
  /// key). Concretely: TileSize and the whole L2 level when Tile is off,
  /// L2TileSize when SecondLevelTile is off, and WavefrontDegrees when the
  /// wavefront can never fire (it requires Parallelize and Tile). Equality
  /// stays field-wise; only fingerprint() looks through this.
  PlutoOptions normalized() const;

  /// Stable, human-readable canonical encoding of every field that can
  /// affect pipeline output, computed on normalized(): two option sets
  /// that cannot produce different output share one fingerprint, and any
  /// output-affecting field change produces a different one; the service
  /// layer hashes it into the content-addressed cache key (DESIGN.md
  /// section 9).
  std::string fingerprint() const;
};

/// The first pipeline stage that reads an option. Schedule-stage options
/// change the parse, dependence and schedule artifacts; lower-stage options
/// only change what is built from a finished schedule, so option sets that
/// differ in them alone can share one schedule (the autotuner does).
enum class OptionStage { Schedule, Lower };

/// An option's kind: the type of its PlutoOptions member.
enum class OptionKind { Bool, Unsigned, Signed };

/// One row of the PlutoOptions field table below.
struct OptionField {
  /// The member; its alternative is the field's OptionKind.
  std::variant<bool PlutoOptions::*, unsigned PlutoOptions::*,
               long long PlutoOptions::*>
      Member;
  /// Command-line flag without its dashes (`--tile` / `--no-tile` for a
  /// bool, `--tile-size=N` otherwise); null for an option with no flag.
  const char *Flag;
  /// Member name in the plutod wire protocol's "options" object.
  const char *WireKey;
  /// Key in fingerprint(). It is hashed into every cache key, so it never
  /// changes (input_deps predates the wire's include_input_deps).
  const char *FingerprintKey;
  OptionStage Stage;
  /// One-line --help description; the default is appended.
  const char *Help;

  OptionKind kind() const { return static_cast<OptionKind>(Member.index()); }
  /// The field's value in O (a bool as 0/1).
  long long get(const PlutoOptions &O) const;
  /// Stores V into O; a negative V stores 0 into an unsigned field, which
  /// validate() rejects, rather than a wrapped-around size.
  void set(PlutoOptions &O, long long V) const;
};

/// The transformation options, declared once. Equality, fingerprint(), the
/// wire codec (serve/Protocol), the plutopp and plutoctl flags and help
/// (parseOptionFlag, optionFlagsHelp) and the tuner's schedule grouping
/// are all loops over this table, in this order. The codegen sub-options
/// (PlutoOptions::CG) are internal: no row, no flag, no wire key.
inline constexpr OptionField OptionFields[] = {
    {&PlutoOptions::Tile, "tile", "tile", "tile", OptionStage::Lower,
     "tile permutable bands"},
    {&PlutoOptions::TileSize, "tile-size", "tile_size", "tile_size",
     OptionStage::Lower, "tile size"},
    {&PlutoOptions::SecondLevelTile, "l2tile", "l2tile", "l2tile",
     OptionStage::Lower, "second-level tiling"},
    {&PlutoOptions::L2TileSize, "l2tile-size", "l2tile_size", "l2tile_size",
     OptionStage::Lower, "L2 factor, multiplies L1 size"},
    {&PlutoOptions::Parallelize, "parallel", "parallel", "parallel",
     OptionStage::Lower, "extract parallelism + pragmas"},
    {&PlutoOptions::WavefrontDegrees, nullptr, "wavefront_degrees",
     "wavefront_degrees", OptionStage::Lower, "wavefront degrees"},
    {&PlutoOptions::Vectorize, "vectorize", "vectorize", "vectorize",
     OptionStage::Lower, "intra-tile reordering + simd"},
    {&PlutoOptions::IncludeInputDeps, "include-input-deps",
     "include_input_deps", "input_deps", OptionStage::Schedule,
     "RAR deps in the cost model"},
    {&PlutoOptions::ParamMin, "param-min", "param_min", "param_min",
     OptionStage::Schedule, "context assumption p >= N"},
    {&PlutoOptions::FastSchedule, "fast-schedule", "fast_schedule",
     "fast_schedule", OptionStage::Schedule,
     "scheduler scaling fast paths"},
};

/// What parseOptionFlag() made of one command-line argument.
enum class FlagParse { NotAnOption, Applied, BadNumber };

/// Applies one table flag (`--tile`, `--no-tile`, `--tile-size=N`, ...) to
/// Opts. Values are range-checked by validate(), not here, so the CLIs and
/// the library reject the same sets: `--tile-size=-1` stores 0 (exit 2). A
/// missing or non-numeric value (`--tile-size=banana`) is BadNumber.
FlagParse parseOptionFlag(const std::string &Arg, PlutoOptions &Opts);

/// Parses the decimal integer after the first '=' of Arg; false when it is
/// empty or not a number.
bool parseFlagNumber(const std::string &Arg, long long &V);

/// The --help lines of every table flag, with its default.
std::string optionFlagsHelp();

/// Everything the pipeline produced, stage by stage.
struct PlutoResult {
  ParsedProgram Parsed;
  DependenceGraph DG;
  Schedule Sched;
  Scop Sc;
  CgNodePtr Ast;

  const Program &program() const { return Parsed.Prog; }
};

/// \deprecated Compatibility shim over Pipeline: runs the full pipeline on
/// restricted-C source. Equivalent to Pipeline::create(Opts) + setSource()
/// + takeLowered(); prefer Pipeline, which can also reuse artifacts and
/// hit the result cache, or Pipeline::compileRequest() for the structured
/// StatusCode result shape.
Result<PlutoResult> optimizeSource(const std::string &Source,
                                   const PlutoOptions &Opts = PlutoOptions());

/// \deprecated Compatibility shim over Pipeline::lowerSchedule(): applies the
/// post-schedule stages (scop building, tiling, wavefront, vectorization,
/// codegen) to an existing schedule - the hook used to evaluate forced
/// comparison transformations (Section 7's baselines).
Result<PlutoResult> lowerSchedule(ParsedProgram Parsed, DependenceGraph DG,
                                  Schedule Sched, const PlutoOptions &Opts);

/// \deprecated Compatibility shim over Pipeline::originalAst(): builds the
/// untransformed-program AST (identity 2d+1 schedule) for baseline
/// execution through the same code generator. The same `Opts.ParamMin`
/// context assumption the optimizing path applies is added here too, so
/// original and transformed code are generated under an identical context
/// (adding it twice is harmless - duplicate context rows normalize away).
Result<CgNodePtr> buildOriginalAst(const Program &Prog,
                                   const PlutoOptions &Opts = PlutoOptions());

} // namespace pluto

#endif // PLUTOPP_DRIVER_DRIVER_H
