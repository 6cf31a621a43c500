//===- perfbench/src/Gate.h - Correctness gates -----------------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark checks every output against the untransformed program,
/// never against plutopp's own transformed output:
///
///  - a compiled unit: the serial interpreter runs the original program
///    (identity schedule) and the lowered program at a small parameter
///    value on identical inputs, and every array must agree;
///  - natively run generated code: the kernel's own source, compiled
///    directly by cc inside a wrapper that declares its arrays with the
///    emitted code's layout, is run serially, and the generated code's
///    arrays must agree with it to a relative tolerance.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GATE_H
#define PERFBENCH_GATE_H

#include "service/Pipeline.h"

#include <string>
#include <vector>

namespace perfbench {

/// Runs the interpreter gate on a session that has lowered its source.
/// Every parameter takes one value: MaxParam, or less for deep nests so the
/// deepest runs at most 50 000 instances. Returns an empty string when the
/// programs agree, otherwise what differed.
std::string interpreterGate(pluto::Pipeline &Session, long long MaxParam);

/// A C translation unit defining FuncName with the emitted kernel's
/// signature (arrays in Program::Arrays order, then the integer parameters,
/// then the double constants) whose body is Source verbatim, plus the
/// FuncName_entry trampoline runtime/Jit calls. Arrays of rank >= 2 use the
/// emitted code's layout: every inner extent is the first parameter.
std::string referenceWrapper(const pluto::ParsedProgram &P,
                             const std::string &Source,
                             const std::string &FuncName);

/// True when every element of Got is within RelTol of Want (relative to
/// max(1, |Want|)) and finite; otherwise Where names the first mismatch.
bool closeEnough(const std::vector<double> &Want,
                 const std::vector<double> &Got, double RelTol,
                 std::string &Where);

} // namespace perfbench

#endif // PERFBENCH_GATE_H
