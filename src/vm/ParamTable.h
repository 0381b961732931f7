//===- ParamTable.h - Weight-table binding for parameterized programs ---------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Merged-model compilation (docs/merging.md): a parameterized
/// `KernelProgram` carries `ParamSite` records describing which
/// side-table slots hold tunable model parameters (sum weights, leaf
/// distribution parameters) and how the raw parameter is transformed
/// before it lands in the slot. Binding a weight table rewrites the side
/// tables (vm::SideTables) for another structurally-isomorphic model —
/// the instruction stream, buffer plan and register assignment are
/// shared untouched.
///
/// The transforms reproduce the code generator's constant folding
/// bit-for-bit (same formulas, same literals — see vm::kLogSqrt2Pi), so
/// binding the generating model's own raw parameters yields exactly the
/// baked tables. `verifySelfBinding` checks that invariant; the kernel
/// cache runs it after every fresh parameterized compile.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_VM_PARAMTABLE_H
#define SPNC_VM_PARAMTABLE_H

#include "vm/Bytecode.h"

#include <span>
#include <string>
#include <vector>

namespace spnc {
namespace vm {

/// Applies \p Transform to a raw model parameter, mirroring codegen.
double transformParam(ParamTransform Transform, double Raw);

/// Returns a copy of \p Task's side tables with every parameter site of
/// the task rebound to \p Raw, the canonical parameter vector
/// (merge::extractParams order) of the model to bind.
SideTables bindTaskParams(const TaskProgram &Task,
                          std::span<const double> Raw);

/// True when rebinding \p Program with \p Raw (the raw parameters of the
/// model it was generated from) reproduces its own baked side tables
/// bit-for-bit. A failure means the program shape depends on parameter
/// values somewhere — the merged path must not be used. On failure a
/// description is written to \p Why when provided.
bool verifySelfBinding(const KernelProgram &Program,
                       std::span<const double> Raw,
                       std::string *Why = nullptr);

/// Flattens the tunable-bearing side tables of one task into a dense
/// double block: ConstPool, then (Mean, InvStdDev, Coefficient) per
/// Gaussian, then each lookup table's Values, then each select's Value.
/// The C++ backend indexes its per-model parameter blocks with this
/// exact layout (CppEmitter computes the matching offsets).
std::vector<double> flattenTaskTables(const SideTables &Tables);

} // namespace vm
} // namespace spnc

#endif // SPNC_VM_PARAMTABLE_H
