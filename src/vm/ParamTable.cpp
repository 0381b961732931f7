//===- ParamTable.cpp - Weight-table binding for parameterized programs -------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "vm/ParamTable.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>

using namespace spnc;
using namespace spnc::vm;

double spnc::vm::transformParam(ParamTransform Transform, double Raw) {
  // Every formula below is the exact arithmetic the code generator runs
  // when it bakes the generating model's constants (Codegen.cpp): the
  // self-binding check compares the results bit-for-bit.
  switch (Transform) {
  case ParamTransform::Identity:
    return Raw;
  case ParamTransform::Log:
    return std::log(Raw);
  case ParamTransform::Reciprocal:
    return 1.0 / Raw;
  case ParamTransform::LogGaussCoefficient:
    return -std::log(Raw) - kLogSqrt2Pi;
  case ParamTransform::LinearGaussCoefficient:
    return kInvSqrt2Pi / Raw;
  }
  return Raw;
}

namespace {

/// Writes Transform(Raw[Param]) into the slot of every site.
void writeSites(std::span<const ParamSite> Sites, SideTables &Tables,
                std::span<const double> Raw) {
  for (const ParamSite &Site : Sites) {
    assert(Site.Param < Raw.size() && "parameter index out of range");
    double Value = transformParam(Site.Transform, Raw[Site.Param]);
    switch (Site.Kind) {
    case ParamSlotKind::ConstPool:
      Tables.ConstPool[Site.Index] = Value;
      break;
    case ParamSlotKind::GaussianMean:
      Tables.Gaussians[Site.Index].Mean = Value;
      break;
    case ParamSlotKind::GaussianInvStdDev:
      Tables.Gaussians[Site.Index].InvStdDev = Value;
      break;
    case ParamSlotKind::GaussianCoefficient:
      Tables.Gaussians[Site.Index].Coefficient = Value;
      break;
    case ParamSlotKind::TableValue:
      for (uint32_t I = 0; I < Site.Count; ++I)
        Tables.Tables[Site.Index].Values[Site.Slot + I] = Value;
      break;
    case ParamSlotKind::SelectValue:
      Tables.Selects[Site.Index].Value = Value;
      break;
    }
  }
}

} // namespace

SideTables spnc::vm::bindTaskParams(const TaskProgram &Task,
                                    std::span<const double> Raw) {
  SideTables Bound = Task;
  writeSites(Task.ParamSites, Bound, Raw);
  return Bound;
}

namespace {

bool sameBits(double A, double B) {
  return std::bit_cast<uint64_t>(A) == std::bit_cast<uint64_t>(B);
}

} // namespace

bool spnc::vm::verifySelfBinding(const KernelProgram &Program,
                                 std::span<const double> Raw,
                                 std::string *Why) {
  auto Fail = [&](const std::string &Message) {
    if (Why)
      *Why = Message;
    return false;
  };
  if (!Program.Parameterized)
    return Fail("program is not parameterized");
  if (Raw.size() != Program.NumParams)
    return Fail("parameter count mismatch: program has " +
                std::to_string(Program.NumParams) + ", model extracts " +
                std::to_string(Raw.size()));
  for (size_t T = 0; T < Program.Tasks.size(); ++T) {
    const TaskProgram &A = Program.Tasks[T];
    SideTables B = bindTaskParams(A, Raw);
    std::string Where = " (task " + std::to_string(T) + ")";
    for (size_t I = 0; I < A.ConstPool.size(); ++I)
      if (!sameBits(A.ConstPool[I], B.ConstPool[I]))
        return Fail("self-binding diverges at const-pool slot " +
                    std::to_string(I) + Where);
    for (size_t I = 0; I < A.Gaussians.size(); ++I)
      if (!sameBits(A.Gaussians[I].Mean, B.Gaussians[I].Mean) ||
          !sameBits(A.Gaussians[I].InvStdDev, B.Gaussians[I].InvStdDev) ||
          !sameBits(A.Gaussians[I].Coefficient,
                    B.Gaussians[I].Coefficient))
        return Fail("self-binding diverges at gaussian " +
                    std::to_string(I) + Where);
    for (size_t I = 0; I < A.Tables.size(); ++I)
      for (size_t J = 0; J < A.Tables[I].Values.size(); ++J)
        if (!sameBits(A.Tables[I].Values[J], B.Tables[I].Values[J]))
          return Fail("self-binding diverges at table " +
                      std::to_string(I) + " slot " + std::to_string(J) +
                      Where);
    for (size_t I = 0; I < A.Selects.size(); ++I)
      if (!sameBits(A.Selects[I].Value, B.Selects[I].Value))
        return Fail("self-binding diverges at select " +
                    std::to_string(I) + Where);
  }
  return true;
}

std::vector<double> spnc::vm::flattenTaskTables(const SideTables &Tables) {
  std::vector<double> Flat;
  Flat.reserve(Tables.ConstPool.size() + Tables.Gaussians.size() * 3 +
               Tables.Selects.size());
  Flat.insert(Flat.end(), Tables.ConstPool.begin(), Tables.ConstPool.end());
  for (const GaussianParams &G : Tables.Gaussians) {
    Flat.push_back(G.Mean);
    Flat.push_back(G.InvStdDev);
    Flat.push_back(G.Coefficient);
  }
  for (const LookupTable &Table : Tables.Tables)
    Flat.insert(Flat.end(), Table.Values.begin(), Table.Values.end());
  for (const SelectRange &Select : Tables.Selects)
    Flat.push_back(Select.Value);
  return Flat;
}
