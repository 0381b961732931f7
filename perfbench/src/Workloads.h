//===- Workloads.h - Models, inputs and oracle references ---------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's fixed models (serialized to `.spnb` bytes, as a user
/// would hand them to the compiler) and its seeded inputs, with the
/// interpreter oracle's log-likelihood for every (model, input) pair.
/// Building a set is benchmark work and is never timed.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_PERFBENCH_WORKLOADS_H
#define SPNC_PERFBENCH_WORKLOADS_H

#include "frontend/Model.h"
#include "frontend/Query.h"
#include "runtime/Pipeline.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ModelSet {
  /// Serialized models (`.spnb` bytes); fixed, independent of the seed.
  std::vector<std::vector<uint8_t>> Blobs;
  /// The generated models, kept for the oracle and the merge probes.
  std::vector<spnc::spn::Model> Models;
  spnc::spn::QueryConfig Query;
  unsigned NumFeatures = 0;
  /// Seeded inputs, row-major [input][feature]; every model scores every
  /// input.
  std::vector<double> Inputs;
  size_t NumInputs = 0;
  /// Oracle log-likelihoods, [model][input].
  std::vector<std::vector<double>> Oracle;
  /// Per input, the model with the highest oracle log-likelihood.
  std::vector<unsigned> OracleArgmax;

  const double *input(size_t Index) const {
    return Inputs.data() + Index * NumFeatures;
  }
};

/// Ten RAT-SPN class models (`ratSpnSmallScale`, leaves fitted with
/// `PrototypeSeed`) and \p NumInputs images drawn with \p Seed.
ModelSet buildRatSpnSet(uint64_t Seed, size_t NumInputs);

/// What the tools give a user by default: -O2, 8 lanes, CPU target,
/// the registry's default backend.
spnc::runtime::CompilerOptions defaultCompilerOptions();

/// A seeded permutation of 0..N-1.
std::vector<size_t> seededOrder(size_t N, uint64_t Seed);

} // namespace perfbench

#endif // SPNC_PERFBENCH_WORKLOADS_H
