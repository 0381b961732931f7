//===- Workloads.cpp - Models, inputs and oracle references -------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "baselines/Baselines.h"
#include "frontend/Serializer.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <numeric>

using namespace spnc;
using namespace perfbench;

namespace {

void computeOracle(ModelSet &Set) {
  Set.Oracle.assign(Set.Models.size(), std::vector<double>(Set.NumInputs));
  for (size_t M = 0; M < Set.Models.size(); ++M)
    baselines::InterpreterEngine(Set.Models[M])
        .execute(Set.input(0), Set.Oracle[M].data(), Set.NumInputs);
  Set.OracleArgmax.assign(Set.NumInputs, 0);
  for (size_t I = 0; I < Set.NumInputs; ++I)
    for (unsigned M = 1; M < Set.Models.size(); ++M)
      if (Set.Oracle[M][I] > Set.Oracle[Set.OracleArgmax[I]][I])
        Set.OracleArgmax[I] = M;
}

} // namespace

ModelSet perfbench::buildRatSpnSet(uint64_t Seed, size_t NumInputs) {
  ModelSet Set;
  workloads::RatSpnOptions Options = workloads::ratSpnSmallScale();
  Options.PrototypeSeed = 42;
  for (unsigned Class = 0; Class < 10; ++Class) {
    Set.Models.push_back(workloads::generateRatSpn(Options, Class));
    Set.Blobs.push_back(spn::serializeModel(Set.Models.back()));
  }
  Set.NumFeatures = Options.NumFeatures;
  Set.NumInputs = NumInputs;
  Set.Inputs = workloads::generateImageData(Options.NumFeatures, 10,
                                            NumInputs, Seed, nullptr);
  computeOracle(Set);
  return Set;
}

runtime::CompilerOptions perfbench::defaultCompilerOptions() {
  runtime::CompilerOptions Options;
  Options.OptLevel = 2;
  Options.Execution.VectorWidth = 8;
  return Options;
}

std::vector<size_t> perfbench::seededOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), size_t(0));
  Rng R(Seed ^ 0x5eed0000ULL);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.uniformInt(I)]);
  return Order;
}
