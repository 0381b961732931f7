//===- lane_tail_test.cpp - Padded tail block and cross-width bit tests -------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the VM lane engine's padded tail: a batch whose size is not
/// a multiple of the lane width W ends in one W-lane block whose lanes
/// past the last row repeat that row and are never stored. Covered here:
///
///  * `execute()` and `executeIndexed()` over every batch size 1 ... 2W+1
///    for W in {4, 8, 16}, f32 and f64, on a partitioned kernel
///    (intermediates padded to whole blocks), with strided loads
///    (`UseShuffle = false`) and on a thread pool with 13-row chunks.
///    Every row's bits equal the same row's bits inside a full block, and
///    every row is within the oracle bound. Inputs and outputs hold
///    exactly N rows of heap storage, so a sanitizer build flags any
///    access past the last row;
///  * a RAT-SPN class kernel computes the same bits at W = 4, 8 and 16;
///  * the vector exp/log kernels give the scalar kernels' bits at every
///    lane count.
///
//===----------------------------------------------------------------------===//

#include "baselines/Baselines.h"
#include "runtime/KernelCache.h"
#include "support/Random.h"
#include "vm/Executor.h"
#include "vm/VecMath.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

using namespace spnc;
using namespace spnc::runtime;

namespace {

/// Rows of the reference batch: a multiple of every width, so each of
/// its rows runs inside a full block.
constexpr size_t kFullRows = 64;

struct Group {
  std::vector<spn::Model> Models;
  std::vector<double> Rows; // kFullRows rows, row-major
  unsigned NumFeatures = 0;
};

/// Three RAT-SPN models of one structure, with some evidence marginalized.
Group ratGroup() {
  workloads::RatSpnOptions Options;
  Options.NumFeatures = 16;
  Options.Depth = 2;
  Options.Replicas = 2;
  Options.SumsPerRegion = 3;
  Options.LeafDistributions = 4;
  Options.Seed = 31;
  Group G;
  for (unsigned Class = 0; Class < 3; ++Class)
    G.Models.push_back(workloads::generateRatSpn(Options, Class));
  G.NumFeatures = Options.NumFeatures;
  G.Rows = workloads::generateImageData(Options.NumFeatures, 3, kFullRows,
                                        0x7a11ULL, nullptr);
  Rng R(0x7a12ULL);
  for (double &X : G.Rows)
    if (R.next() % 9 == 0)
      X = std::numeric_limits<double>::quiet_NaN();
  return G;
}

spn::QueryConfig marginalQuery(bool F32) {
  spn::QueryConfig Query;
  Query.Kind = spn::QueryKind::Marginal;
  Query.SupportMarginal = true;
  Query.DataType = F32 ? spn::ComputeType::F32 : spn::ComputeType::F64;
  return Query;
}

/// The model scoring row \p I on the indexed path: tables change inside
/// blocks, so full blocks gather and tails mix tables.
size_t modelFor(size_t I, size_t NumModels) { return (I * 5 + I / 3) % NumModels; }

/// The bits a row's result carries: f32 results widen exactly to double.
uint64_t bits(double X) { return std::bit_cast<uint64_t>(X); }

struct Leg {
  std::string Name;
  CompilerOptions Options;
  bool Partitioned = false;
};

std::vector<Leg> legs(unsigned Width) {
  std::vector<Leg> Legs(3);
  for (Leg &L : Legs)
    L.Options.Execution.VectorWidth = Width;
  Legs[0].Name = "partitioned";
  Legs[0].Options.MaxPartitionSize = 8;
  Legs[0].Partitioned = true;
  Legs[1].Name = "strided loads";
  Legs[1].Options.Execution.UseShuffle = false;
  Legs[2].Name = "threads=3";
  Legs[2].Options.Execution.NumThreads = 3;
  Legs[2].Options.Execution.ChunkSize = 13;
  return Legs;
}

void expectNearOracle(double Got, double Want, bool F32,
                      const std::string &What) {
  if (std::isinf(Want) && Want < 0) {
    EXPECT_EQ(Got, Want) << What;
    return;
  }
  EXPECT_NEAR(Got, Want, F32 ? std::abs(Want) * 1e-4 + 1e-4 : 1e-9)
      << What;
}

/// Runs every batch size 1 ... 2W+1 on exactly-sized copies of the
/// reference rows, through \p Run(Input, Output, N, FirstRow), and checks
/// each row against the full-block reference and the oracle.
template <typename RunFn>
void expectTailsMatchFullBlocks(const Group &G, unsigned Width, bool F32,
                                const std::vector<double> &Full,
                                const std::vector<double> &Oracle,
                                const std::string &Leg, RunFn &&Run) {
  for (size_t N = 1; N <= 2 * Width + 1; ++N) {
    std::vector<double> In(G.Rows.begin(),
                           G.Rows.begin() + N * G.NumFeatures);
    std::vector<double> Out(N);
    ASSERT_TRUE(Run(In.data(), Out.data(), N)) << Leg << " N=" << N;
    for (size_t I = 0; I < N; ++I) {
      std::string What = Leg + (F32 ? " f32" : " f64") + " w=" +
                         std::to_string(Width) + " N=" + std::to_string(N) +
                         " row " + std::to_string(I);
      EXPECT_EQ(bits(Out[I]), bits(Full[I])) << What << ": tail vs full block";
      expectNearOracle(Out[I], Oracle[I], F32, What);
    }
  }
}

TEST(LaneTailTest, PaddedTailMatchesFullBlocks) {
  Group G = ratGroup();
  std::vector<std::vector<double>> Oracle(G.Models.size(),
                                          std::vector<double>(kFullRows));
  for (size_t M = 0; M < G.Models.size(); ++M)
    baselines::InterpreterEngine(G.Models[M])
        .execute(G.Rows.data(), Oracle[M].data(), kFullRows);
  std::vector<double> IndexedOracle(kFullRows);
  for (size_t I = 0; I < kFullRows; ++I)
    IndexedOracle[I] = Oracle[modelFor(I, G.Models.size())][I];

  for (unsigned Width : {4u, 8u, 16u})
    for (bool F32 : {false, true})
      for (const Leg &L : legs(Width)) {
        KernelCache Cache;
        Expected<CompiledKernel> Plain =
            Cache.getOrCompile(G.Models[0], marginalQuery(F32), L.Options);
        ASSERT_TRUE(static_cast<bool>(Plain)) << Plain.getError().message();
        if (L.Partitioned) {
          ASSERT_GT(Plain->getProgram().Tasks.size(), 1u)
              << "the budget must split the kernel";
        }
        std::vector<double> Full(kFullRows);
        Plain->execute(G.Rows.data(), Full.data(), kFullRows);
        expectTailsMatchFullBlocks(
            G, Width, F32, Full, Oracle[0], L.Name + " execute",
            [&](const double *In, double *Out, size_t N) {
              Plain->execute(In, Out, N);
              return true;
            });

        CompiledKernel Merged;
        std::vector<uint32_t> Tables;
        for (const spn::Model &Model : G.Models) {
          Expected<KernelCache::MergedKernel> M =
              Cache.getOrCompileMerged(Model, marginalQuery(F32), L.Options);
          ASSERT_TRUE(static_cast<bool>(M)) << M.getError().message();
          Merged = M->Kernel;
          Tables.push_back(static_cast<uint32_t>(M->TableIndex));
        }
        std::vector<uint32_t> Index(kFullRows);
        for (size_t I = 0; I < kFullRows; ++I)
          Index[I] = Tables[modelFor(I, G.Models.size())];
        std::vector<double> FullIndexed(kFullRows);
        ASSERT_TRUE(Merged.executeIndexed(G.Rows.data(), Index.data(),
                                          FullIndexed.data(), kFullRows));
        expectTailsMatchFullBlocks(
            G, Width, F32, FullIndexed, IndexedOracle,
            L.Name + " executeIndexed",
            [&](const double *In, double *Out, size_t N) {
              std::vector<uint32_t> Rows(Index.begin(), Index.begin() + N);
              return Merged.executeIndexed(In, Rows.data(), Out, N);
            });
      }
}

/// A RAT-SPN class kernel at the paper's small scale computes the same
/// bits at every lane width, tail rows included.
TEST(LaneTailTest, RatSpnClassKernelBitsAcrossWidths) {
  workloads::RatSpnOptions Options = workloads::ratSpnSmallScale();
  constexpr size_t kRows = 37;
  std::vector<double> In = workloads::generateImageData(
      Options.NumFeatures, 10, kRows, 0x51deULL, nullptr);
  CompilerOptions Compile;
  Compile.OptLevel = 2;
  KernelCache Cache;
  Expected<CompiledKernel> Kernel = Cache.getOrCompile(
      workloads::generateRatSpn(Options, 0), marginalQuery(/*F32=*/true),
      Compile);
  ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError().message();

  std::vector<std::vector<double>> Out;
  for (unsigned Width : {4u, 8u, 16u}) {
    vm::ExecutionConfig Config;
    Config.VectorWidth = Width;
    vm::CpuExecutor Engine(Kernel->getProgram(), Config);
    Out.emplace_back(kRows);
    Engine.execute(In.data(), Out.back().data(), kRows);
  }
  for (size_t I = 0; I < kRows; ++I) {
    EXPECT_EQ(bits(Out[1][I]), bits(Out[0][I])) << "row " << I << ": w=8 vs 4";
    EXPECT_EQ(bits(Out[2][I]), bits(Out[0][I])) << "row " << I << ": w=16 vs 4";
  }
}

template <typename V, typename ScalarFn, typename VectorFn>
void expectLaneBits(const char *Name, ScalarFn Scalar, VectorFn Vector,
                    float Lo, float Hi) {
  Rng R(0xb175ULL);
  for (unsigned Round = 0; Round < 2000; ++Round) {
    V X;
    for (unsigned L = 0; L < vm::NumLanes<V>; ++L)
      X[L] = static_cast<float>(R.uniform(Lo, Hi));
    V Y = Vector(X);
    for (unsigned L = 0; L < vm::NumLanes<V>; ++L)
      ASSERT_EQ(std::bit_cast<uint32_t>(Y[L]),
                std::bit_cast<uint32_t>(Scalar(X[L])))
          << Name << " at " << vm::NumLanes<V> << " lanes, x = " << X[L];
  }
}

template <unsigned W> void expectKernelBits() {
  using V = vm::Vec<float, W>;
  expectLaneBits<V>("expNeg", vm::fastExpNeg,
                    [](V X) { return vm::expNeg(X); }, -100.0f, 0.0f);
  expectLaneBits<V>("logPos", vm::fastLogPos,
                    [](V X) { return vm::logPos(X); }, 1.0f, 64.0f);
  expectLaneBits<V>("log1p01", vm::fastLog1p01,
                    [](V X) { return vm::log1p01(X); }, 0.0f, 1.0f);
}

TEST(LaneTailTest, VectorMathMatchesScalarBitsAtEveryWidth) {
  expectKernelBits<4>();
  expectKernelBits<8>();
  expectKernelBits<16>();
}

} // namespace
