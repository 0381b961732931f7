//===- indexed_test.cpp - Per-lane weight-table gather tests --------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for `ExecutionEngine::executeIndexed` on the VM lane engine
/// (docs/merging.md): one merged kernel scores a batch whose rows name
/// different weight tables in any order. Covered here:
///
///  * a differential leg against each row's own interpreter oracle, at
///    1e-9 in f64 and at the f32 bound, over interleaved, unsorted table
///    indices, several batch sizes, partitioned kernels and a thread
///    pool;
///  * position invariance: a row computes the same bits in a full
///    block, in a block that gathers from several tables and in the
///    padded tail block;
///  * registering weight tables while another thread executes indexed
///    batches on the same engine.
///
//===----------------------------------------------------------------------===//

#include "baselines/Baselines.h"
#include "merge/Merge.h"
#include "runtime/KernelCache.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

using namespace spnc;
using namespace spnc::runtime;

namespace {

constexpr size_t kMaxRows = 256;
const size_t kBatchSizes[] = {1, 3, 7, 8, 9, 61, 256};

/// A merge group: models with one structure and different parameters,
/// plus rows to score them on (row-major, kMaxRows rows).
struct Group {
  std::vector<spn::Model> Models;
  std::vector<double> Rows;
  unsigned NumFeatures = 0;
};

/// Four RAT-SPN class models (Gaussian leaves: the Const, GaussianLog and,
/// in linear space, Gaussian gathers).
Group ratGroup() {
  workloads::RatSpnOptions Options;
  Options.NumFeatures = 16;
  Options.Depth = 2;
  Options.Replicas = 2;
  Options.SumsPerRegion = 3;
  Options.LeafDistributions = 4;
  Options.Seed = 29;
  Group G;
  for (unsigned Class = 0; Class < 4; ++Class)
    G.Models.push_back(workloads::generateRatSpn(Options, Class));
  G.NumFeatures = Options.NumFeatures;
  G.Rows = workloads::generateImageData(Options.NumFeatures, 4, kMaxRows,
                                        0x1d3eULL, nullptr);
  return G;
}

/// Three models over every discrete lowering the CPU code generator
/// emits: a categorical and an integer-bucket histogram (dense tables),
/// a histogram with fractional bucket bounds (a select cascade with NaN
/// blends under marginal queries) and a Gaussian, in a two-way mixture.
/// The rows put discrete evidence between categories, below the first
/// and past the last, and leave some features unobserved (NaN).
Group mixedLeafGroup() {
  Group G;
  G.NumFeatures = 4;
  for (unsigned Variant = 0; Variant < 3; ++Variant) {
    double V = 0.05 * Variant;
    spn::Model M(G.NumFeatures, "mixed" + std::to_string(Variant));
    auto Component = [&](double Shift) {
      return M.makeProduct(
          {M.makeCategorical(0, {0.2 + V, 0.3 + Shift, 0.5 - V - Shift}),
           M.makeHistogram(1, {{0, 2, 0.3 - V + Shift}, {2, 5, 0.2 + V}}),
           M.makeHistogram(2, {{0, 0.5, 0.6 + V}, {0.5, 1.5, 0.4 + Shift}}),
           M.makeGaussian(3, Shift + V, 1.0 + V)});
    };
    M.setRoot(M.makeSum({Component(0.0), Component(0.1)},
                        {0.4 + V, 0.6 - V}));
    G.Models.push_back(std::move(M));
  }
  const double Cat[] = {0, 1, 2, 0.5, 1.5, 2.9, -0.5, 3.2};
  const double Hist1[] = {0, 1, 1.5, 2, 3.7, 4.9, 5, -0.3};
  const double Hist2[] = {0, 0.25, 0.5, 0.75, 1.49, 1.5, -0.1};
  Rng R(0xca7ULL);
  for (size_t I = 0; I < kMaxRows; ++I) {
    double Row[4] = {Cat[R.next() % std::size(Cat)],
                     Hist1[R.next() % std::size(Hist1)],
                     Hist2[R.next() % std::size(Hist2)],
                     R.uniform() * 4.0 - 2.0};
    for (double &X : Row)
      if (R.next() % 5 == 0)
        X = std::numeric_limits<double>::quiet_NaN();
    G.Rows.insert(G.Rows.end(), std::begin(Row), std::end(Row));
  }
  return G;
}

spn::QueryConfig marginalQuery(bool F32, bool LogSpace = true) {
  spn::QueryConfig Query;
  Query.Kind = spn::QueryKind::Marginal;
  Query.SupportMarginal = true;
  Query.LogSpace = LogSpace;
  Query.DataType = F32 ? spn::ComputeType::F32 : spn::ComputeType::F64;
  return Query;
}

/// One merged kernel for the group; Tables[M] is model M's table index.
struct Merged {
  CompiledKernel Kernel;
  std::vector<uint32_t> Tables;
};

Merged compileGroup(KernelCache &Cache, const Group &G,
                    const spn::QueryConfig &Query,
                    const CompilerOptions &Options) {
  CompiledKernel Kernel;
  std::vector<uint32_t> Tables;
  for (const spn::Model &Model : G.Models) {
    Expected<KernelCache::MergedKernel> M =
        Cache.getOrCompileMerged(Model, Query, Options);
    EXPECT_TRUE(static_cast<bool>(M)) << M.getError().message();
    if (!M)
      break;
    Kernel = M->Kernel;
    Tables.push_back(static_cast<uint32_t>(M->TableIndex));
  }
  EXPECT_EQ(Cache.getStats().Misses, 1u) << "the group compiles once";
  return {Kernel, Tables};
}

/// The model whose table scores row \p I: every third block of 8 rows
/// sits on one model, the other rows cycle through the models out of
/// order, so batches hold uniform blocks, mixed blocks and mixed tails.
size_t modelFor(size_t I, size_t NumModels) {
  size_t Block = I / 8;
  return Block % 3 == 0 ? (Block / 3) % NumModels
                        : (I * 7 + Block) % NumModels;
}

/// Equal within \p Bound, or both -inf (evidence outside the support).
void expectScore(double Got, double Want, double Bound,
                 const std::string &What) {
  if (std::isinf(Want) && Want < 0) {
    EXPECT_EQ(Got, Want) << What;
    return;
  }
  ASSERT_FALSE(std::isnan(Want)) << What;
  EXPECT_NEAR(Got, Want, Bound) << What;
}

/// Scores batches of every size in kBatchSizes through one merged kernel
/// (rows on interleaved tables) and checks every row against its own
/// model's interpreter oracle (exponentiated for linear-space queries).
void expectIndexedMatchesOracles(const Group &G,
                                 const CompilerOptions &Options, bool F32,
                                 const std::string &Leg,
                                 bool ExpectPartitioned = false,
                                 bool LogSpace = true) {
  KernelCache Cache;
  Merged M = compileGroup(Cache, G, marginalQuery(F32, LogSpace), Options);
  ASSERT_EQ(M.Tables.size(), G.Models.size()) << Leg;
  if (ExpectPartitioned) {
    ASSERT_GT(M.Kernel.getProgram().Tasks.size(), 1u)
        << Leg << ": the budget must split the kernel";
  }

  std::vector<std::vector<double>> Want(G.Models.size(),
                                        std::vector<double>(kMaxRows));
  for (size_t Model = 0; Model < G.Models.size(); ++Model)
    baselines::InterpreterEngine(G.Models[Model])
        .execute(G.Rows.data(), Want[Model].data(), kMaxRows);

  for (size_t N : kBatchSizes) {
    std::vector<uint32_t> Index(N);
    for (size_t I = 0; I < N; ++I)
      Index[I] = M.Tables[modelFor(I, G.Models.size())];
    std::vector<double> Got(N, 0.0);
    ASSERT_TRUE(M.Kernel.executeIndexed(G.Rows.data(), Index.data(),
                                        Got.data(), N))
        << Leg << ": engine refused a batch of " << N;
    for (size_t I = 0; I < N; ++I) {
      double Oracle = Want[modelFor(I, G.Models.size())][I];
      if (!LogSpace)
        Oracle = std::exp(Oracle);
      double Bound = F32 ? std::abs(Oracle) * 1e-4 + 1e-4 : 1e-9;
      expectScore(Got[I], Oracle, Bound,
                  Leg + (F32 ? " f32" : " f64") + " N=" +
                      std::to_string(N) + " row " + std::to_string(I));
    }
  }
}

TEST(IndexedExecTest, GatherMatchesOraclesUnpartitioned) {
  for (const Group &G : {ratGroup(), mixedLeafGroup()})
    for (unsigned Width : {1u, 4u, 8u, 16u})
      for (bool F32 : {false, true}) {
        CompilerOptions Options;
        Options.Execution.VectorWidth = Width;
        expectIndexedMatchesOracles(G, Options, F32,
                                    "w=" + std::to_string(Width));
      }
  for (bool F32 : {false, true}) {
    CompilerOptions Options;
    Options.Execution.VectorWidth = 8;
    expectIndexedMatchesOracles(mixedLeafGroup(), Options, F32, "linear",
                                /*ExpectPartitioned=*/false,
                                /*LogSpace=*/false);
  }
}

TEST(IndexedExecTest, GatherMatchesOraclesPartitioned) {
  for (const Group &G : {ratGroup(), mixedLeafGroup()})
    for (bool F32 : {false, true}) {
      CompilerOptions Options;
      Options.Execution.VectorWidth = 8;
      Options.MaxPartitionSize = 8;
      expectIndexedMatchesOracles(G, Options, F32, "partitioned",
                                  /*ExpectPartitioned=*/true);
    }
}

TEST(IndexedExecTest, GatherMatchesOraclesOnThreadPool) {
  for (const Group &G : {ratGroup(), mixedLeafGroup()})
    for (bool F32 : {false, true}) {
      CompilerOptions Options;
      Options.Execution.VectorWidth = 8;
      Options.Execution.NumThreads = 3;
      // Chunks that are not a multiple of the width: every chunk ends
      // in a padded tail block, and a table run spans chunk boundaries.
      Options.Execution.ChunkSize = 13;
      expectIndexedMatchesOracles(G, Options, F32, "threads=3");
    }
}

uint32_t bits(double X) {
  // Results are f32 values widened to double; compare their f32 bits.
  return std::bit_cast<uint32_t>(static_cast<float>(X));
}

/// A row computes the same bits wherever it runs: in a full block on one
/// table, in a block gathering from several tables, or alone in the
/// padded tail block. f32 is where a different exp/log would show.
TEST(IndexedExecTest, RowBitsIndependentOfBlockPosition) {
  Group G = ratGroup();
  constexpr size_t kRows = 37; // two 16-wide blocks and a 5-row tail
  for (unsigned Width : {4u, 8u, 16u}) {
    CompilerOptions Options;
    Options.Execution.VectorWidth = Width;
    KernelCache Cache;
    Merged M = compileGroup(Cache, G, marginalQuery(/*F32=*/true),
                            Options);
    ASSERT_EQ(M.Tables.size(), G.Models.size());
    std::string Leg = "w=" + std::to_string(Width);

    // Every row on one table: full uniform blocks plus the tail.
    std::vector<std::vector<double>> Uniform(G.Models.size());
    for (size_t Model = 0; Model < G.Models.size(); ++Model) {
      std::vector<uint32_t> Index(kRows, M.Tables[Model]);
      Uniform[Model].resize(kRows);
      ASSERT_TRUE(M.Kernel.executeIndexed(G.Rows.data(), Index.data(),
                                          Uniform[Model].data(), kRows));
    }
    // Interleaved tables: every block gathers.
    std::vector<uint32_t> Index(kRows);
    for (size_t I = 0; I < kRows; ++I)
      Index[I] = M.Tables[(I * 3 + I / 5) % G.Models.size()];
    std::vector<double> Mixed(kRows);
    ASSERT_TRUE(M.Kernel.executeIndexed(G.Rows.data(), Index.data(),
                                        Mixed.data(), kRows));
    for (size_t I = 0; I < kRows; ++I) {
      size_t Model = (I * 3 + I / 5) % G.Models.size();
      EXPECT_EQ(bits(Mixed[I]), bits(Uniform[Model][I]))
          << Leg << " row " << I << ": mixed block vs uniform block";
      // Alone, the row runs in a padded tail block.
      double Alone = 0.0;
      ASSERT_TRUE(M.Kernel.executeIndexed(
          G.Rows.data() + I * G.NumFeatures, &M.Tables[Model], &Alone, 1));
      EXPECT_EQ(bits(Alone), bits(Uniform[Model][I]))
          << Leg << " row " << I << ": tail vs block";
    }

    // The non-parameterized execute() path keeps the same invariant.
    Expected<CompiledKernel> Plain = Cache.getOrCompile(
        G.Models[0], marginalQuery(/*F32=*/true), Options);
    ASSERT_TRUE(static_cast<bool>(Plain));
    std::vector<double> Batch(kRows);
    Plain->execute(G.Rows.data(), Batch.data(), kRows);
    for (size_t I = 0; I < kRows; ++I) {
      double Alone = 0.0;
      Plain->execute(G.Rows.data() + I * G.NumFeatures, &Alone, 1);
      EXPECT_EQ(bits(Alone), bits(Batch[I]))
          << Leg << " execute() row " << I << ": tail vs block";
    }
  }
}

/// Tables registered while another thread runs indexed batches on the
/// same engine: every batch scores each row under the table it names,
/// concurrent registrations of one model agree on its index, and an
/// index that was never registered is refused.
TEST(IndexedExecTest, AddParamTableRacesExecuteIndexed) {
  Group G = ratGroup();
  constexpr size_t kRows = 29;
  CompilerOptions Options;
  Options.Execution.VectorWidth = 8;
  KernelCache Cache;
  Expected<KernelCache::MergedKernel> First =
      Cache.getOrCompileMerged(G.Models[0], marginalQuery(false), Options);
  ASSERT_TRUE(static_cast<bool>(First)) << First.getError().message();
  ASSERT_EQ(First->TableIndex, 0);
  const CompiledKernel &Kernel = First->Kernel;

  std::vector<std::vector<double>> Want(G.Models.size(),
                                        std::vector<double>(kRows));
  std::vector<std::vector<double>> Params(G.Models.size());
  for (size_t Model = 0; Model < G.Models.size(); ++Model) {
    baselines::InterpreterEngine(G.Models[Model])
        .execute(G.Rows.data(), Want[Model].data(), kRows);
    Params[Model] = merge::extractParams(G.Models[Model]);
  }

  // Tables [0, Published) are registered; index I belongs to model I.
  std::atomic<size_t> Published{1};
  std::atomic<unsigned> Writers{2};
  std::atomic<unsigned> WrongIndex{0};
  // Each writer registers the models in order, then keeps re-registering
  // them so the table lock stays contended while batches run.
  auto Register = [&] {
    for (unsigned Pass = 0; Pass < 20; ++Pass)
      for (size_t Model = 1; Model < G.Models.size(); ++Model) {
        int32_t Table = Kernel.addParamTable(Params[Model].data(),
                                             Params[Model].size());
        if (Table != static_cast<int32_t>(Model))
          ++WrongIndex;
        size_t Seen = Published.load();
        while (Seen < Model + 1 &&
               !Published.compare_exchange_weak(Seen, Model + 1)) {
        }
      }
    --Writers;
  };
  std::thread A(Register), B(Register);

  unsigned Mismatches = 0, Refused = 0;
  for (unsigned Round = 0; Round < 64 || Writers.load() > 0; ++Round) {
    size_t Tables = Published.load();
    std::vector<uint32_t> Index(kRows);
    for (size_t I = 0; I < kRows; ++I)
      Index[I] = static_cast<uint32_t>((I * 5 + Round) % Tables);
    std::vector<double> Got(kRows);
    if (!Kernel.executeIndexed(G.Rows.data(), Index.data(), Got.data(),
                               kRows)) {
      ++Refused;
      continue;
    }
    for (size_t I = 0; I < kRows; ++I)
      if (!(std::abs(Got[I] - Want[Index[I]][I]) <= 1e-9))
        ++Mismatches;
  }
  A.join();
  B.join();

  EXPECT_EQ(WrongIndex.load(), 0u);
  EXPECT_EQ(Refused, 0u);
  EXPECT_EQ(Mismatches, 0u);
  uint32_t Unknown = static_cast<uint32_t>(G.Models.size());
  double Out = 0.0;
  EXPECT_FALSE(Kernel.executeIndexed(G.Rows.data(), &Unknown, &Out, 1));
}

} // namespace
