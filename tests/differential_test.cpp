//===- differential_test.cpp - Compiled-vs-interpreter differential suite ------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-stage analog of the paper's correctness claim (§IV: a sequence
/// of semantics-preserving lowerings): for a population of randomly
/// generated SPNs, the compiled CPU executor must reproduce the
/// SPFlow-style reference interpreter (InterpreterEngine) to within
/// 1e-9 on log-likelihoods — for joint and marginal queries, with and
/// without task partitioning. The CPU legs compute in f64 (the query
/// pins the compute type), so their bound is a genuine
/// few-ulps-of-reassociation budget, not an f32 allowance. The GPU
/// legs run the same population through the simulated-GPU executor in
/// f32 with a matching relative tolerance.
///
//===----------------------------------------------------------------------===//

#include "backend/CppBackend.h"
#include "baselines/Baselines.h"
#include "runtime/Compiler.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

using namespace spnc;
using namespace spnc::runtime;

namespace {

constexpr double kTolerance = 1e-9;
constexpr size_t kNumModels = 50;
constexpr size_t kNumSamples = 16;

/// One randomly drawn model+data scenario of the population.
struct Scenario {
  spn::Model Model;
  std::vector<double> JointData;
  std::vector<double> MarginalData;
};

/// Draws the \p Index-th random SPN of the population: speaker-shaped
/// graphs of varying size/leaf mix (reusing the seeded workload
/// generators, so the population is identical on every platform).
Scenario makeScenario(size_t Index) {
  Rng SizeRng(0x5eed5eedULL + Index);
  workloads::SpeakerModelOptions Options;
  Options.Seed = 1000 + Index;
  Options.TargetOperations =
      static_cast<unsigned>(120 + (SizeRng.next() % 600));
  Options.ContinuousFeatureFraction =
      0.3 + 0.5 * static_cast<double>(SizeRng.next() % 100) / 100.0;
  Scenario S{workloads::generateSpeakerModel(Options),
             workloads::generateSpeechData(Options, kNumSamples,
                                           9000 + Index),
             workloads::generateNoisySpeechData(Options, kNumSamples,
                                                9500 + Index,
                                                /*DropProbability=*/0.3)};
  return S;
}

/// Log-likelihoods of \p Engine over \p Data.
std::vector<double> runEngine(const ExecutionEngine &Engine,
                              const std::vector<double> &Data) {
  std::vector<double> Output(kNumSamples, 0.0);
  Engine.execute(Data.data(), Output.data(), kNumSamples);
  return Output;
}

/// Compiles \p Model for the CPU in f64 and checks its log-likelihoods
/// against the reference interpreter on \p Data.
void expectMatchesInterpreter(const Scenario &S,
                              const std::vector<double> &Data,
                              bool Marginal, uint32_t MaxPartitionSize,
                              size_t Index) {
  CompilerOptions Options;
  Options.TheTarget = Target::CPU;
  // Vary the optimization level and vector width across the population
  // so the differential net also covers the codegen design space.
  Options.OptLevel = static_cast<unsigned>(Index % 4);
  Options.Execution.VectorWidth = Index % 2 == 0 ? 8 : 1;
  Options.MaxPartitionSize = MaxPartitionSize;

  spn::QueryConfig Query;
  Query.LogSpace = true;
  Query.SupportMarginal = Marginal;
  Query.DataType = spn::ComputeType::F64;

  Expected<CompiledKernel> Kernel =
      compileModel(S.Model, Query, Options);
  ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError().message();

  baselines::InterpreterEngine Interpreter(S.Model);
  std::vector<double> Reference = runEngine(Interpreter, Data);
  std::vector<double> Compiled = runEngine(Kernel->getEngine(), Data);

  for (size_t I = 0; I < kNumSamples; ++I) {
    ASSERT_TRUE(std::isfinite(Reference[I]))
        << "model " << Index << " sample " << I
        << ": reference not finite";
    EXPECT_NEAR(Compiled[I], Reference[I], kTolerance)
        << "model " << Index << " sample " << I
        << (Marginal ? " (marginal" : " (joint")
        << (MaxPartitionSize ? ", partitioned)" : ", unpartitioned)");
  }
}

/// Partition budget that actually splits these graphs (far below the
/// generated operation counts).
uint32_t partitionBudget(const Scenario &S) {
  size_t NumNodes = S.Model.computeStats().NumNodes;
  return static_cast<uint32_t>(NumNodes / 4 + 16);
}

/// Compiles \p Model for the simulated GPU and checks it against the
/// reference interpreter on \p Data. The GPU path computes in f32 (the
/// paper's device precision), so the bound is the f32-appropriate
/// relative+absolute allowance used by gpusim_test, not the f64 ulps
/// budget of the CPU legs.
void expectGpuMatchesInterpreter(const Scenario &S,
                                 const std::vector<double> &Data,
                                 bool Marginal,
                                 uint32_t MaxPartitionSize,
                                 size_t Index) {
  CompilerOptions Options;
  Options.TheTarget = Target::GPU;
  Options.OptLevel = static_cast<unsigned>(Index % 4);
  Options.MaxPartitionSize = MaxPartitionSize;

  spn::QueryConfig Query;
  Query.LogSpace = true;
  Query.SupportMarginal = Marginal;
  Query.DataType = spn::ComputeType::F32;

  Expected<CompiledKernel> Kernel =
      compileModel(S.Model, Query, Options);
  ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError().message();

  baselines::InterpreterEngine Interpreter(S.Model);
  std::vector<double> Reference = runEngine(Interpreter, Data);
  std::vector<double> Compiled = runEngine(Kernel->getEngine(), Data);

  for (size_t I = 0; I < kNumSamples; ++I) {
    ASSERT_TRUE(std::isfinite(Reference[I]))
        << "model " << Index << " sample " << I
        << ": reference not finite";
    double Bound = std::abs(Reference[I]) * 1e-4 + 1e-4;
    EXPECT_NEAR(Compiled[I], Reference[I], Bound)
        << "gpu model " << Index << " sample " << I
        << (Marginal ? " (marginal" : " (joint")
        << (MaxPartitionSize ? ", partitioned)" : ", unpartitioned)");
  }
}

TEST(DifferentialTest, JointUnpartitioned) {
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    expectMatchesInterpreter(S, S.JointData, /*Marginal=*/false,
                             /*MaxPartitionSize=*/0, I);
  }
}

TEST(DifferentialTest, JointPartitioned) {
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    expectMatchesInterpreter(S, S.JointData, /*Marginal=*/false,
                             partitionBudget(S), I);
  }
}

TEST(DifferentialTest, MarginalUnpartitioned) {
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    expectMatchesInterpreter(S, S.MarginalData, /*Marginal=*/true,
                             /*MaxPartitionSize=*/0, I);
  }
}

TEST(DifferentialTest, MarginalPartitioned) {
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    expectMatchesInterpreter(S, S.MarginalData, /*Marginal=*/true,
                             partitionBudget(S), I);
  }
}

// The GPU legs cover both query kinds and both partitioning regimes
// across the same 50-model population without quadrupling the suite's
// runtime: joint/unpartitioned and marginal/partitioned span the two
// axes.
TEST(DifferentialTest, GpuJointUnpartitioned) {
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    expectGpuMatchesInterpreter(S, S.JointData, /*Marginal=*/false,
                                /*MaxPartitionSize=*/0, I);
  }
}

TEST(DifferentialTest, GpuMarginalPartitioned) {
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    expectGpuMatchesInterpreter(S, S.MarginalData, /*Marginal=*/true,
                                partitionBudget(S), I);
  }
}

//===----------------------------------------------------------------------===//
// MPE differential legs (docs/queries.md): every compiled path must
// reproduce the interpreter oracle's completed assignment and
// max-product log-probability. Full-evidence rows exercise the pure
// upward max pass; the NaN-bearing marginal rows exercise the argmax
// traceback that completes the latent features.
//===----------------------------------------------------------------------===//

struct MpeResult {
  std::vector<double> Assignments;
  std::vector<double> LogProbs;
};

/// executeMpe over \p Data; fails the enclosing test when the engine
/// cannot serve MPE.
MpeResult runMpe(const ExecutionEngine &Engine,
                 const std::vector<double> &Data,
                 unsigned NumFeatures) {
  MpeResult R;
  R.Assignments.resize(kNumSamples * NumFeatures, 0.0);
  R.LogProbs.resize(kNumSamples, 0.0);
  EXPECT_TRUE(Engine.executeMpe(Data.data(), R.Assignments.data(),
                                R.LogProbs.data(), kNumSamples))
      << "engine refused executeMpe: " << Engine.describe();
  return R;
}

/// Exact-match check (f64 paths): assignment and log-probability both
/// within the few-ulps kTolerance of the interpreter oracle.
void expectMpeMatchesOracle(const ExecutionEngine &Engine,
                            const Scenario &S,
                            const std::vector<double> &Data,
                            size_t Index, const char *Leg) {
  unsigned NumFeatures = S.Model.getNumFeatures();
  baselines::InterpreterEngine Oracle(S.Model);
  MpeResult Want = runMpe(Oracle, Data, NumFeatures);
  MpeResult Got = runMpe(Engine, Data, NumFeatures);
  for (size_t I = 0; I < kNumSamples; ++I) {
    ASSERT_TRUE(std::isfinite(Want.LogProbs[I]))
        << Leg << " model " << Index << " sample " << I
        << ": oracle MPE log-probability not finite";
    EXPECT_NEAR(Got.LogProbs[I], Want.LogProbs[I], kTolerance)
        << Leg << " model " << Index << " sample " << I;
    for (unsigned F = 0; F < NumFeatures; ++F)
      EXPECT_NEAR(Got.Assignments[I * NumFeatures + F],
                  Want.Assignments[I * NumFeatures + F], kTolerance)
          << Leg << " model " << Index << " sample " << I
          << " feature " << F;
  }
}

/// Compiles \p S for the CPU VM with the MPE query in f64.
CompiledKernel compileVmMpe(const Scenario &S, size_t Index) {
  CompilerOptions Options;
  Options.TheTarget = Target::CPU;
  Options.OptLevel = static_cast<unsigned>(Index % 4);
  Options.Execution.VectorWidth = Index % 2 == 0 ? 8 : 1;
  spn::QueryConfig Query;
  Query.Kind = spn::QueryKind::Mpe;
  Query.DataType = spn::ComputeType::F64;
  Expected<CompiledKernel> Kernel =
      compileModel(S.Model, Query, Options);
  EXPECT_TRUE(static_cast<bool>(Kernel))
      << "model " << Index << ": " << Kernel.getError().message();
  return Kernel ? Kernel.takeValue() : CompiledKernel();
}

TEST(DifferentialTest, MpeVmFullAndPartialEvidence) {
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    CompiledKernel Kernel = compileVmMpe(S, I);
    ASSERT_TRUE(Kernel.getEngineShared() != nullptr);
    expectMpeMatchesOracle(Kernel.getEngine(), S, S.JointData, I,
                           "vm/full");
    expectMpeMatchesOracle(Kernel.getEngine(), S, S.MarginalData, I,
                           "vm/partial");
  }
}

TEST(DifferentialTest, MpeCppBackendFullAndPartialEvidence) {
  backend::CppBackendOptions CppOptions;
  CppOptions.ExtraFlags = {"-O0"}; // one host compile per model
  backend::CppBackend Cpp(CppOptions);
  std::string SkipReason;
  if (!Cpp.isAvailable(&SkipReason))
    GTEST_SKIP() << SkipReason;
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    CompilerOptions Options;
    Options.TheTarget = Target::CPU;
    spn::QueryConfig Query;
    Query.Kind = spn::QueryKind::Mpe;
    Query.DataType = spn::ComputeType::F64;
    Expected<CompilationPipeline> Pipeline =
        CompilationPipeline::create(Options);
    ASSERT_TRUE(static_cast<bool>(Pipeline));
    Expected<backend::CompiledArtifact> Artifact =
        Cpp.compile(*Pipeline, S.Model, Query);
    ASSERT_TRUE(static_cast<bool>(Artifact))
        << "model " << I << ": " << Artifact.getError().message();
    expectMpeMatchesOracle(*Artifact->Engine, S, S.JointData, I,
                           "cpp/full");
    expectMpeMatchesOracle(*Artifact->Engine, S, S.MarginalData, I,
                           "cpp/partial");
  }
}

/// GPU leg: the simulated device computes the upward pass in f32, so a
/// near-tie may legitimately resolve to a different argmax than the f64
/// oracle. The check is therefore on quality, not identity: the
/// assignment the GPU returns must score (under the f64 oracle's
/// max-product evaluator) within the f32 allowance of the true optimum,
/// and the reported log-probability must match to the same allowance.
TEST(DifferentialTest, MpeGpuSimulatorNearOracle) {
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    unsigned NumFeatures = S.Model.getNumFeatures();
    CompilerOptions Options;
    Options.TheTarget = Target::GPU;
    spn::QueryConfig Query;
    Query.Kind = spn::QueryKind::Mpe;
    Query.DataType = spn::ComputeType::F32;
    Expected<CompiledKernel> Kernel =
        compileModel(S.Model, Query, Options);
    ASSERT_TRUE(static_cast<bool>(Kernel))
        << "model " << I << ": " << Kernel.getError().message();

    baselines::InterpreterEngine Oracle(S.Model);
    for (const std::vector<double> *Data :
         {&S.JointData, &S.MarginalData}) {
      MpeResult Want = runMpe(Oracle, *Data, NumFeatures);
      MpeResult Got = runMpe(Kernel->getEngine(), *Data, NumFeatures);
      for (size_t Smp = 0; Smp < kNumSamples; ++Smp) {
        double Bound = std::abs(Want.LogProbs[Smp]) * 1e-4 + 1e-4;
        EXPECT_NEAR(Got.LogProbs[Smp], Want.LogProbs[Smp], Bound)
            << "gpu model " << I << " sample " << Smp;
        // Score the GPU's completed assignment with the oracle: with
        // full evidence evalMpe is the max-product value of exactly
        // that assignment.
        std::vector<double> Scratch(NumFeatures);
        double GpuScore = S.Model.evalMpe(
            std::span<const double>(
                &Got.Assignments[Smp * NumFeatures], NumFeatures),
            std::span<double>(Scratch));
        EXPECT_NEAR(GpuScore, Want.LogProbs[Smp], Bound)
            << "gpu model " << I << " sample " << Smp
            << ": assignment scores off-optimum";
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Categorical evidence between categories. Category k owns the bucket
// [k, k + 1): every compiled engine floors the evidence (dense tables on
// the CPU, select ranges on the GPU) and so does the oracle. Evidence in
// (-1, 0) lies below category 0 and scores -inf; fractional evidence
// scores the category it floors to.
//===----------------------------------------------------------------------===//

/// A two-component mixture over two categorical features and a Gaussian.
spn::Model categoricalModel() {
  spn::Model M(3, "categorical");
  auto *A = M.makeProduct({M.makeCategorical(0, {0.2, 0.3, 0.5}),
                           M.makeGaussian(1, 0.0, 1.0),
                           M.makeCategorical(2, {0.6, 0.4})});
  auto *B = M.makeProduct({M.makeCategorical(0, {0.7, 0.2, 0.1}),
                           M.makeGaussian(1, 1.0, 0.5),
                           M.makeCategorical(2, {0.1, 0.9})});
  M.setRoot(M.makeSum({A, B}, {0.4, 0.6}));
  return M;
}

/// Every pairing of the listed categorical evidence values (NaN is
/// marginalized), with the Gaussian feature fixed.
std::vector<double> categoricalRows() {
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Cat0[] = {-0.5, -1e-9, -1.0, 0.0,   0.5, 1.0,
                         1.5,  2.0,   2.999, 3.0, NaN};
  const double Cat2[] = {-0.25, 0.0, 0.75, 1.0, 1.5, 2.0, NaN};
  std::vector<double> Rows;
  for (double X0 : Cat0)
    for (double X2 : Cat2)
      Rows.insert(Rows.end(), {X0, 0.3, X2});
  return Rows;
}

/// Checks \p Engine against the interpreter on \p Rows: equal within
/// the bound (relative \p RelBound plus \p AbsBound), or both -inf.
/// Returns the number of mismatching rows.
size_t countOracleMismatches(const ExecutionEngine &Engine,
                             const spn::Model &Model,
                             const std::vector<double> &Rows,
                             double RelBound, double AbsBound) {
  size_t N = Rows.size() / Model.getNumFeatures();
  std::vector<double> Want(N), Got(N);
  baselines::InterpreterEngine(Model).execute(Rows.data(), Want.data(), N);
  Engine.execute(Rows.data(), Got.data(), N);
  size_t Mismatches = 0;
  for (size_t I = 0; I < N; ++I) {
    bool Same = std::isinf(Want[I])
                    ? Got[I] == Want[I]
                    : std::abs(Got[I] - Want[I]) <=
                          std::abs(Want[I]) * RelBound + AbsBound;
    if (!Same)
      ADD_FAILURE() << "row " << I << ": compiled " << Got[I]
                    << ", oracle " << Want[I];
    Mismatches += !Same;
  }
  return Mismatches;
}

spn::QueryConfig marginalQuery(spn::ComputeType Type) {
  spn::QueryConfig Query;
  Query.Kind = spn::QueryKind::Marginal;
  Query.SupportMarginal = true;
  Query.DataType = Type;
  return Query;
}

TEST(DifferentialTest, CategoricalEvidenceBetweenCategoriesVm) {
  spn::Model Model = categoricalModel();
  std::vector<double> Rows = categoricalRows();
  for (unsigned Width : {1u, 8u})
    for (unsigned OptLevel : {0u, 2u}) {
      CompilerOptions Options;
      Options.Execution.VectorWidth = Width;
      Options.OptLevel = OptLevel;
      Expected<CompiledKernel> Kernel = compileModel(
          Model, marginalQuery(spn::ComputeType::F64), Options);
      ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError().message();
      EXPECT_EQ(countOracleMismatches(Kernel->getEngine(), Model, Rows, 0,
                                      kTolerance),
                0u)
          << "w=" << Width << " -O" << OptLevel;
    }
}

TEST(DifferentialTest, CategoricalEvidenceBetweenCategoriesCpp) {
  backend::CppBackendOptions CppOptions;
  CppOptions.ExtraFlags = {"-O0"};
  backend::CppBackend Cpp(CppOptions);
  std::string SkipReason;
  if (!Cpp.isAvailable(&SkipReason))
    GTEST_SKIP() << SkipReason;
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  spn::Model Model = categoricalModel();
  Expected<backend::CompiledArtifact> Artifact = Cpp.compile(
      *Pipeline, Model, marginalQuery(spn::ComputeType::F64));
  ASSERT_TRUE(static_cast<bool>(Artifact))
      << Artifact.getError().message();
  EXPECT_EQ(countOracleMismatches(*Artifact->Engine, Model,
                                  categoricalRows(), 0, kTolerance),
            0u);
}

TEST(DifferentialTest, CategoricalEvidenceBetweenCategoriesGpu) {
  CompilerOptions Options;
  Options.TheTarget = Target::GPU;
  spn::Model Model = categoricalModel();
  Expected<CompiledKernel> Kernel =
      compileModel(Model, marginalQuery(spn::ComputeType::F32), Options);
  ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError().message();
  EXPECT_EQ(countOracleMismatches(Kernel->getEngine(), Model,
                                  categoricalRows(), 1e-4, 1e-4),
            0u);
}

/// Speaker identification scores every frame with every speaker's model,
/// so a model sees discrete evidence its own speaker never produces.
TEST(DifferentialTest, CategoricalEvidenceOfAnotherSpeaker) {
  workloads::SpeakerModelOptions ModelOptions, FrameOptions;
  ModelOptions.Seed = 1;
  FrameOptions.Seed = 3;
  spn::Model Model = workloads::generateSpeakerModel(ModelOptions);
  std::vector<double> Frames =
      workloads::generateNoisySpeechData(FrameOptions, 256, 3);
  for (unsigned OptLevel : {0u, 2u}) {
    CompilerOptions Options;
    Options.OptLevel = OptLevel;
    Expected<CompiledKernel> Kernel = compileModel(
        Model, marginalQuery(spn::ComputeType::F64), Options);
    ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError().message();
    EXPECT_EQ(countOracleMismatches(Kernel->getEngine(), Model, Frames, 0,
                                    kTolerance),
              0u)
        << "-O" << OptLevel;
  }
}

/// The interpreter itself must agree with the model's reference
/// evaluator — anchors the differential chain to the ground truth.
TEST(DifferentialTest, InterpreterMatchesReferenceEvaluator) {
  Scenario S = makeScenario(0);
  baselines::InterpreterEngine Interpreter(S.Model);
  std::vector<double> Output = runEngine(Interpreter, S.JointData);
  unsigned NumFeatures = S.Model.getNumFeatures();
  for (size_t I = 0; I < kNumSamples; ++I) {
    double Reference = S.Model.evalLogLikelihood(std::span<const double>(
        &S.JointData[I * NumFeatures], NumFeatures));
    EXPECT_NEAR(Output[I], Reference, kTolerance) << "sample " << I;
  }
}

} // namespace
