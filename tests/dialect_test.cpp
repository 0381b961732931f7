//===- dialect_test.cpp - HiSPN and LoSPN dialect tests -------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the op inventories of paper Tables I and II, per-op verifiers,
/// folding and canonicalization semantics of the two SPN dialects.
///
//===----------------------------------------------------------------------===//

#include "dialects/hispn/HiSPNOps.h"
#include "dialects/lospn/LoSPNOps.h"
#include "ir/Transforms.h"
#include "ir/Verifier.h"
#include "support/RawOStream.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace spnc;
using namespace spnc::ir;

namespace {

class DialectTest : public ::testing::Test {
protected:
  void SetUp() override {
    hispn::registerHiSPNDialect(Ctx);
    lospn::registerLoSPNDialect(Ctx);
    Ctx.setDiagnosticHandler([this](const std::string &Message) {
      LastError = Message;
      ++NumErrors;
    });
    Module = ModuleOp::create(Ctx);
    Builder = std::make_unique<OpBuilder>(
        OpBuilder::atBlockEnd(Ctx, &Module.get().getBody()));
  }

  Context Ctx;
  OwningOpRef<ModuleOp> Module;
  std::unique_ptr<OpBuilder> Builder;
  std::string LastError;
  unsigned NumErrors = 0;
};

//===----------------------------------------------------------------------===//
// Dialect registration (Tables I and II)
//===----------------------------------------------------------------------===//

TEST_F(DialectTest, TableIOperationsAreRegistered) {
  for (const char *Name :
       {"hi_spn.joint_query", "hi_spn.graph", "hi_spn.root",
        "hi_spn.product", "hi_spn.sum", "hi_spn.histogram",
        "hi_spn.categorical", "hi_spn.gaussian"})
    EXPECT_NE(Ctx.lookupOpInfo(Name), nullptr) << Name;
}

TEST_F(DialectTest, TableIIOperationsAreRegistered) {
  for (const char *Name :
       {"lo_spn.kernel", "lo_spn.task", "lo_spn.body",
        "lo_spn.batch_extract", "lo_spn.batch_read",
        "lo_spn.batch_collect", "lo_spn.batch_write", "lo_spn.mul",
        "lo_spn.add", "lo_spn.histogram", "lo_spn.categorical",
        "lo_spn.gaussian", "lo_spn.constant", "lo_spn.yield",
        "lo_spn.return", "lo_spn.alloc", "lo_spn.dealloc",
        "lo_spn.copy"})
    EXPECT_NE(Ctx.lookupOpInfo(Name), nullptr) << Name;
}

TEST_F(DialectTest, DialectTypesPrint) {
  auto ToString = [](Type T) {
    std::string S;
    StringOStream OS(S);
    T.print(OS);
    return S;
  };
  EXPECT_EQ(ToString(hispn::ProbType::get(Ctx)), "!hi_spn.prob");
  EXPECT_EQ(ToString(lospn::LogType::get(Ctx, FloatType::getF32(Ctx))),
            "!lo_spn.log<f32>");
  EXPECT_EQ(lospn::getStorageType(
                lospn::LogType::get(Ctx, FloatType::getF32(Ctx))),
            Type(FloatType::getF32(Ctx)));
}

//===----------------------------------------------------------------------===//
// HiSPN op semantics
//===----------------------------------------------------------------------===//

TEST_F(DialectTest, SumOpVerifiesWeightCount) {
  auto Graph = Builder->create<hispn::GraphOp>(1u);
  Block &Body = Graph->getRegion(0).emplaceBlock();
  Body.addArgument(FloatType::getF64(Ctx));
  OpBuilder B = OpBuilder::atBlockBegin(Ctx, &Body);
  auto Leaf = B.create<hispn::GaussianOp>(Body.getArgument(0), 0.0, 1.0);
  Value Operands[1] = {Leaf->getResult(0)};
  auto Sum = B.create<hispn::SumOp>(std::span<const Value>(Operands),
                                    std::vector<double>{0.5, 0.5});
  EXPECT_TRUE(failed(hispn::SumOp(Sum.getOperation()).verify()));
  EXPECT_NE(LastError.find("weight count"), std::string::npos);
}

TEST_F(DialectTest, SumOpRejectsNegativeWeights) {
  auto Graph = Builder->create<hispn::GraphOp>(1u);
  Block &Body = Graph->getRegion(0).emplaceBlock();
  Body.addArgument(FloatType::getF64(Ctx));
  OpBuilder B = OpBuilder::atBlockBegin(Ctx, &Body);
  auto Leaf = B.create<hispn::GaussianOp>(Body.getArgument(0), 0.0, 1.0);
  Value Operands[1] = {Leaf->getResult(0)};
  auto Sum = B.create<hispn::SumOp>(std::span<const Value>(Operands),
                                    std::vector<double>{-1.0});
  EXPECT_TRUE(failed(hispn::SumOp(Sum.getOperation()).verify()));
}

TEST_F(DialectTest, GaussianRejectsNonPositiveStdDev) {
  auto Graph = Builder->create<hispn::GraphOp>(1u);
  Block &Body = Graph->getRegion(0).emplaceBlock();
  Body.addArgument(FloatType::getF64(Ctx));
  OpBuilder B = OpBuilder::atBlockBegin(Ctx, &Body);
  auto Leaf = B.create<hispn::GaussianOp>(Body.getArgument(0), 0.0, 0.0);
  EXPECT_TRUE(failed(hispn::GaussianOp(Leaf.getOperation()).verify()));
}

TEST_F(DialectTest, HistogramVerifiesBuckets) {
  auto Graph = Builder->create<hispn::GraphOp>(1u);
  Block &Body = Graph->getRegion(0).emplaceBlock();
  Body.addArgument(FloatType::getF64(Ctx));
  OpBuilder B = OpBuilder::atBlockBegin(Ctx, &Body);
  // lb >= ub is invalid.
  auto Leaf = B.create<hispn::HistogramOp>(
      Body.getArgument(0), std::vector<double>{1.0, 1.0, 0.5});
  EXPECT_TRUE(failed(hispn::HistogramOp(Leaf.getOperation()).verify()));
}

TEST_F(DialectTest, SingleInputProductCollapses) {
  auto Graph = Builder->create<hispn::GraphOp>(1u);
  Block &Body = Graph->getRegion(0).emplaceBlock();
  Body.addArgument(FloatType::getF64(Ctx));
  OpBuilder B = OpBuilder::atBlockBegin(Ctx, &Body);
  auto Leaf = B.create<hispn::GaussianOp>(Body.getArgument(0), 0.0, 1.0);
  Value Operands[1] = {Leaf->getResult(0)};
  auto Product =
      B.create<hispn::ProductOp>(std::span<const Value>(Operands));
  B.create<hispn::RootOp>(Product->getResult(0));

  ASSERT_TRUE(succeeded(runCanonicalizer(Module.get().getOperation())));
  // The root now directly uses the leaf; the product is gone.
  Operation *Root = Body.getTerminator();
  ASSERT_NE(Root, nullptr);
  EXPECT_EQ(Root->getOperand(0).getDefiningOp(), Leaf.getOperation());
}

TEST_F(DialectTest, NestedProductsFlatten) {
  auto Graph = Builder->create<hispn::GraphOp>(3u);
  Block &Body = Graph->getRegion(0).emplaceBlock();
  for (int I = 0; I < 3; ++I)
    Body.addArgument(FloatType::getF64(Ctx));
  OpBuilder B = OpBuilder::atBlockBegin(Ctx, &Body);
  Value L0 = B.create<hispn::GaussianOp>(Body.getArgument(0), 0.0, 1.0)
                 ->getResult(0);
  Value L1 = B.create<hispn::GaussianOp>(Body.getArgument(1), 0.0, 1.0)
                 ->getResult(0);
  Value L2 = B.create<hispn::GaussianOp>(Body.getArgument(2), 0.0, 1.0)
                 ->getResult(0);
  Value InnerOps[2] = {L0, L1};
  Value Inner =
      B.create<hispn::ProductOp>(std::span<const Value>(InnerOps))
          ->getResult(0);
  Value OuterOps[2] = {Inner, L2};
  Value Outer =
      B.create<hispn::ProductOp>(std::span<const Value>(OuterOps))
          ->getResult(0);
  B.create<hispn::RootOp>(Outer);

  ASSERT_TRUE(succeeded(runCanonicalizer(Module.get().getOperation())));
  Operation *Root = Body.getTerminator();
  Operation *Flat = Root->getOperand(0).getDefiningOp();
  ASSERT_TRUE(isa_op<hispn::ProductOp>(Flat));
  EXPECT_EQ(Flat->getNumOperands(), 3u);
}

//===----------------------------------------------------------------------===//
// LoSPN op semantics
//===----------------------------------------------------------------------===//

TEST_F(DialectTest, LoSPNReferenceSemantics) {
  // logSumExp against the naive formula.
  EXPECT_NEAR(lospn::logSumExp(std::log(0.3), std::log(0.4)),
              std::log(0.7), 1e-12);
  // Identity elements.
  double NegInf = -std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(lospn::logSumExp(NegInf, -1.5), -1.5);
  EXPECT_DOUBLE_EQ(lospn::logSumExp(-1.5, NegInf), -1.5);
  EXPECT_DOUBLE_EQ(lospn::logSumExp(NegInf, NegInf), NegInf);
  // Histogram and categorical evaluation.
  double Buckets[6] = {0, 2, 0.25, 2, 4, 0.75};
  EXPECT_DOUBLE_EQ(lospn::evalHistogram(Buckets, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(lospn::evalHistogram(Buckets, 2.0), 0.75);
  EXPECT_DOUBLE_EQ(lospn::evalHistogram(Buckets, 9.0), 0.0);
  double Probs[3] = {0.1, 0.2, 0.7};
  EXPECT_DOUBLE_EQ(lospn::evalCategorical(Probs, 2.0), 0.7);
  EXPECT_DOUBLE_EQ(lospn::evalCategorical(Probs, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(lospn::evalCategorical(Probs, 5.0), 0.0);
  // Evidence floors into its bucket [k, k + 1), as in compiled kernels.
  EXPECT_DOUBLE_EQ(lospn::evalCategorical(Probs, -0.5), 0.0);
  EXPECT_DOUBLE_EQ(lospn::evalCategorical(Probs, 1.5), Probs[1]);
  // Gaussian pdf at the mean and consistency of log/linear variants.
  EXPECT_NEAR(lospn::evalGaussianPdf(0.0, 1.0, 0.0),
              0.3989422804014327, 1e-12);
  EXPECT_NEAR(lospn::evalGaussianLogPdf(1.0, 2.0, 0.5),
              std::log(lospn::evalGaussianPdf(1.0, 2.0, 0.5)), 1e-12);
}

TEST_F(DialectTest, LinearArithmeticFolds) {
  Type F64 = FloatType::getF64(Ctx);
  auto Body = Builder->create<lospn::BodyOp>(
      std::span<const Value>{}, std::span<const Type>(&F64, 1));
  Block &Inner = Body->getRegion(0).emplaceBlock();
  OpBuilder B = OpBuilder::atBlockEnd(Ctx, &Inner);
  Value C1 = B.create<lospn::ConstantOp>(0.25, F64)->getResult(0);
  Value C2 = B.create<lospn::ConstantOp>(0.5, F64)->getResult(0);
  auto Mul = B.create<lospn::MulOp>(C1, C2);

  std::vector<Attribute> Constants{FloatAttr::get(Ctx, 0.25),
                                   FloatAttr::get(Ctx, 0.5)};
  Attribute Folded =
      lospn::MulOp(Mul.getOperation()).fold(Constants);
  ASSERT_TRUE(static_cast<bool>(Folded));
  EXPECT_DOUBLE_EQ(Folded.cast<FloatAttr>().getValue(), 0.125);

  auto Add = B.create<lospn::AddOp>(C1, C2);
  Folded = lospn::AddOp(Add.getOperation()).fold(Constants);
  ASSERT_TRUE(static_cast<bool>(Folded));
  EXPECT_DOUBLE_EQ(Folded.cast<FloatAttr>().getValue(), 0.75);
}

TEST_F(DialectTest, LogSpaceArithmeticFolds) {
  Type LogF64 = lospn::LogType::get(Ctx, FloatType::getF64(Ctx));
  auto Body = Builder->create<lospn::BodyOp>(
      std::span<const Value>{}, std::span<const Type>(&LogF64, 1));
  Block &Inner = Body->getRegion(0).emplaceBlock();
  OpBuilder B = OpBuilder::atBlockEnd(Ctx, &Inner);
  double La = std::log(0.25), Lb = std::log(0.5);
  Value C1 = B.create<lospn::ConstantOp>(La, LogF64)->getResult(0);
  Value C2 = B.create<lospn::ConstantOp>(Lb, LogF64)->getResult(0);
  std::vector<Attribute> Constants{FloatAttr::get(Ctx, La),
                                   FloatAttr::get(Ctx, Lb)};

  // Log-space mul is addition of logs.
  auto Mul = B.create<lospn::MulOp>(C1, C2);
  Attribute Folded = lospn::MulOp(Mul.getOperation()).fold(Constants);
  ASSERT_TRUE(static_cast<bool>(Folded));
  EXPECT_NEAR(Folded.cast<FloatAttr>().getValue(), std::log(0.125),
              1e-12);

  // Log-space add is logsumexp.
  auto Add = B.create<lospn::AddOp>(C1, C2);
  Folded = lospn::AddOp(Add.getOperation()).fold(Constants);
  ASSERT_TRUE(static_cast<bool>(Folded));
  EXPECT_NEAR(Folded.cast<FloatAttr>().getValue(), std::log(0.75),
              1e-12);
}

TEST_F(DialectTest, MulIdentityCanonicalizes) {
  // Full kernel/task/body structure so the side-effecting batch_write
  // keeps the computation alive through DCE; the mul's non-constant
  // operand is the batch-read evidence.
  Type F64 = FloatType::getF64(Ctx);
  auto Kernel = Builder->create<lospn::KernelOp>("k", 1u);
  Block &KBody = Kernel->getRegion(0).emplaceBlock();
  Value In = KBody.addArgument(
      MemRefType::get(Ctx, {TypeStorage::kDynamic, 1}, F64));
  Value Out = KBody.addArgument(
      MemRefType::get(Ctx, {1, TypeStorage::kDynamic}, F64));
  OpBuilder KB = OpBuilder::atBlockEnd(Ctx, &KBody);
  Value TaskOperands[2] = {In, Out};
  auto Task = KB.create<lospn::TaskOp>(
      std::span<const Value>(TaskOperands), std::span<const Type>{}, 8u,
      1u);
  KB.create<lospn::ReturnOp>(std::span<const Value>{});
  Block &TBody = Task->getRegion(0).emplaceBlock();
  Value Index = TBody.addArgument(IndexType::get(Ctx));
  Value InArg = TBody.addArgument(In.getType());
  Value OutArg = TBody.addArgument(Out.getType());
  OpBuilder TB = OpBuilder::atBlockEnd(Ctx, &TBody);
  Value X =
      TB.create<lospn::BatchReadOp>(InArg, Index, 0u, false)->getResult(0);
  Value BodyOperands[1] = {X};
  Type BodyResults[1] = {F64};
  auto Body = TB.create<lospn::BodyOp>(
      std::span<const Value>(BodyOperands),
      std::span<const Type>(BodyResults));
  Block &Inner = Body->getRegion(0).emplaceBlock();
  Value XArg = Inner.addArgument(F64);
  OpBuilder B = OpBuilder::atBlockEnd(Ctx, &Inner);
  Value One = B.create<lospn::ConstantOp>(1.0, F64)->getResult(0);
  Value Product = B.create<lospn::MulOp>(XArg, One)->getResult(0);
  Value Yielded[1] = {Product};
  B.create<lospn::YieldOp>(std::span<const Value>(Yielded));
  Value Written[1] = {Body->getResult(0)};
  TB.create<lospn::BatchWriteOp>(OutArg, Index,
                                 std::span<const Value>(Written), true);

  ASSERT_TRUE(succeeded(ir::verify(Module.get().getOperation())));
  ASSERT_TRUE(succeeded(runCanonicalizer(Module.get().getOperation())));
  // mul(x, 1) collapsed to x: yield now uses the block argument.
  Operation *Yield = Inner.getTerminator();
  ASSERT_NE(Yield, nullptr);
  EXPECT_EQ(Yield->getOperand(0), XArg);
  for (Operation *Op : Inner)
    EXPECT_FALSE(isa_op<lospn::MulOp>(Op));
}

TEST_F(DialectTest, TaskVerifierChecksBodyArguments) {
  auto Kernel = Builder->create<lospn::KernelOp>("k", 1u);
  Block &KBody = Kernel->getRegion(0).emplaceBlock();
  Value In = KBody.addArgument(TensorType::get(
      Ctx, {TypeStorage::kDynamic, 2}, FloatType::getF64(Ctx)));
  OpBuilder B = OpBuilder::atBlockEnd(Ctx, &KBody);
  Type ResultTy = TensorType::get(Ctx, {1, TypeStorage::kDynamic},
                                  FloatType::getF64(Ctx));
  Value Operands[1] = {In};
  Type Results[1] = {ResultTy};
  auto Task = B.create<lospn::TaskOp>(std::span<const Value>(Operands),
                                      std::span<const Type>(Results), 64u,
                                      1u);
  Task->getRegion(0).emplaceBlock(); // No batch-index argument: invalid.
  EXPECT_TRUE(failed(lospn::TaskOp(Task.getOperation()).verify()));
}

TEST_F(DialectTest, KernelRequiresReturnTerminator) {
  auto Kernel = Builder->create<lospn::KernelOp>("k", 0u);
  Kernel->getRegion(0).emplaceBlock();
  EXPECT_TRUE(failed(lospn::KernelOp(Kernel.getOperation()).verify()));
  EXPECT_NE(LastError.find("lo_spn.return"), std::string::npos);
}

} // namespace
