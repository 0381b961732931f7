//===- EM.cpp - Expectation-maximization parameter learning ---------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "learn/EM.h"

#include "dialects/lospn/LoSPNOps.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

using namespace spnc;
using namespace spnc::learn;
using namespace spnc::spn;

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Per-node sufficient statistics of one EM iteration.
struct Statistics {
  /// Per sum node: expected counts per child edge.
  std::unordered_map<const SumNode *, std::vector<double>> EdgeCounts;
  /// Per Gaussian leaf: responsibility-weighted moments.
  struct Moments {
    double SumR = 0, SumRX = 0, SumRXX = 0;
  };
  std::unordered_map<const GaussianLeaf *, Moments> GaussianMoments;
  /// Per histogram/categorical leaf: responsibility mass per bucket /
  /// category.
  std::unordered_map<const LeafNode *, std::vector<double>> BinCounts;
};

class EmEngine {
public:
  EmEngine(Model &TheModel, const EmOptions &Options)
      : TheModel(TheModel), Options(Options),
        Order(TheModel.topologicalOrder()) {
    for (size_t I = 0; I < Order.size(); ++I)
      PositionOf[Order[I]] = I;
  }

  EmResult run(const double *Data, size_t NumSamples) {
    EmResult Result;
    for (unsigned Iteration = 0; Iteration < Options.Iterations;
         ++Iteration) {
      Statistics Stats;
      initStatistics(Stats);
      double TotalLogLikelihood = 0;
      for (size_t S = 0; S < NumSamples; ++S)
        TotalLogLikelihood += accumulateSample(
            Stats, Data + S * TheModel.getNumFeatures());
      Result.LogLikelihoodPerIteration.push_back(
          TotalLogLikelihood / static_cast<double>(NumSamples));
      maximize(Stats);
    }
    return Result;
  }

private:
  void initStatistics(Statistics &Stats) {
    for (Node *Current : Order) {
      if (const auto *Sum = dyn_cast<SumNode>(Current))
        Stats.EdgeCounts[Sum].assign(Sum->getNumChildren(),
                                     Options.WeightSmoothing);
      else if (const auto *Hist = dyn_cast<HistogramLeaf>(Current))
        Stats.BinCounts[Hist].assign(Hist->getBuckets().size(),
                                     Options.WeightSmoothing);
      else if (const auto *Cat = dyn_cast<CategoricalLeaf>(Current))
        Stats.BinCounts[Cat].assign(Cat->getProbabilities().size(),
                                    Options.WeightSmoothing);
    }
  }

  /// Upward pass (log-likelihoods), downward pass (responsibilities),
  /// statistic accumulation for one sample. Returns the sample's root
  /// log-likelihood.
  double accumulateSample(Statistics &Stats, const double *Sample) {
    // Upward pass in log-space.
    LogValues.assign(Order.size(), 0.0);
    for (size_t I = 0; I < Order.size(); ++I) {
      const Node *Current = Order[I];
      double LogValue = 0.0;
      switch (Current->getKind()) {
      case NodeKind::Sum: {
        const auto *Sum = cast<SumNode>(Current);
        LogValue = kNegInf;
        for (size_t C = 0; C < Sum->getNumChildren(); ++C) {
          double W = Sum->getWeights()[C];
          if (W <= 0.0)
            continue;
          LogValue = lospn::logSumExp(
              LogValue,
              std::log(W) + LogValues[PositionOf[Sum->getChild(C)]]);
        }
        break;
      }
      case NodeKind::Product: {
        for (const Node *Child : cast<ProductNode>(Current)->getChildren())
          LogValue += LogValues[PositionOf[Child]];
        break;
      }
      case NodeKind::Histogram: {
        const auto *Leaf = cast<HistogramLeaf>(Current);
        double X = Sample[Leaf->getFeatureIndex()];
        LogValue = kNegInf;
        if (std::isnan(X)) {
          LogValue = 0.0;
          break;
        }
        for (const HistogramBucket &Bucket : Leaf->getBuckets())
          if (X >= Bucket.Lb && X < Bucket.Ub) {
            LogValue = std::log(Bucket.P);
            break;
          }
        break;
      }
      case NodeKind::Categorical: {
        const auto *Leaf = cast<CategoricalLeaf>(Current);
        double X = Sample[Leaf->getFeatureIndex()];
        if (std::isnan(X)) {
          LogValue = 0.0;
          break;
        }
        LogValue =
            std::log(lospn::evalCategorical(Leaf->getProbabilities(), X));
        break;
      }
      case NodeKind::Gaussian: {
        const auto *Leaf = cast<GaussianLeaf>(Current);
        double X = Sample[Leaf->getFeatureIndex()];
        if (std::isnan(X)) {
          LogValue = 0.0;
          break;
        }
        LogValue = lospn::evalGaussianLogPdf(Leaf->getMean(),
                                             Leaf->getStdDev(), X);
        break;
      }
      }
      LogValues[I] = LogValue;
    }
    double RootLL = LogValues[PositionOf[TheModel.getRoot()]];
    if (RootLL == kNegInf)
      return RootLL; // Zero-probability sample contributes no counts.

    // Downward pass: responsibility R_n = sum over parents of the
    // parent's responsibility times the share this child contributes.
    Responsibility.assign(Order.size(), 0.0);
    Responsibility[PositionOf[TheModel.getRoot()]] = 1.0;
    for (size_t I = Order.size(); I-- > 0;) {
      const Node *Current = Order[I];
      double R = Responsibility[I];
      if (R <= 0.0)
        continue;
      if (const auto *Sum = dyn_cast<SumNode>(Current)) {
        double LogS = LogValues[I];
        std::vector<double> &Counts = Stats.EdgeCounts[Sum];
        for (size_t C = 0; C < Sum->getNumChildren(); ++C) {
          double W = Sum->getWeights()[C];
          if (W <= 0.0)
            continue;
          double LogChild = LogValues[PositionOf[Sum->getChild(C)]];
          if (LogChild == kNegInf)
            continue;
          // Posterior share of child C in this mixture.
          double Share = std::exp(std::log(W) + LogChild - LogS);
          double Contribution = R * Share;
          Counts[C] += Contribution;
          Responsibility[PositionOf[Sum->getChild(C)]] += Contribution;
        }
      } else if (const auto *Product = dyn_cast<ProductNode>(Current)) {
        for (const Node *Child : Product->getChildren())
          Responsibility[PositionOf[Child]] += R;
      }
    }

    // Leaf statistics.
    if (Options.UpdateLeaves) {
      for (size_t I = 0; I < Order.size(); ++I) {
        const Node *Current = Order[I];
        double R = Responsibility[I];
        if (R <= 0.0 || !Current->isLeaf())
          continue;
        const auto *Leaf = cast<LeafNode>(Current);
        double X = Sample[Leaf->getFeatureIndex()];
        if (std::isnan(X))
          continue; // Marginalized evidence carries no information.
        if (const auto *Gauss = dyn_cast<GaussianLeaf>(Leaf)) {
          Statistics::Moments &M = Stats.GaussianMoments[Gauss];
          M.SumR += R;
          M.SumRX += R * X;
          M.SumRXX += R * X * X;
        } else if (const auto *Hist = dyn_cast<HistogramLeaf>(Leaf)) {
          const std::vector<HistogramBucket> &Buckets =
              Hist->getBuckets();
          for (size_t B = 0; B < Buckets.size(); ++B)
            if (X >= Buckets[B].Lb && X < Buckets[B].Ub) {
              Stats.BinCounts[Hist][B] += R;
              break;
            }
        } else if (const auto *Cat = dyn_cast<CategoricalLeaf>(Leaf)) {
          auto Index = static_cast<long long>(std::floor(X));
          if (Index >= 0 &&
              static_cast<size_t>(Index) <
                  Cat->getProbabilities().size())
            Stats.BinCounts[Cat][static_cast<size_t>(Index)] += R;
        }
      }
    }
    return RootLL;
  }

  /// M-step: normalized counts become the new parameters.
  void maximize(const Statistics &Stats) {
    for (Node *Current : Order) {
      if (auto *Sum = dyn_cast<SumNode>(Current)) {
        const std::vector<double> &Counts = Stats.EdgeCounts.at(Sum);
        double Total = 0;
        for (double Count : Counts)
          Total += Count;
        if (Total <= 0)
          continue;
        std::vector<double> Weights(Counts.size());
        for (size_t C = 0; C < Counts.size(); ++C)
          Weights[C] = Counts[C] / Total;
        Sum->setWeights(std::move(Weights));
        continue;
      }
      if (!Options.UpdateLeaves)
        continue;
      if (auto *Gauss = dyn_cast<GaussianLeaf>(Current)) {
        auto It = Stats.GaussianMoments.find(Gauss);
        if (It == Stats.GaussianMoments.end() || It->second.SumR <= 1e-9)
          continue;
        const Statistics::Moments &M = It->second;
        double Mean = M.SumRX / M.SumR;
        double Var = std::max(0.0, M.SumRXX / M.SumR - Mean * Mean);
        Gauss->setParameters(
            Mean, std::max(Options.MinStdDev, std::sqrt(Var)));
        continue;
      }
      if (auto *Hist = dyn_cast<HistogramLeaf>(Current)) {
        const std::vector<double> &Counts = Stats.BinCounts.at(Hist);
        double Total = 0;
        for (double Count : Counts)
          Total += Count;
        if (Total <= 0)
          continue;
        std::vector<double> P(Counts.size());
        for (size_t B = 0; B < Counts.size(); ++B)
          P[B] = Counts[B] / Total;
        Hist->setBucketProbabilities(P);
        continue;
      }
      if (auto *Cat = dyn_cast<CategoricalLeaf>(Current)) {
        const std::vector<double> &Counts = Stats.BinCounts.at(Cat);
        double Total = 0;
        for (double Count : Counts)
          Total += Count;
        if (Total <= 0)
          continue;
        std::vector<double> P(Counts.size());
        for (size_t B = 0; B < Counts.size(); ++B)
          P[B] = Counts[B] / Total;
        Cat->setProbabilities(std::move(P));
      }
    }
  }

  Model &TheModel;
  const EmOptions &Options;
  std::vector<Node *> Order;
  std::unordered_map<const Node *, size_t> PositionOf;
  std::vector<double> LogValues;
  std::vector<double> Responsibility;
};

} // namespace

EmResult spnc::learn::fitParameters(Model &TheModel, const double *Data,
                                    size_t NumSamples,
                                    const EmOptions &Options) {
  assert(TheModel.getRoot() && "model must have a root");
  EmEngine Engine(TheModel, Options);
  return Engine.run(Data, NumSamples);
}
