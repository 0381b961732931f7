//===- Serving.cpp - Open- and closed-loop traffic through the server ---------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Serving.h"

#include "frontend/Serializer.h"

#include <algorithm>
#include <limits>
#include <sys/prctl.h>
#include <thread>

using namespace spnc;
using namespace perfbench;

std::unique_ptr<Deployment>
perfbench::deploy(const ModelSet &Set, const serving::ServerConfig &Config,
                  Tracer &T, Check &Chk) {
  Scoped Setup(T, "setup");
  auto D = std::make_unique<Deployment>();
  for (const std::vector<uint8_t> &Blob : Set.Blobs) {
    Scoped S(T, "frontend.deserializeModel");
    Chk.attempt();
    Expected<spn::Model> Model = spn::deserializeModel(Blob);
    if (!Model) {
      Chk.fail("deserializeModel: " + Model.getError().message());
      return nullptr;
    }
    D->Models.push_back(Model.takeValue());
  }
  D->Cache = std::make_unique<runtime::KernelCache>();
  {
    Scoped S(T, "serving.InferenceServer");
    D->Server =
        std::make_unique<serving::InferenceServer>(Config, D->Cache.get());
  }
  for (size_t M = 0; M < D->Models.size(); ++M) {
    D->Names.push_back("model" + std::to_string(M));
    Scoped S(T, "serving.addModel");
    Chk.attempt();
    if (std::optional<Error> Err =
            D->Server->addModel(D->Names[M], D->Models[M], Set.Query,
                                defaultCompilerOptions())) {
      Chk.fail("addModel: " + Err->message());
      return nullptr;
    }
  }
  return D;
}

void perfbench::resolveComputeTypes(Deployment &D, const ModelSet &Set,
                                    Check &Chk) {
  bool Merged = D.Server->getConfig().MergeModels;
  for (const spn::Model &Model : D.Models) {
    Expected<runtime::CompiledKernel> Kernel =
        Merged ? [&]() -> Expected<runtime::CompiledKernel> {
          Expected<runtime::KernelCache::MergedKernel> M =
              D.Cache->getOrCompileMerged(Model, Set.Query,
                                          defaultCompilerOptions());
          if (!M)
            return M.getError();
          return M->Kernel;
        }()
               : D.Cache->getOrCompile(Model, Set.Query,
                                       defaultCompilerOptions());
    if (!Kernel) {
      Chk.incorrect("kernel lookup after set-up failed: " +
                    Kernel.getError().message());
      D.F32.push_back(true);
      continue;
    }
    D.F32.push_back(Kernel->getProgram().UseF32);
  }
}

namespace {

using serving::InferenceResult;
using serving::RequestStatus;
using serving::ResultFuture;

uint64_t nsBetween(Clock::time_point From, Clock::time_point To) {
  return To > From ? static_cast<uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             To - From)
                             .count())
                   : 0;
}

/// Checks results in request order and tracks per-group completion.
class ResultChecker {
public:
  ResultChecker(const Deployment &D, const ServingTraffic &Traffic,
                PhaseResult &Phase, Check &Chk)
      : D(D), Traffic(Traffic), Phase(Phase), Chk(Chk),
        NumModels(Traffic.Set->Models.size()), Scores(NumModels) {}

  size_t modelOf(uint64_t Request) const { return Request % NumModels; }
  size_t inputOf(uint64_t Request) const {
    return Traffic.Order[(Request / NumModels) % Traffic.Order.size()];
  }

  /// \p Request is the phase-local index; results arrive in order.
  void take(uint64_t Request, const InferenceResult &Result,
            uint64_t DueToSubmitNs) {
    size_t Model = modelOf(Request), Input = inputOf(Request);
    Chk.attempt();
    ++Phase.ByStatus[static_cast<size_t>(Result.Status)];
    bool Ok = Result.Status == RequestStatus::Ok &&
              Result.LogLikelihoods.size() == 1;
    if (!Ok) {
      Chk.fail(std::string("request ") +
               serving::requestStatusName(Result.Status) + ": " +
               Result.Message);
    } else {
      double Ref = Traffic.Set->Oracle[Model][Input];
      double Got = Result.LogLikelihoods[0];
      if (!withinOracleBound(Got, Ref, D.F32[Model])) {
        Chk.fail("model " + std::to_string(Model) + " input " +
                 std::to_string(Input) + ": " + formatNumber(Got) +
                 " vs oracle " + formatNumber(Ref));
        Ok = false;
      }
    }
    Phase.LatencyNs.push_back(Ok ? DueToSubmitNs + Result.LatencyNs
                                 : std::numeric_limits<uint64_t>::max());
    if (Ok) {
      ++Phase.OkRequests;
      ++GroupOk;
      Scores[Model] = Result.LogLikelihoods[0];
    }
    if (Model + 1 < NumModels)
      return;
    if (GroupOk == NumModels) {
      size_t Best = std::max_element(Scores.begin(), Scores.end()) -
                    Scores.begin();
      size_t OracleBest = Traffic.Set->OracleArgmax[Input];
      if (!argmaxConsistent(Best, OracleBest,
                            Traffic.Set->Oracle[Best][Input],
                            Traffic.Set->Oracle[OracleBest][Input],
                            D.F32[Best], Chk))
        Chk.fail("image " + std::to_string(Input) + ": argmax " +
                 std::to_string(Best) + " vs oracle " +
                 std::to_string(Traffic.Set->OracleArgmax[Input]));
      else
        ++Phase.OkInputs;
    }
    GroupOk = 0;
  }

private:
  const Deployment &D;
  const ServingTraffic &Traffic;
  PhaseResult &Phase;
  Check &Chk;
  size_t NumModels;
  std::vector<double> Scores;
  size_t GroupOk = 0;
};

/// The server's counters between \p Before and \p After.
void recordServerDelta(PhaseResult &Phase,
                       const serving::ServerStats &Before,
                       const serving::ServerStats &After) {
  Phase.Batches = After.BatchesDispatched - Before.BatchesDispatched;
  Phase.BatchSamples = After.BatchSizes.getSum() - Before.BatchSizes.getSum();
  Phase.CrossModelBatches = After.CrossModelBatches - Before.CrossModelBatches;
  Phase.ExecutionNs = After.ExecutionNs - Before.ExecutionNs;
  Phase.ElapsedNs = After.ElapsedNs - Before.ElapsedNs;
  Phase.PeakQueueDepth = After.PeakQueueDepth;
}

uint64_t wholeGroups(uint64_t Requests, size_t NumModels) {
  return std::max<uint64_t>(1, (Requests + NumModels - 1) / NumModels) *
         NumModels;
}

} // namespace

void PhaseResult::append(const PhaseResult &Other) {
  Requests += Other.Requests;
  OkRequests += Other.OkRequests;
  OkInputs += Other.OkInputs;
  WallNs += Other.WallNs;
  LatencyNs.insert(LatencyNs.end(), Other.LatencyNs.begin(),
                   Other.LatencyNs.end());
  SubmitNs.insert(SubmitNs.end(), Other.SubmitNs.begin(),
                  Other.SubmitNs.end());
  GeneratorLateMaxNs = std::max(GeneratorLateMaxNs, Other.GeneratorLateMaxNs);
  for (size_t I = 0; I < std::size(ByStatus); ++I)
    ByStatus[I] += Other.ByStatus[I];
  Batches += Other.Batches;
  BatchSamples += Other.BatchSamples;
  CrossModelBatches += Other.CrossModelBatches;
  ExecutionNs += Other.ExecutionNs;
  ElapsedNs += Other.ElapsedNs;
  PeakQueueDepth = std::max(PeakQueueDepth, Other.PeakQueueDepth);
}

PhaseResult perfbench::runOpenLoop(Deployment &D,
                                   const ServingTraffic &Traffic,
                                   double Rate, double Seconds, Tracer &T,
                                   Check &Chk) {
  PhaseResult Phase;
  ResultChecker Checker(D, Traffic, Phase, Chk);
  uint64_t N = wholeGroups(static_cast<uint64_t>(Rate * Seconds),
                           Traffic.Set->Models.size());
  Phase.Requests = N;
  Phase.SubmitNs.reserve(N);
  Phase.LatencyNs.reserve(N);
  std::vector<ResultFuture> Futures(N);
  std::vector<uint64_t> DueToSubmit(N);
  std::vector<Clock::time_point> Dues(N);

  // Wake at the due time, not up to the default 50 us timer slack later:
  // at these rates the slack alone would make the generator fall behind.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Scoped PhaseSpan(T, "phase.open_loop");
  serving::ServerStats Before = D.Server->getStats();
  uint64_t Taken = 0;
  auto TakeOne = [&] {
    InferenceResult Result = Futures[Taken].take();
    Futures[Taken] = ResultFuture();
    uint64_t DueNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Dues[Taken].time_since_epoch())
            .count());
    T.record("serving.request", DueNs,
             DueNs + DueToSubmit[Taken] + Result.LatencyNs, Taken + 1);
    Checker.take(Taken, Result, DueToSubmit[Taken]);
    ++Taken;
  };
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(1);
  for (uint64_t I = 0; I < N; ++I) {
    Dues[I] = Start + std::chrono::nanoseconds(static_cast<uint64_t>(
                          static_cast<double>(I) * 1e9 / Rate));
    // Ahead of schedule: check finished requests, then sleep until due.
    while (Taken < I && Clock::now() < Dues[I] && Futures[Taken].ready())
      TakeOne();
    if (Clock::now() < Dues[I])
      std::this_thread::sleep_until(Dues[I]);
    Clock::time_point Submit = Clock::now();
    {
      Scoped S(T, "serving.submit", I + 1);
      Futures[I] = D.Server->submit(D.Names[Checker.modelOf(I)],
                                    Traffic.Set->input(Checker.inputOf(I)),
                                    1);
    }
    Clock::time_point Returned = Clock::now();
    Phase.GeneratorLateMaxNs =
        std::max(Phase.GeneratorLateMaxNs, nsBetween(Dues[I], Submit));
    Phase.SubmitNs.push_back(nsBetween(Submit, Returned));
    DueToSubmit[I] = nsBetween(Dues[I], Returned);
  }
  while (Taken < N)
    TakeOne();
  Phase.WallNs = nsBetween(Start, Clock::now());
  recordServerDelta(Phase, Before, D.Server->getStats());
  return Phase;
}

PhaseResult perfbench::runClosedLoop(Deployment &D,
                                     const ServingTraffic &Traffic,
                                     uint64_t NumRequests,
                                     size_t Outstanding, Tracer &T,
                                     Check &Chk) {
  PhaseResult Phase;
  ResultChecker Checker(D, Traffic, Phase, Chk);
  uint64_t N = wholeGroups(NumRequests, Traffic.Set->Models.size());
  Phase.Requests = N;
  Phase.LatencyNs.reserve(N);
  std::vector<ResultFuture> Ring(Outstanding);
  // Closed-loop request ids follow the open loop's in the trace.
  constexpr uint64_t IdBase = uint64_t(1) << 32;

  Scoped PhaseSpan(T, "phase.closed_loop");
  serving::ServerStats Before = D.Server->getStats();
  Clock::time_point Start = Clock::now();
  for (uint64_t I = 0; I < N + Outstanding; ++I) {
    size_t Slot = I % Outstanding;
    if (I >= Outstanding) {
      InferenceResult Result;
      {
        Scoped S(T, "future.take", IdBase + I - Outstanding + 1);
        Result = Ring[Slot].take();
      }
      Ring[Slot] = ResultFuture();
      // Latency in a closed loop runs from the submit.
      Checker.take(I - Outstanding, Result, 0);
    }
    if (I < N) {
      Scoped S(T, "serving.submit", IdBase + I + 1);
      Ring[Slot] = D.Server->submit(D.Names[Checker.modelOf(I)],
                                    Traffic.Set->input(Checker.inputOf(I)),
                                    1);
    }
  }
  Phase.WallNs = nsBetween(Start, Clock::now());
  recordServerDelta(Phase, Before, D.Server->getStats());
  return Phase;
}
