//===- Serving.h - Open- and closed-loop traffic through the server -----------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives an `InferenceServer` the way a client does: `addModel` at
/// set-up, then single-sample `submit` calls whose futures are checked
/// against the interpreter oracle. One generator thread (the caller's)
/// produces both phases:
///
///  * an open loop at a fixed rate, sleeping until each request's due
///    time; latency runs from the due time to completion, so a stall
///    also delays the requests queued behind it;
///  * a closed loop that keeps a fixed number of requests outstanding.
///
/// Request i goes to model i % NumModels and carries the
/// (i / NumModels)-th input in a seeded order: the NumModels requests of
/// one group carry the same image, and the group classifies it.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_PERFBENCH_SERVING_H
#define SPNC_PERFBENCH_SERVING_H

#include "Report.h"
#include "Trace.h"
#include "Workloads.h"

#include "runtime/KernelCache.h"
#include "serving/InferenceServer.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// A server, the kernel cache it compiles through, and the models it
/// serves. Members are destroyed in reverse order: the server before
/// the cache it uses.
struct Deployment {
  std::unique_ptr<spnc::runtime::KernelCache> Cache;
  std::unique_ptr<spnc::serving::InferenceServer> Server;
  std::vector<spnc::spn::Model> Models;
  std::vector<std::string> Names;
  /// Per model: its kernel computes in f32 (selects the oracle bound).
  std::vector<bool> F32;
};

/// Cold set-up: deserializes \p Set's models, builds a fresh in-memory
/// cache and a server with \p Config, and registers every model. Each
/// registration is an attempted operation.
std::unique_ptr<Deployment>
deploy(const ModelSet &Set, const spnc::serving::ServerConfig &Config,
       Tracer &T, Check &Chk);

/// Looks each model's kernel up in the deployment's cache (hits, after
/// set-up) to learn which compute type it was lowered to.
void resolveComputeTypes(Deployment &D, const ModelSet &Set, Check &Chk);

struct ServingTraffic {
  const ModelSet *Set = nullptr;
  /// Input order: a seeded permutation of 0..NumInputs-1.
  std::vector<size_t> Order;
};

/// What one phase measured; phases of one kind add up with append().
struct PhaseResult {
  uint64_t Requests = 0;
  uint64_t OkRequests = 0;
  /// Images whose every request was Ok, with an argmax consistent with
  /// the oracle's.
  uint64_t OkInputs = 0;
  uint64_t WallNs = 0;
  /// Per request, due time to completion; non-Ok requests count as
  /// infinitely late.
  std::vector<uint64_t> LatencyNs;
  /// Per request, wall clock of the submit() call.
  std::vector<uint64_t> SubmitNs;
  uint64_t GeneratorLateMaxNs = 0;
  /// Requests per completion status (index = RequestStatus).
  uint64_t ByStatus[5] = {};
  /// Server counters over the phase (ServerStats after minus before);
  /// PeakQueueDepth is the server's peak so far.
  uint64_t Batches = 0;
  uint64_t BatchSamples = 0;
  uint64_t CrossModelBatches = 0;
  uint64_t ExecutionNs = 0;
  uint64_t ElapsedNs = 0;
  uint64_t PeakQueueDepth = 0;

  void append(const PhaseResult &Other);
};

/// Open loop: Rate requests/s for Seconds (rounded to whole groups).
PhaseResult runOpenLoop(Deployment &D, const ServingTraffic &Traffic,
                        double Rate, double Seconds, Tracer &T,
                        Check &Chk);

/// Closed loop: \p NumRequests requests (whole groups) with
/// \p Outstanding of them in flight.
PhaseResult runClosedLoop(Deployment &D, const ServingTraffic &Traffic,
                          uint64_t NumRequests, size_t Outstanding,
                          Tracer &T, Check &Chk);

} // namespace perfbench

#endif // SPNC_PERFBENCH_SERVING_H
