//===- main.cpp - End-to-end and per-layer benchmark of spnc ------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload through the calls a user makes:
///
///   ratspn-classify  deserializeModel -> KernelCache::getOrCompile ->
///                    CompiledKernel::execute on batches of images, argmax
///                    over ten class kernels;
///   tenants-merged   the ten class models as ten tenants of a
///                    MergeModels server (one parameterized kernel),
///                    single-sample requests.
///
/// Every output is checked against the interpreter oracle. The untraced
/// run (--trace 0) prints the end-to-end metrics. The traced run
/// (--trace 1) runs the workload untraced, then traced, records spans
/// around every call into the library, probes each layer through its
/// public functions and prints the per-layer metrics; the spans are
/// written as Chrome trace-event JSON.
///
/// Usage: spnc-perfbench --workload NAME --seed N --seconds S --trace 0|1
///            [--state-dir DIR]
///
/// The last line of standard output is one JSON object:
/// {"correct":..., "attempted":..., "failed":..., "metrics":{...}}.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Report.h"
#include "Serving.h"
#include "Trace.h"
#include "Workloads.h"

#include "frontend/Serializer.h"
#include "runtime/KernelCache.h"
#include "support/Hashing.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

using namespace spnc;
using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string StateDir;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--workload")
      A.Workload = Value;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Flag == "--trace")
      A.Trace = Value == "1";
    else if (Flag == "--state-dir")
      A.StateDir = Value;
    else
      return false;
  }
  return (Argc % 2) == 1 && !A.Workload.empty() && A.Seconds > 0;
}

/// One workload's fixed knobs. Each pass is cut into rounds; a round
/// starts with a cold set-up, so the set-ups are spread over the pass
/// rather than bunched at its start. The measured work is sized from
/// --seconds so that it takes about that long on the parent commit: the
/// same seed and --seconds always attempt the same operations, and a
/// faster program finishes the same work sooner.
struct WorkloadSpec {
  const char *Name;
  unsigned Rounds;
  /// Images in the seeded input set.
  size_t Inputs;
  /// ratspn-classify: images per batch, batches per chunk (images_per_s
  /// is the median over the chunks), images per second of --seconds.
  size_t BatchImages = 0;
  size_t ChunkBatches = 0;
  double ImagesPerRunSecond = 0;
  /// Serving: the open loop's fixed rate (never derived at run time, so a
  /// faster program is not offered more load) and its share of --seconds;
  /// the closed loop's outstanding requests and requests per second of
  /// --seconds; the admission bound in samples.
  double OpenLoopRate = 0;
  double OpenLoopShare = 0;
  size_t Outstanding = 0;
  double ClosedRequestsPerRunSecond = 0;
  size_t AdmissionBound = 0;
};

constexpr WorkloadSpec kWorkloads[] = {
    {.Name = "ratspn-classify",
     .Rounds = 3,
     .Inputs = 256,
     .BatchImages = 64,
     .ChunkBatches = 16,
     .ImagesPerRunSecond = 1000},
    {.Name = "tenants-merged",
     .Rounds = 8,
     .Inputs = 256,
     .OpenLoopRate = 3000,
     .OpenLoopShare = 0.5,
     .Outstanding = 512,
     .ClosedRequestsPerRunSecond = 20000,
     .AdmissionBound = 16384},
};

const WorkloadSpec *findWorkload(const std::string &Name) {
  for (const WorkloadSpec &W : kWorkloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

/// FNV-1a of a file's bytes (0 when unreadable).
uint64_t hashFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  return fnv1a64(Bytes.data(), Bytes.size());
}

double seconds(uint64_t Ns) { return static_cast<double>(Ns) * 1e-9; }
double ms(uint64_t Ns) { return static_cast<double>(Ns) * 1e-6; }

void printMetric(const char *Prefix, const Metric &M,
                 const std::string &Note = "") {
  std::printf("%s %-40s %14s %s%s\n", Prefix, M.Name.c_str(),
              formatNumber(M.Value).c_str(), M.Unit.c_str(), Note.c_str());
}

/// latency_ms_p50 over every sample, with the count beside it and the
/// p99 over every sample printed next to it. The p99 is not an end-to-end
/// metric: the host stalls for 10-100 ms several times a run, and those
/// stalls decide it (3 to 22 ms over runs of tenants-merged). The
/// traced run reports it as serving.latency_ms_p99_phase.
void setLatency(Report &R, std::vector<uint64_t> LatencyNs,
                const char *What) {
  R.set("latency_ms_p50", ms(quantile(LatencyNs, 0.50)), "ms");
  std::printf("# latency over %zu %s: p50 %s ms, p99 %s ms\n",
              LatencyNs.size(), What,
              formatNumber(ms(quantile(LatencyNs, 0.50))).c_str(),
              formatNumber(ms(quantile(LatencyNs, 0.99))).c_str());
}

//===----------------------------------------------------------------------===//
// ratspn-classify
//===----------------------------------------------------------------------===//

struct ClassifySetup {
  std::vector<runtime::CompiledKernel> Kernels;
  std::unique_ptr<runtime::KernelCache> Cache;
};

/// Cold set-up: deserialize the ten models and compile each through a
/// fresh in-memory cache.
ClassifySetup setupClassify(const ModelSet &Set, Tracer &T, Check &Chk) {
  Scoped Setup(T, "setup");
  ClassifySetup S;
  std::vector<spn::Model> Models;
  for (const std::vector<uint8_t> &Blob : Set.Blobs) {
    Scoped Span(T, "frontend.deserializeModel");
    Chk.attempt();
    Expected<spn::Model> Model = spn::deserializeModel(Blob);
    if (!Model) {
      Chk.fail("deserializeModel: " + Model.getError().message());
      return {};
    }
    Models.push_back(Model.takeValue());
  }
  S.Cache = std::make_unique<runtime::KernelCache>();
  for (const spn::Model &Model : Models) {
    Scoped Span(T, "runtime.KernelCache.getOrCompile");
    Chk.attempt();
    Expected<runtime::CompiledKernel> Kernel =
        S.Cache->getOrCompile(Model, Set.Query, defaultCompilerOptions());
    if (!Kernel) {
      Chk.fail("getOrCompile: " + Kernel.getError().message());
      return {};
    }
    S.Kernels.push_back(Kernel.takeValue());
  }
  return S;
}

/// Scores the images of one batch with every class kernel, then checks
/// each score and each argmax against the oracle. Returns the images
/// classified correctly.
class BatchClassifier {
public:
  BatchClassifier(const ModelSet &Set, size_t BatchImages, Check &Chk)
      : Set(Set), B(BatchImages), Chk(Chk),
        Scores(Set.Models.size() * BatchImages) {}

  /// Runs every kernel on the batch starting at image \p First.
  void score(const std::vector<runtime::CompiledKernel> &Kernels,
             size_t First, Tracer &T, uint64_t Id) {
    for (size_t C = 0; C < Kernels.size(); ++C) {
      Scoped Exec(T, "runtime.CompiledKernel.execute", Id);
      Kernels[C].execute(Set.input(First), Scores.data() + C * B, B);
    }
  }

  uint64_t check(const std::vector<runtime::CompiledKernel> &Kernels,
                 size_t First) {
    uint64_t OkImages = 0;
    for (size_t I = 0; I < B; ++I) {
      size_t Input = First + I;
      Chk.attempt();
      size_t Best = 0;
      bool Ok = true;
      for (size_t C = 0; C < Kernels.size(); ++C) {
        double Got = Scores[C * B + I];
        if (!withinOracleBound(Got, Set.Oracle[C][Input],
                               Kernels[C].getProgram().UseF32)) {
          Chk.fail("class " + std::to_string(C) + " image " +
                   std::to_string(Input) + ": " + formatNumber(Got) +
                   " vs oracle " + formatNumber(Set.Oracle[C][Input]));
          Ok = false;
        }
        if (Got > Scores[Best * B + I])
          Best = C;
      }
      size_t OracleBest = Set.OracleArgmax[Input];
      if (Ok && !argmaxConsistent(Best, OracleBest, Set.Oracle[Best][Input],
                                  Set.Oracle[OracleBest][Input],
                                  Kernels[Best].getProgram().UseF32, Chk)) {
        Chk.fail("image " + std::to_string(Input) + ": argmax " +
                 std::to_string(Best) + " vs oracle " +
                 std::to_string(OracleBest));
        Ok = false;
      }
      OkImages += Ok;
    }
    return OkImages;
  }

private:
  const ModelSet &Set;
  size_t B;
  Check &Chk;
  std::vector<double> Scores;
};

/// One pass of ratspn-classify. Each round is a cold set-up, one unmeasured
/// batch, then chunks of measured batches.
Report runClassify(const WorkloadSpec &W, const Args &A, const ModelSet &Set,
                   Tracer &T, Check &Chk, ExactCounts &Exact) {
  Report R;
  size_t B = W.BatchImages;
  size_t ChunksPerRound = std::max<size_t>(
      1, static_cast<size_t>(W.ImagesPerRunSecond * A.Seconds /
                             static_cast<double>(B * W.ChunkBatches *
                                                 W.Rounds)));
  size_t SlotsPerSet = Set.NumInputs / B;
  std::vector<size_t> SlotOrder = seededOrder(SlotsPerSet, A.Seed);
  BatchClassifier Classifier(Set, B, Chk);
  std::vector<double> SetupSeconds, ChunkRates;
  std::vector<uint64_t> LatencyNs;
  uint64_t Images = 0, Batch = 0;
  for (unsigned Round = 0; Round < W.Rounds; ++Round) {
    uint64_t Start = nowNs();
    ClassifySetup S = setupClassify(Set, T, Chk);
    SetupSeconds.push_back(seconds(nowNs() - Start));
    if (S.Kernels.size() != Set.Models.size())
      return R;
    uint64_t Instructions = 0, Tasks = 0;
    for (const runtime::CompiledKernel &K : S.Kernels) {
      Instructions += K.getProgram().totalInstructions();
      Tasks += K.getProgram().Tasks.size();
    }
    Exact.record("codegen.instructions", Instructions, Chk);
    Exact.record("partition.tasks", Tasks, Chk);
    Exact.record("kernel_cache.misses", S.Cache->getStats().Misses, Chk);

    // The first batch after a compile warms the new kernels: checked, not
    // measured.
    Classifier.score(S.Kernels, SlotOrder[0] * B, T, 0);
    Classifier.check(S.Kernels, SlotOrder[0] * B);
    Scoped Phase(T, "phase.classify");
    for (size_t Chunk = 0; Chunk < ChunksPerRound; ++Chunk) {
      uint64_t BusyNs = 0, OkImages = 0;
      for (size_t I = 0; I < W.ChunkBatches; ++I, ++Batch) {
        size_t First = SlotOrder[Batch % SlotsPerSet] * B;
        uint64_t BatchStart = nowNs();
        {
          Scoped Span(T, "classify.batch", Batch + 1);
          Classifier.score(S.Kernels, First, T, Batch + 1);
        }
        uint64_t Elapsed = nowNs() - BatchStart;
        LatencyNs.push_back(Elapsed);
        BusyNs += Elapsed;
        // Checked outside the timed window.
        OkImages += Classifier.check(S.Kernels, First);
        Images += B;
      }
      ChunkRates.push_back(static_cast<double>(OkImages) / seconds(BusyNs));
    }
  }
  Exact.record("attempted.images", Images, Chk);
  R.set("setup_s", median(SetupSeconds), "s");
  double ImagesPerSecond = median(ChunkRates);
  R.set("images_per_s", ImagesPerSecond, "images/s");
  R.set("samples_per_s",
        ImagesPerSecond * static_cast<double>(Set.Models.size()),
        "samples/s");
  std::printf("# classify: %u cold set-ups; %llu batches of %zu images in "
              "%zu chunks (images_per_s is the median chunk rate)\n",
              W.Rounds, static_cast<unsigned long long>(Batch), B,
              ChunkRates.size());
  setLatency(R, LatencyNs, "batches");
  return R;
}

//===----------------------------------------------------------------------===//
// tenants-merged
//===----------------------------------------------------------------------===//

struct ServingPass {
  Report E2E;
  std::unique_ptr<Deployment> D;
  PhaseResult Open, Closed;
};

serving::ServerConfig serverConfig(const WorkloadSpec &W, bool Merge) {
  serving::ServerConfig Config;
  Config.MaxQueueDepth = W.AdmissionBound;
  Config.MergeModels = Merge;
  return Config;
}

/// One serving pass. Round 0's set-up builds the server that carries all
/// the traffic; every later round starts with a cold set-up that is timed
/// and torn down. Each round then warms up with an unmeasured stretch of
/// the open loop (one second in round 0) and runs its share of the open
/// loop and of the closed loop.
ServingPass runServing(const WorkloadSpec &W, const Args &A,
                       const ModelSet &Set, Tracer &T, Check &Chk,
                       ExactCounts &Exact) {
  ServingPass P;
  ServingTraffic Traffic;
  Traffic.Set = &Set;
  Traffic.Order = seededOrder(Set.NumInputs, A.Seed);
  double OpenSeconds = A.Seconds * W.OpenLoopShare / W.Rounds;
  auto ClosedRequests = static_cast<uint64_t>(
      W.ClosedRequestsPerRunSecond * A.Seconds * (1 - W.OpenLoopShare) /
      W.Rounds);
  std::vector<double> SetupSeconds, SampleRates, ImageRates;
  for (unsigned Round = 0; Round < W.Rounds; ++Round) {
    uint64_t Start = nowNs();
    std::unique_ptr<Deployment> D = deploy(Set, serverConfig(W, true), T, Chk);
    SetupSeconds.push_back(seconds(nowNs() - Start));
    if (!D)
      return P;
    Exact.record("kernel_cache.misses", D->Cache->getStats().Misses, Chk);
    if (Round == 0) {
      P.D = std::move(D);
      resolveComputeTypes(*P.D, Set, Chk);
    }
    D.reset();
    // Unmeasured, checked: the open loop's first requests after a set-up
    // (a burst of compiling, then freeing a deployment) wait tens of ms.
    runOpenLoop(*P.D, Traffic, W.OpenLoopRate, Round == 0 ? 1 : 0.25, T,
                Chk);
    P.Open.append(runOpenLoop(*P.D, Traffic, W.OpenLoopRate, OpenSeconds, T,
                              Chk));
    PhaseResult Closed =
        runClosedLoop(*P.D, Traffic, ClosedRequests, W.Outstanding, T, Chk);
    double ClosedSeconds = seconds(Closed.WallNs);
    SampleRates.push_back(static_cast<double>(Closed.OkRequests) /
                          ClosedSeconds);
    ImageRates.push_back(static_cast<double>(Closed.OkInputs) /
                         ClosedSeconds);
    P.Closed.append(Closed);
  }
  Exact.record("attempted.requests", P.Open.Requests + P.Closed.Requests,
               Chk);
  P.E2E.set("setup_s", median(SetupSeconds), "s");
  P.E2E.set("images_per_s", median(ImageRates), "images/s");
  P.E2E.set("samples_per_s", median(SampleRates), "samples/s");
  std::printf("# %u cold set-ups; open loop: %llu requests at %s/s over %s "
              "s, generator at most %s ms late; closed loop: %llu requests, "
              "%zu outstanding, %s s (throughput is the median of the %u "
              "rounds' rates)\n",
              W.Rounds, static_cast<unsigned long long>(P.Open.Requests),
              formatNumber(W.OpenLoopRate).c_str(),
              formatNumber(seconds(P.Open.WallNs)).c_str(),
              formatNumber(ms(P.Open.GeneratorLateMaxNs)).c_str(),
              static_cast<unsigned long long>(P.Closed.Requests),
              W.Outstanding, formatNumber(seconds(P.Closed.WallNs)).c_str(),
              W.Rounds);
  setLatency(P.E2E, P.Open.LatencyNs, "open-loop requests");
  return P;
}

/// tenants-merged's traffic through a server with MergeModels off: the
/// base of merge.vs_unmerged.
std::optional<UnmergedBaseline> runUnmerged(const WorkloadSpec &W,
                                            const Args &A,
                                            const ModelSet &Set,
                                            const PhaseResult &Merged,
                                            Tracer &T, Check &Chk) {
  Scoped Span(T, "probe.unmerged");
  std::unique_ptr<Deployment> D = deploy(Set, serverConfig(W, false), T, Chk);
  if (!D)
    return std::nullopt;
  resolveComputeTypes(*D, Set, Chk);
  ServingTraffic Traffic;
  Traffic.Set = &Set;
  Traffic.Order = seededOrder(Set.NumInputs, A.Seed);
  PhaseResult Closed =
      runClosedLoop(*D, Traffic, Merged.Requests, W.Outstanding, T, Chk);
  Expected<runtime::CompiledKernel> Class0 = D->Cache->getOrCompile(
      D->Models[0], Set.Query, defaultCompilerOptions());
  if (!Class0) {
    Chk.incorrect("class-0 kernel lookup failed");
    return std::nullopt;
  }
  UnmergedBaseline B;
  B.SamplesPerSecond = static_cast<double>(Closed.OkRequests) /
                       seconds(Closed.WallNs);
  B.Class0 = *Class0;
  return B;
}

/// Runs the workload once; the serving pass is kept for the per-layer
/// readout.
Report runWorkload(const WorkloadSpec &W, const Args &A,
                   const ModelSet &Set, Tracer &T, Check &Chk,
                   ExactCounts &Exact, ServingPass *Serving) {
  Report R;
  if (A.Workload == "ratspn-classify") {
    R = runClassify(W, A, Set, T, Chk, Exact);
  } else {
    ServingPass P = runServing(W, A, Set, T, Chk, Exact);
    R = P.E2E;
    if (Serving)
      *Serving = std::move(P);
  }
  R.set("peak_rss_mb", peakRssMb(), "MB");
  return R;
}

const char *const kEndToEnd[] = {"setup_s", "images_per_s", "samples_per_s",
                                 "latency_ms_p50", "peak_rss_mb"};

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: spnc-perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--state-dir DIR]\n");
    return 2;
  }
  const WorkloadSpec *W = findWorkload(A.Workload);
  if (!W) {
    std::fprintf(stderr, "unknown workload: %s\n", A.Workload.c_str());
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  // Models, inputs and oracle references: benchmark work, never timed.
  ModelSet Set = buildRatSpnSet(A.Seed, W->Inputs);

  Check Chk;
  ExactCounts Exact;
  Tracer Off(false);
  // The traced run measures the workload twice, untraced then traced, each
  // for half of --seconds.
  Args Pass = A;
  if (A.Trace)
    Pass.Seconds = A.Seconds / 2;
  Report Untraced = runWorkload(*W, Pass, Set, Off, Chk, Exact, nullptr);
  Report Printed;
  if (!A.Trace) {
    for (const char *Name : kEndToEnd)
      if (const Metric *M = Untraced.find(Name))
        Printed.set(M->Name, M->Value, M->Unit);
  } else {
    for (const Metric &M : Untraced.metrics())
      printMetric("untraced", M);
    double RssBefore = peakRssMb();
    Tracer On(true);
    ServingPass Serving;
    Report Traced = runWorkload(*W, Pass, Set, On, Chk, Exact, &Serving);
    double TracedRssGrowth = peakRssMb() - RssBefore;
    for (const Metric &M : Traced.metrics())
      printMetric("traced  ", M);
    std::optional<UnmergedBaseline> Unmerged;
    if (A.Workload == "tenants-merged" && Serving.D)
      Unmerged = runUnmerged(*W, Pass, Set, Serving.Closed, On, Chk);
    LayerContext Ctx{A.Workload, Set, On, Chk, Exact,
                     A.StateDir.empty() ? "" : A.StateDir + "/cpp-kernels"};
    Printed = measureLayers(Ctx, Serving.D.get(), Serving.Open,
                            Serving.Closed, Unmerged ? &*Unmerged : nullptr);
    for (const char *Name : kEndToEnd) {
      const Metric *U = Untraced.find(Name), *Tr = Traced.find(Name);
      if (!U || !Tr)
        continue;
      double Delta = std::string(Name) == "peak_rss_mb"
                         ? TracedRssGrowth
                         : Tr->Value - U->Value;
      Printed.set(std::string("trace_overhead.") + Name, Delta, U->Unit);
    }
    for (const auto &[Name, Sum] : On.summarize())
      std::printf("span %-36s count %8llu total %12.3f ms self %12.3f ms\n",
                  Name.c_str(), static_cast<unsigned long long>(Sum.Count),
                  ms(Sum.TotalNs), ms(Sum.SelfNs));
    std::string TracePath = A.StateDir.empty() ? "" :
        A.StateDir + "/trace-" + A.Workload + "-seed" +
        std::to_string(A.Seed) + ".json";
    if (!TracePath.empty()) {
      if (On.writeChromeTrace(TracePath))
        std::printf("# spans written to %s\n", TracePath.c_str());
      else
        Chk.incorrect("cannot write " + TracePath);
    }
  }

  if (!A.StateDir.empty()) {
    // Counts repeat for the same runner binary and arguments.
    char Key[17];
    std::snprintf(Key, sizeof(Key), "%016llx",
                  static_cast<unsigned long long>(hashFile(Argv[0])));
    Exact.record("attempted", Chk.attempted(), Chk);
    Exact.compareAndStore(A.StateDir + "/exact-" + A.Workload + "-seed" +
                              std::to_string(A.Seed) + "-s" +
                              formatNumber(A.Seconds) + "-trace" +
                              (A.Trace ? "1" : "0") + "-" + Key + ".json",
                          Chk);
  }
  for (const auto &[Name, Value] : Exact.counts())
    std::printf("exact %-40s %llu\n", Name.c_str(),
                static_cast<unsigned long long>(Value));
  for (const Metric &M : Printed.metrics()) {
    if (!std::isfinite(M.Value))
      Chk.incorrect("metric " + M.Name + " is not finite");
    printMetric("metric", M);
  }
  if (Chk.nearTies())
    std::printf("# argmax near-ties: %llu (the oracle's top two scores lie "
                "within the kernels' precision bound; not failures)\n",
                static_cast<unsigned long long>(Chk.nearTies()));
  for (const std::string &Message : Chk.messages())
    std::printf("# problem: %s\n", Message.c_str());

  std::string Line = "{\"correct\": ";
  Line += Chk.correct() ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(Chk.attempted());
  Line += ", \"failed\": " + std::to_string(Chk.failed());
  Line += ", \"metrics\": {";
  bool First = true;
  for (const Metric &M : Printed.metrics()) {
    Line += First ? "" : ", ";
    First = false;
    Line += "\"" + M.Name + "\": {\"value\": " +
            (std::isfinite(M.Value) ? formatNumber(M.Value) : "0") +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  return 0;
}
