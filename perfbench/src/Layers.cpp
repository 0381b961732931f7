//===- Layers.cpp - Per-layer probes of the traced run ------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "backend/CppBackend.h"
#include "backend/CppEmitter.h"
#include "backend/VmBackend.h"
#include "frontend/Serializer.h"
#include "merge/Merge.h"
#include "runtime/KernelCache.h"
#include "vm/ProgramBinary.h"

#include <cstdio>
#include <filesystem>
#include <map>

using namespace spnc;
using namespace perfbench;

namespace {

/// Every per-layer metric, in report order (trace_overhead.* are added
/// by the caller).
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"frontend.deserialize_ms", "ms"},
    {"frontend.translate_ms", "ms"},
    {"ir.pipeline_ms", "ms"},
    {"ir.pass.canonicalize_ms", "ms"},
    {"ir.pass.lower-hispn-to-lospn_ms", "ms"},
    {"ir.pass.cse_ms", "ms"},
    {"ir.pass.bufferize_ms", "ms"},
    {"ir.pass.other_ms", "ms"},
    {"ir.ops_after.translate", "count"},
    {"ir.ops_after.ir-pipeline", "count"},
    {"partition.tasks", "count"},
    {"codegen.ms", "ms"},
    {"codegen.isel_ms", "ms"},
    {"codegen.regalloc_ms", "ms"},
    {"codegen.peephole_ms", "ms"},
    {"codegen.sched_ms", "ms"},
    {"codegen.instructions", "count"},
    {"kernel_cache.compile_ms", "ms"},
    {"kernel_cache.hit_us", "us"},
    {"kernel_cache.misses", "count"},
    {"kernel_cache.hits", "count"},
    {"runtime.spnk_encode_ms", "ms"},
    {"runtime.spnk_decode_ms", "ms"},
    {"backend.vm.materialize_ms", "ms"},
    {"backend.cpp.emit_ms", "ms"},
    {"backend.cpp.host_compile_ms", "ms"},
    {"backend.cpp.ns_per_sample", "ns"},
    {"backend.vm.ns_per_sample", "ns"},
    {"vm.ns_per_sample.batch", "ns"},
    {"vm.us_per_call.rows1", "us"},
    {"vm.us_per_call.rows8", "us"},
    {"vm.us_per_call.rows64", "us"},
    {"vm.indexed_ns_per_sample.mixed", "ns"},
    {"vm.indexed_ns_per_sample.uniform", "ns"},
    {"merge.discover_ms", "ms"},
    {"merge.extract_params_ms", "ms"},
    {"merge.cross_model_batch_share", "share"},
    {"merge.vs_unmerged", "ratio"},
    {"serving.latency_ms_p99_phase", "ms"},
    {"serving.submit_us_p50", "us"},
    {"serving.wait_ms_p50", "ms"},
    {"serving.mean_batch_samples", "samples"},
    {"serving.batches_dispatched", "count"},
    {"serving.exec_busy_share", "share"},
    {"serving.peak_queue_depth", "samples"},
    {"serving.rejected", "count"},
    {"serving.timed_out", "count"},
    {"serving.failed", "count"},
    {"serving.generator_late_ms_max", "ms"},
};

const char *const kPasses[] = {"canonicalize", "lower-hispn-to-lospn", "cse",
                               "bufferize"};
const char *const kOpStages[] = {"translate", "ir-pipeline"};

double ms(uint64_t Ns) { return static_cast<double>(Ns) * 1e-6; }

/// Mean nanoseconds per call of \p Fn, over at least \p MinSeconds.
template <typename Fn> double nsPerCall(double MinSeconds, Fn &&Call) {
  uint64_t Start = nowNs(), Calls = 0, Elapsed = 0;
  do {
    Call();
    ++Calls;
    Elapsed = nowNs() - Start;
  } while (Elapsed < static_cast<uint64_t>(MinSeconds * 1e9) || Calls < 3);
  return static_cast<double>(Elapsed) / static_cast<double>(Calls);
}

/// Median wall clock of \p Repeats calls of \p Fn, in ns.
template <typename Fn> double medianNs(unsigned Repeats, Fn &&Call) {
  std::vector<double> Samples;
  for (unsigned I = 0; I < Repeats; ++I) {
    uint64_t Start = nowNs();
    Call();
    Samples.push_back(static_cast<double>(nowNs() - Start));
  }
  return median(Samples);
}

/// \p Rows rows of the inputs, repeated as needed, and the input behind
/// each row.
struct Tiled {
  std::vector<double> Rows;
  std::vector<size_t> Input;
};
Tiled tile(const ModelSet &Set, size_t Rows) {
  Tiled T;
  for (size_t R = 0; R < Rows; ++R) {
    size_t I = R % Set.NumInputs;
    T.Input.push_back(I);
    T.Rows.insert(T.Rows.end(), Set.input(I), Set.input(I) + Set.NumFeatures);
  }
  return T;
}

class LayerProbe {
public:
  LayerProbe(LayerContext &C) : C(C) {}

  void run(Deployment *D, const PhaseResult &Open, const PhaseResult &Closed,
           const UnmergedBaseline *Unmerged);
  Report finish();

private:
  void set(const std::string &Name, double Value) {
    for (const auto &[Declared, Unit] : kLayerMetrics)
      if (Name == Declared) {
        R.set(Name, Value, Unit);
        return;
      }
    C.Chk.incorrect("undeclared per-layer metric " + Name);
  }
  void skip(const std::string &Prefix, const std::string &Reason) {
    Skipped.emplace_back(Prefix, Reason);
  }
  /// Checks \p Out (one value per row of \p Rows) against the oracle of
  /// the models \p ModelOf gives per row.
  template <typename ModelOfFn>
  void checkRows(const char *What, const Tiled &Rows, const double *Out,
                 size_t N, bool F32, ModelOfFn &&ModelOf) {
    for (size_t Row = 0; Row < N; ++Row) {
      C.Chk.attempt();
      double Ref = C.Set.Oracle[ModelOf(Row)][Rows.Input[Row]];
      if (!withinOracleBound(Out[Row], Ref, F32))
        C.Chk.fail(std::string(What) + " row " + std::to_string(Row) + ": " +
                   formatNumber(Out[Row]) + " vs oracle " +
                   formatNumber(Ref));
    }
  }

  void compileLayers(bool Merged);
  void vmLayers(const runtime::CompiledKernel &Kernel);
  void indexedLayer(const runtime::CompiledKernel &Kernel,
                    const std::vector<int32_t> &Tables);
  void mergeLayer();
  void cppLeg(const runtime::CompiledKernel &Kernel);
  void servingLayer(const PhaseResult &Open, const PhaseResult &Closed,
                    unsigned NumWorkers);

  LayerContext &C;
  Report R;
  std::vector<std::pair<std::string, std::string>> Skipped;
  /// Kernels of the compile probe, and the merged tables (tenants).
  std::unique_ptr<runtime::KernelCache> ProbeCache;
  std::vector<runtime::CompiledKernel> Kernels;
  std::vector<int32_t> Tables;
};

void LayerProbe::compileLayers(bool Merged) {
  Scoped Probe(C.T, "probe.compile");
  runtime::KernelCache::Config Config;
  Config.ConfigurePipeline = [](runtime::CompilationPipeline &P) {
    return P.enableStageReport();
  };
  ProbeCache = std::make_unique<runtime::KernelCache>(Config);
  runtime::CompilerOptions Options = defaultCompilerOptions();

  uint64_t DeserializeNs = 0;
  std::vector<spn::Model> Models;
  for (const std::vector<uint8_t> &Blob : C.Set.Blobs) {
    uint64_t Start = nowNs();
    Expected<spn::Model> Model = [&] {
      Scoped S(C.T, "frontend.deserializeModel");
      return spn::deserializeModel(Blob);
    }();
    DeserializeNs += nowNs() - Start;
    C.Chk.attempt();
    if (!Model) {
      C.Chk.fail("deserializeModel: " + Model.getError().message());
      return;
    }
    Models.push_back(Model.takeValue());
  }

  uint64_t CompileNs = 0, TranslateNs = 0, IrNs = 0, CodegenNs = 0;
  codegen::CodegenTimings Codegen;
  std::map<std::string, uint64_t> PassNs, OpsAfter;
  uint64_t Tasks = 0, Instructions = 0;
  auto Acquire = [&](const spn::Model &Model, runtime::CompileStats *Stats,
                     int32_t *Table) -> Expected<runtime::CompiledKernel> {
    if (!Merged) {
      Scoped S(C.T, "runtime.KernelCache.getOrCompile");
      return ProbeCache->getOrCompile(Model, C.Set.Query, Options, Stats);
    }
    Scoped S(C.T, "runtime.KernelCache.getOrCompileMerged");
    Expected<runtime::KernelCache::MergedKernel> M =
        ProbeCache->getOrCompileMerged(Model, C.Set.Query, Options, Stats);
    if (!M)
      return M.getError();
    *Table = M->TableIndex;
    return M->Kernel;
  };
  for (const spn::Model &Model : Models) {
    runtime::CompileStats Stats;
    uint64_t MissesBefore = ProbeCache->getStats().Misses;
    int32_t Table = -1;
    uint64_t Start = nowNs();
    Expected<runtime::CompiledKernel> Kernel = Acquire(Model, &Stats, &Table);
    uint64_t Elapsed = nowNs() - Start;
    C.Chk.attempt();
    if (!Kernel) {
      C.Chk.fail("compile: " + Kernel.getError().message());
      return;
    }
    Tables.push_back(Table);
    if (ProbeCache->getStats().Misses == MissesBefore)
      continue; // a merged-group member: its table was registered
    Kernels.push_back(*Kernel);
    CompileNs += Elapsed;
    TranslateNs += Stats.TranslationNs;
    for (const runtime::StageTiming &Stage : Stats.Stages) {
      if (Stage.Name == "ir-pipeline")
        IrNs += Stage.WallNs;
      else if (Stage.Name == "codegen")
        CodegenNs += Stage.WallNs;
    }
    for (const ir::PassTiming &Pass : Stats.PassTimings) {
      bool Known = false;
      for (const char *Name : kPasses)
        Known |= Pass.PassName == Name;
      PassNs[Known ? Pass.PassName : "other"] += Pass.WallNs;
    }
    for (const runtime::StageOpCount &Ops : Stats.OpCounts)
      OpsAfter[Ops.Stage] += Ops.NumOps;
    Codegen.IselNs += Stats.Codegen.IselNs;
    Codegen.RegAllocNs += Stats.Codegen.RegAllocNs;
    Codegen.PeepholeNs += Stats.Codegen.PeepholeNs;
    Codegen.SchedulingNs += Stats.Codegen.SchedulingNs;
    Tasks += Stats.NumTasks;
    Instructions += Stats.NumInstructions;
  }
  runtime::KernelCache::Stats CacheStats = ProbeCache->getStats();

  std::vector<double> HitNs;
  for (const spn::Model &Model : Models) {
    int32_t Table = -1;
    uint64_t Start = nowNs();
    Expected<runtime::CompiledKernel> Kernel = Acquire(Model, nullptr, &Table);
    HitNs.push_back(static_cast<double>(nowNs() - Start));
    C.Chk.attempt();
    if (!Kernel)
      C.Chk.fail("cache hit lookup: " + Kernel.getError().message());
  }

  set("frontend.deserialize_ms", ms(DeserializeNs));
  set("frontend.translate_ms", ms(TranslateNs));
  set("ir.pipeline_ms", ms(IrNs));
  for (const char *Name : kPasses)
    set(std::string("ir.pass.") + Name + "_ms", ms(PassNs[Name]));
  set("ir.pass.other_ms", ms(PassNs["other"]));
  for (const char *Stage : kOpStages) {
    set(std::string("ir.ops_after.") + Stage, OpsAfter[Stage]);
    C.Exact.record(std::string("ir.ops_after.") + Stage, OpsAfter[Stage],
                   C.Chk);
  }
  set("partition.tasks", Tasks);
  set("codegen.ms", ms(CodegenNs));
  set("codegen.isel_ms", ms(Codegen.IselNs));
  set("codegen.regalloc_ms", ms(Codegen.RegAllocNs));
  set("codegen.peephole_ms", ms(Codegen.PeepholeNs));
  set("codegen.sched_ms", ms(Codegen.SchedulingNs));
  set("codegen.instructions", Instructions);
  set("kernel_cache.compile_ms", ms(CompileNs));
  set("kernel_cache.hit_us", median(HitNs) * 1e-3);
  set("kernel_cache.misses", CacheStats.Misses);
  set("kernel_cache.hits", CacheStats.Hits);
  C.Exact.record("codegen.instructions", Instructions, C.Chk);
  C.Exact.record("partition.tasks", Tasks, C.Chk);
  C.Exact.record("kernel_cache.misses", CacheStats.Misses, C.Chk);

  // The .spnk round trip and the VM backend's engine construction, on
  // every compiled program.
  uint64_t EncodeNs = 0, DecodeNs = 0, MaterializeNs = 0;
  Expected<runtime::PipelineConfig> PipelineConfig =
      runtime::PipelineConfig::create(Options);
  backend::VmBackend Vm;
  for (const runtime::CompiledKernel &Kernel : Kernels) {
    const vm::KernelProgram &Program = Kernel.getProgram();
    uint64_t Start = nowNs();
    std::vector<uint8_t> Blob = vm::encodeProgram(Program);
    EncodeNs += nowNs() - Start;
    Start = nowNs();
    Expected<vm::KernelProgram> Decoded = vm::decodeProgram(Blob);
    DecodeNs += nowNs() - Start;
    C.Chk.attempt();
    if (!Decoded || Decoded->totalInstructions() !=
                        Program.totalInstructions()) {
      C.Chk.fail("decodeProgram did not round-trip");
      continue;
    }
    vm::KernelProgram Copy = Program;
    Start = nowNs();
    Expected<backend::CompiledArtifact> Artifact =
        Vm.materialize(std::move(Copy), *PipelineConfig);
    MaterializeNs += nowNs() - Start;
    C.Chk.attempt();
    if (!Artifact)
      C.Chk.fail("VmBackend::materialize: " + Artifact.getError().message());
  }
  set("runtime.spnk_encode_ms", ms(EncodeNs));
  set("runtime.spnk_decode_ms", ms(DecodeNs));
  set("backend.vm.materialize_ms", ms(MaterializeNs));
}

void LayerProbe::vmLayers(const runtime::CompiledKernel &Kernel) {
  Scoped Probe(C.T, "probe.vm");
  bool F32 = Kernel.getProgram().UseF32;
  size_t Batch = C.Set.Query.BatchSize;
  Tiled Rows = tile(C.Set, Batch);
  std::vector<double> Out(Batch);
  Kernel.execute(Rows.Rows.data(), Out.data(), Batch);
  checkRows("vm batch", Rows, Out.data(), Batch, F32,
            [](size_t) { return 0; });
  set("vm.ns_per_sample.batch",
      nsPerCall(0.5,
                [&] { Kernel.execute(Rows.Rows.data(), Out.data(), Batch); }) /
          static_cast<double>(Batch));
  for (size_t N : {1, 8, 64})
    set("vm.us_per_call.rows" + std::to_string(N),
        nsPerCall(0.25,
                  [&] { Kernel.execute(Rows.Rows.data(), Out.data(), N); }) *
            1e-3);
}

void LayerProbe::indexedLayer(const runtime::CompiledKernel &Kernel,
                              const std::vector<int32_t> &ModelTables) {
  Scoped Probe(C.T, "probe.vm.indexed");
  constexpr size_t Rows = 64;
  Tiled In = tile(C.Set, Rows);
  std::vector<double> Out(Rows);
  bool F32 = Kernel.getProgram().UseF32;
  // Mixed: rows interleaved over every table, as the server forms batches
  // from round-robin tenant traffic. Uniform: every row on one table.
  for (bool Mixed : {true, false}) {
    std::vector<uint32_t> Index(Rows);
    for (size_t R = 0; R < Rows; ++R)
      Index[R] = static_cast<uint32_t>(
          ModelTables[Mixed ? R % ModelTables.size() : 0]);
    C.Chk.attempt();
    if (!Kernel.executeIndexed(In.Rows.data(), Index.data(), Out.data(),
                               Rows)) {
      C.Chk.fail("executeIndexed refused the batch");
      return;
    }
    checkRows("executeIndexed", In, Out.data(), Rows, F32, [&](size_t R) {
      return Mixed ? R % ModelTables.size() : 0;
    });
    set(std::string("vm.indexed_ns_per_sample.") +
            (Mixed ? "mixed" : "uniform"),
        nsPerCall(0.3,
                  [&] {
                    Kernel.executeIndexed(In.Rows.data(), Index.data(),
                                          Out.data(), Rows);
                  }) /
            Rows);
  }
}

void LayerProbe::mergeLayer() {
  Scoped Probe(C.T, "probe.merge");
  std::vector<const spn::Model *> Pointers;
  for (const spn::Model &Model : C.Set.Models)
    Pointers.push_back(&Model);
  size_t Groups = 0;
  set("merge.discover_ms", medianNs(5, [&] {
                             Groups =
                                 merge::discoverMergeGroups(Pointers).size();
                           }) * 1e-6);
  size_t Params = 0;
  set("merge.extract_params_ms", medianNs(5, [&] {
                                   Params = 0;
                                   for (const spn::Model &Model :
                                        C.Set.Models)
                                     Params +=
                                         merge::extractParams(Model).size();
                                 }) * 1e-6);
  std::printf("# merge: %zu models form %zu groups, %zu parameters\n",
              C.Set.Models.size(), Groups, Params);
}

void LayerProbe::cppLeg(const runtime::CompiledKernel &Kernel) {
  Scoped Probe(C.T, "probe.backend.cpp");
  backend::CppBackendOptions CppOptions;
  CppOptions.WorkDir = C.CppWorkDir;
  backend::CppBackend Cpp(CppOptions);
  std::string Reason;
  if (!Cpp.isAvailable(&Reason)) {
    skip("backend.cpp.", "cpp backend unavailable: " + Reason);
    skip("backend.vm.ns_per_sample", "no cpp leg to compare with");
    return;
  }
  const vm::KernelProgram &Program = Kernel.getProgram();
  uint64_t Start = nowNs();
  Expected<std::string> Source = backend::emitCppKernel(Program);
  uint64_t EmitNs = nowNs() - Start;
  C.Chk.attempt();
  if (!Source) {
    C.Chk.fail("emitCppKernel: " + Source.getError().message());
    return;
  }
  Expected<runtime::PipelineConfig> Config =
      runtime::PipelineConfig::create(defaultCompilerOptions());
  Start = nowNs();
  Expected<backend::CompiledArtifact> Native = [&] {
    Scoped S(C.T, "backend.CppBackend.materialize");
    return Cpp.materialize(Program, *Config);
  }();
  uint64_t MaterializeNs = nowNs() - Start;
  C.Chk.attempt();
  if (!Native) {
    C.Chk.fail("CppBackend::materialize: " + Native.getError().message());
    return;
  }
  size_t Batch = C.Set.Query.BatchSize;
  Tiled Rows = tile(C.Set, Batch);
  std::vector<double> Out(Batch);
  const runtime::ExecutionEngine &Engine = *Native->Engine;
  Engine.execute(Rows.Rows.data(), Out.data(), Batch);
  checkRows("cpp kernel", Rows, Out.data(), Batch, Program.UseF32,
            [](size_t) { return 0; });
  set("backend.cpp.emit_ms", ms(EmitNs));
  // materialize() emits again, then runs the host compiler and loads the
  // shared object.
  set("backend.cpp.host_compile_ms",
      ms(MaterializeNs - std::min(MaterializeNs, EmitNs)));
  set("backend.cpp.ns_per_sample",
      nsPerCall(0.5,
                [&] { Engine.execute(Rows.Rows.data(), Out.data(), Batch); }) /
          static_cast<double>(Batch));
  set("backend.vm.ns_per_sample",
      nsPerCall(0.5,
                [&] { Kernel.execute(Rows.Rows.data(), Out.data(), Batch); }) /
          static_cast<double>(Batch));
  if (!C.CppWorkDir.empty()) {
    std::error_code Ignored;
    std::filesystem::remove_all(C.CppWorkDir, Ignored);
  }
}

void LayerProbe::servingLayer(const PhaseResult &Open,
                              const PhaseResult &Closed, unsigned Workers) {
  std::vector<uint64_t> Submit = Open.SubmitNs, Latency = Open.LatencyNs;
  set("serving.latency_ms_p99_phase",
      static_cast<double>(quantile(Latency, 0.99)) * 1e-6);
  set("serving.submit_us_p50", static_cast<double>(quantile(Submit, 0.5)) *
                                   1e-3);
  double EngineNsPerBatch =
      Open.Batches ? static_cast<double>(Open.ExecutionNs) /
                         static_cast<double>(Open.Batches)
                   : 0;
  set("serving.wait_ms_p50",
      (static_cast<double>(quantile(Latency, 0.5)) - EngineNsPerBatch) *
          1e-6);
  set("serving.mean_batch_samples",
      Closed.Batches ? static_cast<double>(Closed.BatchSamples) /
                           static_cast<double>(Closed.Batches)
                     : 0);
  set("serving.batches_dispatched", Closed.Batches);
  set("serving.exec_busy_share",
      Closed.ElapsedNs ? static_cast<double>(Closed.ExecutionNs) /
                             (static_cast<double>(Closed.ElapsedNs) * Workers)
                       : 0);
  set("serving.peak_queue_depth", Open.PeakQueueDepth);
  auto Count = [&](serving::RequestStatus S) {
    size_t I = static_cast<size_t>(S);
    return static_cast<double>(Open.ByStatus[I] + Closed.ByStatus[I]);
  };
  set("serving.rejected", Count(serving::RequestStatus::Rejected));
  set("serving.timed_out", Count(serving::RequestStatus::TimedOut));
  set("serving.failed", Count(serving::RequestStatus::Failed));
  set("serving.generator_late_ms_max", ms(Open.GeneratorLateMaxNs));
  set("merge.cross_model_batch_share",
      Closed.Batches ? static_cast<double>(Closed.CrossModelBatches) /
                           static_cast<double>(Closed.Batches)
                     : 0);
}

void LayerProbe::run(Deployment *D, const PhaseResult &Open,
                     const PhaseResult &Closed,
                     const UnmergedBaseline *Unmerged) {
  bool Tenants = C.Workload == "tenants-merged";
  compileLayers(Tenants);
  if (Kernels.empty())
    return;
  mergeLayer();

  if (C.Workload == "ratspn-classify") {
    vmLayers(Kernels[0]);
    // The class models merge into one kernel: the indexed engine path.
    runtime::KernelCache Cache;
    std::vector<int32_t> ModelTables;
    std::optional<runtime::CompiledKernel> Merged;
    for (const spn::Model &Model : C.Set.Models) {
      Expected<runtime::KernelCache::MergedKernel> M =
          Cache.getOrCompileMerged(Model, C.Set.Query,
                                   defaultCompilerOptions());
      C.Chk.attempt();
      if (!M) {
        C.Chk.fail("getOrCompileMerged: " + M.getError().message());
        return;
      }
      Merged = M->Kernel;
      ModelTables.push_back(M->TableIndex);
    }
    indexedLayer(*Merged, ModelTables);
    cppLeg(Kernels[0]);
    skip("serving.", "ratspn-classify runs no server");
    skip("merge.cross_model_batch_share", "ratspn-classify runs no server");
    skip("merge.vs_unmerged", "ratspn-classify runs no server");
    return;
  }

  servingLayer(Open, Closed, D->Server->getConfig().NumWorkers);
  indexedLayer(Kernels[0], Tables);
  if (Unmerged) {
    vmLayers(Unmerged->Class0);
    double MergedRate = static_cast<double>(Closed.OkRequests) /
                        (static_cast<double>(Closed.WallNs) * 1e-9);
    set("merge.vs_unmerged", MergedRate / Unmerged->SamplesPerSecond);
  }
  skip("backend.", "the cpp leg runs in ratspn-classify's traced run");
}

/// Every declared metric in order; a missing one must have a skip reason.
Report LayerProbe::finish() {
  Report Out;
  for (const auto &[Name, Unit] : kLayerMetrics) {
    if (const Metric *M = R.find(Name)) {
      Out.set(Name, M->Value, Unit);
      continue;
    }
    const std::string *Reason = nullptr;
    for (const auto &[Prefix, Why] : Skipped)
      if (std::string(Name).rfind(Prefix, 0) == 0)
        Reason = &Why;
    if (Reason)
      std::printf("skip %-40s %s\n", Name, Reason->c_str());
    else
      C.Chk.incorrect(std::string("per-layer metric ") + Name +
                      " was not measured");
    Out.set(Name, 0, Unit);
  }
  return Out;
}

} // namespace

Report perfbench::measureLayers(LayerContext &C, Deployment *D,
                                const PhaseResult &Open,
                                const PhaseResult &Closed,
                                const UnmergedBaseline *Unmerged) {
  LayerProbe Probe(C);
  Probe.run(D, Open, Closed, Unmerged);
  return Probe.finish();
}
