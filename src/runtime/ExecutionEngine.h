//===- ExecutionEngine.h - Unified kernel execution interface -----------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one interface every way of running an SPN inference implements:
/// the compiled CPU executors (vm::CpuExecutor), the simulated GPU device
/// (gpusim::GpuExecutor) and the baseline adapters
/// (baselines::InterpreterEngine / baselines::TfGraphEngine). Target
/// selection happens exactly once — when the concrete engine is
/// constructed — and execution statistics are returned per call, so one
/// engine instance can safely serve concurrent callers.
///
/// This header is layer-neutral by design: it is header-only (no link
/// dependency) and depends only on the bytecode types and the plain GPU
/// stats struct, so layers both below the runtime driver (vm, gpusim) and
/// above it (baselines) can implement the interface.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_RUNTIME_EXECUTIONENGINE_H
#define SPNC_RUNTIME_EXECUTIONENGINE_H

#include "gpusim/GpuStats.h"
#include "vm/Bytecode.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace spnc {
namespace runtime {

/// Compilation / execution target. `Auto` defers the decision: compiling
/// with Auto selects the CPU, loading a saved kernel with Auto selects
/// the engine the kernel was lowered for (see loadCompiledKernel).
enum class Target { Auto, CPU, GPU };

/// Returns a human-readable target name ("cpu", "gpu", "auto").
inline const char *targetName(Target TheTarget) {
  switch (TheTarget) {
  case Target::Auto:
    return "auto";
  case Target::CPU:
    return "cpu";
  case Target::GPU:
    return "gpu";
  }
  return "<invalid>";
}

/// Per-call execution statistics. Filled by ExecutionEngine::execute when
/// the caller passes a non-null pointer; engines never retain mutable
/// per-call state, which keeps execute() safe to call from many threads.
struct ExecutionStats {
  /// Measured host wall clock of the call.
  uint64_t WallNs = 0;
  /// Number of samples processed by the call.
  size_t NumSamples = 0;
  /// True when `Gpu` carries a simulated device-time breakdown (only the
  /// GPU engine sets this).
  bool HasGpuStats = false;
  /// Simulated device-time breakdown of the call (paper Fig. 9).
  gpusim::GpuExecutionStats Gpu;
};

/// Static per-sample work accounting, available for *every* engine —
/// including the baseline adapters, which have no compiled program.
/// Benches use this instead of special-casing `getProgram()`-less
/// engines when normalizing by work performed.
struct EngineAccounting {
  /// Work units evaluated per sample: bytecode instructions for
  /// compiled programs, SPN node evaluations for the baseline engines.
  size_t NumInstructions = 0;
  /// Task count of the compiled program, or 1 for the single-pass
  /// baseline engines.
  size_t NumTasks = 0;
  /// True when the counts come from a compiled vm::KernelProgram;
  /// false when they are model-derived estimates (baselines).
  bool Compiled = false;
};

/// Abstract execution engine: runs inference over a batch of samples.
/// Implementations must be immutable after construction so that
/// `execute` can be invoked concurrently.
class ExecutionEngine {
public:
  virtual ~ExecutionEngine() = default;

  /// Runs inference on \p NumSamples samples (row-major
  /// [sample][feature] doubles). \p Output receives one (log-)probability
  /// per sample. Fills \p Stats with per-call statistics when provided.
  /// Thread-safe: concurrent calls on one engine are allowed. Never
  /// fails; input shape correctness is the caller's contract.
  virtual void execute(const double *Input, double *Output,
                       size_t NumSamples,
                       ExecutionStats *Stats = nullptr) const = 0;

  /// Runs MPE (most probable explanation) completion on \p NumSamples
  /// evidence rows (row-major [sample][feature] doubles, NaN =
  /// unobserved). \p Assignments receives the completed rows in the same
  /// layout; \p LogProbs (optional) one log-probability of the completed
  /// assignment per sample. Returns false when this engine does not
  /// serve MPE (it was not compiled for QueryKind::Mpe, or the engine
  /// kind has no traceback support); no output is written then.
  /// Thread-safe like execute().
  virtual bool executeMpe(const double *Evidence, double *Assignments,
                          double *LogProbs, size_t NumSamples,
                          ExecutionStats *Stats = nullptr) const {
    (void)Evidence;
    (void)Assignments;
    (void)LogProbs;
    (void)NumSamples;
    (void)Stats;
    return false;
  }

  /// Draws \p NumSamples ancestral samples conditioned on the evidence
  /// rows (NaN = unobserved/to-be-sampled; pass all-NaN rows for
  /// unconditional sampling). \p Samples receives the completed rows.
  /// Sample I depends only on \p Seed and I (docs/queries.md), so a
  /// fixed seed is reproducible per engine regardless of batching.
  /// Returns false when this engine does not serve sampling. Thread-safe
  /// like execute().
  virtual bool executeSample(const double *Evidence, double *Samples,
                             size_t NumSamples, uint64_t Seed,
                             ExecutionStats *Stats = nullptr) const {
    (void)Evidence;
    (void)Samples;
    (void)NumSamples;
    (void)Seed;
    (void)Stats;
    return false;
  }

  /// Weight-table support (merged-model serving, docs/merging.md): true
  /// when this engine runs a parameterized program and can rebind its
  /// tunable slots per model via addParamTable / executeIndexed.
  virtual bool supportsParamTables() const { return false; }

  /// Registers a per-model weight table: \p Params is the raw canonical
  /// parameter vector (merge::extractParams order, length must match the
  /// program's NumParams). Returns the table index for executeIndexed,
  /// or -1 when this engine has no table support or the length is wrong.
  /// Idempotent: registering identical content returns the existing
  /// index. The one sanctioned mutation after construction — safe to
  /// call concurrently with execute()/executeIndexed().
  virtual int32_t addParamTable(const double *Params, size_t NumParams) {
    (void)Params;
    (void)NumParams;
    return -1;
  }

  /// Cross-model batch execution: like execute(), but row I is evaluated
  /// under the weight table \p TableIndices[I] (indices from
  /// addParamTable), in any table order. Engines without a per-lane
  /// table gather (the cpp backend) split the batch into maximal
  /// equal-index runs, so grouped rows run faster there. Returns false
  /// (writing nothing) when tables are unsupported or an index is
  /// unknown. Thread-safe like execute().
  virtual bool executeIndexed(const double *Input,
                              const uint32_t *TableIndices, double *Output,
                              size_t NumSamples,
                              ExecutionStats *Stats = nullptr) const {
    (void)Input;
    (void)TableIndices;
    (void)Output;
    (void)NumSamples;
    (void)Stats;
    return false;
  }

  /// The compiled program backing this engine, or null for engines that
  /// evaluate a model directly (the baseline adapters). The returned
  /// pointer is owned by the engine and valid for its lifetime.
  /// Thread-safe.
  virtual const vm::KernelProgram *getProgram() const { return nullptr; }

  /// Static work accounting for this engine. The default derives the
  /// counts from `getProgram()`; engines without a compiled program
  /// (the baseline adapters) override this with model-derived counts,
  /// so callers never need to special-case them. Thread-safe.
  virtual EngineAccounting getAccounting() const {
    EngineAccounting Accounting;
    if (const vm::KernelProgram *Program = getProgram()) {
      Accounting.Compiled = true;
      Accounting.NumTasks = Program->Tasks.size();
      for (const vm::TaskProgram &Task : Program->Tasks)
        Accounting.NumInstructions += Task.Code.size();
    }
    return Accounting;
  }

  /// The target this engine executes on. Thread-safe; constant for the
  /// engine's lifetime.
  virtual Target getTarget() const = 0;

  /// One-line human-readable description (engine kind + configuration).
  /// Thread-safe.
  virtual std::string describe() const = 0;
};

} // namespace runtime
} // namespace spnc

#endif // SPNC_RUNTIME_EXECUTIONENGINE_H
