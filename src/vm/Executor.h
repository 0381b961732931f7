//===- Executor.h - Scalar and SIMD bytecode execution engines ---------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution engines for `KernelProgram`s on the CPU:
///
///  * a scalar engine processing one sample at a time (the "No Vec."
///    configuration of Fig. 6);
///  * a data-parallel vector engine processing W samples per step, one
///    vector operation per bytecode instruction (paper §IV-B),
///    configurable in width (W=8 f32 lanes ~ AVX2, W=16 ~ AVX-512),
///    vector-library use and gather-vs-load+shuffle input loading. A
///    remainder runs as one padded W-lane block instead of the paper's
///    scalar epilogue: its lanes past the last row repeat that row and
///    are not stored. Lanes never mix, so a row's bits do not depend on
///    its position in the batch, nor on W.
///
/// Multi-threading follows the paper's runtime design: the batch is split
/// into chunks (chunk size = the user's batch-size hint) and chunks are
/// processed by a thread pool, each with private intermediate buffers.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_VM_EXECUTOR_H
#define SPNC_VM_EXECUTOR_H

#include "runtime/ExecutionEngine.h"
#include "vm/Bytecode.h"

#include <cstddef>
#include <memory>
#include <shared_mutex>
#include <vector>

namespace spnc {

class ThreadPool;

namespace vm {

/// CPU execution configuration (the design space of Fig. 6).
struct ExecutionConfig {
  /// SIMD lanes; 1 selects the scalar engine. Supported: 1, 4, 8, 16.
  unsigned VectorWidth = 1;
  /// Use the vectorized math library (VecMath.h) for exp/log in vector
  /// code; otherwise scalar libm calls are made per lane.
  bool UseVecLib = true;
  /// Load row-major inputs blockwise with a transpose (loads+shuffles)
  /// instead of per-lane strided gather loads.
  bool UseShuffle = true;
  /// Worker threads for chunk-parallel execution.
  unsigned NumThreads = 1;
  /// Chunk size; 0 uses the kernel's batch-size hint.
  uint32_t ChunkSize = 0;
};

/// Executes a compiled kernel program on the CPU. One external input
/// buffer (row-major [sample][feature] doubles) and one external output
/// buffer are supported, matching the kernels the pipeline produces.
/// Implements the unified runtime::ExecutionEngine interface; the engine
/// is immutable after construction and `execute` is thread-safe.
class CpuExecutor : public runtime::ExecutionEngine {
public:
  CpuExecutor(KernelProgram Program, ExecutionConfig Config);
  ~CpuExecutor() override;

  CpuExecutor(const CpuExecutor &) = delete;
  CpuExecutor &operator=(const CpuExecutor &) = delete;

  const KernelProgram *getProgram() const override { return &Program; }
  const ExecutionConfig &getConfig() const { return Config; }
  runtime::Target getTarget() const override {
    return runtime::Target::CPU;
  }
  std::string describe() const override;

  /// Runs the kernel over \p NumSamples samples. \p Output receives one
  /// value per sample and output slot, laid out [slot][sample].
  void execute(const double *Input, double *Output, size_t NumSamples,
               runtime::ExecutionStats *Stats = nullptr) const override;

  /// MPE completion (programs compiled for QueryKind::Mpe): scalar
  /// upward pass per sample followed by the argmax traceback over the
  /// program's plan.
  bool executeMpe(const double *Evidence, double *Assignments,
                  double *LogProbs, size_t NumSamples,
                  runtime::ExecutionStats *Stats = nullptr) const override;

  /// Ancestral sampling (programs compiled for QueryKind::Sample):
  /// scalar upward pass per sample followed by the posterior-weighted
  /// traceback, seeded per sample index.
  bool executeSample(const double *Evidence, double *Samples,
                     size_t NumSamples, uint64_t Seed,
                     runtime::ExecutionStats *Stats = nullptr) const override;

  /// Weight-table support for parameterized (merged-model) programs:
  /// registering a table binds only the program's side tables (one
  /// SideTables slab per task); the code stays shared. executeIndexed
  /// runs the whole batch through the lane engine, rows in any table
  /// order: a block whose rows share a table reads that table's slab,
  /// any other block gathers each lane's parameters from its own slab.
  bool supportsParamTables() const override {
    return Program.Parameterized;
  }
  int32_t addParamTable(const double *Params, size_t NumParams) override;
  bool executeIndexed(const double *Input, const uint32_t *TableIndices,
                      double *Output, size_t NumSamples,
                      runtime::ExecutionStats *Stats = nullptr) const override;

private:
  /// Runs [0, NumSamples) in chunks, on the pool when there is one. With
  /// \p TableIndices row I reads the side tables (*Tables[TableIndices[I]]);
  /// without, every row reads the program's own.
  void executeChunks(const double *Input, double *Output, size_t NumSamples,
                     const uint32_t *TableIndices,
                     const std::vector<SideTables> *const *Tables) const;

  /// One registered weight table: its raw canonical parameters (for
  /// idempotent re-registration) and the program's side tables bound to
  /// them, one slab per task.
  struct BoundTable {
    std::vector<double> Raw;
    std::vector<SideTables> Tasks;
  };

  KernelProgram Program;
  ExecutionConfig Config;
  std::unique_ptr<ThreadPool> Pool;

  /// Registered weight tables, guarded by TablesMutex. The unique_ptr
  /// pointees are stable across vector growth, so executeIndexed
  /// snapshots plain pointers under a shared lock and runs lock-free
  /// afterwards.
  mutable std::shared_mutex TablesMutex;
  std::vector<std::unique_ptr<BoundTable>> Bound;
};

//===----------------------------------------------------------------------===//
// Low-level single-sample execution (shared with the GPU simulator)
//===----------------------------------------------------------------------===//

/// Bound buffer view used by the interpreters. Exactly one of the three
/// pointers is set, matching the buffer's role.
template <typename T>
struct BufferBinding {
  const double *ExternalIn = nullptr;
  double *ExternalOut = nullptr;
  T *Scratch = nullptr;
  uint32_t Columns = 1;
  bool Transposed = true;
  /// Length of the sample dimension used for transposed addressing.
  size_t Stride = 0;
  /// Sample offset of the current chunk within the buffer.
  size_t Offset = 0;
};

/// Executes \p Task for the single chunk-local sample \p SampleIdx using
/// \p Registers (NumRegisters entries), reading constants and leaf
/// parameters from \p Tables (the task itself, or a weight table's bound
/// slab of it). Scalar reference engine; also the per-thread execution
/// model of the GPU simulator.
template <typename T>
void executeSample(const TaskProgram &Task, const SideTables &Tables,
                   const BufferBinding<T> *Buffers, size_t SampleIdx,
                   T *Registers);

extern template void executeSample<float>(const TaskProgram &,
                                          const SideTables &,
                                          const BufferBinding<float> *,
                                          size_t, float *);
extern template void executeSample<double>(const TaskProgram &,
                                           const SideTables &,
                                           const BufferBinding<double> *,
                                           size_t, double *);

} // namespace vm
} // namespace spnc

#endif // SPNC_VM_EXECUTOR_H
