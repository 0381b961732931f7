//===- Executor.cpp - Scalar and SIMD bytecode execution engines --------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "vm/Executor.h"

#include "support/Compiler.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "vm/ParamTable.h"
#include "vm/Traceback.h"
#include "vm/VecMath.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <span>
#include <vector>

using namespace spnc;
using namespace spnc::vm;

// Opaque libm entry points (see VecMath.h). Plain wrappers keep the
// addresses stable regardless of how the standard library spells the
// overloads.
static float libmExpF(float X) { return std::exp(X); }
static float libmLog1pF(float X) { return std::log1p(X); }
static float libmLogF(float X) { return std::log(X); }
static double libmExpD(double X) { return std::exp(X); }
static double libmLog1pD(double X) { return std::log1p(X); }
static double libmLogD(double X) { return std::log(X); }

float (*const volatile spnc::vm::ScalarExpF)(float) = &libmExpF;
float (*const volatile spnc::vm::ScalarLog1pF)(float) = &libmLog1pF;
float (*const volatile spnc::vm::ScalarLogF)(float) = &libmLogF;
double (*const volatile spnc::vm::ScalarExpD)(double) = &libmExpD;
double (*const volatile spnc::vm::ScalarLog1pD)(double) = &libmLog1pD;
double (*const volatile spnc::vm::ScalarLogD)(double) = &libmLogD;

//===----------------------------------------------------------------------===//
// Buffer addressing
//===----------------------------------------------------------------------===//

template <typename T>
static SPNC_ALWAYS_INLINE size_t elementIndex(const BufferBinding<T> &B,
                                              uint32_t Col, size_t I) {
  return B.Transposed
             ? static_cast<size_t>(Col) * B.Stride + B.Offset + I
             : (B.Offset + I) * B.Columns + Col;
}

template <typename T>
static SPNC_ALWAYS_INLINE T loadElement(const BufferBinding<T> &B,
                                        uint32_t Col, size_t I) {
  size_t Idx = elementIndex(B, Col, I);
  if (B.ExternalIn)
    return static_cast<T>(B.ExternalIn[Idx]);
  if (B.Scratch)
    return B.Scratch[Idx];
  return static_cast<T>(B.ExternalOut[Idx]);
}

template <typename T>
static SPNC_ALWAYS_INLINE void storeElement(const BufferBinding<T> &B,
                                            uint32_t Col, size_t I,
                                            T Value) {
  size_t Idx = elementIndex(B, Col, I);
  if (B.Scratch)
    B.Scratch[Idx] = Value;
  else
    B.ExternalOut[Idx] = static_cast<double>(Value);
}

//===----------------------------------------------------------------------===//
// Scalar engine
//===----------------------------------------------------------------------===//

template <typename T>
static SPNC_ALWAYS_INLINE T scalarLogSumExp(T A, T B) {
  T Max = A > B ? A : B;
  if (Max == -std::numeric_limits<T>::infinity())
    return Max;
  T Diff = (A > B ? B : A) - Max;
  return Max + static_cast<T>(
                   std::log1p(std::exp(static_cast<double>(Diff))));
}

template <typename T>
void spnc::vm::executeSample(const TaskProgram &Task,
                             const SideTables &Tables,
                             const BufferBinding<T> *Buffers,
                             size_t SampleIdx, T *Registers) {
  const T NegInf = -std::numeric_limits<T>::infinity();
  (void)NegInf;
  const Instruction *Inst = Task.Code.data();
  const Instruction *End = Inst + Task.Code.size();

#if defined(__GNUC__) || defined(__clang__)
  // Direct-threaded dispatch: one indirect branch per instruction,
  // predicted per-opcode-site instead of through a single shared switch
  // branch. This stands in for the dispatch-free native code the paper's
  // LLVM backend emits.
  static const void *JumpTable[] = {
      &&op_Const,       &&op_Load,          &&op_Store,
      &&op_Add,         &&op_Mul,           &&op_FusedMulAdd,
      &&op_LogSumExp,   &&op_Gaussian,      &&op_GaussianLog,
      &&op_TableLookup, &&op_SelectInRange, &&op_NanBlend,
      &&op_AddN,        &&op_MulN,          &&op_LogSumExpN,
      &&op_Max};
#define SPNC_DISPATCH()                                                     \
  do {                                                                      \
    if (Inst == End)                                                        \
      return;                                                               \
    goto *JumpTable[static_cast<unsigned>((Inst++)->Op)];                   \
  } while (0)
#define SPNC_CASE(name) op_##name:
#define SPNC_INST (Inst[-1])
#define SPNC_NEXT() SPNC_DISPATCH()
  SPNC_DISPATCH();
#else
#define SPNC_CASE(name) case OpCode::name:
#define SPNC_INST (*Inst)
#define SPNC_NEXT() break
  for (; Inst != End; ++Inst) {
    switch (Inst->Op) {
#endif

  SPNC_CASE(Const) {
    const Instruction &I = SPNC_INST;
    Registers[I.Dst] = static_cast<T>(Tables.ConstPool[I.A]);
    SPNC_NEXT();
  }
  SPNC_CASE(Load) {
    const Instruction &I = SPNC_INST;
    const BufferAccess &Access = Task.Loads[I.A];
    Registers[I.Dst] =
        loadElement(Buffers[Access.Buffer], Access.Index, SampleIdx);
    SPNC_NEXT();
  }
  SPNC_CASE(Store) {
    const Instruction &I = SPNC_INST;
    const BufferAccess &Access = Task.Stores[I.A];
    storeElement(Buffers[Access.Buffer], Access.Index, SampleIdx,
                 Registers[I.Dst]);
    SPNC_NEXT();
  }
  SPNC_CASE(Add) {
    const Instruction &I = SPNC_INST;
    Registers[I.Dst] = Registers[I.A] + Registers[I.B];
    SPNC_NEXT();
  }
  SPNC_CASE(Mul) {
    const Instruction &I = SPNC_INST;
    Registers[I.Dst] = Registers[I.A] * Registers[I.B];
    SPNC_NEXT();
  }
  SPNC_CASE(FusedMulAdd) {
    const Instruction &I = SPNC_INST;
    Registers[I.Dst] =
        Registers[I.A] * Registers[I.B] + Registers[I.C];
    SPNC_NEXT();
  }
  SPNC_CASE(LogSumExp) {
    const Instruction &I = SPNC_INST;
    Registers[I.Dst] = scalarLogSumExp(Registers[I.A], Registers[I.B]);
    SPNC_NEXT();
  }
  SPNC_CASE(Gaussian) {
    const Instruction &I = SPNC_INST;
    const GaussianParams &P = Tables.Gaussians[I.B];
    T X = Registers[I.A];
    if (P.SupportMarginal && std::isnan(X)) {
      Registers[I.Dst] = static_cast<T>(P.MarginalValue);
    } else {
      T Norm = (X - static_cast<T>(P.Mean)) * static_cast<T>(P.InvStdDev);
      Registers[I.Dst] =
          static_cast<T>(P.Coefficient) *
          static_cast<T>(std::exp(static_cast<double>(T(-0.5) * Norm * Norm)));
    }
    SPNC_NEXT();
  }
  SPNC_CASE(GaussianLog) {
    const Instruction &I = SPNC_INST;
    const GaussianParams &P = Tables.Gaussians[I.B];
    T X = Registers[I.A];
    if (P.SupportMarginal && std::isnan(X)) {
      Registers[I.Dst] = static_cast<T>(P.MarginalValue);
    } else {
      T Norm = (X - static_cast<T>(P.Mean)) * static_cast<T>(P.InvStdDev);
      Registers[I.Dst] =
          static_cast<T>(P.Coefficient) - T(0.5) * Norm * Norm;
    }
    SPNC_NEXT();
  }
  SPNC_CASE(TableLookup) {
    const Instruction &I = SPNC_INST;
    const LookupTable &Table = Tables.Tables[I.B];
    T X = Registers[I.A];
    if (Table.SupportMarginal && std::isnan(X)) {
      Registers[I.Dst] = static_cast<T>(Table.MarginalValue);
    } else {
      auto Idx = static_cast<int64_t>(
          std::floor(static_cast<double>(X) - Table.Lo));
      Registers[I.Dst] =
          (Idx >= 0 && Idx < static_cast<int64_t>(Table.Values.size()))
              ? static_cast<T>(Table.Values[static_cast<size_t>(Idx)])
              : static_cast<T>(Table.DefaultValue);
    }
    SPNC_NEXT();
  }
  SPNC_CASE(SelectInRange) {
    const Instruction &I = SPNC_INST;
    const SelectRange &Range = Tables.Selects[I.B];
    T X = Registers[I.A];
    // NaN compares false, so marginalized evidence keeps the previously
    // blended value.
    if (X >= static_cast<T>(Range.Lo) && X < static_cast<T>(Range.Hi))
      Registers[I.Dst] = static_cast<T>(Range.Value);
    SPNC_NEXT();
  }
  SPNC_CASE(NanBlend) {
    const Instruction &I = SPNC_INST;
    if (std::isnan(Registers[I.A]))
      Registers[I.Dst] = static_cast<T>(Tables.ConstPool[I.B]);
    SPNC_NEXT();
  }
  SPNC_CASE(AddN) {
    const Instruction &I = SPNC_INST;
    const uint32_t *Args = &Task.Args[I.A];
    T Sum = T(0);
    for (uint32_t N = 0; N < I.B; ++N)
      Sum += Registers[Args[N]];
    Registers[I.Dst] = Sum;
    SPNC_NEXT();
  }
  SPNC_CASE(MulN) {
    const Instruction &I = SPNC_INST;
    const uint32_t *Args = &Task.Args[I.A];
    T Product = T(1);
    for (uint32_t N = 0; N < I.B; ++N)
      Product *= Registers[Args[N]];
    Registers[I.Dst] = Product;
    SPNC_NEXT();
  }
  SPNC_CASE(LogSumExpN) {
    const Instruction &I = SPNC_INST;
    const uint32_t *Args = &Task.Args[I.A];
    T Max = -std::numeric_limits<T>::infinity();
    for (uint32_t N = 0; N < I.B; ++N)
      Max = Registers[Args[N]] > Max ? Registers[Args[N]] : Max;
    if (Max == -std::numeric_limits<T>::infinity()) {
      Registers[I.Dst] = Max;
    } else {
      T Sum = T(0);
      for (uint32_t N = 0; N < I.B; ++N)
        Sum += static_cast<T>(std::exp(
            static_cast<double>(Registers[Args[N]] - Max)));
      Registers[I.Dst] =
          Max + static_cast<T>(std::log(static_cast<double>(Sum)));
    }
    SPNC_NEXT();
  }
  SPNC_CASE(Max) {
    const Instruction &I = SPNC_INST;
    // Ties keep A (the earlier chain element) so that MPE argmax ties
    // resolve to the lowest child index.
    Registers[I.Dst] = Registers[I.A] >= Registers[I.B]
                           ? Registers[I.A]
                           : Registers[I.B];
    SPNC_NEXT();
  }

#if defined(__GNUC__) || defined(__clang__)
#else
    }
  }
#endif
#undef SPNC_DISPATCH
#undef SPNC_CASE
#undef SPNC_INST
#undef SPNC_NEXT
}


template void spnc::vm::executeSample<float>(const TaskProgram &,
                                             const SideTables &,
                                             const BufferBinding<float> *,
                                             size_t, float *);
template void spnc::vm::executeSample<double>(const TaskProgram &,
                                              const SideTables &,
                                              const BufferBinding<double> *,
                                              size_t, double *);

//===----------------------------------------------------------------------===//
// Vector engine
//===----------------------------------------------------------------------===//

namespace {

template <typename V, typename T>
SPNC_ALWAYS_INLINE V loadLanes(const T *Src) {
  V X;
  std::memcpy(&X, Src, sizeof(V));
  return X;
}

template <typename V, typename T>
SPNC_ALWAYS_INLINE void storeLanes(T *Dst, V X) {
  std::memcpy(Dst, &X, sizeof(V));
}

/// Per-block input staging for the loads+shuffles configuration: the W
/// row-major sample rows are transposed once into one lane vector per
/// feature, after which every feature load is a vector copy. Lanes past
/// the block's last valid row repeat that row.
template <typename T, unsigned W>
struct BlockTranspose {
  std::vector<Vec<T, W>> Data; // one vector per column

  void prepare(const BufferBinding<T> &B, size_t Begin, unsigned Valid) {
    Data.resize(B.Columns);
    const double *Rows[W];
    for (unsigned L = 0; L < W; ++L)
      Rows[L] = B.ExternalIn +
                (B.Offset + Begin + std::min(L, Valid - 1)) * B.Columns;
    // Feature-major fill with strided reads: the interpreter-level
    // equivalent of the loads+shuffles register transpose.
    for (uint32_t C = 0; C < B.Columns; ++C)
      Data[C] = makeLanes<Vec<T, W>>(
          [&](unsigned L) { return static_cast<T>(Rows[L][C]); });
  }
};

/// Lane L's copy of a table parameter: \p Get(L) on the gather path,
/// \p Get(0) broadcast otherwise.
template <typename V, bool Gather, typename Fn>
SPNC_ALWAYS_INLINE V laneParam(Fn &&Get) {
  if constexpr (Gather)
    return makeLanes<V>(Get);
  else
    return splat<V>(Get(0));
}

/// Runs \p Task over the W lanes of the block at chunk-local sample
/// \p Begin, one vector operation per instruction. Only the first
/// \p Valid lanes are rows of the chunk: lanes past them read the last
/// valid row of external buffers and are not stored to them. The
/// parameter-reading ops (Const, Gaussian, GaussianLog, TableLookup,
/// SelectInRange, NanBlend) take their side tables from \p Lanes:
/// without \p Gather every lane reads Lanes[0], with it lane L reads
/// Lanes[L]. Both paths run the same arithmetic per lane, so a row
/// computes the same bits in either, at any W and in any lane.
/// Structural fields (ranges, sizes, marginal support) are equal in
/// every slab and are read from Lanes[0].
template <typename T, unsigned W, bool Gather>
void runBlock(const TaskProgram &Task, const SideTables *const *Lanes,
              const BufferBinding<T> *Buffers,
              const BlockTranspose<T, W> *Transposes, size_t Begin,
              unsigned Valid, bool UseVecLib, Vec<T, W> *Regs) {
  using V = Vec<T, W>;
  const V NegInf = splat<V>(-std::numeric_limits<T>::infinity());
  const SideTables &Shared = *Lanes[0];
  // Per-lane table bases, loaded once per block (lane 0 only without
  // Gather).
  const double *LaneConsts[W];
  const GaussianParams *LaneGaussians[W];
  const LookupTable *LaneTables[W];
  const SelectRange *LaneSelects[W];
  for (unsigned L = 0; L < (Gather ? W : 1); ++L) {
    LaneConsts[L] = Lanes[L]->ConstPool.data();
    LaneGaussians[L] = Lanes[L]->Gaussians.data();
    LaneTables[L] = Lanes[L]->Tables.data();
    LaneSelects[L] = Lanes[L]->Selects.data();
  }
  auto Exp = [UseVecLib](V X) { return UseVecLib ? expNeg(X) : libmExp(X); };
  auto Log = [UseVecLib](V X) { return UseVecLib ? logPos(X) : libmLog(X); };
  auto Log1p = [UseVecLib](V X) {
    return UseVecLib ? log1p01(X) : libmLog1p(X);
  };
  // Lanes where X is NaN (x != x) take Value, the others Else.
  auto IfNan = [](V X, V Value, V Else) { return X != X ? Value : Else; };

  // (A - Mean) * InvStdDev and the coefficient of Gaussian \p Idx. The
  // two leaf forms stay separate expressions: a shared Norm * Norm would
  // keep the compiler from fusing the log form's multiply-subtract.
  auto Normalize = [&](V A, uint32_t Idx, V &Coeff) {
    auto Param = [&](double GaussianParams::*Field) {
      return laneParam<V, Gather>([&](unsigned L) {
        return static_cast<T>(LaneGaussians[L][Idx].*Field);
      });
    };
    Coeff = Param(&GaussianParams::Coefficient);
    return (A - Param(&GaussianParams::Mean)) *
           Param(&GaussianParams::InvStdDev);
  };
  // Gaussian \p Idx's value R, or its marginal value on NaN evidence X.
  auto Marginal = [&](uint32_t Idx, V X, V R) {
    const GaussianParams &P = Shared.Gaussians[Idx];
    return P.SupportMarginal
               ? IfNan(X, splat<V>(static_cast<T>(P.MarginalValue)), R)
               : R;
  };

  for (const Instruction &Inst : Task.Code) {
    V &D = Regs[Inst.Dst];
    switch (Inst.Op) {
    case OpCode::Const:
      D = laneParam<V, Gather>(
          [&](unsigned L) { return static_cast<T>(LaneConsts[L][Inst.A]); });
      break;
    case OpCode::Load: {
      const BufferAccess &Access = Task.Loads[Inst.A];
      const BufferBinding<T> &B = Buffers[Access.Buffer];
      if (B.Transposed && B.Scratch) {
        // Transposed intermediates hold whole padded blocks.
        D = loadLanes<V>(B.Scratch + elementIndex(B, Access.Index, Begin));
      } else if (B.Transposed && Valid == W) {
        const double *Src = (B.ExternalIn ? B.ExternalIn : B.ExternalOut) +
                            elementIndex(B, Access.Index, Begin);
        D = __builtin_convertvector(loadLanes<Vec<double, W>>(Src), V);
      } else if (Transposes && !Transposes[Access.Buffer].Data.empty()) {
        D = Transposes[Access.Buffer].Data[Access.Index];
      } else {
        // Strided, or a partial block: one clamped load per lane.
        D = makeLanes<V>([&](unsigned L) {
          return loadElement(B, Access.Index, Begin + std::min(L, Valid - 1));
        });
      }
      break;
    }
    case OpCode::Store: {
      const BufferAccess &Access = Task.Stores[Inst.A];
      const BufferBinding<T> &B = Buffers[Access.Buffer];
      if (B.Transposed && B.Scratch)
        storeLanes(B.Scratch + elementIndex(B, Access.Index, Begin), D);
      else
        for (unsigned L = 0; L < Valid; ++L)
          storeElement(B, Access.Index, Begin + L, D[L]);
      break;
    }
    case OpCode::Add:
      D = Regs[Inst.A] + Regs[Inst.B];
      break;
    case OpCode::Mul:
      D = Regs[Inst.A] * Regs[Inst.B];
      break;
    case OpCode::FusedMulAdd:
      D = Regs[Inst.A] * Regs[Inst.B] + Regs[Inst.C];
      break;
    case OpCode::Max: {
      // Ties keep A (the earlier chain element): MPE argmax ties resolve
      // to the lowest child index.
      V A = Regs[Inst.A], B = Regs[Inst.B];
      D = A >= B ? A : B;
      break;
    }
    case OpCode::LogSumExp: {
      // max + log1p(exp(min - max)), min - max guarded against
      // (-inf) - (-inf) = NaN.
      V A = Regs[Inst.A], B = Regs[Inst.B];
      V Max = A > B ? A : B;
      V Diff = (A > B ? B : A) - Max;
      V Sum = Log1p(Exp(IfNan(Diff, NegInf, Diff)));
      D = Max == NegInf ? NegInf : Max + Sum;
      break;
    }
    case OpCode::LogSumExpN: {
      const uint32_t *Args = &Task.Args[Inst.A];
      V Max = NegInf;
      for (uint32_t N = 0; N < Inst.B; ++N) {
        V A = Regs[Args[N]];
        Max = A > Max ? A : Max;
      }
      V Sum{};
      for (uint32_t N = 0; N < Inst.B; ++N) {
        V Diff = Regs[Args[N]] - Max;
        Sum += Exp(IfNan(Diff, NegInf, Diff));
      }
      D = Max == NegInf ? NegInf : Max + Log(Sum);
      break;
    }
    case OpCode::AddN: {
      const uint32_t *Args = &Task.Args[Inst.A];
      V Sum{};
      for (uint32_t N = 0; N < Inst.B; ++N)
        Sum += Regs[Args[N]];
      D = Sum;
      break;
    }
    case OpCode::MulN: {
      const uint32_t *Args = &Task.Args[Inst.A];
      V Product = splat<V>(T(1));
      for (uint32_t N = 0; N < Inst.B; ++N)
        Product *= Regs[Args[N]];
      D = Product;
      break;
    }
    case OpCode::Gaussian: {
      V A = Regs[Inst.A], Coeff;
      V Norm = Normalize(A, Inst.B, Coeff);
      D = Marginal(Inst.B, A, Coeff * Exp(T(-0.5) * Norm * Norm));
      break;
    }
    case OpCode::GaussianLog: {
      V A = Regs[Inst.A], Coeff;
      V Norm = Normalize(A, Inst.B, Coeff);
      D = Marginal(Inst.B, A, Coeff - T(0.5) * Norm * Norm);
      break;
    }
    case OpCode::TableLookup: {
      const LookupTable &Table = Shared.Tables[Inst.B];
      const auto Size = static_cast<int64_t>(Table.Values.size());
      V A = Regs[Inst.A];
      D = makeLanes<V>([&](unsigned L) {
        if (Table.SupportMarginal && std::isnan(A[L]))
          return static_cast<T>(Table.MarginalValue);
        const double *Values =
            LaneTables[Gather ? L : 0][Inst.B].Values.data();
        auto Idx = static_cast<int64_t>(
            std::floor(static_cast<double>(A[L]) - Table.Lo));
        return (Idx >= 0 && Idx < Size)
                   ? static_cast<T>(Values[static_cast<size_t>(Idx)])
                   : static_cast<T>(Table.DefaultValue);
      });
      break;
    }
    case OpCode::SelectInRange: {
      // NaN compares false, so marginalized evidence keeps the previously
      // blended value.
      const SelectRange &Range = Shared.Selects[Inst.B];
      V A = Regs[Inst.A];
      V Value = laneParam<V, Gather>([&](unsigned L) {
        return static_cast<T>(LaneSelects[L][Inst.B].Value);
      });
      D = (A >= static_cast<T>(Range.Lo)) & (A < static_cast<T>(Range.Hi))
              ? Value
              : D;
      break;
    }
    case OpCode::NanBlend:
      D = IfNan(Regs[Inst.A],
                laneParam<V, Gather>([&](unsigned L) {
                  return static_cast<T>(LaneConsts[L][Inst.B]);
                }),
                D);
      break;
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// CpuExecutor
//===----------------------------------------------------------------------===//

CpuExecutor::CpuExecutor(KernelProgram TheProgram,
                         ExecutionConfig TheConfig)
    : Program(std::move(TheProgram)), Config(TheConfig) {
  assert((Config.VectorWidth == 1 || Config.VectorWidth == 4 ||
          Config.VectorWidth == 8 || Config.VectorWidth == 16) &&
         "unsupported vector width");
  assert(Program.NumInputs == 1 && Program.NumOutputs == 1 &&
         "executor supports kernels with one input and one output buffer");
  if (Config.NumThreads > 1)
    Pool = std::make_unique<ThreadPool>(Config.NumThreads);
}

CpuExecutor::~CpuExecutor() = default;

void CpuExecutor::execute(const double *Input, double *Output,
                          size_t NumSamples,
                          runtime::ExecutionStats *Stats) const {
  Timer WallTimer;
  executeChunks(Input, Output, NumSamples, nullptr, nullptr);
  if (Stats) {
    *Stats = runtime::ExecutionStats();
    Stats->WallNs = WallTimer.elapsedNs();
    Stats->NumSamples = NumSamples;
  }
}

std::string CpuExecutor::describe() const {
  std::string Desc = Config.VectorWidth <= 1
                         ? "cpu scalar"
                         : "cpu simd w=" +
                               std::to_string(Config.VectorWidth);
  if (Config.VectorWidth > 1) {
    Desc += Config.UseVecLib ? ", veclib" : ", libm";
    Desc += Config.UseShuffle ? ", shuffle" : ", gather";
  }
  if (Config.NumThreads > 1)
    Desc += ", threads=" + std::to_string(Config.NumThreads);
  return Desc;
}

namespace {

/// The weight tables of an indexed chunk: chunk-local row R runs task
/// Task under (*Tables[Index[R]])[Task], that task's side tables bound
/// to the row's table.
struct RowTables {
  const uint32_t *Index = nullptr;
  const std::vector<SideTables> *const *Tables = nullptr;

  const SideTables *get(size_t Row, size_t Task) const {
    return &(*Tables[Index[Row]])[Task];
  }
};

/// Runs task \p TaskIdx over chunk-local samples [0, ChunkLen) in blocks
/// of W lanes. A remainder runs as one padded block: its lanes past the
/// last row repeat that row (and that row's table), and only its valid
/// lanes are stored. Lanes never mix, so a row's bits do not depend on
/// its position in the batch. Without \p Indexed every row reads the
/// task's own side tables. With it, a block whose lanes share one table
/// runs the broadcast path on that table's slab and any other block
/// gathers per lane.
template <typename T, unsigned W, bool Indexed>
void runTask(const KernelProgram &Program, size_t TaskIdx,
             BufferBinding<T> *Bindings,
             std::vector<BlockTranspose<T, W>> &Transposes,
             const RowTables &Rows, size_t ChunkLen, bool UseVecLib,
             Vec<T, W> *Regs) {
  const TaskProgram &Task = Program.Tasks[TaskIdx];
  const BlockTranspose<T, W> *Staged =
      Transposes.empty() ? nullptr : Transposes.data();
  for (size_t Begin = 0; Begin < ChunkLen; Begin += W) {
    auto Valid = static_cast<unsigned>(std::min<size_t>(W, ChunkLen - Begin));
    // Stage row-major inputs blockwise for the loads+shuffles path.
    for (size_t I = 0; I < Transposes.size(); ++I)
      if (!Program.Buffers[I].Transposed && Bindings[I].ExternalIn)
        Transposes[I].prepare(Bindings[I], Begin, Valid);
    if constexpr (!Indexed) {
      const SideTables *Own = &Task;
      runBlock<T, W, false>(Task, &Own, Bindings, Staged, Begin, Valid,
                            UseVecLib, Regs);
    } else {
      const SideTables *Lanes[W];
      bool Uniform = true;
      for (unsigned L = 0; L < W; ++L) {
        Lanes[L] = Rows.get(Begin + std::min(L, Valid - 1), TaskIdx);
        Uniform &= Lanes[L] == Lanes[0];
      }
      if (Uniform)
        runBlock<T, W, false>(Task, Lanes, Bindings, Staged, Begin, Valid,
                              UseVecLib, Regs);
      else
        runBlock<T, W, true>(Task, Lanes, Bindings, Staged, Begin, Valid,
                             UseVecLib, Regs);
    }
  }
}

template <typename T, bool Indexed>
void runChunkTyped(const KernelProgram &Program,
                   const ExecutionConfig &Config, const double *Input,
                   double *Output, size_t TotalSamples, size_t Begin,
                   size_t End, RowTables Rows) {
  size_t ChunkLen = End - Begin;
  unsigned W = std::max(Config.VectorWidth, 1u);
  // Intermediates hold whole blocks, the padded one included.
  size_t Padded = (ChunkLen + W - 1) / W * W;

  // Bind buffers; intermediates are chunk-private.
  std::vector<BufferBinding<T>> Bindings(Program.Buffers.size());
  std::vector<std::vector<T>> Intermediates(Program.Buffers.size());
  for (size_t I = 0; I < Program.Buffers.size(); ++I) {
    const BufferInfo &Info = Program.Buffers[I];
    BufferBinding<T> &B = Bindings[I];
    B.Columns = Info.Columns;
    B.Transposed = Info.Transposed;
    switch (Info.Role) {
    case BufferInfo::Kind::Input:
      B.ExternalIn = Input;
      B.Stride = TotalSamples;
      B.Offset = Begin;
      break;
    case BufferInfo::Kind::Output:
      B.ExternalOut = Output;
      B.Stride = TotalSamples;
      B.Offset = Begin;
      break;
    case BufferInfo::Kind::Intermediate:
      Intermediates[I].resize(static_cast<size_t>(Info.Columns) * Padded);
      B.Scratch = Intermediates[I].data();
      B.Stride = Padded;
      B.Offset = 0;
      break;
    }
  }

  uint32_t MaxRegs = 0;
  for (const TaskProgram &Task : Program.Tasks)
    MaxRegs = std::max(MaxRegs, Task.NumRegisters);

  // Buffer-to-buffer copy (only emitted with copy avoidance disabled).
  auto RunCopy = [&](const KernelStep &Step) {
    const BufferBinding<T> &Src = Bindings[Step.CopySrc];
    const BufferBinding<T> &Dst = Bindings[Step.CopyDst];
    for (uint32_t Col = 0; Col < Src.Columns; ++Col)
      for (size_t I = 0; I < ChunkLen; ++I)
        storeElement(Dst, Col, I, loadElement(Src, Col, I));
  };

  if constexpr (Indexed)
    Rows.Index += Begin;
  if (W == 1) {
    std::vector<T> Registers(MaxRegs);
    for (const KernelStep &Step : Program.Steps) {
      if (Step.Task < 0) {
        RunCopy(Step);
        continue;
      }
      const TaskProgram &Task = Program.Tasks[Step.Task];
      for (size_t I = 0; I < ChunkLen; ++I) {
        const SideTables *Tables = &Task;
        if constexpr (Indexed)
          Tables = Rows.get(I, Step.Task);
        executeSample(Task, *Tables, Bindings.data(), I, Registers.data());
      }
    }
    return;
  }

  auto RunSteps = [&](auto WidthTag) {
    constexpr unsigned BW = decltype(WidthTag)::value;
    std::vector<Vec<T, BW>> Registers(MaxRegs);
    std::vector<BlockTranspose<T, BW>> Transposes(
        Config.UseShuffle ? Program.Buffers.size() : 0);
    for (const KernelStep &Step : Program.Steps) {
      if (Step.Task < 0)
        RunCopy(Step);
      else
        runTask<T, BW, Indexed>(Program, Step.Task, Bindings.data(),
                                Transposes, Rows, ChunkLen,
                                Config.UseVecLib, Registers.data());
    }
  };
  switch (W) {
  case 4:
    RunSteps(std::integral_constant<unsigned, 4>{});
    break;
  case 8:
    RunSteps(std::integral_constant<unsigned, 8>{});
    break;
  case 16:
    RunSteps(std::integral_constant<unsigned, 16>{});
    break;
  default:
    spnc_unreachable("unsupported vector width");
  }
}

template <bool Indexed>
void runChunk(const KernelProgram &Program, const ExecutionConfig &Config,
              const double *Input, double *Output, size_t TotalSamples,
              size_t Begin, size_t End, RowTables Rows) {
  if (Program.UseF32)
    runChunkTyped<float, Indexed>(Program, Config, Input, Output,
                                  TotalSamples, Begin, End, Rows);
  else
    runChunkTyped<double, Indexed>(Program, Config, Input, Output,
                                   TotalSamples, Begin, End, Rows);
}

} // namespace

void CpuExecutor::executeChunks(
    const double *Input, double *Output, size_t NumSamples,
    const uint32_t *TableIndices,
    const std::vector<SideTables> *const *Tables) const {
  auto Run = [this, Input, Output, NumSamples, TableIndices,
              Tables](size_t Begin, size_t End) {
    if (TableIndices)
      runChunk<true>(Program, Config, Input, Output, NumSamples, Begin, End,
                     {TableIndices, Tables});
    else
      runChunk<false>(Program, Config, Input, Output, NumSamples, Begin,
                      End, {});
  };
  if (!Pool) {
    Run(0, NumSamples);
    return;
  }
  size_t Chunk = Config.ChunkSize ? Config.ChunkSize : Program.BatchSize;
  if (Chunk == 0)
    Chunk = NumSamples;
  for (size_t Begin = 0; Begin < NumSamples; Begin += Chunk) {
    size_t End = std::min(NumSamples, Begin + Chunk);
    Pool->submit([Run, Begin, End] { Run(Begin, End); });
  }
  Pool->wait();
}

//===----------------------------------------------------------------------===//
// Weight tables (parameterized / merged-model programs, docs/merging.md)
//===----------------------------------------------------------------------===//

int32_t CpuExecutor::addParamTable(const double *Params,
                                   size_t NumParams) {
  if (!Program.Parameterized || NumParams != Program.NumParams)
    return -1;
  std::span<const double> Raw(Params, NumParams);
  auto Table = std::make_unique<BoundTable>();
  Table->Raw.assign(Raw.begin(), Raw.end());
  Table->Tasks.reserve(Program.Tasks.size());
  for (const TaskProgram &Task : Program.Tasks)
    Table->Tasks.push_back(bindTaskParams(Task, Raw));
  std::unique_lock<std::shared_mutex> Lock(TablesMutex);
  // Idempotent by exact content: a model re-registered after a cache hit
  // gets its old index back.
  for (size_t I = 0; I < Bound.size(); ++I)
    if (std::ranges::equal(Bound[I]->Raw, Raw))
      return static_cast<int32_t>(I);
  Bound.push_back(std::move(Table));
  return static_cast<int32_t>(Bound.size() - 1);
}

bool CpuExecutor::executeIndexed(const double *Input,
                                 const uint32_t *TableIndices,
                                 double *Output, size_t NumSamples,
                                 runtime::ExecutionStats *Stats) const {
  if (!Program.Parameterized)
    return false;
  Timer WallTimer;
  std::vector<const std::vector<SideTables> *> Tables;
  {
    std::shared_lock<std::shared_mutex> Lock(TablesMutex);
    Tables.reserve(Bound.size());
    for (const std::unique_ptr<BoundTable> &Table : Bound)
      Tables.push_back(&Table->Tasks);
  }
  for (size_t I = 0; I < NumSamples; ++I)
    if (TableIndices[I] >= Tables.size())
      return false;
  executeChunks(Input, Output, NumSamples, TableIndices, Tables.data());
  if (Stats) {
    *Stats = runtime::ExecutionStats();
    Stats->WallNs = WallTimer.elapsedNs();
    Stats->NumSamples = NumSamples;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// MPE / ancestral sampling (upward pass + downward traceback)
//===----------------------------------------------------------------------===//

namespace {

/// Runs the upward pass and the downward traceback per sample over the
/// whole batch. \p UpOut receives the root (log-)probability per sample;
/// \p Rows the completed feature rows. Single-task programs only (the
/// pipeline never partitions MPE/sampling kernels).
template <typename T>
void runQueryBatch(const KernelProgram &Program, QueryKind Kind,
                   const double *Evidence, double *Rows, double *UpOut,
                   size_t NumSamples, uint64_t Seed) {
  const TaskProgram &Task = Program.Tasks[0];
  std::vector<BufferBinding<T>> Bindings(Program.Buffers.size());
  uint32_t NumFeatures = 1;
  for (size_t I = 0; I < Program.Buffers.size(); ++I) {
    const BufferInfo &Info = Program.Buffers[I];
    BufferBinding<T> &B = Bindings[I];
    B.Columns = Info.Columns;
    B.Transposed = Info.Transposed;
    B.Stride = NumSamples;
    B.Offset = 0;
    if (Info.Role == BufferInfo::Kind::Input) {
      B.ExternalIn = Evidence;
      NumFeatures = Info.Columns;
    } else {
      B.ExternalOut = UpOut;
    }
  }

  std::vector<T> Registers(Task.NumRegisters);
  std::vector<int32_t> Stack;
  for (size_t I = 0; I < NumSamples; ++I) {
    executeSample(Task, Task, Bindings.data(), I, Registers.data());
    const double *Row = Evidence + I * NumFeatures;
    double *OutRow = Rows + I * NumFeatures;
    // Pre-fill with the evidence so features outside the model's scope
    // still echo their observed values (NaN when unobserved).
    for (uint32_t F = 0; F < NumFeatures; ++F)
      OutRow[F] = Row[F];
    Rng R(perSampleSeed(Seed, I));
    runTraceback(Program.Plan, Registers.data(), Row, OutRow,
                 Program.LogSpace, Kind, R, Stack);
  }
}

} // namespace

bool CpuExecutor::executeMpe(const double *Evidence, double *Assignments,
                             double *LogProbs, size_t NumSamples,
                             runtime::ExecutionStats *Stats) const {
  if (Program.Query != QueryKind::Mpe || Program.Plan.empty() ||
      Program.Tasks.size() != 1)
    return false;
  Timer WallTimer;
  std::vector<double> UpStorage;
  double *Up = LogProbs;
  if (!Up) {
    UpStorage.resize(NumSamples);
    Up = UpStorage.data();
  }
  if (Program.UseF32)
    runQueryBatch<float>(Program, QueryKind::Mpe, Evidence, Assignments,
                         Up, NumSamples, 0);
  else
    runQueryBatch<double>(Program, QueryKind::Mpe, Evidence, Assignments,
                          Up, NumSamples, 0);
  // The engine contract reports log-probabilities even when the program
  // computes in linear space.
  if (LogProbs && !Program.LogSpace)
    for (size_t I = 0; I < NumSamples; ++I)
      LogProbs[I] = std::log(LogProbs[I]);
  if (Stats) {
    *Stats = runtime::ExecutionStats();
    Stats->WallNs = WallTimer.elapsedNs();
    Stats->NumSamples = NumSamples;
  }
  return true;
}

bool CpuExecutor::executeSample(const double *Evidence, double *Samples,
                                size_t NumSamples, uint64_t Seed,
                                runtime::ExecutionStats *Stats) const {
  if (Program.Query != QueryKind::Sample || Program.Plan.empty() ||
      Program.Tasks.size() != 1)
    return false;
  Timer WallTimer;
  std::vector<double> UpStorage(NumSamples);
  if (Program.UseF32)
    runQueryBatch<float>(Program, QueryKind::Sample, Evidence, Samples,
                         UpStorage.data(), NumSamples, Seed);
  else
    runQueryBatch<double>(Program, QueryKind::Sample, Evidence, Samples,
                          UpStorage.data(), NumSamples, Seed);
  if (Stats) {
    *Stats = runtime::ExecutionStats();
    Stats->WallNs = WallTimer.elapsedNs();
    Stats->NumSamples = NumSamples;
  }
  return true;
}
