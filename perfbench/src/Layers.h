//===- Layers.h - Per-layer probes of the traced run --------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer numbers, each taken by timing a call into
/// one layer's public functions from here, or read from the stats struct
/// that call returns (CompileStats, KernelCache::Stats, ServerStats).
/// Layer names follow the modules under src/. A layer that does no work
/// on the workload reports 0 and prints why.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_PERFBENCH_LAYERS_H
#define SPNC_PERFBENCH_LAYERS_H

#include "Report.h"
#include "Serving.h"
#include "Trace.h"
#include "Workloads.h"

#include <string>

namespace perfbench {

struct LayerContext {
  const std::string &Workload;
  const ModelSet &Set;
  Tracer &T;
  Check &Chk;
  ExactCounts &Exact;
  /// Scratch directory for the cpp leg's sources and shared objects
  /// (removed afterwards); empty lets the backend pick a temporary one.
  std::string CppWorkDir;
};

/// tenants-merged's comparison point: the same closed-loop traffic
/// through a server with MergeModels off, and that server's class-0
/// kernel.
struct UnmergedBaseline {
  double SamplesPerSecond = 0;
  spnc::runtime::CompiledKernel Class0;
};

/// Runs the per-layer probes for the workload. \p D, \p Open and
/// \p Closed are the traced serving pass (null / empty on
/// ratspn-classify). Returns every per-layer metric except the
/// trace_overhead.* ones, in declaration order.
Report measureLayers(LayerContext &C, Deployment *D, const PhaseResult &Open,
                     const PhaseResult &Closed,
                     const UnmergedBaseline *Unmerged);

} // namespace perfbench

#endif // SPNC_PERFBENCH_LAYERS_H
