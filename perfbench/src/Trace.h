//===- Trace.h - In-memory span recorder for the benchmark runner -------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around its calls into the spnc layers:
/// name, start, end, parent span and request id. Spans stay in memory and
/// are written once, at exit, as Chrome trace-event JSON (the format
/// Perfetto and chrome://tracing open), so spans recorded inside the
/// program can later nest in the same file. A disabled tracer records
/// nothing; its cost is one branch per span.
///
/// Spans are recorded from one thread (the benchmark's generator thread);
/// the recorder is not thread-safe.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_PERFBENCH_TRACE_H
#define SPNC_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// One recorded interval. Parent is the index of the enclosing span plus
/// one (0 = a root span); RequestId is 0 when the span belongs to no
/// request.
struct Span {
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint32_t Parent = 0;
  uint64_t RequestId = 0;
};

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  /// Opens a span nested in the innermost open one. Returns its handle
  /// (0 when disabled).
  uint32_t begin(const char *Name, uint64_t RequestId = 0) {
    if (!Enabled)
      return 0;
    Spans.push_back({Name, nowNs(), 0, Open.empty() ? 0 : Open.back(),
                     RequestId});
    uint32_t Handle = static_cast<uint32_t>(Spans.size());
    Open.push_back(Handle);
    return Handle;
  }

  void end(uint32_t Handle) {
    if (!Enabled || Handle == 0)
      return;
    Spans[Handle - 1].EndNs = nowNs();
    while (!Open.empty() && Open.back() >= Handle)
      Open.pop_back();
  }

  /// Records an already-finished interval under the innermost open span
  /// (used for request lifetimes that end inside the server).
  void record(const char *Name, uint64_t StartNs, uint64_t EndNs,
              uint64_t RequestId) {
    if (Enabled)
      Spans.push_back({Name, StartNs, EndNs,
                       Open.empty() ? 0 : Open.back(), RequestId});
  }

  /// Per span name: count, total duration and self time (duration minus
  /// the part of it that child spans cover).
  struct Summary {
    uint64_t Count = 0;
    uint64_t TotalNs = 0;
    uint64_t SelfNs = 0;
  };
  std::map<std::string, Summary> summarize() const;

  /// Writes every span as a Chrome "complete" event ("ph":"X"),
  /// timestamps in microseconds relative to the first span. Returns false
  /// when the file cannot be written.
  bool writeChromeTrace(const std::string &Path) const;

private:
  bool Enabled;
  std::vector<Span> Spans;
  std::vector<uint32_t> Open;
};

/// RAII span.
class Scoped {
public:
  Scoped(Tracer &T, const char *Name, uint64_t RequestId = 0)
      : T(T), Handle(T.begin(Name, RequestId)) {}
  ~Scoped() { T.end(Handle); }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  Tracer &T;
  uint32_t Handle;
};

} // namespace perfbench

#endif // SPNC_PERFBENCH_TRACE_H
