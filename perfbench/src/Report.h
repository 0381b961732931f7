//===- Report.h - Metrics, oracle checks and exact-repeat counts --------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What one benchmark run reports: named metrics with units, the count of
/// operations attempted and failed (a failed operation is a compile or
/// request that did not succeed, or an output outside the interpreter
/// oracle's bound), and the counts that must repeat exactly at a fixed
/// seed.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_PERFBENCH_REPORT_H
#define SPNC_PERFBENCH_REPORT_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Metrics in insertion order; adding a name again replaces its value.
class Report {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  const Metric *find(const std::string &Name) const;
  const std::vector<Metric> &metrics() const { return Items; }

private:
  std::vector<Metric> Items;
};

/// Counts attempted and failed operations; keeps the first few failure
/// messages for the log.
class Check {
public:
  void attempt(uint64_t N = 1) { Attempted += N; }
  void fail(const std::string &Why);
  /// A mismatch that invalidates the run's outputs (not just a failed
  /// operation).
  void incorrect(const std::string &Why);

  void nearTie() { ++NearTies; }

  uint64_t attempted() const { return Attempted; }
  uint64_t nearTies() const { return NearTies; }
  uint64_t failed() const { return Failed; }
  bool correct() const { return Correct; }
  const std::vector<std::string> &messages() const { return Messages; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t NearTies = 0;
  bool Correct = true;
  std::vector<std::string> Messages;
};

/// The oracle bound for a kernel lowered to f32 or f64 (the differential
/// suite's bounds): |got - ref| <= |ref| * 1e-4 + 1e-4 for f32, 1e-9 for
/// f64.
inline bool withinOracleBound(double Got, double Ref, bool F32) {
  if (!std::isfinite(Ref) || !std::isfinite(Got))
    return Got == Ref;
  double Bound = F32 ? std::abs(Ref) * 1e-4 + 1e-4 : 1e-9;
  return std::abs(Got - Ref) <= Bound;
}

/// Whether \p Best, the class a kernel's scores pick, is consistent with
/// the oracle: it equals the oracle's argmax \p OracleBest, or the
/// oracle's own scores for the two classes differ by no more than the sum
/// of their oracle bounds, so the kernel's declared precision cannot order
/// them (a near-tie, counted by \p Chk but not failed).
bool argmaxConsistent(size_t Best, size_t OracleBest, double OracleOfBest,
                      double OracleTop, bool F32, Check &Chk);

/// Median of \p Values (mean of the middle two for an even count).
double median(std::vector<double> Values);

/// Nearest-rank quantile of \p Values (sorted in place); 0 when empty.
uint64_t quantile(std::vector<uint64_t> &Values, double Q);

/// Counts that must repeat exactly at a fixed seed, with a check against
/// the previous run of the same configuration.
class ExactCounts {
public:
  /// Records \p Value under \p Name; a second record of the same name
  /// (e.g. from a repeated set-up) must match the first.
  void record(const std::string &Name, uint64_t Value, Check &Chk);
  /// Compares with the counts stored at \p Path by an earlier run, if
  /// any, then stores these. Mismatches make the run incorrect.
  void compareAndStore(const std::string &Path, Check &Chk) const;
  const std::map<std::string, uint64_t> &counts() const { return Counts; }

private:
  std::map<std::string, uint64_t> Counts;
};

/// Peak resident set of this process so far, in MB.
double peakRssMb();

/// Shortest decimal text that reads back as \p Value ("inf", "-inf" and
/// "nan" for the non-finite values).
std::string formatNumber(double Value);

} // namespace perfbench

#endif // SPNC_PERFBENCH_REPORT_H
