//===- Report.cpp - Metrics, oracle checks and exact-repeat counts ------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include "support/JSON.h"
#include "support/RawOStream.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

using namespace perfbench;

void Report::set(const std::string &Name, double Value,
                 const std::string &Unit) {
  for (Metric &M : Items)
    if (M.Name == Name) {
      M.Value = Value;
      M.Unit = Unit;
      return;
    }
  Items.push_back({Name, Value, Unit});
}

const Metric *Report::find(const std::string &Name) const {
  for (const Metric &M : Items)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

void Check::fail(const std::string &Why) {
  ++Failed;
  if (Messages.size() < 10)
    Messages.push_back(Why);
}

void Check::incorrect(const std::string &Why) {
  Correct = false;
  if (Messages.size() < 20)
    Messages.push_back(Why);
}

bool perfbench::argmaxConsistent(size_t Best, size_t OracleBest,
                                 double OracleOfBest, double OracleTop,
                                 bool F32, Check &Chk) {
  if (Best == OracleBest)
    return true;
  auto Bound = [F32](double Ref) {
    return F32 ? std::abs(Ref) * 1e-4 + 1e-4 : 1e-9;
  };
  if (OracleTop - OracleOfBest > Bound(OracleTop) + Bound(OracleOfBest))
    return false;
  Chk.nearTie();
  return true;
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Mid = Values.size() / 2;
  return Values.size() % 2 ? Values[Mid]
                           : (Values[Mid - 1] + Values[Mid]) / 2;
}

uint64_t perfbench::quantile(std::vector<uint64_t> &Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(
      std::ceil(Q * static_cast<double>(Values.size())));
  return Values[std::clamp<size_t>(Rank, 1, Values.size()) - 1];
}

void ExactCounts::record(const std::string &Name, uint64_t Value,
                         Check &Chk) {
  auto [It, Inserted] = Counts.emplace(Name, Value);
  if (!Inserted && It->second != Value)
    Chk.incorrect("exact count " + Name + " differs between set-ups: " +
                  std::to_string(It->second) + " vs " +
                  std::to_string(Value));
}

void ExactCounts::compareAndStore(const std::string &Path,
                                  Check &Chk) const {
  std::ifstream In(Path);
  if (In) {
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    spnc::Expected<spnc::json::Value> Previous =
        spnc::json::parse(Buffer.str());
    if (Previous && Previous->isObject()) {
      for (const auto &[Name, Value] : Counts) {
        const spnc::json::Value *Old = Previous->find(Name);
        if (Old && Old->isNumber() &&
            static_cast<uint64_t>(Old->getNumber()) != Value)
          Chk.incorrect("exact count " + Name + " = " +
                        std::to_string(Value) +
                        " differs from the previous run's " +
                        formatNumber(Old->getNumber()));
      }
    }
  }
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return;
  {
    spnc::FileOStream OS(File);
    spnc::json::Writer W(OS);
    W.beginObject();
    for (const auto &[Name, Value] : Counts)
      W.member(Name, Value);
    W.endObject();
    OS << "\n";
  }
  std::fclose(File);
}

double perfbench::peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string perfbench::formatNumber(double Value) {
  if (std::isnan(Value))
    return "nan";
  if (std::isinf(Value))
    return Value < 0 ? "-inf" : "inf";
  char Buffer[64];
  auto [End, Err] = std::to_chars(Buffer, Buffer + sizeof(Buffer), Value);
  if (Err != std::errc())
    return "0";
  return std::string(Buffer, End);
}
