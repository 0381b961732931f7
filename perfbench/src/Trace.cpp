//===- Trace.cpp - Span summaries and Chrome trace-event output ---------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "support/JSON.h"
#include "support/RawOStream.h"

#include <algorithm>
#include <utility>

using namespace perfbench;

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
  // Children intervals per parent; request spans may overlap each other,
  // so the covered part is the union, clipped to the parent.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Children(
      Spans.size());
  for (const Span &S : Spans)
    if (S.Parent != 0)
      Children[S.Parent - 1].push_back({S.StartNs, S.EndNs});

  std::map<std::string, Summary> Result;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    uint64_t Duration = S.EndNs > S.StartNs ? S.EndNs - S.StartNs : 0;
    std::vector<std::pair<uint64_t, uint64_t>> &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    uint64_t Covered = 0, Cursor = S.StartNs;
    for (auto [Begin, End] : Kids) {
      Begin = std::max(Begin, Cursor);
      End = std::min(End, S.EndNs);
      if (End > Begin) {
        Covered += End - Begin;
        Cursor = End;
      }
    }
    Summary &Sum = Result[S.Name];
    ++Sum.Count;
    Sum.TotalNs += Duration;
    Sum.SelfNs += Duration - std::min(Duration, Covered);
  }
  return Result;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  {
    spnc::FileOStream OS(File);
    spnc::json::Writer W(OS, 0);
    uint64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
    for (const Span &S : Spans)
      Origin = std::min(Origin, S.StartNs);
    W.beginObject();
    W.key("traceEvents");
    W.beginArray();
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      W.beginObject();
      W.member("name", S.Name);
      W.member("ph", "X");
      W.member("ts", static_cast<double>(S.StartNs - Origin) * 1e-3);
      W.member("dur", static_cast<double>(S.EndNs - S.StartNs) * 1e-3);
      W.member("pid", uint64_t(1));
      W.member("tid", uint64_t(1));
      W.key("args");
      W.beginObject();
      W.member("id", uint64_t(I + 1));
      W.member("parent", uint64_t(S.Parent));
      W.member("request", S.RequestId);
      W.endObject();
      W.endObject();
    }
    W.endArray();
    W.member("displayTimeUnit", "ms");
    W.endObject();
    OS << "\n";
  }
  bool Ok = !std::ferror(File);
  return std::fclose(File) == 0 && Ok;
}
