#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace wallbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kClientTxn:
      return "client.txn";
    case SpanName::kPostWait:
      return "runtime.post_wait";
    case SpanName::kSubmit:
      return "replication.submit";
    case SpanName::kInflight:
      return "replication.inflight";
    case SpanName::kWakeup:
      return "runtime.wakeup";
    case SpanName::kToolsBegin:
      return "tools.begin";
    case SpanName::kToolsRead:
      return "tools.read";
    case SpanName::kToolsUpdate:
      return "tools.update";
    case SpanName::kToolsCommit:
      return "tools.commit";
  }
  return "?";
}

AttemptChain InprocChain() {
  return {{SpanName::kPostWait},
          {SpanName::kSubmit},
          {SpanName::kInflight},
          {SpanName::kWakeup}};
}

AttemptChain KvTcpChain() {
  return {{SpanName::kToolsBegin},
          {SpanName::kToolsRead, SpanName::kToolsUpdate},
          {SpanName::kToolsCommit}};
}

namespace {

std::string Describe(const Span& s) {
  return std::string(SpanNameString(s.name)) + " of txn " +
         std::to_string(s.txn);
}

/// Checks one transaction's spans (root first, children by start) and
/// accumulates its self times; returns an error or "".
std::string CheckTxn(const std::vector<Span>& spans, size_t begin,
                     size_t end, const AttemptChain& chain,
                     TraceAnalysis* out) {
  const Span& root = spans[begin];
  if (root.name != SpanName::kClientTxn) {
    return "txn " + std::to_string(root.txn) + " has no client.txn root";
  }
  if (begin + 1 < end && spans[begin + 1].name == SpanName::kClientTxn) {
    return "txn " + std::to_string(root.txn) + " has two roots";
  }
  const size_t children = end - begin - 1;
  if (children == 0 || children % chain.size() != 0) {
    return "txn " + std::to_string(root.txn) + " has " +
           std::to_string(children) +
           " child spans, not whole attempts of " +
           std::to_string(chain.size());
  }
  int64_t covered = 0;
  int64_t prev_end = root.start_ns;
  for (size_t i = begin + 1; i < end; ++i) {
    const Span& child = spans[i];
    const auto& allowed = chain[(i - begin - 1) % chain.size()];
    if (std::find(allowed.begin(), allowed.end(), child.name) ==
        allowed.end()) {
      return Describe(child) + " is out of its place in the attempt chain";
    }
    if (child.start_ns < prev_end || child.end_ns < child.start_ns ||
        child.end_ns > root.end_ns) {
      return Describe(child) + " overlaps a sibling or leaves its root";
    }
    prev_end = child.end_ns;
    const int64_t dur = child.end_ns - child.start_ns;
    covered += dur;
    SpanStats& st = out->by_name[SpanNameString(child.name)];
    ++st.count;
    st.self_ns += dur;  // children are leaves
  }
  const int64_t root_dur = root.end_ns - root.start_ns;
  SpanStats& st = out->by_name[SpanNameString(root.name)];
  ++st.count;
  st.self_ns += root_dur - covered;
  out->root_ns += root_dur;
  out->covered_ns += covered;
  ++out->txns;
  return "";
}

}  // namespace

TraceAnalysis AnalyzeSpans(std::vector<Span> spans,
                           const AttemptChain& chain) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.txn != b.txn) return a.txn < b.txn;
    // The root starts with its first child; keep it first.
    const bool a_root = a.name == SpanName::kClientTxn;
    const bool b_root = b.name == SpanName::kClientTxn;
    if (a_root != b_root) return a_root;
    return a.start_ns < b.start_ns;
  });
  TraceAnalysis out;
  size_t begin = 0;
  while (begin < spans.size()) {
    size_t end = begin + 1;
    while (end < spans.size() && spans[end].txn == spans[begin].txn) ++end;
    const std::string error = CheckTxn(spans, begin, end, chain, &out);
    if (!error.empty()) {
      out.ok = false;
      out.error = error;
      return out;
    }
    begin = end;
  }
  if (out.txns == 0) {
    out.ok = false;
    out.error = "no traced transactions";
  } else if (static_cast<double>(out.covered_ns) <
             kMinCoverage * static_cast<double>(out.root_ns)) {
    out.ok = false;
    out.error = "child spans cover " +
                std::to_string(100.0 * static_cast<double>(out.covered_ns) /
                               static_cast<double>(out.root_ns)) +
                "% of client.txn time";
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = 0;
  for (const Span& s : spans) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f}",
                 i == 0 ? "" : ",", SpanNameString(s.name),
                 static_cast<unsigned long long>(s.txn),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace wallbench
