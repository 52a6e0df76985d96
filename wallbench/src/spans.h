// Spans the benchmark records around its own calls into the middleware
// (nothing inside the program is instrumented).  Each transaction gets a
// root span `client.txn` from its first send to its commit reply, and
// per attempt a fixed chain of child spans that abut one another:
//
//   in-process: runtime.post_wait -> replication.submit ->
//               replication.inflight -> runtime.wakeup
//   kv-tcp:     tools.begin -> tools.read | tools.update -> tools.commit
//
// Spans are kept in memory (steady-clock ns) and written out at the end.
// AnalyzeSpans() computes each span name's self time and checks
// conservation: every root holds whole attempt chains, children lie
// inside the root without overlapping, and together they cover the root.
#ifndef WALLBENCH_SPANS_H_
#define WALLBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wallbench {

enum class SpanName : uint8_t {
  kClientTxn = 0,
  kPostWait,
  kSubmit,
  kInflight,
  kWakeup,
  kToolsBegin,
  kToolsRead,
  kToolsUpdate,
  kToolsCommit,
};

const char* SpanNameString(SpanName name);

struct Span {
  /// Benchmark-assigned transaction id, shared by all spans of one txn.
  uint64_t txn = 0;
  SpanName name = SpanName::kClientTxn;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// The child chain one attempt must show, position by position; a
/// position may admit several names (tools.read or tools.update).
using AttemptChain = std::vector<std::vector<SpanName>>;

AttemptChain InprocChain();
AttemptChain KvTcpChain();

struct SpanStats {
  int64_t count = 0;
  int64_t self_ns = 0;
};

struct TraceAnalysis {
  bool ok = true;
  /// First conservation violation found (empty when ok).
  std::string error;
  int64_t txns = 0;
  int64_t root_ns = 0;
  /// Root time covered by child spans.
  int64_t covered_ns = 0;
  std::map<std::string, SpanStats> by_name;
};

/// The share of root time the children must cover.
inline constexpr double kMinCoverage = 0.99;

/// Self times and the conservation check over `spans` (any order).
TraceAnalysis AnalyzeSpans(std::vector<Span> spans,
                           const AttemptChain& chain);

/// Writes `spans` as Chrome trace-event JSON (one tid per txn).
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace wallbench

#endif  // WALLBENCH_SPANS_H_
