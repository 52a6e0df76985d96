// The closed-loop runs: in-process over ThreadRuntime (micro-read,
// micro-write, tpcw-shopping) and over TCP against a screp_server child
// (kv-tcp).  Each run measures its end-to-end metrics with tracing off;
// with --trace 1 the measured time is split into an untraced half (end-
// to-end numbers and counters) and a traced half (spans), and the layer
// replays and the modelled-delay probe run afterwards.  Output checks run
// after the system has quiesced, and each check is then shown to fail on
// a planted defect.
#ifndef WALLBENCH_RUNS_H_
#define WALLBENCH_RUNS_H_

#include "common.h"
#include "spans.h"
#include "workloads.h"

namespace wallbench {

/// Set-ups timed per run; setup_s is their median.
inline constexpr int kSetupRepeats = 11;
/// kv-tcp: server spawns timed per run (each loads its own replicas).
inline constexpr int kTcpSetupRepeats = 5;
/// Wall-time budget of the standalone layer replays.
inline constexpr double kReplayBudgetS = 1.5;
/// Transactions the modelled-delay probe commits.
inline constexpr int64_t kProbeTxns = 4000;

void RunInproc(const BenchWorkload& w, const Options& opt, Report* report);
void RunKvTcp(const BenchWorkload& w, const Options& opt, Report* report);

/// Time windows of one run, in steady-clock ns.  Transactions that start
/// in [measure_start, traced_start) are untraced; from traced_start to
/// run_end they are traced (traced_start == run_end without --trace).
struct RunClock {
  int64_t measure_start = 0;
  int64_t traced_start = 0;
  int64_t run_end = 0;

  static RunClock Plan(const Options& opt, int64_t now);
  bool traced() const { return traced_start < run_end; }
};

/// One client's per-transaction record (all attempts of one instance).
struct TxnRecord {
  int64_t start_ns = 0;  ///< first send
  int64_t end_ns = 0;    ///< commit reply, or the last failed reply
  int64_t gen_ns = 0;    ///< generator Next() cost
  /// Updates: micro (key, delta), kv (key, value); kv also keeps the
  /// acknowledged commit version.
  int64_t key = 0;
  int64_t arg = 0;
  int64_t version = 0;
  int32_t attempts = 0;
  int16_t table = -1;
  bool committed = false;
  bool read_only = true;
};

/// Preallocated, touched storage so that recording does not allocate
/// (and does not move RSS) during the measured window.
template <typename T>
class Log {
 public:
  void Preallocate(size_t n) {
    items_.resize(n);
    size_ = 0;
  }
  void Add(const T& item) {
    if (size_ < items_.size()) {
      items_[size_] = item;
    } else {
      items_.push_back(item);
    }
    ++size_;
  }
  size_t size() const { return size_; }
  const T& operator[](size_t i) const { return items_[i]; }
  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + size_; }

 private:
  std::vector<T> items_;
  size_t size_ = 0;
};

/// Window aggregates over the client records shared by both run kinds.
struct WindowStats {
  int64_t txns = 0;          ///< started in the window
  int64_t committed = 0;     ///< of those, committed
  int64_t attempts = 0;
  int64_t failed_txns = 0;   ///< never committed
  int64_t committed_by_end = 0;  ///< commits acknowledged in the window
  std::vector<double> all_ms, read_ms, update_ms, gen_us;
};

WindowStats Aggregate(const std::vector<const Log<TxnRecord>*>& logs,
                      int64_t start_ns, int64_t end_ns);

/// CPU time and RSS of the process hosting the middleware at one instant.
struct ProcSample {
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  int64_t rss = 0;
};

/// Length of the sub-windows whose medians the end-to-end metrics report.
inline constexpr int64_t kSubWindowNs = 1'000'000'000;

/// Sleeps until the steady clock reads `ns`.
void SleepUntil(int64_t ns);

/// Sleeps through (start, end), appending `take()` at every sub-window
/// boundary (the last sub-window is at least half as long as the others).
template <typename Take>
void SampleSubWindows(int64_t start, int64_t end, Take take,
                      std::vector<ProcSample>* out) {
  for (int64_t t = start + kSubWindowNs; t + kSubWindowNs / 2 <= end;
       t += kSubWindowNs) {
    SleepUntil(t);
    out->push_back(take());
  }
}

/// Adds the end-to-end metrics of the window [samples.front(),
/// samples.back()]: the p50s and cpu_us_per_txn as medians over the
/// sub-windows between consecutive samples (robust to bursts of host
/// noise); ops_per_s, the p99s, failed_frac and mem_bytes_per_txn over
/// the whole window (throughput varies with the modelled stalls, whose
/// count over the whole window is the steadier estimate).  Returns the
/// whole window's aggregates.
WindowStats AddEndToEndMetrics(const std::vector<const Log<TxnRecord>*>& logs,
                               const std::vector<ProcSample>& samples,
                               Report* report);

/// Analyzes the traced window's spans (self time per span name, the
/// conservation check), shows the check fails with one child span
/// removed, and writes the spans to <out_dir>/trace-<workload>.json.
void CheckTrace(const std::vector<Span>& spans, const AttemptChain& chain,
                const Options& opt, const std::string& workload,
                Report* report);

/// Median of `values` (sorted in place).
double Median(std::vector<double>* values);

}  // namespace wallbench

#endif  // WALLBENCH_RUNS_H_
