// Shared pieces of the wall-clock benchmark binary: options, the metric
// report, nearest-rank percentiles, and readers for the CPU time and
// resident memory the kernel accounts to a process or thread.
#ifndef WALLBENCH_COMMON_H_
#define WALLBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace wallbench {

/// Closed-loop callers: app-server threads or TCP sessions.
inline constexpr int kClients = 4;
/// Replicas behind the middleware.
inline constexpr int kReplicas = 2;
/// Seed of the runtime's own entropy stream.  --seed varies the
/// generated inputs only; the program under test is the same every run.
inline constexpr uint64_t kProgramSeed = 1;

/// Timings of transactions that start in the first second are dropped.
inline constexpr double kWarmupS = 1.0;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where span exports go (created by the caller).
  std::string out_dir = ".";
  /// The built screp_server binary (kv-tcp only).
  std::string server_path;
};

/// Steady-clock nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of ascending `sorted` (q in (0, 1]): the
/// smallest sample with at least a q share of the samples at or below
/// it.  0 for an empty list.
double Percentile(const std::vector<double>& sorted, double q);

/// One named measurement.  `samples` is how many observations it rests
/// on (transactions, decisions, spans).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  int64_t samples = 0;
};

/// Everything one run measured and checked.  A metric that does not
/// apply to the workload is simply not added.
class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value,
           int64_t samples);
  /// Adds `name.p50` and `name.p99` (or the single quantile) of
  /// `samples`, sorted in place.
  void AddQuantiles(const std::string& name, const std::string& unit,
                    std::vector<double>* samples, bool with_p99 = true);
  /// Records a failed output check; the run then reports correct=false.
  void Fail(const std::string& what);
  /// Records a check that passed (printed for the reader).
  void Pass(const std::string& what);

  int64_t attempted = 0;
  int64_t failed = 0;

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& failures() const { return failures_; }
  std::string ToJson(const std::string& workload) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> passes_;
};

/// user+sys CPU of the calling process, in ns.
int64_t SelfCpuNs();
/// user+sys CPU of process `pid` from /proc (clock-tick resolution).
int64_t ProcessCpuNs(pid_t pid);
/// user+sys CPU of thread `tid` of this process from /proc.
int64_t ThreadCpuNs(pid_t tid);
/// Resident set size of process `pid` (0 = this process), in bytes.
int64_t RssBytes(pid_t pid);

}  // namespace wallbench

#endif  // WALLBENCH_COMMON_H_
