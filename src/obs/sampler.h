// Periodic gauge/counter sampler: a daemon event on the Runtime that
// polls every gauge in a MetricsRegistry into time series, and every
// counter into per-period *delta* series (so rate signals — TPS, sheds,
// aborts, retransmits — exist without client-side diffing).
//
// Samples are taken at t = period, 2*period, ... — the right edges of
// MetricsCollector's timeline buckets when the harness uses the same
// width — so the internal queue/lag series line up with the client-side
// throughput timeline.  The sampler must be stopped at the end of a run
// so the event queue can drain.
//
// Instruments registered after sampling started join the poll set at
// their first tick; earlier sample slots are zero-filled in the in-memory
// series (so every series stays aligned with `timestamps()`), but the
// JSON export emits `null` for them — a dashboard can tell "series did
// not exist yet" apart from a true zero.  SeriesStart() exposes the same
// boundary programmatically.

#ifndef SCREP_OBS_SAMPLER_H_
#define SCREP_OBS_SAMPLER_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "obs/metrics_registry.h"
#include "runtime/runtime.h"

namespace screp::obs {

/// Polls registry gauges and counter deltas on a fixed virtual-time
/// period.
class Sampler {
 public:
  Sampler(runtime::Runtime* rt, MetricsRegistry* registry);

  /// Begins sampling every `period` (> 0) from now; the first sample is
  /// taken at Now() + period.
  void Start(Duration period);

  /// Stops sampling (the pending tick becomes a no-op).
  void Stop() { running_ = false; }

  bool running() const { return running_; }
  Duration period() const { return period_; }

  /// Live consumer invoked after every tick with that tick's values:
  /// current gauge readings and per-period counter deltas (the streaming
  /// time-series layer subscribes here).
  using Sink = std::function<void(
      TimePoint at, Duration period, const std::map<std::string, double>& gauges,
      const std::map<std::string, double>& counter_deltas)>;
  void AddSink(Sink sink) { sinks_.push_back(std::move(sink)); }

  /// Virtual times at which samples were taken.
  const std::vector<TimePoint>& timestamps() const { return timestamps_; }

  /// One value per timestamp for every gauge.  Gauges registered after
  /// sampling started are zero-filled before SeriesStart() so all series
  /// stay aligned.
  const std::map<std::string, std::vector<double>>& series() const {
    return series_;
  }

  /// One per-period delta per timestamp for every counter (same
  /// alignment and SeriesStart() rules as gauges).  The first delta of a
  /// counter covers everything it counted before its first poll.
  const std::map<std::string, std::vector<double>>& counter_deltas() const {
    return counter_deltas_;
  }

  /// Index of the first timestamp at which `name` (gauge or counter) was
  /// actually present; values before it are padding.  Returns the number
  /// of timestamps for unknown series.
  size_t SeriesStart(const std::string& name) const;

  /// {"period_us":N,"timestamps":[...],"series":{name:[...]},
  ///  "counter_deltas":{name:[...]}}.  Slots from before a series existed
  /// are emitted as null, not 0.
  std::string ToJson() const;

 private:
  void Tick();

  /// Re-resolves the poll set: one handle per gauge/counter, pointing at
  /// the instrument and at its series storage, so a steady-state tick
  /// does no per-name map lookups.  Called only when the registry's
  /// generation moved (an instrument appeared); instruments are never
  /// removed, so every cached pointer stays valid between rebuilds.
  void RebuildPollSet();

  struct PolledGauge {
    const std::string* name;                     // registry-owned key
    const Gauge* gauge;                          // one of these two is set
    const std::function<double()>* callback;
    std::vector<double>* values;                 // node in series_
  };
  struct PolledCounter {
    const std::string* name;
    const Counter* counter;
    std::vector<double>* values;  // node in counter_deltas_
    int64_t* prev;                // node in counter_prev_
  };

  runtime::Runtime* rt_;
  MetricsRegistry* registry_;
  Duration period_ = 0;
  bool running_ = false;
  std::vector<TimePoint> timestamps_;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, std::vector<double>> counter_deltas_;
  /// Cumulative counter value at the previous tick (delta baseline).
  std::map<std::string, int64_t> counter_prev_;
  /// First timestamp index at which each series existed.
  std::map<std::string, size_t> series_start_;
  std::vector<Sink> sinks_;
  /// Resolved poll set, valid while poll_generation_ matches the
  /// registry's generation.
  std::vector<PolledGauge> polled_gauges_;
  std::vector<PolledCounter> polled_counters_;
  uint64_t poll_generation_ = ~0ULL;
};

}  // namespace screp::obs

#endif  // SCREP_OBS_SAMPLER_H_
