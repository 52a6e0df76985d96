// Per-transaction critical-path profiler.
//
// The tracer's spans and the event log each tell half the story: spans
// say how long each stage took, kTxnFinished says how long the client
// waited.  The profiler joins the two into one ledger per transaction
// *attempt* (each client retry runs under a fresh TxnId, so attempts are
// natural units) and decomposes the measured response time into
// exclusive, non-overlapping segments:
//
//   net_client_lb     client->LB and LB->client channel hops
//   admission_wait    queued in the LB admission window
//   net_lb_replica    LB->proxy dispatch and proxy->LB response hops
//   version_wait      BEGIN blocked until V_local reached the tag
//   exec              statement execution on the replica CPU
//   net_certifier     proxy->certifier and certifier->proxy hops
//   cert_intake_wait  queued for the certifier CPU
//   certify           certification service time
//   force_wait        certified, waiting for the group-commit log force
//                     (K > 1: from the last lane vote, so it also covers
//                     the wait in the sequencer's decide queues)
//   gap_wait          decision back, waiting for earlier versions to
//                     arrive/apply (refresh propagation gap)
//   lane_wait         contiguous but queued for an apply lane
//   apply             writeset application service time
//   publish_wait      applied out-of-order, waiting for in-order publish
//   commit            read-only commit service time
//   claim_wait        decision raced the refresh stream: version already
//                     applied locally, commit settled against the claim
//   global_wait       eager: locally committed, waiting for the global
//                     commit barrier
//   retry             residual of failed/timed-out attempts (time the
//                     attempt spent dead in the water before the client
//                     gave up or was refused)
//
// Because every hand-off between stages is instrumented (the network
// hops are measured spans, not inferred gaps), the segments of a
// committed attempt must tile [submit, ack] exactly: the profiler
// checks sum(segments) == response time within one simulator tick and
// counts violations.  Non-committed attempts put their unaccounted
// remainder into `retry` instead — that time is real (the client waited
// through it) but belongs to no stage.
//
// Aggregation is over attempts acknowledged inside the measurement
// window: per-segment totals/percentiles plus percentile-banded
// attribution (which segments dominate the p50 band vs the p99 tail of
// the response distribution).

#ifndef SCREP_OBS_PROFILER_H_
#define SCREP_OBS_PROFILER_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/eventlog.h"
#include "obs/trace.h"

namespace screp::obs {

/// One exclusive slice of an attempt's response time.
enum class ProfileSegment : int {
  kNetClientLb = 0,
  kAdmissionWait,
  kNetLbReplica,
  kVersionWait,
  kExec,
  kNetCertifier,
  kCertIntakeWait,
  kCertify,
  kForceWait,
  kGapWait,
  kLaneWait,
  kApply,
  kPublishWait,
  kCommit,
  kClaimWait,
  kGlobalWait,
  kRetry,
  kSegmentCount,
};

constexpr int kProfileSegmentCount =
    static_cast<int>(ProfileSegment::kSegmentCount);

/// Wait (queueing/blocking), service (CPU/disk work), or network hop —
/// the split SCAR-style designs need: waits can be moved, service cannot.
enum class SegmentKind { kWait, kService, kNetwork };

const char* ProfileSegmentName(ProfileSegment segment);
SegmentKind ProfileSegmentKind(ProfileSegment segment);
const char* SegmentKindName(SegmentKind kind);

/// Assembles spans + events into per-attempt segment ledgers.  Subscribe
/// via Tracer::AddSink and EventLog::AddSink; consumes no randomness and
/// never feeds back into the simulation.
class Profiler {
 public:
  Profiler() = default;

  /// Attempts acknowledged before `t` (warm-up) are excluded from the
  /// aggregates; conservation is still checked on every finished attempt.
  void set_measure_from(TimePoint t) { measure_from_ = t; }
  /// Allowed |sum(segments) - response| before a committed attempt
  /// counts as a conservation violation (default: one simulator tick).
  void set_tolerance(Duration t) { tolerance_ = t; }

  /// Tracer sink: accumulates the span into its attempt's ledger.
  void OnSpan(const TraceSpan& span);
  /// Event-log sink: kTxnFinished / kTimeout close an attempt.
  void OnEvent(const Event& event);

  /// One finished attempt's ledger.
  struct Attempt {
    std::array<Duration, kProfileSegmentCount> seg{};
    Duration total = 0;
    bool committed = false;
    bool timed_out = false;
    bool measured = false;  ///< acknowledged inside the window
  };

  // -- Counts --
  int64_t finished() const {
    return static_cast<int64_t>(attempts_.size());
  }
  int64_t measured() const { return measured_; }
  int64_t committed_count() const { return committed_; }
  int64_t failed() const { return failed_; }
  int64_t timeouts() const { return timeouts_; }
  /// Attempts with spans but no closing event (in flight at run end).
  int64_t unfinished() const { return static_cast<int64_t>(open_.size()); }
  /// kTxnFinished arriving after the client had already timed out.
  int64_t stale_finishes() const { return stale_finishes_; }

  // -- Conservation --
  int64_t conservation_checked() const { return conservation_checked_; }
  int64_t conservation_violations() const { return conservation_violations_; }
  /// Largest |residual| seen across checked attempts.
  Duration max_abs_residual() const { return max_abs_residual_; }
  const std::string& first_violation() const { return first_violation_; }

  // -- Aggregates over measured attempts --
  double SegmentTotalMs(ProfileSegment segment) const;
  /// Population mean (over all measured attempts, zeros included), so
  /// the per-segment means sum to the mean response time.
  double MeanSegmentMs(ProfileSegment segment) const;
  /// Compact "name=mean_ms" line of the nonzero segments.
  std::string MeanBreakdown() const;

  /// The full report: counts, conservation, per-segment stats, and
  /// percentile-banded attribution.
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

  const std::vector<Attempt>& attempts() const { return attempts_; }

 private:
  struct OpenAttempt {
    std::array<Duration, kProfileSegmentCount> seg{};
    uint32_t seen = 0;  ///< span-table indices already credited
  };

  void Finalize(TxnId txn, Duration total, Duration ack, bool committed,
                bool timed_out);

  TimePoint measure_from_ = 0;
  Duration tolerance_ = 1;

  std::unordered_map<TxnId, OpenAttempt> open_;
  /// Timed-out attempts whose late response (if any) must be ignored.
  std::unordered_set<TxnId> closed_;
  std::vector<Attempt> attempts_;

  int64_t measured_ = 0;
  int64_t committed_ = 0;
  int64_t failed_ = 0;
  int64_t timeouts_ = 0;
  int64_t stale_finishes_ = 0;
  int64_t conservation_checked_ = 0;
  int64_t conservation_violations_ = 0;
  Duration max_abs_residual_ = 0;
  std::string first_violation_;

  /// Running per-segment totals over measured attempts (duplicates the
  /// information in attempts_ for O(1) driver queries).
  std::array<Duration, kProfileSegmentCount> measured_totals_{};
  Duration measured_response_total_ = 0;
};

}  // namespace screp::obs

#endif  // SCREP_OBS_PROFILER_H_
