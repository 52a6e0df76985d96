// The certifier (paper §IV, following Tashkent): decides update-transaction
// commits, maintains the global commit order, makes decisions durable, and
// fans refresh writesets out to the other replicas.
//
// Certification is first-committer-wins over writesets: a transaction T can
// commit iff its writeset does not write-conflict with the writesets of
// transactions that committed since T's snapshot.  Commit versions are
// dense: V_commit increases by one per certified commit.
//
// Durability is enforced here (replicas keep no log): each certified
// writeset is appended to the certifier's WAL and forced to a simulated
// disk.  Forces are group-committed — all decisions waiting while the disk
// is busy share the next force.  The WAL is the only copy of committed
// rows the certifier keeps: the conflict window holds just each commit's
// version, transaction and written keys (CommittedWrites), and replica
// catch-up (FetchSince) decodes the WAL from the first missing record.
//
// In the eager configuration the certifier additionally counts per-replica
// commit notifications and tells the originating replica when a
// transaction is *globally* committed (§IV-D).
//
// Lanes.  The certifier's state is a vector of K lanes
// (CertifierConfig::shard_lanes).  Each lane owns its own CPU and disk,
// CommittedKeyIndex over a conflict window, WAL force stream, decide
// queue, per-replica refresh credits and a dense version sequence.  K = 1
// (the default) is the paper's single certification stream: one lane
// whose versions are the global commit order.  K > 1 is partitioned
// certification (after Sutra & Shapiro's fault-tolerant partial
// replication, in which full replication is the one-partition case):
// EnableSharding() supplies the table -> lane ShardMap and the replicas'
// hosted lanes, and lane s issues the dense sequence V_s = 1, 2, ... over
// the writesets touching shard s.
//
// A transaction touching one lane is decided entirely within it.  A
// cross-shard transaction goes through the sequencer:
//
//   1. The submission enters every touched lane's CPU FIFO (its *vote*),
//      modeling the parallel per-shard conflict work.
//   2. It is *decided* only when every vote has completed and it is at
//      the head of every touched lane's decide queue.  Head-of-all-queues
//      makes the decision order deterministic and conflict-safe: no later
//      submission can be certified in any touched shard before this one's
//      outcome is installed there.  (The earliest undecided transaction
//      is always at all of its heads, so the protocol cannot deadlock.)
//   3. On commit it receives a *joint commit version* — the next version
//      in each touched lane, assigned atomically — and is announced only
//      once every touched lane's WAL force has completed.
//
// Idempotence, for every K: a re-submitted transaction that is already
// decided gets its recorded decision replayed; one whose original is
// still pending is dropped (the pending decision reaches the origin
// once).  The state is judged when the duplicate is handled — on arrival
// for a cross-shard transaction, after its CPU service for a single-lane
// one — so at K = 1, where the FIFO CPU always decides the original
// first, a duplicate is always served a replay.
//
// ReplicatedSystem::Create() refuses at K > 1: eager global commits, the
// standby certifier, bounded staleness and refresh batching; replica
// crash/recovery (MarkReplicaDown/Up, FetchSince) are single-lane only.

#ifndef SCREP_REPLICATION_CERTIFIER_H_
#define SCREP_REPLICATION_CERTIFIER_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/eager_tracker.h"
#include "obs/observability.h"
#include "replication/conflict_index.h"
#include "replication/message.h"
#include "replication/shard_map.h"
#include "sim/resource.h"
#include "runtime/runtime.h"
#include "storage/wal.h"
#include "storage/write_set.h"

namespace screp {

/// What certification guarantees (paper §IV: the prototype provides GSI;
/// the serializable mode additionally aborts read-write conflicts, the
/// standard upgrade for workloads that are not serializable under SI).
enum class CertificationMode {
  /// Generalized snapshot isolation: first-committer-wins on write-write
  /// conflicts only.
  kGsi = 0,
  /// Update-serializability: additionally aborts a transaction whose
  /// *read set* intersects the writes of transactions committed since its
  /// snapshot (write-skew / phantom protection).
  kSerializable,
};

/// Tuning knobs for the certifier.
struct CertifierConfig {
  /// CPU time to certify one writeset (conflict check + bookkeeping).
  Duration certify_cpu_time = Micros(120);
  /// Disk time for one forced log write (shared by a group-commit batch).
  Duration log_force_time = Millis(0.8);
  /// Certification guarantee.
  CertificationMode mode = CertificationMode::kGsi;
  /// How many recent commits each lane retains for conflict checking, as
  /// compact entries (version, txn, written keys; ~64 B for a one-row
  /// writeset); transactions with snapshots older than the window are
  /// conservatively aborted (does not occur in practice).  Also bounds
  /// the decisions kept for failover idempotence.
  size_t conflict_window = 100000;
  /// DEBUG ONLY: decide by linearly rescanning the whole conflict window
  /// (the pre-index brute-force path) instead of the keyed conflict
  /// index.  Kept as the oracle for property tests and the certification
  /// microbenchmark; decisions are identical either way.
  bool linear_scan_oracle = false;
  /// Coalesce each group-commit force's refresh fan-out into one message
  /// per target replica (amortizing per-message latency exactly where
  /// the batch already exists).  Off by default: one message per
  /// writeset per target, the original fan-out schedule.
  bool refresh_batching = false;
  /// Bound on the certification intake queue (0 = unbounded).  A
  /// submission finding the CPU queue at the bound is refused on arrival
  /// with an `overloaded` decision instead of queueing — backpressure
  /// the proxy surfaces to the client as TxnOutcome::kOverloaded.
  size_t max_intake = 0;
  /// Credit-based refresh flow control (0 = off): at most this many
  /// unacknowledged refresh writesets are in flight per target replica.
  /// Fan-out past the window is deferred here and sent — coalesced into
  /// one batch — as the replica returns credits on publish, so a slow
  /// replica bounds the certifier's and its own memory instead of
  /// accumulating writesets without limit.
  size_t refresh_credit_window = 0;
  /// Cap on the writesets one disk force covers (0 = unbounded, the
  /// original behaviour: each force takes everything that accumulated
  /// while the previous one was in flight).  A finite cap trades more
  /// forces for a smoother refresh stream: unbounded group commits
  /// release their whole batch's fan-out in one burst, which at high
  /// load queues the replicas' apply lanes and inflates local update
  /// commit latency (bench/saturation --batch-sweep measures this).
  size_t max_force_batch = 0;
  /// Number of certifier lanes (K).  1 (the default) is the paper's
  /// single certification stream.  K > 1 shards the tables over K lanes,
  /// each with its own conflict window, WAL force stream and refresh
  /// fan-out, plus a sequencer for cross-shard transactions (see the
  /// file comment).  The other knobs apply per lane.
  int shard_lanes = 1;
};

/// Central certification service: K lanes, K = config.shard_lanes.
class Certifier {
 public:
  using DecisionCallback =
      std::function<void(ReplicaId origin, const CertDecision&)>;
  /// Refresh fan-out; `batch.shard` names the lane stream it travels on
  /// (always 0 at K = 1).
  using RefreshCallback =
      std::function<void(ReplicaId target, const RefreshBatch&)>;
  using GlobalCommitCallback =
      std::function<void(ReplicaId origin, TxnId txn)>;
  using ForwardCallback = std::function<void(const WriteSet&)>;

  Certifier(runtime::Runtime* rt, CertifierConfig config, int replica_count,
            bool eager);

  /// K > 1: the table -> lane map (must have K shards; not owned) and
  /// each replica's hosted lanes (see HostsShard).  Refresh fan-out for a
  /// writeset skips replicas hosting none of its lanes.  Required before
  /// the first submission.
  void EnableSharding(const ShardMap* map,
                      std::vector<std::vector<ShardId>> hosted);

  /// Wires the decision channel back to replica proxies.
  void SetDecisionCallback(DecisionCallback cb) {
    decision_cb_ = std::move(cb);
  }
  /// Wires the refresh fan-out channel.
  void SetRefreshCallback(RefreshCallback cb) { refresh_cb_ = std::move(cb); }
  /// Wires global-commit notifications (eager mode only).
  void SetGlobalCommitCallback(GlobalCommitCallback cb) {
    global_commit_cb_ = std::move(cb);
  }

  /// State-machine replication: every certification request is forwarded
  /// (in processing order, before its decision is announced) to a standby
  /// certifier, which processes the identical deterministic stream.
  void SetForwardCallback(ForwardCallback cb) { forward_cb_ = std::move(cb); }

  /// Mutes/unmutes this certifier's outward channels (decision, refresh,
  /// global-commit). A standby runs muted until promoted.
  void SetMuted(bool muted) { muted_ = muted; }
  bool muted() const { return muted_; }

  /// Attaches the system's observability layer: certification and
  /// group-commit spans, abort counters and batch-size distribution.
  /// Only the active (unmuted) certifier should be attached — a standby
  /// processes the identical stream and would double-count.
  void SetObservability(obs::Observability* obs);

  /// Submits an update transaction's writeset for certification.
  /// `ws.origin` and `ws.snapshot_version` must be filled in; at K > 1
  /// `ws.shard_snapshots` carries the per-lane snapshot coordinates (a
  /// missing lane reads as 0 — "saw nothing").
  void SubmitCertification(WriteSet ws);

  /// Eager mode: a replica reports having committed `txn` (locally or as
  /// a refresh). When all live replicas have, the origin gets the
  /// global-commit notification.
  void NotifyReplicaCommitted(TxnId txn);

  /// Refresh flow control: `replica` published `credits` refresh
  /// writesets of `lane`'s stream and frees that much of its window.
  /// Deferred writesets drain to it as one coalesced batch, up to the
  /// credits available.
  void OnCreditReturned(ReplicaId replica, int credits, ShardId lane = 0);

  /// Membership: marks a replica crashed. Refresh fan-out skips it, and in
  /// eager mode pending global commits stop waiting for it (it will catch
  /// up from this certifier's durable log on recovery).
  void MarkReplicaDown(ReplicaId replica);

  /// Membership: marks a replica live again (recovery started).
  void MarkReplicaUp(ReplicaId replica);

  /// True when `replica` is currently marked down.
  bool IsReplicaDown(ReplicaId replica) const;

  /// Recovery catch-up (single lane): invokes `sink` with every committed
  /// writeset with commit_version in (from, CommitVersion()], in version
  /// order: the durable ones decoded from the WAL starting at the first
  /// missing record, then those still awaiting their force.
  Status FetchSince(DbVersion from,
                    const std::function<void(const WriteSet&)>& sink) const;

  /// Latest commit version issued in `lane`'s version space (at K = 1 the
  /// global commit order).
  DbVersion CommitVersion(ShardId lane = 0) const {
    return lanes_[static_cast<size_t>(lane)]->v_commit;
  }

  int lane_count() const { return static_cast<int>(lanes_.size()); }
  bool sharded() const { return lanes_.size() > 1; }

  /// Distinct (table, key) coordinates currently indexed over the lanes'
  /// conflict windows (0 in linear-scan-oracle mode).
  size_t conflict_index_size() const;
  /// Decisions retained for failover idempotence (bounded by the
  /// conflict window).
  size_t decided_size() const { return decided_.size(); }
  /// Conflict-window entries across the lanes, and the bytes they hold.
  size_t window_entries() const;
  size_t window_bytes() const;

  int64_t certified_count() const { return certified_; }
  int64_t abort_count() const { return aborts_; }
  /// Submissions refused at the intake bound (never certified).
  int64_t shed_count() const { return shed_; }
  /// Cross-shard transactions decided through the sequencer.
  int64_t sequenced_count() const { return sequenced_; }
  /// Refresh credits currently available for `replica` on `lane`.
  int64_t refresh_credits(ReplicaId replica, ShardId lane = 0) const {
    return lanes_[static_cast<size_t>(lane)]
        ->credits[static_cast<size_t>(replica)];
  }
  /// Refresh writesets deferred (awaiting credits) across all streams.
  size_t deferred_refresh_total() const;
  /// Aborts caused by read-write conflicts (serializable mode only).
  int64_t rw_abort_count() const { return rw_aborts_; }
  /// Aborts caused by the conflict window being exceeded (should be 0).
  int64_t window_abort_count() const { return window_aborts_; }

  const Wal& wal(ShardId lane = 0) const {
    return lanes_[static_cast<size_t>(lane)]->wal;
  }
  Resource* cpu(ShardId lane = 0) {
    return &lanes_[static_cast<size_t>(lane)]->cpu;
  }
  Resource* disk(ShardId lane = 0) {
    return &lanes_[static_cast<size_t>(lane)]->disk;
  }

  /// Writesets certified but still waiting for `lane`'s in-flight disk
  /// force (the next group-commit batch) — a queue-depth gauge.
  size_t force_batch_pending(ShardId lane = 0) const {
    return lanes_[static_cast<size_t>(lane)]->force_batch.size();
  }

  bool eager() const { return eager_; }
  int replica_count() const { return replica_count_; }

 private:
  /// A decide-queue entry: a single-lane submission carries its writeset
  /// and the time its vote finished; a cross-shard one only its id.
  struct QueuedVote {
    TxnId txn;
    std::optional<WriteSet> ws;
    TimePoint voted_at = 0;
  };

  struct Lane {
    Lane(runtime::Runtime* rt, const std::string& name, bool serializable,
         int replicas, int64_t credit_window)
        : cpu(rt, name + "-cpu", 1),
          disk(rt, name + "-disk", 1),
          index(serializable),
          credits(static_cast<size_t>(replicas), credit_window),
          deferred(static_cast<size_t>(replicas)) {}

    Resource cpu;
    Resource disk;
    /// The conflict window: this lane's commits (at K > 1 a cross-shard
    /// commit contributes its sub-writeset's keys), ascending by lane
    /// version, pruned to config_.conflict_window.
    std::deque<CommittedWrites> recent;
    /// Sum of recent[i].Bytes().
    size_t recent_bytes = 0;
    /// Keyed index over `recent`: (table, key) -> newest committed write
    /// (plus per-table ordered maps in serializable mode), making a
    /// certification O(|writeset|) lookups instead of a window rescan.
    /// Not maintained in linear-scan-oracle mode.
    CommittedKeyIndex index;
    DbVersion v_commit = 0;
    Wal wal;
    /// Writesets certified but awaiting the in-flight disk force.
    std::vector<WriteSetRef> force_batch;
    /// The batch the in-flight force covers (empty when none is).
    std::vector<WriteSetRef> forcing;
    bool force_in_flight = false;
    /// Decide queue: voted but undecided transactions, in arrival order.
    /// Non-empty only while a cross-shard transaction waits at its head.
    std::deque<QueuedVote> queue;
    /// Refresh flow control (only consulted when refresh_credit_window >
    /// 0): per-replica credits remaining, and writesets deferred in
    /// lane-version order until the replica returns credits.
    std::vector<int64_t> credits;
    std::vector<std::deque<WriteSetRef>> deferred;
  };

  /// A cross-shard transaction between submission and decision.
  struct CrossShardTxn {
    WriteSet ws;
    std::vector<ShardId> lanes;
    int votes_outstanding = 0;
    TimePoint submitted_at = 0;
    TimePoint voted_at = 0;  ///< when the last vote finished
  };

  Lane& lane(ShardId s) { return *lanes_[static_cast<size_t>(s)]; }
  /// `ws`'s snapshot in `lane`'s version space.
  DbVersion SnapshotIn(const WriteSet& ws, ShardId lane) const;
  /// A single-lane submission finished its CPU service: replay, drop,
  /// queue behind a cross-shard transaction, or decide.
  void OnVote(ShardId lane, WriteSet ws);
  /// Emits the certifier.intake_wait / certifier.certify spans of a
  /// submission received at `enqueued` whose (last) vote just finished.
  void EmitCertifySpans(TxnId txn, TimePoint enqueued);
  /// One lane's vote for a cross-shard transaction completed.
  void OnCrossShardVote(ShardId lane, TxnId txn);
  /// Decides every queued transaction that is ready and at the head of
  /// all its lanes' queues, until no further progress.
  void DecideQueued();
  /// The certification decision over the touched lanes; `voted_at` is
  /// when its (last) vote finished — the start of its force_wait span,
  /// which so also covers any wait in the decide queues.
  void Decide(WriteSet ws, std::span<const ShardId> touched,
              TimePoint voted_at);
  /// Announces and records an abort.
  void Reject(const WriteSet& ws, const char* reason,
              DbVersion conflict_version, TxnId conflict_txn);
  /// Records a decision for failover idempotence and retires decisions a
  /// full conflict window of commits old.
  void RecordDecision(const CertDecision& decision);
  /// Adds a committed (sub-)writeset to `lane`'s conflict window.
  void Install(ShardId lane, const WriteSet& ws);
  /// Appends to `lane`'s durable log via group commit.
  void QueueForce(ShardId lane, WriteSetRef ws);
  /// Forces `lane`'s pending batch (up to max_force_batch writesets) to
  /// disk; reschedules itself while decisions keep arriving.
  void ForceNext(ShardId lane);
  /// Sends the commit decision + per-writeset refresh fan-out for one
  /// durable writeset (the unbatched announcement path).
  void Announce(const WriteSetRef& ws);
  /// Sends one writeset's commit decision to its origin.
  void AnnounceDecision(const WriteSet& ws);
  /// Refresh-batching: sends each live replica one message carrying the
  /// whole force batch (minus writesets it originated).
  void AnnounceRefreshBatches(const std::vector<WriteSetRef>& batch);
  /// Refuses one submission at the intake bound: an immediate
  /// `overloaded` decision, no certification, no standby forward.
  void ShedSubmission(const WriteSet& ws);
  /// Sends `ws` to `replica` on `lane`'s stream now if a credit is
  /// available (or flow control is off), otherwise defers it until
  /// credits return.
  void SendRefresh(ShardId lane, ReplicaId replica, const WriteSetRef& ws);
  /// Appends a kCertVerdict event (no-op without an event log or while
  /// muted — a standby re-decides the identical stream).
  void EmitVerdict(const WriteSet& ws, bool commit, const char* reason,
                   DbVersion conflict_version, TxnId conflict_txn);

  runtime::Runtime* rt_;
  CertifierConfig config_;
  int replica_count_;
  bool eager_;

  std::vector<std::unique_ptr<Lane>> lanes_;
  const ShardMap* map_ = nullptr;
  std::vector<std::vector<ShardId>> hosted_;

  std::unordered_map<TxnId, CrossShardTxn> cross_shard_;
  /// Cross-shard commits awaiting joint durability: the touched-lane
  /// forces not yet completed and the full writeset to announce once the
  /// last one lands (the lanes' force batches carry the sub-writesets).
  std::unordered_map<TxnId, std::pair<int, WriteSetRef>> joint_;

  EagerCommitTracker eager_tracker_;
  std::unordered_map<TxnId, ReplicaId> eager_origins_;
  std::vector<bool> replica_down_;

  int64_t certified_ = 0;
  int64_t aborts_ = 0;
  int64_t window_aborts_ = 0;
  int64_t rw_aborts_ = 0;
  int64_t shed_ = 0;
  int64_t sequenced_ = 0;

  /// Certification is idempotent: re-submissions after a failover get the
  /// original decision back instead of being re-decided.  Bounded: a
  /// decision is retired once a full conflict window of commits has been
  /// certified after it (`decided_log_` remembers certified_ when each
  /// decision was made, in decision order; at K = 1 that is the commit
  /// version) — failover resubmissions arrive within a handful of
  /// versions, so in-window idempotence is preserved while the map stops
  /// growing with run length.
  std::unordered_map<TxnId, CertDecision> decided_;
  std::deque<std::pair<int64_t, TxnId>> decided_log_;

  bool muted_ = false;

  // Observability (all optional; null until SetObservability).
  obs::Tracer* tracer_ = nullptr;
  obs::EventLog* event_log_ = nullptr;
  /// Certification-done times of commits awaiting their group-commit
  /// force, for the "certifier.force_wait" span (tracing only).
  std::unordered_map<TxnId, TimePoint> certify_done_at_;
  obs::Counter* ctr_certified_ = nullptr;
  obs::Counter* ctr_aborts_ww_ = nullptr;
  obs::Counter* ctr_aborts_rw_ = nullptr;
  obs::Counter* ctr_aborts_window_ = nullptr;
  obs::Counter* ctr_forces_ = nullptr;
  obs::Counter* ctr_shed_ = nullptr;
  obs::Counter* ctr_sequenced_ = nullptr;
  Histogram* batch_size_hist_ = nullptr;
  obs::Gauge* last_batch_gauge_ = nullptr;

  DecisionCallback decision_cb_;
  RefreshCallback refresh_cb_;
  GlobalCommitCallback global_commit_cb_;
  ForwardCallback forward_cb_;
};

}  // namespace screp

#endif  // SCREP_REPLICATION_CERTIFIER_H_
