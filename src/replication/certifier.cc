#include "replication/certifier.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/logging.h"

namespace screp {

Certifier::Certifier(runtime::Runtime* rt, CertifierConfig config,
                     int replica_count, bool eager)
    : rt_(rt),
      config_(config),
      replica_count_(replica_count),
      eager_(eager),
      eager_tracker_(replica_count),
      replica_down_(static_cast<size_t>(replica_count), false) {
  SCREP_CHECK_MSG(config.shard_lanes >= 1, "need at least one lane");
  for (int s = 0; s < config.shard_lanes; ++s) {
    lanes_.push_back(std::make_unique<Lane>(
        rt,
        config.shard_lanes == 1 ? "certifier"
                                : "certifier-lane" + std::to_string(s),
        config.mode == CertificationMode::kSerializable, replica_count,
        static_cast<int64_t>(config.refresh_credit_window)));
  }
}

void Certifier::EnableSharding(const ShardMap* map,
                               std::vector<std::vector<ShardId>> hosted) {
  SCREP_CHECK(map != nullptr && map->shard_count() == lane_count());
  SCREP_CHECK_MSG(hosted.empty() ||
                      hosted.size() == static_cast<size_t>(replica_count_),
                  "hosted-shard sets must cover every replica");
  map_ = map;
  hosted_ = std::move(hosted);
}

void Certifier::SetObservability(obs::Observability* obs) {
  obs::MetricsRegistry* registry = obs != nullptr ? obs->registry() : nullptr;
  auto counter = [registry](const char* name) {
    return registry != nullptr ? registry->GetCounter(name) : nullptr;
  };
  tracer_ = obs != nullptr ? obs->tracer() : nullptr;
  event_log_ = obs != nullptr ? obs->event_log() : nullptr;
  ctr_certified_ = counter("certifier.certified");
  ctr_aborts_ww_ = counter("certifier.aborts.ww");
  ctr_aborts_rw_ = counter("certifier.aborts.rw");
  ctr_aborts_window_ = counter("certifier.aborts.window");
  ctr_forces_ = counter("certifier.forces");
  ctr_shed_ = counter("certifier.shed");
  // Registered only where the sequencer exists, so K = 1 metric
  // snapshots are unchanged.
  ctr_sequenced_ = sharded() ? counter("certifier.sequenced") : nullptr;
  batch_size_hist_ = registry != nullptr
                         ? registry->GetHistogram("certifier.batch_size")
                         : nullptr;
  last_batch_gauge_ = registry != nullptr
                          ? registry->GetGauge("certifier.last_batch_size")
                          : nullptr;
}

size_t Certifier::conflict_index_size() const {
  size_t total = 0;
  for (const auto& l : lanes_) total += l->index.size();
  return total;
}

size_t Certifier::window_entries() const {
  size_t total = 0;
  for (const auto& l : lanes_) total += l->recent.size();
  return total;
}

size_t Certifier::window_bytes() const {
  size_t total = 0;
  for (const auto& l : lanes_) total += l->recent_bytes;
  return total;
}

size_t Certifier::deferred_refresh_total() const {
  size_t total = 0;
  for (const auto& l : lanes_) {
    for (const auto& q : l->deferred) total += q.size();
  }
  return total;
}

DbVersion Certifier::SnapshotIn(const WriteSet& ws, ShardId lane) const {
  return sharded() ? ShardVersionOf(ws.shard_snapshots, lane)
                   : ws.snapshot_version;
}

void Certifier::SubmitCertification(WriteSet ws) {
  SCREP_CHECK_MSG(!ws.empty(), "read-only writesets never reach the certifier");
  SCREP_CHECK(ws.origin != kNoReplica);
  const TxnId txn = ws.txn_id;
  // Duplicate of an in-flight cross-shard submission: dropped — the
  // pending decision reaches the origin exactly once.  (A single-lane
  // duplicate is resolved when its vote completes, in OnVote.)
  if (cross_shard_.count(txn) > 0) return;
  std::vector<ShardId> touched;
  if (sharded()) {
    SCREP_CHECK_MSG(map_ != nullptr, "K > 1 needs EnableSharding()");
    touched = map_->ShardsOf(ws);
    SCREP_CHECK_MSG(!touched.empty(), "writeset touches no shard");
  }
  const ShardId first = touched.empty() ? 0 : touched.front();
  // Intake bound, per lane: refuse on arrival when ANY touched lane's CPU
  // queue is at the bound, BEFORE the writeset can enter the
  // certification stream — a shed submission is never forwarded to the
  // standby (primary and standby still process identical streams), and a
  // cross-shard transaction admitted into only some of its lanes would
  // stall every queue behind its missing votes.  Resubmissions of
  // decided transactions are exempt: their decision must be re-sent.
  if (!muted_ && config_.max_intake > 0) {
    bool at_bound = lane(first).cpu.QueueLength() >= config_.max_intake;
    for (ShardId s : touched) {
      at_bound = at_bound || lane(s).cpu.QueueLength() >= config_.max_intake;
    }
    if (at_bound && decided_.count(txn) == 0) {
      ShedSubmission(ws);
      return;
    }
  }
  if (touched.size() > 1) {
    if (auto it = decided_.find(txn); it != decided_.end()) {
      // Replay after one lane's CPU service.  The decision is captured by
      // value: retirement before the service cannot invalidate it.
      lane(first).cpu.Submit(
          config_.certify_cpu_time,
          [this, origin = ws.origin, decision = it->second]() {
            if (!muted_) decision_cb_(origin, decision);
          });
      return;
    }
    CrossShardTxn& pending = cross_shard_[txn];
    pending.ws = std::move(ws);
    pending.votes_outstanding = static_cast<int>(touched.size());
    pending.lanes = std::move(touched);
    pending.submitted_at = rt_->Now();
    // One certify-CPU service per touched lane: the per-shard conflict
    // checks proceed in parallel.
    for (ShardId s : pending.lanes) {
      lane(s).cpu.Submit(config_.certify_cpu_time,
                         [this, s, txn]() { OnCrossShardVote(s, txn); });
    }
    return;
  }
  // Single lane: each lane's CPU is one FIFO server, so certifications
  // are processed in arrival order and version assignment is
  // deterministic.
  const TimePoint enqueued = rt_->Now();
  lane(first).cpu.Submit(
      config_.certify_cpu_time,
      [this, first, enqueued, ws = std::move(ws)]() mutable {
        const TxnId id = ws.txn_id;
        OnVote(first, std::move(ws));
        EmitCertifySpans(id, enqueued);
      });
}

void Certifier::EmitCertifySpans(TxnId txn, TimePoint enqueued) {
  if (tracer_ == nullptr || muted_) return;
  // The single-server FIFO CPU served the (last) vote for exactly
  // certify_cpu_time at the end of the interval; everything before that
  // was intake queueing.  A cross-shard transaction's earlier votes ran
  // in parallel on other lanes, off the critical path.
  const TimePoint service_start = rt_->Now() - config_.certify_cpu_time;
  tracer_->Add({.name = "certifier.intake_wait",
                .category = "certifier",
                .pid = obs::kCertifierPid,
                .tid = static_cast<int64_t>(txn),
                .start = enqueued,
                .duration = service_start - enqueued,
                .txn = txn});
  tracer_->Add({.name = "certifier.certify",
                .category = "certifier",
                .pid = obs::kCertifierPid,
                .tid = static_cast<int64_t>(txn),
                .start = service_start,
                .duration = config_.certify_cpu_time,
                .txn = txn});
}

void Certifier::ShedSubmission(const WriteSet& ws) {
  ++shed_;
  if (ctr_shed_ != nullptr) ctr_shed_->Increment();
  if (event_log_ != nullptr && event_log_->enabled()) {
    obs::Event e;
    e.kind = obs::EventKind::kShed;
    e.at = rt_->Now();
    e.txn = ws.txn_id;
    e.replica = ws.origin;
    e.detail = "certifier";
    event_log_->Append(std::move(e));
  }
  // Deliberately NOT recorded in decided_: nothing was certified, and a
  // retry must be certified fresh (against its new snapshot).
  CertDecision decision;
  decision.txn_id = ws.txn_id;
  decision.commit = false;
  decision.overloaded = true;
  decision_cb_(ws.origin, decision);
}

void Certifier::OnVote(ShardId lane_id, WriteSet ws) {
  // Idempotence: a transaction re-submitted after a certifier failover
  // (or a duplicated message) gets its original decision.
  if (auto it = decided_.find(ws.txn_id); it != decided_.end()) {
    if (!muted_) decision_cb_(ws.origin, it->second);
    return;
  }
  auto& queue = lane(lane_id).queue;
  if (queue.empty()) {
    Decide(std::move(ws), {&lane_id, 1}, rt_->Now());
    return;
  }
  // Behind an undecided cross-shard transaction: wait in line, unless the
  // original of this submission already does.
  for (const auto& queued : queue) {
    if (queued.txn == ws.txn_id) return;
  }
  const TxnId txn = ws.txn_id;
  queue.push_back({txn, std::move(ws), rt_->Now()});
}

void Certifier::OnCrossShardVote(ShardId lane_id, TxnId txn) {
  auto it = cross_shard_.find(txn);
  SCREP_CHECK_MSG(it != cross_shard_.end(), "vote for unknown txn " << txn);
  lane(lane_id).queue.push_back({txn, std::nullopt});
  if (--it->second.votes_outstanding > 0) return;
  it->second.voted_at = rt_->Now();
  EmitCertifySpans(txn, it->second.submitted_at);
  DecideQueued();
}

void Certifier::DecideQueued() {
  // Each decision pops queue heads and may unblock the next, so sweep
  // until a full pass makes no progress.
  bool progress = true;
  while (progress) {
    progress = false;
    for (ShardId s = 0; s < lane_count(); ++s) {
      auto& queue = lane(s).queue;
      if (queue.empty()) continue;
      if (queue.front().ws.has_value()) {
        // A single-lane transaction decides as soon as it is at the head.
        WriteSet ws = std::move(*queue.front().ws);
        const TimePoint voted_at = queue.front().voted_at;
        queue.pop_front();
        Decide(std::move(ws), {&s, 1}, voted_at);
        progress = true;
        continue;
      }
      auto it = cross_shard_.find(queue.front().txn);
      SCREP_CHECK(it != cross_shard_.end());
      if (it->second.votes_outstanding > 0) continue;
      const std::vector<ShardId>& lanes = it->second.lanes;
      if (!std::all_of(lanes.begin(), lanes.end(), [&](ShardId t) {
            const auto& q = lane(t).queue;
            return !q.empty() && q.front().txn == it->first;
          })) {
        continue;
      }
      CrossShardTxn pending = std::move(it->second);
      cross_shard_.erase(it);
      for (ShardId t : pending.lanes) lane(t).queue.pop_front();
      Decide(std::move(pending.ws), pending.lanes, pending.voted_at);
      progress = true;
    }
  }
}

void Certifier::EmitVerdict(const WriteSet& ws, bool commit,
                            const char* reason, DbVersion conflict_version,
                            TxnId conflict_txn) {
  if (muted_ || event_log_ == nullptr || !event_log_->enabled()) return;
  obs::Event e;
  e.kind = obs::EventKind::kCertVerdict;
  e.at = rt_->Now();
  e.txn = ws.txn_id;
  e.replica = ws.origin;
  e.snapshot = ws.snapshot_version;
  e.committed = commit;
  e.read_only = false;
  e.shard_snapshots = ws.shard_snapshots;
  if (commit) {
    e.commit_version = ws.commit_version;
    e.shard_versions = ws.shard_versions;
  } else {
    e.detail = reason;
    e.conflict_version = conflict_version;
    e.conflict_txn = conflict_txn;
  }
  event_log_->Append(std::move(e));
}

void Certifier::RecordDecision(const CertDecision& decision) {
  decided_[decision.txn_id] = decision;
  decided_log_.emplace_back(certified_, decision.txn_id);
  // Retire decisions a full conflict window old: a transaction
  // re-submitted that long after its decision would be window-aborted
  // anyway, so idempotence only needs the in-window tail.
  const auto horizon = static_cast<int64_t>(config_.conflict_window);
  while (!decided_log_.empty() &&
         certified_ - decided_log_.front().first > horizon) {
    decided_.erase(decided_log_.front().second);
    decided_log_.pop_front();
  }
}

void Certifier::Reject(const WriteSet& ws, const char* reason,
                       DbVersion conflict_version, TxnId conflict_txn) {
  ++aborts_;
  EmitVerdict(ws, /*commit=*/false, reason, conflict_version, conflict_txn);
  CertDecision decision{ws.txn_id, /*commit=*/false, kNoVersion};
  RecordDecision(decision);
  if (!muted_) decision_cb_(ws.origin, decision);
}

void Certifier::Decide(WriteSet ws, std::span<const ShardId> touched,
                       TimePoint voted_at) {
  // Forward to the standby BEFORE any decision can be announced, so the
  // standby's deterministic state always covers everything the replicas
  // may have observed (synchronous state-machine replication).
  if (forward_cb_) forward_cb_(ws);
  // Conservative abort when any touched lane's retained window no longer
  // covers the transaction's snapshot in that lane.
  for (ShardId s : touched) {
    const Lane& l = lane(s);
    const DbVersion snapshot = SnapshotIn(ws, s);
    const DbVersion window_start =
        l.recent.empty() ? 0 : l.recent.front().version - 1;
    if (snapshot >= window_start) continue;
    ++window_aborts_;
    if (!muted_) {
      if (ctr_aborts_window_ != nullptr) ctr_aborts_window_->Increment();
      SCREP_LOG(kWarn) << "[certifier] conservative window abort of txn "
                       << ws.txn_id << ": lane " << s << " snapshot "
                       << snapshot << " predates the retained window "
                       << "(starts at " << window_start
                       << ", conflict_window=" << config_.conflict_window
                       << ")";
    }
    Reject(ws, "window", kNoVersion, 0);
    return;
  }
  // First-committer-wins across every touched lane: conflict with any
  // writeset committed after this transaction's snapshot aborts it.
  // Serializable mode also aborts read-write conflicts (this transaction
  // read data a concurrent committed transaction wrote).  Each lane
  // reports its newest conflict; the indexed path looks each written /
  // read key up in the lane's conflict index — O(|writeset|) — and
  // reports exactly what the oracle's newest-first window rescan reports
  // (foreign-lane keys simply never hit).  Lane versions are
  // incomparable, so across lanes "newest" is resolved by the commit
  // sequence number stored with each entry; on a tie (one committed
  // cross-shard transaction hitting through several lanes), and within a
  // lane on a same-version hit, the write-write classification wins,
  // matching the oracle's per-writeset check order.
  const bool serializable =
      config_.mode == CertificationMode::kSerializable;
  bool found = false, ww = false;
  int64_t best_seq = -1;
  DbVersion conflict_version = kNoVersion;
  TxnId conflict_txn = 0;
  for (ShardId s : touched) {
    Lane& l = lane(s);
    const DbVersion snapshot = SnapshotIn(ws, s);
    bool lane_found = false, lane_ww = false;
    DbVersion lane_version = kNoVersion;
    TxnId lane_txn = 0;
    if (config_.linear_scan_oracle) {
      // recent is ascending by version: scan from the back and stop at
      // the snapshot; the first conflict found is the newest.
      for (auto it = l.recent.rbegin(); it != l.recent.rend(); ++it) {
        const CommittedWrites& committed = *it;
        if (committed.version <= snapshot) break;
        const bool hit_ww = committed.WritesConflictWith(ws);
        if (hit_ww || (serializable && committed.ReadsConflictWith(ws))) {
          lane_found = true;
          lane_ww = hit_ww;
          lane_version = committed.version;
          lane_txn = committed.txn;
          break;
        }
      }
    } else {
      CommittedKeyIndex::Hit write_hit, read_hit;
      const bool has_write =
          l.index.LatestWriteConflict(ws, snapshot, &write_hit);
      const bool has_read =
          serializable && l.index.LatestReadConflict(ws, snapshot, &read_hit);
      if (has_write || has_read) {
        lane_found = true;
        lane_ww = has_write && write_hit.version >= read_hit.version;
        const CommittedKeyIndex::Hit& hit = lane_ww ? write_hit : read_hit;
        lane_version = hit.version;
        lane_txn = hit.txn;
      }
    }
    if (!lane_found) continue;
    const int64_t lane_seq =
        touched.size() == 1
            ? 0
            : l.recent[static_cast<size_t>(lane_version -
                                           l.recent.front().version)]
                  .seq;
    if (!found || lane_seq > best_seq || (lane_seq == best_seq && lane_ww)) {
      found = true;
      ww = lane_ww;
      best_seq = lane_seq;
      conflict_version = lane_version;
      conflict_txn = lane_txn;
    }
  }
  if (found) {
    if (!ww) ++rw_aborts_;
    if (!muted_) {
      obs::Counter* ctr = ww ? ctr_aborts_ww_ : ctr_aborts_rw_;
      if (ctr != nullptr) ctr->Increment();
      SCREP_LOG(kDebug) << "[certifier] certification abort of txn "
                        << ws.txn_id << " from replica " << ws.origin
                        << " (snapshot " << ws.snapshot_version << "): "
                        << (ww ? "write-write" : "read-write")
                        << " conflict with committed version "
                        << conflict_version << " (txn " << conflict_txn
                        << ")";
    }
    Reject(ws, ww ? "ww" : "rw", conflict_version, conflict_txn);
    return;
  }
  // Commit: assign the next version in every touched lane, atomically —
  // at K = 1 the next version in the global total order.  The scalar
  // commit_version is the lowest-numbered touched lane's version; at
  // K > 1 shard_versions carries them all.  Then freeze the writeset —
  // one immutable object shared by the force batch, every per-target
  // refresh batch and the proxies' apply queues.
  ++certified_;
  ws.shard_versions.clear();
  ws.commit_version = lane(touched.front()).v_commit + 1;
  for (ShardId s : touched) {
    const DbVersion v = ++lane(s).v_commit;
    if (sharded()) ws.shard_versions.emplace_back(s, v);
  }
  if (touched.size() > 1) {
    ++sequenced_;
    if (ctr_sequenced_ != nullptr) ctr_sequenced_->Increment();
  }
  EmitVerdict(ws, /*commit=*/true, nullptr, kNoVersion, 0);
  if (!muted_ && ctr_certified_ != nullptr) ctr_certified_->Increment();
  CertDecision decision{ws.txn_id, /*commit=*/true, ws.commit_version};
  decision.shard_versions = ws.shard_versions;
  RecordDecision(decision);
  WriteSetRef frozen = std::make_shared<const WriteSet>(std::move(ws));
  if (eager_) {
    eager_tracker_.OnCertified(frozen->txn_id);
    eager_origins_[frozen->txn_id] = frozen->origin;
  }
  if (tracer_ != nullptr && !muted_ && tracer_->active()) {
    // Remember when certification finished so the announcement after the
    // group-commit force can span the durability wait (plus, at K > 1,
    // any wait in the decide queues since the last vote).
    certify_done_at_[frozen->txn_id] = voted_at;
  }
  if (touched.size() == 1) {
    Install(touched.front(), *frozen);
    QueueForce(touched.front(), std::move(frozen));
    return;
  }
  // Cross-shard: each touched lane windows and logs the sub-writeset of
  // its own tables, stamped in its own version space; the full writeset
  // is announced once every lane's force has landed (joint durability).
  joint_[frozen->txn_id] = {static_cast<int>(touched.size()), frozen};
  for (const auto& [s, version] : frozen->shard_versions) {
    WriteSet sub = map_->SubWriteSet(*frozen, s);
    sub.snapshot_version = SnapshotIn(*frozen, s);
    sub.commit_version = version;
    WriteSetRef frozen_sub = std::make_shared<const WriteSet>(std::move(sub));
    Install(s, *frozen_sub);
    QueueForce(s, std::move(frozen_sub));
  }
}

void Certifier::Install(ShardId lane_id, const WriteSet& ws) {
  Lane& l = lane(lane_id);
  const CommittedWrites& entry = l.recent.emplace_back(ws, certified_);
  l.recent_bytes += entry.Bytes();
  if (!config_.linear_scan_oracle) l.index.Insert(entry);
  while (l.recent.size() > config_.conflict_window) {
    if (!config_.linear_scan_oracle) l.index.Erase(l.recent.front());
    l.recent_bytes -= l.recent.front().Bytes();
    l.recent.pop_front();
  }
}

void Certifier::QueueForce(ShardId lane_id, WriteSetRef ws) {
  // Group commit: batch decisions while a force is in flight; the next
  // force covers the whole batch with a single disk write.
  Lane& l = lane(lane_id);
  l.force_batch.push_back(std::move(ws));
  if (l.force_in_flight) return;
  l.force_in_flight = true;
  ForceNext(lane_id);
}

void Certifier::ForceNext(ShardId lane_id) {
  Lane& l = lane(lane_id);
  if (config_.max_force_batch > 0 &&
      l.force_batch.size() > config_.max_force_batch) {
    // Capped group commit: take the oldest max_force_batch writesets (in
    // version order) and leave the rest for the next force.
    const auto split = l.force_batch.begin() +
                       static_cast<std::ptrdiff_t>(config_.max_force_batch);
    l.forcing.assign(l.force_batch.begin(), split);
    l.force_batch.erase(l.force_batch.begin(), split);
  } else {
    l.forcing.swap(l.force_batch);
  }
  const TimePoint force_start = rt_->Now();
  l.disk.Submit(
      config_.log_force_time, [this, lane_id, force_start]() {
        const std::vector<WriteSetRef> batch =
            std::move(lane(lane_id).forcing);
        lane(lane_id).forcing.clear();
        const auto batch_size = static_cast<int64_t>(batch.size());
        if (!muted_) {
          if (ctr_forces_ != nullptr) ctr_forces_->Increment();
          if (batch_size_hist_ != nullptr) {
            batch_size_hist_->Add(static_cast<double>(batch_size));
          }
          if (last_batch_gauge_ != nullptr) {
            last_batch_gauge_->Set(static_cast<double>(batch_size));
          }
          if (tracer_ != nullptr) {
            tracer_->Add({.name = "certifier.log_force",
                          .category = "certifier",
                          .pid = obs::kCertifierPid,
                          .tid = 0,
                          .start = force_start,
                          .duration = rt_->Now() - force_start,
                          .txn = 0,
                          .arg_name = "batch",
                          .arg_value = batch_size});
          }
        }
        Lane& forced = lane(lane_id);
        for (const WriteSetRef& logged : batch) {
          forced.wal.Append(*logged, /*force=*/true);
          const WriteSetRef* durable = &logged;
          WriteSetRef full;
          if (auto it = joint_.find(logged->txn_id); it != joint_.end()) {
            // A cross-shard commit announces only once its force
            // completed in EVERY touched lane.
            if (--it->second.first > 0) continue;
            full = std::move(it->second.second);
            joint_.erase(it);
            durable = &full;
          }
          // Refresh batching: decisions per writeset (in version order)
          // now, then one coalesced refresh message per target below.
          if (config_.refresh_batching) {
            AnnounceDecision(**durable);
          } else {
            Announce(*durable);
          }
        }
        if (config_.refresh_batching) AnnounceRefreshBatches(batch);
        if (!forced.force_batch.empty()) {
          ForceNext(lane_id);
        } else {
          forced.force_in_flight = false;
        }
      });
}

void Certifier::Announce(const WriteSetRef& ws) {
  if (muted_) return;  // standby: identical state, silent channels
  AnnounceDecision(*ws);
  for (ReplicaId r = 0; r < replica_count_; ++r) {
    if (r == ws->origin) continue;
    if (replica_down_[static_cast<size_t>(r)]) continue;  // catches up later
    if (!sharded()) {
      SendRefresh(0, r, ws);
      continue;
    }
    // Filtered to hosting replicas: each target gets the writeset exactly
    // once, on the lowest-numbered touched lane it hosts (its proxy
    // ingests it into every touched hosted stream).
    for (const auto& [s, version] : ws->shard_versions) {
      (void)version;
      if (!HostsShard(hosted_, r, s)) continue;
      SendRefresh(s, r, ws);
      break;
    }
  }
}

void Certifier::SendRefresh(ShardId lane_id, ReplicaId replica,
                            const WriteSetRef& ws) {
  Lane& l = lane(lane_id);
  const auto idx = static_cast<size_t>(replica);
  if (config_.refresh_credit_window > 0) {
    // Order preservation: once anything is deferred for this replica,
    // everything newer must queue behind it.
    if (!l.deferred[idx].empty() || l.credits[idx] <= 0) {
      l.deferred[idx].push_back(ws);
      return;
    }
    --l.credits[idx];
  }
  refresh_cb_(replica, RefreshBatch{{ws}, lane_id});
}

void Certifier::AnnounceDecision(const WriteSet& ws) {
  if (muted_) return;
  if (tracer_ != nullptr) {
    if (auto it = certify_done_at_.find(ws.txn_id);
        it != certify_done_at_.end()) {
      tracer_->Add({.name = "certifier.force_wait",
                    .category = "certifier",
                    .pid = obs::kCertifierPid,
                    .tid = static_cast<int64_t>(ws.txn_id),
                    .start = it->second,
                    .duration = rt_->Now() - it->second,
                    .txn = ws.txn_id});
      certify_done_at_.erase(it);
    }
  }
  CertDecision decision{ws.txn_id, /*commit=*/true, ws.commit_version};
  decision.shard_versions = ws.shard_versions;
  decision_cb_(ws.origin, decision);
}

void Certifier::AnnounceRefreshBatches(
    const std::vector<WriteSetRef>& batch) {
  if (muted_) return;
  // Single lane only: ReplicatedSystem::Create() refuses refresh batching
  // at K > 1.
  Lane& l = lane(0);
  const bool credited = config_.refresh_credit_window > 0;
  for (ReplicaId r = 0; r < replica_count_; ++r) {
    const auto idx = static_cast<size_t>(r);
    if (replica_down_[idx]) continue;  // catches up later
    RefreshBatch refresh;
    for (const WriteSetRef& ws : batch) {
      if (ws->origin == r) continue;  // the origin applies its own commit
      // Each writeset in the coalesced batch consumes one credit; the
      // overflow is deferred in version order behind anything already
      // deferred.
      if (credited && (!l.deferred[idx].empty() || l.credits[idx] <= 0)) {
        l.deferred[idx].push_back(ws);
        continue;
      }
      if (credited) --l.credits[idx];
      refresh.writesets.push_back(ws);
    }
    if (!refresh.writesets.empty()) refresh_cb_(r, refresh);
  }
}

void Certifier::OnCreditReturned(ReplicaId replica, int credits,
                                 ShardId lane_id) {
  if (config_.refresh_credit_window == 0) return;
  SCREP_CHECK(replica >= 0 && replica < replica_count_);
  SCREP_CHECK(lane_id >= 0 && lane_id < lane_count());
  Lane& l = lane(lane_id);
  const auto idx = static_cast<size_t>(replica);
  // Cap at the window: duplicate-tolerant (a proxy returning a credit for
  // a writeset the channel duplicated can never inflate the window).
  l.credits[idx] =
      std::min(l.credits[idx] + credits,
               static_cast<int64_t>(config_.refresh_credit_window));
  if (muted_ || replica_down_[idx]) return;
  auto& deferred = l.deferred[idx];
  if (deferred.empty()) return;
  // Drain as ONE coalesced batch up to the credits available — under
  // sustained pressure the flow-control path batches fan-out by itself.
  RefreshBatch refresh;
  refresh.shard = lane_id;
  while (!deferred.empty() && l.credits[idx] > 0) {
    refresh.writesets.push_back(std::move(deferred.front()));
    deferred.pop_front();
    --l.credits[idx];
  }
  if (!refresh.writesets.empty()) refresh_cb_(replica, refresh);
}

void Certifier::MarkReplicaDown(ReplicaId replica) {
  SCREP_CHECK(replica >= 0 && replica < replica_count_);
  const auto idx = static_cast<size_t>(replica);
  if (replica_down_[idx]) return;
  replica_down_[idx] = true;
  if (config_.refresh_credit_window > 0) {
    // In-flight refreshes and deferred backlog are moot: the replica
    // catches up from the durable log on recovery, so its window resets.
    for (auto& l : lanes_) {
      l->deferred[idx].clear();
      l->credits[idx] = static_cast<int64_t>(config_.refresh_credit_window);
    }
  }
  if (!eager_) return;
  int active = 0;
  for (bool down : replica_down_) active += down ? 0 : 1;
  SCREP_CHECK_MSG(active >= 1, "all replicas down");
  // Lowering the bar may complete pending global commits.
  for (TxnId txn : eager_tracker_.SetActiveReplicaCount(active)) {
    auto it = eager_origins_.find(txn);
    SCREP_CHECK(it != eager_origins_.end());
    const ReplicaId origin = it->second;
    eager_origins_.erase(it);
    // The origin itself may be the crashed replica; its client will be
    // told of the failure by the load balancer instead.
    if (origin != replica) global_commit_cb_(origin, txn);
  }
}

void Certifier::MarkReplicaUp(ReplicaId replica) {
  SCREP_CHECK(replica >= 0 && replica < replica_count_);
  const auto idx = static_cast<size_t>(replica);
  if (!replica_down_[idx]) return;
  replica_down_[idx] = false;
  if (config_.refresh_credit_window > 0) {
    // The recovered replica's apply pipeline restarted empty; any credit
    // returns still in flight from before the crash will be capped.
    for (auto& l : lanes_) {
      l->credits[idx] = static_cast<int64_t>(config_.refresh_credit_window);
    }
  }
  if (!eager_) return;
  int active = 0;
  for (bool down : replica_down_) active += down ? 0 : 1;
  // Raising the bar never completes anything.
  (void)eager_tracker_.SetActiveReplicaCount(active);
}

bool Certifier::IsReplicaDown(ReplicaId replica) const {
  SCREP_CHECK(replica >= 0 && replica < replica_count_);
  return replica_down_[static_cast<size_t>(replica)];
}

Status Certifier::FetchSince(
    DbVersion from,
    const std::function<void(const WriteSet&)>& sink) const {
  SCREP_CHECK_MSG(!sharded(), "catch-up is single-lane only");
  const Lane& l = *lanes_.front();
  if (from >= l.v_commit) return Status::OK();
  // One lane forces every commit as exactly one WAL record, in version
  // order, so record i holds version i + 1: the durable part of the range
  // starts at record `from`.  The rest is in the in-flight force and the
  // batch behind it.
  SCREP_RETURN_NOT_OK(l.wal.ReadFrom(static_cast<uint64_t>(from), sink));
  for (const auto* batch : {&l.forcing, &l.force_batch}) {
    for (const WriteSetRef& ws : *batch) {
      if (ws->commit_version > from) sink(*ws);
    }
  }
  return Status::OK();
}

void Certifier::NotifyReplicaCommitted(TxnId txn) {
  if (!eager_) return;
  if (eager_tracker_.OnReplicaCommitted(txn)) {
    auto it = eager_origins_.find(txn);
    SCREP_CHECK(it != eager_origins_.end());
    const ReplicaId origin = it->second;
    eager_origins_.erase(it);
    if (!muted_) global_commit_cb_(origin, txn);
  }
}

}  // namespace screp
