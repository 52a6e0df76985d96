#include "replication/certifier.h"
#include "runtime/sim_runtime.h"

#include <gtest/gtest.h>

#include <map>
#include <tuple>

namespace screp {
namespace {

WriteSet MakeWs(TxnId id, ReplicaId origin, DbVersion snapshot,
                std::initializer_list<int64_t> keys, TableId table = 0) {
  WriteSet ws;
  ws.txn_id = id;
  ws.origin = origin;
  ws.snapshot_version = snapshot;
  for (int64_t key : keys) {
    ws.Add(table, key, WriteType::kUpdate, Row{Value(key), Value(0)});
  }
  return ws;
}

class CertifierTest : public ::testing::Test {
 protected:
  void Build(int replicas, bool eager) {
    Build(replicas, eager, CertifierConfig{});
  }

  void Build(int replicas, bool eager, CertifierConfig config) {
    certifier_ = std::make_unique<Certifier>(&rt_, config,
                                             replicas, eager);
    certifier_->SetDecisionCallback(
        [this](ReplicaId origin, const CertDecision& decision) {
          decisions_.emplace_back(origin, decision);
        });
    certifier_->SetRefreshCallback(
        [this](ReplicaId target, const RefreshBatch& batch) {
          for (const WriteSetRef& ws : batch.writesets) {
            refreshes_.emplace_back(target, *ws);
          }
        });
    certifier_->SetGlobalCommitCallback([this](ReplicaId origin, TxnId txn) {
      global_commits_.emplace_back(origin, txn);
    });
  }

  Simulator sim_;
  runtime::SimRuntime rt_{&sim_};
  std::unique_ptr<Certifier> certifier_;
  std::vector<std::pair<ReplicaId, CertDecision>> decisions_;
  std::vector<std::pair<ReplicaId, WriteSet>> refreshes_;
  std::vector<std::pair<ReplicaId, TxnId>> global_commits_;
};

TEST_F(CertifierTest, FirstCommitGetsVersionOne) {
  Build(3, false);
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 1u);
  EXPECT_EQ(decisions_[0].first, 0);
  EXPECT_TRUE(decisions_[0].second.commit);
  EXPECT_EQ(decisions_[0].second.commit_version, 1);
  EXPECT_EQ(certifier_->CommitVersion(), 1);
  EXPECT_EQ(certifier_->certified_count(), 1);
}

TEST_F(CertifierTest, RefreshFanOutSkipsOrigin) {
  Build(4, false);
  certifier_->SubmitCertification(MakeWs(1, 2, 0, {5}));
  sim_.RunAll();
  ASSERT_EQ(refreshes_.size(), 3u);
  for (const auto& [target, ws] : refreshes_) {
    EXPECT_NE(target, 2);
    EXPECT_EQ(ws.commit_version, 1);
    EXPECT_EQ(ws.txn_id, 1u);
  }
}

TEST_F(CertifierTest, ConflictAborted) {
  Build(2, false);
  // Both transactions read snapshot 0 and write key 5.
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  certifier_->SubmitCertification(MakeWs(2, 1, 0, {5}));
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 2u);
  // Abort decisions skip the log force, so they may overtake commit
  // decisions — look decisions up by transaction id.
  std::map<TxnId, bool> verdicts;
  for (const auto& [origin, decision] : decisions_) {
    (void)origin;
    verdicts[decision.txn_id] = decision.commit;
  }
  EXPECT_TRUE(verdicts.at(1));
  EXPECT_FALSE(verdicts.at(2));
  EXPECT_EQ(certifier_->abort_count(), 1);
  // The aborted transaction consumed no version.
  EXPECT_EQ(certifier_->CommitVersion(), 1);
  // No refresh for the aborted transaction.
  EXPECT_EQ(refreshes_.size(), 1u);
}

TEST_F(CertifierTest, NonConflictingConcurrentCommitsBoth) {
  Build(2, false);
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  certifier_->SubmitCertification(MakeWs(2, 1, 0, {6}));
  sim_.RunAll();
  EXPECT_TRUE(decisions_[0].second.commit);
  EXPECT_TRUE(decisions_[1].second.commit);
  EXPECT_EQ(decisions_[1].second.commit_version, 2);
}

TEST_F(CertifierTest, LaterSnapshotEscapesOldConflict) {
  Build(2, false);
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  sim_.RunAll();
  // Snapshot 1 already includes txn 1's commit: no conflict.
  certifier_->SubmitCertification(MakeWs(2, 1, 1, {5}));
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 2u);
  EXPECT_TRUE(decisions_[1].second.commit);
}

TEST_F(CertifierTest, SameTransactionKeysDifferentTablesNoConflict) {
  Build(2, false);
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}, /*table=*/0));
  certifier_->SubmitCertification(MakeWs(2, 1, 0, {5}, /*table=*/1));
  sim_.RunAll();
  EXPECT_TRUE(decisions_[0].second.commit);
  EXPECT_TRUE(decisions_[1].second.commit);
}

TEST_F(CertifierTest, DecisionsArriveInVersionOrder) {
  Build(2, false);
  for (TxnId t = 1; t <= 10; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, 0, {static_cast<int64_t>(t * 100)}));
  }
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 10u);
  for (size_t i = 0; i < decisions_.size(); ++i) {
    EXPECT_EQ(decisions_[i].second.commit_version,
              static_cast<DbVersion>(i + 1));
  }
}

TEST_F(CertifierTest, DurabilityLogGrowsWithCommits) {
  Build(2, false);
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  certifier_->SubmitCertification(MakeWs(2, 1, 0, {6}));
  sim_.RunAll();
  EXPECT_EQ(certifier_->wal().DurableSize(), 2u);
  std::vector<WriteSet> records;
  ASSERT_TRUE(certifier_->wal().ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].commit_version, 1);
  EXPECT_EQ(records[1].commit_version, 2);
}

TEST_F(CertifierTest, GroupCommitBatchesShareForce) {
  Build(2, false);
  // Submit many certifications back-to-back: with the default 0.8ms force
  // and 0.12ms certify time, most commits should share forces (far fewer
  // disk busy-time than one force each).
  for (TxnId t = 1; t <= 20; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, 0, {static_cast<int64_t>(t * 7)}));
  }
  sim_.RunAll();
  EXPECT_EQ(certifier_->certified_count(), 20);
  const SimTime disk_time = certifier_->disk()->BusyTime();
  EXPECT_LT(disk_time, 20 * Millis(0.8));
}

TEST_F(CertifierTest, EagerGlobalCommitAfterAllReplicas) {
  Build(3, true);
  certifier_->SubmitCertification(MakeWs(1, 1, 0, {5}));
  sim_.RunAll();
  EXPECT_TRUE(global_commits_.empty());
  certifier_->NotifyReplicaCommitted(1);
  certifier_->NotifyReplicaCommitted(1);
  EXPECT_TRUE(global_commits_.empty());
  certifier_->NotifyReplicaCommitted(1);
  ASSERT_EQ(global_commits_.size(), 1u);
  EXPECT_EQ(global_commits_[0].first, 1);   // origin replica
  EXPECT_EQ(global_commits_[0].second, 1u);  // txn id
}

TEST_F(CertifierTest, NonEagerIgnoresCommitNotifications) {
  Build(2, false);
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  sim_.RunAll();
  certifier_->NotifyReplicaCommitted(1);  // no-op, must not crash
  EXPECT_TRUE(global_commits_.empty());
}

TEST_F(CertifierTest, WindowOverflowAbortsConservatively) {
  CertifierConfig config;
  config.conflict_window = 2;
  certifier_ = std::make_unique<Certifier>(&rt_, config, 2, false);
  certifier_->SetDecisionCallback(
      [this](ReplicaId origin, const CertDecision& decision) {
        decisions_.emplace_back(origin, decision);
      });
  certifier_->SetRefreshCallback([](ReplicaId, const RefreshBatch&) {});
  for (TxnId t = 1; t <= 4; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, static_cast<DbVersion>(t - 1),
               {static_cast<int64_t>(t)}));
  }
  sim_.RunAll();
  // A transaction with an ancient snapshot must be aborted, not certified
  // incorrectly.
  certifier_->SubmitCertification(MakeWs(99, 0, 0, {999}));
  sim_.RunAll();
  EXPECT_FALSE(decisions_.back().second.commit);
  EXPECT_EQ(certifier_->window_abort_count(), 1);
}

TEST_F(CertifierTest, DecisionMapBoundedByConflictWindow) {
  CertifierConfig config;
  config.conflict_window = 16;
  certifier_ = std::make_unique<Certifier>(&rt_, config, 2, false);
  certifier_->SetDecisionCallback(
      [this](ReplicaId origin, const CertDecision& decision) {
        decisions_.emplace_back(origin, decision);
      });
  certifier_->SetRefreshCallback([](ReplicaId, const RefreshBatch&) {});
  for (TxnId t = 1; t <= 500; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, static_cast<DbVersion>(t - 1),
               {static_cast<int64_t>(t)}));
    sim_.RunAll();
  }
  EXPECT_EQ(certifier_->certified_count(), 500);
  // Retired once certification advances a full window past them — the
  // map no longer grows with run length.
  EXPECT_LE(certifier_->decided_size(), 18u);
  // The index over the committed window is pruned alongside it.
  EXPECT_LE(certifier_->conflict_index_size(), 16u);

  // In-window idempotence survives the retirement: a recent decision is
  // replayed, not re-decided (no new commit version is consumed).
  const DbVersion before = certifier_->CommitVersion();
  decisions_.clear();
  certifier_->SubmitCertification(MakeWs(500, 0, 499, {500}));
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 1u);
  EXPECT_TRUE(decisions_[0].second.commit);
  EXPECT_EQ(decisions_[0].second.commit_version, before);
  EXPECT_EQ(certifier_->CommitVersion(), before);
}

TEST_F(CertifierTest, DecisionHorizonCountsCommitsNotDecisions) {
  // Retirement is measured in commits: a burst of aborts (decisions that
  // consume no version) does not push an earlier commit out of reach.
  CertifierConfig config;
  config.conflict_window = 16;
  Build(2, false, config);
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  sim_.RunAll();
  for (TxnId t = 2; t <= 40; ++t) {
    certifier_->SubmitCertification(MakeWs(t, 1, 0, {5}));  // stale: ww
    sim_.RunAll();
  }
  EXPECT_EQ(certifier_->abort_count(), 39);
  EXPECT_EQ(certifier_->decided_size(), 40u);
  decisions_.clear();
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 1u);
  EXPECT_TRUE(decisions_[0].second.commit);
  EXPECT_EQ(decisions_[0].second.commit_version, 1);
  EXPECT_EQ(certifier_->certified_count(), 1);
}

TEST_F(CertifierTest, DuplicateInFlightSubmissionReplaysRecordedDecision) {
  // Both copies queue for the single CPU; the original is decided by the
  // time the duplicate is served, so the duplicate gets the recorded
  // decision replayed — certified once, logged once, fanned out once.
  Build(3, false);
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 2u);
  for (const auto& [origin, decision] : decisions_) {
    EXPECT_EQ(origin, 0);
    EXPECT_EQ(decision.txn_id, 1u);
    EXPECT_TRUE(decision.commit);
    EXPECT_EQ(decision.commit_version, 1);
  }
  EXPECT_EQ(certifier_->certified_count(), 1);
  EXPECT_EQ(certifier_->abort_count(), 0);
  EXPECT_EQ(certifier_->CommitVersion(), 1);
  EXPECT_EQ(certifier_->wal().DurableSize(), 1u);
  EXPECT_EQ(refreshes_.size(), 2u);  // replicas 1 and 2, once each
}

TEST_F(CertifierTest, ConflictIndexMatchesNewestConflictingVersion) {
  Build(2, false);
  // Three successive writers of key 5.
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  certifier_->SubmitCertification(MakeWs(2, 0, 1, {5, 6}));
  certifier_->SubmitCertification(MakeWs(3, 0, 2, {5, 7}));
  sim_.RunAll();
  EXPECT_EQ(certifier_->CommitVersion(), 3);
  // A stale writer of key 6 must be aborted against version 2 (the
  // newest write to key 6), even though key 5 was rewritten at 3.
  certifier_->SubmitCertification(MakeWs(10, 1, 1, {6}));
  sim_.RunAll();
  EXPECT_FALSE(decisions_.back().second.commit);
  // A writer of key 6 whose snapshot already saw version 2 commits.
  certifier_->SubmitCertification(MakeWs(11, 1, 2, {6}));
  sim_.RunAll();
  EXPECT_TRUE(decisions_.back().second.commit);
}

TEST_F(CertifierTest, ForceBatchCapOneForcesEveryCommitSeparately) {
  CertifierConfig config;
  config.max_force_batch = 1;
  Build(2, false, config);
  for (TxnId t = 1; t <= 20; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, 0, {static_cast<int64_t>(t * 7)}));
  }
  sim_.RunAll();
  EXPECT_EQ(certifier_->certified_count(), 20);
  // A cap of one disables group commit entirely: 20 commits, 20 forces.
  EXPECT_EQ(certifier_->disk()->BusyTime(), 20 * Millis(0.8));
  EXPECT_EQ(certifier_->wal().DurableSize(), 20u);
}

TEST_F(CertifierTest, ForceBatchCapKeepsCommitVersionOrder) {
  CertifierConfig config;
  config.max_force_batch = 2;
  Build(2, false, config);
  for (TxnId t = 1; t <= 11; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, 0, {static_cast<int64_t>(t * 7)}));
  }
  sim_.RunAll();
  EXPECT_EQ(certifier_->certified_count(), 11);
  // Every commit still reaches the other replica, oldest first: capped
  // forces take the head of the pending batch, never reorder it.
  ASSERT_EQ(refreshes_.size(), 11u);
  for (size_t i = 0; i < refreshes_.size(); ++i) {
    EXPECT_EQ(refreshes_[i].first, 1);
    EXPECT_EQ(refreshes_[i].second.commit_version,
              static_cast<DbVersion>(i + 1));
  }
  std::vector<WriteSet> records;
  ASSERT_TRUE(certifier_->wal().ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 11u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].commit_version, static_cast<DbVersion>(i + 1));
  }
}

TEST_F(CertifierTest, UnboundedForceBatchEquivalentToHugeCap) {
  // max_force_batch = 0 (the legacy unbounded behaviour) and a cap that
  // never binds must produce identical refresh schedules and disk time.
  auto run = [](size_t cap) {
    Simulator sim;
    runtime::SimRuntime rt{&sim};
    CertifierConfig config;
    config.max_force_batch = cap;
    Certifier certifier(&rt, config, 3, false);
    std::vector<std::tuple<ReplicaId, TxnId, DbVersion, SimTime>> refreshes;
    certifier.SetDecisionCallback(
        [](ReplicaId, const CertDecision&) {});
    certifier.SetRefreshCallback(
        [&](ReplicaId target, const RefreshBatch& batch) {
          for (const WriteSetRef& ws : batch.writesets) {
            refreshes.emplace_back(target, ws->txn_id, ws->commit_version,
                                   sim.Now());
          }
        });
    for (TxnId t = 1; t <= 30; ++t) {
      certifier.SubmitCertification(
          MakeWs(t, 0, 0, {static_cast<int64_t>(t * 3)}));
    }
    sim.RunAll();
    return std::make_pair(refreshes, certifier.disk()->BusyTime());
  };
  const auto unbounded = run(0);
  const auto huge = run(1000);
  EXPECT_EQ(unbounded.first, huge.first);
  EXPECT_EQ(unbounded.second, huge.second);
}

TEST_F(CertifierTest, ShedSubmissionsNeverLeakAnIntakeSlot) {
  CertifierConfig config;
  config.max_intake = 2;
  Build(2, false, config);
  // Flood: one enters service, two queue, the rest are refused on
  // arrival.  A shed submission must not occupy CPU or an intake slot.
  for (TxnId t = 1; t <= 10; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, 0, {static_cast<int64_t>(t)}));
  }
  EXPECT_EQ(certifier_->shed_count(), 7);
  EXPECT_EQ(certifier_->cpu()->QueueLength(), 2u);
  ASSERT_EQ(decisions_.size(), 7u);
  for (const auto& [origin, decision] : decisions_) {
    (void)origin;
    EXPECT_FALSE(decision.commit);
    EXPECT_TRUE(decision.overloaded);
    EXPECT_EQ(decision.commit_version, kNoVersion);
  }
  sim_.RunAll();
  // The admitted three were certified normally; the queue is empty again.
  EXPECT_EQ(certifier_->certified_count(), 3);
  EXPECT_EQ(certifier_->CommitVersion(), 3);
  EXPECT_EQ(certifier_->cpu()->QueueLength(), 0u);
  // Full capacity is back: another burst at the bound is admitted whole.
  decisions_.clear();
  for (TxnId t = 11; t <= 13; ++t) {
    certifier_->SubmitCertification(
        MakeWs(t, 0, 3, {static_cast<int64_t>(t)}));
  }
  EXPECT_EQ(certifier_->shed_count(), 7);
  sim_.RunAll();
  EXPECT_EQ(certifier_->certified_count(), 6);
  ASSERT_EQ(decisions_.size(), 3u);
  for (const auto& [origin, decision] : decisions_) {
    (void)origin;
    EXPECT_TRUE(decision.commit);
  }
}

TEST_F(CertifierTest, DecidedResubmissionExemptFromIntakeBound) {
  CertifierConfig config;
  config.max_intake = 1;
  Build(2, false, config);
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));
  sim_.RunAll();
  ASSERT_EQ(decisions_.size(), 1u);
  const DbVersion version = decisions_[0].second.commit_version;
  // Saturate the intake, then resubmit the decided transaction: the
  // replay bypasses the bound (the decision already exists — refusing
  // the retry would strand the origin), while a fresh submission at the
  // bound is still shed.
  certifier_->SubmitCertification(MakeWs(2, 1, 1, {6}));  // enters service
  certifier_->SubmitCertification(MakeWs(3, 1, 1, {7}));  // takes the slot
  certifier_->SubmitCertification(MakeWs(5, 1, 1, {9}));  // shed: at bound
  certifier_->SubmitCertification(MakeWs(1, 0, 0, {5}));  // decided: exempt
  certifier_->SubmitCertification(MakeWs(4, 1, 1, {8}));  // still shed
  EXPECT_EQ(certifier_->shed_count(), 2);  // txn 5 and txn 4
  sim_.RunAll();
  // The replayed decision is verbatim and nothing was certified twice.
  std::map<TxnId, int> seen;
  for (const auto& [origin, decision] : decisions_) {
    (void)origin;
    ++seen[decision.txn_id];
    if (decision.txn_id == 1) {
      EXPECT_TRUE(decision.commit);
      EXPECT_EQ(decision.commit_version, version);
    }
  }
  EXPECT_EQ(seen[1], 2);
  EXPECT_EQ(certifier_->certified_count(), 3);  // txn 1, 2 and 3
  // The resubmission held no slot: the queue drained to empty.
  EXPECT_EQ(certifier_->cpu()->QueueLength(), 0u);
}

}  // namespace
}  // namespace screp
