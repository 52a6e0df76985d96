// Property test for the keyed conflict index: the indexed certification
#include "runtime/sim_runtime.h"
// path must make exactly the decisions the pre-index linear-scan oracle
// (CertifierConfig::linear_scan_oracle) makes — same verdicts, same
// commit versions, same conflict attribution (version, transaction and
// ww/rw/window reason) — over randomized workloads that exercise
// write-write conflicts, serializable read-key and read-range conflicts,
// and conservative window aborts.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "obs/observability.h"
#include "replication/certifier.h"
#include "replication/shard_map.h"

namespace screp {
namespace {

/// One certifier plus everything needed to compare it against a twin.
struct Lane {
  Simulator sim;
  runtime::SimRuntime rt{&sim};
  std::unique_ptr<obs::Observability> obs;
  std::unique_ptr<Certifier> certifier;
  std::vector<CertDecision> decisions;

  Lane(CertifierConfig config, bool linear_scan) {
    config.linear_scan_oracle = linear_scan;
    obs::ObsConfig obs_config;
    obs_config.event_log = true;
    obs = std::make_unique<obs::Observability>(&rt, obs_config);
    certifier = std::make_unique<Certifier>(&rt, config, 3, /*eager=*/false);
    certifier->SetDecisionCallback(
        [this](ReplicaId, const CertDecision& decision) {
          decisions.push_back(decision);
        });
    certifier->SetRefreshCallback([](ReplicaId, const RefreshBatch&) {});
    certifier->SetObservability(obs.get());
  }
};

class CertifierOracleTest : public ::testing::Test {
 protected:
  void Build(CertifierConfig config) {
    indexed_ = std::make_unique<Lane>(config, /*linear_scan=*/false);
    oracle_ = std::make_unique<Lane>(config, /*linear_scan=*/true);
  }

  /// Submits the identical writeset to both certifiers and processes it.
  void Submit(const WriteSet& ws) {
    indexed_->certifier->SubmitCertification(ws);
    oracle_->certifier->SubmitCertification(ws);
    indexed_->sim.RunAll();
    oracle_->sim.RunAll();
    ASSERT_EQ(indexed_->certifier->CommitVersion(),
              oracle_->certifier->CommitVersion());
  }

  /// Builds one random writeset against the current commit version:
  /// small key space (to make conflicts common), random snapshot lag
  /// (sometimes beyond the window), and — when `with_reads` — random
  /// read keys and read ranges for the serializable mode.
  WriteSet RandomWs(Rng* rng, bool with_reads, int max_lag) {
    const DbVersion v = indexed_->certifier->CommitVersion();
    WriteSet ws;
    ws.txn_id = next_txn_++;
    ws.origin = static_cast<ReplicaId>(rng->NextInRange(0, 2));
    ws.snapshot_version =
        std::max<DbVersion>(0, v - rng->NextInRange(0, max_lag));
    const int ops = static_cast<int>(rng->NextInRange(1, 4));
    for (int i = 0; i < ops; ++i) {
      const TableId table = static_cast<TableId>(rng->NextInRange(0, 2));
      const int64_t key = rng->NextInRange(0, 199);
      ws.Add(table, key, WriteType::kUpdate, Row{Value(key), Value(0)});
    }
    if (with_reads) {
      const int reads = static_cast<int>(rng->NextInRange(0, 3));
      for (int i = 0; i < reads; ++i) {
        ws.read_keys.emplace_back(static_cast<TableId>(rng->NextInRange(0, 2)),
                                  rng->NextInRange(0, 199));
      }
      if (rng->NextBool(0.4)) {
        const int64_t lo = rng->NextInRange(0, 180);
        ws.read_ranges.push_back(
            ReadRange{static_cast<TableId>(rng->NextInRange(0, 2)), lo,
                      lo + rng->NextInRange(0, 30)});
      }
    }
    return ws;
  }

  /// Full equivalence: decision stream, abort attribution counters, and
  /// the per-verdict conflict attribution recorded in the event log.
  void ExpectIdenticalOutcomes() {
    ASSERT_EQ(indexed_->decisions.size(), oracle_->decisions.size());
    for (size_t i = 0; i < indexed_->decisions.size(); ++i) {
      const CertDecision& a = indexed_->decisions[i];
      const CertDecision& b = oracle_->decisions[i];
      EXPECT_EQ(a.txn_id, b.txn_id) << "decision " << i;
      EXPECT_EQ(a.commit, b.commit) << "txn " << a.txn_id;
      EXPECT_EQ(a.commit_version, b.commit_version) << "txn " << a.txn_id;
    }
    EXPECT_EQ(indexed_->certifier->certified_count(),
              oracle_->certifier->certified_count());
    EXPECT_EQ(indexed_->certifier->abort_count(),
              oracle_->certifier->abort_count());
    EXPECT_EQ(indexed_->certifier->rw_abort_count(),
              oracle_->certifier->rw_abort_count());
    EXPECT_EQ(indexed_->certifier->window_abort_count(),
              oracle_->certifier->window_abort_count());

    const std::vector<obs::Event>& ia = indexed_->obs->event_log()->Events();
    const std::vector<obs::Event>& ib = oracle_->obs->event_log()->Events();
    ASSERT_EQ(ia.size(), ib.size());
    int aborts_checked = 0;
    for (size_t i = 0; i < ia.size(); ++i) {
      ASSERT_EQ(ia[i].kind, obs::EventKind::kCertVerdict);
      EXPECT_EQ(ia[i].txn, ib[i].txn);
      EXPECT_EQ(ia[i].committed, ib[i].committed);
      EXPECT_EQ(ia[i].commit_version, ib[i].commit_version);
      // The heart of the property: aborts blame the identical committed
      // version, transaction and reason either way.
      EXPECT_EQ(ia[i].conflict_version, ib[i].conflict_version)
          << "txn " << ia[i].txn;
      EXPECT_EQ(ia[i].conflict_txn, ib[i].conflict_txn)
          << "txn " << ia[i].txn;
      EXPECT_EQ(ia[i].detail, ib[i].detail) << "txn " << ia[i].txn;
      if (!ia[i].committed) ++aborts_checked;
    }
    aborts_seen_ = aborts_checked;
  }

  std::unique_ptr<Lane> indexed_;
  std::unique_ptr<Lane> oracle_;
  TxnId next_txn_ = 1;
  int aborts_seen_ = 0;
};

TEST_F(CertifierOracleTest, GsiRandomizedWorkloadMatchesOracle) {
  CertifierConfig config;
  config.conflict_window = 64;  // small: window aborts actually occur
  Build(config);
  Rng rng(20260806);
  for (int i = 0; i < 1500; ++i) {
    Submit(RandomWs(&rng, /*with_reads=*/false, /*max_lag=*/80));
  }
  ExpectIdenticalOutcomes();
  // The workload must actually have exercised the abort paths.
  EXPECT_GT(aborts_seen_, 0);
  EXPECT_GT(indexed_->certifier->window_abort_count(), 0);
  EXPECT_GT(indexed_->certifier->abort_count(),
            indexed_->certifier->window_abort_count());
}

TEST_F(CertifierOracleTest, SerializableRandomizedWorkloadMatchesOracle) {
  CertifierConfig config;
  config.conflict_window = 64;
  config.mode = CertificationMode::kSerializable;
  Build(config);
  Rng rng(987654321);
  for (int i = 0; i < 1500; ++i) {
    Submit(RandomWs(&rng, /*with_reads=*/true, /*max_lag=*/80));
  }
  ExpectIdenticalOutcomes();
  EXPECT_GT(aborts_seen_, 0);
  // Read-write (including read-range) conflicts must have occurred.
  EXPECT_GT(indexed_->certifier->rw_abort_count(), 0);
}

TEST_F(CertifierOracleTest, LargeWindowNoWindowAborts) {
  CertifierConfig config;
  config.conflict_window = 4096;
  Build(config);
  Rng rng(7);
  for (int i = 0; i < 800; ++i) {
    Submit(RandomWs(&rng, /*with_reads=*/false, /*max_lag=*/40));
  }
  ExpectIdenticalOutcomes();
  EXPECT_EQ(indexed_->certifier->window_abort_count(), 0);
  // The index prunes with the window, so it is bounded by the window's
  // key footprint.
  EXPECT_GT(indexed_->certifier->conflict_index_size(), 0u);
}

// ---------------------------------------------------------------------
// Partitioned certification vs. the single-lane oracle: over a
// randomized multi-shard workload, the K-lane certifier must reach
// exactly the verdicts of one linear-scan certifier consuming the same
// history — same commits, same aborts, same conflict attribution (the
// blamed transaction and ww/rw reason), with the blamed version mapped
// into the conflicting transaction's shard-local coordinates.
//
// The lockstep works because snapshots are generated as *consistent
// prefixes* of the committed history: a snapshot "after the first p
// commits" is global version p for the single-stream twin and, for the
// sharded twin, each lane's commit count within that same prefix.  A
// committed writeset then conflicts in the global version space iff it
// conflicts in its shard's — both mean "committed after the prefix and
// overlapping".  (Window aborts are excluded by a wide window: a
// per-lane window of W sub-writesets and a global window of W writesets
// retain genuinely different histories, so equivalence only holds where
// neither window prunes.)
// ---------------------------------------------------------------------

class ShardedOracleTest : public ::testing::Test {
 protected:
  static constexpr int kTables = 6;
  static constexpr int kShards = 3;

  void Build(CertifierConfig config) {
    config.linear_scan_oracle = true;
    oracle_ = std::make_unique<Lane>(config, /*linear_scan=*/true);
    config.shard_lanes = kShards;
    obs::ObsConfig obs_config;
    obs_config.event_log = true;
    sharded_obs_ = std::make_unique<obs::Observability>(&sharded_rt_,
                                                        obs_config);
    sharded_ = std::make_unique<Certifier>(&sharded_rt_, config,
                                           /*replica_count=*/3,
                                           /*eager=*/false);
    sharded_->EnableSharding(&map_, {});
    sharded_->SetDecisionCallback(
        [this](ReplicaId, const CertDecision& decision) {
          sharded_decisions_.push_back(decision);
        });
    sharded_->SetRefreshCallback([](ReplicaId, const RefreshBatch&) {});
    sharded_->SetObservability(sharded_obs_.get());
    lane_at_prefix_.push_back(std::vector<DbVersion>(kShards, 0));
  }

  /// A random multi-shard writeset whose snapshot is a consistent prefix
  /// of the committed history, expressed in both version spaces.
  WriteSet RandomWs(Rng* rng, bool with_reads, int max_lag) {
    const auto committed = static_cast<DbVersion>(lane_at_prefix_.size() - 1);
    const DbVersion prefix =
        std::max<DbVersion>(0, committed - rng->NextInRange(0, max_lag));
    WriteSet ws;
    ws.txn_id = next_txn_++;
    ws.origin = static_cast<ReplicaId>(rng->NextInRange(0, 2));
    ws.snapshot_version = prefix;
    for (int s = 0; s < kShards; ++s) {
      ws.shard_snapshots.emplace_back(
          s, lane_at_prefix_[static_cast<size_t>(prefix)][static_cast<size_t>(
                 s)]);
    }
    const int ops = static_cast<int>(rng->NextInRange(1, 4));
    for (int i = 0; i < ops; ++i) {
      const TableId table =
          static_cast<TableId>(rng->NextInRange(0, kTables - 1));
      const int64_t key = rng->NextInRange(0, 149);
      ws.Add(table, key, WriteType::kUpdate, Row{Value(key), Value(0)});
    }
    if (with_reads) {
      const int reads = static_cast<int>(rng->NextInRange(0, 3));
      for (int i = 0; i < reads; ++i) {
        ws.read_keys.emplace_back(
            static_cast<TableId>(rng->NextInRange(0, kTables - 1)),
            rng->NextInRange(0, 149));
      }
      if (rng->NextBool(0.4)) {
        const int64_t lo = rng->NextInRange(0, 130);
        ws.read_ranges.push_back(
            ReadRange{static_cast<TableId>(rng->NextInRange(0, kTables - 1)),
                      lo, lo + rng->NextInRange(0, 20)});
      }
    }
    return ws;
  }

  /// Lockstep: both certifiers decide the identical writeset; on commit,
  /// the sharded side must have advanced exactly its touched lanes and
  /// the history prefix table grows by one row.
  void Submit(WriteSet ws) {
    const TxnId txn = ws.txn_id;
    oracle_->certifier->SubmitCertification(ws);
    sharded_->SubmitCertification(ws);
    oracle_->sim.RunAll();
    sharded_sim_.RunAll();
    ASSERT_EQ(oracle_->decisions.size(), sharded_decisions_.size());
    const CertDecision& single = oracle_->decisions.back();
    const CertDecision& sharded = sharded_decisions_.back();
    ASSERT_EQ(single.txn_id, txn);
    ASSERT_EQ(sharded.txn_id, txn);
    ASSERT_EQ(single.commit, sharded.commit) << "txn " << txn;
    if (!single.commit) return;
    // Joint version assignment: exactly the touched lanes advanced by 1.
    std::vector<DbVersion> lanes = lane_at_prefix_.back();
    for (const auto& [s, v] : sharded.shard_versions) {
      EXPECT_EQ(v, lanes[static_cast<size_t>(s)] + 1) << "txn " << txn;
      lanes[static_cast<size_t>(s)] = v;
    }
    shard_versions_[txn] = sharded.shard_versions;
    lane_at_prefix_.push_back(std::move(lanes));
    ASSERT_EQ(static_cast<DbVersion>(lane_at_prefix_.size() - 1),
              oracle_->certifier->CommitVersion());
  }

  /// Abort attribution: both sides blame the same transaction for the
  /// same reason; the sharded side's blamed version is that
  /// transaction's commit version in a shard both writesets touch.
  void ExpectIdenticalAttribution() {
    EXPECT_EQ(oracle_->certifier->certified_count(),
              sharded_->certified_count());
    EXPECT_EQ(oracle_->certifier->abort_count(), sharded_->abort_count());
    EXPECT_EQ(oracle_->certifier->rw_abort_count(),
              sharded_->rw_abort_count());
    EXPECT_EQ(oracle_->certifier->window_abort_count(), 0);
    EXPECT_EQ(sharded_->window_abort_count(), 0);

    const std::vector<obs::Event>& oe = oracle_->obs->event_log()->Events();
    const std::vector<obs::Event>& se = sharded_obs_->event_log()->Events();
    ASSERT_EQ(oe.size(), se.size());
    int aborts_checked = 0;
    for (size_t i = 0; i < oe.size(); ++i) {
      ASSERT_EQ(oe[i].kind, obs::EventKind::kCertVerdict);
      ASSERT_EQ(se[i].kind, obs::EventKind::kCertVerdict);
      EXPECT_EQ(oe[i].txn, se[i].txn);
      EXPECT_EQ(oe[i].committed, se[i].committed);
      if (oe[i].committed) continue;
      ++aborts_checked;
      EXPECT_EQ(oe[i].conflict_txn, se[i].conflict_txn)
          << "txn " << oe[i].txn;
      EXPECT_EQ(oe[i].detail, se[i].detail) << "txn " << oe[i].txn;
      const auto it = shard_versions_.find(se[i].conflict_txn);
      ASSERT_NE(it, shard_versions_.end()) << "txn " << oe[i].txn;
      EXPECT_NE(ShardVersionOf(it->second, BlameShard(se[i]), kNoVersion),
                kNoVersion)
          << "txn " << oe[i].txn << " blamed version " << se[i].conflict_version
          << " not issued to txn " << se[i].conflict_txn;
      EXPECT_EQ(se[i].conflict_version,
                ShardVersionOf(it->second, BlameShard(se[i]), kNoVersion))
          << "txn " << oe[i].txn;
    }
    aborts_seen_ = aborts_checked;
  }

  /// The shard whose lane produced the blame: the conflicting
  /// transaction's shard whose version equals the reported one.
  ShardId BlameShard(const obs::Event& e) const {
    const auto it = shard_versions_.find(e.conflict_txn);
    if (it == shard_versions_.end()) return -1;
    for (const auto& [s, v] : it->second) {
      if (v == e.conflict_version) return s;
    }
    return -1;
  }

  Simulator sharded_sim_;
  runtime::SimRuntime sharded_rt_{&sharded_sim_};
  const ShardMap map_{kTables, kShards};
  std::unique_ptr<obs::Observability> sharded_obs_;
  std::unique_ptr<Certifier> sharded_;
  std::vector<CertDecision> sharded_decisions_;
  std::unique_ptr<Lane> oracle_;
  /// lane_at_prefix_[p][s]: shard s's commit count within the first p
  /// globally committed transactions.
  std::vector<std::vector<DbVersion>> lane_at_prefix_;
  std::unordered_map<TxnId, std::vector<std::pair<int32_t, DbVersion>>>
      shard_versions_;
  TxnId next_txn_ = 1;
  int aborts_seen_ = 0;
};

TEST_F(ShardedOracleTest, GsiMultiShardWorkloadMatchesSingleStreamOracle) {
  Build(CertifierConfig{});
  Rng rng(20260807);
  for (int i = 0; i < 1500; ++i) {
    Submit(RandomWs(&rng, /*with_reads=*/false, /*max_lag=*/30));
    if (HasFatalFailure()) return;
  }
  ExpectIdenticalAttribution();
  EXPECT_GT(aborts_seen_, 0);
  // The workload genuinely crossed shards, through the sequencer.
  EXPECT_GT(sharded_->sequenced_count(), 0);
  EXPECT_GT(sharded_->certified_count(), 0);
}

TEST_F(ShardedOracleTest,
       SerializableMultiShardWorkloadMatchesSingleStreamOracle) {
  CertifierConfig config;
  config.mode = CertificationMode::kSerializable;
  Build(config);
  Rng rng(424242);
  for (int i = 0; i < 1500; ++i) {
    Submit(RandomWs(&rng, /*with_reads=*/true, /*max_lag=*/30));
    if (HasFatalFailure()) return;
  }
  ExpectIdenticalAttribution();
  EXPECT_GT(aborts_seen_, 0);
  EXPECT_GT(sharded_->rw_abort_count(), 0);
  EXPECT_GT(sharded_->sequenced_count(), 0);
}

}  // namespace
}  // namespace screp
