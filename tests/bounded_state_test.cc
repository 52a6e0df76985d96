// Bounded steady state: what a run keeps per committed update.
//
// Runs the wall-clock benchmark's micro-write shape (ESC, 2 replicas,
// RealtimeSystemConfig, 4 closed-loop clients) deterministically on
// SimRuntime for N and then 2N certified transactions, and reads the
// retained-state gauges at both points: the replicas' MVCC versions stay
// at the live rows plus what live transactions pin, the prune queue does
// not grow with run length, and each conflict-window entry stays compact.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "runtime/sim_runtime.h"
#include "workload/client.h"
#include "workload/metrics.h"
#include "workload/micro.h"
#include "workload/realtime.h"

namespace screp {
namespace {

constexpr int kReplicas = 2;
constexpr int kClients = 4;

TEST(BoundedStateTest, MicroWriteRetainsBoundedState) {
  MicroConfig micro;
  micro.rows_per_table = 1000;
  micro.update_fraction = 1.0;
  const MicroWorkload workload(micro);

  Simulator sim;
  runtime::SimRuntime rt{&sim};
  auto system_or = ReplicatedSystem::Create(
      &rt, RealtimeSystemConfig(kReplicas, ConsistencyLevel::kEager),
      [&workload](Database* db) { return workload.BuildSchema(db); },
      [&workload](const Database& db, sql::TransactionRegistry* reg) {
        return workload.DefineTransactions(db, reg);
      });
  ASSERT_TRUE(system_or.ok()) << system_or.status().ToString();
  auto system = std::move(*system_or);
  obs::MetricsRegistry* gauges = system->obs()->registry();

  MetricsCollector metrics(/*warmup=*/0);
  Rng seed_rng(11);
  std::vector<std::unique_ptr<ClientDriver>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<ClientDriver>(
        system.get(), &metrics,
        workload.CreateGenerator(system->registry(), c, seed_rng.Fork()), c,
        ClientConfig{}, seed_rng.Fork()));
  }
  system->SetClientCallback([&clients](const TxnResponse& r) {
    clients[static_cast<size_t>(r.client_id)]->OnResponse(r);
  });
  for (auto& client : clients) client->Start();

  // Keys per replica (the micro tables plus its small side table); micro
  // updates never insert or delete, so this stays the load-time count.
  auto keys_of = [](Database* db) {
    size_t keys = 0;
    for (size_t t = 0; t < db->TableCount(); ++t) {
      keys += db->table(static_cast<TableId>(t))->KeyCount();
    }
    return keys;
  };
  const size_t rows = keys_of(system->replica(0)->db());
  ASSERT_GE(rows, static_cast<size_t>(micro.table_count) *
                      static_cast<size_t>(micro.rows_per_table));

  constexpr int64_t kN = 2000;
  // Each checkpoint: every version beyond a key's newest is queued for
  // pruning (nothing escapes the queue), and the queue holds only what
  // live snapshots still pin.  A snapshot pins every write superseded
  // since it began, so a transaction caught in the modelled 40-ms stall
  // can pin dozens of commits — but that is bounded by the stall, not
  // by run length (a prune-free store would be N versions over).
  auto check = [&](int64_t certified) {
    for (ReplicaId r = 0; r < kReplicas; ++r) {
      const std::string prefix = "replica" + std::to_string(r) + ".";
      const double versions = gauges->GaugeValue(prefix + "versions");
      const double queued = gauges->GaugeValue(prefix + "prune_queue");
      EXPECT_EQ(versions, static_cast<double>(rows) + queued)
          << "replica " << r << " at " << certified;
      EXPECT_LT(queued, static_cast<double>(kN) / 10)
          << "replica " << r << " at " << certified;
    }
    const double entries = gauges->GaugeValue("certifier.window_entries");
    // The window (conflict_window = 100 000) holds one compact entry per
    // commit so far.
    EXPECT_EQ(entries, static_cast<double>(certified));
    EXPECT_LT(gauges->GaugeValue("certifier.window_bytes") / entries, 128.0);
    EXPECT_EQ(gauges->GaugeValue("certifier.decided"),
              static_cast<double>(certified +
                                  system->certifier()->abort_count()));
    EXPECT_GT(gauges->GaugeValue("certifier.wal_bytes"), 0.0);
  };
  for (int64_t target : {kN, 2 * kN}) {
    while (system->certifier()->certified_count() < target) {
      ASSERT_TRUE(sim.Step()) << "event queue ran dry";
    }
    check(target);
  }

  // Once the clients stop and the run drains, only the last applies'
  // supersessions — made while their own transactions were live — remain
  // queued: at most one write per client.
  for (auto& client : clients) client->Stop();
  sim.RunAll();
  for (ReplicaId r = 0; r < kReplicas; ++r) {
    Database* db = system->replica(r)->db();
    EXPECT_LE(db->PruneQueueDepth(), static_cast<size_t>(kClients));
    EXPECT_EQ(db->VersionCount(), keys_of(db) + db->PruneQueueDepth());
  }
}

}  // namespace
}  // namespace screp
