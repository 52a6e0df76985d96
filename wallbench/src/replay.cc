#include "replay.h"

#include <memory>
#include <vector>

#include "replication/certifier.h"
#include "replication/system.h"
#include "runtime/sim_runtime.h"
#include "sql/executor.h"
#include "storage/database.h"
#include "storage/transaction.h"
#include "storage/wal.h"
#include "workload/realtime.h"

namespace wallbench {

using screp::Database;
using screp::TxnSpec;
using screp::WriteSet;

namespace {

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Caps the replay so a slow layer cannot stretch the run.
constexpr int64_t kMaxReplayTxns = 20000;

}  // namespace

void RunLayerReplays(const BenchWorkload& w, uint64_t seed, double budget_s,
                     Report* report) {
  Database db;
  SCREP_CHECK(w.workload->BuildSchema(&db).ok());
  screp::sql::TransactionRegistry registry;
  SCREP_CHECK(w.workload->DefineTransactions(db, &registry).ok());
  auto gens = MakeGenerators(*w.workload, registry, seed, kClients);

  std::vector<double> exec_us;
  std::vector<double> commit_us;
  std::vector<WriteSet> writesets;
  exec_us.reserve(kMaxReplayTxns);
  commit_us.reserve(kMaxReplayTxns);
  double ws_bytes = 0;
  int64_t errors = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (int64_t i = 0; i < kMaxReplayTxns && NowNs() < deadline; ++i) {
    screp::TxnGenerator* gen = gens[static_cast<size_t>(i % kClients)].get();
    const TxnSpec spec = gen->Next();
    const auto& prepared = registry.Get(spec.type);
    std::unique_ptr<screp::Transaction> txn = db.Begin();
    bool ok = true;
    const int64_t t0 = NowNs();
    for (size_t s = 0; s < prepared.statements.size() && ok; ++s) {
      ok = screp::sql::Execute(txn.get(), *prepared.statements[s],
                               spec.params[s])
               .ok();
    }
    const int64_t t1 = NowNs();
    if (!ok) {
      ++errors;
      continue;
    }
    exec_us.push_back(Us(t1 - t0));
    if (!txn->read_only()) {
      const int64_t t2 = NowNs();
      WriteSet ws = txn->BuildWriteSet();
      ws.txn_id = static_cast<screp::TxnId>(i + 1);
      ws.snapshot_version = txn->snapshot();
      ws.origin = 0;
      ws.commit_version = db.CommittedVersion() + 1;
      const bool applied = db.ApplyWriteSet(ws).ok();
      const int64_t t3 = NowNs();
      SCREP_CHECK(applied);
      commit_us.push_back(Us(t3 - t2));
      ws_bytes += static_cast<double>(ws.SerializedBytes());
      writesets.push_back(std::move(ws));
    }
    gen->OnCommitted(spec);
  }
  report->Pass("layer replay: " + std::to_string(exec_us.size()) +
               " txns, " + std::to_string(writesets.size()) +
               " writesets, " + std::to_string(errors) +
               " execution errors");
  report->AddQuantiles("sql.exec_us_per_txn", "us", &exec_us);
  report->AddQuantiles("storage.commit_us", "us", &commit_us,
                       /*with_p99=*/false);
  if (writesets.empty()) return;
  const auto updates = static_cast<int64_t>(writesets.size());
  report->Add("storage.writeset_bytes_per_update", "B",
              ws_bytes / static_cast<double>(updates), updates);

  screp::Wal wal;
  std::vector<double> append_us;
  append_us.reserve(writesets.size());
  for (const WriteSet& ws : writesets) {
    const int64_t t0 = NowNs();
    wal.Append(ws, /*force=*/true);
    append_us.push_back(Us(NowNs() - t0));
  }
  report->AddQuantiles("storage.wal_append_us", "us", &append_us,
                       /*with_p99=*/false);

  // The certifier alone: zero modelled CPU and disk time, so the wall
  // time of one submission run to completion on the simulator is the
  // code's own cost of a decision (conflict check, group-commit force,
  // refresh fan-out).
  screp::runtime::SimRuntime rt;
  screp::CertifierConfig config;
  config.certify_cpu_time = 0;
  config.log_force_time = 0;
  screp::Certifier certifier(&rt, config, kReplicas, /*eager=*/false);
  int64_t decisions = 0;
  int64_t commits = 0;
  certifier.SetDecisionCallback(
      [&](screp::ReplicaId, const screp::CertDecision& d) {
        ++decisions;
        if (d.commit) ++commits;
      });
  certifier.SetRefreshCallback(
      [](screp::ReplicaId, const screp::RefreshBatch&) {});
  std::vector<double> certify_us;
  certify_us.reserve(writesets.size());
  for (const WriteSet& recorded : writesets) {
    WriteSet ws = recorded;
    ws.commit_version = screp::kNoVersion;
    const int64_t t0 = NowNs();
    certifier.SubmitCertification(std::move(ws));
    rt.sim()->RunAll();
    certify_us.push_back(Us(NowNs() - t0));
  }
  if (decisions != updates || commits != updates) {
    report->Fail("standalone certifier decided " + std::to_string(decisions) +
                 " (" + std::to_string(commits) + " commits) of " +
                 std::to_string(updates) + " serial writesets");
  }
  report->AddQuantiles("certifier.certify_us", "us", &certify_us,
                       /*with_p99=*/false);
}

void RunModelledDelayProbe(const BenchWorkload& w, uint64_t seed,
                           int64_t txns, Report* report) {
  screp::runtime::SimRuntime rt;
  const screp::SystemConfig sys =
      screp::RealtimeSystemConfig(kReplicas, w.level);
  auto system_or = screp::ReplicatedSystem::Create(
      &rt, sys,
      [&](Database* db) { return w.workload->BuildSchema(db); },
      [&](const Database& db, screp::sql::TransactionRegistry* reg) {
        return w.workload->DefineTransactions(db, reg);
      });
  SCREP_CHECK_MSG(system_or.ok(), system_or.status().ToString());
  std::unique_ptr<screp::ReplicatedSystem> system =
      std::move(system_or).value();
  auto gens = MakeGenerators(*w.workload, system->registry(), seed, kClients);

  std::vector<TxnSpec> current(kClients);
  std::vector<int> exec_errors(kClients, 0);
  int64_t submitted = 0;
  int64_t dropped = 0;
  int64_t committed = 0;
  screp::TimePoint last_ack = 0;
  auto submit = [&](int c) {
    screp::TxnRequest req;
    req.txn_id = system->NextTxnId();
    req.type = current[static_cast<size_t>(c)].type;
    req.session = static_cast<screp::SessionId>(c);
    req.client_id = c;
    req.params = current[static_cast<size_t>(c)].params;
    req.submit_time = rt.Now();
    system->Submit(std::move(req));
  };
  auto next = [&](int c) {
    if (submitted >= txns) return;
    ++submitted;
    current[static_cast<size_t>(c)] = gens[static_cast<size_t>(c)]->Next();
    submit(c);
  };
  system->SetClientCallback([&](const screp::TxnResponse& r) {
    const int c = r.client_id;
    last_ack = rt.Now();
    if (r.outcome != screp::TxnOutcome::kCommitted) {
      // Closed loop: retry the same instance, but give up on one that
      // keeps failing to execute (the load does the same).
      if (r.outcome == screp::TxnOutcome::kExecutionError &&
          ++exec_errors[static_cast<size_t>(c)] >= kMaxExecErrors) {
        exec_errors[static_cast<size_t>(c)] = 0;
        ++dropped;
        next(c);
      } else {
        submit(c);
      }
      return;
    }
    exec_errors[static_cast<size_t>(c)] = 0;
    ++committed;
    gens[static_cast<size_t>(c)]->OnCommitted(current[static_cast<size_t>(c)]);
    next(c);
  });
  for (int c = 0; c < kClients; ++c) next(c);
  rt.sim()->RunAll();
  if (committed + dropped != submitted || committed == 0) {
    report->Fail("modelled-delay probe committed " + std::to_string(committed) +
                 " of " + std::to_string(submitted) + " txns");
    return;
  }
  report->Add("workload.modelled_delay_us_per_txn", "us",
              static_cast<double>(last_ack) / static_cast<double>(committed),
              committed);
}

}  // namespace wallbench
