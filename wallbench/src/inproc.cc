// In-process workloads: the whole middleware on a ThreadRuntime built by
// RealtimeSystemConfig() (unmodified, audit off), driven by kClients
// closed-loop threads of this process through Runtime::Post.

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "replay.h"
#include "replication/system.h"
#include "runs.h"
#include "runtime/thread_runtime.h"
#include "spans.h"
#include "storage/transaction.h"
#include "workload/micro.h"
#include "workload/realtime.h"

namespace wallbench {

using screp::ReplicatedSystem;
using screp::TxnResponse;

namespace {

/// Transactions one client can record per second without growing its
/// log (well above the loop thread's ceiling).
constexpr size_t kRecordsPerClientSecond = 20000;
/// Spans are preallocated for a lower rate: traced runs report no
/// memory metric, so growth there distorts nothing.
constexpr size_t kSpansPerClientSecond = 5 * 5000;

/// One client's rendezvous with the loop thread.  The timestamps are
/// written on the loop thread and read by the client after it wakes.
struct Slot {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  TxnResponse response;
  bool traced = false;        ///< set by the client before each Post
  int64_t loop_start_ns = 0;  ///< the posted lambda began
  int64_t submit_end_ns = 0;  ///< Submit() returned
  int64_t callback_ns = 0;    ///< the client callback ran
};

/// A running cluster: the runtime, the system, and the client slots its
/// callback fills.  Stop() quiesces the loop; the destructor tears down.
class Cluster {
 public:
  explicit Cluster(const BenchWorkload& w) {
    for (int c = 0; c < kClients; ++c) {
      slots_.push_back(std::make_unique<Slot>());
    }
    const int64_t t0 = NowNs();
    screp::runtime::ThreadRuntimeConfig rt_config;
    rt_config.worker_threads = 0;  // the load threads are our own
    rt_config.entropy_seed = kProgramSeed;
    rt_ = std::make_unique<screp::runtime::ThreadRuntime>(rt_config);
    // The program is the same for every --seed: only the generated
    // inputs vary, so the config keeps its own (default) seed.
    const screp::SystemConfig sys =
        screp::RealtimeSystemConfig(kReplicas, w.level);
    auto system_or = ReplicatedSystem::Create(
        rt_.get(), sys,
        [&](screp::Database* db) { return w.workload->BuildSchema(db); },
        [&](const screp::Database& db,
            screp::sql::TransactionRegistry* reg) {
          return w.workload->DefineTransactions(db, reg);
        });
    SCREP_CHECK_MSG(system_or.ok(), system_or.status().ToString());
    system_ = std::move(system_or).value();
    system_->SetClientCallback([this](const TxnResponse& r) {
      Slot* slot = slots_[static_cast<size_t>(r.client_id)].get();
      const int64_t now = slot->traced ? NowNs() : 0;
      {
        std::lock_guard<std::mutex> lock(slot->mu);
        slot->response = r;
        slot->callback_ns = now;
        slot->done = true;
      }
      slot->cv.notify_one();
    });
    // Ready once the loop thread serves a posted request; learn its tid.
    OnLoop([this]() { loop_tid_ = static_cast<pid_t>(::syscall(SYS_gettid)); });
    setup_s_ = static_cast<double>(NowNs() - t0) / 1e9;
  }

  ~Cluster() {
    rt_->Stop();
    system_.reset();
    rt_.reset();
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Runs `fn` on the loop thread and waits for it.
  template <typename Fn>
  void OnLoop(Fn fn) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    rt_->Post([&]() {
      fn();
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return done; });
  }

  void StopRuntime() { rt_->Stop(); }

  screp::runtime::ThreadRuntime* rt() { return rt_.get(); }
  ReplicatedSystem* system() { return system_.get(); }
  Slot* slot(int c) { return slots_[static_cast<size_t>(c)].get(); }
  pid_t loop_tid() const { return loop_tid_; }
  double setup_s() const { return setup_s_; }

 private:
  std::vector<std::unique_ptr<Slot>> slots_;
  std::unique_ptr<screp::runtime::ThreadRuntime> rt_;
  std::unique_ptr<ReplicatedSystem> system_;
  pid_t loop_tid_ = 0;
  double setup_s_ = 0;
};

/// Process, loop-thread and registry state at one instant.
struct Snapshot {
  ProcSample proc;
  int64_t loop_cpu_ns = 0;
  uint64_t executed = 0;
  std::map<std::string, int64_t> counters;
  double batch_sum = 0;
  int64_t batch_count = 0;

  int64_t Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  /// Sum of counters named net.<link>.<suffix>.
  int64_t NetSum(const std::string& suffix) const {
    int64_t sum = 0;
    for (const auto& [name, value] : counters) {
      if (name.rfind("net.", 0) == 0 && name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
        sum += value;
      }
    }
    return sum;
  }
};

ProcSample SelfSample() { return {NowNs(), SelfCpuNs(), RssBytes(0)}; }

Snapshot TakeSnapshot(Cluster* cluster) {
  Snapshot s;
  cluster->OnLoop([&]() {
    screp::obs::MetricsRegistry* reg = cluster->system()->obs()->registry();
    reg->VisitCounters(
        [&](const std::string& name, const screp::obs::Counter* counter) {
          s.counters[name] = counter->value();
        });
    const screp::Histogram* batch = reg->GetHistogram("certifier.batch_size");
    s.batch_count = batch->count();
    s.batch_sum = batch->mean() * static_cast<double>(batch->count());
  });
  s.proc = SelfSample();
  s.loop_cpu_ns = ThreadCpuNs(cluster->loop_tid());
  s.executed = cluster->rt()->executed();
  return s;
}

/// Per-client state of the load.
struct Client {
  std::unique_ptr<screp::TxnGenerator> gen;
  Log<TxnRecord> records;
  Log<Span> spans;
};

/// Micro updates are `UPDATE itemN SET val = val + ? WHERE id = ?`:
/// maps an update type to its table index.
std::map<screp::TxnTypeId, int> MicroUpdateTables(
    const screp::sql::TransactionRegistry& registry, int tables) {
  std::map<screp::TxnTypeId, int> out;
  for (int t = 0; t < tables; ++t) {
    auto id = registry.Find("update_" + screp::MicroWorkload::TableName(t));
    SCREP_CHECK(id.ok());
    out[*id] = t;
  }
  return out;
}

void ClientMain(Cluster* cluster, const RunClock& clock,
                const std::map<screp::TxnTypeId, int>* micro_tables, int c,
                Client* client) {
  Slot* slot = cluster->slot(c);
  screp::runtime::ThreadRuntime* rt = cluster->rt();
  ReplicatedSystem* system = cluster->system();
  uint64_t seq = 0;
  for (;;) {
    const int64_t g0 = NowNs();
    if (g0 >= clock.run_end) break;
    const screp::TxnSpec spec = client->gen->Next();
    TxnRecord rec;
    rec.start_ns = NowNs();
    rec.gen_ns = rec.start_ns - g0;
    const bool traced = rec.start_ns >= clock.traced_start;
    const uint64_t txn_tag = (static_cast<uint64_t>(c) << 40) | ++seq;
    int exec_errors = 0;
    int64_t t0 = rec.start_ns;
    for (;;) {
      ++rec.attempts;
      slot->traced = traced;
      rt->Post([rt, system, slot, &spec, c]() {
        if (slot->traced) slot->loop_start_ns = NowNs();
        screp::TxnRequest req;
        req.txn_id = system->NextTxnId();
        req.type = spec.type;
        req.session = static_cast<screp::SessionId>(c);
        req.client_id = c;
        req.params = spec.params;
        req.submit_time = rt->Now();
        system->Submit(std::move(req));
        if (slot->traced) slot->submit_end_ns = NowNs();
      });
      TxnResponse response;
      int64_t t1 = 0;
      int64_t t2 = 0;
      int64_t t3 = 0;
      {
        std::unique_lock<std::mutex> lock(slot->mu);
        slot->cv.wait(lock, [slot]() { return slot->done; });
        slot->done = false;
        response = std::move(slot->response);
        t1 = slot->loop_start_ns;
        t2 = slot->submit_end_ns;
        t3 = slot->callback_ns;
      }
      const int64_t t4 = NowNs();
      if (traced) {
        client->spans.Add({txn_tag, SpanName::kPostWait, t0, t1});
        client->spans.Add({txn_tag, SpanName::kSubmit, t1, t2});
        client->spans.Add({txn_tag, SpanName::kInflight, t2, t3});
        client->spans.Add({txn_tag, SpanName::kWakeup, t3, t4});
      }
      rec.end_ns = t4;
      if (response.outcome == screp::TxnOutcome::kCommitted) {
        rec.committed = true;
        rec.read_only = response.read_only;
        break;
      }
      if (response.outcome == screp::TxnOutcome::kExecutionError &&
          ++exec_errors >= kMaxExecErrors) {
        break;
      }
      t0 = NowNs();
    }
    if (traced) {
      client->spans.Add({txn_tag, SpanName::kClientTxn, rec.start_ns,
                         rec.end_ns});
    }
    if (rec.committed) {
      if (micro_tables != nullptr && !rec.read_only) {
        rec.table = static_cast<int16_t>(micro_tables->at(spec.type));
        rec.arg = spec.params[0][0].AsInt();  // delta
        rec.key = spec.params[0][1].AsInt();
      }
      client->gen->OnCommitted(spec);
    }
    client->records.Add(rec);
  }
}

// ---- Output checks -------------------------------------------------------

/// Waits until every replica has applied every certified commit.
bool Quiesce(Cluster* cluster) {
  const int64_t deadline = NowNs() + 30'000'000'000;
  while (NowNs() < deadline) {
    bool done = false;
    cluster->OnLoop([&]() {
      ReplicatedSystem* sys = cluster->system();
      const screp::DbVersion v = sys->certifier()->CommitVersion();
      done = true;
      for (int r = 0; r < sys->replica_count(); ++r) {
        done = done && sys->replica(r)->db()->CommittedVersion() == v;
      }
    });
    if (done) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// Acknowledged update commits across all clients.
int64_t AckedUpdates(const std::vector<const TxnRecord*>& acked) {
  int64_t n = 0;
  for (const TxnRecord* r : acked) n += r->read_only ? 0 : 1;
  return n;
}

/// Micro check: on every replica, each key's val equals its initial
/// value plus the sum of its acknowledged deltas.  Returns "" when it
/// holds, else the first discrepancy.
std::string CheckMicroValues(ReplicatedSystem* sys,
                             const screp::MicroConfig& config,
                             const std::vector<const TxnRecord*>& acked) {
  std::vector<std::vector<int64_t>> expected(
      static_cast<size_t>(config.table_count));
  for (int t = 0; t < config.table_count; ++t) {
    auto& vals = expected[static_cast<size_t>(t)];
    vals.resize(static_cast<size_t>(config.rows_per_table));
    for (int64_t k = 0; k < config.rows_per_table; ++k) {
      vals[static_cast<size_t>(k)] = k % 997;  // MicroWorkload's initial val
    }
  }
  for (const TxnRecord* r : acked) {
    if (r->read_only) continue;
    expected[static_cast<size_t>(r->table)][static_cast<size_t>(r->key)] +=
        r->arg;
  }
  for (int rep = 0; rep < sys->replica_count(); ++rep) {
    screp::Database* db = sys->replica(rep)->db();
    for (int t = 0; t < config.table_count; ++t) {
      auto id = db->FindTable(screp::MicroWorkload::TableName(t));
      SCREP_CHECK(id.ok());
      int64_t rows = 0;
      std::string error;
      db->table(*id)->Scan(
          db->CommittedVersion(), [&](int64_t key, const screp::Row& row) {
            ++rows;
            const int64_t want =
                expected[static_cast<size_t>(t)][static_cast<size_t>(key)];
            if (row[1].AsInt() != want) {
              error = "replica " + std::to_string(rep) + " " +
                      screp::MicroWorkload::TableName(t) + "[" +
                      std::to_string(key) + "].val = " +
                      std::to_string(row[1].AsInt()) + ", acknowledged " +
                      "updates give " + std::to_string(want);
              return false;
            }
            return true;
          });
      if (!error.empty()) return error;
      if (rows != config.rows_per_table) {
        return "replica " + std::to_string(rep) + " " +
               screp::MicroWorkload::TableName(t) + " holds " +
               std::to_string(rows) + " rows";
      }
    }
  }
  return "";
}

/// Rows of one table at the replica's committed version.
std::vector<std::pair<int64_t, screp::Row>> TableRows(screp::Database* db,
                                                      screp::TableId id) {
  std::vector<std::pair<int64_t, screp::Row>> rows;
  db->table(id)->Scan(db->CommittedVersion(),
                      [&](int64_t key, const screp::Row& row) {
                        rows.emplace_back(key, row);
                        return true;
                      });
  return rows;
}

/// Every replica holds the same rows as replica 0 in every table.
std::string CheckReplicasIdentical(ReplicatedSystem* sys) {
  screp::Database* base = sys->replica(0)->db();
  for (const std::string& name : base->TableNames()) {
    auto base_id = base->FindTable(name);
    SCREP_CHECK(base_id.ok());
    const auto want = TableRows(base, *base_id);
    for (int rep = 1; rep < sys->replica_count(); ++rep) {
      screp::Database* db = sys->replica(rep)->db();
      auto id = db->FindTable(name);
      if (!id.ok()) return "replica " + std::to_string(rep) + " lacks " + name;
      const auto got = TableRows(db, *id);
      if (got.size() != want.size()) {
        return "replica " + std::to_string(rep) + " " + name + " holds " +
               std::to_string(got.size()) + " rows, replica 0 " +
               std::to_string(want.size());
      }
      for (size_t i = 0; i < got.size(); ++i) {
        if (got[i].first != want[i].first || got[i].second != want[i].second) {
          return "replica " + std::to_string(rep) + " " + name + " key " +
                 std::to_string(got[i].first) + " differs from replica 0";
        }
      }
    }
  }
  return "";
}

/// The acknowledged update commits must equal what the certifier
/// certified, and the replicas' contents must follow from them.
std::string CheckOutputs(const BenchWorkload& w, ReplicatedSystem* sys,
                         int64_t certified,
                         const std::vector<const TxnRecord*>& acked) {
  const int64_t updates = AckedUpdates(acked);
  if (updates != certified) {
    return std::to_string(updates) + " acknowledged update commits, " +
           std::to_string(certified) + " certified";
  }
  if (w.micro) {
    const auto* micro = static_cast<const screp::MicroWorkload*>(
        w.workload.get());
    return CheckMicroValues(sys, micro->config(), acked);
  }
  return CheckReplicasIdentical(sys);
}

/// A copy of `row` with its first non-key column changed (micro: val).
screp::Row Perturb(screp::Row row) {
  for (size_t i = 1; i < row.size(); ++i) {
    screp::Value& v = row[i];
    if (v.type() == screp::ValueType::kInt64) {
      v = screp::Value(v.AsInt() + 1);
      return row;
    }
    if (v.type() == screp::ValueType::kDouble) {
      v = screp::Value(v.AsDouble() + 1);
      return row;
    }
    if (v.type() == screp::ValueType::kString) {
      v = screp::Value(v.AsString() + "#");
      return row;
    }
  }
  return row;
}

/// Planted defect: alters one row on the last replica, behind the
/// middleware's back.
void AlterOneReplicaRow(ReplicatedSystem* sys) {
  screp::Database* db = sys->replica(sys->replica_count() - 1)->db();
  for (const std::string& name : db->TableNames()) {
    auto id = db->FindTable(name);
    SCREP_CHECK(id.ok());
    const auto rows = TableRows(db, *id);
    if (rows.empty()) continue;
    auto txn = db->Begin();
    SCREP_CHECK(txn->Update(*id, rows.front().first,
                            Perturb(rows.front().second))
                    .ok());
    screp::WriteSet ws = txn->BuildWriteSet();
    ws.commit_version = db->CommittedVersion() + 1;
    txn.reset();
    SCREP_CHECK(db->ApplyWriteSet(ws).ok());
    return;
  }
}

}  // namespace

void RunInproc(const BenchWorkload& w, const Options& opt, Report* report) {
  // Client logs are sized and touched before the first RSS reading.
  std::vector<Client> clients(kClients);
  const auto per_client = static_cast<size_t>(
      (kWarmupS + opt.seconds + 2) * kRecordsPerClientSecond);
  for (Client& c : clients) {
    c.records.Preallocate(per_client);
    if (opt.trace) {
      c.spans.Preallocate(static_cast<size_t>(opt.seconds / 2 + 1) *
                          kSpansPerClientSecond);
    }
  }

  std::vector<double> setups;
  auto cluster = std::make_unique<Cluster>(w);
  setups.push_back(cluster->setup_s());
  auto gens = MakeGenerators(*w.workload, cluster->system()->registry(),
                             opt.seed, kClients);
  std::map<screp::TxnTypeId, int> micro_tables;
  if (w.micro) {
    const auto* micro =
        static_cast<const screp::MicroWorkload*>(w.workload.get());
    micro_tables = MicroUpdateTables(cluster->system()->registry(),
                                     micro->config().table_count);
  }
  for (int c = 0; c < kClients; ++c) {
    clients[static_cast<size_t>(c)].gen =
        std::move(gens[static_cast<size_t>(c)]);
  }

  const RunClock clock = RunClock::Plan(opt, NowNs());
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(ClientMain, cluster.get(), std::cref(clock),
                         w.micro ? &micro_tables : nullptr, c,
                         &clients[static_cast<size_t>(c)]);
  }
  SleepUntil(clock.measure_start);
  const Snapshot s0 = TakeSnapshot(cluster.get());
  std::vector<ProcSample> samples = {s0.proc};
  SampleSubWindows(clock.measure_start, clock.traced_start, SelfSample,
                   &samples);
  SleepUntil(clock.traced_start);
  const Snapshot s1 = TakeSnapshot(cluster.get());
  samples.push_back(s1.proc);
  Snapshot s2 = s1;
  if (clock.traced()) {
    SleepUntil(clock.run_end);
    s2 = TakeSnapshot(cluster.get());
  }
  for (std::thread& t : threads) t.join();

  // ---- Output checks, after the system quiesced --------------------------
  if (!Quiesce(cluster.get())) {
    report->Fail("replicas did not catch up with the certifier in 30 s");
  }
  const Snapshot final_snap = TakeSnapshot(cluster.get());
  cluster->StopRuntime();
  std::vector<const TxnRecord*> acked;
  for (const Client& c : clients) {
    for (const TxnRecord& r : c.records) {
      if (r.committed) acked.push_back(&r);
    }
  }
  const int64_t certified = final_snap.Counter("certifier.certified");
  ReplicatedSystem* sys = cluster->system();
  const std::string verdict = CheckOutputs(w, sys, certified, acked);
  if (verdict.empty()) {
    report->Pass(std::string(w.micro ? "every replica's values follow from "
                                       "the acknowledged deltas"
                                     : "every replica holds identical rows") +
                 "; " + std::to_string(AckedUpdates(acked)) +
                 " acknowledged update commits = certifier.certified");
    // The checks must catch planted defects.
    std::vector<const TxnRecord*> dropped = acked;
    auto victim = std::find_if(dropped.begin(), dropped.end(),
                               [](const TxnRecord* r) { return !r->read_only; });
    if (victim != dropped.end()) dropped.erase(victim);
    const std::string drop_verdict = CheckOutputs(w, sys, certified, dropped);
    if (drop_verdict.empty()) {
      report->Fail("planted defect not caught: one acknowledged commit "
                   "dropped from the client record");
    } else {
      report->Pass("planted defect caught (acknowledged commit dropped): " +
                   drop_verdict);
    }
    AlterOneReplicaRow(sys);
    const std::string alter_verdict = CheckOutputs(w, sys, certified, acked);
    if (alter_verdict.empty()) {
      report->Fail("planted defect not caught: one replica row altered");
    } else {
      report->Pass("planted defect caught (replica row altered): " +
                   alter_verdict);
    }
  } else {
    report->Fail(verdict);
  }

  // ---- End-to-end metrics (untraced window) ------------------------------
  std::vector<const Log<TxnRecord>*> logs;
  for (const Client& c : clients) logs.push_back(&c.records);
  const WindowStats untraced = AddEndToEndMetrics(logs, samples, report);
  const int64_t window_ns = s1.proc.wall_ns - s0.proc.wall_ns;
  const auto committed = static_cast<double>(untraced.committed_by_end);
  const auto n = untraced.committed_by_end;

  // ---- Per-layer metrics from counters (untraced window) -----------------
  const auto delta = [&](const std::string& name) {
    return static_cast<double>(s1.Counter(name) - s0.Counter(name));
  };
  report->Add("runtime.callbacks_per_txn", "count",
              static_cast<double>(s1.executed - s0.executed) / committed, n);
  report->Add("runtime.loop_cpu_frac", "1",
              static_cast<double>(s1.loop_cpu_ns - s0.loop_cpu_ns) /
                  static_cast<double>(window_ns),
              n);
  report->Add("lb.dispatched_per_txn", "count",
              delta("lb.dispatched") / committed, n);
  const double cert = delta("certifier.certified");
  const double aborts = delta("certifier.aborts.ww") +
                        delta("certifier.aborts.rw") +
                        delta("certifier.aborts.window");
  if (cert > 0) {
    const auto nc = static_cast<int64_t>(cert);
    report->Add("certifier.forces_per_update", "count",
                delta("certifier.forces") / cert, nc);
    double applied = 0;
    for (int r = 0; r < kReplicas; ++r) {
      applied += delta("replica" + std::to_string(r) + ".refresh_applied");
    }
    report->Add("proxy.refresh_applied_per_update", "count", applied / cert,
                nc);
    report->Add("certifier.abort_frac", "1", aborts / (cert + aborts),
                static_cast<int64_t>(cert + aborts));
  }
  const int64_t batches = s1.batch_count - s0.batch_count;
  if (batches > 0) {
    report->Add("certifier.batch_size_mean", "count",
                (s1.batch_sum - s0.batch_sum) / static_cast<double>(batches),
                batches);
  }
  report->Add("net.messages_per_txn", "count",
              static_cast<double>(s1.NetSum(".messages") -
                                  s0.NetSum(".messages")) /
                  committed,
              n);
  report->Add("net.bytes_per_txn", "B",
              static_cast<double>(s1.NetSum(".bytes") - s0.NetSum(".bytes")) /
                  committed,
              n);

  // ---- Traced window: spans ----------------------------------------------
  if (clock.traced()) {
    const WindowStats traced =
        Aggregate(logs, s1.proc.wall_ns, s2.proc.wall_ns);
    const double traced_ops =
        static_cast<double>(traced.committed_by_end) /
        (static_cast<double>(s2.proc.wall_ns - s1.proc.wall_ns) / 1e9);
    const double untraced_ops =
        committed / (static_cast<double>(window_ns) / 1e9);
    report->Add("trace.overhead_frac", "1", 1.0 - traced_ops / untraced_ops,
                traced.committed_by_end);
    std::vector<Span> spans;
    for (const Client& c : clients) {
      spans.insert(spans.end(), c.spans.begin(), c.spans.end());
    }
    std::map<SpanName, std::vector<double>> durations;
    for (const Span& s : spans) {
      durations[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) /
                                  1e3);
    }
    report->AddQuantiles("runtime.post_wait_us", "us",
                         &durations[SpanName::kPostWait]);
    report->AddQuantiles("runtime.wakeup_us", "us",
                         &durations[SpanName::kWakeup]);
    report->AddQuantiles("replication.submit_us", "us",
                         &durations[SpanName::kSubmit], /*with_p99=*/false);
    report->AddQuantiles("replication.inflight_us", "us",
                         &durations[SpanName::kInflight]);
    CheckTrace(spans, InprocChain(), opt, w.name, report);
  }

  // ---- Set-up time: more clusters, timed the same way ----------------------
  cluster.reset();
  for (int i = 1; i < kSetupRepeats; ++i) {
    Cluster again(w);
    setups.push_back(again.setup_s());
  }
  report->Add("setup_s", "s", Median(&setups),
              static_cast<int64_t>(setups.size()));

  if (opt.trace) {
    RunLayerReplays(w, opt.seed, kReplayBudgetS, report);
    RunModelledDelayProbe(w, opt.seed, kProbeTxns, report);
  }
}

}  // namespace wallbench
