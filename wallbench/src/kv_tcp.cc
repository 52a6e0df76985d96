// kv-tcp: screp_server, started with its default flags (only the port is
// chosen, to avoid clashes), driven over loopback by kClients
// connections of this process through screp_client::Connection.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "replay.h"
#include "runs.h"
#include "screp_client.h"
#include "spans.h"
#include "sql/table_set.h"
#include "storage/database.h"

namespace wallbench {

using screp::client::Connection;

namespace {

constexpr const char* kHost = "127.0.0.1";
constexpr size_t kRecordsPerClientSecond = 20000;
constexpr size_t kSpansPerClientSecond = 4 * 5000;
/// Round trips of one attempt: BEGIN, READ or UPDATE, COMMIT.
constexpr int kRoundTripsPerAttempt = 3;
/// Reads the grid admits in one transaction (screp_server default).
constexpr int kMaxReads = 4;

int FreeLoopbackPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SCREP_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  SCREP_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
              0);
  socklen_t len = sizeof(addr);
  SCREP_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) ==
              0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

/// One screp_server child process.  Ready (answering PING) once the
/// constructor returns; the destructor kills it if it still runs.
class ServerProcess {
 public:
  ServerProcess(const std::string& path, std::string* error)
      : port_(FreeLoopbackPort()) {
    const std::string port = std::to_string(port_);
    std::vector<char*> argv = {const_cast<char*>(path.c_str()),
                               const_cast<char*>("--port"),
                               const_cast<char*>(port.c_str()), nullptr};
    const int64_t t0 = NowNs();
    pid_ = ::fork();
    if (pid_ == 0) {
      // The child dies with us, so no server outlives an interrupted
      // run; its banner goes to our stderr (stdout carries the result).
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(STDERR_FILENO, STDOUT_FILENO);
      ::execv(path.c_str(), argv.data());
      ::_exit(127);
    }
    if (pid_ < 0) {
      *error = "cannot start " + path;
      return;
    }
    const int64_t deadline = t0 + 60'000'000'000;
    while (NowNs() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "screp_server exited during start-up";
        return;
      }
      Connection probe;
      if (probe.Connect(kHost, port_).ok() && probe.Ping().ok()) {
        setup_s_ = static_cast<double>(NowNs() - t0) / 1e9;
        probe.Quit();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    *error = "screp_server did not answer PING within 60 s";
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// SHUTDOWN, then waits for the exit; returns the exit status (or -1).
  int Shutdown() {
    if (pid_ <= 0) return -1;
    Connection conn;
    if (conn.Connect(kHost, port_).ok()) (void)conn.Shutdown();
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  double setup_s() const { return setup_s_; }

 private:
  int port_;
  pid_t pid_ = -1;
  double setup_s_ = 0;
};

struct Client {
  std::unique_ptr<screp::TxnGenerator> gen;
  Log<TxnRecord> records;
  Log<Span> spans;
  std::string error;
};

/// The closed loop of one connection.  Errors other than an aborted
/// commit end the client and are reported.
void ClientMain(int port, const RunClock& clock, int c, Client* client) {
  Connection conn;
  if (!conn.Connect(kHost, port).ok()) {
    client->error = "client " + std::to_string(c) + " cannot connect";
    return;
  }
  uint64_t seq = 0;
  for (;;) {
    const int64_t g0 = NowNs();
    if (g0 >= clock.run_end) break;
    const screp::TxnSpec spec = client->gen->Next();
    const KvOp op = KvOpOf(spec);
    TxnRecord rec;
    rec.start_ns = NowNs();
    rec.gen_ns = rec.start_ns - g0;
    rec.key = op.key;
    const bool traced = rec.start_ns >= clock.traced_start;
    const uint64_t txn_tag = (static_cast<uint64_t>(c) << 40) | ++seq;
    int64_t t0 = rec.start_ns;
    for (;;) {
      ++rec.attempts;
      screp::Status st = conn.Begin();
      const int64_t t1 = NowNs();
      if (st.ok()) st = op.update ? conn.Update(op.key, op.value)
                                  : conn.Read(op.key);
      const int64_t t2 = NowNs();
      if (!st.ok()) {
        client->error = "client " + std::to_string(c) + ": " + st.ToString();
        return;
      }
      auto result = conn.Commit();
      const int64_t t3 = NowNs();
      if (traced) {
        client->spans.Add({txn_tag, SpanName::kToolsBegin, t0, t1});
        client->spans.Add({txn_tag,
                           op.update ? SpanName::kToolsUpdate
                                     : SpanName::kToolsRead,
                           t1, t2});
        client->spans.Add({txn_tag, SpanName::kToolsCommit, t2, t3});
      }
      rec.end_ns = t3;
      if (result.ok()) {
        rec.committed = true;
        rec.read_only = !op.update;
        rec.version = result->commit_version;
        rec.arg = op.update ? op.value : 0;
        break;
      }
      if (!result.status().IsAborted()) {
        client->error =
            "client " + std::to_string(c) + ": " + result.status().ToString();
        return;
      }
      t0 = NowNs();
    }
    if (traced) {
      client->spans.Add({txn_tag, SpanName::kClientTxn, rec.start_ns,
                         rec.end_ns});
    }
    client->gen->OnCommitted(spec);
    client->records.Add(rec);
  }
  conn.Quit();
}

/// Final LSC read of every key, over kClients connections, kMaxReads
/// keys per transaction.  Returns "" or an error.
std::string ReadAllKeys(int port, std::vector<int64_t>* values) {
  values->assign(kKvRows, -1);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      Connection conn;
      if (!conn.Connect(kHost, port).ok() || !conn.Level("LSC").ok()) {
        errors[static_cast<size_t>(c)] = "final read cannot connect";
        return;
      }
      for (int64_t first = c * kMaxReads; first < kKvRows;
           first += kClients * kMaxReads) {
        const int64_t last = std::min<int64_t>(first + kMaxReads, kKvRows);
        for (int attempt = 0;; ++attempt) {
          screp::Status st = conn.Begin();
          for (int64_t k = first; k < last && st.ok(); ++k) st = conn.Read(k);
          auto result = st.ok() ? conn.Commit()
                                : screp::Result<screp::client::CommitResult>(st);
          if (result.ok()) {
            for (const auto& [key, value] : result->reads) {
              (*values)[static_cast<size_t>(key)] = value;
            }
            break;
          }
          if (!result.status().IsAborted() || attempt > 100) {
            errors[static_cast<size_t>(c)] =
                "final read: " + result.status().ToString();
            return;
          }
        }
      }
      conn.Quit();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) return e;
  }
  return "";
}

/// The acknowledged update commits carry versions 1..N (the certifier's
/// versions are dense, so this is its certified count), and the final
/// value of every key is the one written by its highest acknowledged
/// version (keys never written keep val = key).
std::string CheckKv(const std::vector<const TxnRecord*>& acked,
                    const std::vector<int64_t>& final_values) {
  std::vector<int64_t> versions;
  std::vector<int64_t> best_version(kKvRows, 0);
  std::vector<int64_t> expected(kKvRows);
  for (int64_t k = 0; k < kKvRows; ++k) expected[static_cast<size_t>(k)] = k;
  for (const TxnRecord* r : acked) {
    if (r->read_only) continue;
    versions.push_back(r->version);
    const auto k = static_cast<size_t>(r->key);
    if (r->version > best_version[k]) {
      best_version[k] = r->version;
      expected[k] = r->arg;
    }
  }
  std::sort(versions.begin(), versions.end());
  for (size_t i = 0; i < versions.size(); ++i) {
    if (versions[i] != static_cast<int64_t>(i) + 1) {
      return std::to_string(versions.size()) +
             " acknowledged update commits do not carry versions 1.." +
             std::to_string(versions.size()) + " (position " +
             std::to_string(i + 1) + " holds version " +
             std::to_string(versions[i]) + ")";
    }
  }
  for (int64_t k = 0; k < kKvRows; ++k) {
    const auto i = static_cast<size_t>(k);
    if (final_values[i] != expected[i]) {
      return "key " + std::to_string(k) + " reads " +
             std::to_string(final_values[i]) + ", its highest acknowledged "
             "version (" + std::to_string(best_version[i]) + ") wrote " +
             std::to_string(expected[i]);
    }
  }
  return "";
}

ProcSample SampleOf(pid_t pid) {
  return {NowNs(), ProcessCpuNs(pid), RssBytes(pid)};
}

}  // namespace

void RunKvTcp(const BenchWorkload& w, const Options& opt, Report* report) {
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
  // The generators need the grid's type ids: a local copy of the schema
  // registers the same types in the same order as the server does.
  screp::Database catalog;
  SCREP_CHECK(w.workload->BuildSchema(&catalog).ok());
  screp::sql::TransactionRegistry registry;
  SCREP_CHECK(w.workload->DefineTransactions(catalog, &registry).ok());
  auto gens = MakeGenerators(*w.workload, registry, opt.seed, kClients);
  for (int c = 0; c < kClients; ++c) {
    clients[static_cast<size_t>(c)].gen =
        std::move(gens[static_cast<size_t>(c)]);
  }

  std::string error;
  std::vector<double> setups;
  auto server = std::make_unique<ServerProcess>(opt.server_path, &error);
  if (!error.empty()) {
    report->Fail(error);
    return;
  }
  setups.push_back(server->setup_s());
  {
    Connection conn;
    if (!conn.Connect(kHost, server->port()).ok() ||
        !conn.Level("LSC").ok()) {
      report->Fail("screp_server does not run LSC");
      return;
    }
    conn.Quit();
  }

  const RunClock clock = RunClock::Plan(opt, NowNs());
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(ClientMain, server->port(), std::cref(clock), c,
                         &clients[static_cast<size_t>(c)]);
  }
  const pid_t pid = server->pid();
  const auto sample = [pid]() { return SampleOf(pid); };
  SleepUntil(clock.measure_start);
  std::vector<ProcSample> samples = {sample()};
  SampleSubWindows(clock.measure_start, clock.traced_start, sample,
                   &samples);
  SleepUntil(clock.traced_start);
  const ProcSample s1 = sample();
  samples.push_back(s1);
  ProcSample s2 = s1;
  if (clock.traced()) {
    SleepUntil(clock.run_end);
    s2 = sample();
  }
  for (std::thread& t : threads) t.join();
  for (const Client& c : clients) {
    if (!c.error.empty()) report->Fail(c.error);
  }

  // ---- Output checks -------------------------------------------------------
  std::vector<const TxnRecord*> acked;
  for (const Client& c : clients) {
    for (const TxnRecord& r : c.records) {
      if (r.committed) acked.push_back(&r);
    }
  }
  std::vector<int64_t> final_values;
  const std::string read_error = ReadAllKeys(server->port(), &final_values);
  if (!read_error.empty()) {
    report->Fail(read_error);
  } else if (const std::string verdict = CheckKv(acked, final_values);
             !verdict.empty()) {
    report->Fail(verdict);
  } else {
    int64_t updates = 0;
    for (const TxnRecord* r : acked) updates += r->read_only ? 0 : 1;
    report->Pass("final LSC read of all " + std::to_string(kKvRows) +
                 " keys matches the highest acknowledged versions; " +
                 std::to_string(updates) +
                 " acknowledged update commits carry versions 1.." +
                 std::to_string(updates));
    // Planted defect: drop one acknowledged update (a middle version).
    std::vector<const TxnRecord*> dropped = acked;
    std::vector<size_t> update_idx;
    for (size_t i = 0; i < dropped.size(); ++i) {
      if (!dropped[i]->read_only) update_idx.push_back(i);
    }
    if (!update_idx.empty()) {
      std::sort(update_idx.begin(), update_idx.end(),
                [&](size_t a, size_t b) {
                  return dropped[a]->version < dropped[b]->version;
                });
      dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(
                                          update_idx[update_idx.size() / 2]));
    }
    const std::string planted = CheckKv(dropped, final_values);
    if (planted.empty()) {
      report->Fail("planted defect not caught: one acknowledged commit "
                   "dropped from the client record");
    } else {
      report->Pass("planted defect caught (acknowledged commit dropped): " +
                   planted);
    }
  }
  const int exit_status = server->Shutdown();
  if (exit_status != 0) {
    report->Fail("screp_server exited with status " +
                 std::to_string(exit_status));
  }

  // ---- End-to-end metrics (untraced window) --------------------------------
  std::vector<const Log<TxnRecord>*> logs;
  for (const Client& c : clients) logs.push_back(&c.records);
  const WindowStats untraced = AddEndToEndMetrics(logs, samples, report);
  const int64_t window_ns = s1.wall_ns - samples.front().wall_ns;
  const auto committed = static_cast<double>(untraced.committed_by_end);
  report->Add("tools.round_trips_per_txn", "count",
              static_cast<double>(kRoundTripsPerAttempt * untraced.attempts) /
                  static_cast<double>(untraced.committed),
              untraced.committed);

  // ---- Traced window ---------------------------------------------------------
  if (clock.traced()) {
    const WindowStats traced = Aggregate(logs, s1.wall_ns, s2.wall_ns);
    const double traced_ops = static_cast<double>(traced.committed_by_end) /
                              (static_cast<double>(s2.wall_ns - s1.wall_ns) /
                               1e9);
    const double untraced_ops =
        committed / (static_cast<double>(window_ns) / 1e9);
    report->Add("trace.overhead_frac", "1", 1.0 - traced_ops / untraced_ops,
                traced.committed_by_end);
    std::vector<Span> spans;
    for (const Client& c : clients) {
      spans.insert(spans.end(), c.spans.begin(), c.spans.end());
    }
    std::vector<double> stmt_us;
    std::vector<double> commit_us;
    for (const Span& s : spans) {
      const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      if (s.name == SpanName::kToolsCommit) {
        commit_us.push_back(us);
      } else if (s.name != SpanName::kClientTxn) {
        stmt_us.push_back(us);
      }
    }
    report->AddQuantiles("tools.stmt_rtt_us", "us", &stmt_us);
    report->AddQuantiles("tools.commit_rtt_us", "us", &commit_us);
    CheckTrace(spans, KvTcpChain(), opt, w.name, report);
  }

  // ---- Set-up time: more servers, timed the same way -------------------------
  server.reset();
  for (int i = 1; i < kTcpSetupRepeats; ++i) {
    ServerProcess again(opt.server_path, &error);
    if (!error.empty()) {
      report->Fail(error);
      return;
    }
    setups.push_back(again.setup_s());
    if (again.Shutdown() != 0) report->Fail("screp_server did not exit 0");
  }
  report->Add("setup_s", "s", Median(&setups),
              static_cast<int64_t>(setups.size()));

  if (opt.trace) {
    RunLayerReplays(w, opt.seed, kReplayBudgetS, report);
    RunModelledDelayProbe(w, opt.seed, kProbeTxns, report);
  }
}

}  // namespace wallbench
