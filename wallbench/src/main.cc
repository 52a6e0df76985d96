// wallbench: one run of one workload of the wall-clock benchmark.
//
//   wallbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--out-dir DIR] [--server PATH]
//   wallbench --self-test
//
// Prints one JSON object on stdout: every metric measured (name, value,
// unit, sample count), the output checks that passed and failed, and
// the attempted/failed transaction counts.  Exits 1 when an output check
// failed.  wallbench/run.py builds this binary and turns its output into
// the benchmark's result line.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "runs.h"
#include "spans.h"
#include "workloads.h"

namespace wallbench {
namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "wallbench: %s\nusage: wallbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--out-dir DIR] "
               "[--server PATH] | --self-test\n",
               why.c_str());
  std::exit(2);
}

/// Checks of the benchmark's own arithmetic: percentiles of a known
/// sample list, and the span conservation check on known traces.
int SelfTest() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::fprintf(stderr, "%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Report r;
  r.AddQuantiles("x", "ms", &hundred);
  expect(r.metrics().size() == 2 && r.metrics()[0].value == 50 &&
             r.metrics()[1].value == 99 && r.metrics()[1].samples == 100,
         "1..100 gives p50 = 50, p99 = 99");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  expect(Percentile(thousand, 0.99) == 990 && Percentile(thousand, 0.5) == 500,
         "1..1000 gives p50 = 500, p99 = 990");
  expect(Percentile({7}, 0.99) == 7 && Percentile({}, 0.5) == 0,
         "one sample is every percentile; no samples give 0");
  std::vector<double> odd = {5, 1, 3};
  expect(Median(&odd) == 3, "median of {5, 1, 3} is 3");

  // Two txns: one clean attempt, and one abort + retry with a gap of 1 ns
  // between the attempts (client-side bookkeeping).
  const auto chain = [](uint64_t txn, int64_t t, std::vector<Span>* out) {
    const SpanName names[] = {SpanName::kPostWait, SpanName::kSubmit,
                              SpanName::kInflight, SpanName::kWakeup};
    for (int i = 0; i < 4; ++i) {
      out->push_back({txn, names[i], t + 100 * i, t + 100 * (i + 1)});
    }
  };
  std::vector<Span> good;
  good.push_back({1, SpanName::kClientTxn, 0, 400});
  chain(1, 0, &good);
  good.push_back({2, SpanName::kClientTxn, 1000, 1801});
  chain(2, 1000, &good);
  chain(2, 1401, &good);
  const TraceAnalysis ok = AnalyzeSpans(good, InprocChain());
  expect(ok.ok && ok.txns == 2 && ok.root_ns == 1201 &&
             ok.covered_ns == 1200 &&
             ok.by_name.at("client.txn").self_ns == 1 &&
             ok.by_name.at("replication.inflight").count == 3,
         "whole chains pass conservation; self times add up");
  std::vector<Span> missing = good;
  missing.erase(missing.begin() + 3);
  expect(!AnalyzeSpans(missing, InprocChain()).ok,
         "one child span removed fails conservation");
  std::vector<Span> overlap = good;
  overlap[2].end_ns += 50;
  expect(!AnalyzeSpans(overlap, InprocChain()).ok,
         "overlapping children fail conservation");
  std::vector<Span> sparse = good;
  sparse[6].end_ns = 5000;
  expect(!AnalyzeSpans(sparse, InprocChain()).ok,
         "a child outside its root fails conservation");
  std::vector<Span> thin = {{3, SpanName::kClientTxn, 0, 1000}};
  chain(3, 0, &thin);
  expect(!AnalyzeSpans(thin, InprocChain()).ok,
         "children covering 40% of the root fail conservation");
  std::vector<Span> wrong_chain = {{4, SpanName::kClientTxn, 0, 300},
                                   {4, SpanName::kToolsBegin, 0, 100},
                                   {4, SpanName::kToolsRead, 100, 200},
                                   {4, SpanName::kToolsCommit, 200, 300}};
  expect(AnalyzeSpans(wrong_chain, KvTcpChain()).ok &&
             !AnalyzeSpans(wrong_chain, InprocChain()).ok,
         "a kv-tcp chain is checked against its own shape");
  std::fprintf(stderr, "self-test: %s\n", failures == 0 ? "OK" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (i + 1 >= argc) Usage(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else if (arg == "--server") {
      opt.server_path = value;
    } else {
      Usage("unknown flag " + arg);
    }
  }
  if (!(opt.seconds > 0)) Usage("bad --seconds");
  std::unique_ptr<BenchWorkload> w = MakeWorkload(opt.workload);
  if (w == nullptr) Usage("unknown workload '" + opt.workload + "'");
  if (w->tcp && opt.server_path.empty()) Usage("kv-tcp needs --server");

  Report report;
  if (w->tcp) {
    RunKvTcp(*w, opt, &report);
  } else {
    RunInproc(*w, opt, &report);
  }
  std::printf("%s\n", report.ToJson(w->name).c_str());
  std::fflush(stdout);
  return report.failures().empty() ? 0 : 1;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) { return wallbench::Main(argc, argv); }
