#include <algorithm>
#include <chrono>
#include <thread>

#include "runs.h"

namespace wallbench {

RunClock RunClock::Plan(const Options& opt, int64_t now) {
  RunClock clock;
  const auto ns = [](double s) { return static_cast<int64_t>(s * 1e9); };
  clock.measure_start = now + ns(kWarmupS);
  clock.run_end = clock.measure_start + ns(opt.seconds);
  clock.traced_start = opt.trace
                           ? clock.measure_start + ns(opt.seconds / 2)
                           : clock.run_end;
  return clock;
}

WindowStats Aggregate(const std::vector<const Log<TxnRecord>*>& logs,
                      int64_t start_ns, int64_t end_ns) {
  WindowStats w;
  for (const Log<TxnRecord>* log : logs) {
    for (const TxnRecord& r : *log) {
      if (r.committed && r.end_ns > start_ns && r.end_ns <= end_ns) {
        ++w.committed_by_end;
      }
      if (r.start_ns < start_ns || r.start_ns >= end_ns) continue;
      ++w.txns;
      w.attempts += r.attempts;
      w.gen_us.push_back(static_cast<double>(r.gen_ns) / 1e3);
      if (!r.committed) {
        ++w.failed_txns;
        continue;
      }
      ++w.committed;
      const double ms = static_cast<double>(r.end_ns - r.start_ns) / 1e6;
      w.all_ms.push_back(ms);
      (r.read_only ? w.read_ms : w.update_ms).push_back(ms);
    }
  }
  return w;
}

void SleepUntil(int64_t ns) {
  const int64_t now = NowNs();
  if (ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
  }
}

namespace {

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Median over sub-windows of one sample list; `values` may be empty.
void AddMedian(const std::string& name, const std::string& unit,
               std::vector<double>* values, int64_t samples,
               Report* report) {
  if (!values->empty()) report->Add(name, unit, Median(values), samples);
}

double P50(std::vector<double>* ms) {
  std::sort(ms->begin(), ms->end());
  return Percentile(*ms, 0.50);
}

}  // namespace

WindowStats AddEndToEndMetrics(const std::vector<const Log<TxnRecord>*>& logs,
                               const std::vector<ProcSample>& samples,
                               Report* report) {
  const ProcSample& first = samples.front();
  const ProcSample& last = samples.back();
  WindowStats whole = Aggregate(logs, first.wall_ns, last.wall_ns);
  std::vector<double> p50, read_p50, update_p50, cpu;
  for (size_t i = 0; i + 1 < samples.size(); ++i) {
    const ProcSample& a = samples[i];
    const ProcSample& b = samples[i + 1];
    WindowStats w = Aggregate(logs, a.wall_ns, b.wall_ns);
    if (!w.all_ms.empty()) p50.push_back(P50(&w.all_ms));
    if (!w.read_ms.empty()) read_p50.push_back(P50(&w.read_ms));
    if (!w.update_ms.empty()) update_p50.push_back(P50(&w.update_ms));
    if (w.committed_by_end > 0) {
      cpu.push_back(static_cast<double>(b.cpu_ns - a.cpu_ns) / 1e3 /
                    static_cast<double>(w.committed_by_end));
    }
  }
  const int64_t acked = whole.committed_by_end;
  report->Add("ops_per_s", "1/s",
              static_cast<double>(acked) /
                  Seconds(last.wall_ns - first.wall_ns),
              acked);
  AddMedian("p50_ms", "ms", &p50, whole.committed, report);
  AddMedian("read_p50_ms", "ms", &read_p50,
            static_cast<int64_t>(whole.read_ms.size()), report);
  AddMedian("update_p50_ms", "ms", &update_p50,
            static_cast<int64_t>(whole.update_ms.size()), report);
  const auto add_p99 = [report](const std::string& name,
                                std::vector<double>* ms) {
    if (ms->empty()) return;
    std::sort(ms->begin(), ms->end());
    report->Add(name, "ms", Percentile(*ms, 0.99),
                static_cast<int64_t>(ms->size()));
  };
  add_p99("p99_ms", &whole.all_ms);
  add_p99("read_p99_ms", &whole.read_ms);
  add_p99("update_p99_ms", &whole.update_ms);
  if (whole.attempts > 0) {
    report->Add("failed_frac", "1",
                static_cast<double>(whole.attempts - whole.committed) /
                    static_cast<double>(whole.attempts),
                whole.attempts);
  }
  report->AddQuantiles("workload.gen_us", "us", &whole.gen_us,
                       /*with_p99=*/false);
  AddMedian("cpu_us_per_txn", "us", &cpu, acked, report);
  if (acked > 0) {
    report->Add("mem_bytes_per_txn", "B",
                static_cast<double>(last.rss - first.rss) /
                    static_cast<double>(acked),
                acked);
  }
  report->attempted = whole.txns;
  report->failed = whole.failed_txns;
  return whole;
}

void CheckTrace(const std::vector<Span>& spans, const AttemptChain& chain,
                const Options& opt, const std::string& workload,
                Report* report) {
  const TraceAnalysis a = AnalyzeSpans(spans, chain);
  if (!a.ok) {
    report->Fail("trace conservation: " + a.error);
    return;
  }
  const double coverage =
      static_cast<double>(a.covered_ns) / static_cast<double>(a.root_ns);
  report->Pass("trace conservation: child spans cover " +
               std::to_string(100.0 * coverage) + "% of " +
               std::to_string(a.txns) + " client.txn spans");
  report->Add("trace.coverage_frac", "1", coverage, a.txns);
  // Self time per traced txn: the parts add up to the mean client.txn.
  for (const auto& [name, st] : a.by_name) {
    report->Add("trace.self_us_per_txn." + name, "us",
                static_cast<double>(st.self_ns) / 1e3 /
                    static_cast<double>(a.txns),
                st.count);
  }
  std::vector<Span> cut = spans;
  auto child = std::find_if(cut.begin(), cut.end(), [](const Span& s) {
    return s.name != SpanName::kClientTxn;
  });
  if (child != cut.end()) cut.erase(child);
  const TraceAnalysis planted = AnalyzeSpans(std::move(cut), chain);
  if (planted.ok) {
    report->Fail("planted defect not caught: one child span removed");
  } else {
    report->Pass("planted defect caught (child span removed): " +
                 planted.error);
  }
  const std::string path = opt.out_dir + "/trace-" + workload + ".json";
  if (!WriteSpans(spans, path)) {
    report->Fail("cannot write spans to " + path);
  } else {
    report->Pass("spans written to " + path);
  }
}

double Median(std::vector<double>* values) {
  std::sort(values->begin(), values->end());
  return Percentile(*values, 0.5);
}

}  // namespace wallbench
