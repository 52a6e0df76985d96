#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

namespace wallbench {

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

void Report::Add(const std::string& name, const std::string& unit,
                 double value, int64_t samples) {
  metrics_.push_back({name, unit, value, samples});
}

void Report::AddQuantiles(const std::string& name, const std::string& unit,
                          std::vector<double>* samples, bool with_p99) {
  if (samples->empty()) return;
  std::sort(samples->begin(), samples->end());
  const auto n = static_cast<int64_t>(samples->size());
  Add(name + ".p50", unit, Percentile(*samples, 0.50), n);
  if (with_p99) Add(name + ".p99", unit, Percentile(*samples, 0.99), n);
}

void Report::Fail(const std::string& what) { failures_.push_back(what); }

void Report::Pass(const std::string& what) { passes_.push_back(what); }

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::ToJson(const std::string& workload) const {
  std::ostringstream out;
  out << "{\"workload\":" << JsonString(workload)
      << ",\"correct\":" << (failures_.empty() ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"failures\":[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out << (i ? "," : "") << JsonString(failures_[i]);
  }
  out << "],\"checks\":[";
  for (size_t i = 0; i < passes_.size(); ++i) {
    out << (i ? "," : "") << JsonString(passes_[i]);
  }
  out << "],\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? "," : "") << JsonString(m.name)
        << ":{\"value\":" << JsonNumber(m.value)
        << ",\"unit\":" << JsonString(m.unit)
        << ",\"samples\":" << m.samples << "}";
  }
  out << "}}";
  return out.str();
}

int64_t SelfCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

/// utime+stime (fields 14 and 15) of a /proc stat file, in ns.
int64_t StatCpuNs(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) return 0;
  // The command name (field 2) is parenthesised and may hold spaces.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(line.substr(close + 1));
  std::string field;
  int64_t utime = 0;
  int64_t stime = 0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::stoll(field);
    if (i == 15) stime = std::stoll(field);
  }
  const int64_t ticks_per_s = sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1000000000 / ticks_per_s);
}

}  // namespace

int64_t ProcessCpuNs(pid_t pid) {
  return StatCpuNs("/proc/" + std::to_string(pid) + "/stat");
}

int64_t ThreadCpuNs(pid_t tid) {
  return StatCpuNs("/proc/self/task/" + std::to_string(tid) + "/stat");
}

int64_t RssBytes(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/statm")
                            : "/proc/" + std::to_string(pid) + "/statm");
  int64_t size = 0;
  int64_t resident = 0;
  in >> size >> resident;
  return resident * sysconf(_SC_PAGESIZE);
}

}  // namespace wallbench
