// Clocks, statistics, the span recorder and the result line.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/export.h"
#include "perfbench.h"

namespace bftlab::perfbench {

double WallNow() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double ThreadCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMib() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the image that exec'd this process (the Python launcher).
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

// --- SpanRecorder --------------------------------------------------------------

int32_t SpanRecorder::Open(const std::string& name, uint32_t cell) {
  auto [it, inserted] =
      name_ids_.emplace(name, static_cast<uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  Span s;
  s.name = it->second;
  s.parent = open_.empty() ? -1 : open_.back();
  s.cell = cell;
  s.start_s = WallNow();
  spans_.push_back(s);
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::Close(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_s = WallNow();
  // Spans close in LIFO order; anything opened after `index` and still
  // open is closed with it.
  while (!open_.empty()) {
    int32_t top = open_.back();
    open_.pop_back();
    if (top == index) break;
    spans_[static_cast<size_t>(top)].end_s = WallNow();
  }
}

std::vector<double> SpanRecorder::SelfTimes() const {
  // Children of a span lie inside it and, on one thread, never overlap
  // each other, but clamp to the parent interval and merge anyway so self
  // time is exactly duration minus the covered part.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& p = spans_[i];
    std::vector<std::pair<double, double>>& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start_s);
      hi = std::min(hi, p.end_s);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (p.end_s - p.start_s) - covered;
  }
  return self;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::TotalsByName()
    const {
  std::vector<double> self = SelfTimes();
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[names_[spans_[i].name]];
    ++t.count;
    t.total_s += Duration(i);
    t.self_s += self[i];
  }
  return out;
}

std::string SpanRecorder::Json() const {
  std::ostringstream os;
  os.precision(17);
  os << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << JsonEscape(names_[s.name])
       << "\",\"start\":" << s.start_s << ",\"end\":" << s.end_s
       << ",\"parent\":" << s.parent << ",\"cell\":" << s.cell << "}";
  }
  os << "]";
  return os.str();
}

// --- Result line -----------------------------------------------------------------

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string ReportJson(const RunReport& report) {
  std::ostringstream os;
  os << "{\"correct\":" << (report.correct ? "true" : "false")
     << ",\"attempted\":" << report.attempted
     << ",\"failed\":" << report.failed << ",\"metrics\":{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    // Finite values with all their digits; JSON has no NaN or infinity.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) os << ",";
    os << "\"" << JsonEscape(m.name) << "\":{\"value\":" << value
       << ",\"unit\":\"" << JsonEscape(m.unit) << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace bftlab::perfbench
