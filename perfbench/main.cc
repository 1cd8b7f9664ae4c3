// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--spans <path>]
//
// Runs one workload and prints, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The traced run
// writes its spans to --spans when given. Exit status 2 on bad arguments,
// 1 when the workload could not run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/export.h"
#include "perfbench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\nworkloads:",
               why);
  for (const std::string& w : bftlab::perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bftlab::perfbench;
  RunOptions o;
  std::string spans_path;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseU64(value, &n)) {
      o.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseU64(value, &n) && n >= 1 &&
               n <= 3600) {
      o.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && ParseU64(value, &n) && n <= 1) {
      o.trace = n == 1;
      have_trace = true;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  bftlab::Result<RunReport> report = RunWorkload(o);
  if (!report.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  for (const Metric& m : report->metrics) {
    std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    out << report->spans_json << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", spans_path.c_str());
  }
  std::string line = ReportJson(*report);
  std::string error;
  if (!bftlab::JsonWellFormed(line, &error)) {
    std::fprintf(stderr, "perfbench: result line is not JSON: %s\n",
                 error.c_str());
    return 1;
  }
  std::printf("%s\n", line.c_str());
  return 0;
}
