// The benchmark's own tests. Run with `python3 perfbench/run.py --selftest`;
// runs every check and exits nonzero if any failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "chaos/linearizability.h"
#include "obs/export.h"
#include "perfbench.h"
#include "workload/generators.h"

namespace bftlab::perfbench {
namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void Spin(double seconds) {
  const double until = WallNow() + seconds;
  while (WallNow() < until) {
  }
}

// Self time is duration minus the part the children cover.
void SpanSelfTime() {
  SpanRecorder rec;
  int32_t root = rec.Open("root", 0);
  Spin(1e-4);
  int32_t a = rec.Open("child", 0);
  Spin(2e-4);
  int32_t grandchild = rec.Open("grandchild", 0);
  Spin(1e-4);
  rec.Close(grandchild);
  rec.Close(a);
  int32_t b = rec.Open("child", 0);
  Spin(1e-4);
  rec.Close(b);
  rec.Close(root);
  std::vector<double> self = rec.SelfTimes();
  auto dur = [&](int32_t i) { return rec.Duration(static_cast<size_t>(i)); };
  Check(std::fabs(self[root] - (dur(root) - dur(a) - dur(b))) < 1e-12,
        "span self time = duration - children (root)");
  Check(std::fabs(self[a] - (dur(a) - dur(grandchild))) < 1e-12,
        "span self time = duration - children (nested)");
  Check(self[grandchild] == dur(grandchild), "leaf span self time = duration");
  Check(rec.spans()[grandchild].parent == a && rec.spans()[a].parent == root,
        "span parents follow nesting");
  auto totals = rec.TotalsByName();
  Check(totals["child"].count == 2, "span totals group by name");
  std::string error;
  Check(JsonWellFormed(rec.Json(), &error), "span dump is JSON " + error);
}

void MetricNames() {
  Check(ValidMetricName("crypto.sha256_ns_64b") && ValidMetricName("setup_s"),
        "valid metric names accepted");
  Check(!ValidMetricName("") && !ValidMetricName("a b") &&
            !ValidMetricName("x/y") && !ValidMetricName("q\""),
        "invalid metric names rejected");
}

// RunCell follows RunExperiment: same digest, with and without the
// traced run's wrappers.
void Fidelity() {
  ExperimentConfig steady;
  steady.seed = 7;
  steady.duration_us = Seconds(1);
  steady.op_generator = ReadWriteMix(0.5, 1024);

  ExperimentConfig lin = steady;
  lin.check_linearizability = true;
  lin.op_generator = ChaosKvWorkload(4);

  Result<std::vector<ExperimentConfig>> chaos = WorkloadCells("chaos-kv", 3);
  Check(chaos.ok() && chaos->size() == 30, "chaos-kv has 30 cells");
  if (!chaos.ok()) return;

  for (const ExperimentConfig& cfg : {steady, lin, chaos->front()}) {
    Result<ExperimentResult> ref = RunExperiment(cfg);
    CellOutcome plain = RunCell(cfg, CellHooks{}, 0);
    LayerTimers timers;
    SpanRecorder spans;
    timers.spans = &spans;
    CellHooks traced_hooks;
    traced_hooks.spans = &spans;
    traced_hooks.timers = &timers;
    CellOutcome traced = RunCell(cfg, traced_hooks, 0);
    std::string name = cfg.protocol + (cfg.nemesis ? " chaos" : "") +
                       (cfg.check_linearizability ? " lin" : "");
    if (ref.ok()) {
      Check(plain.status.ok() && plain.digest == ref->Digest(),
            "RunCell digest == RunExperiment digest (" + name + ")");
    } else {
      Check(plain.status.ToString() == ref.status().ToString(),
            "RunCell verdict == RunExperiment verdict (" + name + ")");
    }
    Check(traced.digest == plain.digest &&
              traced.status.ToString() == plain.status.ToString(),
          "traced cell == untraced cell (" + name + ")");
    Check(timers.apply_calls > 0 && timers.gen_calls > 0,
          "smr and workload wrappers saw calls (" + name + ")");
  }
}

// fail_frac counts a cell the program rejects, next to a good one.
void FailureAccounting() {
  Result<std::vector<ExperimentConfig>> chaos = WorkloadCells("chaos-kv", 1);
  if (!chaos.ok()) {
    Check(false, "chaos-kv cells");
    return;
  }
  ExperimentConfig good = chaos->front();
  ExperimentConfig bad = good;
  bad.duration_us = bad.nemesis->gst_us;  // Invalid: must extend past GST.
  RunOptions o;
  o.seconds = 0;
  Result<RunReport> r = RunCells(o, {good, bad});
  Check(r.ok() && r->attempted == 2 && r->failed == 1,
        "fail_frac counts the invalid cell (1 of 2)");
  if (!r.ok()) return;
  std::string line = ReportJson(*r);
  std::string error;
  Check(JsonWellFormed(line, &error), "result line is JSON " + error);
}

// Both run modes print well-formed, validly named metrics.
void Outputs() {
  for (bool trace : {false, true}) {
    RunOptions o;
    o.workload = "pbft-steady";
    o.seed = 11;
    o.seconds = 0;
    o.trace = trace;
    Result<RunReport> r = RunWorkload(o);
    Check(r.ok() && r->correct, std::string("pbft-steady runs, trace=") +
                                    (trace ? "1" : "0"));
    if (!r.ok()) continue;
    bool names = !r->metrics.empty();
    for (const Metric& m : r->metrics) names = names && ValidMetricName(m.name);
    Check(names, "every metric name matches [A-Za-z0-9_.-]+");
    std::string error;
    Check(JsonWellFormed(ReportJson(*r), &error), "output is JSON " + error);
    Check(!trace || JsonWellFormed(r->spans_json, &error),
          "span dump is JSON " + error);
  }
}

}  // namespace
}  // namespace bftlab::perfbench

int main() {
  using namespace bftlab::perfbench;
  SpanSelfTime();
  MetricNames();
  FailureAccounting();
  Fidelity();
  Outputs();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
