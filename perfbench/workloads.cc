// The five workloads, the measurement loop and the metric definitions
// (README.md lists every metric with its base and the end-to-end metric
// each layer metric should move).

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <set>

#include "chaos/linearizability.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "workload/generators.h"
#include "workload/ycsb.h"

namespace bftlab::perfbench {
namespace {

// Seed salts: every seed of a run is DeriveSeed(--seed, salt [+ index]).
constexpr uint64_t kSaltCluster = 100;
constexpr uint64_t kSaltNemesis = 200;
constexpr uint64_t kSaltExplore = 300;
constexpr uint64_t kSaltCalibration = 400;
constexpr uint64_t kSaltTracerProbe = 500;

// Run lengths are part of the workloads: pbft-growing's snapshots grow
// with the run, so its numbers depend on the length.
constexpr SimTime kSteadyDuration = Seconds(10);
constexpr SimTime kGrowingDuration = Seconds(20);
constexpr SimTime kScaleDuration = Millis(400);
constexpr SimTime kTracerProbeDuration = Seconds(2);
constexpr uint64_t kWalksPerPass = 300;
// Fault schedules per chaos-kv (protocol, profile) pair.
constexpr int kChaosSchedules = 2;
// Set-up-only repetitions so setup_s is a median of at least this many.
constexpr size_t kMinSetupSamples = 25;

ExperimentConfig PbftCell(uint64_t seed, SimTime duration, OpGenerator gen) {
  ExperimentConfig c;
  c.protocol = "pbft";
  c.f = 1;
  c.num_clients = 4;
  c.seed = seed;
  c.duration_us = duration;
  c.op_generator = std::move(gen);
  return c;
}

std::vector<ExperimentConfig> ScaleCells(uint64_t seed) {
  std::vector<ExperimentConfig> cells;
  uint64_t i = 0;
  for (const char* protocol : {"pbft", "hotstuff", "kauri"}) {
    ExperimentConfig c;
    c.protocol = protocol;
    c.f = 1;
    c.n_override = 256;
    c.num_clients = 4;
    c.seed = DeriveSeed(seed, kSaltCluster + i++);
    c.duration_us = kScaleDuration;
    // As in X24: one commit takes tens of virtual ms at this size, so a
    // 300 ms view-change timeout would churn leaders on a healthy cluster.
    c.view_change_timeout_us = Seconds(4);
    cells.push_back(c);
  }
  return cells;
}

std::vector<ExperimentConfig> ChaosCells(uint64_t seed) {
  std::vector<ExperimentConfig> cells;
  for (const char* protocol : {"pbft", "poe", "minbft", "zyzzyva", "hotstuff"}) {
    for (NemesisProfile profile :
         {NemesisProfile::kLight, NemesisProfile::kCrashHeavy,
          NemesisProfile::kPartitionHeavy}) {
      for (int rep = 0; rep < kChaosSchedules; ++rep) {
        // X18's chaos cell, with YCSB-A over a Zipf-skewed key population.
        const uint64_t i = cells.size();
        ExperimentConfig c;
        c.protocol = protocol;
        c.num_clients = 3;
        c.seed = DeriveSeed(seed, kSaltCluster + i);
        c.cost_model = CryptoCostModel::Free();
        c.checkpoint_interval = 32;
        c.view_change_timeout_us = Millis(300);
        c.client_retransmit_us = Millis(200);
        c.client_backoff = 1.5;
        c.client_retransmit_cap_us = Seconds(2);
        c.op_generator = YcsbA(256, 0.99);
        NemesisSpec spec;
        spec.profile = profile;
        spec.seed = DeriveSeed(seed, kSaltNemesis + i);
        spec.start_us = Millis(300);
        spec.gst_us = Seconds(3);
        c.nemesis = spec;
        c.duration_us = Seconds(7);
        c.recovery_bound_us = Seconds(3);
        cells.push_back(c);
      }
    }
  }
  return cells;
}

ExploreConfig ExploreCell(uint64_t seed) {
  // X21's walk configuration: PBFT n=4, one client, two requests,
  // linearizability checked after every event.
  ExploreConfig c;
  c.protocol = "pbft";
  c.f = 1;
  c.num_clients = 1;
  c.seed = DeriveSeed(seed, kSaltExplore);
  c.max_requests = 2;
  c.batch_size = 1;
  c.checkpoint_interval = 2;
  c.walks = kWalksPerPass;
  c.check_linearizability = true;
  c.minimize = false;
  return c;
}

/// Same commit history, event count, counters and verdict.
bool SameOutcome(const CellOutcome& a, const CellOutcome& b,
                 std::string* why) {
  if (a.status.ToString() != b.status.ToString()) {
    *why = "verdict '" + a.status.ToString() + "' vs '" +
           b.status.ToString() + "'";
  } else if (a.result.commit_chain != b.result.commit_chain) {
    *why = "commit history differs";
  } else if (a.result.sim_events != b.result.sim_events) {
    *why = "event count " + std::to_string(a.result.sim_events) + " vs " +
           std::to_string(b.result.sim_events);
  } else if (a.result.counters != b.result.counters) {
    *why = "counters differ";
  } else if (a.digest != b.digest) {
    *why = "result digest differs";
  } else {
    return true;
  }
  return false;
}

/// One timed pass over a workload's whole work list.
struct Pass {
  double wall_s = 0;
  double sim_cpu_s = 0;
  double setup_s = 0;
};

Pass RunCellsPass(const std::vector<ExperimentConfig>& cells,
                  const CellHooks& hooks, std::vector<CellOutcome>* out) {
  Pass p;
  const double t0 = WallNow();
  out->clear();
  for (size_t i = 0; i < cells.size(); ++i) {
    out->push_back(RunCell(cells[i], hooks, static_cast<uint32_t>(i)));
    p.sim_cpu_s += out->back().sim_cpu_s;
    p.setup_s += out->back().setup_s;
  }
  p.wall_s = WallNow() - t0;
  return p;
}

double SetupOnly(const std::vector<ExperimentConfig>& cells) {
  CellHooks hooks;
  hooks.setup_only = true;
  double total = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    total += RunCell(cells[i], hooks, static_cast<uint32_t>(i)).setup_s;
  }
  return total;
}

double SafeDiv(double a, double b) { return b > 0 ? a / b : 0; }

void PrintCells(const std::vector<CellOutcome>& cells) {
  for (const CellOutcome& c : cells) {
    auto counter = [&](const char* name) -> uint64_t {
      auto it = c.result.counters.find(name);
      return it == c.result.counters.end() ? 0 : it->second;
    };
    std::printf("cell %u %s: %s commits=%" PRIu64 " events=%" PRIu64
                " peak_live=%" PRIu64 " peak_inbox=%" PRIu64
                " window_tput=%.1f/s p50=%.3fms p99=%.3fms recovery=%.3fms"
                " setup=%.6fs sim_cpu=%.4fs oracles=%.4fs wall=%.4fs\n",
                c.id, c.label.c_str(), c.status.ok() ? "ok" : "FAILED",
                c.result.commits, c.result.sim_events,
                counter("sim.peak_live_events"),
                counter("net.peak_inbox_packets"),
                SafeDiv(static_cast<double>(c.window_commits), c.window_s),
                Percentile(c.latencies_ms, 50), Percentile(c.latencies_ms, 99),
                c.recovery_ms, c.setup_s, c.sim_cpu_s,
                c.oracle_s, c.wall_s);
  }
}

/// The sim_* metrics and failure accounting of one pass's outcomes.
struct Virtual {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> tputs_rps;  // Per cell.
  std::vector<double> latencies_ms;
  std::vector<double> recoveries_ms;
};

Virtual Summarize(const std::vector<CellOutcome>& cells) {
  Virtual v;
  for (const CellOutcome& c : cells) {
    ++v.attempted;
    if (!c.status.ok()) {
      ++v.failed;
      // Linearizability messages list the whole key history; keep a line.
      std::string message = c.status.ToString();
      if (message.size() > 400) {
        message = message.substr(0, 400) + "... (" +
                  std::to_string(message.size() - 400) + " more chars)";
      }
      std::printf("FAILED cell %u %s: %s\n", c.id, c.label.c_str(),
                  message.c_str());
    }
    // Every simulated cell counts, failed or not, so the population the
    // sim_* metrics describe does not shift with the verdicts.
    if (c.result.sim_events == 0) continue;
    v.tputs_rps.push_back(
        SafeDiv(static_cast<double>(c.window_commits), c.window_s));
    v.latencies_ms.insert(v.latencies_ms.end(), c.latencies_ms.begin(),
                          c.latencies_ms.end());
    if (c.has_recovery) v.recoveries_ms.push_back(c.recovery_ms);
  }
  return v;
}

void AddVirtualMetrics(const Virtual& v, std::vector<Metric>* m) {
  // Median over cells: chaos cells are bimodal (a cell that stalls after
  // GST serves a few requests per second), and a sum would follow how
  // many of them a seed draws.
  m->push_back({"sim_tput_rps", Median(v.tputs_rps), "1/s"});
  m->push_back({"sim_p50_ms", Percentile(v.latencies_ms, 50), "ms"});
  m->push_back({"sim_p99_ms", Percentile(v.latencies_ms, 99), "ms"});
  std::printf("sim latency samples: %zu committed requests; throughput "
              "samples: %zu cells\n",
              v.latencies_ms.size(), v.tputs_rps.size());
  std::printf("sim_recovery_ms = %.3f ms (median over %zu cells; GST = 0 "
              "without a Nemesis)\n",
              Median(v.recoveries_ms), v.recoveries_ms.size());
}

/// End-to-end host metrics. On a shared machine the spread of repeated
/// identical work comes from other load, so each unit of work (a cell, or
/// a walk pass) counts with its fastest repetition in the run.
void AddHostMetrics(double best_wall_s, double best_sim_cpu_s, uint64_t events,
                    uint64_t schedules, std::vector<double> setup_samples,
                    std::vector<Metric>* m) {
  std::printf("set-up samples: %zu; fastest repetitions: %.4f s wall, "
              "%.4f s simulation CPU for %" PRIu64 " events, %" PRIu64
              " schedules\n",
              setup_samples.size(), best_wall_s, best_sim_cpu_s, events,
              schedules);
  m->push_back({"setup_s", Median(std::move(setup_samples)), "s"});
  m->push_back({"wall_s", best_wall_s, "s"});
  m->push_back({"events_per_s",
                best_sim_cpu_s > 0 ? static_cast<double>(events) / best_sim_cpu_s
                                   : 0,
                "1/s"});
  m->push_back({"schedules_per_s",
                best_wall_s > 0 ? static_cast<double>(schedules) / best_wall_s
                                : 0,
                "1/s"});
  m->push_back({"peak_rss_mib", PeakRssMib(), "MiB"});
}

/// Completed view changes, over the protocols that count them.
uint64_t ViewChanges(const ExperimentResult& r) {
  static const std::string kSuffix = ".view_changes_completed";
  uint64_t total = 0;
  for (const auto& [name, value] : r.counters) {
    if (name.size() > kSuffix.size() &&
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) == 0) {
      total += value;
    }
  }
  return total;
}

/// Per-layer metrics shared by both workload kinds.
struct LayerInputs {
  uint64_t events = 0;
  uint64_t peak_live_events = 0;
  double late_early_ratio = 0;
  double late_ns = 0, early_ns = 0;
  uint64_t msgs = 0;
  double kib = 0;
  uint64_t commits = 0;
  uint64_t peak_inbox = 0;
  LayerTimers timers;
  double smr_base_s = 0;  // Host time of the runs the smr wrapper covered.
  double check_agreement_s = 0, check_state_machines_s = 0,
         check_checkpoints_s = 0;
  uint64_t view_changes = 0, state_transfers = 0, checkpoints = 0;
  double lin_s = 0;
  uint64_t lin_ops = 0;
  std::vector<double> recoveries_ms;
  double events_per_schedule = 0, distinct_frac = 0;
  uint64_t pruned = 0, schedules = 0;
  std::vector<double> setup_s, digest_s;
  double untraced_wall_s = 0, traced_wall_s = 0;
};

void AccumulateCell(const CellOutcome& c, LayerInputs* in) {
  in->events += c.result.sim_events;
  auto counter = [&](const char* name) -> uint64_t {
    auto it = c.result.counters.find(name);
    return it == c.result.counters.end() ? 0 : it->second;
  };
  in->peak_live_events =
      std::max(in->peak_live_events, counter("sim.peak_live_events"));
  in->peak_inbox = std::max(in->peak_inbox, counter("net.peak_inbox_packets"));
  in->msgs += static_cast<uint64_t>(c.result.msgs_per_commit *
                                    static_cast<double>(c.result.commits));
  in->kib += c.result.kib_per_commit * static_cast<double>(c.result.commits);
  in->commits += c.result.commits;
  in->view_changes += ViewChanges(c.result);
  in->state_transfers += counter("replica.state_transfers_completed");
  in->checkpoints += counter("replica.checkpoints_stable");
  if (c.status.ok()) in->digest_s.push_back(c.digest_s);
  if (c.has_recovery) in->recoveries_ms.push_back(c.recovery_ms);
}

void AccumulateOracles(const CellOutcome& c, LayerInputs* in) {
  in->check_agreement_s += c.check_agreement_s;
  in->check_state_machines_s += c.check_state_machines_s;
  in->check_checkpoints_s += c.check_checkpoints_s;
  in->lin_s += c.lin_s;
  in->lin_ops += c.lin_ops;
}

/// obs: the program's own Tracer attached to a short pbft-steady cell
/// against the same cell without it (medians of alternating repeats).
struct TracerProbe {
  double overhead_frac = 0;
  double trace_events_per_event = 0;
  double plain_cpu_s = 0, traced_cpu_s = 0;
  bool same_result = true;
};

TracerProbe ProbeTracer(uint64_t seed) {
  ExperimentConfig cfg = PbftCell(DeriveSeed(seed, kSaltTracerProbe),
                                  kTracerProbeDuration, ReadWriteMix(0.5, 1024));
  TracerProbe p;
  std::vector<double> plain, traced;
  std::string plain_digest;
  for (int rep = 0; rep < 5; ++rep) {
    CellOutcome a = RunCell(cfg, CellHooks{}, 0);
    Tracer tracer;
    ExperimentConfig with = cfg;
    with.tracer = &tracer;
    CellOutcome b = RunCell(with, CellHooks{}, 0);
    plain.push_back(a.sim_cpu_s);
    traced.push_back(b.sim_cpu_s);
    std::string why;
    if (!SameOutcome(a, b, &why)) {
      p.same_result = false;
      std::printf("tracer probe: attaching the Tracer changed the run: %s\n",
                  why.c_str());
    }
    p.trace_events_per_event =
        SafeDiv(static_cast<double>(tracer.size()),
                static_cast<double>(b.result.sim_events));
  }
  p.plain_cpu_s = Median(plain);
  p.traced_cpu_s = Median(traced);
  p.overhead_frac = SafeDiv(p.traced_cpu_s - p.plain_cpu_s, p.plain_cpu_s);
  return p;
}

std::vector<Metric> LayerMetrics(const LayerInputs& in, uint64_t seed,
                                 bool* correct) {
  std::vector<Metric> m;
  auto add = [&](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  const double queue_ns = CalibrateEventQueue(in.peak_live_events,
                                              DeriveSeed(seed, kSaltCalibration));
  const CryptoCalibration cc =
      CalibrateCrypto(DeriveSeed(seed, kSaltCalibration + 1));
  const TracerProbe probe = ProbeTracer(seed);
  const LayerTimers& t = in.timers;

  add("sim.events", static_cast<double>(in.events), "count");
  add("sim.peak_live_events", static_cast<double>(in.peak_live_events),
      "count");
  add("sim.queue_ns_per_event", queue_ns, "ns");
  add("sim.late_early_ratio", in.late_early_ratio, "ratio");
  add("net.msgs_per_commit",
      SafeDiv(static_cast<double>(in.msgs), static_cast<double>(in.commits)),
      "count");
  add("net.kib_per_commit", SafeDiv(in.kib, static_cast<double>(in.commits)),
      "KiB");
  add("net.peak_inbox_packets", static_cast<double>(in.peak_inbox), "count");
  add("crypto.sha256_ns_64b", cc.sha256_ns_64b, "ns");
  add("crypto.sha256_mib_per_s", cc.sha256_mib_per_s, "MiB/s");
  add("crypto.hmac_ns_64b", cc.hmac_ns_64b, "ns");
  add("crypto.sign_ns", cc.sign_ns, "ns");
  add("crypto.verify_ns", cc.verify_ns, "ns");
  add("crypto.mac_ns", cc.mac_ns, "ns");
  add("crypto.node_secret_ns", cc.node_secret_ns, "ns");
  add("smr.apply_ns", SafeDiv(t.apply_s * 1e9, static_cast<double>(t.apply_calls)),
      "ns");
  add("smr.apply_calls", static_cast<double>(t.apply_calls), "count");
  add("smr.snapshot_ms",
      SafeDiv(t.snapshot_s * 1e3, static_cast<double>(t.snapshot_calls)), "ms");
  add("smr.snapshot_kib",
      SafeDiv(static_cast<double>(t.snapshot_bytes) / 1024.0,
              static_cast<double>(t.snapshot_calls)),
      "KiB");
  add("smr.self_share", SafeDiv(t.SmrSeconds(), in.smr_base_s), "fraction");
  add("workload.gen_ns",
      SafeDiv(t.gen_s * 1e9, static_cast<double>(t.gen_calls)), "ns");
  add("protocols.check_agreement_s", in.check_agreement_s, "s");
  add("protocols.check_state_machines_s", in.check_state_machines_s, "s");
  add("protocols.check_checkpoints_s", in.check_checkpoints_s, "s");
  add("protocols.view_changes", static_cast<double>(in.view_changes), "count");
  add("protocols.state_transfers", static_cast<double>(in.state_transfers),
      "count");
  add("protocols.checkpoints", static_cast<double>(in.checkpoints), "count");
  add("chaos.lin_s", in.lin_s, "s");
  add("chaos.lin_ops", static_cast<double>(in.lin_ops), "count");
  add("chaos.recovery_ms", Median(in.recoveries_ms), "ms");
  add("explore.events_per_schedule", in.events_per_schedule, "count");
  add("explore.distinct_frac", in.distinct_frac, "fraction");
  add("explore.pruned", static_cast<double>(in.pruned), "count");
  add("explore.rebuild_ms", Median(in.setup_s) * 1e3, "ms");
  add("core.setup_ms", Median(in.setup_s) * 1e3, "ms");
  add("core.digest_ms", Median(in.digest_s) * 1e3, "ms");
  add("obs.tracer_overhead_frac", probe.overhead_frac, "fraction");
  add("obs.trace_events_per_event", probe.trace_events_per_event, "ratio");
  add("obs.span_overhead_frac",
      SafeDiv(in.traced_wall_s - in.untraced_wall_s, in.untraced_wall_s),
      "fraction");

  // Bases of every ratio.
  std::printf("base sim.late_early_ratio: %.1f ns/event in the last tenth "
              "of virtual time / %.1f ns/event in the first tenth\n",
              in.late_ns, in.early_ns);
  std::printf("base sim.queue_ns_per_event: bare Simulator replay holding "
              "%" PRIu64 " pending events\n",
              std::max<uint64_t>(in.peak_live_events, 1));
  std::printf("base net.*_per_commit: %" PRIu64 " replica msgs, %.1f KiB over "
              "%" PRIu64 " commits\n",
              in.msgs, in.kib, in.commits);
  std::printf("base smr.self_share: %.4f s in the state machine / %.4f s of "
              "traced simulation in the cells it wraps (%" PRIu64
              " apply, %" PRIu64 " read-only, %" PRIu64 " snapshot, %" PRIu64
              " digest, %" PRIu64 " trim calls)\n",
              t.SmrSeconds(), in.smr_base_s, t.apply_calls, t.read_only_calls,
              t.snapshot_calls, t.digest_calls, t.trim_calls);
  std::printf("base workload.gen_ns: %.4f s over %" PRIu64 " calls\n", t.gen_s,
              t.gen_calls);
  std::printf("base explore.distinct_frac: over %" PRIu64 " schedules\n",
              in.schedules);
  std::printf("base obs.tracer_overhead_frac: %.4f s traced vs %.4f s plain "
              "thread CPU in simulation (pbft-steady probe, %.1f s virtual)\n",
              probe.traced_cpu_s, probe.plain_cpu_s,
              static_cast<double>(kTracerProbeDuration) / 1e6);
  std::printf("base obs.span_overhead_frac: %.4f s traced vs %.4f s "
              "untraced\n",
              in.traced_wall_s, in.untraced_wall_s);
  if (!probe.same_result) *correct = false;
  return m;
}

/// Host ns per event in the last tenth of each cell's virtual-time slices
/// against the first tenth, summed over cells.
/// Where the traced run's host time went, by span name.
void PrintSpanTotals(const SpanRecorder& spans) {
  std::printf("%-36s %9s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, t] : spans.TotalsByName()) {
    std::printf("%-36s %9" PRIu64 " %12.6f %12.6f\n", name.c_str(), t.count,
                t.total_s, t.self_s);
  }
}

double LateEarly(const std::vector<CellOutcome>& cells, double* late_ns,
                 double* early_ns) {
  double early_cpu = 0, late_cpu = 0;
  uint64_t early_ev = 0, late_ev = 0;
  for (const CellOutcome& c : cells) {
    const size_t k = c.slice_cpu_s.size();
    const size_t tenth = (k + 9) / 10;
    for (size_t i = 0; i < tenth && i < k; ++i) {
      early_cpu += c.slice_cpu_s[i];
      early_ev += c.slice_events[i];
      late_cpu += c.slice_cpu_s[k - 1 - i];
      late_ev += c.slice_events[k - 1 - i];
    }
  }
  *early_ns = SafeDiv(early_cpu * 1e9, static_cast<double>(early_ev));
  *late_ns = SafeDiv(late_cpu * 1e9, static_cast<double>(late_ev));
  return SafeDiv(*late_ns, *early_ns);
}

}  // namespace

Result<RunReport> RunCells(const RunOptions& o,
                           const std::vector<ExperimentConfig>& cells) {
  RunReport report;
  std::vector<CellOutcome> reference;

  if (!o.trace) {
    const double t0 = WallNow();
    std::vector<double> setup_samples, best_wall, best_cpu;
    Pass pass = RunCellsPass(cells, CellHooks{}, &reference);
    PrintCells(reference);
    uint64_t events = 0;
    for (const CellOutcome& c : reference) {
      best_wall.push_back(c.wall_s);
      best_cpu.push_back(c.sim_cpu_s);
      events += c.result.sim_events;
    }
    std::vector<CellOutcome> again;
    for (size_t n = 1;; ++n) {
      std::printf("pass %zu: wall=%.4fs simulation cpu=%.4fs\n", n - 1,
                  pass.wall_s, pass.sim_cpu_s);
      setup_samples.push_back(pass.setup_s);
      if (WallNow() - t0 >= o.seconds) break;
      pass = RunCellsPass(cells, CellHooks{}, &again);
      for (size_t i = 0; i < cells.size(); ++i) {
        std::string why;
        if (!SameOutcome(reference[i], again[i], &why)) {
          report.correct = false;
          std::printf("NONDETERMINISM cell %zu %s: %s\n", i,
                      reference[i].label.c_str(), why.c_str());
        }
        best_wall[i] = std::min(best_wall[i], again[i].wall_s);
        best_cpu[i] = std::min(best_cpu[i], again[i].sim_cpu_s);
      }
    }
    while (setup_samples.size() < kMinSetupSamples) {
      setup_samples.push_back(SetupOnly(cells));
    }
    double wall = 0, cpu = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
      wall += best_wall[i];
      cpu += best_cpu[i];
    }
    AddHostMetrics(wall, cpu, events, cells.size(), setup_samples,
                   &report.metrics);
    Virtual v = Summarize(reference);
    report.attempted = v.attempted;
    report.failed = v.failed;
    AddVirtualMetrics(v, &report.metrics);
    return report;
  }

  // Traced run: the cells untraced, with spans and the smr/workload
  // wrappers, then untraced again; all three must produce the same
  // outcomes. Each cell's untraced figures come from its faster untraced
  // repetition, so a warm-up effect does not land on one side.
  LayerInputs in;
  std::vector<CellOutcome> second, traced;
  RunCellsPass(cells, CellHooks{}, &reference);
  PrintCells(reference);
  SpanRecorder spans;
  CellHooks hooks;
  hooks.spans = &spans;
  hooks.timers = &in.timers;
  in.timers.spans = &spans;
  RunCellsPass(cells, hooks, &traced);
  RunCellsPass(cells, CellHooks{}, &second);
  std::vector<CellOutcome> fastest;
  std::set<std::string> chains;
  for (size_t i = 0; i < cells.size(); ++i) {
    std::string why;
    if (!SameOutcome(reference[i], traced[i], &why) ||
        !SameOutcome(reference[i], second[i], &why)) {
      report.correct = false;
      std::printf("TRACED/UNTRACED MISMATCH cell %zu %s: %s\n", i,
                  reference[i].label.c_str(), why.c_str());
    }
    fastest.push_back(second[i].wall_s < reference[i].wall_s ? second[i]
                                                             : reference[i]);
    AccumulateCell(fastest.back(), &in);
    AccumulateOracles(traced[i], &in);
    if (cells[i].protocol == "pbft") in.smr_base_s += traced[i].sim_wall_s;
    chains.insert(reference[i].result.commit_chain);
    in.untraced_wall_s += fastest.back().wall_s;
    in.traced_wall_s += traced[i].wall_s;
  }
  for (size_t k = 0; k < kMinSetupSamples; ++k) {
    in.setup_s.push_back(SetupOnly(cells) / static_cast<double>(cells.size()));
  }
  Virtual v = Summarize(reference);
  report.attempted = v.attempted;
  report.failed = v.failed;
  in.late_early_ratio = LateEarly(fastest, &in.late_ns, &in.early_ns);
  in.schedules = cells.size();
  in.events_per_schedule = SafeDiv(static_cast<double>(in.events),
                                   static_cast<double>(cells.size()));
  in.distinct_frac = SafeDiv(static_cast<double>(chains.size()),
                             static_cast<double>(cells.size()));
  PrintSpanTotals(spans);
  report.metrics = LayerMetrics(in, o.seed, &report.correct);
  report.spans_json = spans.Json();
  return report;
}

namespace {

Result<RunReport> RunExploreWorkload(const RunOptions& o) {
  RunReport report;
  const ExploreConfig cfg = ExploreCell(o.seed);

  auto walk_pass = [&](const ExploreConfig& c, ExploreReport* rep) -> Result<Pass> {
    Pass p;
    const double w0 = WallNow(), c0 = ThreadCpuNow();
    Result<ExploreReport> r = ExploreRandomWalks(c);
    p.sim_cpu_s = ThreadCpuNow() - c0;
    p.wall_s = WallNow() - w0;
    if (!r.ok()) return r.status();
    *rep = *r;
    return p;
  };
  auto count_walks = [&](const ExploreReport& r) {
    report.attempted = r.stats.schedules;
    report.failed = r.violation_found ? 1 : 0;
    if (r.violation_found) {
      std::printf("FAILED schedule (pbft walks seed=%" PRIu64 "): %s: %s\n",
                  cfg.seed, r.counterexample.oracle.c_str(),
                  r.counterexample.detail.c_str());
    }
  };
  auto same_walks = [](const ExploreReport& a, const ExploreReport& b) {
    return a.decision_hash == b.decision_hash &&
           a.outcome_hash == b.outcome_hash &&
           a.stats.schedules == b.stats.schedules &&
           a.stats.events == b.stats.events &&
           a.stats.distinct_schedules == b.stats.distinct_schedules &&
           a.stats.distinct_states == b.stats.distinct_states &&
           a.violation_found == b.violation_found;
  };

  if (!o.trace) {
    const double t0 = WallNow();
    ExploreReport first, again;
    Result<Pass> p = walk_pass(cfg, &first);
    if (!p.ok()) return p.status();
    double best_wall = p->wall_s, best_cpu = p->sim_cpu_s;
    for (size_t n = 1;; ++n) {
      std::printf("pass %zu: wall=%.4fs simulation cpu=%.4fs\n", n - 1,
                  p->wall_s, p->sim_cpu_s);
      best_wall = std::min(best_wall, p->wall_s);
      best_cpu = std::min(best_cpu, p->sim_cpu_s);
      if (WallNow() - t0 >= o.seconds) break;
      p = walk_pass(cfg, &again);
      if (!p.ok()) return p.status();
      if (!same_walks(first, again)) {
        report.correct = false;
        std::printf("NONDETERMINISM: repeated walks explored differently\n");
      }
    }
    std::vector<double> setup_samples;
    CellHooks setup;
    setup.setup_only = true;
    while (setup_samples.size() < kMinSetupSamples) {
      setup_samples.push_back(RunExploredDefault(cfg, setup, 0).setup_s);
    }
    AddHostMetrics(best_wall, best_cpu, first.stats.events,
                   first.stats.schedules, setup_samples, &report.metrics);
    count_walks(first);
    // The sim_* metrics come from the explored config's default schedule.
    CellOutcome def = RunExploredDefault(cfg, CellHooks{}, 0);
    Virtual v = Summarize({def});
    report.failed += v.failed;
    report.attempted += 1;
    AddVirtualMetrics(v, &report.metrics);
    return report;
  }

  LayerInputs in;
  ExploreReport plain, traced;
  Result<Pass> up = walk_pass(cfg, &plain);
  if (!up.ok()) return up.status();
  SpanRecorder spans;
  in.timers.spans = &spans;
  ExploreConfig instrumented = cfg;
  instrumented.replica_factory_override = InstrumentedPbftFactory(&in.timers);
  Result<Pass> tp = [&] {
    SpanScope s(&spans, "explore.random_walks", 0);
    return walk_pass(instrumented, &traced);
  }();
  if (!tp.ok()) return tp.status();
  ExploreReport again;
  Result<Pass> up2 = walk_pass(cfg, &again);
  if (!up2.ok()) return up2.status();
  if (!same_walks(plain, traced) || !same_walks(plain, again)) {
    report.correct = false;
    std::printf("TRACED/UNTRACED MISMATCH: instrumented walks explored "
                "differently\n");
  }
  count_walks(plain);
  in.smr_base_s = tp->wall_s;

  CellHooks hooks;
  hooks.spans = &spans;
  hooks.timers = &in.timers;
  CellOutcome def_plain = RunExploredDefault(cfg, CellHooks{}, 1);
  CellOutcome def = RunExploredDefault(cfg, hooks, 1);
  std::string why;
  if (!SameOutcome(def_plain, def, &why)) {
    report.correct = false;
    std::printf("TRACED/UNTRACED MISMATCH default schedule: %s\n", why.c_str());
  }
  in.smr_base_s += def.sim_wall_s;
  Virtual v = Summarize({def_plain});
  report.failed += v.failed;
  report.attempted += 1;
  AccumulateCell(def_plain, &in);
  AccumulateOracles(def, &in);
  CellHooks setup;
  setup.setup_only = true;
  for (size_t i = 0; i < kMinSetupSamples; ++i) {
    in.setup_s.push_back(RunExploredDefault(cfg, setup, 0).setup_s);
  }
  in.events = plain.stats.events;
  in.schedules = plain.stats.schedules;
  in.events_per_schedule = SafeDiv(static_cast<double>(plain.stats.events),
                                   static_cast<double>(plain.stats.schedules));
  in.distinct_frac =
      SafeDiv(static_cast<double>(plain.stats.distinct_schedules),
              static_cast<double>(plain.stats.schedules));
  in.pruned = plain.stats.pruned;
  in.late_early_ratio = LateEarly({def_plain}, &in.late_ns, &in.early_ns);
  in.untraced_wall_s = std::min(up->wall_s, up2->wall_s);
  in.traced_wall_s = tp->wall_s;
  PrintSpanTotals(spans);
  report.metrics = LayerMetrics(in, o.seed, &report.correct);
  report.spans_json = spans.Json();
  return report;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"pbft-steady", "pbft-growing", "scale-n256", "chaos-kv",
          "explore-walks"};
}

Result<std::vector<ExperimentConfig>> WorkloadCells(const std::string& name,
                                                    uint64_t seed) {
  if (name == "pbft-steady") {
    return std::vector<ExperimentConfig>{
        PbftCell(DeriveSeed(seed, kSaltCluster), kSteadyDuration,
                 ReadWriteMix(0.5, 1024))};
  }
  if (name == "pbft-growing") {
    return std::vector<ExperimentConfig>{
        PbftCell(DeriveSeed(seed, kSaltCluster), kGrowingDuration,
                 UniqueKeyPuts(64))};
  }
  if (name == "scale-n256") return ScaleCells(seed);
  if (name == "chaos-kv") return ChaosCells(seed);
  return Status::NotFound("no cell list for workload '" + name + "'");
}

Result<RunReport> RunWorkload(const RunOptions& options) {
  Result<RunReport> report = Status::NotFound("unknown workload '" +
                                              options.workload + "'");
  if (options.workload == "explore-walks") {
    report = RunExploreWorkload(options);
  } else {
    Result<std::vector<ExperimentConfig>> cells =
        WorkloadCells(options.workload, options.seed);
    if (!cells.ok()) return cells.status();
    report = RunCells(options, *cells);
  }
  if (!report.ok()) return report;
  std::printf("fail_frac = %" PRIu64 "/%" PRIu64 " = %.6f\n",
              report->failed, report->attempted,
              report->attempted > 0
                  ? static_cast<double>(report->failed) /
                        static_cast<double>(report->attempted)
                  : 0.0);
  for (const Metric& m : report->metrics) {
    if (!ValidMetricName(m.name) || !std::isfinite(m.value)) {
      std::printf("INVALID METRIC '%s' = %g\n", m.name.c_str(), m.value);
      report->correct = false;
    }
  }
  return report;
}

}  // namespace bftlab::perfbench
