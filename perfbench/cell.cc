// The cell runner (RunExperiment's steps, timed one by one) and the
// outside-in timing wrappers for the `smr` and `workload` layers.

#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "chaos/history.h"
#include "chaos/linearizability.h"
#include "crypto/sha256.h"
#include "perfbench.h"
#include "protocols/pbft/pbft_replica.h"
#include "smr/kv_state_machine.h"

namespace bftlab::perfbench {
namespace {

/// Adds the elapsed wall time of its lifetime to `*sink` (and, when the
/// timers carry a span recorder, records the interval as a span).
class TimedCall {
 public:
  TimedCall(LayerTimers* t, const char* name, double* sink)
      : span_(t->spans, name, t->cell), sink_(sink), t0_(WallNow()) {}
  ~TimedCall() { *sink_ += WallNow() - t0_; }
  TimedCall(const TimedCall&) = delete;
  TimedCall& operator=(const TimedCall&) = delete;

 private:
  SpanScope span_;
  double* sink_;
  double t0_;
};

/// StateMachine that delegates to a KvStateMachine and times the calls a
/// replica makes on its hot and checkpoint paths.
class TimedStateMachine : public StateMachine {
 public:
  explicit TimedStateMachine(LayerTimers* timers) : t_(timers) {}

  Result<Buffer> Apply(Slice operation) override {
    ++t_->apply_calls;
    TimedCall c(t_, "smr.apply", &t_->apply_s);
    return inner_.Apply(operation);
  }
  bool IsReadOnly(Slice operation) const override {
    return inner_.IsReadOnly(operation);
  }
  Result<Buffer> ExecuteReadOnly(Slice operation) const override {
    ++t_->read_only_calls;
    TimedCall c(t_, "smr.execute_read_only", &t_->read_only_s);
    return inner_.ExecuteReadOnly(operation);
  }
  uint64_t version() const override { return inner_.version(); }
  Digest StateDigest() const override {
    ++t_->digest_calls;
    TimedCall c(t_, "smr.state_digest", &t_->digest_s);
    return inner_.StateDigest();
  }
  Buffer Snapshot() const override {
    ++t_->snapshot_calls;
    TimedCall c(t_, "smr.snapshot", &t_->snapshot_s);
    Buffer snap = inner_.Snapshot();
    t_->snapshot_bytes += snap.size();
    return snap;
  }
  Status Restore(Slice snapshot) override { return inner_.Restore(snapshot); }
  Status Rollback(uint64_t count) override { return inner_.Rollback(count); }
  void TrimUndoHistory(uint64_t version) override {
    ++t_->trim_calls;
    TimedCall c(t_, "smr.trim_undo_history", &t_->trim_s);
    inner_.TrimUndoHistory(version);
  }

 private:
  LayerTimers* t_;
  KvStateMachine inner_;
};

/// Client-side observer of the measurement window [from_us, end): records
/// the virtual commit latency of each request invoked in it, counts the
/// commits in it and the first one, and forwards every event to the run's
/// History when there is one.
class LatencyTap : public HistoryRecorder {
 public:
  LatencyTap(History* forward, SimTime from_us)
      : forward_(forward), from_us_(from_us) {}

  void RecordInvoke(ClientId client, RequestTimestamp ts, Slice operation,
                    SimTime at) override {
    if (at >= from_us_) invoked_[Key(client, ts)] = at;
    if (forward_ != nullptr) forward_->RecordInvoke(client, ts, operation, at);
  }
  void RecordComplete(ClientId client, RequestTimestamp ts, Slice result,
                      SimTime at) override {
    auto it = invoked_.find(Key(client, ts));
    if (it != invoked_.end()) {
      latencies_ms_.push_back(static_cast<double>(at - it->second) / 1000.0);
      invoked_.erase(it);
    }
    if (at >= from_us_) {
      if (commits_ == 0) first_complete_ = at;
      ++commits_;
    }
    if (forward_ != nullptr) forward_->RecordComplete(client, ts, result, at);
  }

  /// Fills the outcome's window fields; `end_us` closes the window.
  void Fill(SimTime end_us, CellOutcome* out) {
    out->latencies_ms = std::move(latencies_ms_);
    out->window_commits = commits_;
    out->window_s = static_cast<double>(end_us - std::min(end_us, from_us_)) /
                    1e6;
    out->has_recovery = commits_ > 0;
    out->recovery_ms =
        commits_ > 0 ? static_cast<double>(first_complete_ - from_us_) / 1000.0
                     : 0;
  }

 private:
  static uint64_t Key(ClientId client, RequestTimestamp ts) {
    return (static_cast<uint64_t>(client) << 40) ^ ts;
  }
  History* forward_;
  SimTime from_us_;
  std::unordered_map<uint64_t, SimTime> invoked_;
  std::vector<double> latencies_ms_;
  uint64_t commits_ = 0;
  SimTime first_complete_ = 0;
};

/// Virtual-time slices of a cell's run; sim.late_early_ratio compares the
/// last tenth with the first.
constexpr uint32_t kSlices = 10;

/// Runs `fn` inside a span named `name`, adding its wall time to `*sink`.
template <typename Fn>
auto Timed(SpanRecorder* spans, const char* name, uint32_t cell, double* sink,
           Fn&& fn) {
  SpanScope s(spans, name, cell);
  const double t0 = WallNow();
  auto value = fn();
  *sink += WallNow() - t0;
  return value;
}

std::string CellLabel(const ExperimentConfig& config) {
  std::ostringstream os;
  os << config.protocol;
  if (config.nemesis) {
    os << "/" << NemesisProfileName(config.nemesis->profile)
       << " nemesis_seed=" << config.nemesis->seed;
  }
  os << " seed=" << config.seed;
  return os.str();
}

}  // namespace

ReplicaFactory InstrumentedPbftFactory(LayerTimers* timers) {
  return [timers](const ReplicaConfig& config) -> std::unique_ptr<Replica> {
    return std::make_unique<PbftReplica>(
        config, std::make_unique<TimedStateMachine>(timers));
  };
}

OpGenerator InstrumentedGenerator(OpGenerator inner, LayerTimers* timers) {
  // An empty generator means the client's default, as in Client.
  if (!inner) inner = DefaultOpGenerator();
  return [inner = std::move(inner), timers](ClientId client,
                                            RequestTimestamp ts, Rng* rng) {
    ++timers->gen_calls;
    TimedCall c(timers, "workload.gen", &timers->gen_s);
    return inner(client, ts, rng);
  };
}

CellOutcome RunCell(const ExperimentConfig& config, const CellHooks& hooks,
                    uint32_t id) {
  CellOutcome out;
  out.id = id;
  out.label = CellLabel(config);
  SpanRecorder* spans = hooks.spans;
  SpanScope cell_span(spans, "cell", id);
  const double cell_t0 = WallNow();

  // --- Set-up: everything before the first simulated event. ---------------
  const double setup_t0 = WallNow();
  std::optional<SpanScope> setup_span;
  setup_span.emplace(spans, "core.setup", id);
  Result<ProtocolBuild> build = GetProtocol(config.protocol, config.f);
  if (!build.ok()) {
    out.status = build.status();
    return out;
  }
  if (config.nemesis && config.duration_us <= config.nemesis->gst_us) {
    out.status = Status::InvalidArgument(
        "chaos runs must extend past GST (duration_us <= nemesis->gst_us)");
    return out;
  }
  if (config.adaptive || !config.crash_at.empty() ||
      !config.restart_at.empty() || !config.partitions.empty() ||
      !config.slow_windows.empty() || !config.op_phases.empty() ||
      !config.byzantine.empty() || config.auth_override ||
      !config.verify_trusted_ui) {
    out.status = Status::InvalidArgument(
        "perfbench cells use only the ExperimentConfig fields RunCell "
        "follows");
    return out;
  }

  ClusterConfig cc;
  cc.n = config.n_override != 0 ? config.n_override
                                : build->RecommendedN(config.f);
  cc.f = config.f;
  cc.num_clients = config.num_clients;
  cc.seed = config.seed;
  cc.net = config.net;
  cc.cost_model = config.cost_model;
  cc.replica.batch_size = config.batch_size;
  cc.replica.batch_timeout_us = config.batch_timeout_us;
  cc.replica.checkpoint_interval = config.checkpoint_interval;
  cc.replica.view_change_timeout_us = config.view_change_timeout_us;
  cc.replica.view_change_timeout_cap_us = config.view_change_timeout_cap_us;
  cc.replica.auth = build->descriptor.auth;
  cc.replica.verify_trusted_ui = config.verify_trusted_ui;
  cc.client.reply_quorum = build->ReplyQuorum(config.f);
  cc.client.submit_policy = build->submit_policy;
  cc.client.retransmit_timeout_us = config.client_retransmit_us;
  cc.client.retransmit_backoff = config.client_backoff;
  cc.client.retransmit_cap_us = config.client_retransmit_cap_us;
  cc.client.op_generator = config.op_generator;
  cc.tracer = config.tracer;

  // The traced run also records a history on fault-free cells, so the
  // linearizability checker's cost can be measured on every workload.
  const bool oracle_history =
      config.nemesis.has_value() || config.check_linearizability;
  History history;
  // The window opens at GST: pre-GST service under faults is what the
  // recovery figures and the oracles describe.
  LatencyTap tap(
      (oracle_history || hooks.timers != nullptr) ? &history : nullptr,
      config.nemesis ? config.nemesis->gst_us : 0);
  cc.client.history = &tap;
  if (config.nemesis) {
    Nemesis::ApplyNetworkDefaults(*config.nemesis, &cc.net);
    for (const auto& [rid, byz] :
         Nemesis::ByzantineOverrides(*config.nemesis, cc.n, cc.f)) {
      cc.byzantine.emplace(rid, byz);
    }
  }
  ReplicaFactory replica_factory = build->replica_factory;
  if (hooks.timers != nullptr) {
    hooks.timers->cell = id;
    if (config.protocol == "pbft") {
      replica_factory = InstrumentedPbftFactory(hooks.timers);
    }
    cc.client.op_generator =
        InstrumentedGenerator(cc.client.op_generator, hooks.timers);
  }

  Cluster cluster(std::move(cc), replica_factory, build->client_factory);
  cluster.Start();
  std::optional<Nemesis> nemesis;
  if (config.nemesis) {
    nemesis.emplace(&cluster, *config.nemesis);
    nemesis->Install();
  }
  setup_span.reset();
  out.setup_s = WallNow() - setup_t0;
  if (hooks.setup_only) return out;

  // --- Simulation, in equal virtual-time slices. ----------------------------
  {
    SpanScope sim_span(spans, "sim.run", id);
    const double wall0 = WallNow();
    for (uint32_t k = 1; k <= kSlices; ++k) {
      SpanScope slice_span(spans, "sim.run_until", id);
      const SimTime deadline = config.duration_us * k / kSlices;
      const uint64_t events0 = cluster.sim().events_processed();
      const double cpu0 = ThreadCpuNow();
      cluster.sim().RunUntil(deadline);
      out.slice_cpu_s.push_back(ThreadCpuNow() - cpu0);
      out.slice_events.push_back(cluster.sim().events_processed() - events0);
    }
    out.sim_wall_s = WallNow() - wall0;
    for (double s : out.slice_cpu_s) out.sim_cpu_s += s;
  }

  // --- The result, assembled exactly as RunExperiment does. -----------------
  MetricsCollector& m = cluster.metrics();
  ExperimentResult& r = out.result;
  r.protocol = config.protocol;
  r.n = cluster.config().n;
  r.f = config.f;
  r.commits = cluster.TotalAccepted();
  r.throughput_rps = static_cast<double>(r.commits) /
                     (static_cast<double>(config.duration_us) / 1e6);
  r.mean_latency_ms = m.commit_latency_us().Mean() / 1000.0;
  r.p50_latency_ms = m.commit_latency_us().Percentile(50) / 1000.0;
  r.p99_latency_ms = m.commit_latency_us().Percentile(99) / 1000.0;
  uint64_t replica_msgs = 0, replica_bytes = 0, leader_msgs = 0;
  for (ReplicaId rid = 0; rid < r.n; ++rid) {
    const NodeStats& s = m.node(rid);
    replica_msgs += s.msgs_sent;
    replica_bytes += s.bytes_sent;
    if (rid == 0) leader_msgs = s.msgs_sent;
  }
  if (r.commits > 0) {
    r.msgs_per_commit =
        static_cast<double>(replica_msgs) / static_cast<double>(r.commits);
    r.kib_per_commit = static_cast<double>(replica_bytes) /
                       static_cast<double>(r.commits) / 1024.0;
  }
  if (replica_msgs > 0) {
    r.leader_load_share =
        static_cast<double>(leader_msgs) / static_cast<double>(replica_msgs);
  }
  r.load_imbalance = m.MsgLoadImbalance();
  r.max_node_msgs = m.MaxNodeMsgLoad();
  r.order_inversion_fraction = m.OrderInversionFraction(Millis(1));
  r.sim_events = cluster.sim().events_processed();
  m.Increment("sim.peak_live_events", cluster.sim().peak_live_events());
  m.Increment("net.peak_inbox_packets",
              cluster.network().peak_inbox_packets());
  r.counters = m.counters();
  r.msgs_by_type = m.msgs_by_type();
  r.txn_commits = m.counter("txn.commits");
  r.txn_aborts = m.counter("txn.aborts");
  r.txn_rejects = m.counter("txn.rejects");
  {
    std::vector<ReplicaId> correct = cluster.CorrectReplicas();
    ReplicaId witness = correct.empty() ? 0 : correct.front();
    Sha256 h;
    for (const auto& [seq, digest] :
         cluster.replica(witness).finalized_digests()) {
      Encoder enc;
      enc.PutU64(seq);
      enc.PutRaw(digest.AsSlice());
      h.Update(enc.buffer());
    }
    r.commit_chain = h.Finalize().ToHex();
  }
  tap.Fill(config.duration_us, &out);

  // --- Oracles, in RunExperiment's order; the first violation ends the
  // cell. -------------------------------------------------------------------
  const bool ordered = build->descriptor.good_case_phases > 0;
  const double oracle_t0 = WallNow();
  auto timed = [&](const char* name, double* sink, auto&& fn) {
    return Timed(spans, name, id, sink, fn);
  };
  LinearizabilityReport lin;
  auto check_lin = [&]() -> Status {
    lin = timed("chaos.check_linearizability", &out.lin_s,
                [&] { return CheckLinearizability(history); });
    out.lin_ops += lin.ops_checked;
    if (!lin.ok) {
      return Status::Internal("LINEARIZABILITY VIOLATION: " + lin.violation);
    }
    return Status::Ok();
  };
  Status status = [&]() -> Status {
    SpanScope oracle_span(spans, "oracles", id);
    if (ordered) {
      Status s = timed("protocols.check_agreement", &out.check_agreement_s,
                       [&] { return cluster.CheckAgreement(); });
      if (!s.ok()) return s;
    }
    if (!nemesis && config.check_linearizability && ordered) {
      Status s = timed("protocols.check_state_machines",
                       &out.check_state_machines_s,
                       [&] { return cluster.CheckStateMachines(); });
      if (!s.ok()) return s;
      BFTLAB_RETURN_IF_ERROR(check_lin());
      r.counters["lin.ops_checked"] = lin.ops_checked;
      r.counters["lin.keys_checked"] = lin.keys_checked;
    }
    if (nemesis) {
      r.counters["chaos.schedule_hash"] = nemesis->ScheduleHash();
      r.faults_injected = m.counter("chaos.faults_injected");
      Status s = timed("protocols.check_state_machines",
                       &out.check_state_machines_s,
                       [&] { return cluster.CheckStateMachines(); });
      if (!s.ok()) return s;
      if (ordered) BFTLAB_RETURN_IF_ERROR(check_lin());
      SimTime gst = nemesis->last_fault_us();
      std::optional<SimTime> first = history.FirstCompletionAtOrAfter(gst);
      if (!first.has_value()) {
        std::ostringstream os;
        os << "RECOVERY FAILURE: no commits after GST (" << gst << "us) in "
           << config.duration_us << "us run";
        return Status::Internal(os.str());
      }
      r.recovery_us = *first - gst;
      if (r.recovery_us > config.recovery_bound_us) {
        std::ostringstream os;
        os << "RECOVERY FAILURE: first post-GST commit after "
           << r.recovery_us << "us exceeds bound "
           << config.recovery_bound_us << "us";
        return Status::Internal(os.str());
      }
      r.counters["chaos.recovery_us"] = r.recovery_us;
      r.counters["chaos.post_gst_commits"] = history.CompletedAtOrAfter(gst);
    }
    // The benchmark's additions: execution integrity where RunExperiment
    // skips it, and checkpoint consistency everywhere.
    if (!nemesis && !config.check_linearizability && ordered) {
      BFTLAB_RETURN_IF_ERROR(timed("protocols.check_state_machines",
                                   &out.check_state_machines_s,
                                   [&] { return cluster.CheckStateMachines(); }));
    }
    Status s = timed("protocols.check_checkpoints", &out.check_checkpoints_s,
                     [&] { return cluster.CheckCheckpoints(); });
    if (!s.ok()) return s;
    // Traced run only: the checker's cost on a fault-free history. A
    // violation here is a real one and fails the cell like any oracle.
    if (hooks.timers != nullptr && !oracle_history && ordered) {
      BFTLAB_RETURN_IF_ERROR(check_lin());
    }
    return Status::Ok();
  }();
  out.oracle_s = WallNow() - oracle_t0;
  out.status = status;

  if (status.ok()) {
    SpanScope digest_span(spans, "core.digest", id);
    const double t0 = WallNow();
    std::string json = r.Json();
    out.digest = r.Digest();
    out.digest_s = WallNow() - t0;
  }
  out.wall_s = WallNow() - cell_t0;
  return out;
}

CellOutcome RunExploredDefault(const ExploreConfig& cfg, const CellHooks& hooks,
                               uint32_t id) {
  CellOutcome out;
  out.id = id;
  out.label = cfg.protocol + " explored-config default schedule seed=" +
              std::to_string(cfg.seed);
  SpanRecorder* spans = hooks.spans;
  SpanScope cell_span(spans, "cell", id);
  const double cell_t0 = WallNow();

  // Set-up exactly as the explorer rebuilds its cluster for a schedule.
  std::optional<SpanScope> setup_span;
  setup_span.emplace(spans, "core.setup", id);
  Result<ProtocolBuild> build = GetProtocol(cfg.protocol, cfg.f);
  if (!build.ok()) {
    out.status = build.status();
    return out;
  }
  History history;
  LatencyTap tap(&history, 0);
  ClusterConfig cc;
  cc.n = cfg.n_override != 0 ? cfg.n_override : build->RecommendedN(cfg.f);
  cc.f = cfg.f;
  cc.num_clients = cfg.num_clients;
  cc.seed = cfg.seed;
  cc.net = cfg.net;
  cc.cost_model = CryptoCostModel::Free();
  cc.replica.batch_size = cfg.batch_size;
  cc.replica.checkpoint_interval = cfg.checkpoint_interval;
  cc.replica.view_change_timeout_us = cfg.view_change_timeout_us;
  cc.client.reply_quorum = build->ReplyQuorum(cfg.f);
  cc.client.submit_policy = build->submit_policy;
  cc.client.retransmit_timeout_us = cfg.client_retransmit_us;
  cc.client.max_requests = cfg.max_requests;
  cc.client.op_generator = ChaosKvWorkload(2);
  cc.client.history = &tap;
  cc.byzantine = cfg.byzantine;
  ReplicaFactory factory = cfg.replica_factory_override
                               ? cfg.replica_factory_override
                               : build->replica_factory;
  if (hooks.timers != nullptr) {
    hooks.timers->cell = id;
    if (cfg.protocol == "pbft") factory = InstrumentedPbftFactory(hooks.timers);
    cc.client.op_generator =
        InstrumentedGenerator(cc.client.op_generator, hooks.timers);
  }
  Cluster cluster(std::move(cc), factory, build->client_factory);
  cluster.sim().SetControlled(true);
  cluster.Start();
  setup_span.reset();
  out.setup_s = WallNow() - cell_t0;
  if (hooks.setup_only) return out;

  // The default schedule: controlled mode taking the default choice at
  // every decision point, until every client finished its requests.
  const uint64_t goal =
      static_cast<uint64_t>(cfg.num_clients) * cfg.max_requests;
  {
    SpanScope sim_span(spans, "sim.run", id);
    const double wall0 = WallNow();
    auto done = [&] { return cluster.TotalAccepted() >= goal; };
    for (SimTime deadline = Millis(1); !done() && deadline <= Seconds(10);
         deadline += Millis(1)) {
      SpanScope slice_span(spans, "sim.run_until", id);
      const uint64_t events0 = cluster.sim().events_processed();
      const double cpu0 = ThreadCpuNow();
      cluster.sim().RunUntilPredicate(done, deadline);
      out.slice_cpu_s.push_back(ThreadCpuNow() - cpu0);
      out.slice_events.push_back(cluster.sim().events_processed() - events0);
    }
    out.sim_wall_s = WallNow() - wall0;
    for (double s : out.slice_cpu_s) out.sim_cpu_s += s;
  }
  ExperimentResult& r = out.result;
  r.protocol = cfg.protocol;
  r.n = cluster.config().n;
  r.f = cfg.f;
  r.commits = cluster.TotalAccepted();
  const double virtual_s = static_cast<double>(cluster.sim().now()) / 1e6;
  r.throughput_rps =
      virtual_s > 0 ? static_cast<double>(r.commits) / virtual_s : 0;
  uint64_t replica_msgs = 0, replica_bytes = 0;
  for (ReplicaId rid = 0; rid < r.n; ++rid) {
    replica_msgs += cluster.metrics().node(rid).msgs_sent;
    replica_bytes += cluster.metrics().node(rid).bytes_sent;
  }
  if (r.commits > 0) {
    r.msgs_per_commit =
        static_cast<double>(replica_msgs) / static_cast<double>(r.commits);
    r.kib_per_commit = static_cast<double>(replica_bytes) /
                       static_cast<double>(r.commits) / 1024.0;
  }
  r.sim_events = cluster.sim().events_processed();
  cluster.metrics().Increment("sim.peak_live_events",
                              cluster.sim().peak_live_events());
  cluster.metrics().Increment("net.peak_inbox_packets",
                              cluster.network().peak_inbox_packets());
  r.counters = cluster.metrics().counters();
  tap.Fill(cluster.sim().now(), &out);

  // The explorer's invariants, once, at the end of the default schedule.
  const double oracle_t0 = WallNow();
  out.status = [&]() -> Status {
    SpanScope oracle_span(spans, "oracles", id);
    auto timed = [&](const char* name, double* sink, auto&& fn) {
      return Timed(spans, name, id, sink, fn);
    };
    if (r.commits < goal) {
      return Status::Internal("default schedule committed " +
                              std::to_string(r.commits) + " of " +
                              std::to_string(goal) + " requests");
    }
    BFTLAB_RETURN_IF_ERROR(timed("protocols.check_agreement",
                                 &out.check_agreement_s,
                                 [&] { return cluster.CheckAgreement(); }));
    BFTLAB_RETURN_IF_ERROR(timed("protocols.check_state_machines",
                                 &out.check_state_machines_s,
                                 [&] { return cluster.CheckStateMachines(); }));
    BFTLAB_RETURN_IF_ERROR(timed("protocols.check_checkpoints",
                                 &out.check_checkpoints_s,
                                 [&] { return cluster.CheckCheckpoints(); }));
    LinearizabilityReport lin =
        timed("chaos.check_linearizability", &out.lin_s,
              [&] { return CheckLinearizability(history); });
    out.lin_ops = lin.ops_checked;
    if (!lin.ok) {
      return Status::Internal("LINEARIZABILITY VIOLATION: " + lin.violation);
    }
    return Status::Ok();
  }();
  out.oracle_s = WallNow() - oracle_t0;
  if (out.status.ok()) {
    SpanScope digest_span(spans, "core.digest", id);
    const double t0 = WallNow();
    std::string json = r.Json();
    out.digest = r.Digest();
    out.digest_s = WallNow() - t0;
  }
  out.wall_s = WallNow() - cell_t0;
  return out;
}

}  // namespace bftlab::perfbench
