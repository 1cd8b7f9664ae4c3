// Layered host-time benchmark for bftlab (see README.md).
//
// The benchmark drives the simulator from outside: it owns a cell runner
// that follows RunExperiment step by step so each step can be timed
// (set-up, sliced RunUntil, each oracle, the result digest), spans around
// those calls for the traced run, timing wrappers for the state machine
// and the workload generator, and isolated calibrations for the layers
// whose host time cannot be split from outside (crypto, the event queue).

#ifndef BFTLAB_PERFBENCH_PERFBENCH_H_
#define BFTLAB_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "explore/explorer.h"

namespace bftlab::perfbench {

// --- Clocks ------------------------------------------------------------------

/// Host wall time (steady clock), seconds.
double WallNow();
/// Host CPU time of the calling thread, seconds.
double ThreadCpuNow();
/// Process peak resident set (VmHWM), MiB.
double PeakRssMib();

/// Seed derivation: splitmix64 of (seed, salt). Every cluster, Nemesis and
/// calibration seed of a run comes from the --seed argument through this.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100]. Empty input gives 0.
double Percentile(std::vector<double> values, double p);

// --- Spans -------------------------------------------------------------------

/// One host-time span recorded by the benchmark around a call into a layer.
struct Span {
  uint32_t name = 0;    // Index into SpanRecorder::names().
  int32_t parent = -1;  // Index of the enclosing span, -1 at the root.
  uint32_t cell = 0;    // Cell the span belongs to.
  double start_s = 0;   // WallNow() at open.
  double end_s = 0;     // WallNow() at close.
};

/// In-memory span log: spans are appended on open, closed in LIFO order
/// (all calls are synchronous on one thread), and written out at the end.
class SpanRecorder {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int32_t Open(const std::string& name, uint32_t cell);
  void Close(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  double Duration(size_t i) const {
    return spans_[i].end_s - spans_[i].start_s;
  }
  /// Duration minus the part of the interval its child spans cover.
  std::vector<double> SelfTimes() const;
  /// Summed duration and self time per span name.
  struct Totals {
    uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Totals> TotalsByName() const;
  /// All spans as one JSON array (name, start, end, parent, cell).
  std::string Json() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> name_ids_;
  std::vector<int32_t> open_;
};

/// RAII span scope; a null recorder makes it a no-op.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, const std::string& name, uint32_t cell)
      : rec_(rec), index_(rec != nullptr ? rec->Open(name, cell) : -1) {}
  ~SpanScope() {
    if (rec_ != nullptr) rec_->Close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t index_;
};

// --- Outside-in layer timing (traced run) -------------------------------------

/// Host time and work counts of the `smr` and `workload` layers, gathered
/// by the wrappers that InstrumentedPbftFactory and InstrumentedGenerator
/// install. Each timed call is also a span when `spans` is set.
struct LayerTimers {
  SpanRecorder* spans = nullptr;
  uint32_t cell = 0;
  uint64_t apply_calls = 0;
  double apply_s = 0;
  uint64_t read_only_calls = 0;
  double read_only_s = 0;
  uint64_t snapshot_calls = 0;
  double snapshot_s = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t digest_calls = 0;
  double digest_s = 0;
  uint64_t trim_calls = 0;
  double trim_s = 0;
  uint64_t gen_calls = 0;
  double gen_s = 0;

  /// Host seconds spent inside the state machine.
  double SmrSeconds() const {
    return apply_s + read_only_s + snapshot_s + digest_s + trim_s;
  }
};

/// Builds PbftReplica over a KvStateMachine wrapped in a timing delegate.
ReplicaFactory InstrumentedPbftFactory(LayerTimers* timers);
/// Wraps an OpGenerator so every call is timed.
OpGenerator InstrumentedGenerator(OpGenerator inner, LayerTimers* timers);

// --- Cells --------------------------------------------------------------------

/// One cell: one ExperimentConfig run by RunCell, which follows
/// RunExperiment's steps for the fields the benchmark uses (protocol, f,
/// n_override, clients, seed, duration, net, costs, batching, checkpoints,
/// timeouts, op_generator, nemesis, recovery bound, check_linearizability,
/// tracer) and rejects the others.
struct CellHooks {
  SpanRecorder* spans = nullptr;
  /// Non-null: PBFT cells get the instrumented factory and every cell the
  /// instrumented generator.
  LayerTimers* timers = nullptr;
  /// Stop after set-up (setup_s repetitions).
  bool setup_only = false;
};

struct CellOutcome {
  uint32_t id = 0;
  std::string label;  // protocol[/profile] seed=<cluster seed>
  Status status;      // Ok, or the oracle / configuration error.
  /// The result RunExperiment would return (valid when status is ok,
  /// and filled as far as the run got otherwise).
  ExperimentResult result;
  std::string digest;  // result.Digest(); empty on failure.

  double setup_s = 0;      // Lookup, config, Cluster, Start(), Nemesis.
  double sim_cpu_s = 0;    // Thread CPU inside RunUntil.
  double sim_wall_s = 0;
  double oracle_s = 0;     // Every Check* and the recovery oracle.
  double digest_s = 0;     // Json() + Digest().
  double wall_s = 0;       // Whole cell.
  std::vector<double> slice_cpu_s;     // Per equal virtual-time slice.
  std::vector<uint64_t> slice_events;  // Per virtual-time slice.

  double check_agreement_s = 0;
  double check_state_machines_s = 0;
  double check_checkpoints_s = 0;
  double lin_s = 0;
  uint64_t lin_ops = 0;

  // The virtual-time service window: from GST (0 without a Nemesis) to
  // the end of the run.
  /// Commit latencies (ms) of the requests invoked in the window.
  std::vector<double> latencies_ms;
  /// Requests accepted in the window, and its length.
  uint64_t window_commits = 0;
  double window_s = 0;
  /// Virtual ms from GST to the first commit.
  double recovery_ms = 0;
  bool has_recovery = false;
};

CellOutcome RunCell(const ExperimentConfig& config, const CellHooks& hooks,
                    uint32_t id);

/// The explored configuration's cluster, built the way the explorer
/// rebuilds it for every schedule, then run on its default schedule with
/// the explorer's invariants checked once. The default schedule runs in
/// 1 ms virtual-time slices.
CellOutcome RunExploredDefault(const ExploreConfig& config,
                               const CellHooks& hooks, uint32_t id);

// --- Calibrations ---------------------------------------------------------------

/// Crypto entry points, ns per call (median of repeated batches).
struct CryptoCalibration {
  double sha256_ns_64b = 0;
  double sha256_mib_per_s = 0;  // 1 MiB buffer.
  double hmac_ns_64b = 0;
  double sign_ns = 0;
  double verify_ns = 0;
  double mac_ns = 0;
  double node_secret_ns = 0;
};
CryptoCalibration CalibrateCrypto(uint64_t seed);

/// Bare Simulator Schedule/RunUntil replay holding `live_events` pending
/// events; ns per executed event (median of repeats).
double CalibrateEventQueue(uint64_t live_events, uint64_t seed);

// --- Workloads ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Spans of the traced run (empty when untraced).
  std::string spans_json;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::vector<std::string> WorkloadNames();
/// Runs one workload; prints human-readable lines (cells, failures,
/// sample counts, ratio bases) to stdout as it goes.
Result<RunReport> RunWorkload(const RunOptions& options);

/// The measurement loop over an explicit cell list (every workload but
/// explore-walks runs through it).
Result<RunReport> RunCells(const RunOptions& options,
                           const std::vector<ExperimentConfig>& cells);

/// Cells of a non-explore workload for a seed (exposed for the self-test).
Result<std::vector<ExperimentConfig>> WorkloadCells(const std::string& name,
                                                    uint64_t seed);

/// The last stdout line: {"correct","attempted","failed","metrics"}.
std::string ReportJson(const RunReport& report);
/// Metric names must match [A-Za-z0-9_.-]+.
bool ValidMetricName(const std::string& name);

}  // namespace bftlab::perfbench

#endif  // BFTLAB_PERFBENCH_PERFBENCH_H_
