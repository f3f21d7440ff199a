// The four benchmark workloads and the per-layer probes (README.md).
//
// A workload sets itself up (timed, several times; the median is setup_s),
// then runs operations back to back for a fixed host-clock budget (and at
// least kMinOps of them). Every operation's output is checked against a
// reference fixed before the timed phase, so a traced phase must reproduce
// the untraced cycle totals exactly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/cnn_predictor.h"
#include "trace/trace.h"

namespace perfbench {

/// What one timed phase did, on the host clock.
struct Phase {
  Clock::time_point start = Clock::now();
  double wall_s = 0.0;
  std::uint64_t instructions = 0;  // simulated trace instructions completed
  std::vector<double> latency_ms;  // one sample per operation
  /// Completion time (s since start) and instructions of every operation.
  std::vector<std::pair<double, std::uint64_t>> completions;
  /// Workload-specific end-to-end figures (host_mips.gpu, points_per_s, ...).
  std::map<std::string, std::pair<double, std::string>> extra;

  /// Record one finished operation.
  void done(Clock::time_point op_start, Clock::time_point op_end,
            std::uint64_t inst);
  /// Whether to start another operation after `ops`: until `seconds` have
  /// passed and at least kMinOps ran, never beyond `max_ops` (0 = no cap).
  bool more(double seconds, std::size_t ops, std::size_t max_ops) const {
    return (max_ops == 0 || ops < max_ops) &&
           (ops < kMinOps || seconds_since(start) < seconds);
  }
  /// Throughput over the whole phase, kinst/s.
  double kips() const {
    return wall_s > 0.0 ? static_cast<double>(instructions) / wall_s / 1e3 : 0.0;
  }
  /// Median throughput of kSlices consecutive groups of completions, kinst/s:
  /// a host stall inflates one group instead of the whole figure.
  double steady_kips() const;
  static constexpr std::size_t kSlices = 8;
};

/// Reference values an output must equal. A label seen for the first time
/// is recorded; later values must match it. Pins (golden values at the
/// default seed) are preloaded.
class Expect {
 public:
  void pin(const std::string& label, std::uint64_t v) { ref_[label] = v; }
  bool operator()(const std::string& label, std::uint64_t v);
  const std::map<std::string, std::uint64_t>& values() const { return ref_; }

 private:
  std::map<std::string, std::uint64_t> ref_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs and the system under test at least `min_reps` times
  /// and until `min_seconds` have passed (each from scratch, each checked
  /// identical to the first) and report the median as setup_s. Then compute
  /// the references the outputs are checked against, untimed.
  virtual void setup(Report& rep, int min_reps, double min_seconds) = 0;
  /// Run operations for `seconds` of host time and at least kMinOps of them
  /// (Phase::more), at most `max_ops` when non-zero. With a span log the
  /// calls into each layer are timed and per-layer metrics are set on `rep`.
  virtual Phase run(double seconds, std::size_t max_ops, SpanLog* log,
                    Report& rep) = 0;
  /// Context length the workload simulates with.
  virtual std::size_t context_length() const = 0;
  /// Cycle totals every output was checked against, per label.
  virtual const Expect& expected() const = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, const Args& args);

/// Per-layer probes: set every per-layer metric `rep` does not have yet,
/// measured on the workload's own inputs (README.md, "Per-layer metrics").
void probe_layers(const std::string& workload, Workload& w, const Args& args,
                  SpanLog* log, Report& rep);

// ---- Building blocks shared by workloads and probes -------------------------

/// Per-layer accumulators of decorated engine runs.
struct EngineLayer {
  double ns[3] = {0, 0, 0};       // gpu, sequential, parallel engine call
  double pred_ns[3] = {0, 0, 0};  // predictor time inside those calls
  std::uint64_t inst[3] = {0, 0, 0};
  std::uint64_t pred_calls = 0;
  std::uint64_t pred_call_ns = 0;
  std::uint64_t par_useful = 0;
  std::uint64_t par_total = 0;
  double par_cpu_s = 0.0;
  double par_wall_s = 0.0;
  double inflight_rows_sum = 0.0;
  std::size_t inflight_runs = 0;
  void emit(Report& rep) const;
};

/// Outputs and host-clock span of the three engines (gpu, sequential,
/// parallel) on one trace.
struct EngineCycles {
  std::uint64_t cycles[3] = {0, 0, 0};
  double cpi[3] = {0, 0, 0};
  double model_mips[3] = {0, 0, 0};
  Clock::time_point start[3], end[3];
  double inflight_rows = 0.0;  // gpu-engine context occupancy x context
};

/// The three engines of `MLSimulator` (simulate, simulate_sequential,
/// simulate_parallel with `subtraces`/`gpus` and recovery on), run through
/// the engine classes with a TimingPredictor around the analytic predictor.
EngineCycles run_engines_traced(const mlsim::trace::EncodedTrace& tr,
                                std::size_t context, std::size_t subtraces,
                                std::size_t gpus, SpanLog* log,
                                std::uint64_t request, EngineLayer& acc);

/// The cnn-serve model: trainer-default shape (window 33, 32 channels, 64
/// hidden), fixed seed, untrained, feature scales computed over `traces`.
mlsim::core::SimNetBundle cnn_serve_bundle(
    const std::vector<const mlsim::trace::EncodedTrace*>& traces);

/// Ground-truth CPI of a labeled trace.
double truth_cpi(const mlsim::trace::EncodedTrace& tr);
/// Content hash of a trace (features and targets).
std::uint64_t trace_hash(const mlsim::trace::EncodedTrace& tr);

}  // namespace perfbench
