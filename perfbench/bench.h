// Shared pieces of the host-clock benchmark binary (README.md in this
// directory): run arguments, the result report, in-memory spans, the timing
// predictor decorator, and small statistics helpers.
//
// Every time here is host time from std::chrono::steady_clock (or
// getrusage for CPU time). Modeled device time from the simulator's cost
// model is never stored under a metric name; it appears only as `model.*`
// determinism checks in the report's details.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/predictor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seed whose results no tuning of this benchmark looked at. A claimed gain
/// is re-checked on it (README.md, "Seeds").
inline constexpr std::uint64_t kHeldOutSeed = 7919;
/// The seed the output pins (golden cycle totals) were recorded at.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Private scratch directory of this run (journal files, artifacts).
  std::string tmp_dir;
  /// Chrome trace output of a traced run ("" = none).
  std::string trace_out;
};

double seconds_since(Clock::time_point t0);
std::uint64_t ns_between(Clock::time_point a, Clock::time_point b);
/// Process CPU time (user + system), seconds.
double process_cpu_seconds();
/// Peak resident set size of this process (VmHWM), MB.
double peak_rss_mb();

inline double median(std::vector<double> v) {
  return mlsim::percentile(std::move(v), 50.0);
}

/// The percentile latency_tail_ms reports, the same on every workload and
/// run so that a slower or faster host never changes which one it is.
inline constexpr double kTailPct = 90.0;
/// Operations a timed phase runs at least, however long that takes: ten
/// samples beyond kTailPct.
inline constexpr std::size_t kMinOps = 100;

/// Everything one workload run measured and checked.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  /// Record a detail (provenance, modeled check values, tail percentile).
  void note(const std::string& key, const std::string& json_value);
  void note_num(const std::string& key, double v);
  void note_str(const std::string& key, const std::string& v);
  /// One output check. A failed check counts as a failed operation.
  bool check(bool ok, const std::string& what);
  /// One timed operation (request, round, point, run); `what` says why a
  /// failed one failed.
  void op(bool ok, const std::string& what) { check(ok, what); }
  /// Take over a probe's operations, failures, and the metrics this report
  /// does not have yet (never its setup_s).
  void absorb(const Report& probe);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  /// The final JSON line.
  std::string json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder of a traced run: name, start, end, parent and
/// request id per span, written at exit as Chrome trace JSON.
class SpanLog {
 public:
  struct Rec {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::uint32_t tid = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  std::uint64_t begin(const std::string& name, std::uint64_t request);
  void end(std::uint64_t id);
  /// A span that began and ended on other threads (a request in flight
  /// from submit to resolution); it does not join the caller's stack.
  std::uint64_t add(const std::string& name, std::uint64_t request,
                    std::uint64_t parent, Clock::time_point start,
                    Clock::time_point end);
  /// Innermost open span of the calling thread (0 = none).
  static std::uint64_t current();

  std::vector<Rec> records() const;
  /// Per span name: count, total and self time (duration minus the time
  /// covered by its direct children), in ms.
  std::string self_time_table() const;
  /// Self time (ns) summed per span name.
  std::map<std::string, double> self_ns() const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Rec> recs_;  // guarded by mu_
  std::uint64_t next_id_ = 1;
  Clock::time_point t0_ = Clock::now();
};

/// RAII span; a null log makes it a no-op (the untraced run). The parent is
/// the innermost open span of the calling thread.
class Span {
 public:
  Span(SpanLog* log, const std::string& name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::uint64_t id_ = 0;
};

/// Decorator that forwards every LatencyPredictor call to `inner` and
/// counts calls, time, and batch sizes. Single-window calls are counted
/// exactly but timed one in kSampleEvery (reading the clock around every
/// sub-microsecond analytic call would dominate the tracing overhead); their
/// total time is the sampled mean times the count. With `materialize_lazy`, lazy
/// windows are materialised here (timed separately) and passed to
/// inner.predict() — the same thing the base-class predict_lazy does, so
/// results are unchanged for any predictor.
class TimingPredictor final : public mlsim::core::LatencyPredictor {
 public:
  TimingPredictor(mlsim::core::LatencyPredictor& inner, bool materialize_lazy);

  mlsim::core::LatencyPrediction predict(const mlsim::core::WindowView& window,
                                         std::uint64_t global_index) override;
  void predict_batch(const std::int32_t* windows, std::size_t batch,
                     std::size_t rows, const std::uint64_t* global_indices,
                     mlsim::core::LatencyPrediction* out) override;
  mlsim::core::LatencyPrediction predict_lazy(
      const mlsim::core::LazyWindow& window) override;
  std::size_t flops_per_window(std::size_t rows) const override {
    return inner_.flops_per_window(rows);
  }
  mlsim::device::Engine engine() const override { return inner_.engine(); }

  static constexpr std::uint64_t kSampleEvery = 8;

  struct Counts {
    std::uint64_t calls = 0;  // predict + predict_lazy
    std::uint64_t ns = 0;     // time in the inner predictor for those (sampled)
    std::uint64_t materialize_calls = 0;
    std::uint64_t materialize_ns = 0;
    std::uint64_t batch_calls = 0;
    std::uint64_t batch_items = 0;
    std::uint64_t batch_ns = 0;
  };
  Counts counts() const;

 private:
  mlsim::core::LatencyPredictor& inner_;
  bool materialize_lazy_;
  std::vector<std::int32_t> buf_;
  std::atomic<std::uint64_t> calls_{0}, sampled_{0}, sampled_ns_{0},
      mat_calls_{0}, mat_ns_{0}, batch_calls_{0}, batch_items_{0}, batch_ns_{0};
};

/// JSON string literal (quoted, escaped).
std::string json_str(const std::string& s);
std::string json_num(double v);

}  // namespace perfbench
