// Concurrent partition execution (ShardEngine::run): every run whose
// partition bodies spread over the thread pool must equal the same run on
// one thread, bit for bit — results, recovery bookkeeping, modeled time,
// checkpoint bytes and the error raised. The serial reference is the same
// predictor behind a wrapper that is not reentrant, which pins the engine
// to the calling thread.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "core/analytic_predictor.h"
#include "core/parallel_sim.h"
#include "core/shard.h"
#include "device/fault.h"
#include "trace/trace.h"
#include "uarch/ground_truth.h"

#if defined(__SANITIZE_THREAD__)
#define MLSIM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MLSIM_TSAN 1
#endif
#endif

#include <sys/wait.h>
#include <unistd.h>

namespace mlsim::core {
namespace {

namespace fs = std::filesystem;

trace::EncodedTrace make_trace(const std::string& abbr, std::size_t n) {
  return uarch::make_encoded_trace(trace::find_workload(abbr), n, {}, 1);
}

/// Forwards to `inner` but is not reentrant: the engine runs every body on
/// the calling thread.
class SerialPredictor final : public LatencyPredictor {
 public:
  explicit SerialPredictor(LatencyPredictor& inner) : inner_(inner) {}
  LatencyPrediction predict(const WindowView& w, std::uint64_t i) override {
    return inner_.predict(w, i);
  }
  LatencyPrediction predict_lazy(const LazyWindow& w) override {
    return inner_.predict_lazy(w);
  }
  std::size_t flops_per_window(std::size_t rows) const override {
    return inner_.flops_per_window(rows);
  }
  device::Engine engine() const override { return inner_.engine(); }

 private:
  LatencyPredictor& inner_;
};

ParallelSimOptions options(std::size_t parts, std::size_t gpus, bool warmup,
                           bool correction) {
  ParallelSimOptions o;
  o.num_subtraces = parts;
  o.num_gpus = gpus;
  o.context_length = 16;
  o.warmup = warmup ? 16 : 0;
  o.post_error_correction = correction;
  o.record_predictions = true;
  o.record_context_counts = true;
  return o;
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

void expect_same(const ParallelSimResult& want, const ParallelSimResult& got) {
  EXPECT_EQ(want.total_cycles, got.total_cycles);
  EXPECT_EQ(want.instructions, got.instructions);
  EXPECT_EQ(bits(want.sim_time_us), bits(got.sim_time_us))
      << want.sim_time_us << " vs " << got.sim_time_us;
  EXPECT_EQ(want.corrected_instructions, got.corrected_instructions);
  EXPECT_EQ(want.warmup_instructions, got.warmup_instructions);
  EXPECT_EQ(want.retries, got.retries);
  EXPECT_EQ(want.lost_devices, got.lost_devices);
  EXPECT_EQ(bits(want.retry_backoff_us), bits(got.retry_backoff_us));
  EXPECT_EQ(want.boundaries, got.boundaries);
  EXPECT_EQ(want.failed_partitions, got.failed_partitions);
  EXPECT_EQ(want.degraded_partitions, got.degraded_partitions);
  EXPECT_TRUE(want.predictions == got.predictions) << "predictions differ";
  EXPECT_EQ(want.context_counts, got.context_counts);
}

/// The run on the pool and the same run on one thread.
struct Pair {
  ParallelSimResult concurrent, serial;
};

Pair run_both(LatencyPredictor& pred, const ParallelSimOptions& o,
              const trace::EncodedTrace& tr) {
  SerialPredictor serial(pred);
  return {ParallelSimulator(pred, o).run(tr), ParallelSimulator(serial, o).run(tr)};
}

fs::path temp_file(const std::string& name) {
  const fs::path p = fs::temp_directory_path() /
                     (name + "." + std::to_string(::getpid()) + ".ckpt");
  fs::remove(p);
  return p;
}

std::string read_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ConcurrentPartitions, WidthFollowsReentrancy) {
  const auto tr = make_trace("xz", 1000);
  AnalyticPredictor pred;
  SerialPredictor serial(pred);
  const ParallelSimOptions o = options(8, 2, true, true);
  const ShardPlan plan = ShardPlan::make(tr.size(), o);
  EXPECT_EQ(ShardEngine(pred, tr, o, plan).width(), ThreadPool::global().size());
  EXPECT_EQ(ShardEngine(serial, tr, o, plan).width(), 1u);
  ParallelSimOptions with_serial_fallback = o;
  with_serial_fallback.fallback = &serial;
  EXPECT_EQ(ShardEngine(pred, tr, with_serial_fallback, plan).width(), 1u);
}

TEST(ConcurrentPartitions, GridMatchesSerial) {
  const auto tr = make_trace("mcf", 6000);
  AnalyticPredictor pred;
  for (const std::size_t parts : {1, 4, 64}) {
    for (const std::size_t gpus : {1, 3, 8}) {
      for (const bool warmup : {false, true}) {
        for (const bool correction : {false, true}) {
          SCOPED_TRACE("parts " + std::to_string(parts) + " gpus " +
                       std::to_string(gpus) + " warmup " +
                       std::to_string(warmup) + " correction " +
                       std::to_string(correction));
          const Pair r = run_both(pred, options(parts, gpus, warmup, correction), tr);
          expect_same(r.serial, r.concurrent);
        }
      }
    }
  }
}

TEST(ConcurrentPartitions, FaultRecoveryMatchesSerial) {
  const auto tr = make_trace("mcf", 6000);
  AnalyticPredictor pred;
  AnalyticPredictor fallback;

  device::FaultOptions kills;
  kills.seed = 1;
  kills.device_kill_rate = 0.3;
  device::FaultOptions stragglers;
  stragglers.seed = 3;
  stragglers.straggler_rate = 0.5;
  device::FaultOptions corruption;
  corruption.seed = 1;
  corruption.output_corrupt_rate = 0.02;
  device::FaultOptions everything = kills;
  everything.straggler_rate = 0.3;
  everything.output_corrupt_rate = 0.01;

  const auto run = [&](const device::FaultOptions& fo) {
    const device::FaultInjector inj(fo);
    ParallelSimOptions o = options(24, 3, true, true);
    o.faults = &inj;
    o.fallback = &fallback;
    o.max_retries_per_partition = 8;
    o.retry_backoff_us = 37.5;
    const Pair r = run_both(pred, o, tr);
    expect_same(r.serial, r.concurrent);
    return r.concurrent;
  };
  EXPECT_FALSE(run(kills).failed_partitions.empty());
  EXPECT_EQ(run(stragglers).retries, 0u);
  EXPECT_FALSE(run(corruption).degraded_partitions.empty());
  const ParallelSimResult all = run(everything);
  EXPECT_FALSE(all.failed_partitions.empty());
  EXPECT_FALSE(all.degraded_partitions.empty());
}

TEST(ConcurrentPartitions, ExhaustedRetryBudgetReportsLowestFailingPartition) {
  const auto tr = make_trace("xz", 6000);
  AnalyticPredictor pred;
  SerialPredictor serial(pred);
  device::FaultOptions fo;
  fo.seed = 5;
  fo.device_kill_rate = 0.5;
  const device::FaultInjector inj(fo);
  ParallelSimOptions o = options(32, 4, true, true);
  o.faults = &inj;
  o.max_retries_per_partition = 1;

  // The lowest partition whose two attempts both die exhausts its budget.
  std::size_t lowest = o.num_subtraces;
  for (std::size_t p = 0; p < o.num_subtraces && lowest == o.num_subtraces; ++p) {
    if (inj.kill_point(p, 0) && inj.kill_point(p, 1)) lowest = p;
  }
  ASSERT_LT(lowest, o.num_subtraces) << "seed kills no partition twice";
  ASSERT_GT(lowest, 0u) << "seed should fail a later partition first";

  const auto error_of = [&](LatencyPredictor& p) -> std::string {
    try {
      ParallelSimulator(p, o).run(tr);
    } catch (const CheckError& e) {
      return e.what();
    }
    return "no error";
  };
  const std::string want = error_of(serial);
  EXPECT_NE(want.find("partition " + std::to_string(lowest) + " retry budget"),
            std::string::npos)
      << want;
  for (int rep = 0; rep < 5; ++rep) EXPECT_EQ(error_of(pred), want);
}

TEST(ConcurrentPartitions, CheckpointBytesMatchSerialAtEveryWrite) {
  const auto tr = make_trace("mcf", 6000);
  AnalyticPredictor pred;
  SerialPredictor serial(pred);
  device::FaultOptions fo;
  fo.seed = 1;
  fo.device_kill_rate = 0.3;
  constexpr std::size_t kParts = 12;

  for (std::size_t k = 1; k < kParts; ++k) {
    SCOPED_TRACE("death after partition " + std::to_string(k));
    device::FaultOptions dying = fo;
    dying.die_after_partition = k;
    const device::FaultInjector inj(dying);
    ParallelSimOptions o = options(kParts, 3, true, true);
    o.faults = &inj;
    o.max_retries_per_partition = 8;
    o.checkpoint_interval = 1;

    o.checkpoint_path = temp_file("mlsim_concurrency_serial");
    EXPECT_THROW(ParallelSimulator(serial, o).run(tr), device::InjectedCrash);
    const std::string want = read_bytes(o.checkpoint_path);
    fs::remove(o.checkpoint_path);

    o.checkpoint_path = temp_file("mlsim_concurrency_pool");
    EXPECT_THROW(ParallelSimulator(pred, o).run(tr), device::InjectedCrash);
    const std::string got = read_bytes(o.checkpoint_path);
    fs::remove(o.checkpoint_path);

    ASSERT_FALSE(want.empty());
    EXPECT_TRUE(want == got) << "checkpoint bytes differ";
  }
}

TEST(ConcurrentPartitions, ResumeFromThreePointsMatchesUninterruptedSerial) {
  const auto tr = make_trace("mcf", 6000);
  AnalyticPredictor pred;
  SerialPredictor serial(pred);
  device::FaultOptions fo;
  fo.seed = 1;
  fo.device_kill_rate = 0.3;
  const device::FaultInjector whole_inj(fo);
  ParallelSimOptions base = options(16, 4, true, true);
  base.faults = &whole_inj;
  base.max_retries_per_partition = 8;
  const ParallelSimResult want = ParallelSimulator(serial, base).run(tr);

  for (const std::size_t k : {1, 7, 15}) {
    SCOPED_TRACE("resume after partition " + std::to_string(k));
    device::FaultOptions dying = fo;
    dying.die_after_partition = k;
    const device::FaultInjector inj(dying);
    ParallelSimOptions o = base;
    o.faults = &inj;
    o.checkpoint_path = temp_file("mlsim_concurrency_resume");
    EXPECT_THROW(ParallelSimulator(pred, o).run(tr), device::InjectedCrash);
    o.resume = true;
    ParallelSimResult got = ParallelSimulator(pred, o).run(tr);
    EXPECT_TRUE(got.resumed);
    got.resumed = false;
    expect_same(want, got);
    EXPECT_FALSE(fs::exists(o.checkpoint_path));
  }
}

/// Reentrant: counts predictions per partition, returns garbage (an anomaly)
/// at the `poisoned` instructions, and repeats partition p's predictions
/// `cost[p]` extra times.
class ScriptedPredictor final : public LatencyPredictor {
 public:
  ScriptedPredictor(LatencyPredictor& inner, std::vector<std::size_t> bounds,
                    std::vector<std::size_t> poisoned, std::vector<int> cost)
      : calls(bounds.size() - 1),
        inner_(inner),
        bounds_(std::move(bounds)),
        poisoned_(std::move(poisoned)),
        cost_(std::move(cost)) {}
  LatencyPrediction predict(const WindowView& w, std::uint64_t i) override {
    return inner_.predict(w, i);
  }
  LatencyPrediction predict_lazy(const LazyWindow& w) override {
    const std::size_t i = w.current_index();
    std::size_t p = 0;
    while (bounds_[p + 1] <= i) ++p;
    calls[p].fetch_add(1);
    LatencyPrediction r = inner_.predict_lazy(w);
    for (int k = 0; k < cost_[p]; ++k) r = inner_.predict_lazy(w);
    for (const std::size_t bad : poisoned_) {
      if (i == bad) return {1u << 30, 1, 1};
    }
    return r;
  }
  std::size_t flops_per_window(std::size_t) const override { return 0; }
  bool reentrant() const override { return true; }

  std::vector<std::atomic<std::size_t>> calls;  // by partition

 private:
  LatencyPredictor& inner_;
  std::vector<std::size_t> bounds_;
  std::vector<std::size_t> poisoned_;
  std::vector<int> cost_;
};

TEST(ConcurrentPartitions, ErrorIsTheLowestBodysAfterEveryClaimedBodyEnds) {
  // Partition 1 fails at its last instruction and partition 3 at its first,
  // while partitions 0 to 2 run long, 2 the longest: the serial run raises
  // partition 1's error, and so must the concurrent one, though partition 3
  // fails first; when it propagates, every body that started has ended.
  const auto tr = make_trace("mcf", 8000);
  AnalyticPredictor pred;
  const ParallelSimOptions o = options(8, 1, false, false);
  const std::vector<std::size_t> b = partition_boundaries(tr.size(), 8);
  const std::vector<std::size_t> poisoned = {b[2] - 1, b[3]};
  const std::vector<int> cost = {20, 40, 200, 0, 0, 0, 0, 0};

  const auto error_of = [&](LatencyPredictor& p) -> std::string {
    try {
      ParallelSimulator(p, o).run(tr);
    } catch (const CheckError& e) {
      return e.what();
    }
    return "no error";
  };
  ScriptedPredictor reference(pred, b, poisoned, cost);
  SerialPredictor serial(reference);
  const std::string want = error_of(serial);
  EXPECT_NE(want.find("on partition 1 "), std::string::npos) << want;

  for (int rep = 0; rep < 5; ++rep) {
    ScriptedPredictor scripted(pred, b, poisoned, cost);
    EXPECT_EQ(error_of(scripted), want);
    for (std::size_t p = 0; p < 8; ++p) {
      const std::size_t n = scripted.calls[p].load();
      const std::size_t whole = b[p + 1] - b[p];
      if (p == 3) {
        EXPECT_LE(n, 1u);
      } else {
        EXPECT_TRUE(n == 0 || n == whole)
            << "partition " << p << " stopped after " << n << " of " << whole
            << " predictions: its body outlived run()";
      }
    }
  }
}

/// Reentrant: counts the predictions in progress, and cancels the run once
/// `cancel_after` predictions have started.
class CancellingPredictor final : public LatencyPredictor {
 public:
  CancellingPredictor(LatencyPredictor& inner, CancelSource& source,
                      std::size_t cancel_after)
      : inner_(inner), source_(source), cancel_after_(cancel_after) {}
  LatencyPrediction predict(const WindowView& w, std::uint64_t i) override {
    return inner_.predict(w, i);
  }
  LatencyPrediction predict_lazy(const LazyWindow& w) override {
    active.fetch_add(1);
    if (returned.load()) late.fetch_add(1);
    if (calls.fetch_add(1) + 1 == cancel_after_) source_.cancel();
    const LatencyPrediction p = inner_.predict_lazy(w);
    active.fetch_sub(1);
    return p;
  }
  std::size_t flops_per_window(std::size_t) const override { return 0; }
  bool reentrant() const override { return true; }

  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> active{0};
  std::atomic<std::size_t> late{0};  // predictions started after run() threw
  std::atomic<bool> returned{false};

 private:
  LatencyPredictor& inner_;
  CancelSource& source_;
  std::size_t cancel_after_;
};

TEST(ConcurrentPartitions, CancelMidRunLeavesNoBodyRunning) {
  const auto tr = make_trace("mcf", 20000);
  AnalyticPredictor pred;
  CancelSource source;
  const CancelToken token = source.token();
  CancellingPredictor cancelling(pred, source, 5000);
  ParallelSimOptions o = options(64, 8, true, true);
  o.cancel = &token;

  EXPECT_THROW(ParallelSimulator(cancelling, o).run(tr), CancelledError);
  EXPECT_EQ(cancelling.active.load(), 0u) << "a body outlived run()";
  cancelling.returned.store(true);
  const std::size_t calls = cancelling.calls.load();
  EXPECT_LT(calls, tr.size());

  // A second run on the same pool: tasks the first run posted are taken
  // before this run's, and none of them may reach a body.
  const Pair again = run_both(pred, options(64, 8, true, true), tr);
  expect_same(again.serial, again.concurrent);
  EXPECT_EQ(cancelling.late.load(), 0u);
  EXPECT_EQ(cancelling.calls.load(), calls);
}

#if !defined(MLSIM_TSAN)

TEST(ConcurrentPartitions, ForkedChildRunsToCompletion) {
  const auto tr = make_trace("gcc", 20000);
  AnalyticPredictor pred;
  const ParallelSimOptions o = options(64, 8, true, true);
  // Starts the pool's workers; a forked child inherits none of them.
  const ParallelSimResult parent = ParallelSimulator(pred, o).run(tr);

  const pid_t pid = fork();
  if (pid == 0) {
    alarm(60);  // a wedged child dies by SIGALRM instead of hanging the test
    try {
      const ParallelSimResult child = ParallelSimulator(pred, o).run(tr);
      _exit(child.total_cycles == parent.total_cycles &&
                    child.predictions == parent.predictions
                ? 0
                : 1);
    } catch (...) {
      _exit(2);
    }
  }
  ASSERT_GT(pid, 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0) << "1: results differ, 2: the run threw";
}

TEST(ThreadPoolFork, ChildRunsParallelForOnTheCallingThread) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 100, [&](std::size_t) { total.fetch_add(1); });
  ASSERT_EQ(total.load(), 100u);

  const pid_t pid = fork();
  if (pid == 0) {
    alarm(60);  // a wedged child dies by SIGALRM instead of hanging the test
    std::size_t n = 0;
    pool.parallel_for(0, 100, [&](std::size_t) { ++n; });
    _exit(pool.size() == 1 && n == 100 ? 0 : 1);
  }
  ASSERT_GT(pid, 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

#endif  // !MLSIM_TSAN

}  // namespace
}  // namespace mlsim::core
