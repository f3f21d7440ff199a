// Simulator engine tests: sequential vs GPU-optimised functional
// equivalence across all ablation toggles, cost-model behaviour of the
// optimisation stack, and the facade.
#include <gtest/gtest.h>

#include <bit>

#include "core/analytic_predictor.h"
#include "core/gpu_sim.h"
#include "core/sequential_sim.h"
#include "core/simulator.h"
#include "core/sliding_window.h"
#include "device/device.h"

namespace mlsim::core {
namespace {

trace::EncodedTrace small_trace(const std::string& abbr = "xz",
                                std::size_t n = 3000) {
  return uarch::make_encoded_trace(trace::find_workload(abbr), n, {}, 1);
}

// ------------------------------------------------- sequential simulator --

TEST(SequentialSim, ProducesStableClockAndProfile) {
  trace::EncodedTrace tr = small_trace();
  AnalyticPredictor pred;
  SequentialSimOptions opts;
  opts.context_length = 16;
  SequentialSimulator sim(pred, opts);
  const SimOutput out = sim.run(tr);
  EXPECT_EQ(out.instructions, tr.size());
  EXPECT_GT(out.cycles, tr.size() / 4);  // CPI > 0.25
  EXPECT_GT(out.profile.inference, 0.0);
  EXPECT_GT(out.profile.h2d, 0.0);
  EXPECT_GT(out.profile.transpose, 0.0);
  EXPECT_GT(out.sim_time_us, 0.0);
  EXPECT_NEAR(out.profile.total() * static_cast<double>(out.instructions),
              out.sim_time_us, 1e-6 * out.sim_time_us);
}

TEST(SequentialSim, DeterministicAcrossRuns) {
  trace::EncodedTrace tr = small_trace();
  AnalyticPredictor pred;
  SequentialSimOptions opts;
  opts.context_length = 16;
  SequentialSimulator sim(pred, opts);
  EXPECT_EQ(sim.run(tr).cycles, sim.run(tr).cycles);
}

TEST(SequentialSim, SubrangeSimulation) {
  trace::EncodedTrace tr = small_trace();
  AnalyticPredictor pred;
  SequentialSimulator sim(pred, {.context_length = 8});
  const SimOutput out = sim.run(tr, 100, 600);
  EXPECT_EQ(out.instructions, 500u);
  EXPECT_THROW(sim.run(tr, 10, tr.size() + 1), CheckError);
}

TEST(SequentialSim, RecordsPredictionsAndCounts) {
  trace::EncodedTrace tr = small_trace("xz", 500);
  AnalyticPredictor pred;
  SequentialSimOptions opts;
  opts.context_length = 8;
  opts.record_predictions = true;
  opts.record_context_counts = true;
  SequentialSimulator sim(pred, opts);
  const SimOutput out = sim.run(tr);
  ASSERT_EQ(out.predictions.size(), tr.size());
  ASSERT_EQ(out.context_counts.size(), tr.size());
  EXPECT_EQ(out.context_counts[0], 0u);  // cold start: no context
  std::uint64_t cycles = 0;
  for (const auto& p : out.predictions) cycles += p.fetch;
  EXPECT_LE(cycles, out.cycles);  // cycles excludes drain
}

// -------------------------------- GPU simulator functional equivalence --

struct ToggleCase {
  bool gic, swiq, cc, ps;
};

class GpuSimToggles : public ::testing::TestWithParam<ToggleCase> {};

TEST_P(GpuSimToggles, FunctionalResultIndependentOfToggles) {
  const ToggleCase tc = GetParam();
  trace::EncodedTrace tr = small_trace("mcf", 2500);
  AnalyticPredictor pred;

  SequentialSimOptions sopts;
  sopts.context_length = 16;
  sopts.record_predictions = true;
  SequentialSimulator ref(pred, sopts);
  const SimOutput expected = ref.run(tr);

  device::Device dev;
  GpuSimOptions gopts;
  gopts.context_length = 16;
  gopts.batch_n = 6;
  gopts.gpu_input_construction = tc.gic;
  gopts.sliding_window = tc.swiq;
  gopts.custom_conv = tc.cc;
  gopts.pipelined = tc.ps;
  gopts.record_predictions = true;
  GpuSimulator sim(pred, dev, gopts);
  const SimOutput got = sim.run(tr);

  EXPECT_EQ(got.cycles, expected.cycles);
  ASSERT_EQ(got.predictions.size(), expected.predictions.size());
  for (std::size_t i = 0; i < got.predictions.size(); ++i) {
    ASSERT_EQ(got.predictions[i], expected.predictions[i]) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllToggleCombos, GpuSimToggles,
    ::testing::Values(ToggleCase{false, false, false, false},
                      ToggleCase{true, false, false, false},
                      ToggleCase{true, true, false, false},
                      ToggleCase{true, true, true, false},
                      ToggleCase{true, true, true, true},
                      ToggleCase{true, false, true, true},
                      ToggleCase{false, false, false, true}));

// ----------------------------------- GPU engine vs sliding-window replay --

/// GpuSimulator's cost model replayed step by step through the
/// SlidingWindowQueue, the executable model of the §IV-A data path, on its
/// own Device: the queue stages and compacts the rows, charges its own
/// copies, and hands out each step's window.
SimOutput replay_through_queue(LatencyPredictor& pred, const GpuSimOptions& o,
                               const trace::EncodedTrace& tr) {
  device::Device dev;
  const std::size_t rows = o.context_length + 1;
  const CostModel& cm = o.costs;
  std::size_t flops = pred.flops_per_window(rows);
  if (flops == 0) flops = simnet3c2f_flops(rows);
  const device::StreamId sim_stream = 0;
  const device::StreamId copy_stream = dev.create_stream();
  const bool swiq_path = o.gpu_input_construction && o.sliding_window;
  SlidingWindowQueue queue(o.context_length, o.batch_n, dev, copy_stream,
                           /*account_costs=*/swiq_path);
  SimOutput out;
  out.instructions = tr.size();
  StepProfile acc;
  double occupancy_sum = 0.0;
  const double t0 = dev.synchronize();
  std::size_t next = 0;
  for (std::size_t cur = 0; cur < tr.size(); ++cur) {
    if (queue.needs_refill()) {
      const std::int32_t* rows_at =
          tr.raw_features().data() + next * trace::kNumFeatures;
      if (swiq_path) {
        if (!o.pipelined) dev.wait(copy_stream, dev.record(sim_stream));
        const double copy_start = dev.record(copy_stream);
        next += queue.refill(rows_at, tr.size() - next);
        const double copy_end = dev.record(copy_stream);
        acc.h2d += copy_end - copy_start;
        dev.wait(sim_stream, copy_end);
      } else {
        next += queue.refill(rows_at, tr.size() - next);
      }
    }
    const LazyWindow lw = queue.view(cur);
    const std::size_t ctx = lw.context_count();
    occupancy_sum += static_cast<double>(ctx) / static_cast<double>(rows - 1);
    if (o.record_context_counts) {
      out.context_counts.push_back(static_cast<std::uint16_t>(ctx));
    }
    if (!o.gpu_input_construction) {
      acc.queue_push += cm.host_queue_push_us;
      acc.input_construct += cm.cpu_construct_us(rows);
      acc.h2d += cm.h2d_full_window_us(rows);
      dev.advance(sim_stream, cm.host_queue_push_us + cm.cpu_construct_us(rows) +
                                  cm.h2d_full_window_us(rows));
    } else if (!o.sliding_window) {
      acc.h2d += cm.h2d_batched_row_us(o.batch_n);
      acc.input_construct += cm.gpu_construct_us(rows);
      dev.advance(sim_stream,
                  cm.h2d_batched_row_us(o.batch_n) + cm.gpu_construct_us(rows));
    } else if (!o.custom_conv) {
      acc.input_construct += cm.swiq_construct_us(o.batch_n);
      dev.advance(sim_stream, cm.swiq_construct_us(o.batch_n));
    } else {
      acc.input_construct += cm.custom_conv_construct_us(o.batch_n);
      dev.advance(sim_stream, cm.custom_conv_construct_us(o.batch_n));
    }
    if (!o.custom_conv) {
      acc.transpose += cm.transpose_us(rows);
      dev.advance(sim_stream, cm.transpose_us(rows));
    }
    const double inf_us = cm.inference_us(
        o.engine, flops, 1, o.custom_conv,
        (static_cast<double>(ctx) + 1.0) / static_cast<double>(rows));
    acc.inference += inf_us;
    dev.advance(sim_stream, inf_us);
    const LatencyPrediction p = pred.predict_lazy(lw);
    queue.apply_prediction(p);
    if (o.record_predictions) out.predictions.push_back(p);
    const double upd = o.gpu_input_construction ? cm.gpu_update_retire_us
                                                : cm.host_update_retire_us;
    acc.update_retire += upd;
    dev.advance(sim_stream, upd);
  }
  out.cycles = queue.total_cycles_with_drain();
  out.sim_time_us = dev.synchronize() - t0;
  const double n = static_cast<double>(out.instructions);
  out.profile = {acc.queue_push / n, acc.input_construct / n, acc.h2d / n,
                 acc.transpose / n,  acc.inference / n,       acc.update_retire / n};
  out.avg_context_occupancy = occupancy_sum / n;
  return out;
}

TEST(GpuSim, MatchesSlidingWindowQueueReplayExactly) {
  const trace::EncodedTrace tr = small_trace("mcf", 1500);
  AnalyticPredictor pred;
  struct Path {
    const char* name;
    bool gic, swiq, cc;
  };
  const Path paths[] = {{"baseline", false, false, false},
                        {"gic", true, false, false},
                        {"swiq", true, true, false},
                        {"custom-conv", true, true, true}};
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  for (const Path& path : paths) {
    for (const bool pipelined : {false, true}) {
      for (const std::size_t batch_n : {1, 10, 64}) {
        for (const std::size_t ctx : {16, 64, 111}) {
          SCOPED_TRACE(std::string(path.name) + " pipelined " +
                       std::to_string(pipelined) + " batch " +
                       std::to_string(batch_n) + " context " +
                       std::to_string(ctx));
          GpuSimOptions o;
          o.context_length = ctx;
          o.batch_n = batch_n;
          o.gpu_input_construction = path.gic;
          o.sliding_window = path.swiq;
          o.custom_conv = path.cc;
          o.pipelined = pipelined;
          o.record_predictions = true;
          o.record_context_counts = true;
          const SimOutput want = replay_through_queue(pred, o, tr);
          device::Device dev;
          const SimOutput got = GpuSimulator(pred, dev, o).run(tr);
          EXPECT_EQ(got.cycles, want.cycles);
          EXPECT_TRUE(got.predictions == want.predictions);
          EXPECT_EQ(got.context_counts, want.context_counts);
          EXPECT_EQ(bits(got.sim_time_us), bits(want.sim_time_us));
          EXPECT_EQ(bits(got.avg_context_occupancy),
                    bits(want.avg_context_occupancy));
          EXPECT_EQ(bits(got.profile.queue_push), bits(want.profile.queue_push));
          EXPECT_EQ(bits(got.profile.input_construct),
                    bits(want.profile.input_construct));
          EXPECT_EQ(bits(got.profile.h2d), bits(want.profile.h2d));
          EXPECT_EQ(bits(got.profile.transpose), bits(want.profile.transpose));
          EXPECT_EQ(bits(got.profile.inference), bits(want.profile.inference));
          EXPECT_EQ(bits(got.profile.update_retire),
                    bits(want.profile.update_retire));
        }
      }
    }
  }
}

// --------------------------------------- optimisation stack (Fig. 16 shape) --

TEST(GpuSim, OptimisationStackImprovesThroughputMonotonically) {
  trace::EncodedTrace tr = small_trace("xz", 1500);
  AnalyticPredictor pred;

  auto mips_for = [&](bool gic, bool swiq, bool cc, device::Engine eng, bool ps) {
    device::Device dev;
    GpuSimOptions o;
    o.context_length = 32;
    o.gpu_input_construction = gic;
    o.sliding_window = swiq;
    o.custom_conv = cc;
    o.engine = eng;
    o.pipelined = ps;
    GpuSimulator sim(pred, dev, o);
    return sim.run(tr).mips();
  };

  using device::Engine;
  const double base = mips_for(false, false, false, Engine::kLibTorch, false);
  const double gic = mips_for(true, false, false, Engine::kLibTorch, false);
  const double swiq = mips_for(true, true, false, Engine::kLibTorch, false);
  const double cc = mips_for(true, true, true, Engine::kLibTorch, false);
  const double oi = mips_for(true, true, true, Engine::kTensorRTSparse, false);
  const double ps = mips_for(true, true, true, Engine::kTensorRTSparse, true);

  EXPECT_GT(gic, base);
  EXPECT_GT(swiq, gic);
  EXPECT_GT(cc, swiq);
  EXPECT_GT(oi, cc);
  EXPECT_GE(ps, oi * 0.99);  // pipelining never hurts
  // Full stack is an order of magnitude, as in Fig. 16 (0.133 -> 2.86 MIPS).
  EXPECT_GT(ps, base * 8);
}

TEST(GpuSim, PipeliningHidesCopyTime) {
  trace::EncodedTrace tr = small_trace("xz", 1200);
  AnalyticPredictor pred;
  auto time_for = [&](bool ps) {
    device::Device dev;
    GpuSimOptions o;
    o.context_length = 16;
    o.pipelined = ps;
    GpuSimulator sim(pred, dev, o);
    return sim.run(tr).sim_time_us;
  };
  EXPECT_LT(time_for(true), time_for(false));
}

TEST(GpuSim, TransposeCostOnlyWithoutCustomConv) {
  trace::EncodedTrace tr = small_trace("xz", 500);
  AnalyticPredictor pred;
  device::Device d1, d2;
  GpuSimOptions with_cc;
  with_cc.context_length = 16;
  with_cc.custom_conv = true;
  GpuSimOptions without_cc = with_cc;
  without_cc.custom_conv = false;
  const SimOutput a = GpuSimulator(pred, d1, with_cc).run(tr);
  const SimOutput b = GpuSimulator(pred, d2, without_cc).run(tr);
  EXPECT_EQ(a.profile.transpose, 0.0);
  EXPECT_GT(b.profile.transpose, 0.0);
}

TEST(GpuSim, ContextOccupancyReported) {
  trace::EncodedTrace tr = small_trace("mcf", 1500);
  AnalyticPredictor pred;
  device::Device dev;
  GpuSimOptions o;
  o.context_length = 16;
  GpuSimulator sim(pred, dev, o);
  const SimOutput out = sim.run(tr);
  EXPECT_GT(out.avg_context_occupancy, 0.0);
  EXPECT_LE(out.avg_context_occupancy, 1.0);
}

TEST(GpuSim, EmptyRangeReturnsZero) {
  trace::EncodedTrace tr = small_trace("xz", 50);
  AnalyticPredictor pred;
  device::Device dev;
  GpuSimulator sim(pred, dev, {});
  const SimOutput out = sim.run(tr, 10, 10);
  EXPECT_EQ(out.instructions, 0u);
  EXPECT_EQ(out.cycles, 0u);
}

// ------------------------------------------------------------- facade --

TEST(MLSimulator, EndToEndAnalytic) {
  trace::EncodedTrace tr = labeled_trace("xz", 3000, {}, 1, /*use_cache=*/false);
  MLSimulator sim;
  const SimOutput out = sim.simulate(tr);
  EXPECT_EQ(out.instructions, tr.size());
  const double err = sim.cpi_error_percent(tr, out.cpi());
  // The analytic predictor tracks the OoO ground truth reasonably (paper's
  // trained model reaches ~2%; we only require the same order).
  EXPECT_LT(std::abs(err), 30.0);
}

TEST(MLSimulator, OptimizedFasterThanSequentialBaseline) {
  trace::EncodedTrace tr = labeled_trace("xz", 2000, {}, 1, false);
  MLSimulator sim;
  const SimOutput fast = sim.simulate(tr);
  const SimOutput slow = sim.simulate_sequential(tr);
  EXPECT_EQ(fast.cycles, slow.cycles);  // same functional result
  EXPECT_GT(fast.mips(), slow.mips() * 5);
}

TEST(MLSimulator, LabeledTraceCacheRoundTrip) {
  const auto t1 = labeled_trace("spei", 500, {}, 3, true);
  const auto t2 = labeled_trace("spei", 500, {}, 3, true);  // from cache
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); i += 37) {
    EXPECT_EQ(t1.targets(i)[0], t2.targets(i)[0]);
  }
}

}  // namespace
}  // namespace mlsim::core
