// Cross-engine consistency: every simulation engine (sequential reference,
// GPU-optimised, partition-order parallel, lockstep batched, streaming) must
// produce the same predictions for the same predictor — including the CNN,
// whose batch path exercises different code than its scalar path.
#include <gtest/gtest.h>

#include "core/analytic_predictor.h"
#include "core/cnn_predictor.h"
#include "core/gpu_sim.h"
#include "core/instruction_queue.h"
#include "core/lockstep_sim.h"
#include "core/sequential_sim.h"
#include "core/simulator.h"
#include "core/streaming.h"
#include "core/suite.h"
#include "trace/stream.h"

namespace mlsim::core {
namespace {

SimNetBundle tiny_bundle(std::size_t window) {
  tensor::SimNetModelConfig cfg;
  cfg.in_features = trace::kNumFeatures;
  cfg.window = window;
  cfg.channels = 4;
  cfg.hidden = 8;
  tensor::SimNetModel model(cfg, 77);
  return SimNetBundle{std::move(model),
                      std::vector<float>(trace::kNumFeatures, 0.04f)};
}

TEST(CrossEngine, AllEnginesAgreeWithCnnPredictor) {
  const std::size_t ctx = 12;
  const auto tr = uarch::make_encoded_trace(trace::find_workload("perl"), 400,
                                            {}, 9);
  CnnPredictor cnn(tiny_bundle(ctx + 1));

  // Sequential reference.
  SequentialSimOptions so;
  so.context_length = ctx;
  so.record_predictions = true;
  const auto seq = SequentialSimulator(cnn, so).run(tr);

  // GPU-optimised engine.
  device::Device dev;
  GpuSimOptions go;
  go.context_length = ctx;
  go.record_predictions = true;
  const auto gpu = GpuSimulator(cnn, dev, go).run(tr);
  ASSERT_EQ(gpu.predictions.size(), seq.predictions.size());
  for (std::size_t i = 0; i < seq.predictions.size(); ++i) {
    ASSERT_EQ(gpu.predictions[i], seq.predictions[i]) << i;
  }

  // Parallel engines with a single partition.
  ParallelSimOptions po;
  po.num_subtraces = 1;
  po.context_length = ctx;
  po.record_predictions = true;
  const auto par = ParallelSimulator(cnn, po).run(tr);
  const auto lock = LockstepParallelSimulator(cnn, po).run(tr);
  for (std::size_t i = 0; i < seq.predictions.size(); ++i) {
    ASSERT_EQ(par.predictions[i], seq.predictions[i]) << i;
    ASSERT_EQ(lock.predictions[i], seq.predictions[i]) << i;
  }
}

TEST(CrossEngine, StreamingAgreesWithParallelAnalytic) {
  const std::size_t ctx = 24;
  const auto& wl = trace::find_workload("x264");
  const auto tr = uarch::make_encoded_trace(wl, 3000, {}, 13);
  AnalyticPredictor pred;

  ParallelSimOptions po;
  po.num_subtraces = 1;
  po.context_length = ctx;
  const auto par = ParallelSimulator(pred, po).run(tr);

  trace::LabeledTraceStream stream(wl, {}, 13);
  const auto str = simulate_stream(pred, stream, 3000, ctx, 113);
  EXPECT_EQ(str.predicted_cycles, par.total_cycles);
}

TEST(CrossEngine, FacadeCnnPathRunsAllEngines) {
  const auto tr = labeled_trace("nab", 1200, {}, 1, false);
  MLSimulator sim;
  sim.use_cnn(tiny_bundle(17));
  EXPECT_EQ(sim.options().context_length, 16u);

  const auto single = sim.simulate(tr);
  const auto par = sim.simulate_parallel(tr, 4, 2);
  EXPECT_EQ(single.instructions, tr.size());
  EXPECT_EQ(par.instructions, tr.size());
  EXPECT_GT(par.mips(), 0.0);
}

TEST(CrossEngine, SuiteMatchesIndividualRuns) {
  const auto a = labeled_trace("xz", 1500, {}, 1, false);
  const auto b = labeled_trace("exch", 1500, {}, 1, false);
  AnalyticPredictor pred;
  GpuSimOptions opts;
  opts.context_length = 16;

  device::Device d1, d2;
  const auto ra = GpuSimulator(pred, d1, opts).run(a);
  const auto rb = GpuSimulator(pred, d2, opts).run(b);

  const auto report = run_suite(pred, {{&a, "xz"}, {&b, "exch"}}, 2, opts);
  for (const auto& j : report.jobs) {
    if (j.name == "xz") EXPECT_DOUBLE_EQ(j.cpi, ra.cpi());
    if (j.name == "exch") EXPECT_DOUBLE_EQ(j.cpi, rb.cpi());
  }
}

// ---------------------------------------------------- dense-input identity --

/// Overrides only predict(), so every single-window call an engine makes
/// reaches it through the base predict_lazy, which materialises the view:
/// the input a CNN sees. Records each window and delegates to the analytic
/// model.
class DenseRecorder final : public LatencyPredictor {
 public:
  struct Call {
    std::uint64_t index = 0;
    std::vector<std::int32_t> window;
    LatencyPrediction p;
  };

  LatencyPrediction predict(const WindowView& w, std::uint64_t gi) override {
    Call c{gi,
           std::vector<std::int32_t>(w.data, w.data + w.rows * trace::kNumFeatures),
           inner_.predict(w, gi)};
    calls.push_back(std::move(c));
    return calls.back().p;
  }
  std::size_t flops_per_window(std::size_t rows) const override {
    return inner_.flops_per_window(rows);
  }

  std::vector<Call> calls;

 private:
  AnalyticPredictor inner_;
};

/// Replay calls [k, k + n) through `q`, the reference queue, feeding trace
/// rows first, first + 1, ...: each recorded window must be the one
/// InstructionQueue::push_and_build builds. Advances k.
void expect_replay(const trace::EncodedTrace& tr,
                   const std::vector<DenseRecorder::Call>& calls, std::size_t& k,
                   std::size_t first, std::size_t n, InstructionQueue& q) {
  std::vector<std::int32_t> w;
  for (std::size_t j = 0; j < n; ++j, ++k) {
    ASSERT_LT(k, calls.size());
    const DenseRecorder::Call& c = calls[k];
    ASSERT_EQ(c.index, first + j) << "call " << k;
    q.push_and_build(tr.features(first + j), w);
    ASSERT_EQ(c.window, w) << "window of instruction " << c.index;
    q.apply_prediction(c.p);
  }
}

class GpuDenseInput : public ::testing::TestWithParam<int> {};

TEST_P(GpuDenseInput, MaterialisedWindowsMatchReferenceQueue) {
  const int bits = GetParam();
  const std::size_t ctx = 16;
  const auto tr = uarch::make_encoded_trace(trace::find_workload("mcf"), 700, {}, 3);
  DenseRecorder rec;
  device::Device dev;
  GpuSimOptions go;
  go.context_length = ctx;
  go.batch_n = 6;
  go.gpu_input_construction = (bits & 1) != 0;
  go.sliding_window = (bits & 2) != 0;
  go.custom_conv = (bits & 4) != 0;
  go.pipelined = (bits & 8) != 0;
  GpuSimulator(rec, dev, go).run(tr);

  InstructionQueue q(ctx);
  std::size_t k = 0;
  expect_replay(tr, rec.calls, k, 0, tr.size(), q);
  EXPECT_EQ(k, rec.calls.size());
}

// Every combination of the four §IV toggles (GIC, SWIQ, CC, PS).
INSTANTIATE_TEST_SUITE_P(AllToggles, GpuDenseInput, ::testing::Range(0, 16));

TEST(DenseInput, SequentialWindowsMatchReferenceQueue) {
  const std::size_t ctx = 16;
  const auto tr = uarch::make_encoded_trace(trace::find_workload("perl"), 900, {}, 5);
  for (const auto [begin, end] : {std::pair<std::size_t, std::size_t>{0, 900},
                                  {137, 760}}) {
    DenseRecorder rec;
    SequentialSimOptions so;
    so.context_length = ctx;
    SequentialSimulator(rec, so).run(tr, begin, end);

    InstructionQueue q(ctx);
    std::size_t k = 0;
    expect_replay(tr, rec.calls, k, begin, end - begin, q);
    EXPECT_EQ(k, rec.calls.size());
  }
}

TEST(DenseInput, ParallelWindowsMatchReferenceQueue) {
  const std::size_t ctx = 16;
  const auto tr = uarch::make_encoded_trace(trace::find_workload("mcf"), 1200, {}, 7);
  DenseRecorder rec;
  ParallelSimOptions po;
  po.num_subtraces = 6;
  po.num_gpus = 2;
  po.context_length = ctx;
  po.warmup = 4;
  po.post_error_correction = true;
  po.correction_limit = 30;
  const ParallelSimResult res = ParallelSimulator(rec, po).run(tr);
  ASSERT_GT(res.warmup_instructions, 0u);
  ASSERT_GT(res.corrected_instructions, 0u);

  // Replay in the engine's order: each partition's body from its warm-up
  // start on a fresh queue, then the correction of its head, which resumes
  // the previous partition's end-of-body queue.
  const std::size_t per_gpu = (po.num_subtraces + po.num_gpus - 1) / po.num_gpus;
  std::size_t k = 0;
  InstructionQueue prev(ctx);
  for (std::size_t p = 0; p < po.num_subtraces; ++p) {
    const std::size_t b = res.boundaries[p], e = res.boundaries[p + 1];
    const std::size_t h = b >= po.warmup ? b - po.warmup : 0;
    InstructionQueue q(ctx);
    expect_replay(tr, rec.calls, k, h, e - h, q);
    if (p > 0 && p / per_gpu == (p - 1) / per_gpu) {
      std::size_t n = 0;  // corrections stop where the contexts converged
      while (k + n < rec.calls.size() && rec.calls[k + n].index == b + n) ++n;
      expect_replay(tr, rec.calls, k, b, n, prev);
    }
    prev = q;
  }
  EXPECT_EQ(k, rec.calls.size());
}

}  // namespace
}  // namespace mlsim::core
