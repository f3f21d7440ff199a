// Equivalence and invariant tests for the three window/queue
// implementations — the reference InstructionQueue, the device-resident
// SlidingWindowQueue, and the zero-copy LazyWindow — plus bit-exactness of
// the custom convolution layer against the dense reference convolution.
#include <gtest/gtest.h>

#include <optional>

#include "common/rng.h"
#include "core/analytic_predictor.h"
#include "core/custom_conv.h"
#include "core/instruction_queue.h"
#include "core/predictor.h"
#include "core/sliding_window.h"
#include "core/simulator.h"
#include "device/device.h"
#include "tensor/model.h"
#include "tensor/quant.h"

namespace mlsim::core {
namespace {

trace::EncodedTrace small_trace(const std::string& abbr = "xz",
                                std::size_t n = 3000) {
  return uarch::make_encoded_trace(trace::find_workload(abbr), n, {}, 1);
}

// ------------------------------------------------------- instruction queue --

TEST(InstructionQueue, FirstWindowHasOnlyCurrentRow) {
  InstructionQueue q(4);
  trace::EncodedTrace tr = small_trace("xz", 10);
  std::vector<std::int32_t> w;
  q.push_and_build(tr.features(0), w);
  ASSERT_EQ(w.size(), 5 * trace::kNumFeatures);
  for (std::size_t c = 0; c < trace::kNumFeatures; ++c) {
    EXPECT_EQ(w[c], tr.features(0)[c]);
  }
  for (std::size_t i = trace::kNumFeatures; i < w.size(); ++i) EXPECT_EQ(w[i], 0);
  EXPECT_EQ(q.context_count(), 0u);
}

TEST(InstructionQueue, ClockAndRetireSemantics) {
  InstructionQueue q(4);
  trace::EncodedTrace tr = small_trace("xz", 10);
  std::vector<std::int32_t> w;
  q.push_and_build(tr.features(0), w);
  q.apply_prediction({13, 1, 0});  // paper Fig. 1 example values
  EXPECT_EQ(q.clock(), 13u);
  EXPECT_EQ(q.last_retire_clock(), 14u);

  // Second instruction: the first is still in flight (retire 14 > clock 13)
  // with remaining latency 1.
  q.push_and_build(tr.features(1), w);
  EXPECT_EQ(w[trace::kNumFeatures + kCtxLatFeature], 1);
  q.apply_prediction({2, 1, 0});
  // Clock 15 >= retire 14: instruction 0 retires (paper iteration 2).
  q.push_and_build(tr.features(2), w);
  // Row 2 (instruction 0) must be zeroed.
  for (std::size_t c = 0; c < trace::kNumFeatures; ++c) {
    EXPECT_EQ(w[2 * trace::kNumFeatures + c], 0);
  }
}

TEST(InstructionQueue, PendingProtocolEnforced) {
  InstructionQueue q(4);
  trace::EncodedTrace tr = small_trace("xz", 4);
  std::vector<std::int32_t> w;
  EXPECT_THROW(q.apply_prediction({1, 1, 0}), CheckError);
  q.push_and_build(tr.features(0), w);
  EXPECT_THROW(q.push_and_build(tr.features(1), w), CheckError);
}

TEST(InstructionQueue, RemainingLatencyClamped) {
  InstructionQueue q(2);
  trace::EncodedTrace tr = small_trace("xz", 4);
  std::vector<std::int32_t> w;
  q.push_and_build(tr.features(0), w);
  q.apply_prediction({0, 100000, 0});
  q.push_and_build(tr.features(1), w);
  EXPECT_EQ(w[trace::kNumFeatures + kCtxLatFeature], kMaxLatencyEntry);
}

TEST(InstructionQueue, ResetRestoresInitialState) {
  InstructionQueue q(4);
  trace::EncodedTrace tr = small_trace("xz", 4);
  std::vector<std::int32_t> w;
  q.push_and_build(tr.features(0), w);
  q.apply_prediction({5, 5, 0});
  q.reset();
  EXPECT_EQ(q.clock(), 0u);
  EXPECT_EQ(q.context_count(), 0u);
  EXPECT_EQ(q.total_cycles_with_drain(), 0u);
}

// ---------------------------------------- sliding window equivalence (key) --

class QueueEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t, std::size_t>> {
};

TEST_P(QueueEquivalence, SlidingWindowMatchesReferenceExactly) {
  const auto [abbr, ctx_len, batch_n] = GetParam();
  trace::EncodedTrace tr = small_trace(abbr, 2500);
  AnalyticPredictor pred;

  InstructionQueue ref(ctx_len);
  device::Device dev;
  SlidingWindowQueue swq(ctx_len, batch_n, dev, 0);

  std::vector<std::int32_t> wr, ws;
  std::size_t next = 0;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    if (swq.needs_refill()) {
      next += swq.refill(tr.raw_features().data() + next * trace::kNumFeatures,
                         tr.size() - next);
    }
    // Context counts compared at the same protocol point: candidates of the
    // instruction about to be simulated (before the reference push admits it).
    const std::size_t ref_count_before = ref.context_count();
    ASSERT_EQ(ref_count_before, swq.context_count()) << "at " << i;
    ref.push_and_build(tr.features(i), wr);
    swq.build_window(ws);
    ASSERT_EQ(wr, ws) << "window mismatch at instruction " << i;

    const LatencyPrediction p =
        pred.predict(WindowView{wr.data(), ctx_len + 1}, i);
    ref.apply_prediction(p);
    swq.apply_prediction(p);
    ASSERT_EQ(ref.clock(), swq.clock()) << "clock diverged at " << i;
  }
  EXPECT_EQ(ref.total_cycles_with_drain(), swq.total_cycles_with_drain());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueueEquivalence,
    ::testing::Combine(::testing::Values("xz", "mcf", "lbm"),
                       ::testing::Values(std::size_t{8}, std::size_t{32}),
                       ::testing::Values(std::size_t{1}, std::size_t{5},
                                         std::size_t{16})));

// Per-row reference definition of a ring view, the one RetireRing's views
// must reproduce: row r is instruction current-r, padding when older than
// `oldest`, in flight iff its ring retire clock is > Clock, and clamped to
// kMaxLatencyEntry. `ring` is the test's own copy of the retire clocks.
std::int32_t reference_remaining(std::uint64_t current, std::uint64_t oldest,
                                 const std::vector<std::uint64_t>& ring,
                                 std::uint64_t clock, std::size_t rows,
                                 std::size_t r) {
  if (r == 0 || r >= rows || current < oldest + r) return 0;
  const std::uint64_t retire = ring[(current - r) % ring.size()];
  if (retire <= clock) return 0;
  return static_cast<std::int32_t>(
      std::min<std::uint64_t>(retire - clock, kMaxLatencyEntry));
}

// Two partitions share one retire ring without a reset of its clocks, as
// ShardEngine runs them: the second starts its Clock at 0 with a warm-up
// history (oldest > 0) while the ring still holds the first partition's
// retire clocks, which exceed the new Clock. The ring wraps every `ctx`
// instructions, and every 97th instruction's huge execute latency drives
// the kMaxLatencyEntry clamp.
void expect_lazy_matches_reference(std::size_t ctx) {
  const std::size_t rows = ctx + 1;
  trace::EncodedTrace tr = small_trace("xz", 1500);
  AnalyticPredictor pred;

  RetireRing ring(ctx);
  std::vector<std::uint64_t> shadow(ctx, 0);
  std::vector<std::int32_t> wr, wl, wt(rows * trace::kNumFeatures);
  struct Partition {
    std::size_t oldest, end;
  };
  for (const Partition part : {Partition{0, 700}, Partition{640, 1500}}) {
    InstructionQueue ref(ctx);  // fed from `oldest`: the warm-up history
    std::uint64_t clock = 0;
    ring.reset(part.oldest);
    for (std::size_t i = part.oldest; i < part.end; ++i) {
      const std::size_t ref_count_before = ref.context_count();
      ref.push_and_build(tr.features(i), wr);
      const LazyWindow lw = ring.view(tr, i);
      std::size_t live = 0;
      for (std::size_t r = 0; r <= rows; ++r) {
        const std::int32_t want =
            reference_remaining(i, part.oldest, shadow, clock, rows, r);
        ASSERT_EQ(lw.remaining(r), want) << "row " << r << " at " << i;
        live += want > 0;
      }
      ASSERT_EQ(lw.context_count(), live) << "at " << i;
      ASSERT_EQ(lw.context_count(), ref_count_before) << "at " << i;
      lw.materialize(wl);
      ASSERT_EQ(wr, wl) << "lazy window mismatch at " << i;
      lw.materialize_to(wt.data());
      ASSERT_EQ(wr, wt) << "materialize_to mismatch at " << i;

      LatencyPrediction p = pred.predict(WindowView{wr.data(), rows}, i);
      // Lazy predictions agree with dense predictions on identical windows.
      ASSERT_EQ(pred.predict_lazy(lw), p) << "prediction mismatch at " << i;
      if (i % 97 == 0) p.exec += 100000;

      ref.apply_prediction(p);
      shadow[i % ctx] = ring.retire(p);
      ASSERT_EQ(shadow[i % ctx], clock + p.fetch + p.exec + p.store);
      clock += p.fetch;
      ASSERT_EQ(ring.clock(), clock);
      ASSERT_EQ(ref.clock(), clock);
    }
  }
}

TEST(LazyWindowEquivalence, MatchesReferenceQueueWindows) {
  for (const std::size_t ctx : {1, 16, 33, 64, 111}) {
    SCOPED_TRACE("context " + std::to_string(ctx));
    expect_lazy_matches_reference(ctx);
    if (HasFatalFailure()) return;
  }
}

// ------------------------------------------------ in-flight tracker --

// Brute-force window over a retire history: the retire clocks of every
// instruction retired since the last reset, oldest first. Row r of the next
// window is the instruction retired r steps back (at most ctx); it is in
// flight iff its retire clock is > Clock. Every query rescans.
struct BruteWindow {
  std::size_t ctx;
  std::vector<std::uint64_t> retired;
  std::uint64_t clock = 0;

  std::int32_t remaining(std::size_t r) const {
    if (r == 0 || r > ctx || r > retired.size()) return 0;
    const std::uint64_t rc = retired[retired.size() - r];
    if (rc <= clock) return 0;
    return static_cast<std::int32_t>(
        std::min<std::uint64_t>(rc - clock, kMaxLatencyEntry));
  }
  std::size_t count() const {
    std::size_t n = 0;
    for (std::size_t r = 1; r <= ctx; ++r) n += remaining(r) > 0;
    return n;
  }
  void retire(const LatencyPrediction& p) {
    retired.push_back(clock + p.fetch + p.exec + p.store);
    clock += p.fetch;
  }
  void reset() {
    retired.clear();
    clock = 0;
  }
};

std::uint32_t below(Rng& rng, std::uint64_t bound) {
  return static_cast<std::uint32_t>(rng.next_below(bound));
}

// Ordinary latencies mixed with all-zero steps, latencies above
// kMaxLatencyEntry and above 2^20, latencies just past the tracker's
// calendar (entries that move into it while still in the window), and
// Clock jumps both within and beyond the calendar.
LatencyPrediction random_prediction(Rng& rng) {
  constexpr auto span = static_cast<std::uint32_t>(InFlightTracker::kSpan);
  switch (rng.next_below(16)) {
    case 0:
    case 1:
      return {0, 0, 0};
    case 2:
      return {below(rng, 4), kMaxLatencyEntry + 1 + below(rng, 5000), 0};
    case 3:
      return {below(rng, 3), (1u << 20) + below(rng, 1u << 24),
              rng.bernoulli(0.5) ? (1u << 21) : 0};
    case 4:
      return {below(rng, 4), span - 40 + below(rng, 200), below(rng, 2)};
    case 5:
      return {rng.bernoulli(0.5) ? 100 + below(rng, span)
                                 : span + below(rng, 3000),
              below(rng, 40), 0};
    default:
      return {below(rng, 5), below(rng, 40),
              rng.bernoulli(0.2) ? below(rng, 60) : 0};
  }
}

// Corrupted model outputs: latencies so large that the Clock never passes
// them, so nothing ever pops off the tracker's heap on its own.
LatencyPrediction garbage_prediction(Rng& rng) {
  return {below(rng, 4), (1u << 30) + below(rng, 1u << 30),
          below(rng, 1u << 30)};
}

void expect_view_matches(const LazyWindow& lw, const BruteWindow& bw) {
  ASSERT_EQ(lw.rows(), bw.ctx + 1);
  for (std::size_t r = 0; r <= bw.ctx + 1; ++r) {
    ASSERT_EQ(lw.remaining(r), bw.remaining(r)) << "row " << r;
  }
  ASSERT_EQ(lw.context_count(), bw.count());
}

// One ring step: the view must equal the brute-force scan, then both retire
// the same prediction. The tracker's heap never exceeds 2 x rows, and a
// step with all three latencies zero leaves nothing behind in it.
void step_ring(RetireRing& ring, BruteWindow& bw, const trace::EncodedTrace& tr,
               std::size_t i, const LatencyPrediction& p) {
  expect_view_matches(ring.view(tr, i), bw);
  if (::testing::Test::HasFatalFailure()) return;
  const std::size_t pending = ring.pending();
  ring.retire(p);
  bw.retire(p);
  ASSERT_EQ(ring.clock(), bw.clock);
  ASSERT_EQ(ring.context_count(), bw.count());
  ASSERT_LE(ring.pending(), 2 * (bw.ctx + 1));
  if (p == LatencyPrediction{}) {
    ASSERT_LE(ring.pending(), pending);
  }
}

constexpr std::size_t kTrackerContexts[] = {1, 2, 16, 64, 111};

// A ring's tracked count and every remaining(r) equal a brute-force scan
// at every step: across two partitions sharing the ring without clearing
// its clocks (stale clocks above the new Clock), a post-error correction
// continued from a copy of the ring, and a checkpoint restored in the
// middle of a partition.
TEST(InFlightTracker, RetireRingMatchesBruteForceScan) {
  const trace::EncodedTrace tr = small_trace("xz", 1200);
  for (const std::size_t ctx : kTrackerContexts) {
    for (const std::uint64_t seed : {1ull, 2ull, 99ull}) {
      SCOPED_TRACE("context " + std::to_string(ctx) + ", seed " +
                   std::to_string(seed));
      Rng rng(seed * 131 + ctx);
      RetireRing ring(ctx);
      BruteWindow bw{ctx, {}, 0};

      ring.reset(0);
      for (std::size_t i = 0; i < 600; ++i) {
        step_ring(ring, bw, tr, i, random_prediction(rng));
        ASSERT_FALSE(HasFatalFailure()) << "partition 1 at " << i;
      }

      // Correction: the next partition's head re-simulated on a copy of the
      // ring, with predictions of its own.
      RetireRing corr = ring;
      BruteWindow corr_bw = bw;
      for (std::size_t i = 600; i < 660; ++i) {
        step_ring(corr, corr_bw, tr, i, random_prediction(rng));
        ASSERT_FALSE(HasFatalFailure()) << "correction at " << i;
      }

      // Second partition: warm-up history from 550, over clocks the first
      // partition left in the ring.
      ring.reset(550);
      bw.reset();
      std::optional<RetireRing> restored;
      for (std::size_t i = 550; i < 1200; ++i) {
        if (i == 560 || i == 800) {  // fewer, then more steps than ctx
          restored.emplace(ctx);
          restored->restore(ring.slots(), ring.clock(), ring.oldest(), i);
          ASSERT_EQ(restored->context_count(), bw.count());
        }
        const LatencyPrediction p = random_prediction(rng);
        if (restored) {
          BruteWindow restored_bw = bw;
          step_ring(*restored, restored_bw, tr, i, p);
          ASSERT_FALSE(HasFatalFailure()) << "restored ring at " << i;
        }
        step_ring(ring, bw, tr, i, p);
        ASSERT_FALSE(HasFatalFailure()) << "partition 2 at " << i;
      }
    }
  }
}

// The streaming engine drops all but the last context-length rows from the
// front of its buffer, so trace indices shift under a live ring.
TEST(InFlightTracker, SurvivesStreamingIndexShift) {
  const trace::EncodedTrace tr = small_trace("xz", 600);
  for (const std::size_t ctx : kTrackerContexts) {
    SCOPED_TRACE("context " + std::to_string(ctx));
    Rng rng(ctx + 7);
    RetireRing ring(ctx);
    BruteWindow bw{ctx, {}, 0};
    ring.reset(0);
    std::size_t local = 0;
    for (std::size_t step = 0; step < 1500; ++step, ++local) {
      if (local + 1 >= tr.size() || (step % 97 == 96 && local > ctx)) {
        local = ctx;
      }
      step_ring(ring, bw, tr, local, random_prediction(rng));
      ASSERT_FALSE(HasFatalFailure()) << "step " << step;
    }
  }
}

// The sliding-window queue tracks the count across refills and compaction.
TEST(InFlightTracker, SlidingWindowMatchesBruteForceScan) {
  const trace::EncodedTrace tr = small_trace("mcf", 1500);
  for (const std::size_t ctx : kTrackerContexts) {
    for (const std::size_t batch_n : {1, 10, 64}) {
      SCOPED_TRACE("context " + std::to_string(ctx) + ", batch " +
                   std::to_string(batch_n));
      Rng rng(ctx * 1000 + batch_n);
      device::Device dev;
      SlidingWindowQueue q(ctx, batch_n, dev, 0, /*account_costs=*/false);
      BruteWindow bw{ctx, {}, 0};
      std::size_t next = 0;
      for (std::size_t i = 0; i < tr.size(); ++i) {
        if (q.needs_refill()) {
          next += q.refill(
              tr.raw_features().data() + next * trace::kNumFeatures,
              tr.size() - next);
        }
        ASSERT_EQ(q.context_count(), bw.count()) << "at " << i;
        expect_view_matches(q.view(i), bw);
        ASSERT_FALSE(HasFatalFailure()) << "at " << i;
        const LatencyPrediction p = random_prediction(rng);
        q.apply_prediction(p);
        bw.retire(p);
        ASSERT_EQ(q.clock(), bw.clock) << "at " << i;
      }
    }
  }
}

// Garbage predictions never leave the window through the Clock; the heap
// still stays within 2 x rows (asserted by step_ring), and the count stays
// exact.
TEST(InFlightTracker, GarbageLatenciesKeepHeapBounded) {
  const trace::EncodedTrace tr = small_trace("xz", 2000);
  for (const std::size_t ctx : kTrackerContexts) {
    SCOPED_TRACE("context " + std::to_string(ctx));
    Rng rng(ctx + 3);
    RetireRing ring(ctx);
    BruteWindow bw{ctx, {}, 0};
    ring.reset(0);
    for (std::size_t i = 0; i < tr.size(); ++i) {
      const LatencyPrediction p =
          rng.bernoulli(0.9) ? garbage_prediction(rng) : random_prediction(rng);
      step_ring(ring, bw, tr, i, p);
      ASSERT_FALSE(HasFatalFailure()) << "at " << i;
    }
  }
}

TEST(SlidingWindow, RefillProtocolChecks) {
  device::Device dev;
  SlidingWindowQueue q(4, 2, dev, 0);
  trace::EncodedTrace tr = small_trace("xz", 10);
  std::vector<std::int32_t> scratch;
  EXPECT_THROW(q.build_window(scratch), CheckError);
  const std::size_t staged =
      q.refill(tr.raw_features().data(), tr.size());
  EXPECT_EQ(staged, 3u);  // N + 1
  EXPECT_THROW(q.refill(tr.raw_features().data(), 1), CheckError);
}

TEST(SlidingWindow, AccountsH2DOnRefill) {
  device::Device dev;
  SlidingWindowQueue q(4, 2, dev, 0, /*account_costs=*/true);
  trace::EncodedTrace tr = small_trace("xz", 10);
  q.refill(tr.raw_features().data(), tr.size());
  EXPECT_GT(dev.record(0), 0.0);

  device::Device dev2;
  SlidingWindowQueue q2(4, 2, dev2, 0, /*account_costs=*/false);
  q2.refill(tr.raw_features().data(), tr.size());
  EXPECT_DOUBLE_EQ(dev2.record(0), 0.0);
}

// -------------------------------------------------- custom conv bit-exact --

class CustomConvBitExact : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CustomConvBitExact, MatchesDenseConvOnTransposedWindow) {
  const std::size_t ctx = GetParam();
  trace::EncodedTrace tr = small_trace("xz", 600);
  AnalyticPredictor pred;

  tensor::SimNetModelConfig mcfg;
  mcfg.in_features = trace::kNumFeatures;
  mcfg.window = ctx + 1;
  mcfg.channels = 8;
  mcfg.hidden = 8;
  tensor::SimNetModel model(mcfg, 11);
  CustomConvLayer custom(model.conv1());

  device::Device dev;
  SlidingWindowQueue q(ctx, 4, dev, 0);
  std::vector<std::int32_t> w;
  std::size_t next = 0;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    if (q.needs_refill()) {
      next += q.refill(tr.raw_features().data() + next * trace::kNumFeatures,
                       tr.size() - next);
    }
    q.build_window(w);

    // Dense reference: transpose the materialised window, run conv1.
    tensor::Tensor x({1, trace::kNumFeatures, ctx + 1});
    for (std::size_t l = 0; l <= ctx; ++l) {
      for (std::size_t c = 0; c < trace::kNumFeatures; ++c) {
        x(0, c, l) = static_cast<float>(w[l * trace::kNumFeatures + c]);
      }
    }
    const tensor::Tensor dense = model.conv1().forward(x);
    const tensor::Tensor fast = custom.forward(q);
    ASSERT_EQ(dense.shape(), fast.shape());
    for (std::size_t k = 0; k < dense.numel(); ++k) {
      ASSERT_EQ(dense.at(k), fast.at(k))
          << "element " << k << " differs at instruction " << i;
    }
    ++checked;

    const LatencyPrediction p = pred.predict(WindowView{w.data(), ctx + 1}, i);
    q.apply_prediction(p);
  }
  EXPECT_EQ(checked, tr.size());
}

INSTANTIATE_TEST_SUITE_P(ContextLengths, CustomConvBitExact,
                         ::testing::Values(std::size_t{7}, std::size_t{15},
                                           std::size_t{31}));

TEST(CustomConv, SkipsPaddingColumns) {
  const std::size_t ctx = 31;
  trace::EncodedTrace tr = small_trace("xz", 50);
  tensor::SimNetModelConfig mcfg;
  mcfg.in_features = trace::kNumFeatures;
  mcfg.window = ctx + 1;
  mcfg.channels = 4;
  tensor::SimNetModel model(mcfg, 3);
  CustomConvLayer custom(model.conv1());

  device::Device dev;
  SlidingWindowQueue q(ctx, 4, dev, 0);
  q.refill(tr.raw_features().data(), tr.size());
  std::vector<std::int32_t> w;
  q.build_window(w);
  custom.forward(q);
  // First instruction: only row 0 valid -> only a couple of columns computed.
  EXPECT_LE(custom.last_computed_columns(), 2u);
  EXPECT_LT(custom.last_computed_columns(), ctx + 1);
}

TEST(CustomConv, WorksWithPrunedWeights) {
  const std::size_t ctx = 7;
  trace::EncodedTrace tr = small_trace("xz", 30);
  tensor::SimNetModelConfig mcfg;
  mcfg.in_features = trace::kNumFeatures;
  mcfg.window = ctx + 1;
  mcfg.channels = 4;
  tensor::SimNetModel model(mcfg, 5);
  // Prune first: the custom layer must match the dense layer with zeros.
  tensor::prune_2to4_inplace(model.conv1().weight());
  CustomConvLayer custom(model.conv1());

  device::Device dev;
  SlidingWindowQueue q(ctx, 2, dev, 0);
  q.refill(tr.raw_features().data(), tr.size());
  std::vector<std::int32_t> w;
  q.build_window(w);

  tensor::Tensor x({1, trace::kNumFeatures, ctx + 1});
  for (std::size_t l = 0; l <= ctx; ++l) {
    for (std::size_t c = 0; c < trace::kNumFeatures; ++c) {
      x(0, c, l) = static_cast<float>(w[l * trace::kNumFeatures + c]);
    }
  }
  const tensor::Tensor dense = model.conv1().forward(x);
  const tensor::Tensor fast = custom.forward(q);
  for (std::size_t k = 0; k < dense.numel(); ++k) {
    ASSERT_EQ(dense.at(k), fast.at(k));
  }
}

}  // namespace
}  // namespace mlsim::core
