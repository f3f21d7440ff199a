#include "core/sliding_window.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace mlsim::core {

namespace {
constexpr std::size_t kRowBytes = trace::kNumFeatures * sizeof(std::int32_t);
}

SlidingWindowQueue::SlidingWindowQueue(std::size_t context_length,
                                       std::size_t batch_n, device::Device& dev,
                                       device::StreamId copy_stream,
                                       bool account_costs)
    : ctx_len_(context_length),
      batch_n_(batch_n),
      dev_(dev),
      copy_stream_(copy_stream),
      account_costs_(account_costs),
      buf_((context_length + 1 + batch_n) * trace::kNumFeatures),
      retire_clock_(context_length + 1 + batch_n, 0),
      tracker_(context_length) {  // checks context_length > 0
  check(batch_n > 0, "batch size must be positive");
}

std::size_t SlidingWindowQueue::refill(const std::int32_t* rows, std::size_t count) {
  check(remaining_ == 0, "refill while staged instructions remain");
  check(count > 0, "refill needs at least one instruction");
  const std::size_t p0 = batch_n_;  // rightmost window start

  if (primed_) {
    // Compact: the next instruction's context candidates are the rows
    // [pos_, pos_+ctx). Move them — relative positions preserved — to the
    // tail [cap-ctx, cap). dst > src for every row, so copy back-to-front.
    // Only in-flight rows carry their features along: a retired row stays
    // retired (the Clock only advances), so its features are never read
    // again.
    const std::size_t dst0 = capacity_rows() - ctx_len_;
    const std::uint64_t clock = tracker_.clock();
    for (std::size_t r = ctx_len_; r-- > 0;) {
      const std::size_t src = pos_ + r;
      const std::size_t dst = dst0 + r;
      if (src >= capacity_rows()) {
        retire_clock_[dst] = 0;  // candidate beyond history: stays padding
        continue;
      }
      if (retire_clock_[src] > clock) {
        std::memcpy(buf_.data() + dst * trace::kNumFeatures,
                    buf_.data() + src * trace::kNumFeatures, kRowBytes);
      }
      retire_clock_[dst] = retire_clock_[src];
    }
    // Device cost: only live rows — the tracked in-flight candidates — are
    // actually moved by the compaction kernel (the paper skips copying
    // retired instructions).
    if (account_costs_) {
      dev_.launch(copy_stream_, 2 * tracker_.count() * kRowBytes, 0, nullptr);
    }
  }
  primed_ = true;

  // Stage the batch reversed: batch instruction j lands at p0 - j, so the
  // newest staged instruction sits at the lowest index (paper Fig. 3).
  const std::size_t m = std::min(count, batch_n_ + 1);
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t slot = p0 - j;
    std::memcpy(buf_.data() + slot * trace::kNumFeatures,
                rows + j * trace::kNumFeatures, kRowBytes);
    retire_clock_[slot] = 0;  // a context candidate only once simulated
  }
  // Clear unused staging slots so stale rows never leak into windows.
  for (std::size_t slot = 0; slot + m <= p0; ++slot) retire_clock_[slot] = 0;

  // One H2D transfer for the whole batch (the amortisation the design buys).
  if (account_costs_) dev_.copy_h2d(nullptr, nullptr, m * kRowBytes, copy_stream_);

  pos_ = p0;
  remaining_ = m;
  return m;
}

LazyWindow SlidingWindowQueue::view(std::uint64_t global_index) {
  check(remaining_ > 0, "window built with no staged instruction");
  check(!pending_, "window built twice without apply_prediction");
  pending_ = true;
  // Row r of the window is storage row pos_ + r; rows past the end of the
  // storage are padding.
  return LazyWindow(buf_.data() + pos_ * trace::kNumFeatures,
                    retire_clock_.data() + pos_, 1,
                    std::min(ctx_len_, capacity_rows() - 1 - pos_),
                    tracker_.clock(), tracker_.count(), global_index,
                    ctx_len_ + 1);
}

void SlidingWindowQueue::build_window(std::vector<std::int32_t>& out) {
  view(0).materialize(out);
}

std::int32_t SlidingWindowQueue::remaining_latency(std::size_t r) const {
  const std::uint64_t clock = tracker_.clock();
  if (r >= capacity_rows() || retire_clock_[r] <= clock) return 0;
  return static_cast<std::int32_t>(
      std::min<std::uint64_t>(retire_clock_[r] - clock, kMaxLatencyEntry));
}

void SlidingWindowQueue::apply_prediction(const LatencyPrediction& p) {
  check(pending_, "apply_prediction without a window for the step");
  pending_ = false;

  // The window slides by one row: storage row pos_ + ctx (the oldest
  // context row) leaves it, whether or not this step moves pos_.
  const std::size_t aging = pos_ + ctx_len_;
  const std::uint64_t leaving =
      aging < capacity_rows() ? retire_clock_[aging] : 0;
  retire_clock_[pos_] = tracker_.retire(p, leaving);
  last_retire_ = std::max(last_retire_, retire_clock_[pos_]);

  --remaining_;
  if (remaining_ > 0) --pos_;
}

void SlidingWindowQueue::reset() {
  std::fill(retire_clock_.begin(), retire_clock_.end(), 0);
  pos_ = 0;
  remaining_ = 0;
  tracker_.reset();
  last_retire_ = 0;
  pending_ = false;
  primed_ = false;
}

std::uint64_t SlidingWindowQueue::total_cycles_with_drain() const {
  return std::max(tracker_.clock(), last_retire_);
}

}  // namespace mlsim::core
