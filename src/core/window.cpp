#include "core/window.h"

#include "common/check.h"

namespace mlsim::core {

void LazyWindow::materialize(std::vector<std::int32_t>& out) const {
  out.resize(rows_ * trace::kNumFeatures);
  materialize_to(out.data());
}

void LazyWindow::materialize_to(std::int32_t* out) const {
  // One fill for the padding, then only the in-flight rows are copied: a
  // per-row fill of every retired row costs more than the whole fill.
  std::fill(out + trace::kNumFeatures, out + rows_ * trace::kNumFeatures, 0);
  std::copy(row0_, row0_ + trace::kNumFeatures, out);
  const std::ptrdiff_t row_step =
      dir_ * static_cast<std::ptrdiff_t>(trace::kNumFeatures);
  const std::int32_t* row = row0_;
  const std::uint64_t* retire = retire0_;
  std::int32_t* dst = out;
  for (std::size_t r = 1; r <= history_; ++r) {
    row += row_step;
    retire += dir_;
    dst += trace::kNumFeatures;
    if (*retire > clock_) {
      std::copy(row, row + trace::kNumFeatures, dst);
      dst[kCtxLatFeature] = static_cast<std::int32_t>(
          std::min<std::uint64_t>(*retire - clock_, kMaxLatencyEntry));
    }
  }
}

InFlightTracker::InFlightTracker(std::size_t window)
    : window_(window), calendar_(kSpan, 0) {
  check(window > 0, "context window must hold at least one row");
  far_.reserve(2 * window + 1);
}

void InFlightTracker::reset(std::uint64_t clock) {
  clock_ = clock;
  steps_ = 0;
  count_ = 0;
  std::fill(calendar_.begin(), calendar_.end(), 0);
  far_.clear();
}

void InFlightTracker::restore(std::span<const std::uint64_t> oldest_first,
                              std::uint64_t clock, std::uint64_t steps) {
  check(oldest_first.size() == std::min<std::uint64_t>(window_, steps),
        "restored window does not match the step count");
  reset(clock);
  steps_ = steps;
  std::uint64_t step = steps - oldest_first.size();
  for (const std::uint64_t retire : oldest_first) {
    if (retire > clock_) admit(retire, step);
    ++step;
  }
}

void InFlightTracker::prune(std::uint64_t step) {
  // Entries that aged out of the window no longer count; they only wait
  // for the Clock to come near them. The window holds steps > step - window.
  std::erase_if(far_, [&](const Entry& e) { return e.step + window_ <= step; });
  std::make_heap(far_.begin(), far_.end(), Later{});
}

RetireRing::RetireRing(std::size_t context_length)
    : cap_(context_length),
      ring_(2 * context_length, 0),
      tracker_(context_length) {}

void RetireRing::reset(std::uint64_t oldest, std::uint64_t clock) {
  oldest_ = oldest;
  slot_ = static_cast<std::size_t>(oldest % cap_);
  tracker_.reset(clock);
}

void RetireRing::restore(std::span<const std::uint64_t> slots,
                         std::uint64_t clock, std::uint64_t oldest,
                         std::uint64_t next) {
  check(slots.size() == cap_, "restored ring has the wrong length");
  check(oldest <= next, "restored ring history starts after its next step");
  std::copy(slots.begin(), slots.end(), ring_.begin());
  std::copy(slots.begin(), slots.end(),
            ring_.begin() + static_cast<std::ptrdiff_t>(cap_));
  oldest_ = oldest;
  slot_ = static_cast<std::size_t>(next % cap_);
  const std::uint64_t steps = next - oldest;
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(cap_, steps));
  std::vector<std::uint64_t> window(n);
  for (std::size_t k = 0; k < n; ++k) window[k] = ring_[(next - n + k) % cap_];
  tracker_.restore(window, clock, steps);
}

}  // namespace mlsim::core
