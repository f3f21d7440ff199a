#include "core/window.h"

#include <algorithm>

#include "common/check.h"

namespace mlsim::core {

namespace {

const std::int32_t* trace_row(const trace::EncodedTrace& tr, std::uint64_t i) {
  check(i < tr.size(), "current index out of trace bounds");
  return tr.raw_features().data() + i * trace::kNumFeatures;
}

}  // namespace

LazyWindow::LazyWindow(const std::int32_t* row0, std::ptrdiff_t row_step,
                       std::size_t history, std::uint64_t current,
                       std::size_t rows, ContextScratch& scratch)
    : row0_(row0),
      row_step_(row_step),
      history_(history),
      current_(current),
      rows_(rows) {
  check(rows > 0, "a window has at least the current row");
  if (scratch.size() < rows) scratch.resize(rows);
  rem_ = scratch.data();
  rem_[0] = 0;
}

LazyWindow::LazyWindow(const trace::EncodedTrace& tr, std::uint64_t current,
                       std::uint64_t oldest, const std::uint64_t* retire_ring,
                       std::size_t ring_capacity, std::uint64_t clock,
                       std::size_t rows, ContextScratch& scratch)
    : LazyWindow(trace_row(tr, current),
                 -static_cast<std::ptrdiff_t>(trace::kNumFeatures),
                 current > oldest
                     ? static_cast<std::size_t>(std::min<std::uint64_t>(
                           rows - 1, current - oldest))
                     : 0,
                 current, rows, scratch) {
  check(ring_capacity >= rows - 1, "retire ring smaller than context length");
  if (history_ == 0) return;
  // The ring wraps at most once within the history: rows 1..n1 sit at
  // ring[c0-1] down to ring[c0-n1]; deeper rows continue from ring[cap-1].
  const std::size_t c0 = current % ring_capacity;
  const std::size_t n1 = std::min(history_, c0);
  if (n1 > 0) scan<-1>(retire_ring + c0 - 1, 1, n1, clock);
  if (history_ > n1) {
    scan<-1>(retire_ring + ring_capacity - 1, n1 + 1, history_ - n1, clock);
  }
}

LazyWindow::LazyWindow(const std::int32_t* row0, const std::uint64_t* retire0,
                       std::size_t history, std::uint64_t current,
                       std::uint64_t clock, std::size_t rows,
                       ContextScratch& scratch)
    : LazyWindow(row0, static_cast<std::ptrdiff_t>(trace::kNumFeatures),
                 std::min(history, rows - 1), current, rows, scratch) {
  if (history_ > 0) scan<1>(retire0 + 1, 1, history_, clock);
}

template <int Dir>
void LazyWindow::scan(const std::uint64_t* ret, std::size_t first,
                      std::size_t n, std::uint64_t clock) {
  std::int32_t* out = rem_ + first;
  std::size_t live = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t rc = ret[Dir * static_cast<std::ptrdiff_t>(k)];
    const bool in = rc > clock;
    // Branch-free: the unsigned difference of a retired row wraps, but is
    // masked to 0 by `in`.
    const auto lat = static_cast<std::int32_t>(
        std::min<std::uint64_t>(rc - clock, kMaxLatencyEntry));
    out[k] = in ? lat : 0;
    live += in;
  }
  in_flight_ += live;
}

void LazyWindow::materialize(std::vector<std::int32_t>& out) const {
  out.resize(rows_ * trace::kNumFeatures);
  materialize_to(out.data());
}

void LazyWindow::materialize_to(std::int32_t* out) const {
  // One fill for the padding, then only the in-flight rows are copied: a
  // per-row fill of every retired row costs more than the whole fill.
  std::fill(out + trace::kNumFeatures, out + rows_ * trace::kNumFeatures, 0);
  const auto cur = features(0);
  std::copy(cur.begin(), cur.end(), out);
  for (std::size_t r = 1; r <= history_; ++r) {
    if (rem_[r] > 0) {
      std::int32_t* dst = out + r * trace::kNumFeatures;
      const auto row = features(r);
      std::copy(row.begin(), row.end(), dst);
      dst[kCtxLatFeature] = rem_[r];
    }
  }
}

}  // namespace mlsim::core
