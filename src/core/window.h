// Inference-window conventions shared by every predictor and simulator.
//
// The predictor input is a window of (context_length + 1) feature rows:
//   row 0            — the to-be-predicted instruction,
//   rows 1..ctx      — in-flight context instructions, newest to oldest,
//   remaining rows   — zero padding.
// Each row is trace::kNumFeatures int32 values. Feature slot
// kCtxLatFeature (the last one, reserved by the encoder) carries the
// context instruction's *remaining latency* — cycles until it retires
// relative to the current Clock — the "latency entry" the paper updates in
// the first column of the input (Fig. 1 step 4). It is 0 for row 0.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "trace/encoder.h"
#include "trace/trace.h"

namespace mlsim::core {

/// Feature slot used for the dynamic context-latency entry.
constexpr std::size_t kCtxLatFeature = trace::kNumFeatures - 1;

/// Remaining-latency values are clamped to this bound before being placed
/// in the window (keeps the feature scale bounded for the ML model).
constexpr std::int32_t kMaxLatencyEntry = 255;

/// Default context length (paper: input window of 111 context instructions
/// plus the current one for the Table II machine).
constexpr std::size_t kDefaultContextLength = 111;

/// A window is a row-major [rows x kNumFeatures] block of int32.
struct WindowView {
  const std::int32_t* data = nullptr;
  std::size_t rows = 0;  // context_length + 1

  std::span<const std::int32_t> row(std::size_t r) const {
    return {data + r * trace::kNumFeatures, trace::kNumFeatures};
  }
};

/// Three predicted latencies (the model outputs).
struct LatencyPrediction {
  std::uint32_t fetch = 0;
  std::uint32_t exec = 0;
  std::uint32_t store = 0;

  bool operator==(const LatencyPrediction&) const = default;
};

/// In-place view of one step's inference window — the single-window input
/// every engine hands a predictor.
///
/// Context row r of the current instruction is the instruction r positions
/// earlier in program order. It is in flight iff it lies within the
/// available history and its retire clock is > Clock. The view is built in
/// O(1) from the owner's incrementally tracked in-flight count (RetireRing,
/// SlidingWindowQueue): remaining(r) reads row r's retire clock on demand,
/// and materialize() computes each row as it copies it. materialize()
/// produces exactly the window InstructionQueue::push_and_build builds, so
/// predictors without an in-place path see identical inputs.
///
/// The view borrows the feature rows and the retire clocks: it is valid
/// until the owner mutates them (the next retire).
class LazyWindow {
 public:
  /// Rows stored in `dir` order (+1 ascending, -1 descending): row r's
  /// features at row0 + r * dir * kNumFeatures and its retire clock at
  /// retire0[r * dir], for 1 <= r <= history; deeper rows are padding.
  /// `in_flight` must be the number of rows 1..history whose retire clock
  /// is > `clock`.
  LazyWindow(const std::int32_t* row0, const std::uint64_t* retire0,
             std::ptrdiff_t dir, std::size_t history, std::uint64_t clock,
             std::size_t in_flight, std::uint64_t current, std::size_t rows)
      : row0_(row0),
        retire0_(retire0),
        dir_(dir),
        history_(history),
        clock_(clock),
        in_flight_(in_flight),
        current_(current),
        rows_(rows) {}

  std::size_t rows() const { return rows_; }
  std::uint64_t current_index() const { return current_; }

  /// Remaining latency of context row r (>=1); 0 if padding or retired.
  std::int32_t remaining(std::size_t r) const {
    if (r - 1 >= history_) return 0;  // r == 0 wraps to the largest value
    const std::uint64_t rc =
        retire0_[static_cast<std::ptrdiff_t>(r) * dir_];
    return rc > clock_ ? static_cast<std::int32_t>(std::min<std::uint64_t>(
                             rc - clock_, kMaxLatencyEntry))
                       : 0;
  }

  /// Static features of row r (r = 0 is the current instruction). Only
  /// valid for r == 0 or rows with remaining(r) > 0.
  std::span<const std::int32_t> features(std::size_t r) const {
    return {row0_ + static_cast<std::ptrdiff_t>(r) * dir_ *
                        static_cast<std::ptrdiff_t>(trace::kNumFeatures),
            trace::kNumFeatures};
  }

  /// Build the dense window (rows x kNumFeatures, zero-padded, latency
  /// entries injected).
  void materialize(std::vector<std::int32_t>& out) const;

  /// Same, into caller-provided storage of rows()*kNumFeatures entries
  /// (used by the lockstep engine to fill batch buffers in place).
  void materialize_to(std::int32_t* out) const;

  /// In-flight population among the context rows.
  std::size_t context_count() const { return in_flight_; }

 private:
  const std::int32_t* row0_;
  const std::uint64_t* retire0_;
  std::ptrdiff_t dir_;    // +/- 1: storage order of the rows
  std::size_t history_;   // rows 1..history_ may be in flight
  std::uint64_t clock_;
  std::size_t in_flight_;
  std::uint64_t current_;
  std::size_t rows_;
};

/// The in-flight population of a context window, tracked incrementally: of
/// the last `window` instructions retired since reset(), the number whose
/// retire clock is > Clock. Owns the Clock.
///
/// Every instruction retired with a retire clock > Clock is counted once and
/// leaves the count exactly once: when it ages out of the window still in
/// flight (its owner hands its retire clock to retire()), or when the Clock
/// reaches its retire clock while it is still inside the window. Counted
/// retire clocks less than kSpan cycles ahead of the Clock sit in a
/// calendar of per-cycle buckets, which the Clock sweeps as it advances;
/// ones further ahead wait in a min-heap keyed on the retire clock and
/// stamped with the step number (the tracker's own, so owners may renumber
/// their rows), and move into the calendar once the Clock comes within
/// kSpan of them. Heap entries that aged out are skipped when they surface
/// and dropped once the heap exceeds 2 x window, so memory stays bounded
/// whatever latencies are predicted.
class InFlightTracker {
 public:
  /// Calendar length in cycles (a power of two above every ordinary
  /// latency, so the heap sees only outliers and garbage).
  static constexpr std::uint64_t kSpan = 1024;

  explicit InFlightTracker(std::size_t window);

  /// Empty window, Clock = `clock`.
  void reset(std::uint64_t clock = 0);

  /// Rebuild from the retire clocks of the instructions currently in the
  /// window, oldest first, after `steps` retires since the (lost) reset —
  /// the one counting pass a restored state needs.
  void restore(std::span<const std::uint64_t> oldest_first,
               std::uint64_t clock, std::uint64_t steps);

  std::uint64_t clock() const { return clock_; }
  std::size_t count() const { return count_; }
  /// Retires since reset(); the window holds min(window, steps) of them.
  std::uint64_t steps() const { return steps_; }
  /// Heap entries held (bounded by 2 x window).
  std::size_t pending() const { return far_.size(); }

  /// Fig. 1 step 4: the next instruction retires at the pre-advance Clock
  /// plus all three predicted latencies, then the Clock advances by the
  /// fetch latency. `leaving` is the retire clock of the instruction that
  /// ages out of the window with this step (the one `window` steps back;
  /// ignored while fewer have retired). Returns the retire clock.
  std::uint64_t retire(const LatencyPrediction& p, std::uint64_t leaving) {
    const std::uint64_t clock = clock_;
    const std::uint64_t retire = clock + p.fetch + p.exec + p.store;
    const std::uint64_t step = steps_++;
    if (step >= window_ && leaving > clock) {
      --count_;  // aged out in flight; a heap entry is skipped by its stamp
      if (leaving - clock < kSpan) --calendar_[leaving & kMask];
    }
    if (p.fetch > 0) advance(clock + p.fetch, step);
    if (retire > clock_) admit(retire, step);
    return retire;
  }

 private:
  static constexpr std::uint64_t kMask = kSpan - 1;
  struct Entry {
    std::uint64_t retire;
    std::uint64_t step;
  };
  struct Later {  // min-heap on the retire clock
    bool operator()(const Entry& a, const Entry& b) const {
      return a.retire > b.retire;
    }
  };

  /// Count a retire clock > Clock as in flight.
  void admit(std::uint64_t retire, std::uint64_t step) {
    ++count_;
    if (retire - clock_ < kSpan) {
      ++calendar_[retire & kMask];
    } else {
      far_.push_back({retire, step});
      std::push_heap(far_.begin(), far_.end(), Later{});
      if (far_.size() > 2 * window_) prune(step);
    }
  }

  /// Move the Clock to `to` after step `step`: retire the calendar buckets
  /// it passes, then bring heap entries within reach into the calendar.
  void advance(std::uint64_t to, std::uint64_t step) {
    if (to - clock_ < kSpan) {
      for (std::uint64_t c = clock_ + 1; c <= to; ++c) {
        count_ -= calendar_[c & kMask];
        calendar_[c & kMask] = 0;
      }
    } else {
      for (std::uint32_t& n : calendar_) {
        count_ -= n;
        n = 0;
      }
    }
    clock_ = to;
    while (!far_.empty() && (far_.front().retire <= clock_ ||
                             far_.front().retire - clock_ < kSpan)) {
      const Entry e = far_.front();
      std::pop_heap(far_.begin(), far_.end(), Later{});
      far_.pop_back();
      if (e.step + window_ <= step) continue;  // aged out: already uncounted
      if (e.retire <= clock_) {
        --count_;
      } else {
        ++calendar_[e.retire & kMask];
      }
    }
  }

  void prune(std::uint64_t step);

  std::size_t window_;
  std::uint64_t clock_ = 0;
  std::uint64_t steps_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint32_t> calendar_;  // kSpan buckets, by retire & kMask
  std::vector<Entry> far_;               // retire clocks >= Clock + kSpan
};

/// The retire clocks of a context window in program order, the Clock and
/// the in-flight tracker — the per-step state of every ring engine
/// (sequential, parallel shard body and correction, streaming, lockstep).
/// Instruction i's retire clock lives in slot i % context_length; the ring
/// is stored twice over so a view reads any row with one load.
///
/// reset(oldest) starts a history at instruction `oldest`; from there each
/// instruction in program order is viewed, then retired. Slots written
/// before the reset are never read again (their clocks may exceed the new
/// Clock). Copying a ring copies the whole state, which is how post-error
/// correction continues from the previous partition's end.
class RetireRing {
 public:
  explicit RetireRing(std::size_t context_length);

  void reset(std::uint64_t oldest, std::uint64_t clock = 0);

  /// Restore a checkpointed ring: its `context_length` slot clocks, Clock
  /// and history start, with `next` the next instruction to simulate.
  void restore(std::span<const std::uint64_t> slots, std::uint64_t clock,
               std::uint64_t oldest, std::uint64_t next);

  std::uint64_t clock() const { return tracker_.clock(); }
  std::uint64_t oldest() const { return oldest_; }
  std::size_t context_count() const { return tracker_.count(); }
  std::size_t pending() const { return tracker_.pending(); }
  /// The slot clocks (checkpoint format): instruction i's at [i % length].
  std::span<const std::uint64_t> slots() const { return {ring_.data(), cap_}; }

  /// The window of the next instruction to retire, whose features are row
  /// `current` of `tr` (context row r at row current - r).
  LazyWindow view(const trace::EncodedTrace& tr, std::uint64_t current) const {
    check(current < tr.size(), "current index out of trace bounds");
    const std::size_t history = static_cast<std::size_t>(
        std::min<std::uint64_t>(cap_, tracker_.steps()));
    return LazyWindow(tr.raw_features().data() + current * trace::kNumFeatures,
                      ring_.data() + slot_ + cap_, -1, history,
                      tracker_.clock(), tracker_.count(), current, cap_ + 1);
  }

  /// Retire the next instruction (the one of the last view). Returns its
  /// retire clock.
  std::uint64_t retire(const LatencyPrediction& p) {
    // The slot holds the instruction `length` back: the one leaving the
    // window.
    const std::uint64_t r = tracker_.retire(p, ring_[slot_]);
    ring_[slot_] = r;
    ring_[slot_ + cap_] = r;
    slot_ = slot_ + 1 == cap_ ? 0 : slot_ + 1;
    return r;
  }

 private:
  std::size_t cap_;
  std::vector<std::uint64_t> ring_;  // 2 x cap_: slot s at s and s + cap_
  std::size_t slot_ = 0;             // the next instruction's slot
  std::uint64_t oldest_ = 0;
  InFlightTracker tracker_;
};

}  // namespace mlsim::core
