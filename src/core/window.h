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

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

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

/// Engine-owned scratch a LazyWindow scans its context into: one clamped
/// remaining latency per window row. One per engine loop, reused every
/// step, so building a view allocates nothing once it has grown.
using ContextScratch = std::vector<std::int32_t>;

/// In-place view of one step's inference window — the single-window input
/// every engine hands a predictor.
///
/// Context row r of the current instruction is the instruction r positions
/// earlier in program order. It is in flight iff it lies within the
/// available history and its retire clock is > Clock. Building the view
/// scans the history once: each row's clamped remaining latency and the
/// in-flight count land in the scratch, so remaining(), context_count(),
/// materialize() and the analytic predictor never rescan it. materialize()
/// produces exactly the window InstructionQueue::push_and_build builds, so
/// predictors without an in-place path see identical inputs.
///
/// The view borrows the feature rows, the retire clocks and the scratch: it
/// is valid until the owner mutates any of them (the next step).
class LazyWindow {
 public:
  /// View over a trace and a ring of retire clocks (instruction j's at
  /// ring[j % ring_capacity]); instructions before `oldest` are padding.
  LazyWindow(const trace::EncodedTrace& tr, std::uint64_t current,
             std::uint64_t oldest, const std::uint64_t* retire_ring,
             std::size_t ring_capacity, std::uint64_t clock, std::size_t rows,
             ContextScratch& scratch);

  /// View over rows stored in ascending order (the sliding-window queue):
  /// context row r's features at row0 + r * kNumFeatures and its retire
  /// clock at retire0[r], for r <= history; deeper rows are padding.
  LazyWindow(const std::int32_t* row0, const std::uint64_t* retire0,
             std::size_t history, std::uint64_t current, std::uint64_t clock,
             std::size_t rows, ContextScratch& scratch);

  std::size_t rows() const { return rows_; }
  std::uint64_t current_index() const { return current_; }

  /// Remaining latency of context row r (>=1); 0 if padding or retired.
  std::int32_t remaining(std::size_t r) const {
    return r <= history_ ? rem_[r] : 0;
  }

  /// Static features of row r (r = 0 is the current instruction). Only
  /// valid for r == 0 or rows with remaining(r) > 0.
  std::span<const std::int32_t> features(std::size_t r) const {
    return {row0_ + static_cast<std::ptrdiff_t>(r) * row_step_,
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
  LazyWindow(const std::int32_t* row0, std::ptrdiff_t row_step,
             std::size_t history, std::uint64_t current, std::size_t rows,
             ContextScratch& scratch);

  /// Scan rows [first, first + n) whose retire clocks are ret[0], ret[Dir],
  /// ret[2 * Dir], ... into the scratch.
  template <int Dir>
  void scan(const std::uint64_t* ret, std::size_t first, std::size_t n,
            std::uint64_t clock);

  const std::int32_t* row0_;
  std::ptrdiff_t row_step_;  // +/- kNumFeatures: storage order of the rows
  std::int32_t* rem_;        // scratch: remaining latency per row, [0] = 0
  std::size_t history_;      // rows 1..history_ may be in flight
  std::size_t in_flight_ = 0;
  std::uint64_t current_;
  std::size_t rows_;
};

/// Fig. 1 step 4 on a retire ring: instruction i retires at the
/// pre-advance Clock plus all three predicted latencies, then the Clock
/// advances by the fetch latency. Returns the retire clock.
inline std::uint64_t retire_step(std::uint64_t* ring, std::size_t capacity,
                                 std::uint64_t i, const LatencyPrediction& p,
                                 std::uint64_t& clock) {
  const std::uint64_t retire = clock + p.fetch + p.exec + p.store;
  ring[i % capacity] = retire;
  clock += p.fetch;
  return retire;
}

}  // namespace mlsim::core
