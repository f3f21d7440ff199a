// Sliding-window instruction queue (paper §IV-A).
//
// One contiguous device-resident block of (context_length+1) + N feature
// rows. A window of context_length+1 rows slides through it so the current
// instruction is always the window's first row; batches of N incoming
// instructions are copied in *reversed* order (newest at the lowest index)
// so sliding left by one row advances to the next instruction. When the
// window reaches index 0, live rows are compacted to the tail and the next
// batch is staged — amortising the host->device copy over N instructions.
//
// Retire clocks live in a dedicated vector (the paper's shared-memory
// latency vector): the static feature rows are never rewritten after
// staging. A retire clock of 0 marks a row that holds no simulated
// instruction (staged, padding), since 0 is never > Clock. The step's
// window is a LazyWindow over these two arrays (view()); materialised
// windows inject the remaining-latency entries and zero retired rows,
// exactly matching InstructionQueue. The in-flight count is tracked
// incrementally (InFlightTracker) as instructions retire and slide out.
//
// The GPU engine steps over the trace in place (RetireRing) and charges the
// queue's data movement through refill_rows() and charge_refill(), the same
// cost this queue charges; the queue itself is the executable model of the
// data path (custom convolution, tests, host-cost probes).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/window.h"
#include "device/device.h"

namespace mlsim::core {

/// Rows one refill stages: the next instruction and the N after it, or
/// the `remaining` rows left to stage if fewer.
inline std::size_t refill_rows(std::size_t batch_n, std::size_t remaining) {
  return std::min(remaining, batch_n + 1);
}

/// Charge one refill's modeled device cost to `stream`: once the queue is
/// primed, the compaction kernel moving the `in_flight` live context rows
/// (a read and a write each; retired rows are not copied), then one H2D
/// copy of the `rows` staged rows.
void charge_refill(device::Device& dev, device::StreamId stream, bool primed,
                   std::size_t in_flight, std::size_t rows);

class SlidingWindowQueue {
 public:
  /// `batch_n` is N, the number of future instructions staged per copy.
  /// `account_costs` controls whether refills advance the device timeline
  /// (disabled when an ablation mode charges its own data-path costs).
  SlidingWindowQueue(std::size_t context_length, std::size_t batch_n,
                     device::Device& dev, device::StreamId copy_stream,
                     bool account_costs = true);

  std::size_t context_length() const { return ctx_len_; }
  std::size_t batch_n() const { return batch_n_; }
  std::uint64_t clock() const { return tracker_.clock(); }
  std::uint64_t last_retire_clock() const { return last_retire_; }

  /// True when all staged instructions have been consumed and a new batch
  /// must be staged before the next step.
  bool needs_refill() const { return remaining_ == 0; }

  /// Stage up to `count` rows from `rows` (row-major, kNumFeatures each)
  /// into the queue: compacts live rows to the tail, then copies the batch
  /// reversed. Returns the number staged (min(count, batch_n)).
  std::size_t refill(const std::int32_t* rows, std::size_t count);

  /// The inference window for the current instruction (trace index
  /// `global_index`), in place over the queue's storage and retire clocks.
  /// Starts the step like build_window; valid until apply_prediction.
  LazyWindow view(std::uint64_t global_index);

  /// Materialise the inference window for the current instruction into
  /// `out` (ctx_len+1 rows). Identical output to
  /// InstructionQueue::push_and_build.
  void build_window(std::vector<std::int32_t>& out);

  /// In-flight population among the context candidates.
  std::size_t context_count() const { return tracker_.count(); }

  /// Record the prediction for the current instruction, advance the Clock
  /// and slide the window by one.
  void apply_prediction(const LatencyPrediction& p);

  void reset();
  std::uint64_t total_cycles_with_drain() const;

  /// Raw queue storage (device buffer) — exposed for the custom convolution
  /// layer, which consumes the window in place.
  const device::DeviceBuffer<std::int32_t>& storage() const { return buf_; }
  /// Window offset (in rows) of the current instruction within storage().
  std::size_t window_pos() const { return pos_; }
  /// Remaining-latency entry for storage row `r` (0 if retired/padding).
  std::int32_t remaining_latency(std::size_t r) const;

 private:
  std::size_t capacity_rows() const { return ctx_len_ + 1 + batch_n_; }

  std::size_t ctx_len_;
  std::size_t batch_n_;
  device::Device& dev_;
  device::StreamId copy_stream_;
  bool account_costs_;

  device::DeviceBuffer<std::int32_t> buf_;      // capacity_rows x kNumFeatures
  std::vector<std::uint64_t> retire_clock_;     // per storage row; 0 = empty
  InFlightTracker tracker_;                     // Clock + in-flight count
  std::size_t pos_ = 0;        // current-instruction row (window start)
  std::size_t remaining_ = 0;  // staged instructions not yet simulated
  std::uint64_t last_retire_ = 0;
  bool pending_ = false;
  bool primed_ = false;  // first refill done
};

}  // namespace mlsim::core
