// Reference instruction queue implementing the simulation semantics of
// Fig. 1, in the program-order-indexed form the sliding-window design uses:
//
//   - the window's context row r holds instruction i-r (program order);
//   - a context row is *valid* while its instruction is still in flight
//     (retire clock > Clock); retired rows are zeroed in place — they are
//     "removed from the instruction queue" in the paper's terms — which
//     keeps row index == dependency distance, the property both the
//     dependency features and the sliding window rely on;
//   - each valid row's latency entry carries its remaining latency
//     (retire clock − Clock), the value the paper updates in the input's
//     first column every iteration.
//
// This is the behavioural specification; SlidingWindowQueue must produce
// identical windows and Clock trajectories (asserted by tests).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/window.h"

namespace mlsim::core {

class InstructionQueue {
 public:
  explicit InstructionQueue(std::size_t context_length = kDefaultContextLength);

  std::size_t context_length() const { return ctx_len_; }
  std::uint64_t clock() const { return clock_; }
  std::uint64_t last_retire_clock() const { return last_retire_; }

  /// Number of in-flight instructions among the context candidates — the
  /// "number of context instructions" the paper's correction criterion uses.
  std::size_t context_count() const;

  /// Steps 1+2 of Fig. 1: build the inference window (rows =
  /// context_length+1, row-major, zero padded) with `features` as row 0,
  /// then admit the instruction. Context rows carry remaining-latency
  /// entries relative to the current Clock; retired rows are zero.
  void push_and_build(std::span<const std::int32_t> features,
                      std::vector<std::int32_t>& out);

  /// Step 4: record the prediction for the pushed instruction; retire clock
  /// = pre-advance Clock + fetch + exec + store; Clock += fetch.
  void apply_prediction(const LatencyPrediction& p);

  /// Drop all state but keep the configuration (new sub-trace).
  void reset();

  /// Cycles including the drain of still-in-flight instructions.
  std::uint64_t total_cycles_with_drain() const;

 private:
  struct Entry {
    std::vector<std::int32_t> features;  // kNumFeatures values
    std::uint64_t retire_clock = 0;
  };

  std::size_t ctx_len_;
  std::uint64_t clock_ = 0;
  std::uint64_t last_retire_ = 0;
  std::deque<Entry> entries_;  // front = instruction i-1, back = oldest kept
  bool pending_ = false;       // push_and_build called, prediction outstanding
};

}  // namespace mlsim::core
