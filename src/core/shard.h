// Shard layer of the parallel engine (paper §V; docs/DISTRIBUTED.md).
//
// A *shard* is the contiguous block of sub-trace partitions owned by one
// modeled GPU — the natural unit of distribution, because the paper's
// post-error correction never crosses a GPU boundary (zero inter-GPU
// communication), so a shard is simulatable with no state from any other
// shard. This header extracts the partition-execution body out of
// ParallelSimulator::run into pieces reused by both executors:
//
//   ShardPlan    — partition boundaries + the block layout (who owns what);
//   ShardEngine  — runs partitions in ascending order, carrying the
//                  cross-partition state (retire ring, end-of-partition
//                  snapshot) and all accumulators. The in-process
//                  ParallelSimulator drives one engine over every partition
//                  (and checkpoints its public state); a distributed worker
//                  drives one over just its block;
//   ShardOutcome — the serializable result of one block, merged by
//                  ShardMerger. Every CPI-bearing field is an integer, so
//                  the merge is associative and the distributed result is
//                  bit-identical to the single-process engine on the same
//                  trace and seed (sim_time_us may differ in final bits:
//                  occupancy statistics merge with different float rounding
//                  than sequential accumulation).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "core/parallel_sim.h"

namespace mlsim::core {

/// Partition boundaries plus the per-GPU block layout of a run. Computed
/// identically by the in-process engine, the coordinator, and every worker,
/// from (trace size, options) alone.
struct ShardPlan {
  std::vector<std::size_t> boundaries;  // P+1 entries
  std::size_t instructions = 0;         // n
  std::size_t parts = 0;                // P = min(num_subtraces, n)
  std::size_t gpus = 0;                 // G = min(num_gpus, P)
  std::size_t per_gpu = 0;              // ceil(P / G): block size
  std::size_t num_shards = 0;           // ceil(P / per_gpu) <= G

  static ShardPlan make(std::size_t n, const ParallelSimOptions& opts);

  std::size_t gpu_of(std::size_t p) const { return p / per_gpu; }
  /// Partition range [lo, hi) of shard (block) s.
  std::size_t shard_lo(std::size_t s) const { return s * per_gpu; }
  std::size_t shard_hi(std::size_t s) const {
    const std::size_t hi = (s + 1) * per_gpu;
    return hi < parts ? hi : parts;
  }
};

/// Serializable outcome of one shard — everything the merge needs to
/// reconstruct the block's contribution to a ParallelSimResult.
struct ShardOutcome {
  std::uint64_t part_lo = 0;
  std::uint64_t part_hi = 0;

  // Per-partition accounting, size part_hi - part_lo.
  std::vector<std::uint64_t> partition_cycles;
  std::vector<std::uint64_t> partition_steps;
  std::vector<std::uint64_t> partition_wasted;
  std::vector<std::uint32_t> final_attempt;

  // Fault-recovery bookkeeping (absolute partition indices).
  std::vector<std::uint64_t> failed_partitions;
  std::vector<std::uint64_t> degraded_partitions;
  std::uint64_t warmup_instructions = 0;
  std::uint64_t corrected_instructions = 0;
  std::uint64_t retries = 0;
  double backoff_us = 0.0;
  std::uint8_t gpu_lost = 0;

  /// Context-occupancy samples drawn inside this block.
  RunningStats::State occupancy;

  /// Recorded outputs for instruction range [boundaries[lo], boundaries[hi])
  /// (present only when the run records them).
  std::vector<LatencyPrediction> predictions;
  std::vector<std::uint16_t> context_counts;
};

/// Executes partitions of a partitioned run in ascending order, carrying
/// the retire ring and the end-of-previous-partition snapshot across calls.
/// All state is public: the in-process ParallelSimulator checkpoints and
/// restores it; distributed workers serialize a block of it via
/// block_outcome(). `predictor`, `trace`, `opts`, and `plan` must outlive
/// the engine.
class ShardEngine {
 public:
  ShardEngine(LatencyPredictor& predictor, const trace::EncodedTrace& trace,
              const ParallelSimOptions& opts, const ShardPlan& plan);

  /// Run partition p: the fault-tolerant attempt loop (kills, anomaly
  /// degradation, retry budget) plus post-error correction of p's head
  /// against the previous partition's end state. Call with ascending p;
  /// skipping to the first partition of a block is valid (blocks are
  /// independent), skipping within a block is not.
  void run_partition(std::size_t p);

  /// Extract the outcome of block [part_lo, part_hi). Meaningful when the
  /// engine ran exactly that block (distributed worker) — accumulator
  /// totals are engine-wide.
  ShardOutcome block_outcome(std::size_t part_lo, std::size_t part_hi) const;

  // ---- cross-partition state (checkpointed by ParallelSimulator) -----------
  std::vector<std::uint64_t> partition_cycles;
  std::vector<std::size_t> partition_steps;   // incl. warmup + corrections
  std::vector<std::size_t> partition_wasted;  // burnt by failed attempts
  std::vector<std::uint32_t> final_attempt;   // successful attempt index
  std::vector<std::uint8_t> degraded;         // running on the fallback
  std::vector<std::uint8_t> failed;           // hit by a device kill
  std::vector<std::uint8_t> gpu_lost;         // slots killed mid-run (size G)
  /// End-of-previous-partition ring (empty until a partition has run with
  /// correction on); the correction of the next partition continues it.
  std::optional<RetireRing> prev;

  RunningStats occupancy;  // sampled context occupancy (drives the cost model)
  double backoff_us = 0.0;
  std::size_t warmup_instructions = 0;
  std::size_t corrected_instructions = 0;
  std::size_t retries = 0;
  /// Partitions hit by a kill / finished degraded, in completion order.
  std::vector<std::size_t> failed_list;
  std::vector<std::size_t> degraded_list;

  /// Recorded per-instruction outputs (full trace length when recording;
  /// a block worker fills only its range).
  std::vector<LatencyPrediction> predictions;
  std::vector<std::uint16_t> context_counts;

 private:
  void charge_retry(std::size_t part, std::size_t& attempt, const char* why);

  LatencyPredictor& predictor_;
  const trace::EncodedTrace& trace_;
  const ParallelSimOptions& opts_;
  const ShardPlan& plan_;
  const device::FaultInjector* faults_;  // null when disabled

  std::vector<std::uint32_t> fetch_lat_;
  std::vector<std::vector<std::uint16_t>> head_counts_;
  RetireRing ring_;
  std::vector<std::int32_t> sink_window_;  // materialised window for batch_sink
};

/// Merges shard outcomes (added in ascending part_lo order) back into full
/// per-partition arrays and a ParallelSimResult. Integer merges are plain
/// sums/copies, so CPI, cycle totals, predictions, and every counter are
/// bit-identical to an in-process run over the same plan.
class ShardMerger {
 public:
  explicit ShardMerger(const ShardPlan& plan, bool record_predictions,
                       bool record_context_counts);

  /// Throws CheckError if the outcome's shape does not match the plan.
  void add(const ShardOutcome& o);

  /// True once every partition in the plan has been covered.
  bool complete() const { return covered_ == plan_.parts; }

  /// Finalize into `res` (boundaries, counters, cycles, modeled time).
  /// `predictor_flops` feeds the time model exactly as the in-process
  /// engine's predictor would.
  ParallelSimResult finish(const ParallelSimOptions& opts,
                           std::size_t predictor_flops) const;

 private:
  const ShardPlan& plan_;
  std::size_t covered_ = 0;

  std::vector<std::uint64_t> partition_cycles_;
  std::vector<std::size_t> partition_steps_;
  std::vector<std::size_t> partition_wasted_;
  std::vector<std::uint32_t> final_attempt_;
  std::vector<std::uint8_t> gpu_lost_;
  std::vector<std::size_t> failed_;
  std::vector<std::size_t> degraded_;
  std::size_t warmup_ = 0, corrected_ = 0, retries_ = 0;
  double backoff_us_ = 0.0;
  RunningStats occupancy_;
  std::vector<LatencyPrediction> predictions_;
  std::vector<std::uint16_t> context_counts_;
};

/// Identity of a (trace, options) pair: checkpoints may only resume into —
/// and workers may only compute shards for — the exact run that produced it.
/// `die_after_partition` is deliberately excluded (see device/fault.h): the
/// resumed run is the same run minus the process death.
std::uint64_t run_fingerprint(const trace::EncodedTrace& tr,
                              const ParallelSimOptions& o, std::size_t parts);

/// Shared tail of a partitioned run: sums per-partition cycles, applies the
/// straggler/penalty terms, and computes the modeled simulated time. Fills
/// total_cycles, sim_time_us, lost_devices, and retry_backoff_us of `res`
/// (whose instruction/recovery counters are already set) and emits the
/// engine-level obs gauges.
void finalize_parallel_result(const ParallelSimOptions& opts,
                              const ShardPlan& plan,
                              const std::vector<std::uint64_t>& partition_cycles,
                              const std::vector<std::size_t>& partition_steps,
                              const std::vector<std::size_t>& partition_wasted,
                              const std::vector<std::uint32_t>& final_attempt,
                              const std::vector<std::uint8_t>& gpu_lost,
                              double backoff_us, const RunningStats& occupancy,
                              std::size_t predictor_flops,
                              ParallelSimResult& res);

}  // namespace mlsim::core
