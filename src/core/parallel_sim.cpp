#include "core/parallel_sim.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stats.h"
#include "core/checkpoint.h"
#include "core/shard.h"
#include "obs/obs.h"

namespace mlsim::core {

ParallelSimulator::ParallelSimulator(LatencyPredictor& predictor,
                                     ParallelSimOptions opts)
    : predictor_(predictor), opts_(std::move(opts)) {
  check(opts_.num_subtraces > 0, "need at least one sub-trace");
  check(opts_.num_gpus > 0, "need at least one GPU");
  check(opts_.context_length > 0, "context length must be positive");
  check(opts_.retry_backoff_us >= 0.0, "retry backoff must be non-negative");
  check(!opts_.resume || !opts_.checkpoint_path.empty(),
        "resume requires a checkpoint path");
}

double ParallelSimulator::cpi_error_percent(double sequential_cpi,
                                            double parallel_cpi) {
  return signed_percent_error(sequential_cpi, parallel_cpi);
}

std::vector<std::size_t> partition_boundaries(std::size_t n, std::size_t parts) {
  check(parts > 0 && parts <= n, "invalid partition count");
  std::vector<std::size_t> out(parts + 1);
  const std::size_t base = n / parts, rem = n % parts;
  std::size_t pos = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    out[p] = pos;
    pos += base + (p < rem ? 1 : 0);
  }
  out[parts] = pos;
  return out;
}

double model_parallel_time_us(const ParallelSimOptions& opts,
                              const std::vector<std::size_t>& partition_steps,
                              std::size_t flops_per_window,
                              double avg_context_occupancy,
                              const ParallelTimePenalties& penalties) {
  const CostModel& cm = opts.costs;
  const std::size_t P = partition_steps.size();
  // Killed device slots drop out of the pool; their partitions requeue onto
  // the survivors, so the per-GPU resident-batch and step counts grow.
  const std::size_t G_full = std::min(opts.num_gpus, P);
  const std::size_t G =
      G_full - std::min(penalties.lost_devices, G_full - 1);
  const std::size_t per_gpu = (P + G - 1) / G;
  const std::size_t rows = opts.context_length + 1;

  double slowest = 0.0;
  for (std::size_t g = 0; g < G; ++g) {
    const std::size_t p_lo = g * per_gpu;
    const std::size_t p_hi = std::min(P, p_lo + per_gpu);
    if (p_lo >= p_hi) continue;
    const std::size_t batch = p_hi - p_lo;
    std::size_t steps = 0;
    for (std::size_t p = p_lo; p < p_hi; ++p) {
      steps = std::max(steps, partition_steps[p]);
    }
    // One fused kernel set per step covers all resident sub-traces, so the
    // launch overheads amortise across the batch; the per-window work
    // (strided gather, H2D row staging, update/retire) stays per-partition.
    const double launches = 3.0 * cm.gpu.launch_us;
    const double per_window =
        cm.custom_conv_gather_us +
        (cm.h2d_batched_row_us(opts.batch_n) -
         cm.gpu.h2d_lat_us / static_cast<double>(opts.batch_n)) +
        cm.gpu_update_retire_us;
    const double per_step_us =
        launches + static_cast<double>(batch) * per_window +
        cm.inference_us(opts.engine, flops_per_window, batch,
                        /*custom_conv=*/true,
                        avg_context_occupancy + 1.0 / static_cast<double>(rows));
    slowest = std::max(slowest, static_cast<double>(steps) * per_step_us);
  }
  return slowest + penalties.backoff_us +
         device::allreduce_time_us(G, per_gpu * sizeof(std::uint64_t));
}

ParallelSimResult ParallelSimulator::run(const trace::EncodedTrace& trace) {
  ParallelSimResult res;
  const std::size_t n = trace.size();
  res.instructions = n;
  if (n == 0) return res;

  MLSIM_TRACE_SPAN("parallel_sim/run");

  const ShardPlan plan = ShardPlan::make(n, opts_);
  const std::size_t P = plan.parts;
  const std::size_t G = plan.gpus;
  const std::size_t cap = opts_.context_length;  // retire-ring capacity
  res.boundaries = plan.boundaries;

  ShardEngine engine(predictor_, trace, opts_, plan);
  std::size_t start_p = 0;

  const bool checkpointing = !opts_.checkpoint_path.empty();
  // Only checkpoints need the run's identity; hashing every trace row costs
  // a sizable share of a short run.
  const std::uint64_t fp = checkpointing ? run_fingerprint(trace, opts_, P) : 0;

  // ---- resume ---------------------------------------------------------------
  if (checkpointing && opts_.resume) {
    ParallelCheckpoint ck;
    bool have_checkpoint = false;
    try {
      have_checkpoint = load_checkpoint(opts_.checkpoint_path, ck);
      if (have_checkpoint) {
        // Validate everything before restoring any state, so lenient mode
        // can fall back to a pristine clean start.
        check(ck.fingerprint == fp,
              "checkpoint was written by a different trace/options: " +
                  opts_.checkpoint_path.string());
        check(ck.num_partitions == P && ck.ring_capacity == cap &&
                  ck.gpu_lost.size() == G,
              "checkpoint shape mismatch: " + opts_.checkpoint_path.string());
        const std::size_t prefix = res.boundaries[ck.next_partition];
        check(ck.prev_ring.empty() || ck.prev_oldest <= prefix,
              "checkpoint ring history starts past its partition: " +
                  opts_.checkpoint_path.string());
        if (opts_.record_predictions) {
          check(ck.predictions.size() == 3 * prefix,
                "checkpoint prediction prefix mismatch: " +
                    opts_.checkpoint_path.string());
        }
        if (opts_.record_context_counts) {
          check(ck.context_counts.size() == prefix,
                "checkpoint context-count prefix mismatch: " +
                    opts_.checkpoint_path.string());
        }
      }
    } catch (const CheckError& e) {
      if (!opts_.resume_lenient) throw;
      res.resume_error = e.what();
      have_checkpoint = false;
    }
    if (have_checkpoint) {
      start_p = ck.next_partition;
      engine.warmup_instructions = ck.warmup_instructions;
      engine.corrected_instructions = ck.corrected_instructions;
      engine.retries = ck.retries;
      engine.backoff_us = ck.backoff_us;
      engine.occupancy = RunningStats::restore(ck.occupancy);
      if (!ck.prev_ring.empty()) {
        // The one full counting pass: rebuilds the in-flight tracker.
        engine.prev.emplace(cap);
        engine.prev->restore(ck.prev_ring, ck.prev_clock, ck.prev_oldest,
                             res.boundaries[start_p]);
      }
      std::copy(ck.partition_cycles.begin(), ck.partition_cycles.end(),
                engine.partition_cycles.begin());
      for (std::size_t p = 0; p < P; ++p) {
        engine.partition_steps[p] = ck.partition_steps[p];
        engine.partition_wasted[p] = ck.partition_wasted[p];
        engine.final_attempt[p] = ck.final_attempt[p];
      }
      for (const std::uint64_t p : ck.failed_partitions) {
        engine.failed[p] = 1;
        engine.failed_list.push_back(p);
      }
      for (const std::uint64_t p : ck.degraded_partitions) {
        engine.degraded[p] = 1;
        engine.degraded_list.push_back(p);
      }
      engine.gpu_lost = ck.gpu_lost;
      const std::size_t prefix = res.boundaries[start_p];
      if (opts_.record_predictions) {
        for (std::size_t i = 0; i < prefix; ++i) {
          engine.predictions[i] = {ck.predictions[3 * i],
                                   ck.predictions[3 * i + 1],
                                   ck.predictions[3 * i + 2]};
        }
      }
      if (opts_.record_context_counts) {
        std::copy(ck.context_counts.begin(), ck.context_counts.end(),
                  engine.context_counts.begin());
      }
      res.resumed = true;
    }
  }

  auto write_checkpoint = [&](std::size_t next_p) {
    ParallelCheckpoint ck;
    ck.fingerprint = fp;
    ck.next_partition = next_p;
    ck.num_partitions = P;
    ck.ring_capacity = cap;
    ck.warmup_instructions = engine.warmup_instructions;
    ck.corrected_instructions = engine.corrected_instructions;
    ck.retries = engine.retries;
    ck.backoff_us = engine.backoff_us;
    ck.occupancy = engine.occupancy.state();
    if (engine.prev) {
      ck.prev_clock = engine.prev->clock();
      ck.prev_oldest = engine.prev->oldest();
      ck.prev_ring.assign(engine.prev->slots().begin(),
                          engine.prev->slots().end());
    }
    ck.partition_cycles = engine.partition_cycles;
    ck.partition_steps.assign(engine.partition_steps.begin(),
                              engine.partition_steps.end());
    ck.partition_wasted.assign(engine.partition_wasted.begin(),
                               engine.partition_wasted.end());
    ck.final_attempt = engine.final_attempt;
    ck.failed_partitions.assign(engine.failed_list.begin(),
                                engine.failed_list.end());
    ck.degraded_partitions.assign(engine.degraded_list.begin(),
                                  engine.degraded_list.end());
    ck.gpu_lost = engine.gpu_lost;
    const std::size_t prefix = res.boundaries[next_p];
    if (opts_.record_predictions) {
      ck.predictions.reserve(3 * prefix);
      for (std::size_t i = 0; i < prefix; ++i) {
        ck.predictions.push_back(engine.predictions[i].fetch);
        ck.predictions.push_back(engine.predictions[i].exec);
        ck.predictions.push_back(engine.predictions[i].store);
      }
    }
    if (opts_.record_context_counts) {
      ck.context_counts.assign(engine.context_counts.begin(),
                               engine.context_counts.begin() +
                                   static_cast<std::ptrdiff_t>(prefix));
    }
    save_checkpoint(opts_.checkpoint_path, ck);
    MLSIM_COUNTER_ADD(obs::names::kParSimCheckpointWrites, 1);
  };

  const device::FaultInjector* faults =
      (opts_.faults != nullptr && opts_.faults->enabled()) ? opts_.faults
                                                           : nullptr;
  for (std::size_t p = start_p; p < P; ++p) {
    engine.run_partition(p);
    const std::size_t done = p + 1;
    if (checkpointing &&
        (done == P ||
         done % std::max<std::size_t>(1, opts_.checkpoint_interval) == 0)) {
      write_checkpoint(done);
    }
    if (faults != nullptr && faults->dies_after(done)) {
      throw device::InjectedCrash("injected process death after partition " +
                                  std::to_string(p));
    }
  }

  res.warmup_instructions = engine.warmup_instructions;
  res.corrected_instructions = engine.corrected_instructions;
  res.retries = engine.retries;
  res.failed_partitions = engine.failed_list;
  res.degraded_partitions = engine.degraded_list;
  res.predictions = std::move(engine.predictions);
  res.context_counts = std::move(engine.context_counts);

  finalize_parallel_result(opts_, plan, engine.partition_cycles,
                           engine.partition_steps, engine.partition_wasted,
                           engine.final_attempt, engine.gpu_lost,
                           engine.backoff_us, engine.occupancy,
                           predictor_.flops_per_window(opts_.context_length + 1),
                           res);

  // The run completed: a stale checkpoint must not hijack a future run.
  if (checkpointing) {
    std::error_code ec;
    std::filesystem::remove(opts_.checkpoint_path, ec);
  }
  return res;
}

}  // namespace mlsim::core
