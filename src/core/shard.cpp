#include "core/shard.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "obs/obs.h"

namespace mlsim::core {

std::uint64_t run_fingerprint(const trace::EncodedTrace& tr,
                              const ParallelSimOptions& o, std::size_t parts) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  auto mixd = [&](double d) { mix(std::bit_cast<std::uint64_t>(d)); };
  mix(tr.size());
  for (const char c : tr.benchmark()) mix(static_cast<unsigned char>(c));
  // Hash every feature and label, not a sample. The fingerprint keys the
  // shard-result cache and the run journal: two traces over the same
  // benchmark that differ only in mid-trace hit-level features (exactly what
  // a sweep axis over cache geometry produces — first and last instructions
  // typically coincide) must not collide, or a cached result from one config
  // is silently served for another. Results depend on the labels too
  // (warmup + post-error correction read ground truth), so they are mixed in
  // as well. Cost is one pass over data the caller is about to encode or
  // simulate anyway.
  for (const std::int32_t v : tr.raw_features()) {
    mix(static_cast<std::uint32_t>(v));
  }
  for (const std::uint32_t v : tr.raw_targets()) mix(v);
  mix(parts);
  mix(o.num_gpus);
  mix(o.context_length);
  mix(o.warmup);
  mix(o.post_error_correction ? 1 : 0);
  mix(o.correction_limit);
  mix(o.record_predictions ? 1 : 0);
  mix(o.record_context_counts ? 1 : 0);
  mix(o.anomaly_latency_limit);
  mix(o.max_retries_per_partition);
  mixd(o.retry_backoff_us);
  if (o.faults != nullptr && o.faults->enabled()) {
    const device::FaultOptions& f = o.faults->options();
    mix(f.seed);
    mixd(f.device_kill_rate);
    mixd(f.straggler_rate);
    mixd(f.straggler_slowdown);
    mixd(f.output_corrupt_rate);
  }
  return h;
}

ShardPlan ShardPlan::make(std::size_t n, const ParallelSimOptions& opts) {
  ShardPlan plan;
  plan.instructions = n;
  plan.parts = std::min(opts.num_subtraces, n);
  plan.gpus = std::min(opts.num_gpus, plan.parts);
  plan.per_gpu = (plan.parts + plan.gpus - 1) / plan.gpus;
  plan.num_shards = (plan.parts + plan.per_gpu - 1) / plan.per_gpu;
  plan.boundaries = partition_boundaries(n, plan.parts);
  return plan;
}

ShardEngine::ShardEngine(LatencyPredictor& predictor,
                         const trace::EncodedTrace& trace,
                         const ParallelSimOptions& opts, const ShardPlan& plan)
    : predictor_(predictor),
      trace_(trace),
      opts_(opts),
      plan_(plan),
      ring_(opts.context_length) {
  faults_ = (opts_.faults != nullptr && opts_.faults->enabled()) ? opts_.faults
                                                                 : nullptr;
  const std::size_t P = plan_.parts;
  partition_cycles.assign(P, 0);
  partition_steps.assign(P, 0);
  partition_wasted.assign(P, 0);
  final_attempt.assign(P, 0);
  degraded.assign(P, 0);
  failed.assign(P, 0);
  gpu_lost.assign(plan_.gpus, 0);
  fetch_lat_.assign(plan_.instructions, 0);
  if (opts_.post_error_correction) head_counts_.resize(P);
  if (opts_.record_predictions) predictions.resize(plan_.instructions);
  if (opts_.record_context_counts) context_counts.assign(plan_.instructions, 0);
}

// Charge one exponential-backoff step and consume one unit of the retry
// budget; throws CheckError once the partition is out of budget.
void ShardEngine::charge_retry(std::size_t part, std::size_t& attempt,
                               const char* why) {
  check(attempt < opts_.max_retries_per_partition,
        "partition " + std::to_string(part) + " retry budget (" +
            std::to_string(opts_.max_retries_per_partition) +
            ") exhausted; last failure: " + why);
  backoff_us +=
      opts_.retry_backoff_us * std::ldexp(1.0, static_cast<int>(attempt));
  ++retries;
  ++attempt;
  MLSIM_COUNTER_ADD(obs::names::kParSimRetries, 1);
}

void ShardEngine::run_partition(std::size_t p) {
  MLSIM_TRACE_SPAN("parallel_sim/partition");
  MLSIM_HIST_TIMER(obs::names::kParSimPartitionNs);
  const std::size_t rows = opts_.context_length + 1;
  const std::uint32_t limit = opts_.anomaly_latency_limit;
  const bool correcting = opts_.post_error_correction;
  const std::size_t b = plan_.boundaries[p], e = plan_.boundaries[p + 1];
  const std::size_t h_begin = b >= opts_.warmup ? b - opts_.warmup : 0;
  const std::size_t head_limit =
      correcting ? std::min(opts_.correction_limit + 1, e - b) : 0;

  std::size_t attempt = 0;

  for (;;) {  // attempt loop: body + re-warmup until an attempt survives
    // Kill decisions are pure in (partition, attempt), so a doomed attempt
    // is known up front: its results would be discarded anyway, so only
    // the modeled cost of the partial body is charged.
    if (faults_ != nullptr) {
      if (const auto kp = faults_->kill_point(p, attempt)) {
        const std::size_t body = e - h_begin;
        const std::size_t wasted = std::min(
            body, std::max<std::size_t>(
                      1, static_cast<std::size_t>(std::llround(
                             *kp * static_cast<double>(body)))));
        partition_wasted[p] += wasted;
        gpu_lost[plan_.gpu_of(p)] = 1;
        if (!failed[p]) {
          failed[p] = 1;
          failed_list.push_back(p);
        }
        MLSIM_COUNTER_ADD(obs::names::kParSimDeviceKills, 1);
        charge_retry(p, attempt, "device kill");
        continue;  // requeued: next attempt re-warms from h_begin
      }
    }

    warmup_instructions += b - h_begin;  // re-warmup is real extra work
    if (correcting) {
      head_counts_[p].clear();
      head_counts_[p].reserve(head_limit);
    }
    ring_.reset(h_begin);
    std::uint64_t clock_at_body = 0;
    LatencyPredictor& active = degraded[p] ? *opts_.fallback : predictor_;
    const bool corrupting = faults_ != nullptr && !degraded[p] &&
                            faults_->options().output_corrupt_rate > 0.0;
    bool anomaly = false;

    for (std::size_t i = h_begin; i < e; ++i) {
      if (opts_.cancel != nullptr) opts_.cancel->check();
      if (i == b) clock_at_body = ring_.clock();
      const LazyWindow lw = ring_.view(trace_, i);
      const std::size_t cnt = lw.context_count();
      if ((i & 63) == 0) {
        occupancy.add(static_cast<double>(cnt) /
                      static_cast<double>(opts_.context_length));
      }
      if (opts_.record_context_counts && i >= b) {
        context_counts[i] = static_cast<std::uint16_t>(cnt);
      }
      if (correcting && i >= b && i - b < head_limit) {
        head_counts_[p].push_back(static_cast<std::uint16_t>(cnt));
      }

      // Degraded partitions run on the fallback predictor and must bypass
      // the batching sink, which only fronts the primary.
      LatencyPrediction pr;
      if (opts_.batch_sink != nullptr && !degraded[p]) {
        lw.materialize(sink_window_);
        pr = opts_.batch_sink->predict_via(sink_window_.data(), rows, i);
      } else {
        pr = active.predict_lazy(lw);
      }
      if (corrupting && faults_->corrupts(p, attempt, i)) {
        const device::CorruptLatencies g =
            faults_->corrupt_latencies(p, attempt, i);
        pr = {g.fetch, g.exec, g.store};
      }
      if (limit != 0 &&
          (pr.fetch > limit || pr.exec > limit || pr.store > limit)) {
        // Anomalous inference output (a NaN/garbage latency would poison
        // the final Clock gather). Abort the attempt and requeue the
        // partition on the fallback predictor (degraded mode).
        MLSIM_COUNTER_ADD(obs::names::kParSimAnomalies, 1);
        check(!degraded[p], "anomalous prediction from the fallback "
                            "predictor on partition " + std::to_string(p));
        check(opts_.fallback != nullptr,
              "anomalous prediction on partition " + std::to_string(p) +
                  " and no fallback predictor configured");
        partition_wasted[p] += i - h_begin + 1;
        degraded[p] = 1;
        degraded_list.push_back(p);
        anomaly = true;
        break;
      }
      ring_.retire(pr);
      if (i >= b) {
        fetch_lat_[i] = pr.fetch;
        if (opts_.record_predictions) predictions[i] = pr;
      }
    }
    if (anomaly) {
      charge_retry(p, attempt, "anomalous inference output");
      continue;
    }
    partition_cycles[p] = ring_.clock() - clock_at_body;
    break;
  }
  final_attempt[p] = static_cast<std::uint32_t>(attempt);
  partition_steps[p] += e - h_begin;

  // ---- Post-error correction of this partition's head -----------------------
  if (correcting && p > 0 && plan_.gpu_of(p) == plan_.gpu_of(p - 1) &&
      prev.has_value()) {
    MLSIM_TRACE_SPAN("parallel_sim/correction");
    // Corrections belong to this partition's predictions, so a degraded
    // partition is corrected by its fallback predictor too.
    LatencyPredictor& corr_pred = degraded[p] ? *opts_.fallback : predictor_;
    std::size_t corrected = 0;
    for (std::size_t j = 0; j < head_limit && b + j < e; ++j) {
      const std::size_t i = b + j;
      const LazyWindow lw = prev->view(trace_, i);
      const std::size_t cnt = lw.context_count();
      if (cnt == head_counts_[p][j]) break;  // contexts converged
      LatencyPrediction pr;
      if (opts_.batch_sink != nullptr && !degraded[p]) {
        lw.materialize(sink_window_);
        pr = opts_.batch_sink->predict_via(sink_window_.data(), rows, i);
      } else {
        pr = corr_pred.predict_lazy(lw);
      }
      // Replace the head prediction; keep the partition totals consistent.
      partition_cycles[p] += pr.fetch;
      partition_cycles[p] -= fetch_lat_[i];
      fetch_lat_[i] = pr.fetch;
      if (opts_.record_predictions) predictions[i] = pr;
      if (opts_.record_context_counts) {
        context_counts[i] = static_cast<std::uint16_t>(cnt);
      }
      prev->retire(pr);
      ++corrected;
    }
    corrected_instructions += corrected;
    partition_steps[p - 1] += corrected;  // the *previous* partition re-simulates
  }

  // Snapshot this partition's end state for correcting the next one.
  if (opts_.post_error_correction) prev = ring_;
  MLSIM_COUNTER_ADD(obs::names::kParSimPartitionsDone, 1);
}

ShardOutcome ShardEngine::block_outcome(std::size_t part_lo,
                                        std::size_t part_hi) const {
  check(part_lo < part_hi && part_hi <= plan_.parts, "invalid block range");
  ShardOutcome o;
  o.part_lo = part_lo;
  o.part_hi = part_hi;
  const auto lo = static_cast<std::ptrdiff_t>(part_lo);
  const auto hi = static_cast<std::ptrdiff_t>(part_hi);
  o.partition_cycles.assign(partition_cycles.begin() + lo,
                            partition_cycles.begin() + hi);
  o.partition_steps.assign(partition_steps.begin() + lo,
                           partition_steps.begin() + hi);
  o.partition_wasted.assign(partition_wasted.begin() + lo,
                            partition_wasted.begin() + hi);
  o.final_attempt.assign(final_attempt.begin() + lo, final_attempt.begin() + hi);
  o.failed_partitions.assign(failed_list.begin(), failed_list.end());
  o.degraded_partitions.assign(degraded_list.begin(), degraded_list.end());
  o.warmup_instructions = warmup_instructions;
  o.corrected_instructions = corrected_instructions;
  o.retries = retries;
  o.backoff_us = backoff_us;
  o.gpu_lost = gpu_lost[plan_.gpu_of(part_lo)];
  o.occupancy = occupancy.state();
  const std::size_t i_lo = plan_.boundaries[part_lo];
  const std::size_t i_hi = plan_.boundaries[part_hi];
  if (opts_.record_predictions) {
    o.predictions.assign(predictions.begin() + static_cast<std::ptrdiff_t>(i_lo),
                         predictions.begin() + static_cast<std::ptrdiff_t>(i_hi));
  }
  if (opts_.record_context_counts) {
    o.context_counts.assign(
        context_counts.begin() + static_cast<std::ptrdiff_t>(i_lo),
        context_counts.begin() + static_cast<std::ptrdiff_t>(i_hi));
  }
  return o;
}

ShardMerger::ShardMerger(const ShardPlan& plan, bool record_predictions,
                         bool record_context_counts)
    : plan_(plan) {
  partition_cycles_.assign(plan_.parts, 0);
  partition_steps_.assign(plan_.parts, 0);
  partition_wasted_.assign(plan_.parts, 0);
  final_attempt_.assign(plan_.parts, 0);
  gpu_lost_.assign(plan_.gpus, 0);
  if (record_predictions) predictions_.resize(plan_.instructions);
  if (record_context_counts) context_counts_.assign(plan_.instructions, 0);
}

void ShardMerger::add(const ShardOutcome& o) {
  const std::size_t lo = o.part_lo, hi = o.part_hi;
  check(lo < hi && hi <= plan_.parts, "shard outcome range out of plan");
  check(o.partition_cycles.size() == hi - lo &&
            o.partition_steps.size() == hi - lo &&
            o.partition_wasted.size() == hi - lo &&
            o.final_attempt.size() == hi - lo,
        "shard outcome shape mismatch");
  for (std::size_t k = 0; k < hi - lo; ++k) {
    partition_cycles_[lo + k] = o.partition_cycles[k];
    partition_steps_[lo + k] = o.partition_steps[k];
    partition_wasted_[lo + k] = o.partition_wasted[k];
    final_attempt_[lo + k] = o.final_attempt[k];
  }
  for (const std::uint64_t p : o.failed_partitions) {
    check(p >= lo && p < hi, "failed partition outside shard range");
    failed_.push_back(static_cast<std::size_t>(p));
  }
  for (const std::uint64_t p : o.degraded_partitions) {
    check(p >= lo && p < hi, "degraded partition outside shard range");
    degraded_.push_back(static_cast<std::size_t>(p));
  }
  warmup_ += o.warmup_instructions;
  corrected_ += o.corrected_instructions;
  retries_ += o.retries;
  backoff_us_ += o.backoff_us;
  if (o.gpu_lost) gpu_lost_[plan_.gpu_of(lo)] = 1;
  occupancy_.merge(RunningStats::restore(o.occupancy));
  const std::size_t i_lo = plan_.boundaries[lo];
  const std::size_t i_hi = plan_.boundaries[hi];
  if (!predictions_.empty()) {
    check(o.predictions.size() == i_hi - i_lo,
          "shard outcome prediction range mismatch");
    std::copy(o.predictions.begin(), o.predictions.end(),
              predictions_.begin() + static_cast<std::ptrdiff_t>(i_lo));
  }
  if (!context_counts_.empty()) {
    check(o.context_counts.size() == i_hi - i_lo,
          "shard outcome context-count range mismatch");
    std::copy(o.context_counts.begin(), o.context_counts.end(),
              context_counts_.begin() + static_cast<std::ptrdiff_t>(i_lo));
  }
  covered_ += hi - lo;
}

ParallelSimResult ShardMerger::finish(const ParallelSimOptions& opts,
                                      std::size_t predictor_flops) const {
  check(complete(), "cannot finish a merge with uncovered partitions");
  ParallelSimResult res;
  res.instructions = plan_.instructions;
  res.boundaries = plan_.boundaries;
  res.warmup_instructions = warmup_;
  res.corrected_instructions = corrected_;
  res.retries = retries_;
  res.failed_partitions = failed_;
  res.degraded_partitions = degraded_;
  res.predictions = predictions_;
  res.context_counts = context_counts_;
  finalize_parallel_result(opts, plan_, partition_cycles_, partition_steps_,
                           partition_wasted_, final_attempt_, gpu_lost_,
                           backoff_us_, occupancy_, predictor_flops, res);
  return res;
}

void finalize_parallel_result(const ParallelSimOptions& opts,
                              const ShardPlan& plan,
                              const std::vector<std::uint64_t>& partition_cycles,
                              const std::vector<std::size_t>& partition_steps,
                              const std::vector<std::size_t>& partition_wasted,
                              const std::vector<std::uint32_t>& final_attempt,
                              const std::vector<std::uint8_t>& gpu_lost,
                              double backoff_us, const RunningStats& occupancy,
                              std::size_t predictor_flops,
                              ParallelSimResult& res) {
  const std::size_t P = plan.parts;
  const std::size_t rows = opts.context_length + 1;
  const device::FaultInjector* faults =
      (opts.faults != nullptr && opts.faults->enabled()) ? opts.faults : nullptr;

  res.total_cycles = 0;
  for (std::size_t p = 0; p < P; ++p) res.total_cycles += partition_cycles[p];

  // ---- Simulated-time model (lockstep batched inference per GPU) ------------
  // Stragglers stretch a partition's successful pass; steps burnt by killed
  // or anomaly-aborted attempts add on top.
  std::vector<std::size_t> modeled_steps(P);
  for (std::size_t p = 0; p < P; ++p) {
    const double f =
        faults != nullptr ? faults->straggler_factor(p, final_attempt[p]) : 1.0;
    modeled_steps[p] =
        static_cast<std::size_t>(std::llround(
            static_cast<double>(partition_steps[p]) * f)) +
        partition_wasted[p];
  }
  ParallelTimePenalties penalties;
  for (const std::uint8_t lost : gpu_lost) penalties.lost_devices += lost;
  // At least one device always survives to drain the requeued partitions.
  penalties.lost_devices = std::min(penalties.lost_devices, plan.gpus - 1);
  penalties.backoff_us = backoff_us;
  res.lost_devices = penalties.lost_devices;
  res.retry_backoff_us = backoff_us;

  std::size_t flops = predictor_flops;
  if (flops == 0) flops = opts.assumed_flops_per_window;
  if (flops == 0) flops = simnet3c2f_flops(rows);
  const double occ = occupancy.count() ? occupancy.mean() : 0.3;
  res.sim_time_us =
      model_parallel_time_us(opts, modeled_steps, flops, occ, penalties);
  if (obs::enabled()) {
    MLSIM_COUNTER_ADD(obs::names::kParSimInstructions, plan.instructions);
    MLSIM_COUNTER_ADD(obs::names::kParSimWarmupInstructions,
                      res.warmup_instructions);
    MLSIM_COUNTER_ADD(obs::names::kParSimCorrectedInstructions,
                      res.corrected_instructions);
    MLSIM_COUNTER_ADD(obs::names::kParSimDegradedPartitions,
                      res.degraded_partitions.size());
    MLSIM_GAUGE_SET(obs::names::kParSimLostDevices,
                    static_cast<double>(res.lost_devices));
    for (std::size_t p = 0; p < P; ++p) {
      MLSIM_HIST_RECORD(obs::names::kParSimAttemptsPerPartition,
                        static_cast<double>(final_attempt[p]) + 1.0);
    }
    // Mean valid fraction of the lockstep batch window — what the modeled
    // per-GPU batched inference actually occupies.
    MLSIM_GAUGE_SET(obs::names::kParSimBatchOccupancy, occ);
  }
}

}  // namespace mlsim::core
