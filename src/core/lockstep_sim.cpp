#include "core/lockstep_sim.h"

#include <algorithm>

#include "common/check.h"
#include "common/stats.h"
#include "core/cost_model.h"

namespace mlsim::core {

LockstepParallelSimulator::LockstepParallelSimulator(LatencyPredictor& predictor,
                                                     ParallelSimOptions opts)
    : predictor_(predictor), opts_(std::move(opts)) {
  check(opts_.num_subtraces > 0, "need at least one sub-trace");
  check(opts_.num_gpus > 0, "need at least one GPU");
}

ParallelSimResult LockstepParallelSimulator::run(const trace::EncodedTrace& tr) {
  ParallelSimResult res;
  const std::size_t n = tr.size();
  res.instructions = n;
  peak_batch_ = 0;
  if (n == 0) return res;

  const std::size_t P = std::min(opts_.num_subtraces, n);
  const std::size_t G = std::min(opts_.num_gpus, P);
  const std::size_t per_gpu = (P + G - 1) / G;
  const std::size_t rows = opts_.context_length + 1;
  const std::size_t cap = opts_.context_length;
  const std::size_t W = trace::kNumFeatures;

  res.boundaries = partition_boundaries(n, P);
  auto gpu_of = [&](std::size_t p) { return p / per_gpu; };

  // Per-partition state.
  std::vector<std::uint64_t> ring(P * cap, 0);
  std::vector<std::uint64_t> clock(P, 0), clock_at_body(P, 0);
  std::vector<std::size_t> cur(P), begin(P), end(P), h_begin(P);
  for (std::size_t p = 0; p < P; ++p) {
    begin[p] = res.boundaries[p];
    end[p] = res.boundaries[p + 1];
    h_begin[p] = begin[p] >= opts_.warmup ? begin[p] - opts_.warmup : 0;
    cur[p] = h_begin[p];
    res.warmup_instructions += begin[p] - h_begin[p];
  }

  std::vector<std::uint32_t> fetch_lat(n, 0);
  if (opts_.record_predictions) res.predictions.resize(n);
  if (opts_.record_context_counts) res.context_counts.resize(n, 0);

  const bool correcting = opts_.post_error_correction;
  std::vector<std::vector<std::uint16_t>> head_counts;
  if (correcting) head_counts.resize(P);
  std::vector<std::uint64_t> partition_cycles(P, 0);
  std::vector<std::size_t> partition_steps(P, 0);
  for (std::size_t p = 0; p < P; ++p) partition_steps[p] = end[p] - h_begin[p];

  RunningStats occupancy;

  // Batch scratch.
  ContextScratch scratch;
  std::vector<std::int32_t> windows(P * rows * W);
  std::vector<std::uint64_t> indices(P);
  std::vector<std::uint32_t> owner(P);
  std::vector<LatencyPrediction> preds(P);

  std::size_t active = P;
  while (active > 0) {
    // ---- Build one window per active partition (step i of every sub-trace).
    std::size_t k = 0;
    for (std::size_t p = 0; p < P; ++p) {
      if (cur[p] >= end[p]) continue;
      const std::size_t i = cur[p];
      if (i == begin[p]) clock_at_body[p] = clock[p];
      const LazyWindow lw(tr, i, h_begin[p], ring.data() + p * cap, cap, clock[p],
                          rows, scratch);
      const std::size_t head_limit =
          correcting ? std::min(opts_.correction_limit + 1, end[p] - begin[p]) : 0;
      const std::size_t cnt = lw.context_count();
      if ((i & 63) == 0) {
        occupancy.add(static_cast<double>(cnt) /
                      static_cast<double>(opts_.context_length));
      }
      if (opts_.record_context_counts && i >= begin[p]) {
        res.context_counts[i] = static_cast<std::uint16_t>(cnt);
      }
      if (correcting && i >= begin[p] && i - begin[p] < head_limit) {
        head_counts[p].push_back(static_cast<std::uint16_t>(cnt));
      }
      lw.materialize_to(windows.data() + k * rows * W);
      indices[k] = i;
      owner[k] = static_cast<std::uint32_t>(p);
      ++k;
    }
    peak_batch_ = std::max(peak_batch_, k);

    // ---- One batched inference for the whole step (Fig. 5).
    predictor_.predict_batch(windows.data(), k, rows, indices.data(), preds.data());

    // ---- Update + retire per partition.
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t p = owner[j];
      const std::size_t i = static_cast<std::size_t>(indices[j]);
      const LatencyPrediction pr = preds[j];
      retire_step(ring.data() + p * cap, cap, i, pr, clock[p]);
      if (i >= begin[p]) {
        fetch_lat[i] = pr.fetch;
        if (opts_.record_predictions) res.predictions[i] = pr;
      }
      if (++cur[p] == end[p]) {
        partition_cycles[p] = clock[p] - clock_at_body[p];
        --active;
      }
    }
  }

  // ---- Post-error correction (sequential pass over partition heads) --------
  if (correcting) {
    for (std::size_t p = 1; p < P; ++p) {
      if (gpu_of(p) != gpu_of(p - 1)) continue;
      const std::size_t b = begin[p];
      const std::size_t head_limit =
          std::min(opts_.correction_limit + 1, end[p] - b);
      std::uint64_t cclock = clock[p - 1];
      std::uint64_t* prev_ring = ring.data() + (p - 1) * cap;
      std::size_t corrected = 0;
      for (std::size_t j = 0; j < head_limit && b + j < end[p]; ++j) {
        const std::size_t i = b + j;
        const LazyWindow lw(tr, i, h_begin[p - 1], prev_ring, cap, cclock, rows,
                            scratch);
        const std::size_t cnt = lw.context_count();
        if (cnt == head_counts[p][j]) break;
        const LatencyPrediction pr = predictor_.predict_lazy(lw);
        partition_cycles[p] += pr.fetch;
        partition_cycles[p] -= fetch_lat[i];
        fetch_lat[i] = pr.fetch;
        if (opts_.record_predictions) res.predictions[i] = pr;
        if (opts_.record_context_counts) {
          res.context_counts[i] = static_cast<std::uint16_t>(cnt);
        }
        retire_step(prev_ring, cap, i, pr, cclock);
        ++corrected;
      }
      res.corrected_instructions += corrected;
      partition_steps[p - 1] += corrected;
    }
  }

  for (std::size_t p = 0; p < P; ++p) res.total_cycles += partition_cycles[p];

  std::size_t flops = predictor_.flops_per_window(rows);
  if (flops == 0) flops = opts_.assumed_flops_per_window;
  if (flops == 0) flops = simnet3c2f_flops(rows);
  const double occ = occupancy.count() ? occupancy.mean() : 0.3;
  res.sim_time_us = model_parallel_time_us(opts_, partition_steps, flops, occ);
  return res;
}

}  // namespace mlsim::core
