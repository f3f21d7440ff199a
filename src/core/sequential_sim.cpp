#include "core/sequential_sim.h"

#include <algorithm>

#include "common/check.h"

namespace mlsim::core {

SequentialSimulator::SequentialSimulator(LatencyPredictor& predictor,
                                         SequentialSimOptions opts)
    : predictor_(predictor), opts_(std::move(opts)) {}

SimOutput SequentialSimulator::run(const trace::EncodedTrace& trace,
                                   std::size_t begin, std::size_t end) {
  if (end == 0) end = trace.size();
  check(begin <= end && end <= trace.size(), "simulation range out of bounds");

  const std::size_t rows = opts_.context_length + 1;
  const CostModel& cm = opts_.costs;
  RetireRing ring(opts_.context_length);
  ring.reset(begin);
  std::uint64_t last_retire = 0;
  std::vector<std::int32_t> sink_window;  // materialised window for batch_sink

  SimOutput out;
  out.instructions = end - begin;
  if (opts_.record_predictions) out.predictions.reserve(out.instructions);
  if (opts_.record_context_counts) out.context_counts.reserve(out.instructions);

  std::size_t flops = predictor_.flops_per_window(rows);
  if (flops == 0) flops = simnet3c2f_flops(rows);  // analytic/oracle stand-ins
  // Every modeled step cost is loop-invariant in the baseline flow.
  const double push_us = cm.host_queue_push_us;
  const double construct_us = cm.cpu_construct_us(rows);
  const double h2d_us = cm.h2d_full_window_us(rows);
  const double transpose_us = cm.transpose_us(rows);
  const double inference_us =
      cm.inference_us(opts_.engine, flops, 1, /*custom_conv=*/false, 1.0);
  const double update_us = cm.host_update_retire_us;
  StepProfile acc;

  for (std::size_t i = begin; i < end; ++i) {
    if (opts_.cancel != nullptr) opts_.cancel->check();
    // The modeled flow copies the window; the host reads it in place.
    const LazyWindow lw = ring.view(trace, i);
    if (opts_.record_context_counts) {
      out.context_counts.push_back(static_cast<std::uint16_t>(lw.context_count()));
    }
    // Copies 1+2 (host).
    acc.queue_push += push_us;
    acc.input_construct += construct_us;
    // Copy 3: full window H2D.
    acc.h2d += h2d_us;
    // Copy 4: transpose kernel.
    acc.transpose += transpose_us;
    // Inference.
    acc.inference += inference_us;
    LatencyPrediction p;
    if (opts_.batch_sink != nullptr) {
      lw.materialize(sink_window);
      p = opts_.batch_sink->predict_via(sink_window.data(), rows, i);
    } else {
      p = predictor_.predict_lazy(lw);
    }
    // Update + retire (host in the baseline flow).
    last_retire = std::max(last_retire, ring.retire(p));
    acc.update_retire += update_us;

    if (opts_.record_predictions) out.predictions.push_back(p);
  }

  out.cycles = std::max(ring.clock(), last_retire);  // includes the drain
  out.sim_time_us = acc.total();
  const double n = static_cast<double>(out.instructions ? out.instructions : 1);
  out.profile = {acc.queue_push / n, acc.input_construct / n, acc.h2d / n,
                 acc.transpose / n,  acc.inference / n,       acc.update_retire / n};
  return out;
}

}  // namespace mlsim::core
