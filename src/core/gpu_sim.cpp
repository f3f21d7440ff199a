#include "core/gpu_sim.h"

#include <algorithm>

#include "common/check.h"
#include "obs/obs.h"

namespace mlsim::core {

GpuSimulator::GpuSimulator(LatencyPredictor& predictor, device::Device& dev,
                           GpuSimOptions opts)
    : predictor_(predictor), dev_(dev), opts_(std::move(opts)) {}

SimOutput GpuSimulator::run(const trace::EncodedTrace& trace, std::size_t begin,
                            std::size_t end) {
  if (end == 0) end = trace.size();
  check(begin <= end && end <= trace.size(), "simulation range out of bounds");

  SimOutput out;
  out.instructions = end - begin;
  if (out.instructions == 0) return out;

  MLSIM_TRACE_SPAN("gpu_sim/run");

  const std::size_t rows = opts_.context_length + 1;
  const CostModel& cm = opts_.costs;
  std::size_t flops = predictor_.flops_per_window(rows);
  if (flops == 0) flops = simnet3c2f_flops(rows);  // analytic/oracle stand-ins

  // Two simulated streams: copies and compute.
  const device::StreamId sim_stream = 0;
  const device::StreamId copy_stream = dev_.create_stream();

  // The batched H2D + compaction costs apply only when the data path is the
  // device-resident sliding window; other ablation modes charge their own.
  // The modeled queue holds the rows this engine reads in place: staging a
  // batch charges the queue's copies (charge_refill) and moves no data.
  const bool swiq_path = opts_.gpu_input_construction && opts_.sliding_window;
  RetireRing ring(opts_.context_length);
  ring.reset(begin);
  std::uint64_t last_retire = 0;
  std::vector<std::int32_t> sink_window;  // materialised window for batch_sink

  if (opts_.record_predictions) out.predictions.reserve(out.instructions);
  if (opts_.record_context_counts) out.context_counts.reserve(out.instructions);

  // Loop-invariant modeled step costs: each is the addend the step charges,
  // so every sum is the one computed step by step.
  double push_us = 0.0, construct_us = 0.0, row_h2d_us = 0.0;
  if (!opts_.gpu_input_construction) {
    // Baseline data path: host queue push + concat/pad + full-window H2D.
    push_us = cm.host_queue_push_us;
    construct_us = cm.cpu_construct_us(rows);
    row_h2d_us = cm.h2d_full_window_us(rows);
  } else if (!opts_.sliding_window) {
    // GIC only: just the new rows cross the link (staged in batches of N,
    // independent of the sliding window); a gather kernel assembles the
    // window from device-resident context rows.
    row_h2d_us = cm.h2d_batched_row_us(opts_.batch_n);
    construct_us = cm.gpu_construct_us(rows);
  } else if (!opts_.custom_conv) {
    construct_us = cm.swiq_construct_us(opts_.batch_n);
  } else {
    construct_us = cm.custom_conv_construct_us(opts_.batch_n);
  }
  const double construct_step_us = push_us + construct_us + row_h2d_us;
  // Transpose: eliminated by the custom convolution.
  const double transpose_us = opts_.custom_conv ? 0.0 : cm.transpose_us(rows);
  const double update_us = opts_.gpu_input_construction
                               ? cm.gpu_update_retire_us
                               : cm.host_update_retire_us;
  // Inference cost by context count: the valid fraction is (ctx + 1) / rows.
  std::vector<double> inference_us(rows);
  for (std::size_t ctx = 0; ctx < rows; ++ctx) {
    const double valid_fraction =
        (static_cast<double>(ctx) + 1.0) / static_cast<double>(rows);
    inference_us[ctx] = cm.inference_us(opts_.engine, flops, 1,
                                        opts_.custom_conv, valid_fraction);
  }

  StepProfile acc;
  double occupancy_sum = 0.0;
  const double t0 = dev_.synchronize();

  std::size_t next = begin;  // next trace row to stage
  for (std::size_t cur = begin; cur < end; ++cur) {
    if (opts_.cancel != nullptr) opts_.cancel->check();
    if (cur == next) {  // every staged instruction consumed: stage a batch
      MLSIM_TRACE_SPAN("gpu_sim/copy");
      MLSIM_HIST_TIMER(obs::names::kGpuSimBatchFillNs);
      MLSIM_COUNTER_ADD(obs::names::kGpuSimBatches, 1);
      const std::size_t staged = refill_rows(opts_.batch_n, end - next);
      if (swiq_path) {
        if (!opts_.pipelined) {
          // Serial flow: the copy starts only after compute is done.
          dev_.wait(copy_stream, dev_.record(sim_stream));
        }
        const double copy_start = dev_.record(copy_stream);
        charge_refill(dev_, copy_stream, /*primed=*/next > begin,
                      ring.context_count(), staged);
        const double copy_end = dev_.record(copy_stream);
        acc.h2d += copy_end - copy_start;
        // Compute consumes the batch only once it has arrived. When
        // pipelined, the copy was issued during the previous batch's
        // simulation, so this wait is usually free.
        if (obs::enabled()) {
          // Simulated time compute will spend stalled on the in-flight copy.
          const double compute_front = dev_.record(sim_stream);
          if (copy_end > compute_front) {
            MLSIM_COUNTER_ADD(
                obs::names::kGpuSimPipelineStallNs,
                static_cast<std::uint64_t>((copy_end - compute_front) * 1000.0));
          }
        }
        dev_.wait(sim_stream, copy_end);
      }
      next += staged;
    }

    // The step's window, in place over the trace rows and retire clocks;
    // its modeled construction cost is charged below.
    const LazyWindow lw = ring.view(trace, cur);
    const std::size_t ctx = lw.context_count();
    occupancy_sum += static_cast<double>(ctx) / static_cast<double>(rows - 1);
    if (opts_.record_context_counts) {
      out.context_counts.push_back(static_cast<std::uint16_t>(ctx));
    }

    // --- Input construction (+ per-mode data movement) and transpose -------
    {
      MLSIM_TRACE_SPAN("gpu_sim/input_construction");
      acc.queue_push += push_us;
      acc.input_construct += construct_us;
      acc.h2d += row_h2d_us;
      dev_.advance(sim_stream, construct_step_us);
      if (!opts_.custom_conv) {
        acc.transpose += transpose_us;
        dev_.advance(sim_stream, transpose_us);
      }
    }

    // --- Inference ------------------------------------------------------------
    LatencyPrediction p;
    {
      MLSIM_TRACE_SPAN("gpu_sim/inference");
      acc.inference += inference_us[ctx];
      dev_.advance(sim_stream, inference_us[ctx]);

      // Functional prediction — real computation, identical across all cost
      // toggles (the toggles change only where/so-how-fast steps run).
      if (opts_.batch_sink != nullptr) {
        lw.materialize(sink_window);
        p = opts_.batch_sink->predict_via(sink_window.data(), rows, cur);
      } else {
        p = predictor_.predict_lazy(lw);
      }
    }
    last_retire = std::max(last_retire, ring.retire(p));
    if (opts_.record_predictions) out.predictions.push_back(p);

    // --- Update + retire --------------------------------------------------------
    acc.update_retire += update_us;
    dev_.advance(sim_stream, update_us);
  }

  out.cycles = std::max(ring.clock(), last_retire);  // includes the drain
  out.sim_time_us = dev_.synchronize() - t0;
  const double n = static_cast<double>(out.instructions);
  out.profile = {acc.queue_push / n, acc.input_construct / n, acc.h2d / n,
                 acc.transpose / n,  acc.inference / n,       acc.update_retire / n};
  out.avg_context_occupancy = occupancy_sum / n;
  if (obs::enabled()) {
    const auto to_ns = [](double us) {
      return static_cast<std::uint64_t>(us * 1000.0);
    };
    MLSIM_COUNTER_ADD(obs::names::kGpuSimInstructions, out.instructions);
    MLSIM_COUNTER_ADD(obs::names::kGpuSimInputConstructNs,
                      to_ns(acc.queue_push + acc.input_construct + acc.transpose));
    MLSIM_COUNTER_ADD(obs::names::kGpuSimInferenceNs, to_ns(acc.inference));
    MLSIM_COUNTER_ADD(obs::names::kGpuSimCopyNs, to_ns(acc.h2d));
    MLSIM_GAUGE_SET(obs::names::kGpuSimContextOccupancy,
                    out.avg_context_occupancy);
  }
  return out;
}

}  // namespace mlsim::core
