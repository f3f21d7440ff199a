// Latency-predictor interface plus the oracle reference implementation.
//
// Implementations:
//   - AnalyticPredictor (analytic_predictor.h): deterministic, context-
//     sensitive model mirroring the OoO machine's latency algebra; fast
//     enough for multi-million-instruction parallel-error studies.
//   - CnnPredictor (cnn_predictor.h): the trained SimNet 3C+2F network.
//   - OraclePredictor (below): replays ground-truth labels by instruction
//     index; context-independent by construction, so it is the negative
//     control for parallel-simulation error (partitioning must produce
//     exactly zero error with it).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/window.h"
#include "device/gpu_spec.h"
#include "trace/trace.h"

namespace mlsim::core {

class LatencyPredictor {
 public:
  virtual ~LatencyPredictor() = default;

  /// Predict the three latencies of the instruction in window row 0.
  /// `global_index` is the instruction's index in the full trace (used only
  /// by the oracle; ML predictors ignore it).
  virtual LatencyPrediction predict(const WindowView& window,
                                    std::uint64_t global_index) = 0;

  /// Batched prediction (default: loop). Batch layout: `batch` consecutive
  /// windows of `rows` rows each.
  virtual void predict_batch(const std::int32_t* windows, std::size_t batch,
                             std::size_t rows, const std::uint64_t* global_indices,
                             LatencyPrediction* out);

  /// Prediction from the in-place window view — the call every engine
  /// makes for a single window. The default materialises the window and
  /// calls predict(); predictors that can read the view in place (the
  /// analytic model — and, on real hardware, the custom convolution path)
  /// override this to skip the copy.
  virtual LatencyPrediction predict_lazy(const LazyWindow& window);

  /// FLOPs per single-window inference (drives the device cost model;
  /// 0 for non-neural predictors).
  virtual std::size_t flops_per_window(std::size_t rows) const = 0;

  /// Which device inference engine this predictor models.
  virtual device::Engine engine() const { return device::Engine::kTensorRT; }

  /// True when predict_lazy may run on several threads at once: the
  /// predictor keeps no per-call state. The parallel engine runs partitions
  /// concurrently only when its predictors are reentrant.
  virtual bool reentrant() const { return false; }
};

/// Replays ground-truth labels from a labeled trace.
class OraclePredictor final : public LatencyPredictor {
 public:
  explicit OraclePredictor(const trace::EncodedTrace& labeled);

  LatencyPrediction predict(const WindowView& window,
                            std::uint64_t global_index) override;
  LatencyPrediction predict_lazy(const LazyWindow& window) override {
    return predict(WindowView{}, window.current_index());
  }
  std::size_t flops_per_window(std::size_t /*rows*/) const override { return 0; }
  bool reentrant() const override { return true; }

 private:
  const trace::EncodedTrace& trace_;
};

}  // namespace mlsim::core
