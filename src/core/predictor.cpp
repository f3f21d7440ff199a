#include "core/predictor.h"

#include "common/check.h"

namespace mlsim::core {

LatencyPrediction LatencyPredictor::predict_lazy(const LazyWindow& window) {
  // Per thread, so concurrent engines sharing a predictor never share it.
  thread_local std::vector<std::int32_t> dense;
  window.materialize(dense);
  return predict(WindowView{dense.data(), window.rows()},
                 window.current_index());
}

void LatencyPredictor::predict_batch(const std::int32_t* windows, std::size_t batch,
                                     std::size_t rows,
                                     const std::uint64_t* global_indices,
                                     LatencyPrediction* out) {
  for (std::size_t b = 0; b < batch; ++b) {
    WindowView w{windows + b * rows * trace::kNumFeatures, rows};
    out[b] = predict(w, global_indices != nullptr ? global_indices[b] : 0);
  }
}

OraclePredictor::OraclePredictor(const trace::EncodedTrace& labeled)
    : trace_(labeled) {
  check(labeled.labeled(), "OraclePredictor requires a labeled trace");
}

LatencyPrediction OraclePredictor::predict(const WindowView& /*window*/,
                                           std::uint64_t global_index) {
  const auto t = trace_.targets(global_index);
  return {t[0], t[1], t[2]};
}

}  // namespace mlsim::core
