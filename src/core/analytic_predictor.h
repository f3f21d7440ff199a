// Analytic context-sensitive latency predictor.
//
// A deterministic stand-in for the trained network that mirrors the OoO
// machine's latency algebra using only window-visible information: the
// current instruction's static/dynamic features plus the context rows'
// registers and remaining-latency entries. Like the CNN it *depends on the
// context*, so sub-trace partitioning perturbs its predictions — this is
// the property the parallel-simulation error study needs — while being
// orders of magnitude faster than CNN inference, which lets the error
// experiments run at paper-like instruction counts on this machine.
#pragma once

#include "core/predictor.h"
#include "uarch/config.h"

namespace mlsim::core {

class AnalyticPredictor final : public LatencyPredictor {
 public:
  explicit AnalyticPredictor(const uarch::MachineConfig& machine = {});

  LatencyPrediction predict(const WindowView& window,
                            std::uint64_t global_index) override;
  LatencyPrediction predict_lazy(const LazyWindow& window) override;

  std::size_t flops_per_window(std::size_t /*rows*/) const override { return 0; }
  bool reentrant() const override { return true; }

 private:
  uarch::MachineConfig cfg_;
};

}  // namespace mlsim::core
