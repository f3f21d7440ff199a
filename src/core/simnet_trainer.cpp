#include "core/simnet_trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"
#include "obs/obs.h"
#include "core/sequential_sim.h"
#include "tensor/optim.h"
#include "tensor/quant.h"

namespace mlsim::core {

WindowDataset::WindowDataset(const trace::EncodedTrace& labeled,
                             std::size_t window_rows)
    : trace_(labeled), rows_(window_rows) {
  check(labeled.labeled(), "WindowDataset needs ground-truth targets");
  check(window_rows > 1, "a window needs at least one context row");
  const std::size_t n = labeled.size();
  const std::size_t ctx = window_rows - 1;
  retire_.resize(n);
  clock_.resize(n);
  in_flight_.resize(n);
  // Replay the ground truth once, recording each step's Clock (before it
  // advances) and tracked in-flight count.
  InFlightTracker tracker(ctx);
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = labeled.targets(i);
    clock_[i] = tracker.clock();
    in_flight_[i] = static_cast<std::uint32_t>(tracker.count());
    retire_[i] =
        tracker.retire({t[0], t[1], t[2]}, i >= ctx ? retire_[i - ctx] : 0);
  }
}

void WindowDataset::window(std::size_t i, std::vector<std::int32_t>& out) const {
  check(i < size(), "window index out of range");
  const LazyWindow lw(trace_.raw_features().data() + i * trace::kNumFeatures,
                      retire_.data() + i, -1, std::min(rows_ - 1, i), clock_[i],
                      in_flight_[i], i, rows_);
  lw.materialize(out);
}

std::vector<float> compute_feature_scales(
    const std::vector<const trace::EncodedTrace*>& traces) {
  std::vector<float> max_val(trace::kNumFeatures, 1.0f);
  for (const auto* tr : traces) {
    for (std::size_t i = 0; i < tr->size(); ++i) {
      const auto f = tr->features(i);
      for (std::size_t c = 0; c < trace::kNumFeatures; ++c) {
        max_val[c] = std::max(max_val[c], static_cast<float>(f[c]));
      }
    }
  }
  // The latency-entry slot is dynamic (not present in raw traces): it spans
  // [0, kMaxLatencyEntry].
  max_val[kCtxLatFeature] =
      std::max(max_val[kCtxLatFeature], static_cast<float>(kMaxLatencyEntry));
  std::vector<float> scales(trace::kNumFeatures);
  for (std::size_t c = 0; c < trace::kNumFeatures; ++c) {
    scales[c] = 1.0f / max_val[c];
  }
  return scales;
}

namespace {

void fill_sample(const WindowDataset& ds, std::size_t idx,
                 const std::vector<float>& scales,
                 std::vector<std::int32_t>& scratch, float* x, float* y) {
  ds.window(idx, scratch);
  const std::size_t W = ds.rows();
  const std::size_t F = trace::kNumFeatures;
  for (std::size_t l = 0; l < W; ++l) {
    const std::int32_t* row = scratch.data() + l * F;
    for (std::size_t c = 0; c < F; ++c) {
      x[c * W + l] = static_cast<float>(row[c]) * scales[c];
    }
  }
  const auto t = ds.targets(idx);
  for (std::size_t k = 0; k < trace::kNumTargets; ++k) {
    y[k] = std::log1p(static_cast<float>(t[k]));
  }
}

}  // namespace

SimNetBundle train_simnet(const std::vector<const trace::EncodedTrace*>& traces,
                          const SimNetTrainConfig& cfg, SimNetTrainReport* report) {
  check(!traces.empty(), "training requires at least one labeled trace");

  std::vector<float> scales = compute_feature_scales(traces);
  tensor::SimNetModel model(cfg.model, cfg.seed);
  tensor::Adam optim(model.params(),
                     {.lr = cfg.lr, .grad_clip = cfg.grad_clip});

  // Datasets + train/holdout split (tail of each trace is held out).
  std::vector<WindowDataset> datasets;
  datasets.reserve(traces.size());
  for (const auto* tr : traces) datasets.emplace_back(*tr, cfg.model.window);

  struct Sample {
    std::uint32_t ds;
    std::uint32_t idx;
  };
  std::vector<Sample> train_set, holdout;
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    const std::size_t n = datasets[d].size();
    const auto split =
        static_cast<std::size_t>(static_cast<double>(n) * (1.0 - cfg.holdout_fraction));
    for (std::size_t i = 0; i < n; ++i) {
      Sample s{static_cast<std::uint32_t>(d), static_cast<std::uint32_t>(i)};
      (i < split ? train_set : holdout).push_back(s);
    }
  }
  check(!train_set.empty(), "empty training set");

  Rng rng(cfg.seed ^ 0xdecafull);
  const std::size_t B = cfg.batch_size;
  const std::size_t W = cfg.model.window;
  const std::size_t F = trace::kNumFeatures;
  std::vector<std::int32_t> scratch;
  tensor::Tensor x({B, F, W}), y({B, trace::kNumTargets}), grad;

  float last_loss = 0.0f;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    MLSIM_TRACE_SPAN("train/epoch");
    MLSIM_HIST_TIMER(obs::names::kTrainEpochNs);
    // Fisher-Yates shuffle with our deterministic RNG.
    for (std::size_t i = train_set.size(); i > 1; --i) {
      std::swap(train_set[i - 1], train_set[rng.next_below(i)]);
    }
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t off = 0; off + B <= train_set.size(); off += B) {
      MLSIM_HIST_TIMER(obs::names::kTrainStepNs);
      for (std::size_t b = 0; b < B; ++b) {
        const Sample s = train_set[off + b];
        fill_sample(datasets[s.ds], s.idx, scales, scratch, x.data() + b * F * W,
                    y.data() + b * trace::kNumTargets);
      }
      model.zero_grad();
      const tensor::Tensor pred = model.forward(x);
      epoch_loss += static_cast<double>(tensor::mse_loss(pred, y, grad));
      model.backward(grad);
      optim.step();
      ++batches;
      MLSIM_COUNTER_ADD(obs::names::kTrainSteps, 1);
    }
    last_loss = batches ? static_cast<float>(epoch_loss / static_cast<double>(batches))
                        : 0.0f;
    MLSIM_COUNTER_ADD(obs::names::kTrainEpochs, 1);
    MLSIM_GAUGE_SET(obs::names::kTrainLastLoss, static_cast<double>(last_loss));
  }

  SimNetBundle bundle{std::move(model), std::move(scales)};

  if (report != nullptr) {
    report->final_loss = last_loss;
    report->samples = train_set.size();
    // Holdout per-instruction error (smoothed MAPE on decoded cycles).
    double fetch_err = 0.0, exec_err = 0.0;
    std::size_t cnt = 0;
    tensor::Tensor xe({1, F, W});
    for (std::size_t k = 0; k < holdout.size(); k += std::max<std::size_t>(1, holdout.size() / 2000)) {
      const Sample s = holdout[k];
      fill_sample(datasets[s.ds], s.idx, bundle.feature_scale, scratch, xe.data(),
                  y.data());
      const tensor::Tensor pred = bundle.model.forward(xe);
      const auto t = datasets[s.ds].targets(s.idx);
      const double pf = CnnPredictor::decode(pred.at(0));
      const double pe = CnnPredictor::decode(pred.at(1));
      fetch_err += std::abs(pf - static_cast<double>(t[0])) /
                   (static_cast<double>(t[0]) + 1.0) * 100.0;
      exec_err += std::abs(pe - static_cast<double>(t[1])) /
                  (static_cast<double>(t[1]) + 1.0) * 100.0;
      ++cnt;
    }
    if (cnt > 0) {
      report->holdout_mape_fetch = fetch_err / static_cast<double>(cnt);
      report->holdout_mape_exec = exec_err / static_cast<double>(cnt);
    }
  }
  return bundle;
}

float evaluate_loss(SimNetBundle& bundle, const trace::EncodedTrace& labeled,
                    std::size_t max_samples) {
  WindowDataset ds(labeled, bundle.model.config().window);
  const std::size_t n = std::min(max_samples, ds.size());
  check(n > 0, "evaluate_loss requires samples");
  const std::size_t W = bundle.model.config().window;
  const std::size_t F = trace::kNumFeatures;
  std::vector<std::int32_t> scratch;
  tensor::Tensor x({1, F, W}), y({1, trace::kNumTargets}), grad;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    fill_sample(ds, i, bundle.feature_scale, scratch, x.data(), y.data());
    acc += static_cast<double>(tensor::mse_loss(bundle.model.forward(x), y, grad));
  }
  return static_cast<float>(acc / static_cast<double>(n));
}

void finetune_2to4(SimNetBundle& bundle,
                   const std::vector<const trace::EncodedTrace*>& traces,
                   std::size_t epochs, float lr, std::uint64_t seed) {
  check(!traces.empty(), "fine-tuning requires at least one labeled trace");
  tensor::SimNetModel& model = bundle.model;
  tensor::prune_model_2to4(model);

  // Fix the sparsity mask now (NVIDIA's recipe): training proceeds with the
  // surviving weights only; re-deriving the mask every step would thrash.
  std::vector<std::vector<float>*> weight_blocks{
      &model.conv1().weight(), &model.conv2().weight(), &model.conv3().weight(),
      &model.fc1().weight(), &model.fc2().weight()};
  std::vector<std::vector<std::uint8_t>> masks;
  masks.reserve(weight_blocks.size());
  for (const auto* w : weight_blocks) {
    std::vector<std::uint8_t> m(w->size());
    for (std::size_t i = 0; i < w->size(); ++i) m[i] = (*w)[i] != 0.0f;
    masks.push_back(std::move(m));
  }
  const auto apply_masks = [&] {
    for (std::size_t b = 0; b < weight_blocks.size(); ++b) {
      auto& w = *weight_blocks[b];
      for (std::size_t i = 0; i < w.size(); ++i) {
        if (!masks[b][i]) w[i] = 0.0f;
      }
    }
  };

  std::vector<WindowDataset> datasets;
  for (const auto* tr : traces) datasets.emplace_back(*tr, model.config().window);

  tensor::Adam optim(model.params(), {.lr = lr, .grad_clip = 5.0f});
  Rng rng(seed);
  const std::size_t B = 32;
  const std::size_t W = model.config().window;
  const std::size_t F = trace::kNumFeatures;
  std::vector<std::int32_t> scratch;
  tensor::Tensor x({B, F, W}), y({B, trace::kNumTargets}), grad;

  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    for (const auto& ds : datasets) {
      for (std::size_t off = 0; off + B <= ds.size(); off += B) {
        for (std::size_t b = 0; b < B; ++b) {
          const std::size_t idx = rng.next_below(ds.size());
          fill_sample(ds, idx, bundle.feature_scale, scratch,
                      x.data() + b * F * W, y.data() + b * trace::kNumTargets);
        }
        model.zero_grad();
        const tensor::Tensor pred = model.forward(x);
        tensor::mse_loss(pred, y, grad);
        model.backward(grad);
        optim.step();
        // Projection onto the fixed mask keeps the 2:4 structure.
        apply_masks();
      }
    }
  }
}

SimNetEvalReport evaluate_simnet(CnnPredictor& predictor,
                                 const trace::EncodedTrace& labeled,
                                 std::size_t max_instructions) {
  check(labeled.labeled(), "evaluation requires ground truth");
  const std::size_t n = max_instructions == 0
                            ? labeled.size()
                            : std::min(max_instructions, labeled.size());

  SequentialSimOptions opts;
  opts.context_length = predictor.bundle().model.config().window - 1;
  opts.record_predictions = true;
  SequentialSimulator sim(predictor, opts);
  const SimOutput out = sim.run(labeled, 0, n);

  SimNetEvalReport rep;
  std::uint64_t truth_cycles = 0;
  double exec_err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = labeled.targets(i);
    truth_cycles += t[0];
    exec_err += std::abs(static_cast<double>(out.predictions[i].exec) -
                         static_cast<double>(t[1])) /
                (static_cast<double>(t[1]) + 1.0) * 100.0;
  }
  std::uint64_t pred_cycles = 0;
  for (const auto& p : out.predictions) pred_cycles += p.fetch;

  rep.truth_cpi = static_cast<double>(truth_cycles) / static_cast<double>(n);
  rep.predicted_cpi = static_cast<double>(pred_cycles) / static_cast<double>(n);
  rep.cpi_error_percent =
      std::abs(rep.truth_cpi - rep.predicted_cpi) / rep.truth_cpi * 100.0;
  rep.mape_exec = exec_err / static_cast<double>(n);
  return rep;
}

}  // namespace mlsim::core
