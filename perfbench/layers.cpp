// Per-layer probes of a traced run. Each times public calls into one src/
// module on inputs made from the run's seed. A metric the workload's own
// traced phase already measured is not probed again (README.md lists which
// layer each workload exercises itself).
#include <cstdio>
#include <filesystem>
#include <thread>

#include "common/check.h"
#include "core/instruction_queue.h"
#include "core/shard.h"
#include "core/simnet_trainer.h"
#include "core/simulator.h"
#include "core/sliding_window.h"
#include "dist/journal.h"
#include "dist/protocol.h"
#include "net/frame.h"
#include "net/socket.h"
#include "trace/functional_sim.h"
#include "trace/workload.h"
#include "uarch/ground_truth.h"
#include "workloads.h"

namespace perfbench {

using namespace mlsim;

namespace {

/// Median host time (µs) of `reps` calls of `fn`.
template <class Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    v.push_back(static_cast<double>(ns_between(t0, Clock::now())) / 1e3);
  }
  return median(std::move(v));
}

struct TraceSpec {
  std::vector<std::string> benches;
  std::size_t n = 0;
};

/// Inputs of the trace-generation probe: the workload's own benchmarks, at a
/// length large enough for a per-instruction figure.
TraceSpec trace_spec(const std::string& workload) {
  if (workload == "analytic-engines") return {{"gcc", "mcf"}, 16000};
  if (workload == "cnn-serve") return {{"mcf", "xz", "lbm", "x264"}, 4000};
  if (workload == "dse-sweep") return {{"mcf"}, 30000};
  return {{"xz"}, 16000};
}

/// trace + uarch: the labeled-trace pipeline split into its four public
/// stages; the result must equal core::labeled_trace's.
std::vector<trace::EncodedTrace> probe_trace(const TraceSpec& spec,
                                             std::uint64_t seed, SpanLog* log,
                                             Report& rep) {
  Span span(log, "probe.trace");
  double ns[4] = {0, 0, 0, 0};
  double inst = 0, l1d = 0, l2 = 0, br = 0;
  std::vector<trace::EncodedTrace> out;
  for (const auto& b : spec.benches) {
    const uarch::MachineConfig machine{};
    const auto& profile = trace::find_workload(b);
    auto t0 = Clock::now();
    std::vector<trace::DynInst> insts;
    {
      Span s(log, "trace.funcsim");
      insts = trace::generate_benchmark_trace(profile, spec.n, seed);
    }
    ns[0] += static_cast<double>(ns_between(t0, Clock::now()));
    uarch::LabeledTrace lt;
    lt.benchmark = profile.abbr;
    lt.machine = machine;
    t0 = Clock::now();
    {
      Span s(log, "uarch.annotate");
      lt.records = uarch::annotate_trace(insts, machine);
    }
    ns[1] += static_cast<double>(ns_between(t0, Clock::now()));
    t0 = Clock::now();
    {
      Span s(log, "uarch.ooo_label");
      uarch::OooCore core(machine);
      for (auto& r : lt.records) r.timing = core.process(r.inst, r.ann);
    }
    ns[2] += static_cast<double>(ns_between(t0, Clock::now()));
    t0 = Clock::now();
    trace::EncodedTrace enc;
    {
      Span s(log, "trace.encode");
      enc = uarch::encode_trace(lt);
    }
    ns[3] += static_cast<double>(ns_between(t0, Clock::now()));
    for (const auto& r : lt.records) {
      using trace::HitLevel;
      l1d += r.ann.data_level == HitLevel::kL2 ||
             r.ann.data_level == HitLevel::kMemory;
      l2 += r.ann.data_level == HitLevel::kMemory;
      br += r.ann.branch_mispredicted;
    }
    inst += static_cast<double>(lt.size());
    rep.check(trace_hash(enc) ==
                  trace_hash(core::labeled_trace(b, spec.n, machine, seed, false)),
              "staged trace generation of " + b + " differs from labeled_trace");
    out.push_back(std::move(enc));
  }
  rep.set("trace.funcsim_ns_per_inst", ns[0] / inst, "ns/inst");
  rep.set("uarch.annotate_ns_per_inst", ns[1] / inst, "ns/inst");
  rep.set("uarch.ooo_label_ns_per_inst", ns[2] / inst, "ns/inst");
  rep.set("trace.encode_ns_per_inst", ns[3] / inst, "ns/inst");
  rep.set("trace.l1d_mpki", l1d / inst * 1000.0, "misses/kinst");
  rep.set("trace.l2_mpki", l2 / inst * 1000.0, "misses/kinst");
  rep.set("trace.branch_mpki", br / inst * 1000.0, "misp/kinst");
  return out;
}

/// core window: the reference InstructionQueue and the SlidingWindowQueue
/// replaying the analytic predictions of a sequential run, and
/// LazyWindow::materialize inside a parallel run.
void probe_window(const std::vector<trace::EncodedTrace>& traces, std::size_t ctx,
                  SpanLog* log, Report& rep) {
  Span span(log, "probe.window");
  core::AnalyticPredictor analytic;
  double iq_ns = 0, swq_ns = 0, inst = 0;
  std::uint64_t mat_calls = 0, mat_ns = 0;
  for (const auto& tr : traces) {
    core::SequentialSimOptions so;
    so.context_length = ctx;
    so.record_predictions = true;
    const core::SimOutput seq = core::SequentialSimulator(analytic, so).run(tr);
    std::vector<std::int32_t> win;
    {
      Span s(log, "window.iq");
      const auto t0 = Clock::now();
      core::InstructionQueue q(ctx);
      for (std::size_t i = 0; i < tr.size(); ++i) {
        q.push_and_build(tr.features(i), win);
        q.apply_prediction(seq.predictions[i]);
      }
      iq_ns += static_cast<double>(ns_between(t0, Clock::now()));
      rep.check(q.total_cycles_with_drain() == seq.cycles,
                "InstructionQueue replay differs from the sequential engine");
    }
    {
      Span s(log, "window.swq");
      const auto t0 = Clock::now();
      device::Device dev;
      core::SlidingWindowQueue q(ctx, 10, dev, dev.create_stream(), false);
      std::size_t next = 0;
      for (std::size_t i = 0; i < tr.size(); ++i) {
        if (q.needs_refill()) {
          next += q.refill(tr.raw_features().data() + next * trace::kNumFeatures,
                           tr.size() - next);
        }
        q.build_window(win);
        q.apply_prediction(seq.predictions[i]);
      }
      swq_ns += static_cast<double>(ns_between(t0, Clock::now()));
      rep.check(q.total_cycles_with_drain() == seq.cycles,
                "SlidingWindowQueue replay differs from the sequential engine");
    }
    {
      Span s(log, "window.materialize");
      core::MLSimulator::Options mo;
      mo.context_length = ctx;
      core::MLSimulator sim(mo);
      const core::ParallelSimOptions po = sim.parallel_options(64, 8, true, true);
      TimingPredictor tp(analytic, true);
      const auto r = core::ParallelSimulator(tp, po).run(tr);
      rep.check(r.total_cycles == sim.simulate_parallel(tr, po).total_cycles,
                "materialised windows changed the parallel engine's cycles");
      mat_calls += tp.counts().materialize_calls;
      mat_ns += tp.counts().materialize_ns;
    }
    inst += static_cast<double>(tr.size());
  }
  rep.set("window.iq_ns_per_inst", iq_ns / inst, "ns/inst");
  rep.set("window.swq_ns_per_inst", swq_ns / inst, "ns/inst");
  rep.set("window.materialize_ns",
          static_cast<double>(mat_ns) / static_cast<double>(mat_calls), "ns/window");
}

/// core predictor + tensor: the cnn-serve model's predict_batch at batch
/// 1/4/64 on real windows, and each layer's forward at batch 1 and 64.
void probe_cnn(const std::vector<trace::EncodedTrace>& traces, SpanLog* log,
               Report& rep) {
  Span span(log, "probe.cnn");
  std::vector<const trace::EncodedTrace*> ptrs;
  for (const auto& t : traces) ptrs.push_back(&t);
  core::SimNetBundle bundle = cnn_serve_bundle(ptrs);
  const std::size_t W = bundle.model.config().window;
  const std::size_t F = trace::kNumFeatures;
  const std::vector<float> scale = bundle.feature_scale;
  core::CnnPredictor cnn(std::move(bundle));
  constexpr std::size_t kMaxBatch = 64;
  core::WindowDataset ds(traces.front(), W);
  std::vector<std::int32_t> windows;
  std::vector<std::int32_t> one;
  for (std::size_t i = 0; i < kMaxBatch; ++i) {
    ds.window(i % ds.size(), one);
    windows.insert(windows.end(), one.begin(), one.end());
  }
  std::vector<std::uint64_t> idx(kMaxBatch, 0);
  std::vector<core::LatencyPrediction> out(kMaxBatch);
  for (const std::size_t b : {std::size_t{1}, std::size_t{4}, kMaxBatch}) {
    Span s(log, "predict.cnn.b" + std::to_string(b));
    const int reps = b == 1 ? 40 : b == 4 ? 12 : 4;
    const double us = median_us(reps, [&] {
      cnn.predict_batch(windows.data(), b, W, idx.data(), out.data());
    });
    rep.set("predict.cnn_us_per_window.b" + std::to_string(b),
            us / static_cast<double>(b), "us/window");
  }
  tensor::SimNetModel& m = cnn.model();
  tensor::ReLU relu;
  for (const std::size_t b : {std::size_t{1}, kMaxBatch}) {
    Span s(log, "tensor.b" + std::to_string(b));
    tensor::Tensor x({b, F, W});
    for (std::size_t k = 0; k < b; ++k) {
      const std::int32_t* win = windows.data() + k * W * F;
      for (std::size_t l = 0; l < W; ++l) {
        for (std::size_t c = 0; c < F; ++c) {
          x.data()[(k * F + c) * W + l] =
              static_cast<float>(win[l * F + c]) * scale[c];
        }
      }
    }
    const int reps = b == 1 ? 30 : 4;
    const std::string sfx = ".b" + std::to_string(b);
    tensor::Tensor h1, h2, h3, f1;
    const auto layer = [&](const char* name, auto&& forward) {
      rep.set(std::string("tensor.") + name + "_us" + sfx, median_us(reps, forward),
              "us");
    };
    layer("conv1", [&] { h1 = m.conv1().forward(x); });
    h1 = relu.forward(h1);
    layer("conv2", [&] { h2 = m.conv2().forward(h1); });
    h2 = relu.forward(h2);
    layer("conv3", [&] { h3 = m.conv3().forward(h2); });
    h3 = relu.forward(h3).reshaped({b, m.config().channels * W});
    layer("fc1", [&] { f1 = m.fc1().forward(h3); });
    f1 = relu.forward(f1);
    layer("fc2", [&] { (void)m.fc2().forward(f1); });
    const double fwd_us = median_us(reps, [&] { (void)m.forward(x); });
    rep.set("tensor.gflops" + sfx,
            static_cast<double>(m.flops_per_batch(b)) / (fwd_us * 1e3), "GFLOP/s");
  }
}

/// dist/protocol, dist/journal, net: wire codecs on the workload's trace and
/// a real shard outcome, journal append+fsync, a loopback frame round trip.
void probe_wire(const trace::EncodedTrace& tr, const Args& args, SpanLog* log,
                Report& rep) {
  Span span(log, "probe.wire");
  core::MLSimulator sim;
  core::AnalyticPredictor analytic;
  core::ParallelSimOptions opts = sim.parallel_options(64, 16, true, true);
  opts.fallback = &analytic;
  const dist::RunConfig cfg = dist::RunConfig::from_options(opts);

  std::string welcome;
  rep.set("wire.welcome_encode_us", median_us(5, [&] {
            welcome = dist::encode_welcome(1, 0x5eed, cfg, tr, 7);
          }),
          "us");
  rep.set("wire.welcome_bytes_per_inst",
          static_cast<double>(welcome.size()) / static_cast<double>(tr.size()),
          "B/inst");
  dist::WelcomeDecoded wd;
  rep.set("wire.welcome_decode_us",
          median_us(5, [&] { wd = dist::decode_welcome(welcome, "probe"); }), "us");
  rep.check(trace_hash(wd.trace) == trace_hash(tr),
            "welcome round trip changed the trace");

  const core::ShardPlan plan = core::ShardPlan::make(tr.size(), opts);
  core::ShardEngine engine(analytic, tr, opts, plan);
  for (std::size_t p = plan.shard_lo(0); p < plan.shard_hi(0); ++p) {
    engine.run_partition(p);
  }
  const core::ShardOutcome outcome =
      engine.block_outcome(plan.shard_lo(0), plan.shard_hi(0));
  std::string result;
  rep.set("wire.result_encode_us", median_us(200, [&] {
            result = dist::encode_result({1, 0, 0}, outcome);
          }),
          "us");
  rep.set("wire.result_bytes", static_cast<double>(result.size()), "B");
  dist::ResultDecoded rd;
  rep.set("wire.result_decode_us",
          median_us(200, [&] { rd = dist::decode_result(result, "probe"); }), "us");
  rep.check(rd.outcome.partition_cycles == outcome.partition_cycles,
            "result round trip changed the shard outcome");

  {
    Span s(log, "journal.append_fsync");
    dist::RunJournal journal;
    journal.open(std::filesystem::path(args.tmp_dir) / "probe.journal");
    journal.run_open(1, 0x5eed, plan.num_shards, cfg);
    std::vector<double> us;
    for (std::uint64_t i = 0; i < kMinOps; ++i) {
      const auto t0 = Clock::now();
      journal.assign(1, i % plan.num_shards, 0);
      journal.result(1, result);
      us.push_back(static_cast<double>(ns_between(t0, Clock::now())) / 1e3);
    }
    journal.run_close(1, dist::RunJournal::kStatusComplete);
    journal.close();
    rep.set("journal.append_fsync_us.p50", median(us), "us");
    rep.set("journal.append_fsync_us.tail", mlsim::percentile(us, kTailPct), "us");
  }

  {
    Span s(log, "net.frame_rtt");
    net::TcpListener listener = net::TcpListener::bind(0);
    net::TcpConn client = net::TcpConn::connect("127.0.0.1", listener.port());
    std::optional<net::TcpConn> server = listener.accept(2000);
    check(server.has_value(), "loopback accept timed out");
    std::thread echo([&conn = *server] {
      try {
        std::string payload;
        while (net::recv_frame(conn, payload)) net::send_frame(conn, payload);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "echo: %s\n", e.what());
      }
    });
    const std::string ping(64, 'p');
    std::string pong;
    const double us = median_us(400, [&] {
      net::send_frame(client, ping);
      net::recv_frame(client, pong);
    });
    client.close();
    echo.join();
    rep.check(pong == ping, "loopback frame round trip changed the payload");
    rep.set("net.frame_rtt_us", us, "us");
  }
}

/// Run a small instance of another workload, traced, and keep the per-layer
/// metrics it sets.
void probe_workload(const std::string& name, std::size_t ops, const Args& args,
                    SpanLog* log, Report& rep) {
  Span span(log, "probe." + name);
  Report probe;
  const auto w = make_workload("probe:" + name, args);
  w->setup(probe, 1, 0.0);
  w->run(60.0, ops, log, probe);
  rep.absorb(probe);
}

}  // namespace

void probe_layers(const std::string& workload, Workload& w, const Args& args,
                  SpanLog* log, Report& rep) {
  const std::vector<trace::EncodedTrace> traces =
      probe_trace(trace_spec(workload), args.seed, log, rep);
  probe_window(traces, w.context_length(), log, rep);
  if (!rep.has("engine.gpu_self_ns_per_inst")) {
    Span span(log, "probe.engines");
    EngineLayer layer;
    for (const auto& tr : traces) {
      run_engines_traced(tr, w.context_length(), 64, 8, log, 0, layer);
    }
    layer.emit(rep);
  }
  probe_cnn(traces, log, rep);
  probe_wire(traces.front(), args, log, rep);
  if (!rep.has("batcher.mean_batch")) {
    probe_workload("cnn-serve", 12, args, log, rep);
  }
  if (!rep.has("sweep.trace_share")) probe_workload("dse-sweep", 2, args, log, rep);
  if (!rep.has("dist.dispatch_ratio")) {
    probe_workload("dist-journal", 5, args, log, rep);
  }
}

}  // namespace perfbench
