// Host-clock benchmark binary: one workload per process (README.md).
//
//   mlsim_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --tmp-dir <dir> [--trace-out <file.json>]
//
// Prints a per-layer self-time table (traced runs) and, as the last line of
// standard output, one JSON object: correct/attempted/failed, every metric
// with its unit, details (provenance, tail percentiles, modeled `model.*`
// checks) and the failed checks. Exits 1 when any output check failed.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/obs.h"
#include "workloads.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: mlsim_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --tmp-dir <dir> [--trace-out <file>]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--tmp-dir") {
        a.tmp_dir = v;
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else {
        usage(("unknown flag " + k).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.tmp_dir.empty()) usage("--tmp-dir is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

constexpr int kMmapThreshold = 32 << 20;
constexpr int kSetupReps = 5;
/// Set-ups shorter than this are repeated until they add up to it, so a
/// cheap set-up's median rests on many samples.
constexpr double kSetupSeconds = 0.5;

/// The end-to-end metrics every workload reports, from one untraced phase
/// that used `cpu_s` of process CPU time.
void emit_end_to_end(const Phase& ph, double cpu_s, Report& rep) {
  rep.set("host_kips", ph.steady_kips(), "kinst/s");
  rep.note_num("host_kips.whole_phase", ph.kips());
  rep.set("latency_p50_ms", median(ph.latency_ms), "ms");
  for (const double p : {10.0, 25.0, 75.0, 99.0, 100.0}) {
    rep.note_num("latency_ms.p" + std::to_string(static_cast<int>(p)),
                 mlsim::percentile(ph.latency_ms, p));
  }
  const std::size_t n = ph.latency_ms.size();
  rep.check(n >= kMinOps, "only " + std::to_string(n) + " operations; latency_tail_ms "
                          "needs " + std::to_string(kMinOps));
  rep.set("latency_tail_ms", mlsim::percentile(ph.latency_ms, kTailPct), "ms");
  rep.note_num("latency_tail.pct", kTailPct);
  rep.note_num("latency_tail.samples", static_cast<double>(n));
  rep.note_num("latency_tail.beyond",
               std::floor(static_cast<double>(n) * (100.0 - kTailPct) / 100.0));
  rep.note_num("timed.wall_s", ph.wall_s);
  rep.note_num("timed.cpu_s", cpu_s);
  const auto inst = std::max<std::uint64_t>(ph.instructions, 1);
  rep.set("cpu_us_per_inst", cpu_s * 1e6 / static_cast<double>(inst), "us/inst");
  for (const auto& [name, v] : ph.extra) rep.set(name, v.first, v.second);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // Fixed malloc thresholds at the values glibc's run-time adaptation
  // converges to (mmap 32 MiB, trim 2x). Left adaptive, whether a multi-MB
  // trace buffer is mmapped or heap-allocated depends on allocation history,
  // and peak RSS of one workload jumped between two values from run to run.
  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
  mallopt(M_TRIM_THRESHOLD, 2 * kMmapThreshold);
  auto w = make_workload(args.workload, args);
  if (!w || args.workload.rfind("probe:", 0) == 0) usage("unknown workload");

  Report rep;
  rep.note_str("workload", args.workload);
  rep.note_num("seed", static_cast<double>(args.seed));
  rep.note_num("seed.held_out", static_cast<double>(kHeldOutSeed));
  rep.note_num("seconds", args.seconds);
  rep.note_num("trace", args.trace ? 1 : 0);
  rep.note_str("build.type", PERFBENCH_BUILD_TYPE);
  rep.note_str("build.cxx_flags", PERFBENCH_CXX_FLAGS);
  rep.note_str("build.compiler", PERFBENCH_COMPILER);
  rep.note_str("host.cpu", cpu_model());
  rep.note_num("host.nproc", std::thread::hardware_concurrency());
  rep.note_str("obs", mlsim::obs::kCompiledIn
                          ? (mlsim::obs::enabled() ? "compiled in, on"
                                                   : "compiled in, off")
                          : "compiled out");
  rep.note_str("clock", "host steady_clock; CPU time from getrusage");
  rep.note_num("malloc.mmap_threshold", kMmapThreshold);

  try {
    w->setup(rep, kSetupReps, kSetupSeconds);
    if (!args.trace) {
      const double cpu0 = process_cpu_seconds();
      const Phase ph = w->run(args.seconds, 0, nullptr, rep);
      emit_end_to_end(ph, process_cpu_seconds() - cpu0, rep);
    } else {
      // Untraced and traced halves of the budget; their throughput ratio is
      // the tracing overhead, and both must produce the same cycle totals.
      const double cpu0 = process_cpu_seconds();
      const Phase plain = w->run(args.seconds / 2, 0, nullptr, rep);
      emit_end_to_end(plain, process_cpu_seconds() - cpu0, rep);
      SpanLog log;
      Phase traced;
      {
        Span span(&log, "workload." + args.workload);
        traced = w->run(args.seconds / 2, 0, &log, rep);
      }
      rep.set("obs.trace_overhead_pct", (plain.kips() / traced.kips() - 1.0) * 100.0,
              "%");
      probe_layers(args.workload, *w, args, &log, rep);
      std::cout << log.self_time_table();
      if (!args.trace_out.empty()) {
        if (log.write_chrome_trace(args.trace_out)) {
          rep.note_str("trace_out", args.trace_out);
        } else {
          std::fprintf(stderr, "warning: cannot write %s\n", args.trace_out.c_str());
        }
      }
    }
  } catch (const std::exception& e) {
    rep.check(false, std::string("workload aborted: ") + e.what());
  }
  for (const auto& [label, cycles] : w->expected().values()) {
    rep.note_num("model.cycles." + label, static_cast<double>(cycles));
  }
  w.reset();  // stop service, cluster and worker threads before reporting
  rep.set("peak_rss_mb", peak_rss_mb(), "MB");
  rep.set("fail_ratio",
          rep.attempted() ? static_cast<double>(rep.failed()) /
                                static_cast<double>(rep.attempted())
                          : 1.0,
          "ratio");
  std::cout << rep.json() << std::endl;
  return rep.failures().empty() ? 0 : 1;
}
