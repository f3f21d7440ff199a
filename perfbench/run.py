#!/usr/bin/env python3
"""Host-clock benchmark of the simulator (see README.md in this directory).

Builds the benchmark binary from ../src with CMake, runs one workload per
process in a private temporary directory, and prints every metric with its
unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (untraced run, --trace 0) or
its per-layer metrics (traced run, --trace 1).

    python3 perfbench/run.py                          # every workload, untraced
    python3 perfbench/run.py --workload cnn-serve --seed 7919 --trace 1
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["analytic-engines", "cnn-serve", "dse-sweep", "dist-journal"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170

# End-to-end metrics and the workloads each one applies to, printed by name
# for the one-command report (the workload-specific ones are not in
# BENCHMARK.json, which lists only metrics every workload has).
REPORTED = [
    ("setup_s", WORKLOADS),
    ("host_kips", WORKLOADS),
    ("cpu_us_per_inst", WORKLOADS),
    ("host_mips.gpu", ["analytic-engines"]),
    ("host_mips.sequential", ["analytic-engines"]),
    ("host_mips.parallel", ["analytic-engines"]),
    ("cnn_kips", ["cnn-serve"]),
    ("points_per_s", ["dse-sweep"]),
    ("shards_per_s", ["dist-journal"]),
    ("latency_p50_ms", WORKLOADS),
    ("latency_tail_ms", WORKLOADS),
    ("fail_ratio", WORKLOADS),
    ("peak_rss_mb", WORKLOADS),
    ("cpi_abs_err_pct", WORKLOADS),
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def contract():
    """Metric names and run_seconds of BENCHMARK.json at the repository root."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]], spec["run_seconds"])


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configure and build the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir() / "cmake"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    cmds = []
    if not (out / "CMakeCache.txt").exists():
        cmds.append(["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                 "--target", "mlsim_perfbench"])
    with open(log, "w") as f:
        for cmd in cmds:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return out / "mlsim_perfbench"


def source_digest():
    """SHA-256 over src/ and this directory: identifies the measured code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the work tree this checkout is, or None (an exported checkout
    may sit inside some other repository, whose HEAD would be wrong)."""
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                            "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    out = r.stdout.split()
    if r.returncode != 0 or len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return None
    return out[1]


def run_one(binary, workload, seed, seconds, trace, trace_out):
    """Run one workload in its own process and private temp directory."""
    scratch = build_dir() / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    env = dict(os.environ, MLSIM_ARTIFACT_DIR=str(tmp / "artifacts"))
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--tmp-dir", str(tmp)]
    if trace:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: benchmark binary printed nothing "
             f"(exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: unparsable result line: {lines[-1][:200]}")
    return result, lines[:-1], proc.returncode


def fmt(v):
    return f"{v:.6g}" if isinstance(v, (int, float)) else str(v)


def print_run(workload, result, text, wanted, provenance):
    d = result["details"]
    print(f"== {workload} (seed {d['seed']}, {'traced' if d['trace'] else 'untraced'},"
          f" {d['seconds']} s, host clock) ==")
    for line in text:
        print(line)
    for name in sorted(result["metrics"]):
        m = result["metrics"][name]
        mark = "*" if name in wanted else " "
        extra = ""
        if name == "latency_tail_ms":
            extra = (f"  (p{fmt(d['latency_tail.pct'])} of "
                     f"{int(d['latency_tail.samples'])} samples, "
                     f"{int(d['latency_tail.beyond'])} beyond)")
        print(f" {mark} {name:<40} {fmt(m['value']):>14} {m['unit']}{extra}")
    for k in sorted(d):
        if k.startswith("model."):
            print(f"   {k:<40} {fmt(d[k]):>14}  (modeled; determinism check only)")
    prov = dict(provenance)
    prov.update({k: d[k] for k in sorted(d) if k.split(".")[0] in
                 ("build", "host", "obs", "clock", "seed")})
    print("   provenance: " + json.dumps(prov, sort_keys=True))
    for f in result["check_failures"]:
        print(f"   CHECK FAILED: {f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; held-out "
                         f"seed for re-checking a claim: {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed phase per workload, host seconds (default: "
                         "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1 = traced run: per-layer metrics and a Chrome trace")
    ap.add_argument("--trace-out", default=None,
                    help="Chrome trace JSON path (traced single-workload run)")
    args = ap.parse_args()
    end_to_end, per_layer, run_seconds = contract()
    if args.seconds is None:
        args.seconds = run_seconds
    if args.seconds <= 0:
        fail("--seconds must be positive")

    wanted = per_layer if args.trace else end_to_end
    binary = build()
    provenance = {"git_commit": git_commit(), "source_digest": source_digest()}
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    results = {}
    ok = True
    for w in workloads:
        trace_out = None
        if args.trace:
            trace_out = Path(args.trace_out) if args.trace_out and len(workloads) == 1 \
                else build_dir() / "traces" / f"{w}-seed{args.seed}.json"
            trace_out.parent.mkdir(parents=True, exist_ok=True)
        result, text, code = run_one(binary, w, args.seed, args.seconds,
                                     args.trace, trace_out)
        print_run(w, result, text, wanted, provenance)
        missing = [m for m in wanted if m not in result["metrics"]]
        if missing:
            fail(f"{w}: metrics missing from the result: {missing}")
        ok &= code == 0 and result["correct"]
        results[w] = result

    if len(workloads) > 1:
        print("== end-to-end metrics (host clock; * = in BENCHMARK.json) ==")
        for name, applies in REPORTED:
            for w in applies:
                m = results[w]["metrics"].get(name)
                if m is None:
                    continue
                extra = ""
                if name == "latency_tail_ms":
                    d = results[w]["details"]
                    extra = (f"  p{fmt(d['latency_tail.pct'])}, "
                             f"n={int(d['latency_tail.samples'])}")
                mark = "*" if name in end_to_end else " "
                print(f" {mark} {name:<22} {w:<17} {fmt(m['value']):>12} "
                      f"{m['unit']}{extra}")

    line = {
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {},
    }
    for w, r in results.items():
        for name in wanted:
            key = name if len(results) == 1 else f"{w}/{name}"
            line["metrics"][key] = r["metrics"][name]
    print(json.dumps(line))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
