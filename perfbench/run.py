#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The simulator library and the benchmark
driver are built from source into $CARGO_TARGET_DIR (default .bench_build).
Every metric is printed by name with its value, unit, clock (host or sim)
and the direction that is better; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) named in
BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["paper-matrix", "kv-serve", "lsm-ycsb", "crash-recover"]
# Held out from every tuning run; later performance claims are re-checked
# on it (README.md, "Seeds").
HELD_OUT_SEED = 101

# The end-to-end metrics each workload defines beyond the four that every
# workload emits. The self-test checks that each one is emitted.
WORKLOAD_METRICS = {
    "paper-matrix": ["sim_exec_norm", "sim_read_lat_norm", "sim_write_lat_norm",
                     "sim_nvm_writes_norm", "sim_exec_sc_over_gc"],
    "kv-serve": ["sim_op_p50_ns", "sim_op_p999_ns", "sim_write_amp"],
    "lsm-ycsb": ["sim_op_p50_ns", "sim_op_p999_ns", "sim_write_amp"],
    "crash-recover": ["host_recovery_ms", "sim_recovery_s_gc", "sim_recovery_s_sc"],
}
COMMON_METRICS = ["setup_s", "peak_rss_mb", "error_rate", "host_ops_per_s", "sim_kops_per_s"]
# An untraced run is split over this many processes, each measuring for its
# share of --seconds; host metrics are the median over the processes, since
# one process's heap and thread placement biases all its repetitions alike.
PROCESSES = 4
# bench/fig17_recovery_time's 4 MB row (EXPERIMENTS.md), seconds.
FIG17_4MB = {"sim_recovery_s_gc": 0.0602, "sim_recovery_s_sc": 0.4104}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure (once) and build the driver; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                  "--target", "steins_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out / "steins_perfbench"


def git_commit():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def run_driver(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (parsed JSON, exit code)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        cmd += ["--spans", str(build_dir() / f"spans-{workload}-seed{seed}.json")]
    res = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(res.stderr)
    try:
        return json.loads(res.stdout), res.returncode
    except json.JSONDecodeError:
        fail(f"{workload}: driver exited {res.returncode} without a result")


def measure(binary, workload, seed, seconds):
    """An untraced run: PROCESSES driver processes, combined into one result.
    Host metrics take the median over the processes; sim metrics must agree
    exactly, as must the error rate (0)."""
    parts = [run_driver(binary, workload, seed, seconds / PROCESSES, 0) for _ in range(PROCESSES)]
    d = dict(parts[0][0])
    d["errors"] = [e for p, _ in parts for e in p["errors"]]
    d["attempted"] = sum(p["attempted"] for p, _ in parts)
    d["failed"] = sum(p["failed"] for p, _ in parts)
    metrics = []
    for i, m in enumerate(d["metrics"]):
        values = [p["metrics"][i]["value"] for p, _ in parts]
        m = dict(m)
        if m["clock"] == "sim" and len(set(values)) != 1:
            # The processes ran the same inputs, so no output can be trusted.
            d["errors"].append(f"{m['name']} differs between processes: {values}")
            d["failed"] = d["attempted"]
        elif m["clock"] == "host":
            m["value"] = statistics.median(values)
            m["note"] += f"; median of {PROCESSES} processes"
        metrics.append(m)
    for m in metrics:
        if m["name"] == "error_rate":
            m["value"] = d["failed"] / d["attempted"]
            m["note"] = f"{d['attempted']} attempted"
    d["metrics"] = metrics
    rc = max(code for _, code in parts)
    return d, rc or (1 if d["errors"] or d["failed"] else 0)


def print_report(d, seed):
    p = d["provenance"]
    print(f"# workload={d['workload']} seed={seed} held_out_seed={HELD_OUT_SEED} "
          f"trace={d['trace']} commit={git_commit()} compiler=gcc-{p['compiler']} "
          f"build={p['build_type']} crypto={p['crypto_backend']} aes_ni={p['aes_ni']} "
          f"sha_ni={p['sha_ni']} nproc={p['nproc']} kv_workers={p['kv_workers']}")
    rows = d["metrics"] if not d["trace"] else d["metrics"] + d["layers"]
    for m in rows:
        line = f"{m['name']:<40} {m['value']:>16.6g} {m['unit']:<16} clock={m['clock']}"
        if m["better"]:
            line += f" better={m['better']}"
        if m["paper"] is not None:
            err = (m["value"] - m["paper"]) / m["paper"]
            line += f" paper={m['paper']:.4g} error={err:+.1%}"
        if m["note"]:
            line += f"  ({m['note']})"
        print(line)
    for e in d["errors"]:
        print(f"ERROR: {e}")
    if d["trace"]:
        print(f"# spans: {build_dir() / ('spans-%s-seed%d.json' % (d['workload'], seed))}")


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def result_line(d, names):
    """The result line: exactly `names`; a layer the workload does not run
    reads 0 (README.md, "Per-layer metrics")."""
    have = {m["name"]: m for m in d["metrics"] + d["layers"]}
    metrics = {}
    for spec in names:
        m = have.get(spec["name"])
        metrics[spec["name"]] = {"value": m["value"] if m else 0.0, "unit": spec["unit"]}
    return {"correct": not d["errors"] and d["failed"] == 0, "attempted": d["attempted"],
            "failed": d["failed"], "metrics": metrics}


def self_test():
    """Small-size check of the benchmark itself."""
    binary = build()
    spec = benchmark_spec()
    problems = []
    layer_names = set()
    for w in WORKLOADS:
        extra = ["--small"] + (["--check-figures"] if w == "paper-matrix" else [])
        plain, rc0 = run_driver(binary, w, 1, 0, 0, extra)
        traced, rc1 = run_driver(binary, w, 1, 0, 1, extra)
        if rc0 or rc1 or plain["errors"] or traced["errors"]:
            problems.append(f"{w}: errors {plain['errors'] + traced['errors']}")
        emitted = {m["name"]: m["value"] for m in plain["metrics"]}
        for name in [m["name"] for m in spec["end_to_end"]] + COMMON_METRICS + WORKLOAD_METRICS[w]:
            if name not in emitted:
                problems.append(f"{w}: end-to-end metric {name} not emitted")
        again = {m["name"]: m["value"] for m in traced["metrics"]}
        for name, value in emitted.items():
            if name.startswith("sim_") and again.get(name) != value:
                problems.append(f"{w}: {name} differs with tracing on ({value} vs {again.get(name)})")
        layer_names |= {m["name"] for m in traced["layers"]}
        print(f"self-test {w}: {len(emitted)} end-to-end, {len(traced['layers'])} per-layer metrics")
    # Full size, as a small cell lasts milliseconds and host noise swamps
    # it: trace, cache and secure are parts of System::run, so their host
    # times must add up to no more than the runs' (a residual of at least 0).
    full, rc = run_driver(binary, "paper-matrix", 1, 0, 1)
    residual = {m["name"]: m["value"] for m in full["layers"]}["sim.host_residual_ns_per_access"]
    if rc or residual < 0:
        problems.append(f"paper-matrix: trace + cache + secure exceed System::run "
                        f"(sim.host_residual_ns_per_access = {residual})")
    # Full size: the dense fill must reproduce fig17's 4 MB row.
    full, rc = run_driver(binary, "crash-recover", 1, 0, 0)
    got = {m["name"]: m["value"] for m in full["metrics"]}
    for name, fig17 in FIG17_4MB.items():
        if rc or abs(got[name] / fig17 - 1) > 0.02:
            problems.append(f"crash-recover: {name} = {got[name]} is not within 2% of fig17's {fig17}")
    declared = {m["name"] for m in spec["per_layer"]}
    for name in sorted(declared - layer_names):
        problems.append(f"per-layer metric {name} emitted by no workload")
    for name in sorted(layer_names - declared):
        problems.append(f"per-layer metric {name} missing from BENCHMARK.json")
    for p in problems:
        print(f"FAIL: {p}")
    print("self-test:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    spec = benchmark_spec()
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    binary = build()
    rc = 0
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        if args.trace:
            d, code = run_driver(binary, w, args.seed, args.seconds, 1)
        else:
            d, code = measure(binary, w, args.seed, args.seconds)
        print_report(d, args.seed)
        rc = rc or code
        sys.stdout.flush()
        if args.workload != "all":
            print(json.dumps(result_line(d, names)))
    return rc


if __name__ == "__main__":
    sys.exit(main())
