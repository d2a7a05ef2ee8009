#!/usr/bin/env python3
"""Run the xlf benchmark workloads, check their outputs, print every metric.

Started by run.sh once the build is done. One run is one workload at one
seed: it starts a fresh xlf_bench process per repetition (so peak RSS is
per repetition) until the workload's repetitions have taken --seconds
and at least MIN_REPS ran, and reports the median of each end-to-end
metric. With --trace 1 every untraced repetition is followed by a traced
one and the run reports the per-layer metrics instead. The runs of
several workloads at one seed interleave their repetitions
(A1 B1 C1 A2 B2 C2 ...); --runs > 1 repeats that at the next seeds.

Metric names, units and the workload list come from BENCHMARK.json. The
last line on stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a table of every metric.
"""

import argparse
import fnmatch
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1  # the seed golden.json holds digests for
SETUP, RUN, AUDIT = 0, 1, 2
PHASE_PREFIX = {"setup": SETUP, "audit": AUDIT}
REP_TIMEOUT_S = 150
MIN_REPS = 3  # a median needs at least three repetitions


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", type=Path, required=True,
                        help="build directory holding xlf_bench (set by run.sh)")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed of the first run")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, at seeds seed, seed+1, ...")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measure each run for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add traced repetitions, report per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--out", type=Path,
                        help="write the result set (every run and repetition) here")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    args.workload = args.workload or workloads
    return args


def repetition(binary, workload, seed, trace_stem=None):
    """One xlf_bench process; its JSON line plus its peak RSS."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if trace_stem is not None:
        cmd += ["--trace-stem", str(trace_stem)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(REP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        rep = {"checks": {}, "phases": {}, "ops": 0, "failed_ops": 0}
    rep["exit"] = proc.returncode
    rep["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return rep


def end_to_end(rep):
    phases = rep["phases"]
    run_s = phases.get("run_s", 0.0)
    return {
        "setup_s": phases.get("setup_s", float("nan")),
        "ops_per_s": rep["ops"] / run_s if run_s > 0 else float("nan"),
        "wall_s": phases.get("wall_s", float("nan")),
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def per_layer(rep, names, untraced_wall_s):
    """Per-layer metrics of one traced repetition, by BENCHMARK.json name."""
    trace = rep["trace"]
    walls = trace["walls_ns"]
    layers = trace["layers"]
    boundaries = {b["name"]: b for b in trace["boundaries"]}

    def calls(name, phase=RUN):
        return boundaries[name]["calls"][phase]

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "sim.events": calls("sim.schedule_at"),
        "sim.events_per_cmd": ratio(calls("sim.schedule_at"), rep["ops"]),
        "ftl.programs_per_host_write":
            ratio(calls("controller.write_page"), calls("ftl.write")),
        "ftl.erases_per_1k_writes":
            1000.0 * ratio(calls("controller.erase_block"), calls("ftl.write")),
        "util.gaussian_calls": calls("util.gaussian"),
        "util.gaussian_per_erase":
            ratio(calls("util.gaussian"), calls("nand.erase_block")),
        "util.bitvec_set_calls": calls("util.bitvec_set"),
        "bch.decodes_per_read": ratio(calls("bch.decode"), calls("ftl.read")),
        "explore.parallel_eff":
            ratio(trace["task_ns"][RUN], walls[RUN] * rep["threads"]),
        "trace.spans": sum(b["calls"][RUN] for b in trace["boundaries"] if b["span"]),
        "trace.unattributed_pct":
            100.0 * ratio(sum(walls) - sum(trace["main_self_ns"]), sum(walls)),
        "trace.overhead_pct":
            100.0 * (rep["phases"]["wall_s"] / untraced_wall_s - 1.0),
    }

    def value(name):
        if name in derived:
            return derived[name]
        head, _, stat = name.rpartition(".")
        if stat in ("ns_p50", "ns_p99"):
            return boundaries[head]["p50_ns" if stat == "ns_p50" else "p99_ns"]
        parts = head.split(".")
        phase = PHASE_PREFIX.get(parts[0], RUN)
        layer = parts[-1]
        if stat == "self_ms":
            return layers[layer][phase] / 1e6
        if stat == "share_pct":
            return 100.0 * ratio(layers[layer][phase],
                                 sum(v[phase] for v in layers.values()))
        if stat == "calls":
            return sum(b["calls"][phase] for b in trace["boundaries"]
                       if b["layer"] == layer)
        raise KeyError(f"no rule computes per-layer metric {name}")

    return {name: value(name) for name in names}


def trace_failures(workload, rep):
    """Self-checks of one traced repetition."""
    trace = rep["trace"]
    failures = []
    for phase, name in enumerate(("setup", "run", "audit")):
        wall = trace["walls_ns"][phase]
        gap = abs(wall - trace["main_self_ns"][phase])
        if gap > max(0.01 * wall, 1000):
            failures.append(f"traced {name}: layer self times miss the phase "
                            f"wall by {gap} ns of {wall} ns")
    for b in trace["boundaries"]:
        reached = sum(b["calls"]) > 0
        if fnmatch.fnmatch(workload, b["expect"]) and not (reached or b["missing"]):
            failures.append(f"traced boundary {b['name']} never called")
    return failures


def rep_failures(rep):
    failures = [f"check {name} failed" for name, ok in rep["checks"].items() if not ok]
    if not rep["checks"]:
        failures.append("xlf_bench printed no result")
    if rep.get("error"):
        failures.append(f"error: {rep['error']}")
    if rep["exit"] != 0:
        failures.append(f"xlf_bench exited with {rep['exit']}")
    return failures


def run_seed(args, seed, spec, golden):
    """One run per workload at one seed, repetitions interleaved."""
    trace_dir = args.build / "trace"
    if args.trace:
        trace_dir.mkdir(exist_ok=True)
    reps = {w: ([], []) for w in args.workload}  # untraced, traced
    busy = dict.fromkeys(args.workload, 0.0)
    pending = list(args.workload)
    while pending:
        for workload in list(pending):
            untraced, traced = reps[workload]
            start = time.monotonic()
            untraced.append(repetition(args.build / "xlf_bench", workload, seed))
            if args.trace:
                traced.append(repetition(args.build / "xlf_bench_traced", workload, seed,
                                         trace_dir / f"{workload}.seed{seed}"))
            busy[workload] += time.monotonic() - start
            done = len(untraced)
            if done >= MIN_REPS and busy[workload] * (done + 1) / done > args.seconds:
                pending.remove(workload)
    return [summarise(workload, seed, *reps[workload], spec, golden)
            for workload in args.workload]


def summarise(workload, seed, untraced, traced, spec, golden):
    """Checks and metric medians of one run."""
    failures = []
    for rep in untraced + traced:
        failures += rep_failures(rep)
    digests = {rep.get("digest") for rep in untraced + traced}
    if len(digests) != 1:
        failures.append(f"digests differ between repetitions: {sorted(map(str, digests))}")
    if seed == DEFAULT_SEED and golden.get(workload) not in digests:
        failures.append(f"digest {sorted(map(str, digests))} is not golden "
                        f"{golden.get(workload)}")
    for rep in traced:
        if "trace" in rep:
            failures += trace_failures(workload, rep)

    samples = [end_to_end(rep) for rep in untraced]
    if traced and all("trace" in rep for rep in traced):
        wall = statistics.median(s["wall_s"] for s in samples)
        names = [m["name"] for m in spec["per_layer"]]
        samples = [per_layer(rep, names, wall) for rep in traced]
    metrics = {name: [s[name] for s in samples] for name in samples[0]}
    missing = sorted({b["name"] for rep in traced if "trace" in rep
                      for b in rep["trace"]["boundaries"] if b["missing"]})
    return {
        "workload": workload,
        "seed": seed,
        "traced": bool(traced),
        "correct": not failures,
        "failures": failures,
        "attempted": sum(rep["ops"] for rep in untraced + traced),
        "failed": sum(rep["failed_ops"] for rep in untraced + traced),
        "metrics": {name: statistics.median(v) for name, v in metrics.items()},
        "samples": metrics,
        "digest": sorted(map(str, digests))[0],
        "trace_missing": missing,
    }


def machine(build):
    """Where the numbers came from: compiler, flags, CPU and revision."""
    cache = {}
    for line in (build / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.startswith(("#", "//")):
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    try:
        revision = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True).stdout.strip()
    except OSError:
        revision = ""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "compiler": version,
        "build_type": build_type,
        "cxx_flags": " ".join(filter(None, (
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")))),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "kernel": platform.release(),
        "revision": revision or "unknown",
    }


def print_table(results, units):
    print(f"{'workload':<16} {'seed':>4} {'metric':<34} {'unit':<6} "
          f"{'median':>14} {'min':>14} {'max':>14} {'n':>3}")
    for result in results:
        for name, values in result["samples"].items():
            print(f"{result['workload']:<16} {result['seed']:>4} {name:<34} "
                  f"{units[name]:<6} {statistics.median(values):>14.6g} "
                  f"{min(values):>14.6g} {max(values):>14.6g} {len(values):>3}")
        status = "ok" if result["correct"] else "FAILED: " + "; ".join(result["failures"])
        print(f"{result['workload']:<16} {result['seed']:>4} checks: {status}")
        if result["traced"]:
            missing = ", ".join(result["trace_missing"]) or "none"
            print(f"{result['workload']:<16} {result['seed']:>4} trace.missing: {missing}")


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    golden = json.loads((BENCH_DIR / "golden.json").read_text())

    results = []
    for run in range(args.runs):
        seed = args.seed + run
        print(f"[seed {seed}: {' '.join(args.workload)}]", file=sys.stderr, flush=True)
        results += run_seed(args, seed, spec, golden)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print_table(results, units)
    if args.out is not None:
        args.out.write_text(json.dumps({
            "machine": machine(args.build),
            "settings": {"seconds": args.seconds, "trace": args.trace},
            "runs": results,
        }, indent=1) + "\n")

    single = len(args.workload) == 1
    metrics = {}
    for workload in args.workload:
        runs = [r for r in results if r["workload"] == workload]
        for name in runs[0]["metrics"]:
            key = name if single else f"{workload}.{name}"
            metrics[key] = {"value": statistics.median(r["metrics"][name] for r in runs),
                            "unit": units[name]}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
