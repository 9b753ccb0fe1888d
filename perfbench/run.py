#!/usr/bin/env python3
"""FleetIO repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds libfleetio and the
cell runner (perfbench/cell.cc) in Release mode under .bench_build/.
Every cell runs in its own single-threaded process, one after another,
so each starts with an empty calibrated-SLO cache as a standalone run
does.

--trace 0 runs untraced cells (runExperiment timed from outside) and
reports the end-to-end metrics. --trace 1 runs, per seed, an untraced
cell, the traced cell (same spec and seed; spans around every public
call, Chrome trace JSON under .bench_build/traces/) and an all-obs-on
cell, and reports the per-layer metrics.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
See perfbench/README.md for the workloads, the metrics and what each
per-layer metric is expected to move.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
CELL_BIN = os.path.join(BUILD_DIR, "fleetbench_cell")

WORKLOADS = ("fleetio-vdi-terasort", "swiso-ycsb-pagerank", "fleetio-mix8")

DEFAULT_SEED = 1
HELD_OUT_SEED = 20251  # never used while tuning; gain claims must hold here

MEASURE_SEC = 60  # simulated measure phase per cell (paper-scale window)
SEEDS_PER_RUN = 5  # distinct seeds per run; simulated metrics: their median
SEED_STRIDE = 1000003
RUN_DEADLINE_S = 170  # a run must exit within 180 s
BUILD_DEADLINE_S = 880

# name -> (unit, better)
END_TO_END = {
    "cell_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "sim_speed": ("s/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ls_p95_ms": ("ms", "lower"),
    "bi_bw_mbps": ("MB/s", "higher"),
    "util": ("fraction", "higher"),
}
# Simulated end-to-end metrics: deterministic per seed; the median over the
# run's distinct seeds, because a rare seed sits far out (one mix8 seed in
# about 25 doubles the median LS tenant's P95). The rest are host
# measurements: the median over every cell of the run.
SIMULATED = ("ls_p95_ms", "bi_bw_mbps", "util")

# name -> (unit, better, end-to-end metrics it should move, kind). "sim"
# metrics are simulated outcomes and counts, deterministic per seed, taken
# from cell seed N so they repeat exactly; "host" metrics are host times,
# the median over the run's iterations.
PER_LAYER = {
    "sim.ns_per_event": ("ns", "lower", ["sim_speed"], "host"),
    "sim.measure_window_ms.p50": ("ms", "lower", ["sim_speed"], "host"),
    "sim.measure_window_ms.p90": ("ms", "lower", ["sim_speed"], "host"),
    "sim.queue_depth.mean": ("events", "lower", ["sim_speed"], "sim"),
    "sim.queue_depth.max": ("events", "lower", ["sim_speed"], "sim"),
    "sim.events_per_request": ("events", "lower", ["sim_speed"], "sim"),
    "sim.eq_replay_ns": ("ns", "lower", ["sim_speed"], "host"),
    "virt.ops_dispatched": ("count", "higher", ["sim_speed"], "sim"),
    "virt.ns_per_op": ("ns", "lower", ["sim_speed"], "host"),
    "ssd.host_reads": ("count", "higher", ["util", "bi_bw_mbps"], "sim"),
    "ssd.host_writes": ("count", "higher", ["util", "bi_bw_mbps"], "sim"),
    "ssd.gc_pages_migrated": ("count", "lower", ["util", "sim_speed"], "sim"),
    "ssd.erases": ("count", "lower", ["util", "sim_speed"], "sim"),
    "ssd.write_amp": ("ratio", "lower", ["util", "bi_bw_mbps"], "sim"),
    "ssd.warmup_fill_s": ("s", "lower", ["setup_s"], "host"),
    "ssd.ftl_alloc_replay_ns": ("ns", "lower",
        ["setup_s", "sim_speed"], "host"),
    "ssd.ftl_lookup_replay_ns": ("ns", "lower",
        ["setup_s", "sim_speed"], "host"),
    "harvest.gsb_created": ("count", "higher",
        ["ls_p95_ms", "bi_bw_mbps"], "sim"),
    "harvest.gsb_harvested": ("count", "higher",
        ["ls_p95_ms", "bi_bw_mbps"], "sim"),
    "harvest.gsb_revoked": ("count", "lower",
        ["ls_p95_ms", "bi_bw_mbps"], "sim"),
    "harvest.useful_ratio": ("ratio", "higher",
        ["ls_p95_ms", "bi_bw_mbps"], "sim"),
    "core.decisions": ("count", "higher", ["cell_s"], "sim"),
    "core.admission_accept_ratio": ("ratio", "higher", ["bi_bw_mbps"], "sim"),
    "core.teacher_window_ms.p50": ("ms", "lower", ["cell_s"], "host"),
    "core.teacher_window_ms.p98": ("ms", "lower", ["cell_s"], "host"),
    "core.teacher_self_ms": ("ms", "lower", ["cell_s"], "host"),
    "core.ppo_window_ms.p50": ("ms", "lower", ["cell_s"], "host"),
    "rl.optimizer_steps": ("count", "higher", ["cell_s"], "sim"),
    "rl.update_window_extra_ms": ("ms", "lower", ["cell_s"], "host"),
    "rl.decide_replay_us": ("us", "lower", ["cell_s"], "host"),
    "rl.imitate_replay_us": ("us", "lower", ["cell_s"], "host"),
    "rl.ppo_update_replay_ms": ("ms", "lower", ["cell_s"], "host"),
    "harness.calibrate_s": ("s", "lower", ["setup_s", "cell_s"], "host"),
    "harness.build_s": ("s", "lower", ["setup_s", "cell_s"], "host"),
    "harness.warm_run_s": ("s", "lower", ["setup_s", "cell_s"], "host"),
    "harness.prepare_s": ("s", "lower", ["cell_s"], "host"),
    "harness.collect_s": ("s", "lower", ["cell_s"], "host"),
    "workloads.requests_issued": ("count", "higher",
        ["util", "sim_speed"], "sim"),
    "workloads.requests_completed": ("count", "higher",
        ["util", "sim_speed"], "sim"),
    "workloads.ls_p99_ms": ("ms", "lower", ["ls_p95_ms"], "sim"),
    "workloads.ls_slo_violation": ("fraction", "lower", ["ls_p95_ms"], "sim"),
    "obs.on_cost_ratio": ("ratio", "lower", ["cell_s"], "host"),
    "trace.overhead_ratio": ("ratio", "lower", ["cell_s"], "host"),
    "trace.top_level_coverage": ("ratio", "higher", ["cell_s"], "host"),
}

# A tenant's issued - completed may not exceed this share of its issued
# requests at the end of a cell (open-loop backlog must not grow).
MAX_BACKLOG_SHARE = 0.01
# The traced cell's top-level spans must cover this share of its wall time.
MIN_TRACE_COVERAGE = 0.999


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the cell runner (a no-op when up to date)."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target", "fleetbench_cell"])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_DEADLINE_S)
            if r.returncode != 0:
                log(r.stdout[-4000:])
                raise RuntimeError("build failed: " + " ".join(cmd))


def child_env():
    # Obs / checkpoint knobs read from the environment would change what
    # a cell does; cells run with none of them set.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("FLEETIO_")}


def run_cell(workload, seed, mode, deadline, trace_out=None):
    """One cell in its own process. Returns its JSON dict, or None."""
    cmd = [CELL_BIN, "--workload", workload, "--seed", str(seed),
           "--measure-sec", str(MEASURE_SEC), "--mode", mode]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=timeout, env=child_env())
    except subprocess.TimeoutExpired:
        log(f"cell {workload} seed {seed} {mode}: timed out")
        return None
    if r.returncode != 0:
        log(f"cell {workload} seed {seed} {mode}: exit {r.returncode}\n"
            + r.stderr[-2000:])
        return None
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"cell {workload} seed {seed} {mode}: unparsable output")
        return None


def cell_problems(c):
    """Correctness checks every cell must pass."""
    bad = [k for k, v in c.items()
           if not isinstance(v, str) and
           (v is None or not math.isfinite(v))]
    if bad:
        return ["non-finite " + ", ".join(sorted(bad))]
    problems = []
    if c["min_tenant_requests"] <= 0:
        problems.append("a tenant completed no requests while measured")
    if c["write_amp"] < 1.0:
        problems.append(f"write_amp {c['write_amp']} < 1")
    for k in SIMULATED:
        if c[k] <= 0:
            problems.append(f"{k} is {c[k]}")
    return problems


def traced_problems(t, plain):
    problems = cell_problems(t)
    if t["digest"] != plain["digest"]:
        problems.append(f"traced digest {t['digest']} != untraced "
                        f"{plain['digest']}")
    if t["max_backlog_share"] > MAX_BACKLOG_SHARE:
        problems.append(f"backlog {t['max_backlog_share']:.4f} of issued "
                        "requests is outstanding")
    if t["trace.top_level_coverage"] < MIN_TRACE_COVERAGE:
        problems.append("top-level spans cover only "
                        f"{t['trace.top_level_coverage']:.5f} of the cell")
    return problems


def trace_file_problems(path):
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return [f"trace {path} is not Chrome trace JSON: {e}"]
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans or any("dur" not in e or "ts" not in e for e in spans):
        return [f"trace {path} has no complete spans"]
    return []


def cell_seeds(seed):
    return [(seed + i * SEED_STRIDE) % (1 << 64) for i in range(SEEDS_PER_RUN)]


class Run:
    def __init__(self, workload, seconds):
        self.workload = workload
        self.seconds = seconds
        self.start = time.monotonic()
        self.deadline = self.start + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.iter_s = []

    def more(self, done, minimum):
        """Start another iteration? At least `minimum`, then only while
        the median iteration still fits in the measured seconds."""
        if done < minimum:
            return True
        elapsed = time.monotonic() - self.start
        typical = statistics.median(self.iter_s)
        return (elapsed + typical <= self.seconds and
                time.monotonic() + typical < self.deadline)

    def fail(self, what, problems):
        self.failed += 1
        log(f"FAILED {self.workload} {what}: " + "; ".join(problems))


def run_untraced(run, seeds):
    host = {k: [] for k in END_TO_END if k not in SIMULATED}
    sim = {}  # seed -> cell JSON (first good cell of that seed)
    i = 0
    while run.more(i, len(seeds)):
        seed = seeds[i % len(seeds)]
        t0 = time.monotonic()
        c = run_cell(run.workload, seed, "plain", run.deadline)
        run.iter_s.append(time.monotonic() - t0)
        run.attempted += 1
        i += 1
        problems = ["cell did not complete"] if c is None else cell_problems(c)
        if c is not None and seed in sim and c["digest"] != sim[seed]["digest"]:
            problems.append(f"seed {seed} digest {c['digest']} differs from "
                            f"its earlier run {sim[seed]['digest']}")
        if problems:
            run.fail(f"seed {seed}", problems)
            continue
        sim.setdefault(seed, c)
        for k in host:
            host[k].append(c[k])
    if not sim:
        return None
    metrics = {k: statistics.median(v) for k, v in host.items()}
    for k in SIMULATED:
        metrics[k] = statistics.median(c[k] for c in sim.values())
    return metrics


def run_traced(run, seeds):
    os.makedirs(TRACE_DIR, exist_ok=True)
    samples = {k: [] for k in PER_LAYER}
    i = 0
    while run.more(i, 1):
        seed = seeds[i % len(seeds)]
        t0 = time.monotonic()
        i += 1
        trace_out = os.path.join(TRACE_DIR,
                                 f"{run.workload}-seed{seed}.trace.json")
        plain = run_cell(run.workload, seed, "plain", run.deadline)
        traced = run_cell(run.workload, seed, "traced", run.deadline,
                          trace_out)
        obs = run_cell(run.workload, seed, "obs", run.deadline)
        run.iter_s.append(time.monotonic() - t0)
        run.attempted += 1
        if plain is None or traced is None or obs is None:
            run.fail(f"seed {seed}", ["a cell did not complete"])
            continue
        problems = (cell_problems(plain) + cell_problems(obs) +
                    traced_problems(traced, plain) +
                    trace_file_problems(trace_out))
        if obs["digest"] != plain["digest"]:
            problems.append("obs-on digest differs from obs-off digest")
        if problems:
            run.fail(f"seed {seed}", problems)
            continue
        log(f"trace: {os.path.relpath(trace_out, ROOT)}")
        traced["workloads.ls_p99_ms"] = traced["ls_p99_ms"]
        traced["workloads.ls_slo_violation"] = traced["ls_slo_violation"]
        traced["obs.on_cost_ratio"] = obs["cell_s"] / plain["cell_s"]
        traced["trace.overhead_ratio"] = (traced["traced_cell_s"] /
                                          plain["cell_s"])
        for k in PER_LAYER:
            samples[k].append(traced[k])
    if not samples["sim.ns_per_event"]:
        return None
    return {k: v[0] if PER_LAYER[k][3] == "sim" else statistics.median(v)
            for k, v in samples.items()}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; a gain "
                    f"claim must also hold on the held-out seed "
                    f"{HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1

    run = Run(args.workload, args.seconds)
    seeds = cell_seeds(args.seed)
    if args.trace:
        values, table = run_traced(run, seeds), PER_LAYER
    else:
        values, table = run_untraced(run, seeds), END_TO_END
    if values is None:
        log("perfbench: no cell completed")
        return 1
    metrics = {k: {"value": values[k], "unit": table[k][0]} for k in table}
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
