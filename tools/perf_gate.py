#!/usr/bin/env python3
"""Paired perf gate: this checkout's repo benchmark against a base revision.

    python3 tools/perf_gate.py --base <rev>

Run from anywhere inside a git checkout. <rev> is extracted into a
temporary directory, and each tree runs its own perfbench/run.py --trace 0
(each builds its own .bench_build/). For every workload in BENCHMARK.json
the two sides run PAIRS times each, interleaved, alternating which side
goes first, with --seconds set to BENCHMARK.json's run_seconds.

The gate fails (exit 1) when, on any workload:
  - the head's median of an end-to-end metric is worse than the base's
    median by more than that metric's bound in BENCHMARK.json;
  - a head run reports correct: false or does not finish;
  - the head's failed/attempted share is larger than the base's.

One table per workload goes to stdout. Both sides run on the same host in
alternation, so slow drift of the host hits both sides alike; comparing
one run against a number recorded elsewhere cannot tell that apart from a
regression.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 5
SEED = 1
RUN_TIMEOUT_S = 1200  # a run plus a first Release build


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def worse_by(metric, base, head):
    """Relative amount by which head is worse than base (< 0: better)."""
    delta = head - base if metric["better"] == "lower" else base - head
    if base == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(base)


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(metrics, base_runs, head_runs):
    """Verdict for one workload.

    metrics: BENCHMARK.json's end_to_end list. base_runs / head_runs:
    perfbench result objects, or None for a run that did not finish.
    Returns (rows, failures): one row per metric for the table, and one
    line per reason to fail.
    """
    failures = []
    base = [r for r in base_runs if r is not None]
    head = [r for r in head_runs if r is not None]
    if len(head) < len(head_runs):
        failures.append(f"{len(head_runs) - len(head)} head run(s) did "
                        "not finish")
    if not base or not head:
        failures.append("no finished run on the "
                        + ("base" if not base else "head") + " side")
        return [], failures
    incorrect = sum(1 for r in head if not r["correct"])
    if incorrect:
        failures.append(f"{incorrect} head run(s) report correct: false")
    if failed_share(head) > failed_share(base):
        failures.append(f"failed share {failed_share(head):.3f} > base "
                        f"{failed_share(base):.3f}")
    rows = []
    for m in metrics:
        name = m["name"]
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        h = statistics.median(r["metrics"][name]["value"] for r in head)
        worse = worse_by(m, b, h)
        ok = worse <= m["bound"]
        rows.append((name, m["better"], m["bound"], b, h, worse, ok))
        if not ok:
            failures.append(f"{name} is {100 * worse:.1f}% worse "
                            f"(bound {100 * m['bound']:.0f}%)")
    return rows, failures


def print_table(workload, rows, base_runs, head_runs):
    print(f"\n== {workload}: {PAIRS} pairs, seed {SEED}")
    print(f"{'metric':<12} {'better':<6} {'bound':>5} {'base':>10} "
          f"{'head':>10} {'head/base':>9} {'worse':>7}  verdict")
    for name, better, bound, b, h, worse, ok in rows:
        ratio = h / b if b else float("nan")
        print(f"{name:<12} {better:<6} {bound:>5.2f} {b:>10.4g} "
              f"{h:>10.4g} {ratio:>9.3f} {100 * worse:>6.1f}%  "
              f"{'ok' if ok else 'WORSE'}")
    for side, runs in (("base", base_runs), ("head", head_runs)):
        done = [r for r in runs if r is not None]
        print(f"{side}: {len(done)}/{len(runs)} runs finished, "
              f"{sum(r['correct'] for r in done)} correct, "
              f"{sum(r['failed'] for r in done)}/"
              f"{sum(r['attempted'] for r in done)} cells failed")


def run_once(tree, command, workload, seconds):
    """One perfbench run in `tree`; its result object, or None."""
    cmd = command + ["--workload", workload, "--seed", str(SEED),
                     "--seconds", str(seconds), "--trace", "0"]
    try:
        r = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{tree}: {workload} timed out")
        return None
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"{tree}: {workload} exit {r.returncode}\n{r.stderr[-2000:]}")
        return None


def extract(rev, dest):
    """Write the tree of commit `rev` into `dest`."""
    commit = subprocess.run(["git", "rev-parse", "--verify",
                             rev + "^{commit}"], cwd=ROOT, check=True,
                            stdout=subprocess.PIPE, text=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise subprocess.CalledProcessError(archive.returncode, "git archive")
    return commit


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True,
                    help="git revision to compare this checkout against")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    failures = []
    with tempfile.TemporaryDirectory(prefix="perf_gate_") as base_tree:
        commit = extract(args.base, base_tree)
        log(f"perf gate: base {commit[:12]} in {base_tree}, head {ROOT}")
        for w in bench["workloads"]:
            name = w["name"]
            runs = {"base": [], "head": []}
            for i in range(PAIRS):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    tree = base_tree if side == "base" else ROOT
                    log(f"{name} pair {i + 1}/{PAIRS}: {side}")
                    runs[side].append(run_once(tree, bench["command"], name,
                                               bench["run_seconds"]))
            rows, bad = compare(bench["end_to_end"], runs["base"],
                                runs["head"])
            print_table(name, rows, runs["base"], runs["head"])
            failures += [f"{name}: {b}" for b in bad]
            sys.stdout.flush()

    print()
    for f in failures:
        print("FAIL " + f)
    print("perf gate: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
