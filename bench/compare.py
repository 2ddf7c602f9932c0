"""Steadiness and comparison tool for the empa benchmark.

    python3 bench/compare.py [--a DIR] [--b DIR] [--runs 10] [--out FILE]

Runs the benchmark command from BENCHMARK.json ``--runs`` times per
workload in checkout A and in checkout B (both default to this
checkout), on every workload of A's BENCHMARK.json, with seeds 1, 2,
..., ``--runs`` and A's ``run_seconds``.  Each seed runs on both sides,
and which side goes first alternates from pair to pair.  For every
workload and end-to-end metric it prints each side's median and
quartiles, the spread (quartile distance over the median), how far B's
median is worse than A's, and how often B beat A in a pair.  ``agree``
means both spreads are within the metric's bound and B is not worse
than A by more than it.  A workload on which any run of either side
reports ``correct: false`` disagrees on every metric, and the tool
exits non-zero.

Run A and B on the same commit to check that the benchmark is steady;
run A on the parent and B on the change to compare them.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout, command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s in %s failed (%d):\n%s" % (
            " ".join(argv), checkout, proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    if not result["correct"]:
        print("  incorrect run: %s seed %d in %s (failed %d of %d)" % (
            workload, seed, checkout, result["failed"], result["attempted"]))
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else math.inf
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def worse_by(a, b, better):
    """How far b is worse than a, as a share of a (negative: better)."""
    diff = b - a if better == "lower" else a - b
    if a == 0:            # only from a broken run, which reports zeros
        return 0.0 if diff == 0 else math.copysign(math.inf, diff)
    return diff / a


def compare(runs, metrics):
    """Summary rows for one workload; ``runs`` maps side -> results.
    Every row disagrees if any run of either side was incorrect."""
    all_correct = all(r["correct"] for side in runs.values() for r in side)
    rows = []
    for m in metrics:
        name, bound = m["name"], m["bound"]
        a = [r["metrics"][name]["value"] for r in runs["a"]]
        b = [r["metrics"][name]["value"] for r in runs["b"]]
        sa, sb = summarize(a), summarize(b)
        shift = worse_by(sa["median"], sb["median"], m["better"])
        spread_ok = max(sa["spread"], sb["spread"]) <= bound
        wins = sum(1 for x, y in zip(a, b) if worse_by(x, y, m["better"]) < 0)
        rows.append({"metric": name, "unit": m["unit"], "bound": bound,
                     "a": sa, "b": sb, "b_worse_by": shift, "b_wins": wins,
                     "pairs": len(a), "correct": all_correct,
                     "agree": all_correct and spread_ok and shift <= bound,
                     "steady": max(sa["spread"], sb["spread"]) < bound / 3})
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", default=str(ROOT), help="checkout A (base)")
    parser.add_argument("--b", default=str(ROOT), help="checkout B")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", help="write raw results and summary as JSON")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs needs at least 2")

    with open(os.path.join(args.a, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "runs": args.runs, "seconds": seconds, "a": args.a, "b": args.b,
              "workloads": {}}
    all_agree = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"a": [], "b": []}
        for i in range(args.runs):
            seed = 1 + i
            order = ("a", "b") if i % 2 == 0 else ("b", "a")
            for side in order:
                checkout = args.a if side == "a" else args.b
                runs[side].append(run_once(checkout, spec["command"],
                                           workload, seed, seconds))
        rows = compare(runs, spec["end_to_end"])
        failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
        attempted = {side: sum(r["attempted"] for r in runs[side])
                     for side in runs}
        report["workloads"][workload] = {"rows": rows, "runs": runs,
                                         "failed": failed,
                                         "attempted": attempted}
        print("\n%s (%d pairs, %d s runs)" % (workload, args.runs, seconds))
        print("failed programs: A %d of %d, B %d of %d" % (
            failed["a"], attempted["a"], failed["b"], attempted["b"]))
        print("%-17s %14s %7s %14s %7s %8s %5s %6s  %s" % (
            "metric", "A median", "spread", "B median", "spread",
            "B worse", "wins", "bound", "verdict"))
        for r in rows:
            all_agree &= r["agree"]
            verdict = "agree" if r["agree"] else "DISAGREE"
            if not r["correct"]:
                verdict += " (incorrect runs)"
            if not r["steady"]:
                verdict += " (spread >= bound/3)"
            print("%-17s %14.6g %6.2f%% %14.6g %6.2f%% %7.2f%% %2d/%-2d %5.2f  %s" % (
                r["metric"], r["a"]["median"], 100 * r["a"]["spread"],
                r["b"]["median"], 100 * r["b"]["spread"],
                100 * r["b_worse_by"], r["b_wins"], r["pairs"], r["bound"],
                verdict))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
