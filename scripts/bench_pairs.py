#!/usr/bin/env python3
"""Alternating benchmark pairs of the working tree against a git revision.

    python scripts/bench_pairs.py REV --workload converge-j16-p1 [--pairs 10]
                                  [--seconds 40] [--seed 0]

Exports REV with compare_artifacts' `git archive` helper into a
temporary directory. Each pair runs `perfbench/run.py --workload W
--seed S --seconds T --trace 0` once in each tree, with that tree's own
perfbench and sources; pair k uses seed S + k, and the two trees take
turns going first (REV first in pairs 0, 2, 4, ...). Every run's
end-to-end metrics are printed as they come.

Then, for each end-to-end metric of the working tree's BENCHMARK.json,
it prints each side's median and quartiles (the quartiles perfbench
itself reports), the change of the medians and the pairs the working
tree won, ties counting for neither side. A gain holds when at least 10
pairs ran, the working tree won at least 9 in 10 of them, and its median
is better than REV's by more than REV's interquartile range.

It also prints whether the metric regressed, by the metric's `bound` in
BENCHMARK.json, a fraction of REV's median: "regression" when the
working tree's median is worse than REV's by more than the bound,
"unresolved" when REV's interquartile range is wider than the bound
(unless every working-tree run beats every REV run), else "no
regression". Exits 1 when any run failed or was not correct, else 0.
"""

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _compare_artifacts():
    spec = importlib.util.spec_from_file_location(
        "compare_artifacts", Path(__file__).with_name("compare_artifacts.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def quartiles(values):
    """(q1, median, q3) of values, as perfbench/run.py computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(rev_values, work_values, better):
    """Pair statistics of one metric, rev_values[k] and work_values[k]
    being pair k's runs: {"rev": quartiles, "work": quartiles, "won":
    pairs the working tree won, "pairs", "gain": whether a gain holds}.
    better is "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    rev, work = quartiles(rev_values), quartiles(work_values)
    won = sum(sign * (w - r) > 0 for r, w in zip(rev_values, work_values))
    pairs = len(rev_values)
    gap = sign * (work[1] - rev[1])
    gain = pairs >= 10 and 10 * won >= 9 * pairs and gap > rev[2] - rev[0]
    return {"rev": rev, "work": work, "won": won, "pairs": pairs, "gain": gain}


def regression(rev_values, work_values, better, bound):
    """"regression", "unresolved" or "no regression" for one metric, as
    the module docstring defines them; bound is a fraction of REV's
    median."""
    sign = 1.0 if better == "higher" else -1.0
    q1, median, q3 = quartiles(rev_values)
    if min(sign * w for w in work_values) > max(sign * r for r in rev_values):
        return "no regression"
    if q3 - q1 > bound * abs(median):
        return "unresolved"
    if sign * (median - quartiles(work_values)[1]) > bound * abs(median):
        return "regression"
    return "no regression"


def run_perfbench(tree, workload, seed, seconds):
    """One `perfbench/run.py --trace 0` run in tree: (metric values by
    name, correct). A run that crashed or printed no result reads as not
    correct with no metrics."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr)
        return {}, False
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, done.returncode == 0 and result["correct"]


def bench_pairs(rev, workload, pairs, seconds, seed, repo=REPO):
    """Run the pairs and print every run and the summary; returns the
    number of runs that failed or were not correct."""
    spec = json.loads((Path(repo) / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    runs = {"rev": [], "work": []}
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"rev": _compare_artifacts().export(repo, rev, Path(tmp) / "tree"),
                 "work": Path(repo)}
        for k in range(pairs):
            order = ("rev", "work") if k % 2 == 0 else ("work", "rev")
            for side in order:
                values, correct = run_perfbench(trees[side], workload, seed + k, seconds)
                failed += not correct
                runs[side].append(values)
                shown = "  ".join(f"{name} {values[name]:.6g}"
                                  for name, *_ in metrics if name in values)
                label = rev if side == "rev" else "work"
                print(f"pair {k} seed {seed + k} {label}: {shown}"
                      + ("" if correct else "  NOT CORRECT"), flush=True)
    print(f"{workload}: {pairs} pairs, --seconds {seconds:g}, {rev} against the working tree")
    for name, unit, better, bound in metrics:
        kept = [(r[name], w[name]) for r, w in zip(runs["rev"], runs["work"])
                if name in r and name in w]
        if not kept:
            continue
        rev_values, work_values = [r for r, _ in kept], [w for _, w in kept]
        s = summarize(rev_values, work_values, better)
        (rq1, rmed, rq3), (wq1, wmed, wq3) = s["rev"], s["work"]
        change = f"{(wmed - rmed) / rmed:+.1%}" if rmed else "n/a"
        print(f"{name} ({unit}, {better} is better): "
              f"{rev} {rmed:.6g} [{rq1:.6g}, {rq3:.6g}] -> {wmed:.6g} [{wq1:.6g}, {wq3:.6g}], "
              f"{change}, bound {bound:.0%}: "
              f"{regression(rev_values, work_values, better, bound)}, "
              f"won {s['won']}/{s['pairs']}, "
              f"gain {'holds' if s['gain'] else 'does not hold'}")
    return failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", help="git revision to run against the working tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of pair 0; pair k uses seed + k")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    failed = bench_pairs(args.rev, args.workload, args.pairs, args.seconds, args.seed)
    if failed:
        print(f"{failed} runs failed or were not correct")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
