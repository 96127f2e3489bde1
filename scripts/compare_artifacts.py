#!/usr/bin/env python3
"""Compare the artifacts of the working tree with those of a git revision.

    python scripts/compare_artifacts.py REV

Exports REV with `git archive` into a temporary directory, runs one
fixed matrix of small CLI configs with each tree's sources, and prints
every artifact file as "identical" or "differs". A differing CSV or JSON
file names how many of its rows (CSV lines, JSON leaf values) changed
and the largest absolute and relative change among their numbers.
summary.json's wall_time_s is ignored. Exits 0 when every file is
identical and every run exits as it did at REV, 1 otherwise.

The CLI's soft constraint has the one boundary point x = 0, so the soft
runs have one boundary point.
"""

import argparse
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _workloads():
    """perfbench's workloads, loaded from their file without importing
    perfbench or adding it to sys.path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclass looks its module up in sys.modules while the class is made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


def _config(subdomains, steps, *, problem=None, network=None, schedule=None,
            coarse=None, sweep=None, **training):
    cfg = {"problem": problem or {"kind": "single_frequency", "omega": 15.0},
           "decomposition": {"subdomains": subdomains, "overlap_fraction": 0.7},
           "network": network or {"hidden_layers": 2, "hidden_width": 16},
           "training": {"steps": steps, "record_interval": 10, "seed": 3, **training},
           "schedule": schedule or {"kind": "parallel"}}
    for key, value in (("coarse", coarse), ("sweep", sweep)):
        if value:
            cfg[key] = value
    return cfg


TWO_FREQUENCY = {"kind": "two_frequency", "omega1": 1.0, "omega2": 15.0}
SOFT = {"kind": "single_frequency", "omega": 15.0, "constraint": "soft",
        "soft_weight": 2.0}
SMALL_NETWORK = {"hidden_layers": 1, "hidden_width": 8}

WORKLOADS = _workloads()

# (name, fbpinn subcommand, config): the benchmark's two gated workloads
# at seed 3, then runs that cover what they do not
MATRIX = [
    *((name, WORKLOADS[name].command, WORKLOADS[name].config(3))
      for name in ("converge-j16-p1", "coarse-two-phase")),
    ("alternating-j16-p3", "run", _config(
        16, 48, schedule={"kind": "alternating"}, communication_interval=3,
        collocation_points=1500)),
    ("colored-j8-p2", "run", _config(
        8, 20, schedule={"kind": "colored", "colors": [[1, 3, 5, 7], [2, 4, 6, 8]]},
        communication_interval=2, collocation_points=800)),
    ("soft-j8", "run", _config(8, 30, problem=SOFT, collocation_points=800)),
    ("soft-coarse-j5", "coarse", _config(
        5, 30, problem={**TWO_FREQUENCY, "constraint": "soft", "soft_weight": 2.0},
        collocation_points=400, coarse={"enabled": True, "points": 200, "epochs": 40})),
    ("colored-coarse-j6-p2", "coarse", _config(
        6, 20, schedule={"kind": "colored", "colors": [[1, 3, 5], [2, 4, 6]]},
        communication_interval=2, collocation_points=600,
        coarse={"enabled": True, "points": 200, "epochs": 20})),
    ("sgd-coarse-j4", "coarse", _config(
        4, 30, optimizer="sgd", collocation_points=300,
        coarse={"enabled": True, "points": 100, "epochs": 40})),
    ("sweep-4-cells", "sweep", _config(
        4, 20, collocation_points=400,
        sweep={"subdomains": [4, 8], "communication_intervals": [1, 5]})),
    ("points-3001", "run", _config(16, 20, collocation_points=3001)),
    # solution CSV values far from 1: small-domain's run from 1e-9 to 1e-4
    # (exponent notation, and below 1e-6 the per-value path of
    # reporting._text); two thirds of wide-domain's lie at or above 1e17
    ("small-domain", "run", _config(
        4, 10, problem={"kind": "single_frequency", "omega": 1e5, "domain": [-1e-4, 1e-4]},
        network=SMALL_NETWORK, collocation_points=200)),
    ("wide-domain", "run", _config(
        4, 10, problem={"kind": "single_frequency", "omega": 1e-18, "domain": [-3e18, 3e18]},
        network=SMALL_NETWORK, collocation_points=200)),
    # exits 3 at step 2 and leaves partial artifacts
    ("blowup-sgd-j4", "run", _config(4, 10, optimizer="sgd", learning_rate=1e300,
                                     collocation_points=200, record_interval=1)),
]


def run_matrix(tree, out, matrix):
    """Run every matrix entry through tree's CLI, writing entry `name` to
    out / name and its config beside out; returns {name: exit code}."""
    configs = out.parent / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    codes = {}
    for name, command, config in matrix:
        cfg = configs / f"{name}.json"
        cfg.write_text(json.dumps(config))
        codes[name] = subprocess.run(
            [sys.executable, "-m", "fbpinn", command, str(cfg), "--out", str(out / name)],
            env=env, cwd=configs, capture_output=True).returncode
    return codes


def _rows(path):
    """path's rows as {key: tuple of text cells}: a CSV's lines by number,
    a JSON file's leaf values by their path, wall_time_s left out. None
    for any other file."""
    text = path.read_text()
    if path.suffix == ".csv":
        return {i: tuple(line.split(",")) for i, line in enumerate(text.splitlines())}
    if path.suffix != ".json":
        return None
    leaves = {}

    def walk(node, key):
        if isinstance(node, (dict, list)):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for k, v in items:
                if k != "wall_time_s":
                    walk(v, f"{key}/{k}")
        else:
            leaves[key] = (json.dumps(node),)

    walk(json.loads(text), "")
    return leaves


def _number_change(a, b):
    """(absolute, relative) change from text a to text b, None unless
    both are numbers."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return None
    change = abs(x - y)
    scale = max(abs(x), abs(y))
    return change, change / scale if scale else 0.0


def compare_file(a, b):
    """'identical' or 'differs', with the rows affected and the largest
    absolute and relative change between the two files' numbers."""
    if a.read_bytes() == b.read_bytes():
        return "identical"
    rows_a, rows_b = _rows(a), _rows(b)
    if rows_a is None:
        return "differs"
    keys = rows_a.keys() | rows_b.keys()
    changed = [k for k in keys if rows_a.get(k) != rows_b.get(k)]
    if not changed:
        return "identical"
    largest_abs = largest_rel = 0.0
    for k in changed:
        for x, y in zip(rows_a.get(k, ()), rows_b.get(k, ())):
            change = _number_change(x, y)
            if change is not None:
                largest_abs = max(largest_abs, change[0])
                largest_rel = max(largest_rel, change[1])
    unit = "rows" if a.suffix == ".csv" else "values"
    return (f"differs: {len(changed)} of {len(keys)} {unit}, "
            f"max abs {largest_abs:.3g}, max rel {largest_rel:.3g}")


def compare_outputs(out_a, out_b, label_a, label_b):
    """Print every file under out_a and out_b with its verdict; returns
    the number of files that are not identical."""
    files = sorted({p.relative_to(root) for root in (out_a, out_b)
                    for p in root.rglob("*") if p.is_file()})
    differing = 0
    for rel in files:
        a, b = out_a / rel, out_b / rel
        if not a.exists() or not b.exists():
            verdict = f"only in {label_a if a.exists() else label_b}"
        else:
            verdict = compare_file(a, b)
        differing += verdict != "identical"
        print(f"{rel}: {verdict}")
    return differing


def export(repo, rev, path):
    """Extract rev's files of repo to path with `git archive`, which leaves
    no trace in repo; tarfile's "data" filter refuses links and paths that
    leave path. Returns path."""
    archive = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(path, filter="data")
    return path


def compare(rev, repo=REPO, matrix=MATRIX):
    """Run matrix at rev and in repo's working tree and print the
    comparison; returns the number of files and exit codes that differ."""
    with tempfile.TemporaryDirectory() as tmp:
        base = export(repo, rev, Path(tmp) / "tree")
        codes_rev = run_matrix(base, Path(tmp) / "rev", matrix)
        codes_work = run_matrix(Path(repo), Path(tmp) / "work", matrix)
        differing = 0
        for name, _, _ in matrix:
            if codes_rev[name] == codes_work[name]:
                print(f"{name}: exit {codes_rev[name]}")
            else:
                differing += 1
                print(f"{name}: exit {codes_rev[name]} at {rev}, "
                      f"{codes_work[name]} in the working tree")
        differing += compare_outputs(Path(tmp) / "rev", Path(tmp) / "work",
                                     rev, "the working tree")
    return differing


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", help="git revision to compare the working tree with")
    args = ap.parse_args(argv)
    differing = compare(args.rev)
    print(f"{differing} differing" if differing else "all identical")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
