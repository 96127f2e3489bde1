"""The scripts under scripts/, run at tiny sizes."""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

RUN_FILES = ["config.json", "decomposition.json", "loss_history.csv",
             "solution.csv", "summary.json"]

DRIVERS = [
    ("run_convergence.py",
     ["--subdomains", "4", "--steps", "4", "--points", "64", "--record-interval", "2"],
     RUN_FILES + [f"checkpoints/subdomain_0{j}.json" for j in range(1, 5)]),
    ("run_p_sweep.py",
     ["--subdomains", "2", "4", "--intervals", "1", "2", "--steps", "4",
      "--points", "64"],
     ["config.json", "sweep_summary.csv", "trends.json"]
     + [f"cells/J0{J}_p000{p}/{name}" for J in (2, 4) for p in (1, 2)
        for name in RUN_FILES[1:]]),
    ("run_coarse_correction.py",
     ["--subdomains", "4", "--coarse-epochs", "2", "--coarse-points", "20",
      "--steps", "4", "--points", "64"],
     RUN_FILES + ["coarse_solution.csv", "checkpoints/coarse.json"]),
]


def _env():
    src = str(REPO / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}


@pytest.mark.parametrize("script, args, files", DRIVERS, ids=[d[0] for d in DRIVERS])
def test_driver_script_runs(tmp_path, script, args, files):
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, str(REPO / "scripts" / script), *args,
                           "--out", str(out)],
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    for name in files:
        assert (out / name).is_file(), name
    summaries = [json.loads(p.read_text()) for p in out.rglob("summary.json")]
    assert summaries and all(s["results"]["final_loss"] is not None for s in summaries)


def _load_compare_artifacts():
    spec = importlib.util.spec_from_file_location(
        "compare_artifacts", REPO / "scripts" / "compare_artifacts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# solution.csv gets u_pred's first value one ulp up
ONE_ULP = """

_write_solution = write_solution


def write_solution(outdir, x, pred, *args, **kwargs):
    import numpy
    pred = pred.copy()
    pred[0] = numpy.nextafter(pred[0], numpy.inf)
    _write_solution(outdir, x, pred, *args, **kwargs)
"""


def test_compare_artifacts_finds_a_one_ulp_change(tmp_path, capsys):
    compare = _load_compare_artifacts()
    repo = tmp_path / "repo"
    shutil.copytree(REPO / "src", repo / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + args, check=True)
    matrix = [("tiny", "run", {"decomposition": {"subdomains": 2},
                               "network": {"hidden_layers": 1, "hidden_width": 4},
                               "training": {"steps": 2, "collocation_points": 40}})]

    assert compare.compare("HEAD", repo, matrix) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tiny: exit 0"
    assert "tiny/solution.csv: identical" in lines
    assert all(line.endswith(": identical") for line in lines[1:])

    with open(repo / "src" / "fbpinn" / "reporting.py", "a") as fh:
        fh.write(ONE_ULP)
    assert compare.compare("HEAD", repo, matrix) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tiny: exit 0"
    differing = [line for line in lines[1:] if not line.endswith(": identical")]
    assert len(differing) == 1
    name, verdict = differing[0].split(": ", 1)
    assert name == "tiny/solution.csv"
    assert re.fullmatch(r"differs: 1 of \d+ rows, max abs \S+, max rel \S+", verdict)
    assert 0 < float(verdict.split()[-1]) <= 2.3e-16
    worktrees = subprocess.run(git + ["worktree", "list"], check=True,
                               capture_output=True, text=True).stdout
    assert len(worktrees.splitlines()) == 1


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", REPO / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_statistics_on_fixed_numbers():
    summarize = _load_bench_pairs().summarize
    rev = [200.0, 198.0, 202.0, 199.0, 201.0, 203.0, 197.0, 200.0, 204.0, 196.0]
    # quartiles as statistics.quantiles(n=4) and perfbench take them:
    # rev's are 197.75 and 202.25, an interquartile range of 4.5
    work = [r + 5.0 for r in rev]
    s = summarize(rev, work, "higher")
    assert s["rev"] == (197.75, 200.0, 202.25)
    assert s["work"] == (202.75, 205.0, 207.25)
    assert (s["won"], s["pairs"], s["gain"]) == (10, 10, True)
    # 9 of 10 pairs still hold; a tie counts for neither side
    tied = work[:9] + [rev[9]]
    assert summarize(rev, tied, "higher")["won"] == 9
    assert summarize(rev, tied, "higher")["gain"]
    # 8 of 10 do not, whatever the medians
    lost = work[:8] + [r - 1.0 for r in rev[8:]]
    assert summarize(rev, lost, "higher")["won"] == 8
    assert not summarize(rev, lost, "higher")["gain"]
    # every pair won, but a median gap of 4 within the interquartile range of 4.5
    assert not summarize(rev, [r + 4.0 for r in rev], "higher")["gain"]
    # lower is better: the same numbers read the other way round
    s = summarize(work, rev, "lower")
    assert (s["won"], s["gain"]) == (10, True)
    assert not summarize(rev, work, "lower")["gain"]
    # fewer than 10 pairs never hold
    assert not summarize(rev[:9], work[:9], "higher")["gain"]
    assert summarize([1.0], [2.0], "higher")["rev"] == (1.0, 1.0, 1.0)


def test_bench_pairs_runs_both_trees_alternately(tmp_path, capsys):
    bench = _load_bench_pairs()
    repo = tmp_path / "repo"
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".perfbench_out")
    for name in ("src", "perfbench"):
        shutil.copytree(REPO / name, repo / name, ignore=ignore)
    shutil.copy(REPO / "BENCHMARK.json", repo / "BENCHMARK.json")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + args, check=True)

    # one pair of the shortest runs perfbench makes: a warm-up and two repeats
    assert bench.bench_pairs("HEAD", "converge-j16-p1", 1, 0, 3, repo) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["pair 0 seed 3 HEAD",
                                                          "pair 0 seed 3 work"]
    for line in lines[:2]:
        assert "NOT CORRECT" not in line
        for name in ("steps_per_s", "wall_s", "setup_s", "peak_rss_mb"):
            assert f" {name} " in line
    assert lines[2] == "converge-j16-p1: 1 pairs, --seconds 0, HEAD against the working tree"
    verdicts = lines[3:]
    assert [v.split(" (")[0] for v in verdicts] == ["steps_per_s", "wall_s", "setup_s",
                                                    "peak_rss_mb"]
    assert all(v.endswith("won 0/1, gain does not hold") or
               v.endswith("won 1/1, gain does not hold") for v in verdicts)
    worktrees = subprocess.run(git + ["worktree", "list"], check=True,
                               capture_output=True, text=True).stdout
    assert len(worktrees.splitlines()) == 1
