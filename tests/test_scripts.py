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
