"""The paper's runs under configs/, shrunk to tiny sizes, and the scripts
under scripts/."""

import importlib.util
import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from fbpinn import cli
from fbpinn.config import load_config

REPO = Path(__file__).resolve().parents[1]

CONFIG_FILES = sorted((REPO / "configs").glob("*.json"))

RUN_FILES = ["decomposition.json", "loss_history.csv", "solution.csv", "summary.json"]

# each shipped config's subcommand, the sizes the test shrinks and the
# files the shrunk run writes
SHIPPED = {
    "convergence.json": (
        "run",
        {"decomposition": {"subdomains": 4},
         "training": {"steps": 4, "collocation_points": 64}},
        RUN_FILES + [f"checkpoints/subdomain_0{j}.json" for j in range(1, 5)]),
    "p_sweep.json": (
        "sweep",
        {"training": {"steps": 4, "collocation_points": 64},
         "sweep": {"subdomains": [2, 4], "communication_intervals": [1, 2]}},
        ["sweep_summary.csv", "trends.json"]
        + [f"cells/J0{J}_p000{p}/{name}" for J in (2, 4) for p in (1, 2)
           for name in RUN_FILES]),
    "coarse_correction.json": (
        "coarse",
        {"decomposition": {"subdomains": 4},
         "training": {"steps": 4, "collocation_points": 64},
         "coarse": {"epochs": 2, "points": 20}},
        RUN_FILES + ["coarse_solution.csv", "checkpoints/coarse.json"]),
}


@pytest.mark.parametrize("path", CONFIG_FILES, ids=lambda path: path.name)
def test_shipped_config_runs_at_tiny_sizes(tmp_path, capsys, recwarn, path):
    command, sizes, files = SHIPPED[path.name]
    data = json.loads(path.read_text())
    for block, values in sizes.items():
        # sizes only: every shrunk key is one the file sets
        assert values.keys() <= data[block].keys()
        data[block].update(values)
    cfg = tmp_path / path.name
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main([command, str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert not recwarn.list
    for name in files:
        assert (out / name).is_file(), name
    summaries = [json.loads(p.read_text()) for p in out.rglob("summary.json")]
    assert summaries and all(s["results"]["final_loss"] is not None for s in summaries)


class _Trained(Exception):
    """Raised in place of training, once the pre-flight checks have passed."""


@pytest.mark.parametrize("path", CONFIG_FILES, ids=lambda path: path.name)
def test_shipped_config_passes_the_checks_at_full_size(tmp_path, monkeypatch, path):
    command = SHIPPED[path.name][0]
    cfg = load_config(path)
    assert cfg.output_dir == f"runs/{path.stem}"

    def trained(_, outdir, **kwargs):
        raise _Trained(outdir)

    # every check of main, such as p_sweep's 20,000 steps being a multiple
    # of each of its intervals, at the sizes the file states; no run trains
    monkeypatch.setattr(cli, "run_single", trained)
    monkeypatch.setattr(cli, "run_sweep", trained)
    monkeypatch.setenv("FBPINN_OUTPUT_ROOT", str(tmp_path))
    with pytest.raises(_Trained) as caught:
        cli.main([command, str(path)])
    assert caught.value.args == (tmp_path / "runs" / path.stem,)
    assert not any(tmp_path.iterdir())


def test_readme_names_each_shipped_config_with_its_subcommand():
    readme = (REPO / "README.md").read_text()
    named = set(re.findall(r"\bconfigs/([\w.-]+)", readme))
    assert named == {path.name for path in CONFIG_FILES} == set(SHIPPED)
    commands = {name: command
                for command, name in re.findall(r"fbpinn (\w+) +configs/([\w.-]+)", readme)}
    assert commands == {name: spec[0] for name, spec in SHIPPED.items()}


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
    assert all(line.endswith(": identical") for line in lines[1:-1])
    # the line count of `cat src/fbpinn/*.py | wc -l`
    wc = subprocess.run("cat src/fbpinn/*.py | wc -l", shell=True, cwd=repo, check=True,
                        capture_output=True, text=True).stdout.strip()
    assert lines[-1] == f"src/fbpinn: {wc} lines at HEAD, {wc} in the working tree"

    with open(repo / "src" / "fbpinn" / "reporting.py", "a") as fh:
        fh.write(ONE_ULP)
    assert compare.compare("HEAD", repo, matrix) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tiny: exit 0"
    grown = int(wc) + ONE_ULP.count("\n")
    assert lines[-1] == f"src/fbpinn: {wc} lines at HEAD, {grown} in the working tree"
    differing = [line for line in lines[1:-1] if not line.endswith(": identical")]
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
    # a regression is a median worse by more than the bound, a fraction of
    # REV's median (200 here, so 50 at a bound of 25%)
    regression = _load_bench_pairs().regression
    assert regression(rev, [r - 60.0 for r in rev], "higher", 0.25) == "regression"
    assert regression(rev, [r - 40.0 for r in rev], "higher", 0.25) == "no regression"
    assert regression(rev, [r + 60.0 for r in rev], "lower", 0.25) == "regression"
    # REV's interquartile range here, 142.5 to 257.5, is wider than 25% of
    # its median: unresolved, unless every working-tree run beats every REV run
    wide = [100.0, 300.0, 150.0, 250.0, 200.0, 120.0, 280.0, 180.0, 220.0, 200.0]
    assert regression(wide, [w - 1.0 for w in wide], "higher", 0.25) == "unresolved"
    assert regression(wide, [w - 60.0 for w in wide], "higher", 0.25) == "unresolved"
    assert regression(wide, [301.0] * 10, "higher", 0.25) == "no regression"


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
