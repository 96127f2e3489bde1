"""End-to-end command line runs against tiny configs in tmp dirs."""

import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbpinn import cli
from fbpinn.cli import main, resolve_outdir
from fbpinn.config import parse_config


def write_config(tmp_path, name="cfg.json", **overrides):
    data = {
        "problem": {"omega": 3.0},
        "decomposition": {"subdomains": 3, "overlap_fraction": 0.5},
        "network": {"hidden_layers": 1, "hidden_width": 8},
        "training": {"steps": 20, "record_interval": 5,
                     "collocation_points": 60, "seed": 1},
    }
    for block, patch in overrides.items():
        if isinstance(patch, dict):
            data.setdefault(block, {}).update(patch)
        else:
            data[block] = patch
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_run_writes_expected_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert "final loss" in capsys.readouterr().out

    header, rows = read_csv(out / "loss_history.csv")
    assert header == ["step", "round", "total", "interior", "overlap",
                      "l2_error", "phase"]
    assert rows[-1][0] == "20" and rows[-1][6] == "fbpinn"

    header, rows = read_csv(out / "solution.csv")
    assert header == ["x", "u_pred", "u_exact"]
    assert len(rows) == 600

    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["decomposition"]["subdomains"] == 3
    assert summary["config"]["training"]["learning_rate"] == 1e-3
    assert summary["results"]["steps"] == 20
    assert summary["results"]["final_loss"]["total"] > 0
    assert summary["results"]["wall_time_s"] >= 0

    for j in (1, 2, 3):
        assert (out / "checkpoints" / f"subdomain_{j:02d}.json").exists()
    assert not (out / "checkpoints" / "coarse.json").exists()
    layout = json.loads((out / "decomposition.json").read_text())
    assert len(layout["subdomains"]) == 3


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    for name in ("loss_history.csv", "solution.csv",
                 "checkpoints/subdomain_02.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # summaries agree except for measured wall time
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    s1["results"].pop("wall_time_s")
    s2["results"].pop("wall_time_s")
    assert s1 == s2


def test_output_dir_resolution(tmp_path, monkeypatch):
    cfg = parse_config({"output_dir": "rel/run"})
    monkeypatch.delenv("FBPINN_OUTPUT_ROOT", raising=False)
    assert resolve_outdir(None, cfg) == Path("rel/run")
    assert resolve_outdir("explicit", cfg) == Path("explicit")
    monkeypatch.setenv("FBPINN_OUTPUT_ROOT", "/data")
    assert resolve_outdir(None, cfg) == Path("/data/rel/run")
    # explicit --out and absolute config paths ignore the root
    assert resolve_outdir("explicit", cfg) == Path("explicit")
    cfg_abs = parse_config({"output_dir": "/abs/run"})
    assert resolve_outdir(None, cfg_abs) == Path("/abs/run")


def test_env_root_applies_to_real_run(tmp_path, monkeypatch):
    monkeypatch.setenv("FBPINN_OUTPUT_ROOT", str(tmp_path / "root"))
    cfg = write_config(tmp_path, output_dir="myrun",
                       training={"steps": 5, "record_interval": 5})
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "root" / "myrun" / "summary.json").exists()


def test_bad_config_exits_2_before_writing(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"training": {"lr": 1e-3}}))
    out = tmp_path / "never"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "unknown key 'lr' in 'training'" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_numerical_failure_exits_3_with_location(tmp_path, capsys):
    cfg = write_config(tmp_path, training={"optimizer": "sgd",
                                           "learning_rate": 1e300})
    out = tmp_path / "blowup"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "error: numerical failure (step 2, subdomain" in err
    # partial artifacts survive the failure
    assert (out / "loss_history.csv").exists()
    assert (out / "summary.json").exists()


OVERFLOW = {"decomposition": {"subdomains": 4},
            "training": {"steps": 1, "record_interval": 10,
                         "collocation_points": 200, "learning_rate": 1e200}}


def _reject_constant(name):
    raise ValueError(f"summary.json holds {name}")


def test_final_loss_overflow_exits_3_with_strict_json(tmp_path, capsys):
    # the residuals stay finite (about 1e200) but their mean square overflows
    cfg = write_config(tmp_path, **OVERFLOW)
    out = tmp_path / "blowup"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("error: numerical failure (step 1): non-finite "
                                       "final loss inf or relative L2 error inf\n")
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["results"]["final_loss"] is None
    assert summary["results"]["final_l2_error"] is None

    cfg = write_config(tmp_path, "sweep.json", **OVERFLOW,
                       sweep={"subdomains": [4], "communication_intervals": [1]})
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
    _, rows = read_csv(tmp_path / "sweep" / "sweep_summary.csv")
    assert rows == [["4", "1", "", "", "1", "failed"]]


COARSE_BLOWUP = {
    "problem": {"kind": "two_frequency", "omega1": 1.0, "omega2": 3.0},
    "coarse": {"enabled": True, "points": 30, "epochs": 5,
               "hidden_layers": 1, "hidden_width": 8},
    "training": {"steps": 10, "record_interval": 5, "optimizer": "sgd",
                 "learning_rate": 1e300},
}


def test_coarse_phase_failure_names_the_coarse_network(tmp_path, capsys):
    cfg = write_config(tmp_path, **COARSE_BLOWUP)
    out = tmp_path / "blowup"
    assert main(["coarse", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("error: numerical failure (step 2, coarse "
                                       "network): non-finite loss value inf\n")
    assert (out / "summary.json").exists()


def test_coarse_phase_final_check_names_the_coarse_network(tmp_path, capsys):
    # one coarse epoch blows the coarse network up in its last step: the
    # coarse phase's final check fails, as any run's does, and the partial
    # artifacts are those of any failed run
    cfg = write_config(tmp_path, **{
        **COARSE_BLOWUP,
        "coarse": {**COARSE_BLOWUP["coarse"], "epochs": 1},
        "training": {**COARSE_BLOWUP["training"], "learning_rate": 1e200}})
    out = tmp_path / "blowup"
    assert main(["coarse", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("error: numerical failure (step 1, coarse network): "
                                       "non-finite final loss inf or relative L2 error inf\n")
    _, rows = read_csv(out / "loss_history.csv")
    assert [(r[0], r[-1]) for r in rows] == [("1", "coarse")]
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["results"]["final_loss"] is None
    assert summary["results"]["final_l2_error"] is None
    assert not (out / "solution.csv").exists()


def test_initial_loss_overflow_exits_3_at_step_0_with_strict_json(tmp_path, capsys):
    # the residuals stay finite (about 1e300) but their mean square overflows
    # before the first step
    cfg = write_config(tmp_path, problem={"kind": "two_frequency", "omega1": 1e300,
                                          "omega2": 3.0},
                       decomposition={"subdomains": 2},
                       training={"steps": 2, "collocation_points": 50})
    out = tmp_path / "blowup"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("error: numerical failure (step 0): "
                                       "non-finite initial loss inf\n")
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["results"]["initial_loss"] is None
    assert not (out / "solution.csv").exists()


@pytest.mark.parametrize("command, seed", [("run", -1), ("run", -5), ("coarse", -1)])
def test_a_negative_seed_exits_2_before_writing(tmp_path, capsys, command, seed):
    cfg = write_config(tmp_path, training={"seed": seed},
                       coarse={"enabled": True, "points": 20, "epochs": 2})
    out = tmp_path / "never"
    assert main([command, str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: training.seed must be an integer >= 0\n"
    assert not out.exists()


STEEP = {"kind": "two_frequency", "omega1": 1e30, "omega2": 3.0}


@pytest.mark.parametrize("command, overrides", [
    # gradients of about 1e30 times a learning rate of 1e300 overflow in
    # the optimizer step
    ("run", {"problem": STEEP, "training": {"optimizer": "sgd", "learning_rate": 1e300}}),
    ("run", {"problem": STEEP, "training": {"learning_rate": 1e300}}),
    ("coarse", {**COARSE_BLOWUP, "problem": STEEP}),
    # omega x overflows in the right-hand side and the exact solution
    ("run", {"problem": {"omega": 1e300, "domain": [-1e9, 1e9]}}),
    ("run", {"problem": {"kind": "two_frequency", "omega1": 1e300, "omega2": 3.0,
                         "domain": [-1e9, 1e9]}}),
])
def test_overflow_prints_one_error_line_and_no_warning(tmp_path, capsys, command, overrides):
    cfg = write_config(tmp_path, **overrides)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, str(cfg), "--out", str(tmp_path / "out")]) in (2, 3)
    assert [w.message for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


WRITE_ERROR_CASES = [
    ("run", "write_run_artifacts", {}),
    ("coarse", "write_run_artifacts",
     {"problem": {"kind": "two_frequency", "omega1": 1.0, "omega2": 3.0},
      "coarse": {"enabled": True, "points": 30, "epochs": 5,
                 "hidden_layers": 1, "hidden_width": 8},
      "training": {"steps": 10, "record_interval": 5}}),
    ("sweep", "write_run_artifacts",
     {"sweep": {"subdomains": [2], "communication_intervals": [5]}}),
    ("sweep", "write_sweep_summary",
     {"sweep": {"subdomains": [2], "communication_intervals": [5]}}),
]


@pytest.mark.parametrize("command, writer, overrides", WRITE_ERROR_CASES)
def test_write_error_exits_4_with_one_line(tmp_path, capsys, monkeypatch,
                                           command, writer, overrides):
    def fail(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, writer, fail)
    cfg = write_config(tmp_path, **overrides)
    assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err == "error: cannot write outputs: [Errno 28] No space left on device\n"


def test_sweep_writes_cells_and_aggregate(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep={"subdomains": [2, 3],
                                        "communication_intervals": [1, 5]},
                       training={"steps": 10, "record_interval": 5})
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 0
    assert "wrote 4 sweep cells" in capsys.readouterr().out

    for name in ("J02_p0001", "J02_p0005", "J03_p0001", "J03_p0005"):
        assert (out / "cells" / name / "summary.json").exists()

    header, rows = read_csv(out / "sweep_summary.csv")
    assert header == ["J", "p", "final_loss", "final_l2_error", "steps", "status"]
    assert [(r[0], r[1], r[5]) for r in rows] == [
        ("2", "1", "ok"), ("2", "5", "ok"), ("3", "1", "ok"), ("3", "5", "ok")]
    assert all(float(r[2]) > 0 and r[4] == "10" for r in rows)

    trends = json.loads((out / "trends.json").read_text())
    assert [t["communication_interval"] for t in trends] == [1, 5]
    for t in trends:
        assert set(t["final_loss_by_subdomains"]) == {"2", "3"}
        assert isinstance(t["inversions"], list)


def test_single_cell_sweep_matches_run(tmp_path):
    run_cfg = write_config(tmp_path, "run.json",
                           training={"steps": 10, "record_interval": 5,
                                     "communication_interval": 5})
    sweep_cfg = write_config(tmp_path, "sweep.json",
                             sweep={"subdomains": [3],
                                    "communication_intervals": [5]},
                             training={"steps": 10, "record_interval": 5})
    out_run, out_sweep = tmp_path / "r", tmp_path / "s"
    assert main(["run", str(run_cfg), "--out", str(out_run)]) == 0
    assert main(["sweep", str(sweep_cfg), "--out", str(out_sweep)]) == 0
    cell = out_sweep / "cells" / "J03_p0005"
    assert (cell / "loss_history.csv").read_bytes() == \
        (out_run / "loss_history.csv").read_bytes()
    assert (cell / "solution.csv").read_bytes() == \
        (out_run / "solution.csv").read_bytes()


def test_sweep_records_failed_cells_and_continues(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep={"subdomains": [2],
                                        "communication_intervals": [1, 2]},
                       training={"optimizer": "sgd", "learning_rate": 1e300,
                                 "steps": 4, "record_interval": 2})
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "cell J=2 p=1 failed" in captured.err
    assert "cell J=2 p=2 failed" in captured.err
    assert "wrote 2 sweep cells" in captured.out

    header, rows = read_csv(out / "sweep_summary.csv")
    assert [r[5] for r in rows] == ["failed", "failed"]
    assert all(r[2] == "" and r[3] == "" for r in rows)
    trends = json.loads((out / "trends.json").read_text())
    assert trends == []


def test_schedule_not_covering_subdomains_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, decomposition={"subdomains": 4},
                       schedule={"kind": "colored", "colors": [[1, 2]]})
    out = tmp_path / "never"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "error: schedule.colors" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_schedule_checked_against_every_subdomain_count(tmp_path, capsys):
    # the colors cover J=2 but not J=3, so the whole sweep is refused
    cfg = write_config(tmp_path, sweep={"subdomains": [2, 3],
                                        "communication_intervals": [1]},
                       schedule={"kind": "colored", "colors": [[1], [2]]})
    out = tmp_path / "never"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 2
    assert "error: schedule.colors" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, patch", [
    ("run", {"decomposition": {"subdomains": 6}}),
    # J=2 is covered by the 3 points, J=6 is not
    ("sweep", {"decomposition": {"subdomains": 2},
               "sweep": {"subdomains": [2, 6], "communication_intervals": [1]}}),
])
def test_subdomains_without_points_exit_2(tmp_path, capsys, command, patch):
    cfg = write_config(tmp_path, training={"steps": 3, "collocation_points": 3},
                       **patch)
    out = tmp_path / "never"
    assert main([command, str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: training.collocation_points = 3 leaves subdomains [" in err
    assert "of 6 without a collocation point" in err
    assert not out.exists()


def test_repeated_sweep_values_exit_2(tmp_path, capsys):
    # [4, 4] x [1, 1] would train one cell four times into one directory
    cfg = write_config(tmp_path, sweep={"subdomains": [4, 4], "communication_intervals": [1, 1]})
    out = tmp_path / "never"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 2
    assert "error: sweep.subdomains repeats [4]" in capsys.readouterr().err
    assert not out.exists()


def test_subdomains_far_above_the_points_exit_2_without_a_pairwise_table(tmp_path, capsys):
    # 100,000 subdomains, the most that 50,000 points may have: neighbour
    # sets compare each subdomain with the next two only, so the check for
    # empty subdomains is reached in linear memory instead of a J x J table
    cfg = write_config(tmp_path, decomposition={"subdomains": 100_000},
                       training={"collocation_points": 50_000})
    out = tmp_path / "never"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: training.collocation_points = 50000 leaves subdomains [")
    assert "of 100000 without a collocation point" in err
    # the first ten empty subdomains and their count, not all of them
    assert len(err.encode()) < 1024
    assert re.search(r"subdomains \[(\d+, ){10}…; \d+ in all\] of 100000", err)
    assert not out.exists()


@pytest.mark.parametrize("command, patch, message", [
    # ints beyond the float range are not numbers
    ("run", {"problem": {"omega": 10**400}}, "problem.omega must be a nonzero number"),
    ("run", {"training": {"learning_rate": 10**400}}, "training.learning_rate must be > 0"),
    # a point lies in at most two subdomains, so 60 points allow 120; the
    # count is checked before a schedule of that many subdomains is built
    ("run", {"decomposition": {"subdomains": 121}},
     "decomposition.subdomains = 121 exceeds twice training.collocation_points = 60"),
    ("run", {"decomposition": {"subdomains": 10**30}},
     f"decomposition.subdomains = {10**30} exceeds twice training.collocation_points = 60"),
    ("sweep", {"sweep": {"subdomains": [2, 10**30], "communication_intervals": [1]}},
     f"sweep.subdomains = {10**30} exceeds twice training.collocation_points = 60"),
    # sizes that NumPy or Python refuse to build, named before anything is
    # trained or written
    ("run", {"training": {"collocation_points": 10**30}}, "training.collocation_points: "),
    ("run", {"network": {"hidden_width": 10**30}}, "network.hidden_width: "),
    ("run", {"network": {"hidden_layers": 10**30}}, "network.hidden_layers: "),
    ("coarse", {"coarse": {"enabled": True, "points": 10**30}}, "coarse.points: "),
    ("coarse", {"coarse": {"enabled": True, "hidden_width": 10**30}}, "coarse.hidden_width: "),
    ("coarse", {"coarse": {"enabled": True, "hidden_layers": 10**30}},
     "coarse.hidden_layers: "),
])
def test_oversized_integers_exit_2(tmp_path, capsys, command, patch, message):
    cfg = write_config(tmp_path, **patch)
    out = tmp_path / "never"
    assert main([command, str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, patch, key", [
    ("run", {"training": {"steps": 3, "communication_interval": 2}},
     "training.steps = 3 must be a multiple of 2 (training.communication_interval)"),
    ("sweep", {"training": {"steps": 4},
               "sweep": {"subdomains": [2], "communication_intervals": [1, 3]}},
     "training.steps = 4 must be a multiple of 3 (sweep.communication_intervals)"),
])
def test_steps_that_leave_a_partial_round_exit_2(tmp_path, capsys, command, patch, key):
    cfg = write_config(tmp_path, **patch)
    out = tmp_path / "never"
    assert main([command, str(cfg), "--out", str(out)]) == 2
    assert f"error: {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("subdomains, fraction, reason", [
    (17, 2e-15, "leaves subdomains 7 and 8 without an overlap"),    # they only touch
    (2, 1e-17, "must exceed the spacing"),                          # width rounds to h
    (17, 1e-15, "leaves subdomains 1 and 2 without an overlap"),    # a gap between them
])
def test_overlap_lost_to_rounding_exits_2(tmp_path, capsys, recwarn, command, subdomains,
                                          fraction, reason):
    cfg = write_config(tmp_path,
                       decomposition={"subdomains": subdomains, "overlap_fraction": fraction},
                       training={"collocation_points": 800},
                       sweep={"subdomains": [subdomains], "communication_intervals": [1]})
    out = tmp_path / "never"
    assert main([command, str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: decomposition.overlap_fraction = {fraction!r} with "
                          f"{subdomains} subdomains: subdomain width ")
    assert reason in err and err.count("\n") == 1
    assert not recwarn.list
    assert not out.exists()


@pytest.mark.parametrize("command, problem, message", [
    # b - a overflows to inf
    ("run", {"domain": [-1e308, 1e308]},
     "error: problem.domain width b - a must be finite, got inf"),
    # the exact solution's squares underflow: its norm is 0 and the
    # relative L2 error would be inf or nan
    *((command, {"omega": 1e300}, "error: problem: the exact solution's L2 norm "
       "on the 600-point error grid is 0.0, so the relative L2 error is undefined")
      for command in ("run", "sweep", "coarse")),
    ("run", {"domain": [-1e-300, 1e-300]},
     "error: problem: the exact solution's L2 norm on the 600-point error grid is 0.0"),
])
def test_domain_or_omega_out_of_float_range_exits_2(tmp_path, capsys, command, problem,
                                                    message):
    cfg = write_config(tmp_path, problem=problem, training={"steps": 5, "record_interval": 5},
                       coarse={"enabled": True, "points": 20, "epochs": 2},
                       sweep={"subdomains": [2], "communication_intervals": [1]})
    out = tmp_path / "never"
    assert main([command, str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "coarse"])
@pytest.mark.parametrize("below", [(), ("sub", "dir")])
def test_out_at_or_under_an_existing_file_exits_2(tmp_path, capsys, command, below):
    cfg = write_config(tmp_path, training={"steps": 5, "record_interval": 5},
                       coarse={"enabled": True, "points": 20, "epochs": 2},
                       sweep={"subdomains": [2], "communication_intervals": [1]})
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    out = blocker.joinpath(*below)
    assert main([command, str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: output directory {str(out)!r}: {str(blocker)!r} exists and " \
           f"is not a directory" in err
    assert blocker.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]


@pytest.mark.parametrize("command", ["run", "sweep", "coarse"])
@pytest.mark.parametrize("flag", [False, True], ids=["output_dir", "--out"])
def test_out_holding_a_nul_character_exits_2(tmp_path, capsys, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FBPINN_OUTPUT_ROOT", raising=False)
    cfg = write_config(tmp_path, training={"steps": 5, "record_interval": 5},
                       coarse={"enabled": True, "points": 20, "epochs": 2},
                       sweep={"subdomains": [2], "communication_intervals": [1]},
                       output_dir="runs" if flag else "a\x00b")
    argv = [command, str(cfg)] + (["--out", "a\x00b"] if flag else [])
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        "error: output directory 'a\\x00b' holds a NUL character\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command", ["run", "sweep", "coarse"])
@pytest.mark.parametrize("flag", [False, True], ids=["output_dir", "--out"])
@pytest.mark.parametrize("out, what", [
    ("x" * 300, "a name of 300 bytes"),
    ("/".join(["y" * 200] * 25), "a path of 5024 bytes"),
], ids=["long-name", "long-path"])
def test_out_longer_than_the_file_system_allows_exits_2(tmp_path, capsys, monkeypatch,
                                                        command, flag, out, what):
    # refused before training, with nothing written, where the writes
    # would fail with "File name too long" after the whole run
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FBPINN_OUTPUT_ROOT", raising=False)
    cfg = write_config(tmp_path, training={"steps": 5, "record_interval": 5},
                       coarse={"enabled": True, "points": 20, "epochs": 2},
                       sweep={"subdomains": [2], "communication_intervals": [1]},
                       output_dir="runs" if flag else out)
    argv = [command, str(cfg)] + (["--out", out] if flag else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: output directory {out!r}: {what} exceeds the file "
                          "system's limit of ")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@st.composite
def tiny_configs(draw):
    """A subcommand and a tiny config that parse_config accepts but for a
    negative seed."""
    command = draw(st.sampled_from(["run", "coarse", "sweep"]))
    kind = draw(st.sampled_from(["parallel", "alternating", "colored", "explicit"]))
    interval = draw(st.integers(1, 3))
    groups = st.lists(st.lists(st.integers(0, 9), max_size=4), min_size=1, max_size=4)
    data = {
        "problem": {"omega": 3.0,
                    "constraint": draw(st.sampled_from(["hard", "soft"]))},
        "decomposition": {"subdomains": draw(st.integers(1, 8)),
                          "overlap_fraction": draw(st.sampled_from([0.7, 1e-17])
                                                   | st.floats(0.05, 0.95))},
        "network": {"hidden_layers": 1, "hidden_width": 4},
        "training": {"optimizer": draw(st.sampled_from(["adam", "sgd"])),
                     "learning_rate": draw(st.sampled_from([1e-3, 1e300])),
                     "steps": interval * draw(st.integers(1, 6 // interval)),
                     "communication_interval": interval,
                     "record_interval": draw(st.integers(1, 4)),
                     "collocation_points": draw(st.integers(2, 40)),
                     "seed": draw(st.integers(-3, 3))},
        "schedule": {"kind": kind},
        "coarse": {"enabled": draw(st.booleans()), "points": draw(st.integers(2, 20)),
                   "epochs": draw(st.integers(0, 3)),
                   "hidden_layers": 1, "hidden_width": 4},
        "sweep": {"subdomains": draw(st.lists(st.integers(1, 8), min_size=1, max_size=2,
                                              unique=True)),
                  "communication_intervals": draw(
                      st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True))},
    }
    if kind == "colored":
        data["schedule"]["colors"] = draw(groups)
    if kind == "explicit":
        data["schedule"]["sets"] = draw(groups)
    parse_config({**data, "training": {**data["training"], "seed": 0}})
    return command, data


@given(case=tiny_configs())
@settings(max_examples=60, deadline=None)
def test_cli_contract_holds_for_tiny_configs(case):
    # exit 0, 2 (nothing written) or 3, never an exception or a
    # RuntimeWarning, and every summary.json is strict JSON
    command, data = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = Path(tmp) / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, str(cfg), "--out", str(out)])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code in (0, 2, 3)
        if code == 2 or data["training"]["seed"] < 0:
            assert code == 2 and not out.exists()
        for summary in out.rglob("summary.json"):
            json.loads(summary.read_text(), parse_constant=_reject_constant)


def test_coarse_subcommand_requires_enabled(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["coarse", str(cfg), "--out", str(tmp_path / "never")]) == 2
    assert "coarse.enabled must be true" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_coarse_run_decomposes_solution(tmp_path):
    cfg = write_config(tmp_path,
                       problem={"kind": "two_frequency", "omega1": 1.0,
                                "omega2": 3.0},
                       coarse={"enabled": True, "points": 30, "epochs": 5,
                               "hidden_layers": 1, "hidden_width": 8},
                       training={"steps": 10, "record_interval": 5})
    out = tmp_path / "coarse"
    assert main(["coarse", str(cfg), "--out", str(out)]) == 0

    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["phases"] == {"coarse": 5, "local": 10}
    assert (out / "checkpoints" / "coarse.json").exists()

    header, rows = read_csv(out / "coarse_solution.csv")
    assert header == ["x", "u_coarse", "u_local", "u_combined", "u_exact"]
    vals = np.array([[float(v) for v in row] for row in rows])
    np.testing.assert_allclose(vals[:, 1] + vals[:, 2], vals[:, 3],
                               rtol=0, atol=1e-12)
    # x, combined and exact are the main solution artifact's text, row for row
    _, sol_rows = read_csv(out / "solution.csv")
    assert [r[1] for r in sol_rows] == [r[3] for r in rows]
    assert [(r[0], r[2]) for r in sol_rows] == [(r[0], r[4]) for r in rows]


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()
