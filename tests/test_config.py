"""Config parsing: defaults, strict keys, validation messages, builders."""

import json
import math

import pytest

from fbpinn.config import (ConfigError, RunConfig, build_problem, build_schedule,
                           check_whole_rounds, load_config, parse_config)
from fbpinn.problems import SoftConstraint
from fbpinn.scheduling import active_set


def test_empty_config_gives_documented_defaults():
    cfg = parse_config({})
    assert cfg.problem.kind == "single_frequency"
    assert cfg.problem.omega == 15.0
    assert cfg.problem.constraint == "hard"
    assert cfg.problem.domain == (-2 * math.pi, 2 * math.pi)
    assert cfg.decomposition.subdomains == 16
    assert cfg.decomposition.overlap_fraction == 0.7
    assert cfg.network.layer_sizes() == [1, 16, 16, 1]
    assert cfg.training.optimizer == "adam"
    assert cfg.training.learning_rate == 1e-3
    assert cfg.training.communication_interval == 1
    assert cfg.training.steps == 20000
    assert cfg.training.collocation_points == 3000
    assert cfg.schedule.kind == "parallel"
    assert cfg.coarse.enabled is False
    assert cfg.sweep.subdomains == (8, 16, 32)
    assert cfg.sweep.communication_intervals == (1, 10, 100, 1000)
    assert cfg.output_dir == "out"


def test_echo_includes_unset_defaults():
    echo = parse_config({"training": {"steps": 5}}).to_echo()
    assert echo["training"]["steps"] == 5
    # keys the user never mentioned still appear with their effective values
    assert echo["training"]["learning_rate"] == 1e-3
    assert echo["decomposition"]["overlap_fraction"] == 0.7
    assert echo["problem"]["omega"] == 15.0


def test_unknown_keys_rejected_with_location():
    with pytest.raises(ConfigError, match="unknown key 'omga' in 'problem'"):
        parse_config({"problem": {"omga": 3.0}})
    with pytest.raises(ConfigError, match="unknown key 'trainng' at top level"):
        parse_config({"trainng": {}})
    with pytest.raises(ConfigError, match="unknown key 'lr' in 'training'"):
        parse_config({"training": {"lr": 1e-3}})


def test_non_object_blocks_rejected():
    with pytest.raises(ConfigError, match="'training' must be a JSON object"):
        parse_config({"training": [1, 2]})
    with pytest.raises(ConfigError, match="top-level config must be a JSON object"):
        parse_config([])


@pytest.mark.parametrize("patch,message", [
    ({"problem": {"kind": "pde"}}, "problem.kind must be"),
    ({"problem": {"omega": 0}}, "problem.omega must be a nonzero number"),
    ({"problem": {"domain": [1.0, 2.0]}}, "problem.domain must contain 0"),
    ({"problem": {"domain": [2.0, -2.0]}}, r"problem.domain must be \[a, b\]"),
    ({"problem": {"constraint": "penalty"}}, "problem.constraint must be"),
    ({"problem": {"soft_weight": 0}}, "problem.soft_weight must be > 0"),
    ({"decomposition": {"subdomains": 0}}, "decomposition.subdomains must be an integer >= 1"),
    ({"decomposition": {"overlap_fraction": 1.0}},
     r"decomposition.overlap_fraction must lie in \(0, 1\)"),
    ({"network": {"hidden_layers": 0}}, "network.hidden_layers must be an integer >= 1"),
    ({"training": {"optimizer": "rmsprop"}}, "training.optimizer must be"),
    ({"training": {"learning_rate": -1.0}}, "training.learning_rate must be > 0"),
    ({"training": {"communication_interval": 0}},
     "training.communication_interval must be an integer >= 1"),
    ({"training": {"steps": 0}}, "training.steps must be an integer >= 1"),
    ({"training": {"collocation_points": 1}},
     "training.collocation_points must be an integer >= 2"),
    ({"training": {"seed": 1.5}}, "training.seed must be an integer"),
    ({"training": {"seed": -1}}, "training.seed must be an integer >= 0"),
    ({"schedule": {"kind": "roundrobin"}}, "schedule.kind must be one of"),
    ({"schedule": {"kind": "colored"}}, "schedule.colors must be a non-empty list"),
    ({"schedule": {"kind": "explicit"}}, "schedule.sets must be a non-empty list"),
    ({"coarse": {"enabled": 1}}, "coarse.enabled must be a boolean"),
    ({"coarse": {"epochs": -1}}, "coarse.epochs must be an integer >= 0"),
    ({"sweep": {"subdomains": []}}, "sweep.subdomains must be a non-empty list"),
    ({"sweep": {"communication_intervals": [0]}},
     "sweep.communication_intervals must be a non-empty list of integers >= 1"),
    ({"output_dir": ""}, "output_dir must be a non-empty string"),
    ({"schedule": {"kind": "colored", "colors": [1, 2]}},
     "schedule.colors must be a non-empty list of index lists"),
    ({"schedule": {"kind": "explicit", "sets": [[1, None]]}},
     "schedule.sets must be a non-empty list of index lists"),
    ({"training": {"steps": 3, "communication_interval": 2}},
     r"training.steps = 3 must be a multiple of 2 \(training.communication_interval\)"),
    ({"problem": {"domain": [-1e308, 1e308]}},
     "problem.domain width b - a must be finite, got inf"),
    ({"sweep": {"subdomains": [4, 8, 4]}},
     r"sweep.subdomains repeats \[4\]; each value must appear once"),
    ({"sweep": {"communication_intervals": [1, 5, 1, 5, 2]}},
     r"sweep.communication_intervals repeats \[1, 5\]; each value must appear once"),
])
def test_validation_names_the_offending_key(patch, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(patch)


def test_steps_must_fill_whole_rounds():
    # run: the training interval; sweep: every sweep interval, checked by
    # the sweep command alone (a run config keeps the default sweep grid)
    cfg = parse_config({"training": {"steps": 30, "communication_interval": 3}})
    check_whole_rounds(cfg, 10, "sweep.communication_intervals")
    with pytest.raises(ConfigError,
                       match=r"training.steps = 30 must be a multiple of 100 "
                             r"\(sweep.communication_intervals\)"):
        check_whole_rounds(cfg, 100, "sweep.communication_intervals")


def test_booleans_are_not_integers():
    with pytest.raises(ConfigError, match="training.steps"):
        parse_config({"training": {"steps": True}})


def test_load_config_round_trip(tmp_path):
    data = {
        "problem": {"kind": "two_frequency", "omega1": 1.0, "omega2": 15.0},
        "decomposition": {"subdomains": 30},
        "training": {"steps": 100, "seed": 7},
        "coarse": {"enabled": True, "epochs": 50},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    cfg = load_config(path)
    assert cfg.problem.kind == "two_frequency"
    assert cfg.decomposition.subdomains == 30
    assert cfg.training.seed == 7
    assert cfg.coarse.enabled is True
    # echo of a parsed config parses back to the same config
    assert parse_config(cfg.to_echo()) == cfg


def test_load_config_reports_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_build_problem_single_frequency():
    cfg = parse_config({"problem": {"omega": 3.0, "domain": [-1.0, 2.0]}})
    prob = build_problem(cfg)
    assert prob.domain.a == -1.0 and prob.domain.b == 2.0
    assert prob.rhs(0.0) == pytest.approx(math.cos(0.0))
    assert prob.exact_solution(1.0) == pytest.approx(math.sin(3.0) / 3.0)
    assert prob.constraint.kind == "hard"


def test_build_problem_two_frequency_soft():
    cfg = parse_config({
        "problem": {"kind": "two_frequency", "omega1": 2.0, "omega2": 5.0,
                    "constraint": "soft", "soft_weight": 4.0},
    })
    prob = build_problem(cfg)
    assert prob.exact_solution(0.5) == pytest.approx(math.sin(1.0) + math.sin(2.5))
    assert prob.constraint == SoftConstraint(points=(0.0,), targets=(0.0,), weight=4.0)


def test_build_schedule_kinds():
    par = build_schedule(parse_config({}), 4)
    assert active_set(par, 0).active == frozenset({1, 2, 3, 4})

    alt = build_schedule(parse_config({"schedule": {"kind": "alternating"}}), 3)
    assert [sorted(active_set(alt, r).active) for r in range(4)] == [[1], [2], [3], [1]]

    col = build_schedule(
        parse_config({"schedule": {"kind": "colored", "colors": [[1, 3], [2, 4]]}}), 4)
    assert active_set(col, 1).active == frozenset({2, 4})

    exp = build_schedule(
        parse_config({"schedule": {"kind": "explicit", "sets": [[2], [2, 1]]}}), 2)
    assert active_set(exp, 3).active == frozenset({1, 2})


def test_build_schedule_wraps_group_errors():
    cfg = parse_config({"schedule": {"kind": "colored", "colors": [[1], [1, 2]]}})
    with pytest.raises(ConfigError, match="schedule.colors:"):
        build_schedule(cfg, 2)
    cfg = parse_config({"schedule": {"kind": "explicit", "sets": [[9]]}})
    with pytest.raises(ConfigError, match="schedule.sets:"):
        build_schedule(cfg, 2)


def test_config_equality_and_construction():
    assert parse_config({}) == RunConfig()
