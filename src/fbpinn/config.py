"""JSON run configuration: strict parsing, defaults, validation, echo.

Unknown keys are rejected and every validation error names the offending
key, before any state is built or output written.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .decomposition import Interval
from .problems import SoftConstraint, make_single_frequency, make_two_frequency
from .scheduling import (alternating_schedule, colored_schedule,
                         explicit_schedule, parallel_schedule)

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    pass


@dataclass
class ProblemConfig:
    kind: str = "single_frequency"
    omega: float = 15.0
    omega1: float = 1.0
    omega2: float = 15.0
    domain: tuple = (-TWO_PI, TWO_PI)
    constraint: str = "hard"
    soft_weight: float = 1.0


@dataclass
class DecompositionConfig:
    subdomains: int = 16
    overlap_fraction: float = 0.7


@dataclass
class NetworkConfig:
    hidden_layers: int = 2
    hidden_width: int = 16

    def layer_sizes(self):
        return [1] + [self.hidden_width] * self.hidden_layers + [1]


@dataclass
class TrainingConfig:
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    communication_interval: int = 1
    steps: int = 20000
    record_interval: int = 10
    collocation_points: int = 3000
    seed: int = 0


@dataclass
class ScheduleConfig:
    kind: str = "parallel"
    colors: list | None = None
    sets: list | None = None


@dataclass
class CoarseConfig(NetworkConfig):
    enabled: bool = False
    points: int = 500
    epochs: int = 3000


@dataclass
class SweepConfig:
    subdomains: tuple = (8, 16, 32)
    communication_intervals: tuple = (1, 10, 100, 1000)


@dataclass
class RunConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    decomposition: DecompositionConfig = field(default_factory=DecompositionConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    coarse: CoarseConfig = field(default_factory=CoarseConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    output_dir: str = "out"

    def to_echo(self):
        """Plain dict of every effective parameter, defaults included."""
        return dataclasses.asdict(self)


def _fill(cls, data, block):
    if not isinstance(data, dict):
        raise ConfigError(f"'{block}' must be a JSON object")
    allowed = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in '{block}'")
    return cls(**data)


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v):
    """A finite int or float; an int too large for a float is not one."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _is_index_lists(v):
    return (isinstance(v, list) and len(v) >= 1
            and all(isinstance(g, list) and all(_is_int(j) for j in g) for g in v))


def parse_config(data):
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown key '{key}' at top level")
    cfg = RunConfig(
        problem=_fill(ProblemConfig, data.get("problem", {}), "problem"),
        decomposition=_fill(DecompositionConfig, data.get("decomposition", {}), "decomposition"),
        network=_fill(NetworkConfig, data.get("network", {}), "network"),
        training=_fill(TrainingConfig, data.get("training", {}), "training"),
        schedule=_fill(ScheduleConfig, data.get("schedule", {}), "schedule"),
        coarse=_fill(CoarseConfig, data.get("coarse", {}), "coarse"),
        sweep=_fill(SweepConfig, data.get("sweep", {}), "sweep"),
        output_dir=data.get("output_dir", RunConfig.output_dir),
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    p = cfg.problem
    _require(p.kind in ("single_frequency", "two_frequency"),
             f"problem.kind must be 'single_frequency' or 'two_frequency', got {p.kind!r}")
    _require(_is_num(p.omega) and p.omega != 0, "problem.omega must be a nonzero number")
    _require(_is_num(p.omega1) and p.omega1 != 0, "problem.omega1 must be a nonzero number")
    _require(_is_num(p.omega2) and p.omega2 != 0, "problem.omega2 must be a nonzero number")
    _require(isinstance(p.domain, (list, tuple)) and len(p.domain) == 2
             and all(_is_num(v) for v in p.domain) and p.domain[0] < p.domain[1],
             "problem.domain must be [a, b] with a < b")
    _require(math.isfinite(p.domain[1] - p.domain[0]),
             f"problem.domain width b - a must be finite, got {p.domain[1] - p.domain[0]!r}")
    _require(p.domain[0] <= 0.0 <= p.domain[1], "problem.domain must contain 0")
    _require(p.constraint in ("hard", "soft"),
             f"problem.constraint must be 'hard' or 'soft', got {p.constraint!r}")
    _require(_is_num(p.soft_weight) and p.soft_weight > 0,
             "problem.soft_weight must be > 0")

    d = cfg.decomposition
    _require(_is_int(d.subdomains) and d.subdomains >= 1,
             "decomposition.subdomains must be an integer >= 1")
    _require(_is_num(d.overlap_fraction) and 0.0 < d.overlap_fraction < 1.0,
             "decomposition.overlap_fraction must lie in (0, 1)")

    for block in ("network", "coarse"):
        n = getattr(cfg, block)
        _require(_is_int(n.hidden_layers) and n.hidden_layers >= 1,
                 f"{block}.hidden_layers must be an integer >= 1")
        _require(_is_int(n.hidden_width) and n.hidden_width >= 1,
                 f"{block}.hidden_width must be an integer >= 1")

    t = cfg.training
    _require(t.optimizer in ("adam", "sgd"),
             f"training.optimizer must be 'adam' or 'sgd', got {t.optimizer!r}")
    _require(_is_num(t.learning_rate) and t.learning_rate > 0,
             "training.learning_rate must be > 0")
    _require(_is_int(t.communication_interval) and t.communication_interval >= 1,
             "training.communication_interval must be an integer >= 1")
    _require(_is_int(t.steps) and t.steps >= 1, "training.steps must be an integer >= 1")
    check_whole_rounds(cfg, t.communication_interval, "training.communication_interval")
    _require(_is_int(t.record_interval) and t.record_interval >= 1,
             "training.record_interval must be an integer >= 1")
    _require(_is_int(t.collocation_points) and t.collocation_points >= 2,
             "training.collocation_points must be an integer >= 2")
    _require(_is_int(t.seed) and t.seed >= 0, "training.seed must be an integer >= 0")

    s = cfg.schedule
    _require(s.kind in ("parallel", "alternating", "colored", "explicit"),
             f"schedule.kind must be one of parallel/alternating/colored/explicit, got {s.kind!r}")
    if s.kind == "colored":
        _require(_is_index_lists(s.colors),
                 "schedule.colors must be a non-empty list of index lists")
    if s.kind == "explicit":
        _require(_is_index_lists(s.sets),
                 "schedule.sets must be a non-empty list of index lists")

    c = cfg.coarse
    _require(isinstance(c.enabled, bool), "coarse.enabled must be a boolean")
    _require(_is_int(c.points) and c.points >= 2, "coarse.points must be an integer >= 2")
    _require(_is_int(c.epochs) and c.epochs >= 0, "coarse.epochs must be an integer >= 0")

    w = cfg.sweep
    for name, vals in (("sweep.subdomains", w.subdomains),
                       ("sweep.communication_intervals", w.communication_intervals)):
        _require(isinstance(vals, (list, tuple)) and len(vals) >= 1
                 and all(_is_int(v) and v >= 1 for v in vals),
                 f"{name} must be a non-empty list of integers >= 1")
        # a repeated value would train and write the same cell twice
        repeated = sorted({v for v in vals if vals.count(v) > 1})
        _require(not repeated, f"{name} repeats {repeated}; each value must appear once")

    _require(isinstance(cfg.output_dir, str) and cfg.output_dir,
             "output_dir must be a non-empty string")
    return cfg


def check_whole_rounds(cfg, interval, key):
    """ConfigError unless training.steps is a whole number of rounds of
    `interval` steps, a value of the config key `key`."""
    _require(cfg.training.steps % interval == 0,
             f"training.steps = {cfg.training.steps} must be a multiple of "
             f"{interval} ({key})")


def load_config(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(data)


def build_problem(cfg):
    p = cfg.problem
    domain = Interval(float(p.domain[0]), float(p.domain[1]))
    if p.kind == "single_frequency":
        problem = make_single_frequency(p.omega, domain)
    else:
        problem = make_two_frequency(p.omega1, p.omega2, domain)
    if p.constraint == "soft":
        problem = problem.with_constraint(
            SoftConstraint(points=(0.0,), targets=(0.0,), weight=p.soft_weight))
    return problem


def build_schedule(cfg, n_subdomains):
    s = cfg.schedule
    if s.kind == "parallel":
        return parallel_schedule(n_subdomains)
    if s.kind == "alternating":
        return alternating_schedule(n_subdomains)
    try:
        if s.kind == "colored":
            return colored_schedule(n_subdomains, s.colors)
        return explicit_schedule(n_subdomains, s.sets)
    except ValueError as exc:
        key = "schedule.colors" if s.kind == "colored" else "schedule.sets"
        raise ConfigError(f"{key}: {exc}") from exc
