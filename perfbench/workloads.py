"""Benchmark workloads: each turns a seed into an fbpinn CLI config and
states, in closed form, how much work that config implies.

The three workloads are the paper's fixed experiments. BENCHMARK.json
lists converge-j16-p1 and coarse-two-phase, whose repeats take a few
seconds, so that one benchmark run holds many of them, each between two
host-speed probes. sweep-highp runs from run.py and all.py:

- converge-j16-p1: the J=16, omega=15 convergence run at p=1 and the CLI
  default record_interval=10. A cache refresh follows every step and
  recording happens every 10 steps, so refresh and recording weigh next to
  the forward/backward passes.
- sweep-highp: J in {8, 32} x p in {100, 1000}. Refresh and recording are
  rare, so loss_gradient and the optimizer dominate; it is the bypass
  workload for refresh or recording changes and covers per-cell set-up,
  artifact writes and run_sweep. A p=1000 cell runs at least 1000 steps,
  so one repeat takes about 17 s (2-core Xeon, one BLAS thread). A
  benchmark run holds only two, and the host's speed changes within one,
  so its figures are too noisy to gate on.
- coarse-two-phase: the two-frequency coarse-then-local run. It trains a
  single network first, then every refresh also evaluates the frozen
  coarse network.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # fbpinn subcommand
    base: dict            # config without training.seed

    def config(self, seed):
        """The generated config; the seed is the only input that varies."""
        cfg = copy.deepcopy(self.base)
        cfg["training"]["seed"] = int(seed)
        return cfg

    def warmup_config(self, seed):
        """Two steps of the same command, with every sweep cell at p=1."""
        cfg = self.config(seed)
        cfg["training"].update(steps=2, communication_interval=1)
        if "sweep" in cfg:
            cfg["sweep"]["communication_intervals"] = [1]
        if "coarse" in cfg:
            cfg["coarse"]["epochs"] = 2
        return cfg

    def cells(self):
        """(unit directory, J, p) for every training state the command builds."""
        train = self.base["training"]
        if self.command == "sweep":
            sweep = self.base["sweep"]
            return [(f"cells/J{J:02d}_p{p:04d}", J, p)
                    for J in sweep["subdomains"]
                    for p in sweep["communication_intervals"]]
        return [(".", self.base["decomposition"]["subdomains"],
                 train.get("communication_interval", 1))]

    def rounds(self, p):
        return math.ceil(self.base["training"]["steps"] / p)

    @property
    def coarse_epochs(self):
        coarse = self.base.get("coarse", {})
        return coarse["epochs"] if coarse.get("enabled") else 0

    def steps_per_unit(self, p):
        """Optimizer steps summary.json should report for one unit."""
        return self.rounds(p) * p + self.coarse_epochs

    def expected_calls(self):
        """Closed-form call counts for one CLI invocation (parallel
        schedule: every subdomain is active in every round)."""
        grads = sum(J * self.rounds(p) * p for _, J, p in self.cells()) + self.coarse_epochs
        rounds = sum(self.rounds(p) for _, _, p in self.cells())
        return {
            "networks.loss_gradient.calls": grads,
            "optimizers.step.calls": grads,
            # one refresh per round plus one in create_state, plus one after
            # the coarse phase
            "training.refresh_overlap_cache.calls":
                rounds + len(self.cells()) + (1 if self.coarse_epochs else 0),
            "scheduling.active_set.calls": rounds,
        }


WORKLOADS = {w.name: w for w in (
    Workload("converge-j16-p1", "run", {
        "problem": {"kind": "single_frequency", "omega": 15.0},
        "decomposition": {"subdomains": 16, "overlap_fraction": 0.7},
        "network": {"hidden_layers": 2, "hidden_width": 16},
        "training": {"optimizer": "adam", "learning_rate": 1e-3,
                     "communication_interval": 1, "steps": 100,
                     "record_interval": 10, "collocation_points": 3000},
        "schedule": {"kind": "parallel"},
    }),
    Workload("sweep-highp", "sweep", {
        "problem": {"kind": "single_frequency", "omega": 15.0},
        "decomposition": {"subdomains": 16, "overlap_fraction": 0.7},
        "network": {"hidden_layers": 2, "hidden_width": 16},
        "training": {"optimizer": "adam", "learning_rate": 1e-3,
                     "steps": 1000, "record_interval": 100,
                     "collocation_points": 1500},
        "schedule": {"kind": "parallel"},
        "sweep": {"subdomains": [8, 32], "communication_intervals": [100, 1000]},
    }),
    Workload("coarse-two-phase", "coarse", {
        "problem": {"kind": "two_frequency", "omega1": 1.0, "omega2": 15.0},
        "decomposition": {"subdomains": 30, "overlap_fraction": 0.7},
        "network": {"hidden_layers": 2, "hidden_width": 16},
        "training": {"optimizer": "adam", "learning_rate": 3e-4,
                     "communication_interval": 1, "steps": 50,
                     "record_interval": 10, "collocation_points": 3000},
        "schedule": {"kind": "parallel"},
        "coarse": {"enabled": True, "points": 500, "epochs": 150,
                   "hidden_layers": 2, "hidden_width": 16},
    }),
)}
