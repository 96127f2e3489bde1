"""Reading and checking the artifacts of one CLI invocation.

A unit is one training state's artifact directory: the output directory
itself for `run` and `coarse`, one `cells/J.._p....` directory per sweep
cell. Each unit is checked against the recorded reference and against the
first repeat of the same benchmark run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class UnitResult:
    name: str
    final_loss: float | None = None
    final_l2: float | None = None
    steps: int = 0
    wall_time_s: float = 0.0
    fingerprint: str = ""
    problems: list = field(default_factory=list)


def _loss_history_without_round(path):
    # The round column is left out: coarse-phase rows may be renumbered by a
    # legitimate refactor without any change to the numbers trained.
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    keep = [i for i, name in enumerate(head) if name != "round"]
    return "\n".join(",".join(row.split(",")[i] for i in keep)
                     for row in lines).encode()


def fingerprint(unit_dir):
    """sha256 over solution.csv, every checkpoint and loss_history.csv
    without its round column."""
    h = hashlib.sha256()
    files = [unit_dir / "solution.csv"] + sorted((unit_dir / "checkpoints").glob("*.json"))
    for f in files:
        h.update(f.name.encode())
        h.update(f.read_bytes())
    h.update(_loss_history_without_round(unit_dir / "loss_history.csv"))
    return h.hexdigest()


def sweep_status(outdir):
    """Cell directory -> status column of sweep_summary.csv."""
    lines = (outdir / "sweep_summary.csv").read_text().splitlines()[1:]
    status = {}
    for line in lines:
        J, p, *_, st = line.split(",")
        status[f"cells/J{int(J):02d}_p{int(p):04d}"] = st
    return status


def read_units(workload, outdir, exit_code):
    """One UnitResult per training state; problems name anything missing
    or failed."""
    status = None
    if workload.command == "sweep" and exit_code == 0:
        try:
            status = sweep_status(outdir)
        except (OSError, ValueError):
            status = {}
    units = []
    for name, _J, p in workload.cells():
        unit = UnitResult(name)
        units.append(unit)
        if exit_code != 0:
            unit.problems.append(f"exit code {exit_code}")
            continue
        if status is not None and status.get(name) != "ok":
            unit.problems.append(f"sweep status {status.get(name)!r}")
            continue
        unit_dir = outdir / name
        try:
            results = json.loads((unit_dir / "summary.json").read_text())["results"]
            unit.final_loss = float(results["final_loss"]["total"])
            unit.final_l2 = float(results["final_l2_error"])
            unit.steps = int(sum(results["phases"].values()))
            unit.wall_time_s = float(results["wall_time_s"])
            unit.fingerprint = fingerprint(unit_dir)
        except (OSError, KeyError, TypeError, ValueError) as err:
            unit.problems.append(f"unreadable artifacts: {err!r}")
            continue
        if unit.steps != workload.steps_per_unit(p):
            unit.problems.append(
                f"ran {unit.steps} steps, expected {workload.steps_per_unit(p)}")
    return units


def load_reference():
    return json.loads(REFERENCE.read_text())


def check_reference(units, expected, rtol):
    """Compare final loss and final L2 error with the recorded values."""
    for unit in units:
        if unit.problems:
            continue
        want = expected.get(unit.name)
        if want is None:
            unit.problems.append("no reference value")
            continue
        for what, got, ref in (("final loss", unit.final_loss, want[0]),
                               ("final L2 error", unit.final_l2, want[1])):
            if not math.isclose(got, ref, rel_tol=rtol, abs_tol=0.0):
                unit.problems.append(f"{what} {got!r} differs from reference {ref!r}")


def check_repeat(units, first):
    """Artifacts must be byte-identical to the first repeat's."""
    for unit, base in zip(units, first):
        if not unit.problems and not base.problems \
                and unit.fingerprint != base.fingerprint:
            unit.problems.append("artifacts differ from the first repeat")
