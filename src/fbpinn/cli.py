"""Command line interface.

    fbpinn run    config.json [--out DIR]   single training run
    fbpinn sweep  config.json [--out DIR]   grid over subdomain counts and
                                            communication intervals
    fbpinn coarse config.json [--out DIR]   two-phase coarse-plus-local run

Outputs land in --out when given, else in the config's output_dir (joined
under $FBPINN_OUTPUT_ROOT when that is set and the path is relative).
All outputs are CSV/JSON; nothing is plotted.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import (ConfigError, build_problem, build_schedule,
                     check_whole_rounds, load_config)
from .decomposition import build_decomposition, sample_collocation
from .networks import NumericalFailureError, init_params
from .problems import UndefinedL2Error
from .reporting import (CHECKPOINTS, COARSE_SOLUTION, SUBDOMAIN_CHECKPOINT,
                        scalability_trends, write_run_artifacts, write_sweep_summary,
                        write_trends)
from .training import (create_state, train, train_coarse_then_local)

# a sweep cell's directory, relative to the output directory
CELL = os.path.join("cells", "J{:02d}_p{:04d}")


def resolve_outdir(cli_out, cfg):
    if cli_out:
        return Path(cli_out)
    out = Path(cfg.output_dir)
    root = os.environ.get("FBPINN_OUTPUT_ROOT")
    if root and not out.is_absolute():
        return Path(root) / out
    return out


def _sized(key, build, *args, **kwargs):
    """build(*args, **kwargs); a ConfigError naming the config key `key`
    when NumPy or Python refuse the size it sets."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OverflowError, MemoryError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _setup(cfg, key, coarse=False):
    """(state, schedule) of one run of cfg, with a coarse network when
    coarse is true; a ConfigError naming the config key at fault. `key` is
    the config key that set cfg's subdomain count."""
    n_subdomains = cfg.decomposition.subdomains
    n_points = cfg.training.collocation_points
    # A subdomain is narrower than twice the spacing of the centres, so a
    # point lies in at most two subdomains: with more than twice as many
    # subdomains as points, some hold none. Checked before a schedule or a
    # decomposition of that many subdomains is built.
    if n_subdomains > 2 * n_points:
        raise ConfigError(
            f"{key} = {n_subdomains} exceeds twice training.collocation_points = "
            f"{n_points}: a collocation point lies in at most two subdomains, so some "
            "would hold none")
    schedule = build_schedule(cfg, n_subdomains)
    problem = build_problem(cfg)
    fraction = cfg.decomposition.overlap_fraction
    try:
        decomposition = build_decomposition(problem.domain, n_subdomains, fraction)
    except ValueError as exc:
        raise ConfigError(f"decomposition.overlap_fraction = {fraction!r} with "
                          f"{n_subdomains} subdomains: {exc}") from exc
    points = _sized("training.collocation_points", sample_collocation, problem.domain,
                    n_points)
    sizes = {}
    for block in ("network", "coarse") if coarse else ("network",):
        sizes[block] = _sized(f"{block}.hidden_layers", getattr(cfg, block).layer_sizes)
        _sized(f"{block}.hidden_width", init_params, sizes[block], cfg.training.seed)
    # as train_coarse_then_local, which builds no grid for 0 epochs
    if coarse and cfg.coarse.epochs > 0:
        _sized("coarse.points", sample_collocation, problem.domain, cfg.coarse.points)
    # create_state refuses subdomains that hold no collocation point
    state = _sized(
        f"training.collocation_points = {n_points} with {n_subdomains} subdomains",
        create_state, problem, decomposition, points, layer_sizes=sizes["network"],
        communication_interval=cfg.training.communication_interval,
        optimizer=cfg.training.optimizer, learning_rate=cfg.training.learning_rate,
        master_seed=cfg.training.seed, coarse_layer_sizes=sizes.get("coarse"))
    return state, schedule


def _longest_output(cfg, sweep):
    """The longest path, relative to the output directory, that a run of
    cfg writes, or under a sweep its cell of the largest J and p."""
    counts = cfg.sweep.subdomains if sweep else (cfg.decomposition.subdomains,)
    longest = max(COARSE_SOLUTION, os.path.join(
        CHECKPOINTS, SUBDOMAIN_CHECKPOINT.format(max(counts))), key=len)
    cell = CELL.format(max(counts), max(cfg.sweep.communication_intervals)) if sweep else ""
    return os.path.join(cell, longest)


def _check_outdir(outdir, longest):
    """ConfigError if outdir holds a NUL, if it or a directory above it is a
    file, or if the file system of its nearest existing directory would
    refuse outdir / longest, the longest path the command writes: a name
    still to be made longer than PC_NAME_MAX bytes, or a path of
    PC_PATH_MAX bytes or more. Makes no directory."""
    if "\0" in str(outdir):
        raise ConfigError(f"output directory {str(outdir)!r} holds a NUL character")
    full = os.path.abspath(outdir)
    path = full
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"output directory {str(outdir)!r}: "
                          f"{path!r} exists and is not a directory")
    names = os.path.relpath(os.path.join(full, longest), path).split(os.sep)
    longest_name = max(len(os.fsencode(name)) for name in names)
    limit = os.pathconf(path, "PC_NAME_MAX")
    if longest_name > limit:
        raise ConfigError(f"output directory {str(outdir)!r}: a name of {longest_name} "
                          f"bytes exceeds the file system's limit of {limit}")
    size = len(os.fsencode(str(outdir)))
    # PC_PATH_MAX counts the terminating NUL
    limit = os.pathconf(path, "PC_PATH_MAX") - 1 - len(os.fsencode(os.sep + longest))
    if size > limit:
        raise ConfigError(f"output directory {str(outdir)!r}: a path of {size} bytes "
                          f"exceeds the file system's limit of {limit} for a directory "
                          f"that is to hold {longest!r}")


def run_single(cfg, outdir, *, state, schedule):
    """Train the state and schedule that _setup built from cfg, two-phase
    coarse-plus-local when the state has a coarse network (its artifacts
    then add coarse_solution.csv). Returns (state, report) and writes the
    artifacts, partial ones on numerical failure."""
    rounds = cfg.training.steps // state.communication_interval
    try:
        if state.coarse_params is not None:
            report = train_coarse_then_local(
                state, cfg.coarse.epochs, cfg.coarse.points, rounds, schedule,
                record_interval=cfg.training.record_interval)
        else:
            report = train(state, schedule, rounds,
                           record_interval=cfg.training.record_interval)
    except NumericalFailureError as err:
        if getattr(err, "report", None) is not None:
            err.report.config = cfg.to_echo()
            write_run_artifacts(outdir, err.report, state)
        raise
    report.config = cfg.to_echo()
    write_run_artifacts(outdir, report, state)
    return state, report


def run_sweep(cfg, outdir, *, cells):
    """Train each (config, state, schedule) of cells, the sweep's grid as
    main builds it, one subdirectory per cell, same seed everywhere. A
    failing cell is recorded in the aggregate and the remaining cells
    still run."""
    rows = []
    for cell_cfg, state, schedule in cells:
        J, p = state.n_subdomains, state.communication_interval
        try:
            _, report = run_single(cell_cfg, Path(outdir) / CELL.format(J, p),
                                   state=state, schedule=schedule)
            rows.append((J, p, report.final_loss.total, report.final_l2,
                         cfg.training.steps, "ok"))
        except NumericalFailureError as err:
            print(f"cell J={J} p={p} failed: {err}", file=sys.stderr)
            rows.append((J, p, None, None,
                         getattr(err, "step", None) or 0, "failed"))
    Path(outdir).mkdir(parents=True, exist_ok=True)
    write_sweep_summary(Path(outdir) / "sweep_summary.csv", rows)
    write_trends(Path(outdir) / "trends.json", scalability_trends(rows))
    return rows


def main(argv=None):
    """Run the command in argv and return its exit code: 0 success,
    2 configuration error (nothing written), 3 numerical failure (partial
    artifacts kept), 4 an output could not be written (partial artifacts
    may remain). Every run of the command is built before any trains."""
    parser = argparse.ArgumentParser(
        prog="fbpinn",
        description="Train window-weighted local networks on 1D ODEs with "
                    "Schwarz-style subdomain scheduling.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("run", "single training run"),
                       ("sweep", "grid over subdomain counts and communication intervals"),
                       ("coarse", "two-phase coarse correction run")):
        p = sub.add_parser(name, help=text)
        p.add_argument("config", help="path to a JSON config file")
        p.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.command == "coarse" and not cfg.coarse.enabled:
            raise ConfigError("coarse.enabled must be true for the coarse subcommand")
        if args.command == "sweep":
            for p in cfg.sweep.communication_intervals:
                check_whole_rounds(cfg, p, "sweep.communication_intervals")
            # each cell's config, sweep.subdomains by sweep.communication_intervals
            cells = [(cell, *_setup(cell, "sweep.subdomains")) for cell in (
                replace(cfg, decomposition=replace(cfg.decomposition, subdomains=J),
                        training=replace(cfg.training, communication_interval=p))
                for J in cfg.sweep.subdomains for p in cfg.sweep.communication_intervals)]
        else:
            state, schedule = _setup(cfg, "decomposition.subdomains",
                                     coarse=args.command == "coarse")
        outdir = resolve_outdir(args.out, cfg)
        _check_outdir(outdir, _longest_output(cfg, sweep=args.command == "sweep"))
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    try:
        if args.command == "sweep":
            rows = run_sweep(cfg, outdir, cells=cells)
            print(f"wrote {len(rows)} sweep cells to {outdir}")
            return 0
        _, report = run_single(cfg, outdir, state=state, schedule=schedule)
    except NumericalFailureError as err:
        # training numbers every failure's step; a final loss that is not
        # finite names no network
        where = f"step {err.step}"
        if err.subdomain is not None:
            where += ", coarse network" if err.subdomain == "coarse" \
                else f", subdomain {err.subdomain}"
        print(f"error: numerical failure ({where}): {err}", file=sys.stderr)
        return 3
    except UndefinedL2Error as err:
        # training raises it before its first step, so nothing is written
        print(f"error: problem: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: cannot write outputs: {err}", file=sys.stderr)
        return 4
    print(f"final loss {report.final_loss.total:.6g}, "
          f"relative L2 error {report.final_l2:.6g}, wrote {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
