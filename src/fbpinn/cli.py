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
from .decomposition import (build_decomposition, empty_subdomains,
                            index_list, sample_collocation)
from .networks import NumericalFailureError, init_params
from .problems import UndefinedL2Error
from .reporting import (scalability_trends, write_run_artifacts,
                        write_sweep_summary, write_trends)
from .training import (create_state, train, train_coarse_then_local)


def resolve_outdir(cli_out, cfg):
    if cli_out:
        return Path(cli_out)
    out = Path(cfg.output_dir)
    root = os.environ.get("FBPINN_OUTPUT_ROOT")
    if root and not out.is_absolute():
        return Path(root) / out
    return out


def _layout(cfg, n_subdomains):
    """The problem, its decomposition into n_subdomains subdomains and the
    collocation points of cfg; ConfigError if neighbours would not overlap."""
    problem = build_problem(cfg)
    fraction = cfg.decomposition.overlap_fraction
    try:
        decomposition = build_decomposition(problem.domain, n_subdomains, fraction)
    except ValueError as exc:
        raise ConfigError(f"decomposition.overlap_fraction = {fraction!r} with "
                          f"{n_subdomains} subdomains: {exc}") from exc
    points = _sized("training.collocation_points", sample_collocation, problem.domain,
                    cfg.training.collocation_points)
    return problem, decomposition, points


def _sized(key, build, *args):
    """build(*args); a ConfigError naming the config key `key` when NumPy or
    Python refuse the size it sets."""
    try:
        return build(*args)
    except (ValueError, OverflowError, MemoryError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _check_subdomain_count(cfg, n_subdomains, key):
    """ConfigError unless cfg can be built with n_subdomains subdomains, the
    value of the config key `key`: the schedule must cover them and each
    must hold a collocation point."""
    n_points = cfg.training.collocation_points
    # A subdomain is narrower than twice the spacing of the centres, so a
    # point lies in at most two subdomains: with more than twice as many
    # subdomains as points, some hold none. Checked before a schedule or a
    # layout of that many subdomains is built.
    if n_subdomains > 2 * n_points:
        raise ConfigError(
            f"{key} = {n_subdomains} exceeds twice training.collocation_points = "
            f"{n_points}: a collocation point lies in at most two subdomains, so some "
            "would hold none")
    build_schedule(cfg, n_subdomains)
    _, decomposition, points = _layout(cfg, n_subdomains)
    empty = empty_subdomains(decomposition, points)
    if empty:
        raise ConfigError(
            f"training.collocation_points = {n_points} "
            f"leaves subdomains {index_list(empty)} of {n_subdomains} without a "
            "collocation point")


def _check_outdir(outdir):
    """ConfigError if outdir holds a NUL, if it or a directory above it is a
    file, or if the file system of its nearest existing directory would
    refuse it: a name still to be made longer than PC_NAME_MAX bytes, or a
    path of PC_PATH_MAX bytes or more. Makes no directory."""
    if "\0" in str(outdir):
        raise ConfigError(f"output directory {str(outdir)!r} holds a NUL character")
    full = os.path.abspath(outdir)
    path = full
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"output directory {str(outdir)!r}: "
                          f"{path!r} exists and is not a directory")
    longest = max(len(os.fsencode(name)) for name in os.path.relpath(full, path).split(os.sep))
    limit = os.pathconf(path, "PC_NAME_MAX")
    if longest > limit:
        raise ConfigError(f"output directory {str(outdir)!r}: a name of {longest} bytes "
                          f"exceeds the file system's limit of {limit}")
    size = len(os.fsencode(str(outdir)))
    limit = os.pathconf(path, "PC_PATH_MAX") - 1    # it counts the terminating NUL
    if size > limit:
        raise ConfigError(f"output directory {str(outdir)!r}: a path of {size} bytes "
                          f"exceeds the file system's limit of {limit}")


def _rounds(cfg):
    return cfg.training.steps // cfg.training.communication_interval


def run_single(cfg, outdir, coarse=False):
    """One training run, two-phase coarse-plus-local when coarse is true
    (its artifacts then add coarse_solution.csv). Returns (state, report)
    and writes the artifacts, partial ones on numerical failure."""
    problem, decomposition, points = _layout(cfg, cfg.decomposition.subdomains)
    state = create_state(
        problem, decomposition, points,
        layer_sizes=cfg.network.layer_sizes(),
        communication_interval=cfg.training.communication_interval,
        optimizer=cfg.training.optimizer,
        learning_rate=cfg.training.learning_rate,
        master_seed=cfg.training.seed,
        coarse_layer_sizes=cfg.coarse.layer_sizes() if coarse else None)
    schedule = build_schedule(cfg, state.n_subdomains)
    try:
        if coarse:
            report = train_coarse_then_local(
                state, cfg.coarse.epochs, cfg.coarse.points, _rounds(cfg), schedule,
                record_interval=cfg.training.record_interval)
        else:
            report = train(state, schedule, _rounds(cfg),
                           record_interval=cfg.training.record_interval)
    except NumericalFailureError as err:
        if getattr(err, "report", None) is not None:
            err.report.config = cfg.to_echo()
            write_run_artifacts(outdir, err.report, state)
        raise
    report.config = cfg.to_echo()
    write_run_artifacts(outdir, report, state)
    return state, report


def run_sweep(cfg, outdir):
    """Cartesian grid over sweep.subdomains x sweep.communication_intervals,
    one subdirectory per cell, same seed everywhere. A failing cell is
    recorded in the aggregate and the remaining cells still run."""
    rows = []
    for J in cfg.sweep.subdomains:
        for p in cfg.sweep.communication_intervals:
            cell_cfg = replace(
                cfg,
                decomposition=replace(cfg.decomposition, subdomains=J),
                training=replace(cfg.training, communication_interval=p))
            cell_dir = Path(outdir) / "cells" / f"J{J:02d}_p{p:04d}"
            try:
                _, report = run_single(cell_cfg, cell_dir)
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
    may remain)."""
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
        key, counts = ("sweep.subdomains", cfg.sweep.subdomains) if args.command == "sweep" \
            else ("decomposition.subdomains", (cfg.decomposition.subdomains,))
        for n_subdomains in counts:
            _check_subdomain_count(cfg, n_subdomains, key)
        for block in ("network", "coarse") if args.command == "coarse" else ("network",):
            net = getattr(cfg, block)
            sizes = _sized(f"{block}.hidden_layers", net.layer_sizes)
            _sized(f"{block}.hidden_width", init_params, sizes, cfg.training.seed)
        # as train_coarse_then_local, which builds no grid for 0 epochs
        if args.command == "coarse" and cfg.coarse.epochs > 0:
            _sized("coarse.points", sample_collocation, build_problem(cfg).domain,
                   cfg.coarse.points)
        if args.command == "sweep":
            for p in cfg.sweep.communication_intervals:
                check_whole_rounds(cfg, p, "sweep.communication_intervals")
        outdir = resolve_outdir(args.out, cfg)
        _check_outdir(outdir)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    try:
        if args.command == "sweep":
            rows = run_sweep(cfg, outdir)
            print(f"wrote {len(rows)} sweep cells to {outdir}")
            return 0
        _, report = run_single(cfg, outdir, coarse=args.command == "coarse")
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
