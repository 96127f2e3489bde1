#!/usr/bin/env python3
"""fbpinn benchmark: one workload through the fbpinn CLI entry point
(`fbpinn.cli.main`), in-process, repeated for a fixed time.

    python3 perfbench/run.py --workload converge-j16-p1 --seed 0 --seconds 40 --trace 0

Run from the repository root; the package is imported from `src/`.
`--trace 0` reports the end-to-end metrics of BENCHMARK.json as medians
over the repeats. `--trace 1` alternates untraced and traced repeats and
reports the per-layer metrics, with the tracing overhead as its own number.
Times are scaled to the host's reference speed by the probe of
hostspeed.py, run before every repeat and after the last: each repeat's
times are multiplied by REFERENCE_S over the mean of the probes just
before and just after it. The raw times are printed beside them.

Every repeat is checked: exit code, sweep cell status, optimizer steps,
final loss and final L2 error against perfbench/reference.json, and
byte-identical solution.csv, checkpoints and loss_history.csv (without
its round column) across the repeats. A traced repeat must also show the
closed-form call counts of workloads.Workload.expected_calls.

BLAS is pinned to one thread. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the full record,
with the environment, goes to .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import hostspeed
import outputs
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Two repeats are the least that the byte-identity check can compare. One
# sweep-highp repeat can take longer than half of --seconds; that workload
# then runs exactly two and ends past --seconds.
MIN_REPEATS = 2
# Printed with the end-to-end metrics but not listed in BENCHMARK.json:
# final_l2 varies with the seed by more than any bound the benchmark may
# set (and failed_frac is 0 on a correct program). The reference check
# turns any change in the numerics into failed runs instead. raw.* are
# the metrics' times before they are scaled by the host factor.
PRINTED_ONLY = {"final_l2": "ratio", "raw.steps_per_s": "steps/s",
                "raw.wall_s": "s", "raw.setup_s": "s", "host_factor": "ratio"}

# metric -> layers it is computed from, beyond the layer its name starts with
DERIVED_FROM = {
    "networks.eval_batch.refresh": ["training.refresh_overlap_cache"],
    "networks.eval_batch.record": ["training.record"],
    "networks.flops_computed": ["networks.loss_gradient", "networks.eval_batch"],
    "training.coarse_phase": ["training.train_coarse_then_local", "training.train"],
}


def load_cli():
    """Pin BLAS to one thread, then import the package from src/."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import fbpinn.cli
    return fbpinn.cli


@dataclass
class Invocation:
    wall_s: float
    setup_s: float
    training_s: float
    units: list
    bytes_written: int
    layers: dict | None = None      # traced only
    missing: list | None = None     # traced only: layers no longer found
    # hostspeed.REFERENCE_S over the mean of the probes around this repeat
    host_factor: float = 1.0

    @property
    def steps_per_s(self):
        return sum(u.steps for u in self.units) / sum(u.wall_time_s for u in self.units)


class CliClock:
    """Untraced timing of one command: set-up, from the command's start (or
    a sweep cell's) to the call that takes the first optimizer step, and
    the time spent inside those training calls."""

    def __init__(self):
        self.setup = 0.0
        self.training = 0.0
        self._since = None

    def _cell(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._since is None:
                self._since = perf_counter()
            return fn(*args, **kwargs)
        return wrapper

    def _training(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = perf_counter()
            self.setup += started - self._since
            self._since = None
            try:
                return fn(*args, **kwargs)
            finally:
                self.training += perf_counter() - started
        return wrapper

    @contextlib.contextmanager
    def installed(self, cli):
        hooks = {"run_single": self._cell, "train": self._training,
                 "train_coarse_then_local": self._training}
        originals = {name: getattr(cli, name) for name in hooks}
        try:
            for name, hook in hooks.items():
                setattr(cli, name, hook(originals[name]))
            self._since = perf_counter()
            yield self
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)


def _timed(main, argv):
    """(exit code, seconds). A crash inside the command is a failed run of
    the program, not of the benchmark: its traceback goes to stderr."""
    start = perf_counter()
    try:
        code = main(argv)
    except Exception:
        traceback.print_exc()
        code = 1
    return code, perf_counter() - start


def invoke(cli, workload, cfg_path, outdir, traced=False):
    """One CLI command. Untraced it times set-up; traced it records spans."""
    argv = [workload.command, str(cfg_path), "--out", str(outdir)]
    quiet = contextlib.redirect_stdout(io.StringIO())
    layers = missing = None
    setup = training = 0.0
    if traced:
        tracer = spans.Tracer()
        main = tracer.wrap("cli.main", cli.main)
        with tracer.installed("fbpinn", _package_modules()), quiet:
            code, wall = _timed(main, argv)
        layers = spans.layer_metrics(tracer.spans)
        missing = tracer.missing
    else:
        clock = CliClock()
        with clock.installed(cli), quiet:
            code, wall = _timed(cli.main, argv)
        setup, training = clock.setup, clock.training
    written = sum(f.stat().st_size for f in Path(outdir).rglob("*") if f.is_file())
    units = outputs.read_units(workload, Path(outdir), code)
    return Invocation(wall, setup, training, units, written, layers, missing)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fbpinn" or name.startswith("fbpinn."))]


def check_counts(workload, inv):
    """Traced call counts must equal their closed forms; a missing layer is
    reported as missing, not compared."""
    for key, want in workload.expected_calls().items():
        layer = key.rsplit(".", 1)[0]
        if layer in inv.missing:
            continue
        got = inv.layers.get(key, 0)
        if got != want:
            for unit in inv.units:
                unit.problems.append(f"{key} = {got}, closed form {want}")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _missing_metric(metric, missing):
    for layer in missing:
        if metric.startswith(layer + ".") or any(
                metric.startswith(prefix) and layer in deps
                for prefix, deps in DERIVED_FROM.items()):
            return True
    return False


def end_to_end(reps):
    """Per-repeat samples of every end-to-end metric, times scaled to the
    host's reference speed. final_l2 is the worst unit's (the worst sweep
    cell's)."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worst_l2 = max(u.final_l2 for u in reps[0].units)
    return {
        "steps_per_s": [r.steps_per_s / r.host_factor for r in reps],
        "wall_s": [r.wall_s * r.host_factor for r in reps],
        "setup_s": [r.setup_s * r.host_factor for r in reps],
        "peak_rss_mb": [rss_mb],
        "final_l2": [worst_l2],
        "raw.steps_per_s": [r.steps_per_s for r in reps],
        "raw.wall_s": [r.wall_s for r in reps],
        "raw.setup_s": [r.setup_s for r in reps],
        "host_factor": [r.host_factor for r in reps],
    }


def per_layer(traced, untraced):
    """Medians of the traced repeats' layer metrics, times scaled to the
    host's reference speed, plus the overhead."""
    values = spans.medians([
        {k: v * r.host_factor if k.endswith((".s", "_s")) else v
         for k, v in r.layers.items()}
        for r in traced])
    values["reporting.bytes_written"] = statistics.median_low(r.bytes_written for r in traced)
    values["trace.overhead_frac"] = (
        statistics.median(r.wall_s * r.host_factor for r in traced)
        / statistics.median(r.wall_s * r.host_factor for r in untraced) - 1.0)
    return values


def _git_commit():
    """HEAD of the repository at ROOT; None outside one. Git does not look
    above ROOT for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() or None


def _blas_threads(np):
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in libs:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = None
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(np),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "commit": _git_commit(),
    }


def _write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


def measure(cli, workload, seed, seconds, trace, work):
    """Repeat the workload for `seconds`, checking every repeat against the
    first and probing the host's speed before each repeat and after the
    last. Returns (untraced repeats, traced repeats)."""
    # An untimed few-step run of the same command and a probe first, so that
    # the first timed repeat does not also pay for lazy set-up in NumPy and
    # Python.
    warmup = _write_config(work / "warmup.json", workload.warmup_config(seed))
    invoke(cli, workload, warmup, work / "warmup")
    shutil.rmtree(work / "warmup", ignore_errors=True)
    hostspeed.probe()
    probes = [hostspeed.probe()]
    cfg_path = _write_config(work / "config.json", workload.config(seed))
    untraced, traced = [], []
    first = None
    start = perf_counter()
    while True:
        batch = [False, True] if trace else [False]
        for is_traced in batch:
            k = len(untraced) + len(traced)
            outdir = work / f"rep{k}"
            inv = invoke(cli, workload, cfg_path, outdir, traced=is_traced)
            probes.append(hostspeed.probe())
            inv.host_factor = hostspeed.REFERENCE_S / statistics.fmean(probes[-2:])
            if first is None:
                first = inv.units
            else:
                outputs.check_repeat(inv.units, first)
                shutil.rmtree(outdir, ignore_errors=True)
            if is_traced:
                check_counts(workload, inv)
                traced.append(inv)
            else:
                untraced.append(inv)
        done = len(untraced) + len(traced)
        last = sum(r.wall_s for r in (untraced[-1:] + traced[-1:]))
        if done >= MIN_REPEATS and perf_counter() - start + last > seconds:
            break
    shutil.rmtree(work / "rep0", ignore_errors=True)
    return untraced, traced


def check_against_reference(cli, workload, seed, reps, work):
    """Check the repeats against the recorded reference for this seed. A
    seed without one gets one extra, untimed run of a recorded seed."""
    ref = outputs.load_reference()
    table = ref["workloads"][workload.name]
    extra = []
    if str(seed) not in table:
        seeds = sorted(int(s) for s in table)
        seed = seeds[seed % len(seeds)]
        cfg_path = _write_config(work / "reference.json", workload.config(seed))
        extra = [invoke(cli, workload, cfg_path, work / "reference_run")]
        shutil.rmtree(work / "reference_run", ignore_errors=True)
        reps = extra
    for inv in reps:
        outputs.check_reference(inv.units, table[str(seed)], ref["rtol"])
    return extra


def report_table(workload, seed, samples, failed, attempted, metric_units):
    print(f"workload {workload.name}  seed {seed}")
    print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  unit")
    for name, values in samples.items():
        q1, med, q3 = _quartiles(values)
        unit = metric_units.get(name) or PRINTED_ONLY[name]
        print(f"{name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{len(values):>4}  {unit}")
    print(f"{'failed_frac':<16}{failed / attempted:>14.6g}{'':>32}  "
          f"ratio ({failed} of {attempted} runs or sweep cells)")


def _clean(reps):
    return [r for r in reps if not any(u.problems for u in r.units)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not (ROOT / "src" / "fbpinn" / "cli.py").is_file():
        print(f"perfbench: no fbpinn package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = load_cli()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        untraced, traced = measure(cli, workload, args.seed, args.seconds,
                                   args.trace, work)
        extra = check_against_reference(cli, workload, args.seed,
                                        untraced + traced, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_units = [u for r in untraced + traced + extra for u in r.units]
    failed = sum(1 for u in all_units if u.problems)
    for u in all_units:
        for problem in u.problems:
            print(f"FAILED {u.name}: {problem}")

    metric_units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    samples = end_to_end(_clean(untraced)) if _clean(untraced) else {}
    if samples:
        report_table(workload, args.seed, samples, failed, len(all_units),
                     metric_units)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        missing = traced[0].missing
        if missing:
            print("missing layers: " + ", ".join(missing))
        values = per_layer(_clean(traced), _clean(untraced)) \
            if _clean(traced) and _clean(untraced) else {}
        # a layer that is present but not exercised (the coarse phase of a
        # run without one) reads 0; a layer that is gone is left out
        chosen = {n: values.get(n, 0) for n in names
                  if values and not _missing_metric(n, missing)}
        for n in names:
            if n in chosen:
                print(f"{n:<40}{chosen[n]:>16.6g}  {metric_units[n]}")
        traced_train = values.get("training.train_coarse_then_local.s") \
            or values.get("training.train.s")
        if traced_train:
            # the self times of the spans inside the training calls sum to
            # the calls' traced duration
            untraced_train = statistics.median(r.training_s * r.host_factor
                                               for r in _clean(untraced))
            print(f"per-layer self times inside training calls: {traced_train:.4g} s "
                  f"traced vs {untraced_train:.4g} s untraced "
                  f"(ratio - 1 = {traced_train / untraced_train - 1:.3g}, "
                  f"trace.overhead_frac = {values['trace.overhead_frac']:.3g})")
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        chosen = {n: _quartiles(samples[n])[1] for n in names if n in samples}

    record = {
        "args": vars(args), "environment": env, "attempted": len(all_units),
        "failed": failed,
        "problems": [f"{u.name}: {p}" for u in all_units for p in u.problems],
        "samples": samples if not args.trace else None,
        "metrics": chosen,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_units),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": metric_units[n]} for n, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
