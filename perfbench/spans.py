"""Per-layer tracing from outside the package.

The tracer replaces each listed function with a wrapper that records a
span (name, parent, start, end, rows) in memory. fbpinn modules import
functions by name (`training` calls its own binding of `loss_gradient`),
so every module attribute bound to the same function object is replaced,
and restored when the trace ends. A listed function that no longer exists
is reported as a missing layer, never as zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
from time import perf_counter

# span name -> attribute paths, relative to the fbpinn package
LAYERS = {
    "networks.loss_gradient": ["networks.loss_gradient"],
    "networks.eval_batch": ["networks.eval_batch"],
    "optimizers.step": ["optimizers.Adam.step", "optimizers.GradientDescent.step"],
    "training.refresh_overlap_cache": ["training.refresh_overlap_cache"],
    # the two recording evaluations made every record_interval steps (and
    # once at the end of train)
    "training.record": ["training._stale_breakdown", "training._grid_l2"],
    "training.train": ["training.train"],
    "training.train_coarse_then_local": ["training.train_coarse_then_local"],
    "training.global_loss": ["training.global_loss"],
    "training.create_state": ["training.create_state"],
    "decomposition.window_table": ["decomposition.window_table"],
    "decomposition.classify_points": ["decomposition.classify_points"],
    "config.load_config": ["config.load_config"],
    "scheduling.active_set": ["scheduling.active_set"],
    "reporting.write_run_artifacts": ["reporting.write_run_artifacts"],
}

# spans whose second argument is a batch of network inputs
ROW_SPANS = {"networks.loss_gradient", "networks.eval_batch"}

# Matmul flops per row and per weight entry (a multiply-add counts 2):
# the forward pass multiplies once for the value and once for the tangent;
# the backward pass forms both weight gradients and, below the top layer,
# both input adjoints.
FWD_FLOPS = 4
BWD_FLOPS = 4
ADJOINT_FLOPS = 4

NAME = 0
PARENT = 1
START = 2
END = 3
ROWS = 4
PARAMS = 5


def _resolve(package, path):
    """(owner object, attribute name, function), or None when absent."""
    module, *attrs = path.split(".")
    try:
        owner = importlib.import_module(f"{package}.{module}")
    except ModuleNotFoundError:
        return None
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
    fn = getattr(owner, attrs[-1], None)
    return None if fn is None else (owner, attrs[-1], fn)


class Tracer:
    """Spans of one traced invocation, kept in memory until it ends."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        with_rows = name in ROW_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0, 0, None]
            if with_rows:
                span[ROWS] = len(args[1])
                span[PARAMS] = args[0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = perf_counter()
        return wrapper

    @contextlib.contextmanager
    def installed(self, package, modules):
        """Wrap every layer in LAYERS for the duration of the block."""
        replaced = []
        try:
            for name, paths in LAYERS.items():
                found = False
                for path in paths:
                    target = _resolve(package, path)
                    if target is None:
                        continue
                    found = True
                    owner, attr, fn = target
                    wrapper = self.wrap(name, fn)
                    holders = [(owner, attr)] + [
                        (m, a) for m in modules if m is not owner
                        for a, v in list(vars(m).items()) if v is fn]
                    for holder, a in holders:
                        replaced.append((holder, a, getattr(holder, a)))
                        setattr(holder, a, wrapper)
                if not found:
                    self.missing.append(name)
            yield self
        finally:
            for holder, attr, original in reversed(replaced):
                setattr(holder, attr, original)


def _flops(span):
    layers = span[PARAMS].layer_sizes
    sizes = [a * b for a, b in zip(layers, layers[1:])]
    per_row = FWD_FLOPS * sum(sizes)
    if span[NAME] == "networks.loss_gradient":
        per_row += BWD_FLOPS * sum(sizes) + ADJOINT_FLOPS * sum(sizes[1:])
    return span[ROWS] * per_row


def layer_metrics(spans):
    """Per-layer counts and times of one traced invocation: `<span>.calls`,
    `.s` (duration), `.self_s` (duration minus child spans), `.rows`, the
    eval_batch split by parent span, the coarse phase and the computed
    matmul flops."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    agg = {}

    def add(key, value):
        agg[key] = agg.get(key, 0) + value

    flops = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        dur = span[END] - span[START]
        self_s = dur - child[i]
        add(f"{name}.calls", 1)
        add(f"{name}.s", dur)
        add(f"{name}.self_s", self_s)
        if name in ROW_SPANS:
            add(f"{name}.rows", span[ROWS])
            flops += _flops(span)
            parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
            for tag, via in (("refresh", "training.refresh_overlap_cache"),
                             ("record", "training.record")):
                if parent == via:
                    add(f"{name}.{tag}.rows", span[ROWS])
                    add(f"{name}.{tag}.self_s", self_s)
        if name == "training.train" and span[PARENT] >= 0 \
                and spans[span[PARENT]][NAME] == "training.train_coarse_then_local":
            add("training.coarse_phase.s", -dur)
        if name == "training.train_coarse_then_local":
            add("training.coarse_phase.s", dur)
    agg["networks.flops_computed"] = flops
    return agg


def medians(per_run):
    """Low median (a measured value) of every key over the traced invocations."""
    keys = sorted(set().union(*per_run))
    return {k: statistics.median_low(run.get(k, 0) for run in per_run) for k in keys}
