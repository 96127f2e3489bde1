"""Schwarz-style training of window-weighted local networks.

The global ansatz is the window-weighted sum of local network outputs (plus
an optional frozen coarse network), passed through the problem's hard
constraint. Training proceeds in rounds: every active subdomain takes p
optimizer steps against its own parameters while all foreign contributions
at shared points stay frozen in an overlap cache, then the cache is
refreshed once. Inactive subdomains are never touched, so their parameters
are bitwise stable across rounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .decomposition import (classify_points, empty_subdomains,
                            sample_collocation, window_table)
from .networks import (NumericalFailureError, _forward, eval_batch,
                       eval_values, init_params, loss_gradient)
from .optimizers import make_optimizer
from .problems import soft_boundary_loss
from .scheduling import parallel_schedule, active_set as schedule_active_set


@dataclass
class LossBreakdown:
    """Collocation loss split by point class. total = interior + overlap
    (+ boundary when a soft constraint is active)."""

    total: float
    interior: float
    overlap: float
    boundary: float = 0.0
    per_subdomain_interior: tuple = ()


@dataclass
class OverlapCache:
    """Frozen background per subdomain, aligned with its member points:
    the weighted sum of neighbor-network contributions (zero at interior
    points) plus the coarse-network term when one is present. bc_* entries
    mirror the same background at soft boundary points."""

    values: list
    dvalues: list
    bc_values: list | None
    round_refreshed: int


@dataclass
class LossRecord:
    step: int
    round: int
    phase: str
    total: float
    interior: float
    overlap: float
    boundary: float
    l2_error: float


@dataclass
class RunReport:
    records: list = field(default_factory=list)
    initial_loss: float | None = None
    final_loss: LossBreakdown | None = None
    final_l2: float | None = None
    solution_x: np.ndarray | None = None
    solution_pred: np.ndarray | None = None
    solution_exact: np.ndarray | None = None
    wall_time_s: float = 0.0
    phases: dict = field(default_factory=dict)
    config: dict | None = None


@dataclass
class SubdomainWorkspace:
    """Static per-subdomain tables over its member collocation points."""

    index: int
    point_ids: np.ndarray
    x: np.ndarray
    input_scale: float            # d(x_hat)/dx
    win: np.ndarray
    dwin: np.ndarray
    overlap_mask: np.ndarray
    owned_mask: np.ndarray        # this subdomain is the lowest-indexed owner
    cons: np.ndarray | None
    dcons: np.ndarray | None
    rhs: np.ndarray
    dr_du: np.ndarray             # d(residual)/du at each member point
    dr_ddu: np.ndarray            # d(residual)/d(du) at each member point
    inputs: np.ndarray            # rows of every local forward: member x_hat, then soft bc x_hat
    outgoing: list = field(default_factory=list)   # (target j, src pos, dst pos)
    bc_sel: np.ndarray | None = None
    bc_win: np.ndarray | None = None
    bc_owned: np.ndarray | None = None


@dataclass
class _ForwardMemo:
    """Forwards shared within one train() call. local[j] is network j's
    (u, du, tape) on its workspace inputs at its current parameters and is
    dropped when network j's optimizer steps. coarse[j] is the frozen coarse
    network's (u, du, u at soft boundary points) on workspace j."""

    local: dict = field(default_factory=dict)
    coarse: dict = field(default_factory=dict)


@dataclass
class _GlobalTables:
    x: np.ndarray
    interior_mask: np.ndarray
    overlap_mask: np.ndarray
    bc_x: np.ndarray | None
    bc_targets: np.ndarray | None
    bc_weight: float


@dataclass
class FbpinnState:
    problem: object
    decomposition: object
    collocation: object
    params: list
    coarse_params: object | None
    input_norms: list                 # per subdomain (center, halfwidth)
    coarse_norm: tuple
    optimizers: list
    coarse_optimizer: object | None
    communication_interval: int
    round: int
    step: int
    workspaces: list
    tables: _GlobalTables
    cache: OverlapCache | None

    @property
    def n_subdomains(self):
        return len(self.params)


def _norm_inputs(left, right, x):
    center = 0.5 * (left + right)
    halfwidth = 0.5 * (right - left)
    return (np.asarray(x, dtype=float) - center) / halfwidth, 1.0 / halfwidth


def create_state(problem, decomposition, points, *, layer_sizes,
                 communication_interval=1, optimizer="adam", learning_rate=1e-3,
                 master_seed=0, coarse_layer_sizes=None):
    """Initialize networks, classify collocation points, precompute windows,
    and fill the overlap cache from the freshly initialized parameters.
    Every subdomain must hold at least one collocation point.

    Per-network seeds are master_seed + subdomain index (1-based); the coarse
    network, when requested, uses master_seed itself.
    """
    dom = problem.domain
    if abs(dom.a - decomposition.domain.a) > 1e-12 or abs(dom.b - decomposition.domain.b) > 1e-12:
        raise ValueError("problem and decomposition domains differ")
    if not isinstance(communication_interval, (int, np.integer)) or communication_interval < 1:
        raise ValueError(f"communication_interval must be >= 1, got {communication_interval!r}")

    colloc = classify_points(decomposition, points)
    empty = empty_subdomains(decomposition, colloc.points)
    if empty:
        raise ValueError(f"subdomains {empty} hold no collocation point")
    pts = colloc.points
    n_points = len(pts)
    n_sub = decomposition.n_subdomains
    hard = problem.constraint.kind == "hard"

    tables = window_table(decomposition, pts)
    owner = np.zeros(n_points, dtype=int)
    for j in range(n_sub, 0, -1):
        owner[colloc.members[j - 1]] = j

    interior_mask = np.zeros(n_points, dtype=bool)
    overlap_mask = np.zeros(n_points, dtype=bool)
    for j in range(n_sub):
        interior_mask[colloc.interior[j]] = True
        overlap_mask[colloc.overlap[j]] = True

    if hard:
        cons_all = np.asarray(problem.constraint.multiplier(pts), dtype=float)
        dcons_all = np.asarray(problem.constraint.multiplier_prime(pts), dtype=float)
        bc_x = bc_targets = None
        bc_weight = 0.0
        bc_owner = None
    else:
        cons_all = dcons_all = None
        bc_x = np.asarray(problem.constraint.points, dtype=float)
        bc_targets = np.asarray(problem.constraint.targets, dtype=float)
        bc_weight = float(problem.constraint.weight)
        for xb in bc_x:
            if not dom.contains(xb):
                raise ValueError(f"soft boundary point {xb!r} outside the domain")
        bc_owner = np.zeros(len(bc_x), dtype=int)
        for j in range(n_sub, 0, -1):
            sd = decomposition.subdomains[j - 1]
            bc_owner[(bc_x >= sd.left) & (bc_x <= sd.right)] = j

    input_norms = []
    workspaces = []
    for j in range(1, n_sub + 1):
        sd = decomposition.subdomains[j - 1]
        ids = colloc.members[j - 1]
        x = pts[ids]
        x_hat, scale = _norm_inputs(sd.left, sd.right, x)
        idx_check, win, dwin = tables[j - 1]
        assert np.array_equal(idx_check, ids)
        ovl = np.zeros(len(ids), dtype=bool)
        ovl[np.searchsorted(ids, colloc.overlap[j - 1])] = True
        cons = cons_all[ids] if hard else None
        dcons = dcons_all[ids] if hard else None
        ws = SubdomainWorkspace(
            index=j, point_ids=ids, x=x, input_scale=scale,
            win=win, dwin=dwin, overlap_mask=ovl,
            owned_mask=owner[ids] == j, cons=cons, dcons=dcons,
            rhs=np.asarray(problem.rhs(x), dtype=float),
            dr_du=dcons * win + cons * dwin if hard else dwin,
            dr_ddu=cons * (win * scale) if hard else win * scale,
            inputs=x_hat,
        )
        if not hard:
            sel = np.nonzero((bc_x >= sd.left) & (bc_x <= sd.right))[0]
            ws.bc_sel = sel
            ws.bc_win = np.array([decomposition.window(j, xb) for xb in bc_x[sel]])[:, 0] \
                if len(sel) else np.zeros(0)
            ws.bc_owned = bc_owner[sel] == j
            ws.inputs = np.concatenate([x_hat, _norm_inputs(sd.left, sd.right, bc_x[sel])[0]])
        input_norms.append((0.5 * (sd.left + sd.right), 0.5 * (sd.right - sd.left)))
        workspaces.append(ws)

    for ws in workspaces:
        sd = decomposition.subdomains[ws.index - 1]
        for l in sorted(sd.neighbor_indices):
            other = workspaces[l - 1]
            _, src, dst = np.intersect1d(ws.point_ids, other.point_ids,
                                         assume_unique=True, return_indices=True)
            ws.outgoing.append((l, src, dst))

    params = [init_params(layer_sizes, master_seed + j) for j in range(1, n_sub + 1)]
    optimizers = [make_optimizer(optimizer, learning_rate) for _ in range(n_sub)]
    coarse_params = coarse_optimizer = None
    if coarse_layer_sizes is not None:
        coarse_params = init_params(coarse_layer_sizes, master_seed)
        coarse_optimizer = make_optimizer(optimizer, learning_rate)

    state = FbpinnState(
        problem=problem, decomposition=decomposition, collocation=colloc,
        params=params, coarse_params=coarse_params,
        input_norms=input_norms, coarse_norm=(dom.midpoint, 0.5 * dom.width),
        optimizers=optimizers, coarse_optimizer=coarse_optimizer,
        communication_interval=int(communication_interval), round=0, step=0,
        workspaces=workspaces,
        tables=_GlobalTables(pts, interior_mask, overlap_mask,
                             bc_x, bc_targets, bc_weight),
        cache=None,
    )
    state.cache = refresh_overlap_cache(state)
    return state


def _coarse_eval(state, x):
    center, halfwidth = state.coarse_norm
    u, du = eval_batch(state.coarse_params, (np.asarray(x, dtype=float) - center) / halfwidth)
    return u, du / halfwidth


def _member_values(state, ws, memo=None):
    """Network ws.index's value and input derivative at ws's member points,
    and its value at ws's soft boundary points: one tangent forward on
    ws.inputs, taken from the memo while the parameters are unchanged."""
    forward = memo.local.get(ws.index) if memo is not None else None
    if forward is None:
        forward = _forward(state.params[ws.index - 1], ws.inputs)
        if memo is not None:
            memo.local[ws.index] = forward
    u_all, du_all, _ = forward
    n_own = len(ws.x)
    return u_all[:n_own], du_all[:n_own], u_all[n_own:]


def _coarse_background(state, ws, memo=None):
    """Coarse value and derivative on ws.x, and the coarse value at ws's
    soft boundary points (None under a hard constraint)."""
    background = memo.coarse.get(ws.index) if memo is not None else None
    if background is None:
        ug, dug = _coarse_eval(state, ws.x)
        ugb = None
        if ws.bc_sel is not None:
            ugb = (_coarse_eval(state, state.tables.bc_x[ws.bc_sel])[0]
                   if len(ws.bc_sel) else np.zeros(0))
        background = (ug, dug, ugb)
        if memo is not None:
            memo.coarse[ws.index] = background
    return background


def refresh_overlap_cache(state, memo=None):
    """Recompute every subdomain's frozen background from current parameters:
    neighbor window-weighted sums at shared points, plus the coarse network
    everywhere when one is present."""
    soft = state.tables.bc_x is not None
    values, dvalues, bc_values = [], [], [] if soft else None
    with np.errstate(invalid="ignore", over="ignore"):
        for ws in state.workspaces:
            if state.coarse_params is not None:
                ug, dug, ugb = _coarse_background(state, ws, memo)
                values.append(ug.copy())
                dvalues.append(dug.copy())
                if soft:
                    bc_values.append(ugb.copy())
            else:
                values.append(np.zeros(len(ws.x)))
                dvalues.append(np.zeros(len(ws.x)))
                if soft:
                    bc_values.append(np.zeros(len(ws.bc_sel)))
        for ws in state.workspaces:
            if not ws.outgoing and not soft:
                continue
            u, du, ub = _member_values(state, ws, memo)
            contrib = ws.win * u
            dcontrib = ws.dwin * u + ws.win * (ws.input_scale * du)
            for target, src, dst in ws.outgoing:
                values[target - 1][dst] += contrib[src]
                dvalues[target - 1][dst] += dcontrib[src]
            if soft and len(ws.bc_sel):
                mine = ws.bc_win * ub
                for other in state.workspaces:
                    if other.index == ws.index or not len(other.bc_sel):
                        continue
                    common, src, dst = np.intersect1d(ws.bc_sel, other.bc_sel,
                                                      assume_unique=True, return_indices=True)
                    if len(common):
                        bc_values[other.index - 1][dst] += mine[src]
    return OverlapCache(values, dvalues, bc_values, state.round)


def _residual(ws, u, du, bg, dbg):
    """Constrained residual at ws's member points: network ws.index's
    window-weighted (u, du) plus the frozen background (bg, dbg), as
    c'v + cv' - f under a hard constraint and v' - f under a soft one."""
    dvalue = ws.dwin * u + ws.win * (ws.input_scale * du) + dbg
    if ws.cons is None:
        return dvalue - ws.rhs
    return ws.dcons * (ws.win * u + bg) + ws.cons * dvalue - ws.rhs


def _loss_split(state, cache, memo=None):
    """Loss split with every point's residual taken from its lowest-indexed
    owner's live network against `cache`, plus the soft boundary penalty.
    Returns the split and the residual at every collocation point."""
    t = state.tables
    n = len(t.x)
    r_all = np.zeros(n)
    bc_value = np.zeros(len(t.bc_x)) if t.bc_x is not None else None
    with np.errstate(invalid="ignore", over="ignore"):
        for ws in state.workspaces:
            j = ws.index - 1
            u, du, ub = _member_values(state, ws, memo)
            r = _residual(ws, u, du, cache.values[j], cache.dvalues[j])
            r_all[ws.point_ids[ws.owned_mask]] = r[ws.owned_mask]
            if bc_value is not None and len(ws.bc_sel):
                full = ws.bc_win * ub + cache.bc_values[j]
                bc_value[ws.bc_sel[ws.bc_owned]] = full[ws.bc_owned]
        boundary = 0.0 if bc_value is None else soft_boundary_loss(
            state.problem.constraint, zip(bc_value, t.bc_targets))
        squared = r_all * r_all
        per_sub = tuple(float(np.sum(squared[ws.point_ids[~ws.overlap_mask]]) / n)
                        for ws in state.workspaces)
        split = LossBreakdown(float(np.sum(squared) / n) + boundary,
                              float(np.sum(squared[t.interior_mask]) / n),
                              float(np.sum(squared[t.overlap_mask]) / n),
                              boundary, per_sub)
    return split, r_all


def _checked_loss(state, cache, memo):
    """The loss split against `cache`; NumericalFailureError at the first
    point whose residual is not finite."""
    split, r = _loss_split(state, cache, memo)
    bad = ~np.isfinite(r)
    if bad.any():
        x = state.tables.x[int(np.argmax(bad))]
        raise NumericalFailureError(f"non-finite residual at x={x!r}", point=float(x))
    return split


def _stale_breakdown(state, memo=None):
    """Loss as the optimizers currently see it: the split against the
    (possibly stale) state.cache, unchecked."""
    return _loss_split(state, state.cache, memo)[0]


def global_loss(state):
    """Mean squared constrained residual over all collocation points, split
    into interior and overlap parts (plus the soft boundary penalty). The
    split runs against a cache refreshed from the current parameters, so
    it is the true global loss whatever state.cache holds."""
    memo = _ForwardMemo()
    return _checked_loss(state, refresh_overlap_cache(state, memo), memo)


def _make_local_loss_fn(state, j, cache):
    """Closure for loss_gradient: live network j against the frozen cache.
    Returns (batch inputs, loss_fn)."""
    ws = state.workspaces[j - 1]
    t = state.tables
    n = len(t.x)
    n_own = len(ws.x)
    bg, dbg = cache.values[j - 1], cache.dvalues[j - 1]
    boundary = ws.bc_sel is not None and len(ws.bc_sel) > 0
    if boundary:
        n_bc = len(t.bc_x)
        targets = t.bc_targets[ws.bc_sel]
        bc_bg = cache.bc_values[j - 1]

    def loss_fn(u_all, du_all):
        r = _residual(ws, u_all[:n_own], du_all[:n_own], bg, dbg)
        loss = (r @ r) / n
        ru = (2.0 / n) * r
        gu = ru * ws.dr_du
        gd = ru * ws.dr_ddu
        if boundary:
            err = ws.bc_win * u_all[n_own:] + bc_bg - targets
            loss = loss + t.bc_weight * (err @ err) / n_bc
            gu = np.concatenate([gu, (2.0 * t.bc_weight / n_bc) * err * ws.bc_win])
            gd = np.concatenate([gd, np.zeros(len(err))])
        return loss, gu, gd

    return ws.inputs, loss_fn


def local_loss(state, j, cache=None):
    """Subdomain j's training loss: squared residuals over its member points
    with foreign contributions taken from the cache, scaled by the global
    point count."""
    cache = cache if cache is not None else state.cache
    inputs, loss_fn = _make_local_loss_fn(state, j, cache)
    with np.errstate(invalid="ignore", over="ignore"):
        u, du = eval_batch(state.params[j - 1], inputs)
        loss, _, _ = loss_fn(u, du)
    return float(loss)


def _train_round(state, active, on_step, memo=None):
    for j in active.active:
        if not 1 <= j <= state.n_subdomains:
            raise ValueError(f"active subdomain {j} out of range")
    order = sorted(active.active)
    for _ in range(state.communication_interval):
        state.step += 1
        for j in order:
            inputs, loss_fn = _make_local_loss_fn(state, j, state.cache)
            forward = memo.local.pop(j, None) if memo is not None else None
            try:
                _, grad = loss_gradient(state.params[j - 1], inputs, loss_fn, forward)
            except NumericalFailureError as err:
                err.subdomain = j
                err.step = state.step
                raise
            state.optimizers[j - 1].step(state.params[j - 1], grad)
        if on_step is not None:
            on_step()
    state.round += 1
    state.cache = refresh_overlap_cache(state, memo)
    return state


def train_round(state, active):
    """One round: p optimizer steps for each active subdomain against the
    frozen cache, then a single cache refresh."""
    return _train_round(state, active, None)


@dataclass
class _EvalGrid:
    """A point set's per-subdomain tables for value-only evaluation."""

    x: np.ndarray
    cons: np.ndarray | None
    entries: list          # per subdomain (idx, win, x_hat)
    coarse_value: np.ndarray | None   # the coarse network is frozen in train()


def _make_eval_grid(state, x):
    hard = state.problem.constraint.kind == "hard"
    entries = []
    for ws, (idx, win, _) in zip(state.workspaces,
                                 window_table(state.decomposition, x)):
        sd = state.decomposition.subdomains[ws.index - 1]
        x_hat, _ = _norm_inputs(sd.left, sd.right, x[idx])
        entries.append((idx, win, x_hat))
    return _EvalGrid(
        x=x,
        cons=np.asarray(state.problem.constraint.multiplier(x), dtype=float) if hard else None,
        entries=entries,
        coarse_value=_coarse_value(state, x) if state.coarse_params is not None else None)


def _coarse_value(state, x):
    center, halfwidth = state.coarse_norm
    with np.errstate(invalid="ignore", over="ignore"):
        return eval_values(state.coarse_params, (x - center) / halfwidth)


def _grid_solution(state, grid):
    value = np.zeros(len(grid.x))
    if grid.coarse_value is not None:
        value += grid.coarse_value
    for params, (idx, win, x_hat) in zip(state.params, grid.entries):
        value[idx] += win * eval_values(params, x_hat)
    return grid.cons * value if grid.cons is not None else value


def solution_values(state, xs):
    """Constrained solution at xs: the window-weighted sum of the local
    networks plus the coarse term, times the hard constraint's multiplier
    (the raw sum under a soft constraint)."""
    with np.errstate(invalid="ignore", over="ignore"):
        return _grid_solution(state, _make_eval_grid(state, np.asarray(xs, dtype=float)))


def _grid_l2(state, grid, exact):
    """Relative L2 error against exact on the grid, and the prediction it
    measured."""
    with np.errstate(invalid="ignore", over="ignore"):
        pred = _grid_solution(state, grid)
        return float(np.linalg.norm(pred - exact) / np.linalg.norm(exact)), pred


def train(state, schedule, rounds, *, record_interval=10, l2_points=None,
          report=None, phase="fbpinn", step_offset=0):
    """Run `rounds` schedule-driven rounds, recording the stale-cache loss
    split and the relative L2 error on a dense grid every record_interval
    optimizer steps (and at the final step). On numerical failure the
    partial report is attached to the raised error.

    The initial and final losses are the loss split against state.cache,
    which must be fresh when train is called: create_state,
    train_coarse_then_local and every round leave it so. They then equal
    global_loss(state) at the same two points."""
    if not isinstance(rounds, (int, np.integer)) or rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds!r}")
    if not isinstance(record_interval, (int, np.integer)) or record_interval < 1:
        raise ValueError(f"record_interval must be >= 1, got {record_interval!r}")
    if schedule.n_subdomains != state.n_subdomains:
        raise ValueError("schedule and state disagree on the number of subdomains")
    report = report if report is not None else RunReport()
    grid = _make_eval_grid(state, sample_collocation(
        state.problem.domain,
        l2_points if l2_points is not None else 10 * len(state.tables.x)))
    exact = np.asarray(state.problem.exact_solution(grid.x), dtype=float)
    started = time.perf_counter()
    # Each network's tangent forward is computed at most once per parameter
    # version and shared by the loss splits, the cache refresh and the next
    # step's gradient.
    memo = _ForwardMemo()
    if report.initial_loss is None:
        report.initial_loss = _checked_loss(state, state.cache, memo).total
    final_step = state.step + int(rounds) * state.communication_interval
    final = {}

    def on_step():
        s = state.step
        if s % record_interval == 0 or s == final_step:
            # Grid first: after the stale split, the grid's temporaries
            # would sit on top of the forwards that split leaves in the
            # memo and raise peak memory.
            l2, pred = _grid_l2(state, grid, exact)
            if s == final_step:
                # the parameters are final: the report's L2 and solution
                final["l2"], final["pred"] = l2, pred
            bd = _stale_breakdown(state, memo)
            report.records.append(LossRecord(
                step_offset + s, state.round, phase, bd.total, bd.interior,
                bd.overlap, bd.boundary, l2))

    try:
        for _ in range(int(rounds)):
            _train_round(state, schedule_active_set(schedule, state.round),
                         on_step, memo)
    except NumericalFailureError as err:
        report.wall_time_s += time.perf_counter() - started
        err.report = report
        raise
    report.wall_time_s += time.perf_counter() - started
    report.final_loss = _checked_loss(state, state.cache, memo)
    report.final_l2, report.solution_pred = final["l2"], final["pred"]
    report.solution_x = grid.x
    report.solution_exact = exact
    report.phases[phase] = report.phases.get(phase, 0) + int(rounds) * state.communication_interval
    return report


def _train_single(params, problem, points, optimizer, steps, *, norm,
                  record_interval, report, phase, l2_points, step_offset=0):
    """Full-batch training of one network u(x_hat) under the problem's
    constraint; shared by the plain-network baseline and the coarse phase."""
    x = np.asarray(points, dtype=float)
    n = len(x)
    center, halfwidth = norm
    x_hat = (x - center) / halfwidth
    scale = 1.0 / halfwidth
    rhs = np.asarray(problem.rhs(x), dtype=float)
    hard = problem.constraint.kind == "hard"
    if hard:
        cons = np.asarray(problem.constraint.multiplier(x), dtype=float)
        dcons = np.asarray(problem.constraint.multiplier_prime(x), dtype=float)
        inputs = x_hat
    else:
        bc_x = np.asarray(problem.constraint.points, dtype=float)
        bc_t = np.asarray(problem.constraint.targets, dtype=float)
        weight = float(problem.constraint.weight)
        inputs = np.concatenate([x_hat, (bc_x - center) / halfwidth])

    def loss_fn(u_all, du_all):
        u, du = u_all[:n], du_all[:n]
        if hard:
            r = dcons * u + cons * (scale * du) - rhs
            loss = (r @ r) / n
            ru = (2.0 / n) * r
            return loss, ru * dcons, ru * (cons * scale)
        r = scale * du - rhs
        loss = (r @ r) / n
        err = u_all[n:] - bc_t
        loss = loss + weight * (err @ err) / len(bc_t)
        gu = np.concatenate([np.zeros(n), (2.0 * weight / len(bc_t)) * err])
        gd = np.concatenate([(2.0 / n) * r * scale, np.zeros(len(bc_t))])
        return loss, gu, gd

    grid_x = sample_collocation(problem.domain, l2_points)
    grid_exact = np.asarray(problem.exact_solution(grid_x), dtype=float)
    grid_norm = float(np.linalg.norm(grid_exact))
    grid_hat = (grid_x - center) / halfwidth
    grid_cons = (np.asarray(problem.constraint.multiplier(grid_x), dtype=float)
                 if hard else None)

    def current_loss():
        with np.errstate(invalid="ignore", over="ignore"):
            u, du = eval_batch(params, inputs)
            loss, _, _ = loss_fn(u, du)
        return float(loss)

    def current_l2():
        with np.errstate(invalid="ignore", over="ignore"):
            u = eval_values(params, grid_hat)
            pred = grid_cons * u if hard else u
            return float(np.linalg.norm(pred - grid_exact) / grid_norm), pred

    started = time.perf_counter()
    if report.initial_loss is None:
        report.initial_loss = current_loss()
    for s in range(1, int(steps) + 1):
        try:
            _, grad = loss_gradient(params, inputs, loss_fn)
        except NumericalFailureError as err:
            err.step = step_offset + s
            report.wall_time_s += time.perf_counter() - started
            err.report = report
            raise
        optimizer.step(params, grad)
        if s % record_interval == 0 or s == steps:
            loss = current_loss()
            l2, pred = current_l2()
            report.records.append(LossRecord(step_offset + s, s - 1, phase,
                                             loss, loss, 0.0, 0.0, l2))
    report.wall_time_s += time.perf_counter() - started
    # step `steps` always records, at the final parameters
    report.final_loss = LossBreakdown(loss, loss, 0.0)
    report.final_l2 = l2
    report.solution_x = grid_x
    report.solution_pred = pred
    report.solution_exact = grid_exact
    report.phases[phase] = report.phases.get(phase, 0) + int(steps)
    return report


def train_pinn(problem, points, *, layer_sizes, steps, optimizer="adam",
               learning_rate=1e-3, seed=0, record_interval=10, l2_points=None):
    """Single-network baseline on the full domain, normalized to [-1, 1].
    With one subdomain this matches the decomposed trainer step for step."""
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    params = init_params(layer_sizes, seed)
    opt = make_optimizer(optimizer, learning_rate)
    report = RunReport()
    dom = problem.domain
    pts = np.asarray(points, dtype=float)
    _train_single(params, problem, pts, opt, steps,
                  norm=(dom.midpoint, 0.5 * dom.width),
                  record_interval=record_interval, report=report, phase="pinn",
                  l2_points=l2_points if l2_points is not None else 10 * len(pts))
    return report


def train_coarse_then_local(state, coarse_epochs, coarse_points, local_rounds,
                            schedule=None, *, record_interval=10, l2_points=None):
    """Two-phase run: first fit the coarse network alone on its own equispaced
    grid, then freeze it bitwise and train the local networks around it. With
    coarse_epochs=0 the coarse network contributes its untrained
    initialization and the run degenerates to plain decomposed training."""
    if state.coarse_params is None:
        raise ValueError("state was created without a coarse network")
    if not isinstance(coarse_epochs, (int, np.integer)) or coarse_epochs < 0:
        raise ValueError(f"coarse_epochs must be >= 0, got {coarse_epochs!r}")
    report = RunReport()
    if coarse_epochs > 0:
        pts = sample_collocation(state.problem.domain, coarse_points)
        _train_single(state.coarse_params, state.problem, pts,
                      state.coarse_optimizer, coarse_epochs,
                      norm=state.coarse_norm, record_interval=record_interval,
                      report=report, phase="coarse",
                      l2_points=l2_points if l2_points is not None
                      else 10 * len(state.tables.x))
    state.cache = refresh_overlap_cache(state)
    schedule = schedule if schedule is not None else parallel_schedule(state.n_subdomains)
    train(state, schedule, local_rounds, record_interval=record_interval,
          l2_points=l2_points, report=report, phase="local",
          step_offset=int(coarse_epochs))
    return report
