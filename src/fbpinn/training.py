"""Schwarz-style training of window-weighted local networks.

The global ansatz is the window-weighted sum of local network outputs (plus
an optional frozen coarse network), passed through the problem's hard
constraint. Training proceeds in rounds: every active subdomain takes p
optimizer steps against its own parameters while all foreign contributions
at shared points stay frozen in an overlap cache, then the cache is
refreshed once. Inactive subdomains are never touched, so their parameters
are bitwise stable across rounds. The frozen coarse network is level 0:
one workspace with window 1 on the whole domain, a source of every
subdomain's cache like a neighbor, but never active. The plain PINN and
the coarse phase train their one network as a one-subdomain state on
the same step, loss and record code, without rounds or cache refreshes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .decomposition import (Decomposition, Subdomain, WindowParams,
                            _collocation_in_domain, sample_collocation,
                            window_table)
from .networks import (NumericalFailureError, _forward, eval_batch,
                       eval_values, init_params, loss_gradient)
from .optimizers import make_optimizer
from .problems import _exact_on_error_grid
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
    """Frozen background per subdomain: the window-weighted sum of its
    sources' contributions, the level-0 coarse network's at every row when
    one is present and each neighbor's at the rows they share (zero where
    no source holds a row). values[j] is aligned with every row of
    workspace j + 1, dvalues[j] with its member points."""

    values: list
    dvalues: list
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
    solution_coarse: np.ndarray | None = None   # constrained coarse part of solution_pred
    wall_time_s: float = 0.0
    phases: dict = field(default_factory=dict)
    config: dict | None = None


@dataclass
class SubdomainWorkspace:
    """Static per-subdomain tables. The rows are the member collocation
    points, then the soft boundary points the subdomain holds (none under a
    hard constraint). Row id k is collocation point k below the number of
    collocation points and soft boundary point k - that number above it.
    point_ids, x and win are the member slices of the row tables; the
    other arrays without a row_ prefix cover members only."""

    index: int                    # subdomain j; 0 is the coarse network (level 0)
    row_ids: np.ndarray
    row_x: np.ndarray
    input_scale: float            # d(x_hat)/dx
    row_win: np.ndarray
    dwin: np.ndarray
    overlap_mask: np.ndarray
    row_owned: np.ndarray         # this subdomain is the row's lowest-indexed holder
    cons: np.ndarray | None
    dcons: np.ndarray | None
    rhs: np.ndarray               # every row: f at member points, then the soft targets
    dr_du: np.ndarray             # d(residual)/du at each member point
    dr_ddu: np.ndarray            # d(residual)/d(du) at each member point
    inputs: np.ndarray            # x_hat of every row: the rows of every local forward
    # (target j, src rows, dst rows, member src rows, member dst rows)
    outgoing: list = field(default_factory=list)

    def __post_init__(self):
        n = len(self.dwin)
        self.point_ids, self.x, self.win = self.row_ids[:n], self.row_x[:n], self.row_win[:n]


@dataclass
class _ForwardMemo:
    """Forwards shared within one _train() call. local[j] is network j's
    (u, du, tape) on its workspace inputs at its current parameters and is
    dropped when network j's optimizer steps. local[0] is the frozen
    coarse network's (u, du, None) on the level-0 rows: it never steps, so
    its tape is not kept."""

    local: dict = field(default_factory=dict)


@dataclass
class _GlobalTables:
    x: np.ndarray
    interior_mask: np.ndarray
    overlap_mask: np.ndarray
    n_bc: int                     # soft boundary points; 0 under a hard constraint
    bc_weight: float


@dataclass
class FbpinnState:
    problem: object
    decomposition: object
    params: list
    coarse_params: object | None
    optimizers: list
    coarse_optimizer: object | None
    communication_interval: int
    round: int
    step: int
    workspaces: list
    tables: _GlobalTables
    cache: OverlapCache | None
    coarse_workspace: SubdomainWorkspace | None = None   # level 0

    @property
    def n_subdomains(self):
        return len(self.params)

    @property
    def coarse_norm(self):
        """(center, halfwidth) mapping the domain onto the coarse inputs."""
        return self.problem.domain.midpoint, 0.5 * self.problem.domain.width


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
    workspaces, tables = _workspaces(problem, decomposition, points)
    n_sub = decomposition.n_subdomains
    params = [init_params(layer_sizes, master_seed + j) for j in range(1, n_sub + 1)]
    optimizers = [make_optimizer(optimizer, learning_rate) for _ in range(n_sub)]
    coarse_params = coarse_optimizer = coarse_workspace = None
    if coarse_layer_sizes is not None:
        coarse_params = init_params(coarse_layer_sizes, master_seed)
        coarse_optimizer = make_optimizer(optimizer, learning_rate)
        coarse_workspace = _level0(problem, workspaces, tables)

    state = FbpinnState(
        problem=problem, decomposition=decomposition,
        params=params, coarse_params=coarse_params,
        optimizers=optimizers, coarse_optimizer=coarse_optimizer,
        communication_interval=int(communication_interval), round=0, step=0,
        workspaces=workspaces, tables=tables, cache=None,
        coarse_workspace=coarse_workspace,
    )
    state.cache = refresh_overlap_cache(state)
    return state


def _workspaces(problem, decomposition, points):
    """Build every subdomain's workspace and the global tables from one
    window_table pass over the collocation points: (workspaces, tables).
    A point held by more than one subdomain is an overlap point."""
    pts = _collocation_in_domain(decomposition.domain, points)
    n_points = len(pts)
    n_sub = decomposition.n_subdomains
    hard = problem.constraint.kind == "hard"

    # per subdomain (row ids, row windows, member window derivatives)
    rows = window_table(decomposition, pts)
    empty = [j for j, (ids, _, _) in enumerate(rows, start=1) if not len(ids)]
    if empty:
        raise ValueError(f"subdomains {empty} hold no collocation point")
    holders = np.bincount(np.concatenate([ids for ids, _, _ in rows]),
                          minlength=n_points)
    interior_mask, overlap_mask = holders == 1, holders > 1
    if hard:
        cons_all = np.asarray(problem.constraint.multiplier(pts), dtype=float)
        dcons_all = np.asarray(problem.constraint.multiplier_prime(pts), dtype=float)
        bc_x = np.zeros(0)
        bc_weight = 0.0
    else:
        bc_x = np.asarray(problem.constraint.points, dtype=float)
        bc_targets = np.asarray(problem.constraint.targets, dtype=float)
        bc_weight = float(problem.constraint.weight)
        for xb in bc_x:
            if not problem.domain.contains(xb):
                raise ValueError(f"soft boundary point {xb!r} outside the domain")
        rows = [(np.concatenate([ids, n_points + bids]), np.concatenate([win, bwin]), dwin)
                for (ids, win, dwin), (bids, bwin, _) in
                zip(rows, window_table(decomposition, bc_x))]
    row_x_all = np.concatenate([pts, bc_x])
    owner = np.zeros(len(row_x_all), dtype=int)
    for j in range(n_sub, 0, -1):
        owner[rows[j - 1][0]] = j

    workspaces = []
    for j, (row_ids, row_win, dwin) in enumerate(rows, start=1):
        sd = decomposition.subdomains[j - 1]
        n_own = len(dwin)
        ids = row_ids[:n_own]
        row_x = row_x_all[row_ids]
        x = row_x[:n_own]
        win = row_win[:n_own]
        x_hat, scale = _norm_inputs(sd.left, sd.right, row_x)
        cons = cons_all[ids] if hard else None
        dcons = dcons_all[ids] if hard else None
        rhs = np.asarray(problem.rhs(x), dtype=float)
        if not hard:
            rhs = np.concatenate([rhs, bc_targets[row_ids[n_own:] - n_points]])
        workspaces.append(SubdomainWorkspace(
            index=j, row_ids=row_ids, row_x=row_x, input_scale=scale,
            row_win=row_win, dwin=dwin, overlap_mask=overlap_mask[ids],
            row_owned=owner[row_ids] == j, cons=cons, dcons=dcons, rhs=rhs,
            dr_du=dcons * win + cons * dwin if hard else dwin,
            dr_ddu=cons * (win * scale) if hard else win * scale,
            inputs=x_hat,
        ))

    # Neighbor routes over all rows; member rows sort first, as row ids do.
    for ws in workspaces:
        sd = decomposition.subdomains[ws.index - 1]
        for l in sorted(sd.neighbor_indices):
            other = workspaces[l - 1]
            common, src, dst = np.intersect1d(ws.row_ids, other.row_ids,
                                              assume_unique=True, return_indices=True)
            m = common.searchsorted(n_points)
            ws.outgoing.append((l, src, dst, src[:m], dst[:m]))
    return workspaces, _GlobalTables(pts, interior_mask, overlap_mask, len(bc_x), bc_weight)


def _level0(problem, workspaces, tables):
    """The coarse network's workspace, index 0: a _lone_state's on the
    collocation points, whose rows are every collocation point and then
    every soft boundary point, so row k is row id k. It routes every row
    of each subdomain's workspace to that workspace's cache."""
    ws = _lone_state(problem, tables.x, None, None).workspaces[0]
    return replace(ws, index=0, outgoing=[
        (w.index, w.row_ids, slice(None), w.point_ids, slice(None)) for w in workspaces])


def _local_values(params, ws, memo=None):
    """Network ws.index's value and input derivative at every row of ws:
    one tangent forward of params on ws.inputs, taken from the memo while
    the parameters are unchanged."""
    forward = memo.local.get(ws.index) if memo is not None else None
    if forward is None:
        forward = _forward(params, ws.inputs)
        if memo is not None:
            memo.local[ws.index] = forward if ws.index else (*forward[:2], None)
    return forward[0], forward[1]


def refresh_overlap_cache(state, memo=None):
    """Recompute every subdomain's frozen background from current parameters:
    one pass over the sources, the level-0 coarse network first when one is
    present and then the subdomains in ascending order, each adding its
    window-weighted contribution at the rows it routes to a target."""
    values = [np.zeros(len(ws.row_x)) for ws in state.workspaces]
    dvalues = [np.zeros(len(ws.x)) for ws in state.workspaces]
    sources = list(zip(state.params, state.workspaces))
    if state.coarse_params is not None:
        sources.insert(0, (state.coarse_params, state.coarse_workspace))
    with np.errstate(invalid="ignore", over="ignore"):
        for params, ws in sources:
            if not ws.outgoing:
                continue
            u, du = _local_values(params, ws, memo)
            contrib = ws.row_win * u
            dcontrib = _local_dvalue(ws, u, du)
            for target, src, dst, member_src, member_dst in ws.outgoing:
                values[target - 1][dst] += contrib[src]
                dvalues[target - 1][member_dst] += dcontrib[member_src]
    return OverlapCache(values, dvalues, state.round)


def _local_dvalue(ws, u, du):
    """d/dx of network ws.index's window-weighted output at ws's member
    points, from its (u, du) at every row."""
    n_own = len(ws.x)
    return ws.dwin * u[:n_own] + ws.win * (ws.input_scale * du[:n_own])


def _residual(ws, u, du, bg, dbg):
    """Constrained residual at every row of ws from network ws.index's
    (u, du) there plus the frozen background (bg at every row, dbg at the
    member points): c'v + cv' - f under a hard constraint; v' - f at the
    member points and v - target at the boundary rows under a soft one."""
    dvalue = _local_dvalue(ws, u, du) + dbg
    if ws.cons is not None:
        return ws.dcons * (ws.win * u + bg) + ws.cons * dvalue - ws.rhs
    n_own = len(ws.x)
    return np.concatenate([dvalue, ws.row_win[n_own:] * u[n_own:] + bg[n_own:]]) - ws.rhs


def _penalty(tables, err):
    """Soft boundary penalty of the errors err at boundary rows."""
    return tables.bc_weight * (err @ err) / tables.n_bc


def _loss_split(state, cache, memo=None):
    """Loss split with every row's residual taken from its lowest-indexed
    holder's live network against `cache`: the ODE residual at collocation
    points, plus the soft boundary penalty. Returns the split and the
    residual at every collocation point."""
    t = state.tables
    n = len(t.x)
    by_row = np.zeros(n + t.n_bc)
    with np.errstate(invalid="ignore", over="ignore"):
        for ws in state.workspaces:
            j = ws.index - 1
            u, du = _local_values(state.params[j], ws, memo)
            res = _residual(ws, u, du, cache.values[j], cache.dvalues[j])
            by_row[ws.row_ids[ws.row_owned]] = res[ws.row_owned]
        r, err = by_row[:n], by_row[n:]
        boundary = float(_penalty(t, err)) if t.n_bc else 0.0
        squared = r * r
        per_sub = tuple(float(np.sum(squared[ws.point_ids[~ws.overlap_mask]]) / n)
                        for ws in state.workspaces)
        split = LossBreakdown(float(np.sum(squared) / n) + boundary,
                              float(np.sum(squared[t.interior_mask]) / n),
                              float(np.sum(squared[t.overlap_mask]) / n),
                              boundary, per_sub)
    return split, r


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
    bc_win = ws.row_win[n_own:]

    def loss_fn(u_all, du_all):
        r = _residual(ws, u_all, du_all, bg, dbg)
        rm = r[:n_own]
        loss = (rm @ rm) / n
        ru = (2.0 / n) * rm
        gu = ru * ws.dr_du
        gd = ru * ws.dr_ddu
        if len(bc_win):
            err = r[n_own:]
            loss = loss + _penalty(t, err)
            gu = np.concatenate([gu, (2.0 * t.bc_weight / t.n_bc) * err * bc_win])
            gd = np.concatenate([gd, np.zeros(len(err))])
        return loss, gu, gd

    return ws.inputs, loss_fn


def local_loss(state, j, cache=None):
    """Subdomain j's training loss: squared residuals over its member points,
    scaled by the global point count, plus the penalty of its soft boundary
    rows, with foreign contributions taken from the cache."""
    inputs, loss_fn = _make_local_loss_fn(state, j, cache if cache is not None else state.cache)
    with np.errstate(invalid="ignore", over="ignore"):
        return float(loss_fn(*eval_batch(state.params[j - 1], inputs))[0])


def _step(state, order, memo):
    """One optimizer step of each network in order against state.cache."""
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


def _train_round(state, active, on_step, memo=None):
    for j in active.active:
        if not 1 <= j <= state.n_subdomains:
            raise ValueError(f"active subdomain {j} out of range")
    order = sorted(active.active)
    for _ in range(state.communication_interval):
        _step(state, order, memo)
        on_step()
    state.round += 1
    state.cache = refresh_overlap_cache(state, memo)
    return state


def train_round(state, active):
    """One round: p optimizer steps for each active subdomain against the
    frozen cache, then a single cache refresh."""
    return _train_round(state, active, lambda: None)


@dataclass
class _EvalGrid:
    """A point set's per-subdomain tables for value-only evaluation."""

    x: np.ndarray
    cons: np.ndarray | None
    entries: list          # per subdomain (idx, win, x_hat)
    coarse_value: np.ndarray | None   # the coarse network is frozen in _train()


def _make_eval_grid(state, x):
    hard = state.problem.constraint.kind == "hard"
    entries = []
    for ws, (idx, win, _) in zip(state.workspaces,
                                 window_table(state.decomposition, x)):
        sd = state.decomposition.subdomains[ws.index - 1]
        x_hat, _ = _norm_inputs(sd.left, sd.right, x[idx])
        entries.append((idx, win, x_hat))
    coarse_value = None
    if state.coarse_params is not None:
        center, halfwidth = state.coarse_norm
        with np.errstate(invalid="ignore", over="ignore"):
            coarse_value = eval_values(state.coarse_params, (x - center) / halfwidth)
    return _EvalGrid(
        x=x,
        cons=np.asarray(state.problem.constraint.multiplier(x), dtype=float) if hard else None,
        entries=entries, coarse_value=coarse_value)


def _constrained(grid, value):
    return grid.cons * value if grid.cons is not None else value


def _grid_solution(state, grid):
    value = np.zeros(len(grid.x))
    if grid.coarse_value is not None:
        value += grid.coarse_value
    for params, (idx, win, x_hat) in zip(state.params, grid.entries):
        value[idx] += win * eval_values(params, x_hat)
    return _constrained(grid, value)


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
    partial report is attached to the raised error; a final loss or L2
    that is not finite fails at the final step.

    The initial and final losses are the loss split against state.cache,
    which must be fresh when train is called: create_state,
    train_coarse_then_local and every round leave it so. They then equal
    global_loss(state) at the same two points."""
    if not isinstance(rounds, (int, np.integer)) or rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds!r}")
    if schedule.n_subdomains != state.n_subdomains:
        raise ValueError("schedule and state disagree on the number of subdomains")
    return _train(state, schedule, int(rounds) * state.communication_interval,
                  record_interval=record_interval, l2_points=l2_points,
                  report=report, phase=phase, step_offset=step_offset)


def _train(state, schedule, steps, *, record_interval=10, l2_points=None,
           report=None, phase="fbpinn", step_offset=0):
    """`steps` optimizer steps, recorded and reported as train describes:
    whole rounds of schedule, or with schedule None steps of a _lone_state's
    network, which has no rounds and no cache to refresh; its records' round
    is then the number of steps taken before, and its final loss and L2
    are returned unchecked (a blown-up coarse phase fails at the local
    phase's first step). A failure's step is numbered as the records are,
    from step_offset."""
    for name, value in (("steps", steps), ("record_interval", record_interval)):
        if not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")
    report = report if report is not None else RunReport()
    grid = _make_eval_grid(state, sample_collocation(
        state.problem.domain,
        l2_points if l2_points is not None else 10 * len(state.tables.x)))
    exact = _exact_on_error_grid(state.problem, grid.x)
    started = time.perf_counter()
    # Each network's tangent forward is computed at most once per parameter
    # version and shared by the loss splits, the cache refresh and the next
    # step's gradient.
    memo = _ForwardMemo()
    if report.initial_loss is None:
        report.initial_loss = _checked_loss(state, state.cache, memo).total
    final_step = state.step + steps
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
        if schedule is None:
            for _ in range(steps):
                _step(state, (1,), memo)
                on_step()
                state.round += 1
        else:
            for _ in range(steps // state.communication_interval):
                _train_round(state, schedule_active_set(schedule, state.round),
                             on_step, memo)
        final_loss = _checked_loss(state, state.cache, memo)
        if schedule is not None and not np.isfinite([final_loss.total, final["l2"]]).all():
            raise NumericalFailureError(
                f"non-finite final loss {final_loss.total!r} or relative L2 "
                f"error {final['l2']!r}")
    except NumericalFailureError as err:
        report.wall_time_s += time.perf_counter() - started
        err.step = (err.step if err.step is not None else state.step) + step_offset
        err.report = report
        raise
    report.wall_time_s += time.perf_counter() - started
    report.final_loss = final_loss
    report.final_l2, report.solution_pred = final["l2"], final["pred"]
    report.solution_x, report.solution_exact = grid.x, exact
    if grid.coarse_value is not None:
        report.solution_coarse = _constrained(grid, grid.coarse_value)
    report.phases[phase] = report.phases.get(phase, 0) + steps
    return report


def _lone_state(problem, points, params, optimizer):
    """One network on the whole domain as a one-subdomain state: its window
    is 1 and it has no neighbor and no coarse term, so its cache is zero
    and is never refreshed. The subdomain's bounds are the domain's own, so
    its inputs are normalized exactly as coarse_norm normalizes them."""
    dom = problem.domain
    decomposition = Decomposition(
        dom, (Subdomain(1, dom.a, dom.b, frozenset()),),
        (WindowParams(None, None),), None)
    workspaces, tables = _workspaces(problem, decomposition, points)
    ws = workspaces[0]
    return FbpinnState(
        problem=problem, decomposition=decomposition, params=[params],
        coarse_params=None, optimizers=[optimizer], coarse_optimizer=None,
        communication_interval=1, round=0, step=0,
        workspaces=workspaces, tables=tables,
        cache=OverlapCache([np.zeros(len(ws.row_x))], [np.zeros(len(ws.x))], 0))


def train_pinn(problem, points, *, layer_sizes, steps, optimizer="adam",
               learning_rate=1e-3, seed=0, record_interval=10, l2_points=None):
    """Single-network baseline on the full domain, normalized to [-1, 1]:
    a one-subdomain state with window 1, trained and recorded by the same
    step, loss and record code as train. The points must lie in the
    problem's domain."""
    state = _lone_state(problem, points, init_params(layer_sizes, seed),
                        make_optimizer(optimizer, learning_rate))
    return _train(state, None, steps, record_interval=record_interval,
                  l2_points=l2_points, phase="pinn")


def train_coarse_then_local(state, coarse_epochs, coarse_points, local_rounds,
                            schedule=None, *, record_interval=10, l2_points=None):
    """Two-phase run: first fit the coarse network alone on its own equispaced
    grid, then freeze it bitwise and train the local networks around it. With
    coarse_epochs=0 the coarse network contributes its untrained
    initialization and the run degenerates to plain decomposed training.
    A numerical failure in the first phase names the coarse network as its
    subdomain."""
    if state.coarse_params is None:
        raise ValueError("state was created without a coarse network")
    if not isinstance(coarse_epochs, (int, np.integer)) or coarse_epochs < 0:
        raise ValueError(f"coarse_epochs must be >= 0, got {coarse_epochs!r}")
    report = RunReport()
    if coarse_epochs > 0:
        lone = _lone_state(state.problem,
                           sample_collocation(state.problem.domain, coarse_points),
                           state.coarse_params, state.coarse_optimizer)
        try:
            _train(lone, None, int(coarse_epochs), record_interval=record_interval,
                   l2_points=l2_points if l2_points is not None
                   else 10 * len(state.tables.x),
                   report=report, phase="coarse")
        except NumericalFailureError as err:
            err.subdomain = "coarse"
            raise
    state.cache = refresh_overlap_cache(state)
    schedule = schedule if schedule is not None else parallel_schedule(state.n_subdomains)
    train(state, schedule, local_rounds, record_interval=record_interval,
          l2_points=l2_points, report=report, phase="local",
          step_offset=int(coarse_epochs))
    return report
