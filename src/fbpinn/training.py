"""Schwarz-style training of window-weighted local networks.

The global ansatz is the window-weighted sum of local network outputs (plus
an optional frozen coarse network), passed through the problem's hard
constraint. Training proceeds in rounds: every active subdomain takes p
optimizer steps against its own parameters while all foreign contributions
at shared points stay frozen in an overlap cache, then the cache is
refreshed once. Inactive subdomains are never touched, so their parameters
are bitwise stable across rounds. The frozen coarse network is level 0,
network 0 of the row table: window 1 on the whole domain, a source of every
subdomain's cache like a neighbor, but never active. The plain PINN and the coarse
phase train their one network as a one-subdomain state on the same step,
loss and record code, without rounds or cache refreshes.

Every network's rows sit in one row table, so the per-row work of all
active networks (residual, loss derivatives, cache contributions, loss
split) is one pass of whole-array operations. Only the forward and
backward passes, each network's loss and its optimizer step run per
network, on that network's contiguous slice of the pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .decomposition import (Decomposition, _collocation_in_domain, index_list,
                            sample_collocation, window_table)
from .networks import (NumericalFailureError, ParamGradient, _forward,
                       eval_values, init_params, loss_gradient, work_size)
from .optimizers import make_optimizer
from .problems import _exact_on_error_grid
from .scheduling import _check_group, parallel_schedule, active_set as schedule_active_set


@dataclass
class LossBreakdown:
    """Collocation loss split by point class. total = interior + overlap
    (+ boundary when a soft constraint is active)."""

    total: float
    interior: float
    overlap: float
    boundary: float = 0.0


@dataclass
class OverlapCache:
    """Frozen background of every row of the row table: the window-weighted
    sum of its sources' contributions, the level-0 coarse network's at every
    level-1 row when one is present and each neighbor's at the rows they
    share (zero where no source holds a row, as at every level-0 row).
    values covers every row, dvalues the collocation rows (zero at the soft
    boundary rows)."""

    values: np.ndarray
    dvalues: np.ndarray


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
class _RowTable:
    """Every network's rows, one network after another: network j's rows
    are bounds[j]:bounds[j+1], its member collocation points up to
    member_ends[j], then the soft boundary points it holds (none under a
    hard constraint). Network 0, the coarse network, holds every point
    with window 1 (an empty block without one); 1..J are the subdomains.
    Row id k is collocation point k below the number of collocation points
    and soft boundary point k - that number above it. Each network's
    forward, residual, loss derivatives and cache contributions are rows
    of these arrays, so all active networks' elementwise work is one pass
    over their rows."""

    bounds: np.ndarray
    member_ends: np.ndarray
    row_ids: np.ndarray
    x: np.ndarray
    inputs: np.ndarray            # x_hat: the rows of every local forward
    scale: np.ndarray             # d(x_hat)/dx
    win: np.ndarray
    dwin: np.ndarray              # 0 at boundary rows
    member: np.ndarray            # a collocation row, not a soft boundary row
    owned: np.ndarray             # the row's network is its lowest-indexed level-1 holder
    rhs: np.ndarray               # f at collocation rows, the soft targets at boundary rows
    # A soft constraint's (c, c') is (1, 0) at the collocation rows and
    # (0, 1) at its boundary rows, so c'v + cv' - f is v' - f there and
    # v - target here.
    cons: np.ndarray
    dcons: np.ndarray
    dr_du: np.ndarray             # d(residual)/du
    dr_ddu: np.ndarray            # d(residual)/d(du)
    gain: np.ndarray              # d(loss)/dr = gain r: 2/n, 2 weight/n_bc at boundary rows
    # Source routes as (src rows, dst rows) layers, added in order: a
    # level-1 row's k-th source in ascending network order is in layer k,
    # so no dst repeats within a layer. member_routes are the collocation
    # rows'.
    routes: list
    member_routes: list


@dataclass
class _ForwardMemo:
    """What one _train() call, or one public call that trains or evaluates,
    computes once and shares. u and du hold each row's network value and
    input derivative, those of network j's rows being its current ones
    while tapes holds j. grads, in a memo whose caller steps networks,
    holds rows of one (J, parameters) matrix, grads[j - 1] receiving
    network j's gradient at each of its steps; such a memo keeps the tape
    of network j's forward in tapes[j] until that network steps. Any other
    memo, and network 0, which never steps, keep None there: nothing
    would read the tape, and J tapes held at once would grow the heap. A
    memo of a state without a coarse network starts with tapes[0]: its
    block is empty. active[order] holds _active_rows for the networks in
    order."""

    u: np.ndarray
    du: np.ndarray
    grads: list | None = None
    tapes: dict = field(default_factory=dict)
    active: dict = field(default_factory=dict)


def _memo(state):
    """A memo that only evaluates: no gradient rows, so no tapes."""
    n_rows = len(state.rows.x)
    return _ForwardMemo(np.empty(n_rows), np.empty(n_rows),
                        tapes={} if state.coarse_params is not None else {0: None})


def _stepping_memo(state):
    """A memo for a caller that steps networks: gradient rows, and tapes."""
    memo = _memo(state)
    memo.grads = ParamGradient.rows_like(state.params[0], state.n_subdomains)
    return memo


@dataclass
class _GlobalTables:
    x: np.ndarray
    interior_mask: np.ndarray     # held by one subdomain; the rest are overlap points


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
    rows: _RowTable
    tables: _GlobalTables
    cache: OverlapCache | None

    @property
    def n_subdomains(self):
        return len(self.params)

    @property
    def coarse_norm(self):
        """(center, halfwidth) mapping the domain onto the coarse inputs."""
        return self.problem.domain.midpoint, 0.5 * self.problem.domain.width


def _norm_inputs(lefts, rights, bounds, x):
    """Network inputs x_hat and d(x_hat)/dx at rows x, rows
    bounds[k]:bounds[k + 1] in interval [lefts[k], rights[k]]: each
    interval mapped onto [-1, 1], over all rows at once."""
    counts = np.diff(bounds)
    halfwidth = np.repeat(0.5 * (rights - lefts), counts)
    inputs = x - np.repeat(0.5 * (lefts + rights), counts)
    inputs /= halfwidth
    return inputs, 1.0 / halfwidth


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
    rows, tables = _row_tables(problem, decomposition, points,
                               coarse=coarse_layer_sizes is not None)
    n_sub = decomposition.n_subdomains
    params = [init_params(layer_sizes, master_seed + j) for j in range(1, n_sub + 1)]
    optimizers = [make_optimizer(optimizer, learning_rate) for _ in range(n_sub)]
    coarse_params = coarse_optimizer = None
    if coarse_layer_sizes is not None:
        coarse_params = init_params(coarse_layer_sizes, master_seed)
        coarse_optimizer = make_optimizer(optimizer, learning_rate)

    state = FbpinnState(
        problem=problem, decomposition=decomposition,
        params=params, coarse_params=coarse_params,
        optimizers=optimizers, coarse_optimizer=coarse_optimizer,
        communication_interval=int(communication_interval), round=0, step=0,
        rows=rows, tables=tables, cache=None,
    )
    state.cache = refresh_overlap_cache(state)
    return state


def _row_tables(problem, decomposition, points, coarse=False):
    """(rows, tables): the row table and the global tables, from one
    window_table pass over the collocation points, then the soft boundary
    points (none under a hard constraint), behind network 0's block of
    every point when coarse. A point held by more than one subdomain is an
    overlap point."""
    pts = _collocation_in_domain(decomposition.domain, points)
    n_points = len(pts)
    constraint = problem.constraint
    bc_x = np.asarray(constraint.points, dtype=float)
    for xb in bc_x:
        if not problem.domain.contains(xb):
            raise ValueError(f"soft boundary point {xb!r} outside the domain")

    # Row id k is point k of all_x, so each network's rows, in ascending
    # row id, are its member collocation points, then its boundary points;
    # network 0's row k, when coarse, has row id k.
    all_x = np.concatenate([pts, bc_x])
    table = window_table(decomposition, all_x)
    n0 = len(all_x) if coarse else 0
    bounds = np.concatenate([[0], n0 + table.bounds])
    row_ids = np.concatenate([np.arange(n0), table.ids])
    win = np.concatenate([np.ones(n0), table.win])
    dwin = np.concatenate([np.zeros(n0), table.dwin])
    member = row_ids < n_points
    # each network's member rows come first
    member_ends = bounds[:-1] + np.diff(np.concatenate([[0], np.cumsum(member)])[bounds])
    empty = [int(j) for j in np.nonzero(member_ends[1:] == bounds[1:-1])[0] + 1]
    if empty:
        raise ValueError(f"subdomains {index_list(empty)} hold no collocation point")
    interior_mask = np.bincount(table.ids, minlength=len(all_x))[:n_points] == 1
    x = all_x[row_ids]
    dwin[~member] = 0.0
    dom = problem.domain
    inputs, scale = _norm_inputs(np.append(dom.a, decomposition.lefts),
                                 np.append(dom.b, decomposition.rights), bounds, x)
    with np.errstate(invalid="ignore", over="ignore"):
        rhs = np.concatenate([np.asarray(problem.rhs(pts), dtype=float),
                              np.asarray(constraint.targets, dtype=float)])[row_ids]
    cons = np.concatenate([constraint.multiplier(pts), np.zeros(len(bc_x))])[row_ids]
    dcons = np.concatenate([constraint.multiplier_prime(pts), np.ones(len(bc_x))])[row_ids]
    dr_du, dr_ddu = dcons * win + cons * dwin, cons * (win * scale)
    gain = np.where(member, 2.0 / n_points, 2.0 * constraint.weight / max(len(bc_x), 1))

    # One stable sort of the level-1 rows by row id puts each point's
    # holders together, in ascending subdomain order. Layer 0 routes network
    # 0 to every level-1 row; a row's k-th other holder is its next layer's
    # source. So no row is a destination twice within a layer, and each
    # layer lists its collocation rows first.
    by_id = n0 + np.argsort(row_ids[n0:], kind="stable")
    sorted_ids = row_ids[by_id]
    first = np.searchsorted(sorted_ids, sorted_ids, "left")
    n_holders = np.searchsorted(sorted_ids, sorted_ids, "right") - first
    rank = np.arange(len(by_id)) - first
    owned = np.zeros(len(x), dtype=bool)
    owned[by_id[rank == 0]] = True
    routes = [(sorted_ids, by_id)] if coarse else []
    for k in range(n_holders.max(initial=1) - 1):
        has = n_holders > k + 1
        routes.append((by_id[(first + k + (rank <= k))[has]], by_id[has]))
    member_routes = [(src[:m], dst[:m]) for src, dst in routes
                     for m in [np.count_nonzero(member[dst])]]

    t = _RowTable(
        bounds=bounds, member_ends=member_ends, row_ids=row_ids, x=x, inputs=inputs,
        scale=scale, win=win, dwin=dwin, member=member, owned=owned, rhs=rhs, cons=cons,
        dcons=dcons, dr_du=dr_du, dr_ddu=dr_ddu, gain=gain, routes=routes,
        member_routes=member_routes)
    return t, _GlobalTables(pts, interior_mask)


def _forwards(state, order, memo):
    """Bring the memo's rows of every network in order up to date, under the
    caller's np.errstate: one tangent forward of each network whose
    parameters moved since its last."""
    for j in order:
        if j not in memo.tapes:
            rows = slice(*state.rows.bounds[j:j + 2])
            memo.u[rows], memo.du[rows], tape = _forward(
                state.params[j - 1] if j else state.coarse_params, state.rows.inputs[rows])
            memo.tapes[j] = tape if j and memo.grads is not None else None
            del tape        # a tape nothing keeps is freed before the next forward


def _dvalue(t, rows, u, du):
    """d/dx of each row's window-weighted network output at rows of t,
    dwin u + win (scale du), from the network's (u, du) there."""
    dvalue = t.scale[rows] * du
    dvalue *= t.win[rows]
    dvalue += t.dwin[rows] * u
    return dvalue


def refresh_overlap_cache(state, memo=None):
    """Recompute every subdomain's frozen background from current parameters:
    zeros, then one contribution pass over every network's rows and each
    route layer's scatter, so each row sums its sources in ascending order,
    level 0 first."""
    t = state.rows
    memo = memo if memo is not None else _memo(state)
    values, dvalues = np.zeros(len(t.x)), np.zeros(len(t.x))
    with np.errstate(invalid="ignore", over="ignore"):
        _forwards(state, range(state.n_subdomains + 1), memo)
        contrib = t.win * memo.u
        for src, dst in t.routes:
            values[dst] += contrib[src]
        contrib = _dvalue(t, slice(None), memo.u, memo.du)
        for src, dst in t.member_routes:
            dvalues[dst] += contrib[src]
    return OverlapCache(values, dvalues)


def _residual(t, rows, u, du, cache):
    """Constrained residual c'v + cv' - f at rows of the row table t (a
    slice or an index) from each row's network (u, du) there plus the
    frozen background in cache."""
    value = t.win[rows] * u
    value += cache.values[rows]
    dvalue = _dvalue(t, rows, u, du)
    dvalue += cache.dvalues[rows]
    value *= t.dcons[rows]
    dvalue *= t.cons[rows]
    value += dvalue
    value -= t.rhs[rows]
    return value


def _penalty(constraint, err):
    """Soft boundary penalty of the errors err at boundary rows (0 when
    there are none)."""
    return constraint.weight * err.dot(err) / max(len(constraint.points), 1)


def _active_rows(state, order, memo=None):
    """The rows of the networks in order, one network after another: a slice
    of the row table when they are consecutive, as parallel and alternating
    sets are, else an index, kept in the memo for the rest of the _train()
    call; and each network's (start, end of members, end) within them."""
    found = memo.active.get(order) if memo is not None else None
    if found is None:
        t, k = state.rows, np.asarray(order)
        lo, mid, hi = t.bounds[k], t.member_ends[k], t.bounds[k + 1]
        if (lo[1:] == hi[:-1]).all():
            rows = slice(int(lo[0]), int(hi[-1]))
        else:
            rows = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
        ends = np.concatenate([[0], np.cumsum(hi - lo)])
        found = rows, list(zip(ends[:-1].tolist(), (ends[:-1] + mid - lo).tolist(),
                               ends[1:].tolist()))
        if memo is not None:
            memo.active[order] = found
    return found


def _loss_terms(state, rows, spans, cache, u, du):
    """Each network's (loss, dloss/du, dloss/d(du)) against cache, given
    _active_rows' rows and spans and the networks' (u, du) at those rows:
    one residual and loss-derivative pass over all the rows, then each
    network's slice. A network's loss is its squared member residuals,
    scaled by the global point count, plus the penalty of its soft
    boundary rows. Callers run it under np.errstate, as _forwards."""
    t, constraint = state.rows, state.problem.constraint
    n = len(state.tables.x)
    r = _residual(t, rows, u, du, cache)
    losses = []
    for lo, mid, hi in spans:
        rm = r[lo:mid]
        # ndarray.dot: the same BLAS dot as @, with less call overhead
        losses.append(rm.dot(rm) / n + _penalty(constraint, r[mid:hi]))
    gu = np.multiply(r, t.gain[rows], out=r)    # the residual's last use
    gd = gu * t.dr_ddu[rows]
    gu *= t.dr_du[rows]
    return [(loss, gu[lo:hi], gd[lo:hi]) for loss, (lo, _, hi) in zip(losses, spans)]


def _loss_split(state, cache, memo=None):
    """Loss split with every row's residual taken from its lowest-indexed
    level-1 holder's live network against `cache`: the ODE residual at
    collocation points, plus the soft boundary penalty. Returns the split
    and the residual at every collocation point."""
    t, constraint = state.tables, state.problem.constraint
    n = len(t.x)
    memo = memo if memo is not None else _memo(state)
    rows, level1 = state.rows, slice(state.rows.bounds[1], None)
    with np.errstate(invalid="ignore", over="ignore"):
        _forwards(state, range(1, state.n_subdomains + 1), memo)
        res = _residual(rows, level1, memo.u[level1], memo.du[level1], cache)
        by_row = np.zeros(n + len(constraint.points))
        owned = rows.owned[level1]
        by_row[rows.row_ids[level1][owned]] = res[owned]
        r, err = by_row[:n], by_row[n:]
        boundary = float(_penalty(constraint, err))
        squared = r * r
        split = LossBreakdown(float(np.sum(squared) / n) + boundary,
                              float(np.sum(squared[t.interior_mask]) / n),
                              float(np.sum(squared[~t.interior_mask]) / n),
                              boundary)
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
    memo = _memo(state)
    return _checked_loss(state, refresh_overlap_cache(state, memo), memo)


def local_loss(state, j):
    """Subdomain j's training loss: squared residuals over its member points,
    scaled by the global point count, plus the penalty of its soft boundary
    rows, with foreign contributions taken from state.cache."""
    _check_group([j], state.n_subdomains, "subdomain")
    memo = _memo(state)
    rows, spans = _active_rows(state, (j,), memo)
    with np.errstate(invalid="ignore", over="ignore"):
        _forwards(state, (j,), memo)
        (loss, _, _), = _loss_terms(state, rows, spans, state.cache,
                                    memo.u[rows], memo.du[rows])
    return float(loss)


def _step(state, order, memo):
    """One optimizer step of each network in order against state.cache: one
    loss-term pass over all their rows, then each network's gradient from
    its slice and its optimizer step, all under one np.errstate."""
    state.step += 1
    with np.errstate(invalid="ignore", over="ignore"):
        _forwards(state, order, memo)
        rows, spans = _active_rows(state, order, memo)
        terms = _loss_terms(state, rows, spans, state.cache, memo.u[rows], memo.du[rows])
        for j, term in zip(order, terms):
            own = slice(*state.rows.bounds[j:j + 2])
            forward = memo.u[own], memo.du[own], memo.tapes.pop(j)
            try:
                _, grad = loss_gradient(state.params[j - 1], state.rows.inputs[own],
                                        lambda u, du, term=term: term, forward,
                                        memo.grads[j - 1])
            except NumericalFailureError as err:
                err.subdomain = j
                err.step = state.step
                raise
            state.optimizers[j - 1].step(state.params[j - 1], grad)


def _train_round(state, active, on_step, memo):
    order = tuple(sorted(_check_group(active.active, state.n_subdomains, "active set")))
    for _ in range(state.communication_interval):
        _step(state, order, memo)
        on_step()
    state.round += 1
    state.cache = refresh_overlap_cache(state, memo)
    return state


def train_round(state, active):
    """One round: p optimizer steps for each active subdomain against the
    frozen cache, then a single cache refresh."""
    return _train_round(state, active, lambda: None, _stepping_memo(state))


@dataclass
class _EvalGrid:
    """A point set's per-subdomain tables for value-only evaluation."""

    x: np.ndarray
    cons: np.ndarray             # the constraint's multiplier: 1 under a soft one
    entries: list                # per subdomain (rows of x, win, x_hat)
    coarse_value: np.ndarray | float   # 0.0 without a coarse network, frozen in _train()


def _grid_shares(decomposition, x):
    """Each subdomain's (rows of x, win, x_hat) for value-only evaluation.
    Its rows are a slice when its points are consecutive, as they are on a
    sorted grid, else an index. The window table's other arrays are freed
    on return, before the grid's first evaluation."""
    table = window_table(decomposition, x)
    inputs, _ = _norm_inputs(decomposition.lefts, decomposition.rights, table.bounds, x[table.ids])
    shares = []
    for (ids, win, _), lo, hi in zip(table, table.bounds, table.bounds[1:]):
        consecutive = len(ids) and ids[-1] - ids[0] == len(ids) - 1
        shares.append((slice(ids[0], ids[-1] + 1) if consecutive else ids, win,
                       inputs[lo:hi]))
    return shares


def _make_eval_grid(state, x):
    entries = _grid_shares(state.decomposition, x)
    coarse_value = 0.0
    if state.coarse_params is not None:
        center, halfwidth = state.coarse_norm
        with np.errstate(invalid="ignore", over="ignore"):
            coarse_value = eval_values(state.coarse_params, (x - center) / halfwidth)
    return _EvalGrid(x=x, cons=np.asarray(state.problem.constraint.multiplier(x), dtype=float),
                     entries=entries, coarse_value=coarse_value)


def _grid_solution(state, grid):
    value = np.zeros(len(grid.x))
    value += grid.coarse_value
    # One pair of activation arrays for every subdomain's pass: allocating
    # and freeing a pair per subdomain let glibc trim and regrow the heap,
    # about 90 page faults each time.
    size = max(work_size(params, len(x_hat))
               for params, (_, _, x_hat) in zip(state.params, grid.entries))
    work = np.empty(size), np.empty(size)
    for params, (rows, win, x_hat) in zip(state.params, grid.entries):
        value[rows] += win * eval_values(params, x_hat, work)
    value *= grid.cons
    return value


def solution_values(state, xs):
    """Constrained solution at xs, in xs's shape: the window-weighted sum of
    the local networks plus the coarse term, times the hard constraint's
    multiplier (the raw sum under a soft constraint)."""
    x = np.asarray(xs, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        return _grid_solution(state, _make_eval_grid(state, x.reshape(-1))).reshape(x.shape)


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
    partial report is attached to the raised error. A loss that is not
    finite fails at the step it was taken at: the initial loss before the
    first step, the final loss or L2 at the final step.

    The initial and final losses are the loss split against state.cache,
    which must be fresh when train is called: create_state,
    train_coarse_then_local and every round leave it so. They then equal
    global_loss(state) at the same two points."""
    _check_rounds(state, schedule, rounds)
    return _train(state, schedule, int(rounds) * state.communication_interval,
                  record_interval=record_interval, l2_points=l2_points,
                  report=report, phase=phase, step_offset=step_offset)


def _check_rounds(state, schedule, rounds):
    if not isinstance(rounds, (int, np.integer)) or rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds!r}")
    if schedule.n_subdomains != state.n_subdomains:
        raise ValueError("schedule and state disagree on the number of subdomains")


def _train(state, schedule, steps, *, record_interval=10, l2_points=None,
           report=None, phase="fbpinn", step_offset=0):
    """`steps` optimizer steps, recorded and reported as train describes:
    whole rounds of schedule, or with schedule None steps of a _lone_state's
    network, which has no rounds and no cache to refresh; its records' round
    is then the number of steps taken before. An initial loss that is not
    finite fails at the step it was taken at. A failure's step is numbered
    as the records are, from step_offset."""
    l2_points = l2_points if l2_points is not None else 10 * len(state.tables.x)
    for name, value, least in (("steps", steps, 1), ("record_interval", record_interval, 1),
                               ("l2_points", l2_points, 2)):
        if not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"{name} must be >= {least}, got {value!r}")
    report = report if report is not None else RunReport()
    grid = _make_eval_grid(state, sample_collocation(state.problem.domain, l2_points))
    exact = _exact_on_error_grid(state.problem, grid.x)
    started = time.perf_counter()
    # Each network's tangent forward is computed at most once per parameter
    # version and shared by the loss splits, the cache refresh and the next
    # step's gradient. Network 0's comes first: in the first refresh, it
    # would sit on top of the level-1 tapes.
    memo = _stepping_memo(state)
    with np.errstate(invalid="ignore", over="ignore"):
        _forwards(state, range(state.n_subdomains + 1), memo)
    final_step = state.step + steps
    final = {}

    def finite_loss(name, *l2):
        # the split against state.cache; its total and any l2 must be finite
        loss = _checked_loss(state, state.cache, memo)
        if not np.isfinite([loss.total, *l2]).all():
            raise NumericalFailureError(f"non-finite {name} loss {loss.total!r}"
                                        + "".join(f" or relative L2 error {v!r}" for v in l2))
        return loss

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
        if report.initial_loss is None:
            report.initial_loss = finite_loss("initial").total
        if schedule is None:
            for _ in range(steps):
                _step(state, (1,), memo)
                on_step()
                state.round += 1
        else:
            for _ in range(steps // state.communication_interval):
                _train_round(state, schedule_active_set(schedule, state.round),
                             on_step, memo)
        final_loss = finite_loss("final", final["l2"])
    except NumericalFailureError as err:
        report.wall_time_s += time.perf_counter() - started
        err.step = (err.step if err.step is not None else state.step) + step_offset
        err.report = report
        raise
    report.wall_time_s += time.perf_counter() - started
    report.final_loss = final_loss
    report.final_l2, report.solution_pred = final["l2"], final["pred"]
    report.solution_x, report.solution_exact = grid.x, exact
    if state.coarse_params is not None:
        report.solution_coarse = grid.cons * grid.coarse_value
    report.phases[phase] = report.phases.get(phase, 0) + steps
    return report


def _lone_state(problem, points, params, optimizer):
    """One network on the whole domain as a one-subdomain state: its window
    is 1 and it has no neighbor and no coarse term, so its cache is zero
    and is never refreshed. The subdomain's bounds are the domain's own, so
    its inputs are normalized exactly as coarse_norm normalizes them."""
    dom = problem.domain
    decomposition = Decomposition(dom, np.array([dom.a]), np.array([dom.b]), 0.0, None)
    rows, tables = _row_tables(problem, decomposition, points)
    return FbpinnState(
        problem=problem, decomposition=decomposition, params=[params],
        coarse_params=None, optimizers=[optimizer], coarse_optimizer=None,
        communication_interval=1, round=0, step=0, rows=rows, tables=tables,
        cache=OverlapCache(np.zeros(len(rows.x)), np.zeros(len(rows.x))))


def train_pinn(problem, points, *, layer_sizes, steps, optimizer="adam",
               learning_rate=1e-3, seed=0, record_interval=10, l2_points=None):
    """Single-network baseline on the full domain, normalized to [-1, 1]:
    a one-subdomain state with window 1, trained and recorded by the same
    step, loss and record code as train. The points must lie in the
    problem's domain. As in train, a final loss or L2 that is not finite
    raises NumericalFailureError at the final step."""
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
    A numerical failure in the first phase, its final check included, names
    the coarse network as its subdomain."""
    if state.coarse_params is None:
        raise ValueError("state was created without a coarse network")
    if not isinstance(coarse_epochs, (int, np.integer)) or coarse_epochs < 0:
        raise ValueError(f"coarse_epochs must be >= 0, got {coarse_epochs!r}")
    schedule = schedule if schedule is not None else parallel_schedule(state.n_subdomains)
    _check_rounds(state, schedule, local_rounds)
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
    train(state, schedule, local_rounds, record_interval=record_interval,
          l2_points=l2_points, report=report, phase="local",
          step_offset=int(coarse_epochs))
    return report
