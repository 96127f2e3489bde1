"""Per-network reference for the decomposed trainer's row pass.

The trainer runs the residual, loss derivatives, cache contributions and
loss split of every active network as one pass over a row table that
holds all of their rows. This module keeps the earlier per-network form
of that work as an independent reference: its own workspaces and
neighbour routes built from the per-subdomain window table of
window_table_reference and the pairwise neighbour sets of
decomposition_reference, one loss closure per network
handed to loss_gradient, a cache refresh that loops over the sources
(the level-0 coarse network first, then the subdomains in ascending
order) adding each source's contribution route by route, and a loss
split that loops over the workspaces. It uses only that window table, the
networks' forward pass and loss_gradient, and the state's optimizers, so
the trainer can be checked against it bit for bit.
"""

from types import SimpleNamespace

import numpy as np

from decomposition_reference import neighbors
from window_table_reference import window_table
from fbpinn.networks import eval_batch, loss_gradient
from fbpinn.scheduling import active_set
from fbpinn.training import LossBreakdown


def _workspace(index, row_ids, row_x, row_win, dwin, left, right):
    center, halfwidth = 0.5 * (left + right), 0.5 * (right - left)
    return SimpleNamespace(index=index, row_ids=row_ids, n_own=len(dwin),
                           inputs=(row_x - center) / halfwidth, scale=1.0 / halfwidth,
                           row_win=row_win, dwin=dwin, outgoing=[])


def build(state):
    """The reference's tables of state: (workspaces, level-0 workspace or
    None). Workspace j's rows are its member collocation points, then the
    soft boundary points it holds; each keeps its outgoing routes as
    (target, src rows, dst rows, member src rows, member dst rows)."""
    problem, dec = state.problem, state.decomposition
    pts = state.tables.x
    n = len(pts)
    hard = problem.constraint.kind == "hard"
    rows = window_table(dec, pts)
    bc_x = np.zeros(0) if hard else np.asarray(problem.constraint.points, dtype=float)
    if not hard:
        targets = np.asarray(problem.constraint.targets, dtype=float)
        rows = [(np.concatenate([ids, n + bids]), np.concatenate([win, bwin]), dwin)
                for (ids, win, dwin), (bids, bwin, _) in zip(rows, window_table(dec, bc_x))]
    all_x = np.concatenate([pts, bc_x])
    owner = np.zeros(len(all_x), dtype=int)
    for j in range(len(rows), 0, -1):
        owner[rows[j - 1][0]] = j
    if hard:
        cons_all = np.asarray(problem.constraint.multiplier(pts), dtype=float)
        dcons_all = np.asarray(problem.constraint.multiplier_prime(pts), dtype=float)
    workspaces = []
    for sd, (row_ids, row_win, dwin) in zip(dec.subdomains, rows):
        ws = _workspace(sd.index, row_ids, all_x[row_ids], row_win, dwin, sd.left, sd.right)
        ids = row_ids[:ws.n_own]
        ws.point_ids = ids
        ws.owned = owner[row_ids] == sd.index
        ws.rhs = np.asarray(problem.rhs(pts[ids]), dtype=float)
        if hard:
            ws.cons, ws.dcons = cons_all[ids], dcons_all[ids]
        else:
            ws.cons = None
            ws.rhs = np.concatenate([ws.rhs, targets[row_ids[ws.n_own:] - n]])
        workspaces.append(ws)
    for ws, near in zip(workspaces, neighbors(dec.lefts, dec.rights)):
        for l in near:
            common, src, dst = np.intersect1d(ws.row_ids, workspaces[l - 1].row_ids,
                                              assume_unique=True, return_indices=True)
            m = common.searchsorted(n)
            ws.outgoing.append((l, src, dst, src[:m], dst[:m]))
    level0 = None
    if state.coarse_params is not None:
        dom = problem.domain
        level0 = _workspace(0, np.arange(len(all_x)), all_x, np.ones(len(all_x)),
                            np.zeros(n), dom.a, dom.b)
        level0.outgoing = [(w.index, w.row_ids, slice(None), w.point_ids, slice(None))
                           for w in workspaces]
    return workspaces, level0


def _dvalue(ws, u, du):
    n_own = ws.n_own
    return ws.dwin * u[:n_own] + ws.row_win[:n_own] * (ws.scale * du[:n_own])


def refresh(state, workspaces, level0):
    """Every workspace's cache, (values at every row, dvalues at members)."""
    values = [np.zeros(len(ws.row_ids)) for ws in workspaces]
    dvalues = [np.zeros(ws.n_own) for ws in workspaces]
    sources = list(zip(state.params, workspaces))
    if level0 is not None:
        sources.insert(0, (state.coarse_params, level0))
    with np.errstate(invalid="ignore", over="ignore"):
        for params, ws in sources:
            u, du = eval_batch(params, ws.inputs)
            contrib = ws.row_win * u
            dcontrib = _dvalue(ws, u, du)
            for target, src, dst, member_src, member_dst in ws.outgoing:
                values[target - 1][dst] += contrib[src]
                dvalues[target - 1][member_dst] += dcontrib[member_src]
    return values, dvalues


def _residual(ws, u, du, bg, dbg):
    n_own = ws.n_own
    dvalue = _dvalue(ws, u, du) + dbg
    if ws.cons is not None:
        return ws.dcons * (ws.row_win * u + bg) + ws.cons * dvalue - ws.rhs
    return np.concatenate([dvalue, ws.row_win[n_own:] * u[n_own:] + bg[n_own:]]) - ws.rhs


def _loss_fn(state, ws, bg, dbg):
    """Network ws.index's loss closure against its frozen background."""
    t, soft = state.tables, state.problem.constraint
    n, n_own = len(t.x), ws.n_own
    hard = ws.cons is not None
    dr_du = ws.dcons * ws.row_win + ws.cons * ws.dwin if hard else ws.dwin
    dr_ddu = ws.cons * (ws.row_win * ws.scale) if hard else ws.row_win[:n_own] * ws.scale

    def loss_fn(u_all, du_all):
        r = _residual(ws, u_all, du_all, bg, dbg)
        rm = r[:n_own]
        loss = (rm @ rm) / n
        ru = (2.0 / n) * rm
        gu = ru * dr_du
        gd = ru * dr_ddu
        if len(r) > n_own:
            err = r[n_own:]
            n_bc = len(soft.points)
            loss = loss + soft.weight * (err @ err) / n_bc
            gu = np.concatenate([gu, (2.0 * soft.weight / n_bc) * err * ws.row_win[n_own:]])
            gd = np.concatenate([gd, np.zeros(len(err))])
        return loss, gu, gd

    return loss_fn


def local_loss(state, workspaces, cache, j):
    """Network j's loss through its closure against cache."""
    ws = workspaces[j - 1]
    fn = _loss_fn(state, ws, cache[0][j - 1], cache[1][j - 1])
    with np.errstate(invalid="ignore", over="ignore"):
        return float(fn(*eval_batch(state.params[j - 1], ws.inputs))[0])


def loss_split(state, workspaces, cache):
    """The loss split of every row's owner against cache."""
    t, constraint = state.tables, state.problem.constraint
    n, n_bc = len(t.x), len(constraint.points)
    by_row = np.zeros(n + n_bc)
    with np.errstate(invalid="ignore", over="ignore"):
        for ws, bg, dbg in zip(workspaces, *cache):
            u, du = eval_batch(state.params[ws.index - 1], ws.inputs)
            res = _residual(ws, u, du, bg, dbg)
            by_row[ws.row_ids[ws.owned]] = res[ws.owned]
        r, err = by_row[:n], by_row[n:]
        boundary = float(constraint.weight * (err @ err) / n_bc) if n_bc else 0.0
        squared = r * r
        return LossBreakdown(float(np.sum(squared) / n) + boundary,
                             float(np.sum(squared[t.interior_mask]) / n),
                             float(np.sum(squared[~t.interior_mask]) / n),
                             boundary)


def train_reference(state, schedule, rounds):
    """`rounds` rounds of schedule on state: each active network, in
    ascending order, takes communication_interval steps through its own
    closure against the round's frozen cache, which is then refreshed.
    Returns (workspaces, final cache)."""
    workspaces, level0 = build(state)
    cache = refresh(state, workspaces, level0)
    for r in range(rounds):
        order = sorted(active_set(schedule, r).active)
        for _ in range(state.communication_interval):
            for j in order:
                ws = workspaces[j - 1]
                fn = _loss_fn(state, ws, cache[0][j - 1], cache[1][j - 1])
                _, grad = loss_gradient(state.params[j - 1], ws.inputs, fn)
                state.optimizers[j - 1].step(state.params[j - 1], grad)
        cache = refresh(state, workspaces, level0)
    return workspaces, cache
