"""Plain single-network PINN reference for the differential tests.

An independent copy of full-batch training of one network u(x_hat) on
the whole domain under the problem's hard or soft constraint, written
without the decomposed trainer's row table, caches or windows: its own
residual, penalty, loss closure and relative L2 error. It uses only the
network's loss_gradient and value-only pass and the optimizer, so the
decomposed trainer's one-subdomain states can be checked against it.
"""

import numpy as np

from fbpinn.decomposition import sample_collocation
from fbpinn.networks import eval_batch, eval_values, loss_gradient


def train_plain(params, problem, points, optimizer, steps, *, norm,
                record_interval, l2_points):
    """Train params in place for `steps` steps; returns the records as
    (step, loss, relative L2 error) every record_interval steps and at
    the last step."""
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
    grid_hat = (grid_x - center) / halfwidth
    grid_cons = (np.asarray(problem.constraint.multiplier(grid_x), dtype=float)
                 if hard else 1.0)

    records = []
    for s in range(1, steps + 1):
        _, grad = loss_gradient(params, inputs, loss_fn)
        optimizer.step(params, grad)
        if s % record_interval == 0 or s == steps:
            loss, _, _ = loss_fn(*eval_batch(params, inputs))
            pred = grid_cons * eval_values(params, grid_hat)
            l2 = np.linalg.norm(pred - grid_exact) / np.linalg.norm(grid_exact)
            records.append((s, float(loss), float(l2)))
    return records
