"""Training with linear networks against its closed form.

With [1, 1] networks (u = w x_hat + b) under the hard tanh constraint, the
constrained residual c'v + cv' - f at the n collocation points is affine
in the parameters theta = (w_1, b_1, ..., w_J, b_J): r = A theta + r0, and
the global loss is the quadratic ||A theta + r0||^2 / n. Under SGD at rate
eta, a parallel round at p=1 is one gradient-descent step on it,
theta <- theta - eta (2/n) A^T (A theta + r0). A round at p>1 is p such
steps of each active subdomain's block with every other block frozen at
the round's start: block Jacobi when every subdomain is active, block
Gauss-Seidel when one is at a time, as in an alternating schedule. A is
built here from the window definition of
test_dense_reference, sharing no code with the row table, routes, owner
split or overlap cache of fbpinn.
"""

import numpy as np
import pytest

from fbpinn.decomposition import Interval, build_decomposition, sample_collocation
from fbpinn.problems import make_single_frequency
from fbpinn.scheduling import alternating_schedule, parallel_schedule
from fbpinn.training import create_state, global_loss, train
from test_dense_reference import dense_windows

DOM = Interval(-2 * np.pi, 2 * np.pi)
J, N_POINTS, ETA = 6, 200, 5e-3
REL = 1e-12


def affine_residual(problem, dec, x):
    """(A, r0): the constrained residual at x is A theta + r0, theta's
    entries 2(j-1) and 2(j-1)+1 being subdomain j's weight and bias."""
    win, dwin = dense_windows(dec, x)
    c, dc = np.tanh(x), 1.0 - np.tanh(x) ** 2
    A = np.zeros((len(x), 2 * dec.n_subdomains))
    for j, (left, right) in enumerate(zip(dec.lefts, dec.rights)):
        halfwidth = 0.5 * (right - left)
        x_hat = (x - 0.5 * (left + right)) / halfwidth
        # v = sum_j win_j u_j, v' = sum_j dwin_j u_j + win_j w_j / halfwidth
        A[:, 2 * j] = dc * win[j] * x_hat + c * (dwin[j] * x_hat + win[j] / halfwidth)
        A[:, 2 * j + 1] = dc * win[j] + c * dwin[j]
    return A, -problem.rhs(x)


def close(got, want):
    return np.linalg.norm(np.subtract(got, want)) <= REL * np.linalg.norm(want)


@pytest.mark.parametrize("kind, p, rounds", [("parallel", 1, 300), ("parallel", 5, 60),
                                             ("alternating", 5, 60)])
def test_sgd_on_linear_networks_is_the_dense_block_iteration(kind, p, rounds):
    problem = make_single_frequency(3.0, DOM)
    dec = build_decomposition(DOM, J, 0.7)
    x = sample_collocation(DOM, N_POINTS)
    state = create_state(problem, dec, x, layer_sizes=[1, 1], communication_interval=p,
                         optimizer="sgd", learning_rate=ETA, master_seed=4)
    A, r0 = affine_residual(problem, dec, x)
    theta = np.concatenate([params.flat for params in state.params])

    def loss(theta):
        r = A @ theta + r0
        return r.dot(r) / N_POINTS

    initial = loss(theta)
    for r in range(rounds):
        start = theta.copy()
        # parallel: every subdomain; alternating: subdomain r mod J + 1
        for j in range(J) if kind == "parallel" else [r % J]:
            local, block = start.copy(), slice(2 * j, 2 * j + 2)
            for _ in range(p):
                local[block] -= ETA * (2.0 / N_POINTS) * (A.T @ (A @ local + r0))[block]
            theta[block] = local[block]

    schedule = parallel_schedule(J) if kind == "parallel" else alternating_schedule(J)
    report = train(state, schedule, rounds, record_interval=50)
    assert close(np.concatenate([params.flat for params in state.params]), theta)
    assert close(report.initial_loss, initial)
    assert close(report.final_loss.total, loss(theta))
    assert close(global_loss(state).total, loss(theta))
    # the iteration moved: descent on the quadratic lowered it
    assert loss(theta) < initial
