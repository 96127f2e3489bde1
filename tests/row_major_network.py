"""Row-major reference network for the differential tests.

An independent copy of the tanh MLP's forward, backward and value-only
passes with activations held as (rows, width) arrays, one matmul per
layer and the input tangent carried as a column of ones. It reads only
params.weights and params.biases and returns plain arrays, so it shares
no code with fbpinn.networks.
"""

import numpy as np


def forward(params, x_hat):
    """(u, du, tape) with tape[l] = (a_prev, da_prev, act, dact); act is
    None for the linear output layer."""
    a = np.asarray(x_hat, dtype=float).reshape(-1, 1)
    da = np.ones_like(a)
    tape = []
    last = len(params.weights) - 1
    for ell, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ W.T + b
        dz = da @ W.T
        if ell == last:
            tape.append((a, da, None, None))
            a, da = z, dz
        else:
            act = np.tanh(z)
            dact = (1.0 - act * act) * dz
            tape.append((a, da, act, dact))
            a, da = act, dact
    return a[:, 0], da[:, 0], tape


def backward(params, tape, dloss_du, dloss_ddu):
    """Gradient of the loss in every parameter, as one vector laid out
    like params.flat: every weight matrix row-major, then every bias."""
    abar = np.asarray(dloss_du, dtype=float).reshape(-1, 1)
    dbar = np.asarray(dloss_ddu, dtype=float).reshape(-1, 1)
    n = len(params.weights)
    gws, gbs = [None] * n, [None] * n
    for ell in reversed(range(n)):
        a_prev, da_prev, act, dact = tape[ell]
        W = params.weights[ell]
        if act is None:
            zbar, dzbar = abar, dbar
        else:
            phi1 = 1.0 - act * act
            zbar = abar * phi1 + dbar * (-2.0 * act * dact)
            dzbar = dbar * phi1
        gws[ell] = zbar.T @ a_prev + dzbar.T @ da_prev
        gbs[ell] = zbar.sum(axis=0)
        if ell:
            abar = zbar @ W
            dbar = dzbar @ W
    return np.concatenate([g.ravel() for g in gws + gbs])


def values(params, x_hat):
    """Network value alone, from the value chain of forward."""
    a = np.asarray(x_hat, dtype=float).reshape(-1, 1)
    last = len(params.weights) - 1
    for ell, (W, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ W.T + b
        if ell != last:
            a = np.tanh(a)
    return a[:, 0]
