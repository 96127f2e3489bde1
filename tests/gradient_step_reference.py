"""Reference gradient step: the backward pass and the Adam update as they
were before the trainer kept 1 - a^2 on the tape and ran Adam in work
vectors.

backward recomputes each hidden layer's tanh derivative 1 - a^2 from the
activation and reads only (act, dact) from the tape, and allocates a new
gradient. adam_step is the update written as one expression per moment
and one for the parameters, with NumPy's temporaries. Both perform the
same elementwise operations in the same order as fbpinn's, so the tests
require equal bits.
"""

import numpy as np

from fbpinn.networks import ParamGradient


def backward(params, tape, dloss_du, dloss_ddu):
    x, hidden = tape
    weights = params.weights
    grad = ParamGradient.empty_like(params)
    zbar = np.asarray(dloss_du, dtype=float).reshape(1, -1)
    dzbar = np.asarray(dloss_ddu, dtype=float).reshape(1, -1)
    for ell in reversed(range(1, len(weights))):
        act, dact = hidden[ell - 1][:2]
        gw = grad.weights[ell]
        np.matmul(zbar, act.T, out=gw)
        gw += dzbar @ dact.T
        np.add.reduce(zbar, axis=1, out=grad.biases[ell])
        W = weights[ell]
        if len(W) == 1:
            abar, dbar = W.T * zbar, W.T * dzbar
        else:
            abar, dbar = W.T @ zbar, W.T @ dzbar
        phi1 = act * act
        np.subtract(1.0, phi1, out=phi1)
        curv = act * dact
        curv *= -2.0
        curv *= dbar
        abar *= phi1
        abar += curv
        dbar *= phi1
        zbar, dzbar = abar, dbar
    gw = grad.weights[0][:, 0]
    np.matmul(zbar, x, out=gw)
    gw += np.add.reduce(dzbar, axis=1)
    np.add.reduce(zbar, axis=1, out=grad.biases[0])
    return grad


def adam_step(flat, m, v, t, g, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
    """Step t (from 1) of Adam on flat, updating flat, m and v in place."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    flat -= learning_rate * (m / c1) / (np.sqrt(v / c2) + eps)
