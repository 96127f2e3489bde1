"""First-order optimizers updating MlpParams in place."""

from __future__ import annotations

import numpy as np


class GradientDescent:
    """Plain gradient descent: theta <- theta - lr * grad."""

    def __init__(self, learning_rate):
        self.learning_rate = float(learning_rate)

    def step(self, params, grad):
        for p, g in zip(params.arrays(), grad.arrays()):
            p -= self.learning_rate * g


class Adam:
    """Adam with bias correction. The moments are single float64 vectors
    over the parameter arrays in MlpParams.arrays() order, allocated on the
    first step."""

    def __init__(self, learning_rate=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = float(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = None
        self.v = None

    def step(self, params, grad):
        g = np.concatenate([a.ravel() for a in grad.arrays()])
        if self.m is None:
            self.m = np.zeros_like(g)
            self.v = np.zeros_like(g)
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        update = self.learning_rate * (m / c1) / (np.sqrt(v / c2) + self.eps)
        start = 0
        for p in params.arrays():
            p -= update[start:start + p.size].reshape(p.shape)
            start += p.size


def make_optimizer(kind, learning_rate):
    if kind == "adam":
        return Adam(learning_rate)
    if kind == "sgd":
        return GradientDescent(learning_rate)
    raise ValueError(f"unknown optimizer kind {kind!r}")
