"""First-order optimizers updating MlpParams in place."""

from __future__ import annotations

import numpy as np


class GradientDescent:
    """Plain gradient descent: theta <- theta - lr * grad."""

    def __init__(self, learning_rate):
        self.learning_rate = float(learning_rate)

    def step(self, params, grad):
        params.flat -= self.learning_rate * grad.flat


class Adam:
    """Adam with bias correction. The moments are float64 vectors laid out
    like params.flat and grad.flat, allocated on the first step together
    with two work vectors, so that a step allocates no temporaries."""

    def __init__(self, learning_rate=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = float(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = None
        self.v = None
        self._work = None

    def step(self, params, grad):
        g = grad.flat
        if self.m is None:
            self.m = np.zeros_like(g)
            self.v = np.zeros_like(g)
            self._work = np.empty((2, g.size))
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        m, v, (step, denom) = self.m, self.v, self._work
        # m = beta1 m + (1 - beta1) g,  v = beta2 v + (1 - beta2) g^2,
        # theta -= lr (m / c1) / (sqrt(v / c2) + eps), each product and
        # quotient taken in that order, in place
        np.multiply(g, 1.0 - self.beta1, out=step)
        m *= self.beta1
        m += step
        np.multiply(g, g, out=step)
        step *= 1.0 - self.beta2
        v *= self.beta2
        v += step
        np.divide(m, c1, out=step)
        step *= self.learning_rate
        np.divide(v, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        params.flat -= step


def make_optimizer(kind, learning_rate):
    if kind == "adam":
        return Adam(learning_rate)
    if kind == "sgd":
        return GradientDescent(learning_rate)
    raise ValueError(f"unknown optimizer kind {kind!r}")
