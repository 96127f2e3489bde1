"""Small dense tanh networks with exact input derivatives and loss gradients.

The forward pass carries the tangent du/dx alongside the value (forward mode
in the scalar input), and the backward pass pushes loss adjoints through both
the value and tangent chains, so gradients of losses built from (u, du/dx)
are exact in every parameter, including the mixed d2u/dx dtheta terms.
Only the first input derivative is propagated; higher spatial derivatives
would need a second tangent slot in _forward/_backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumericalFailureError(RuntimeError):
    """Non-finite loss or gradient. Carries the offending input when known."""

    def __init__(self, message, point=None, subdomain=None, step=None):
        super().__init__(message)
        self.point = point
        self.subdomain = subdomain
        self.step = step


@dataclass
class MlpParams:
    """Weights and biases of a fully connected network with scalar in/out.

    Hidden layers use tanh, the output layer is linear. weights[l] has shape
    (fan_out, fan_in), biases[l] has shape (fan_out,), all float64.
    """

    weights: list
    biases: list

    @property
    def layer_sizes(self):
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def copy(self):
        return MlpParams([w.copy() for w in self.weights],
                         [b.copy() for b in self.biases])

    def arrays(self):
        return list(self.weights) + list(self.biases)


@dataclass
class ParamGradient:
    """Gradient with the same layout as MlpParams."""

    weights: list
    biases: list

    def arrays(self):
        return list(self.weights) + list(self.biases)


def init_params(layer_sizes, seed):
    """Glorot-uniform weights, zero biases; deterministic in seed."""
    sizes = list(layer_sizes)
    if len(sizes) < 2:
        raise ValueError("layer_sizes needs at least an input and an output entry")
    for s in sizes:
        if not isinstance(s, (int, np.integer)) or s <= 0:
            raise ValueError(f"layer sizes must be positive integers, got {s!r}")
    if sizes[0] != 1 or sizes[-1] != 1:
        raise ValueError(f"input and output dimension must be 1, got {sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases)


def _forward(params, x_hat):
    """Batched forward pass propagating the input tangent.

    Returns (u, du, tape) where tape[l] = (a_prev, da_prev, act, dact)
    holds what _backward needs; act is None for the linear output layer.
    """
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


def _backward(params, tape, dloss_du, dloss_ddu):
    # Adjoints of (value, tangent) pushed through both chains.
    # tanh node a = phi(z), da = phi'(z) * dz, phi' = 1 - a^2:
    #   zbar  = abar * phi' + dbar * phi''(z) * dz,  phi'' dz = -2 a da
    #   dzbar = dbar * phi'
    # linear node z = a_prev W^T + b, dz = da_prev W^T:
    #   Wbar = zbar^T a_prev + dzbar^T da_prev,  bbar = sum zbar
    abar = np.asarray(dloss_du, dtype=float).reshape(-1, 1)
    dbar = np.asarray(dloss_ddu, dtype=float).reshape(-1, 1)
    n_layers = len(params.weights)
    gw = [None] * n_layers
    gb = [None] * n_layers
    for ell in reversed(range(n_layers)):
        a_prev, da_prev, act, dact = tape[ell]
        W = params.weights[ell]
        if act is None:
            zbar, dzbar = abar, dbar
        else:
            phi1 = 1.0 - act * act
            zbar = abar * phi1 + dbar * (-2.0 * act * dact)
            dzbar = dbar * phi1
        gw[ell] = zbar.T @ a_prev + dzbar.T @ da_prev
        gb[ell] = zbar.sum(axis=0)
        if ell:
            abar = zbar @ W
            dbar = dzbar @ W
    return ParamGradient(gw, gb)


def eval_batch(params, x_hat):
    """Network value and d(value)/dx at every normalized input in x_hat."""
    u, du, _ = _forward(params, x_hat)
    return u, du


def eval_values(params, x_hat):
    """Network value alone at every normalized input in x_hat: the value
    chain of _forward, bit for bit, without the tangent or the tape."""
    a = np.asarray(x_hat, dtype=float).reshape(-1, 1)
    last = len(params.weights) - 1
    for ell, (W, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ W.T
        a += b
        if ell != last:
            np.tanh(a, out=a)
    return a[:, 0]


def loss_gradient(params, x_hat, loss_fn, forward=None):
    """Loss value and its exact parameter gradient.

    loss_fn(u, du) must return (loss, dloss_du, dloss_ddu) with the per-point
    partial derivatives of the accumulated loss in both arguments. forward,
    when given, is the (u, du, tape) of _forward(params, x_hat) at the
    current parameters and replaces that pass; it is checked like a fresh one.
    """
    if forward is None:
        with np.errstate(invalid="ignore", over="ignore"):
            forward = _forward(params, x_hat)
    u, du, tape = forward
    for arr in (u, du):
        bad = ~np.isfinite(arr)
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericalFailureError(
                f"non-finite network output at x_hat={float(np.asarray(x_hat).ravel()[i])!r}",
                point=float(np.asarray(x_hat).ravel()[i]))
    with np.errstate(invalid="ignore", over="ignore"):
        loss, gu, gd = loss_fn(u, du)
    for arr in (np.asarray(gu), np.asarray(gd)):
        bad = ~np.isfinite(arr)
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericalFailureError(
                f"non-finite loss derivative at x_hat={float(np.asarray(x_hat).ravel()[i])!r}",
                point=float(np.asarray(x_hat).ravel()[i]))
    if not np.isfinite(loss):
        raise NumericalFailureError(f"non-finite loss value {loss!r}")
    grad = _backward(params, tape, gu, gd)
    for g in grad.arrays():
        if not np.all(np.isfinite(g)):
            raise NumericalFailureError("non-finite parameter gradient")
    return float(loss), grad


def params_to_jsonable(params):
    """Array-of-layers form with row-major flattened weights."""
    out = []
    for W, b in zip(params.weights, params.biases):
        out.append({
            "shape": [int(W.shape[0]), int(W.shape[1])],
            "weights": [float(v) for v in W.ravel(order="C")],
            "bias": [float(v) for v in b],
        })
    return out


def params_from_jsonable(obj):
    if not isinstance(obj, list) or not obj:
        raise ValueError("expected a non-empty list of layers")
    weights, biases = [], []
    for k, layer in enumerate(obj):
        try:
            fan_out, fan_in = (int(v) for v in layer["shape"])
            W = np.asarray(layer["weights"], dtype=float).reshape(fan_out, fan_in)
            b = np.asarray(layer["bias"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed layer {k}: {exc}") from exc
        if b.shape != (fan_out,):
            raise ValueError(f"layer {k}: bias length {b.shape[0]} != fan_out {fan_out}")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise ValueError(f"layer {k}: non-finite parameter")
        weights.append(W)
        biases.append(b)
    params = MlpParams(weights, biases)
    sizes = params.layer_sizes
    for k in range(len(weights) - 1):
        if weights[k + 1].shape[1] != weights[k].shape[0]:
            raise ValueError(f"layer {k + 1} fan_in does not match layer {k} fan_out ({sizes})")
    return params
