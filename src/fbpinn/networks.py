"""Small dense tanh networks with exact input derivatives and loss gradients.

The forward pass carries the tangent du/dx alongside the value (forward mode
in the scalar input), and the backward pass pushes loss adjoints through both
the value and tangent chains, so gradients of losses built from (u, du/dx)
are exact in every parameter, including the mixed d2u/dx dtheta terms.
Only the first input derivative is propagated; higher spatial derivatives
would need a second tangent slot in _forward/_backward.
"""

from __future__ import annotations

import math

import numpy as np


class NumericalFailureError(RuntimeError):
    """Non-finite loss or gradient. Carries the offending input when known."""

    def __init__(self, message, point=None, subdomain=None, step=None):
        super().__init__(message)
        self.point = point
        self.subdomain = subdomain
        self.step = step


class _FlatLayers:
    """Per-layer weights and biases held as C-contiguous views into one
    float64 vector, flat, in arrays() order: weights, then biases. A whole
    network is then updated or tested with a single vector operation."""

    def __init__(self, weights, biases):
        arrays = [np.asarray(a, dtype=float) for a in (*weights, *biases)]
        layout, start = [], 0
        for a in arrays:
            layout.append((start, start + a.size, a.shape))
            start += a.size
        self._attach(np.concatenate([a.ravel() for a in arrays]), tuple(layout),
                     len(weights))

    def _attach(self, flat, layout, n_weights):
        # layout: (start, stop, shape) of each array within flat
        self.flat, self._layout = flat, layout
        views = [flat[a:b].reshape(shape) for a, b, shape in layout]
        self.weights, self.biases = views[:n_weights], views[n_weights:]

    def arrays(self):
        return self.weights + self.biases


class MlpParams(_FlatLayers):
    """Weights and biases of a fully connected network with scalar in/out.

    Hidden layers use tanh, the output layer is linear. weights[l] has shape
    (fan_out, fan_in), biases[l] has shape (fan_out,), all float64 views into
    params.flat; the constructor copies its arrays into that buffer.
    """

    @property
    def layer_sizes(self):
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def copy(self):
        return MlpParams(self.weights, self.biases)


class ParamGradient(_FlatLayers):
    """Gradient with the same layout as MlpParams, flat buffer included."""

    @classmethod
    def empty_like(cls, params):
        """Uninitialised gradient laid out like params, for _backward to fill."""
        grad = cls.__new__(cls)
        grad._attach(np.empty_like(params.flat), params._layout,
                     len(params.weights))
        return grad


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
    grad = ParamGradient.empty_like(params)
    for ell in reversed(range(len(params.weights))):
        a_prev, da_prev, act, dact = tape[ell]
        W = params.weights[ell]
        if act is None:
            zbar, dzbar = abar, dbar
        else:
            phi1 = 1.0 - act * act
            zbar = abar * phi1 + dbar * (-2.0 * act * dact)
            dzbar = dbar * phi1
        gw = grad.weights[ell]
        np.matmul(zbar.T, a_prev, out=gw)
        gw += dzbar.T @ da_prev
        np.add.reduce(zbar, axis=0, out=grad.biases[ell])
        if ell:
            abar = zbar @ W
            dbar = dzbar @ W
    return grad


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
    # Each array is tested by one finite sum; the per-element search that
    # locates the failure runs only when a sum is not finite.
    with np.errstate(invalid="ignore", over="ignore"):
        if forward is None:
            forward = _forward(params, x_hat)
        u, du, tape = forward
        if not math.isfinite(np.add.reduce(u) + np.add.reduce(du)):
            _raise_at_first_nonfinite((u, du), x_hat, "network output")
        loss, gu, gd = loss_fn(u, du)
        if not math.isfinite(np.add.reduce(gu) + np.add.reduce(gd)):
            _raise_at_first_nonfinite((gu, gd), x_hat, "loss derivative")
    if not np.isfinite(loss):
        raise NumericalFailureError(f"non-finite loss value {loss!r}")
    grad = _backward(params, tape, gu, gd)
    with np.errstate(invalid="ignore", over="ignore"):
        total = np.add.reduce(grad.flat)
    if not math.isfinite(total) and not np.all(np.isfinite(grad.flat)):
        raise NumericalFailureError("non-finite parameter gradient")
    return float(loss), grad


def _raise_at_first_nonfinite(arrays, x_hat, what):
    """NumericalFailureError at the input of the first non-finite entry,
    searching the arrays in order; returns when every entry is finite."""
    for arr in arrays:
        bad = ~np.isfinite(arr)
        if bad.any():
            point = float(np.asarray(x_hat).ravel()[int(np.argmax(bad))])
            raise NumericalFailureError(f"non-finite {what} at x_hat={point!r}",
                                        point=point)


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
