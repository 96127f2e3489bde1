"""Small dense tanh networks with exact input derivatives and loss gradients.

The forward pass carries the tangent du/dx alongside the value (forward mode
in the scalar input), and the backward pass pushes loss adjoints through both
the value and tangent chains, so gradients of losses built from (u, du/dx)
are exact in every parameter, including the mixed d2u/dx dtheta terms.
Only the first input derivative is propagated; higher spatial derivatives
would need a second tangent slot in _forward/_backward.

Inside the passes every activation, tangent and adjoint is a C-contiguous
(width, rows) array: hidden layers are W @ a, the bias is added along the
rows and its gradient is a row sum, so each elementwise pass runs one long
contiguous loop. The first layer (fan-in 1) is the broadcast product
W0 * x and its tangent is W0 itself; the output layer's adjoint (fan-out 1)
is W.T * zbar. Against the earlier (rows, width) layout the products reach
BLAS with their operands in swapped roles and the bias sums are pairwise,
so results differ from it in the last bits. Neither layout gives a row the
same bits at every batch size.

eval_values, the value-only pass behind the dense error grid and
solution_values, runs an input of 2 * _BLOCK rows or more in blocks of
_BLOCK (4,096) rows, the last block taking the remainder: a whole
30,000-row grid's (16, rows) activations overflow a 2 MiB L2 cache, a
block's do not. OpenBLAS keeps a row's bits across blocks except in a
product's final (rows mod 8) rows, whose path depends on the product's
size. With the remainder in a last block of at least _BLOCK rows, hidden
layers of equal width 8 to 32 gave every row the bits of one whole-input
pass (OpenBLAS 0.3.31 on an AVX-512 Xeon); layers of unequal width, such
as 23 -> 3, may still differ there in the last bits.
"""

from __future__ import annotations

import math

import numpy as np

# Rows per eval_values pass over a long input: a (16, 4096) float64
# activation is 0.5 MiB. A multiple of 64, so every block starts on a
# multiple of 8 rows.
_BLOCK = 4096


class NumericalFailureError(RuntimeError):
    """Non-finite loss or gradient. Carries the offending input, the step and
    the failing subdomain (or "coarse" for the coarse network) when known."""

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

    Returns (u, du, tape) with tape = (x, hidden): x is the 1-D input and
    hidden[l] = (act, dact) holds tanh layer l's activation and tangent as
    (width, rows) arrays, which is what _backward reads.
    """
    x = np.asarray(x_hat, dtype=float).reshape(-1)
    W0 = params.weights[0]
    z = W0 * x                    # fan_in 1: an outer product, no sum
    z += params.biases[0][:, None]
    dz = W0                       # the input's tangent is 1
    hidden = []
    for W, b in zip(params.weights[1:], params.biases[1:]):
        act = np.tanh(z, out=z)
        dact = act * act
        np.subtract(1.0, dact, out=dact)
        dact *= dz
        hidden.append((act, dact))
        z = W @ act
        z += b[:, None]
        dz = W @ dact
    if not hidden:                # one linear layer: du/dx is its weight
        dz = np.full(z.shape, W0[0, 0])
    return z[0], dz[0], (x, hidden)


def _backward(params, tape, dloss_du, dloss_ddu):
    # Adjoints of (value, tangent) pushed through both chains, as
    # (width, rows) arrays. tanh node a = phi(z), da = phi'(z) dz,
    # phi' = 1 - a^2:
    #   zbar  = abar * phi' + dbar * phi''(z) * dz,  phi'' dz = -2 a da
    #   dzbar = dbar * phi'
    # linear node z = W a_prev + b, dz = W da_prev:
    #   Wbar = zbar a_prev^T + dzbar da_prev^T,  bbar = row sums of zbar
    #   abar = W^T zbar,  dbar = W^T dzbar
    # The first layer's a_prev is x and its da_prev is 1.
    x, hidden = tape
    weights = params.weights
    grad = ParamGradient.empty_like(params)
    zbar = np.asarray(dloss_du, dtype=float).reshape(1, -1)
    dzbar = np.asarray(dloss_ddu, dtype=float).reshape(1, -1)
    for ell in reversed(range(1, len(weights))):
        act, dact = hidden[ell - 1]
        gw = grad.weights[ell]
        np.matmul(zbar, act.T, out=gw)
        gw += dzbar @ dact.T
        np.add.reduce(zbar, axis=1, out=grad.biases[ell])
        W = weights[ell]
        if len(W) == 1:           # fan_out 1: an outer product, no sum
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


def eval_batch(params, x_hat):
    """Network value and d(value)/dx at every normalized input in x_hat."""
    u, du, _ = _forward(params, x_hat)
    return u, du


def eval_values(params, x_hat):
    """Network value alone at every normalized input in x_hat: the value
    chain of _forward without the tangent or the tape. An input of fewer
    than 2 * _BLOCK rows runs that chain once, bit for bit; a longer one
    runs it on consecutive blocks of _BLOCK rows, the last block taking
    the remainder, into one output array, so every row's value is that of
    its block evaluated alone."""
    x = np.asarray(x_hat, dtype=float).reshape(-1)
    n_blocks = len(x) // _BLOCK
    if n_blocks < 2:
        return _value_chain(params, x)
    out = np.empty(len(x))
    bounds = [k * _BLOCK for k in range(n_blocks)] + [len(x)]
    for lo, hi in zip(bounds, bounds[1:]):
        out[lo:hi] = _value_chain(params, x[lo:hi])
    return out


def _value_chain(params, x):
    a = params.weights[0] * x
    a += params.biases[0][:, None]
    for W, b in zip(params.weights[1:], params.biases[1:]):
        np.tanh(a, out=a)
        a = W @ a
        a += b[:, None]
    return a[0]


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
        raise NumericalFailureError(f"non-finite loss value {float(loss)!r}")
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
