import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbpinn.networks import (MlpParams, NumericalFailureError, ParamGradient,
                             _forward, eval_batch, eval_values, init_params,
                             loss_gradient, params_from_jsonable,
                             params_to_jsonable)
import row_major_network as reference


def fd_input_derivative(params, x, h=1e-6):
    up, _ = eval_batch(params, [x + h])
    dn, _ = eval_batch(params, [x - h])
    return (up[0] - dn[0]) / (2 * h)


def fd_param_gradient(params, x_hat, loss_fn, h=1e-6):
    """Central differences in every parameter entry."""
    grads = []
    for arr in params.arrays():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for k in range(flat.size):
            old = flat[k]
            flat[k] = old + h
            up = loss_fn(*eval_batch(params, x_hat))[0]
            flat[k] = old - h
            dn = loss_fn(*eval_batch(params, x_hat))[0]
            flat[k] = old
            gflat[k] = (up - dn) / (2 * h)
        grads.append(g)
    return grads


def quadratic_loss(weights_u, weights_d):
    """sum wu u^2 + wd du^2, exercising both output channels."""
    def loss_fn(u, du):
        loss = float(weights_u @ (u * u) + weights_d @ (du * du))
        return loss, 2 * weights_u * u, 2 * weights_d * du
    return loss_fn


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / denom


def test_init_shapes_and_determinism():
    p = init_params([1, 8, 8, 1], seed=3)
    assert [w.shape for w in p.weights] == [(8, 1), (8, 8), (1, 8)]
    assert [b.shape for b in p.biases] == [(8,), (8,), (1,)]
    assert p.layer_sizes == [1, 8, 8, 1]
    assert all(np.all(b == 0) for b in p.biases)
    q = init_params([1, 8, 8, 1], seed=3)
    for a, b in zip(p.arrays(), q.arrays()):
        assert np.array_equal(a, b)
    r = init_params([1, 8, 8, 1], seed=4)
    assert any(not np.array_equal(a, b) for a, b in zip(p.arrays(), r.arrays()))


def test_init_glorot_bounds():
    p = init_params([1, 50, 1], seed=0)
    bound = np.sqrt(6.0 / 51)
    assert np.all(np.abs(p.weights[0]) <= bound)
    assert np.all(np.abs(p.weights[1]) <= bound)


def test_init_rejects_bad_sizes():
    for bad in ([1], [1, 0, 1], [1, 4, 2], [2, 4, 1], [1, 3.5, 1]):
        with pytest.raises(ValueError):
            init_params(bad, seed=0)


def test_single_tanh_unit_exact():
    # u(x) = tanh(x) for unit weights, zero biases
    p = MlpParams([np.array([[1.0]]), np.array([[1.0]])],
                  [np.zeros(1), np.zeros(1)])
    u, du = eval_batch(p, [0.0, 0.7])
    assert u[0] == 0.0 and du[0] == 1.0
    assert u[1] == np.tanh(0.7)
    assert du[1] == 1.0 - np.tanh(0.7) ** 2


def test_forward_frozen_values():
    # zero init biases make u(0) = 0 and du(0) = W1 @ W0 exactly
    p = init_params([1, 4, 1], seed=0)
    u, du = eval_batch(p, [0.0, 0.5, -1.25])
    assert u[0] == 0.0
    assert du[0] == float(p.weights[1][0] @ p.weights[0][:, 0])
    np.testing.assert_allclose(
        u, [0.0, -0.47351643553967604, 0.8938998055590252], rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        du, [-1.0176944959616336, -0.8184582358089684, -0.3310262441291504],
        rtol=0, atol=1e-15)


def test_input_derivative_vs_finite_differences():
    rng = np.random.default_rng(7)
    for sizes in ([1, 1], [1, 6, 1], [1, 16, 16, 1]):
        p = init_params(sizes, seed=int(rng.integers(100)))
        xs = rng.uniform(-2, 2, size=5)
        _, du = eval_batch(p, xs)
        for x, got in zip(xs, du):
            assert abs(got - fd_input_derivative(p, x)) < 1e-6


def test_loss_gradient_vs_finite_differences():
    rng = np.random.default_rng(11)
    for sizes in ([1, 4, 1], [1, 8, 8, 1], [1, 1], [1, 3, 7, 2, 1]):
        p = init_params(sizes, seed=int(rng.integers(100)))
        x = rng.uniform(-1.5, 1.5, size=7)
        loss_fn = quadratic_loss(rng.uniform(0.5, 2, 7), rng.uniform(0.5, 2, 7))
        loss, grad = loss_gradient(p, x, loss_fn)
        u, du = eval_batch(p, x)
        assert loss == pytest.approx(loss_fn(u, du)[0])
        fd = fd_param_gradient(p, x, loss_fn)
        for g, f in zip(grad.arrays(), fd):
            assert rel_err(g, f) < 1e-6


def test_loss_gradient_pure_derivative_loss():
    # loss touching only du still reaches every parameter (mixed d2u/dx dtheta);
    # asymmetric grid so no gradient vanishes by symmetry
    p = init_params([1, 6, 1], seed=5)
    x = np.linspace(-1, 1, 9) + 0.1

    def loss_fn(u, du):
        return float(np.sum(du * du)), np.zeros_like(u), 2 * du

    _, grad = loss_gradient(p, x, loss_fn)
    fd = fd_param_gradient(p, x, loss_fn)
    for g, f in zip(grad.arrays(), fd):
        np.testing.assert_allclose(g, f, rtol=1e-5, atol=1e-8)
    assert all(np.any(g != 0) for g in grad.arrays()[:2])


@given(w=st.floats(-3, 3), b=st.floats(-3, 3),
       x=st.floats(-5, 5))
@settings(max_examples=50, deadline=None)
def test_affine_net_is_exact(w, b, x):
    # no hidden layer: u = w x + b, du = w, both exact in floating point
    p = MlpParams([np.array([[w]])], [np.array([b])])
    u, du = eval_batch(p, [x])
    assert u[0] == w * x + b
    assert du[0] == w


def test_batch_matches_pointwise():
    # batched BLAS may reorder sums, so agreement is to rounding, not bitwise
    p = init_params([1, 16, 16, 1], seed=9)
    xs = np.linspace(-1, 1, 11)
    u, du = eval_batch(p, xs)
    for k, x in enumerate(xs):
        u1, du1 = eval_batch(p, [x])
        np.testing.assert_allclose([u1[0], du1[0]], [u[k], du[k]],
                                   rtol=1e-13, atol=0)


def test_copy_is_deep():
    p = init_params([1, 4, 1], seed=1)
    q = p.copy()
    q.weights[0][0, 0] += 1.0
    assert p.weights[0][0, 0] != q.weights[0][0, 0]


def test_serialization_round_trip_bitwise():
    p = init_params([1, 16, 16, 1], seed=13)
    q = params_from_jsonable(params_to_jsonable(p))
    assert q.layer_sizes == p.layer_sizes
    for a, b in zip(p.arrays(), q.arrays()):
        assert np.array_equal(a, b)


def test_deserialization_rejects_malformed():
    good = params_to_jsonable(init_params([1, 4, 1], seed=0))
    with pytest.raises(ValueError):
        params_from_jsonable([])
    bad = [dict(layer) for layer in good]
    bad[0]["bias"] = bad[0]["bias"][:-1]
    with pytest.raises(ValueError):
        params_from_jsonable(bad)
    bad = [dict(layer) for layer in good]
    bad[1]["weights"][0] = float("inf")
    with pytest.raises(ValueError):
        params_from_jsonable(bad)
    bad = [dict(layer) for layer in good]
    del bad[0]["shape"]
    with pytest.raises(ValueError):
        params_from_jsonable(bad)
    # fan mismatch between consecutive layers
    bad = [dict(good[0]), dict(good[0])]
    with pytest.raises(ValueError):
        params_from_jsonable(bad)


def test_loss_gradient_raises_on_nonfinite_output():
    p = init_params([1, 4, 1], seed=0)
    p.weights[0][0, 0] = np.inf
    loss_fn = quadratic_loss(np.ones(3), np.ones(3))
    with pytest.raises(NumericalFailureError) as exc:
        loss_gradient(p, [0.1, 0.2, 0.3], loss_fn)
    assert exc.value.point is not None


def test_loss_gradient_raises_on_nonfinite_loss():
    p = init_params([1, 4, 1], seed=0)

    def loss_fn(u, du):
        return np.nan, np.zeros_like(u), np.zeros_like(du)

    with pytest.raises(NumericalFailureError):
        loss_gradient(p, [0.0], loss_fn)


def test_eval_values_is_the_value_chain_bitwise():
    for sizes in ([1, 1], [1, 6, 1], [1, 16, 16, 1]):
        p = init_params(sizes, seed=3)
        xs = np.linspace(-1.3, 1.1, 57)
        u, _ = eval_batch(p, xs)
        assert np.array_equal(eval_values(p, xs), u)


def test_loss_gradient_reuses_precomputed_forward():
    p = init_params([1, 8, 8, 1], seed=4)
    x = np.linspace(-1, 1, 13)
    loss_fn = quadratic_loss(np.linspace(0.5, 2, 13), np.linspace(2, 0.5, 13))
    loss, grad = loss_gradient(p, x, loss_fn)
    loss2, grad2 = loss_gradient(p, x, loss_fn, _forward(p, x))
    assert loss2 == loss
    for a, b in zip(grad.arrays(), grad2.arrays()):
        assert np.array_equal(a, b)


def test_loss_gradient_checks_a_precomputed_forward():
    p = init_params([1, 4, 1], seed=0)
    x = [0.1, 0.2, 0.3]
    u, du, tape = _forward(p, x)
    u = u.copy()
    u[1] = np.nan
    with pytest.raises(NumericalFailureError) as exc:
        loss_gradient(p, x, quadratic_loss(np.ones(3), np.ones(3)), (u, du, tape))
    assert exc.value.point == 0.2


def assert_flat_layout(p):
    # every array is a C-contiguous view into p.flat, in arrays() order
    assert p.flat.dtype == np.float64 and p.flat.flags.c_contiguous
    for a in p.arrays():
        assert np.shares_memory(p.flat, a) and a.flags.c_contiguous
    assert np.array_equal(np.concatenate([a.ravel() for a in p.arrays()]), p.flat)


def test_params_and_gradients_live_in_one_flat_buffer():
    p = init_params([1, 16, 16, 1], seed=2)
    assert_flat_layout(p)
    assert p.flat.size == 16 + 16 * 16 + 16 + 16 + 16 + 1
    x = np.linspace(-1, 1, 9)
    _, grad = loss_gradient(p, x, quadratic_loss(np.ones(9), np.ones(9)))
    assert_flat_layout(grad)
    # the constructors copy into a fresh buffer
    w = np.array([[2.0]])
    q = MlpParams([w], [np.zeros(1)])
    w[0, 0] = 3.0
    assert q.weights[0][0, 0] == 2.0
    assert_flat_layout(q)
    assert_flat_layout(ParamGradient([np.ones((2, 1)), np.ones((1, 2))],
                                     [np.zeros(2), np.zeros(1)]))
    c = p.copy()
    assert_flat_layout(c)
    assert not np.shares_memory(c.flat, p.flat)


def test_checkpoint_json_round_trip_is_unchanged():
    obj = params_to_jsonable(init_params([1, 16, 16, 1], seed=13))
    q = params_from_jsonable(obj)
    assert_flat_layout(q)
    assert params_to_jsonable(q) == obj


@pytest.mark.parametrize("where", ["u", "du", "gu", "gd"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("i", [0, 4, 6])
def test_nonfinite_entry_raises_at_its_point(where, bad, i):
    p = init_params([1, 4, 1], seed=0)
    x = np.linspace(-0.9, 0.9, 7)
    u, du, tape = _forward(p, x)
    u, du = u.copy(), du.copy()
    if where in ("u", "du"):
        (u if where == "u" else du)[i] = bad

    def loss_fn(u_, du_):
        gu, gd = np.ones_like(u_), np.ones_like(du_)
        if where in ("gu", "gd"):
            (gu if where == "gu" else gd)[i] = bad
        return 1.0, gu, gd

    with pytest.raises(NumericalFailureError) as exc:
        loss_gradient(p, x, loss_fn, (u, du, tape))
    assert exc.value.point == x[i]
    kind = "network output" if where in ("u", "du") else "loss derivative"
    assert str(exc.value) == f"non-finite {kind} at x_hat={float(x[i])!r}"


def test_first_nonfinite_entry_is_searched_in_order():
    # u before du, each from its first entry
    p = init_params([1, 4, 1], seed=0)
    x = np.linspace(-0.9, 0.9, 7)
    u, du, tape = _forward(p, x)
    u, du = u.copy(), du.copy()
    u[5] = np.inf
    du[1] = np.nan
    u[3] = np.nan
    with pytest.raises(NumericalFailureError) as exc:
        loss_gradient(p, x, quadratic_loss(np.ones(7), np.ones(7)), (u, du, tape))
    assert exc.value.point == x[3]


@pytest.mark.parametrize("w, b, x, gu, gd", [
    (1e308, 1e308, 0.5, 0.0, 0.0),      # u + du overflows
    (1.0, 0.0, -0.5, 1e308, 1e308),     # gu + gd overflows
    (1.0, 0.0, 0.5, 1e308, 0.9e308),    # the gradient's sum overflows
])
def test_finite_values_whose_sum_overflows_pass_silently(w, b, x, gu, gd):
    p = MlpParams([np.array([[w]])], [np.array([b])])

    def loss_fn(u, du):
        return 0.0, np.full_like(u, gu), np.full_like(du, gd)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        loss, grad = loss_gradient(p, [x], loss_fn)
    assert loss == 0.0
    assert np.all(np.isfinite(grad.flat))


def normwise_rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


layer_sizes = st.one_of(
    st.sampled_from([[1, 1], [1, 16, 1], [1, 16, 16, 1], [1, 3, 7, 2, 1]]),
    st.lists(st.integers(1, 20), max_size=4).map(lambda h: [1, *h, 1]))


@given(sizes=layer_sizes, n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.1, 2.0))
@settings(max_examples=150, deadline=None)
def test_network_matches_the_row_major_reference(sizes, n, seed, scale):
    rng = np.random.default_rng(seed)
    p = init_params(sizes, seed=seed)
    p.flat[:] = scale * rng.standard_normal(p.flat.size)
    x = rng.uniform(-1.5, 1.5, size=n)
    gu, gd = rng.standard_normal(n), rng.standard_normal(n)

    u, du, _ = _forward(p, x)
    u_ref, du_ref, tape_ref = reference.forward(p, x)
    for got in (u, du):
        assert got.shape == (n,) and got.flags.c_contiguous and got.flags.writeable
    assert normwise_rel(u, u_ref) <= 1e-12
    assert normwise_rel(du, du_ref) <= 1e-12

    _, grad = loss_gradient(p, x, lambda u_, du_: (0.0, gu, gd))
    grad_ref = reference.backward(p, tape_ref, gu, gd)
    assert normwise_rel(grad.flat, grad_ref) <= 1e-12

    values = eval_values(p, x)
    assert np.array_equal(values, u)
    assert normwise_rel(values, reference.values(p, x)) <= 1e-12
