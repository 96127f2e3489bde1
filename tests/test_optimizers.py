import numpy as np
import pytest

from fbpinn.networks import MlpParams, ParamGradient
from fbpinn.optimizers import Adam, GradientDescent, make_optimizer


def tiny_params(w=1.0, b=0.5):
    return MlpParams([np.array([[w]])], [np.array([b])])


def tiny_grad(gw, gb):
    return ParamGradient([np.array([[gw]])], [np.array([gb])])


def test_gradient_descent_update():
    p = tiny_params(1.0, 0.5)
    GradientDescent(0.1).step(p, tiny_grad(2.0, -4.0))
    assert p.weights[0][0, 0] == 1.0 - 0.1 * 2.0
    assert p.biases[0][0] == 0.5 + 0.1 * 4.0


def test_gradient_descent_updates_in_place():
    p = tiny_params()
    w_ref = p.weights[0]
    GradientDescent(1.0).step(p, tiny_grad(1.0, 1.0))
    assert p.weights[0] is w_ref


def test_adam_first_step_bias_corrected():
    # with bias correction the first update is lr * g / (|g| + eps)
    p = tiny_params(0.0, 0.0)
    opt = Adam(learning_rate=0.1)
    g = 2.0
    opt.step(p, tiny_grad(g, -g))
    expected = 0.1 * g / (abs(g) + opt.eps)
    assert p.weights[0][0, 0] == pytest.approx(-expected, rel=1e-12)
    assert p.biases[0][0] == pytest.approx(expected, rel=1e-12)


def test_adam_constant_gradient_two_steps():
    # constant gradient keeps mhat = g and vhat = g^2 after correction
    p = tiny_params(0.0, 0.0)
    opt = Adam(learning_rate=0.05)
    for _ in range(2):
        opt.step(p, tiny_grad(3.0, 0.0))
    step = 0.05 * 3.0 / (3.0 + opt.eps)
    assert p.weights[0][0, 0] == pytest.approx(-2 * step, rel=1e-9)
    assert p.biases[0][0] == 0.0
    assert opt.t == 2


def test_adam_moment_reference_oracle():
    # replay the update rule independently for a random gradient sequence
    rng = np.random.default_rng(0)
    p = tiny_params(0.3, -0.2)
    opt = Adam(learning_rate=0.01)
    theta = np.array([0.3, -0.2])
    m = np.zeros(2)
    v = np.zeros(2)
    for t in range(1, 6):
        g = rng.normal(size=2)
        opt.step(p, tiny_grad(g[0], g[1]))
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        theta = theta - 0.01 * mhat / (np.sqrt(vhat) + opt.eps)
        assert p.weights[0][0, 0] == pytest.approx(theta[0], rel=1e-12)
        assert p.biases[0][0] == pytest.approx(theta[1], rel=1e-12)


def test_adam_flat_moments_match_per_array_update_bitwise():
    # the update written per parameter array, as before the moments were
    # flattened: the same elementwise ops, so the same bits
    from fbpinn.networks import init_params
    rng = np.random.default_rng(3)
    p = init_params([1, 5, 4, 1], seed=2)
    ref = p.copy()
    m = [np.zeros_like(a) for a in ref.arrays()]
    v = [np.zeros_like(a) for a in ref.arrays()]
    opt = Adam(learning_rate=0.01)
    for t in range(1, 6):
        g = ParamGradient([rng.normal(size=w.shape) for w in p.weights],
                          [rng.normal(size=b.shape) for b in p.biases])
        opt.step(p, g)
        c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        for a, ga, ma, va in zip(ref.arrays(), g.arrays(), m, v):
            ma *= 0.9
            ma += (1.0 - 0.9) * ga
            va *= 0.999
            va += (1.0 - 0.999) * (ga * ga)
            a -= 0.01 * (ma / c1) / (np.sqrt(va / c2) + opt.eps)
        for a, b in zip(p.arrays(), ref.arrays()):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("make", [lambda: Adam(0.01), lambda: GradientDescent(0.01)])
def test_steps_update_the_flat_buffer_in_place(make):
    from fbpinn.networks import init_params, loss_gradient
    p = init_params([1, 6, 6, 1], seed=1)
    flat = p.flat
    x = np.linspace(-1, 1, 11)

    def loss_fn(u, du):
        return float(u @ u + du @ du), 2 * u, 2 * du

    opt = make()
    before = flat.copy()
    for _ in range(3):
        _, grad = loss_gradient(p, x, loss_fn)
        opt.step(p, grad)
    assert p.flat is flat and not np.array_equal(flat, before)
    for a in p.arrays():
        assert np.shares_memory(flat, a)
    assert np.array_equal(np.concatenate([a.ravel() for a in p.arrays()]), flat)


def test_make_optimizer():
    assert isinstance(make_optimizer("adam", 1e-3), Adam)
    assert isinstance(make_optimizer("sgd", 1e-3), GradientDescent)
    with pytest.raises(ValueError):
        make_optimizer("rmsprop", 1e-3)
