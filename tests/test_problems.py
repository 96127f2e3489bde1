import numpy as np
import pytest

from fbpinn.decomposition import Interval
from fbpinn.problems import (HardConstraint, SoftConstraint, make_single_frequency,
                             make_two_frequency, tanh_constraint)

DOM = Interval(-2 * np.pi, 2 * np.pi)


def test_single_frequency_definition():
    prob = make_single_frequency(15.0, DOM)
    xs = np.linspace(DOM.a, DOM.b, 101)
    np.testing.assert_allclose(prob.rhs(xs), np.cos(15 * xs), rtol=1e-15)
    np.testing.assert_allclose(prob.exact_solution(xs), np.sin(15 * xs) / 15,
                               rtol=1e-15)
    assert prob.exact_solution(0.0) == 0.0
    assert prob.constraint.kind == "hard"


def test_two_frequency_definition():
    prob = make_two_frequency(1.0, 15.0, DOM)
    xs = np.linspace(DOM.a, DOM.b, 101)
    np.testing.assert_allclose(prob.rhs(xs),
                               np.cos(xs) + 15 * np.cos(15 * xs), rtol=1e-15)
    np.testing.assert_allclose(prob.exact_solution(xs),
                               np.sin(xs) + np.sin(15 * xs), rtol=1e-14, atol=1e-15)


def test_exact_solution_satisfies_ode():
    # d(exact)/dx by finite differences equals the stated rhs
    h = 1e-6
    for prob in (make_single_frequency(15.0, DOM),
                 make_two_frequency(1.0, 15.0, DOM)):
        xs = np.linspace(-5.0, 5.0, 37)
        fd = (prob.exact_solution(xs + h) - prob.exact_solution(xs - h)) / (2 * h)
        np.testing.assert_allclose(fd, prob.rhs(xs), rtol=1e-7, atol=1e-7)


def test_problem_constructors_reject_bad_input():
    with pytest.raises(ValueError):
        make_single_frequency(0.0, DOM)
    with pytest.raises(ValueError):
        make_two_frequency(1.0, 0.0, DOM)
    with pytest.raises(ValueError):
        make_single_frequency(15.0, Interval(1.0, 2.0))


def constrained(constraint, x, u, du):
    """Product rule on arrays: (c u, c' u + c du/dx) from a raw pair."""
    c = np.asarray(constraint.multiplier(x), dtype=float)
    dc = np.asarray(constraint.multiplier_prime(x), dtype=float)
    return c * u, dc * u + c * du


def test_tanh_constraint_pins_origin():
    u, du = np.array([1.0, -3.7, 1e6]), np.array([0.0, 12.0, -1e6])
    value, _ = constrained(tanh_constraint(), np.zeros(3), u, du)
    assert np.all(value == 0.0)


def test_constraint_product_rule():
    value, dvalue = constrained(tanh_constraint(), np.array([0.3]),
                                np.array([2.0]), np.array([5.0]))
    t = np.tanh(0.3)
    assert value[0] == pytest.approx(t * 2.0, rel=1e-15)
    assert dvalue[0] == pytest.approx((1 - t * t) * 2.0 + t * 5.0, rel=1e-15)


def test_constraint_derivative_vs_finite_differences():
    # constant raw pair (u, 0): d(c u)/dx = c'(x) u
    c = tanh_constraint()
    h = 1e-6
    xs = np.array([-2.0, -0.4, 0.0, 0.7, 3.1])
    _, got = constrained(c, xs, np.ones(5), np.zeros(5))
    fd = (np.tanh(xs + h) - np.tanh(xs - h)) / (2 * h)
    np.testing.assert_allclose(got, fd, rtol=1e-8, atol=1e-9)


@pytest.mark.parametrize("kw, match", [
    # no boundary point: the penalty would divide by zero at the first loss
    ({"points": (), "targets": ()}, "at least one boundary point"),
    # more points than targets: IndexError inside train
    ({"points": (0.0, 3.0), "targets": (0.0,)}, "2 points but 1 targets"),
    # more targets than points: the extra target was silently ignored
    ({"points": (0.0,), "targets": (0.0, 1.0)}, "1 points but 2 targets"),
    # a nan target failed mid-training as a NumericalFailureError
    ({"points": (0.0,), "targets": (np.nan,)}, "must be finite"),
    ({"points": (np.inf,), "targets": (0.0,)}, "must be finite"),
    ({"points": (0.0,), "targets": (0.0,), "weight": 0.0}, "weight must be finite and > 0"),
    ({"points": (0.0,), "targets": (0.0,), "weight": -1.0}, "weight must be finite and > 0"),
    ({"points": (0.0,), "targets": (0.0,), "weight": np.inf}, "weight must be finite and > 0"),
    ({"points": (0.0,), "targets": (0.0,), "weight": np.nan}, "weight must be finite and > 0"),
], ids=["empty", "extra-point", "extra-target", "nan-target", "inf-point",
        "zero-weight", "negative-weight", "inf-weight", "nan-weight"])
def test_soft_constraint_rejects_invalid_input(kw, match):
    with pytest.raises(ValueError, match=match):
        SoftConstraint(**kw)


def test_with_constraint_swaps_only_constraint():
    prob = make_single_frequency(2.0, DOM)
    soft = SoftConstraint(points=(0.0,), targets=(0.0,))
    swapped = prob.with_constraint(soft)
    assert swapped.constraint.kind == "soft"
    assert swapped.rhs is prob.rhs
    assert prob.constraint.kind == "hard"


def test_hard_constraint_callables_vectorize():
    c = HardConstraint(np.tanh, lambda x: 1.0 - np.tanh(x) ** 2)
    xs = np.linspace(-1, 1, 5)
    np.testing.assert_allclose(c.multiplier(xs), np.tanh(xs))
    np.testing.assert_allclose(c.multiplier_prime(xs), 1 - np.tanh(xs) ** 2)
