"""First-order 1D ODE instances du/dx = f(x) with u(0) = 0.

The boundary condition is enforced either through a hard multiplicative
constraint (solution ansatz c(x) * u(x) with c = tanh vanishing at 0) or as
an optional soft penalty on boundary values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .decomposition import Interval


@dataclass(frozen=True)
class HardConstraint:
    """Multiplicative constraint c(x); both callables vectorize over x."""

    multiplier: object
    multiplier_prime: object
    points, targets, weight = (), (), 0.0     # no soft boundary points, no penalty

    @property
    def kind(self):
        return "hard"


@dataclass(frozen=True)
class SoftConstraint:
    """One boundary condition group: penalty weight * mean squared error of
    the raw solution against targets at the given points. Needs at least
    one point, one target per point, finite values and a finite weight > 0."""

    points: tuple
    targets: tuple
    weight: float = 1.0
    multiplier = staticmethod(np.ones_like)       # c = 1: the ansatz is the raw sum
    multiplier_prime = staticmethod(np.zeros_like)

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("soft constraint needs at least one boundary point")
        if len(self.points) != len(self.targets):
            raise ValueError(f"soft constraint has {len(self.points)} points "
                             f"but {len(self.targets)} targets")
        values = np.asarray([*self.points, *self.targets], dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("soft constraint points and targets must be finite")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"soft constraint weight must be finite and > 0, "
                             f"got {self.weight!r}")

    @property
    def kind(self):
        return "soft"


def tanh_constraint():
    return HardConstraint(np.tanh, lambda x: 1.0 - np.tanh(x) ** 2)


def identity_constraint():
    """c = 1 everywhere; turns the constrained residual into the raw one.
    Test hook, not used by the shipped problems."""
    return HardConstraint(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                          lambda x: np.zeros_like(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class OdeProblem:
    domain: Interval
    rhs: object
    frequencies: tuple
    exact_solution: object
    exact_derivative: object
    constraint: object

    def with_constraint(self, constraint):
        return replace(self, constraint=constraint)


def _check_domain(domain):
    if not domain.contains(0.0):
        raise ValueError(
            f"domain [{domain.a}, {domain.b}] must contain 0 where the solution is pinned")


class UndefinedL2Error(ValueError):
    """The exact solution's L2 norm on the error grid is 0 or not finite,
    so the relative L2 error would be infinite or NaN."""


def _exact_on_error_grid(problem, x):
    """The exact solution at the relative L2 error's grid points x;
    UndefinedL2Error when its norm there underflows to 0 or overflows."""
    with np.errstate(invalid="ignore", over="ignore"):
        exact = np.asarray(problem.exact_solution(x), dtype=float)
        norm = float(np.linalg.norm(exact))
    if not 0.0 < norm < math.inf:
        raise UndefinedL2Error(f"the exact solution's L2 norm on the {len(x)}-point "
                               f"error grid is {norm!r}, so the relative L2 error "
                               f"is undefined")
    return exact


def make_single_frequency(omega, domain):
    """du/dx = cos(omega x), u(0) = 0, exact solution sin(omega x)/omega."""
    if omega == 0:
        raise ValueError("omega must be nonzero")
    _check_domain(domain)
    w = float(omega)
    return OdeProblem(
        domain=domain,
        rhs=lambda x: np.cos(w * np.asarray(x, dtype=float)),
        frequencies=(w,),
        exact_solution=lambda x: np.sin(w * np.asarray(x, dtype=float)) / w,
        exact_derivative=lambda x: np.cos(w * np.asarray(x, dtype=float)),
        constraint=tanh_constraint(),
    )


def make_two_frequency(omega1, omega2, domain):
    """du/dx = w1 cos(w1 x) + w2 cos(w2 x), exact solution sin(w1 x) + sin(w2 x)."""
    if omega1 == 0 or omega2 == 0:
        raise ValueError("frequencies must be nonzero")
    _check_domain(domain)
    w1, w2 = float(omega1), float(omega2)

    def rhs(x):
        x = np.asarray(x, dtype=float)
        return w1 * np.cos(w1 * x) + w2 * np.cos(w2 * x)

    def exact(x):
        x = np.asarray(x, dtype=float)
        return np.sin(w1 * x) + np.sin(w2 * x)

    return OdeProblem(domain=domain, rhs=rhs, frequencies=(w1, w2),
                      exact_solution=exact, exact_derivative=rhs,
                      constraint=tanh_constraint())
