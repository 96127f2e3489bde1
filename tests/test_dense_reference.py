"""The decomposed path against a dense reference built from the definitions.

The reference evaluates every network at every point (row-major oracle),
weights it by a dense J x N window matrix computed from the cosine-ramp
definition, takes the derivative by the product rule and the losses as
plain mean squares. It shares no code with the row table, routes, owner
split, overlap cache or window tables of fbpinn.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import row_major_network as reference
from fbpinn import networks
from fbpinn.decomposition import (Interval, build_decomposition,
                                  build_decomposition_from_width, sample_collocation)
from fbpinn.problems import SoftConstraint, make_single_frequency
from fbpinn.scheduling import (alternating_schedule, colored_schedule,
                               explicit_schedule, parallel_schedule)
from fbpinn.training import (create_state, global_loss, refresh_overlap_cache,
                             solution_values, train)

DOM = Interval(-2 * np.pi, 2 * np.pi)
REL = 1e-12
# more points than two network blocks, so that eval_values runs blocked
# for the coarse network and for the local networks of J <= 2
N_DENSE = 3 * networks._BLOCK + 5


def ramp(t):
    return (1.0 - np.cos(np.pi * np.clip(t, 0.0, 1.0))) / 2.0


def dramp(t):
    return np.where((t > 0.0) & (t < 1.0), 0.5 * np.pi * np.sin(np.pi * t), 0.0)


def dense_windows(dec, x):
    """(J, N) normalized windows and their x-derivatives: on each closed
    subdomain [left, right], the product of a cosine ramp rising over
    [left, left + delta] (none on the first subdomain) and one falling
    over [right - delta, right] (none on the last), zero outside it,
    divided by the sum over every subdomain."""
    J = dec.n_subdomains
    raw = np.zeros((J, len(x)))
    draw = np.zeros_like(raw)
    for j, (left, right) in enumerate(zip(dec.lefts, dec.rights)):
        inside = (x >= left) & (x <= right)
        v, dv = np.ones(len(x)), np.zeros(len(x))
        if j > 0:
            s, e = left, left + dec.delta
            t = (x - s) / (e - s)
            v, dv = ramp(t), dramp(t) / (e - s)
        if j < J - 1:
            s, e = right - dec.delta, right
            t = (e - x) / (e - s)
            v, dv = v * ramp(t), dv * ramp(t) - v * dramp(t) / (e - s)
        raw[j], draw[j] = np.where(inside, v, 0.0), np.where(inside, dv, 0.0)
    total, dtotal = raw.sum(axis=0), draw.sum(axis=0)
    return raw / total, (draw * total - raw * dtotal) / total ** 2


def dense_sum(state, x):
    """Raw ansatz v and v' at x: every local network weighted by its window,
    plus the coarse network."""
    win, dwin = dense_windows(state.decomposition, x)
    v, dv = np.zeros(len(x)), np.zeros(len(x))
    for j, (sd, params) in enumerate(zip(state.decomposition.subdomains, state.params)):
        hw = 0.5 * (sd.right - sd.left)
        u, du, _ = reference.forward(params, (x - 0.5 * (sd.left + sd.right)) / hw)
        v += win[j] * u
        dv += dwin[j] * u + win[j] * du / hw
    if state.coarse_params is not None:
        hw = 0.5 * DOM.width
        u, du, _ = reference.forward(state.coarse_params, (x - DOM.midpoint) / hw)
        v += u
        dv += du / hw
    return v, dv


def dense_loss(state):
    """(total, interior, overlap, boundary) from the definitions."""
    prob, dec = state.problem, state.decomposition
    x = state.tables.x
    v, dv = dense_sum(state, x)
    if prob.constraint.kind == "hard":
        r = prob.constraint.multiplier_prime(x) * v + prob.constraint.multiplier(x) * dv
        boundary = 0.0
    else:
        r = dv
        xb = np.asarray(prob.constraint.points, dtype=float)
        err = dense_sum(state, xb)[0] - np.asarray(prob.constraint.targets)
        boundary = prob.constraint.weight * np.mean(err * err)
    r = r - prob.rhs(x)
    holders = sum((x >= left) & (x <= right) for left, right in zip(dec.lefts, dec.rights))
    sq = r * r / len(x)
    return sq.sum() + boundary, sq[holders == 1].sum(), sq[holders >= 2].sum(), boundary


def dense_solution(state, x):
    v, _ = dense_sum(state, x)
    if state.problem.constraint.kind == "hard":
        return state.problem.constraint.multiplier(x) * v
    return v


def close(got, want):
    return abs(got - want) <= REL * abs(want)


def check_against_dense(state, xs):
    got = global_loss(state)
    total, interior, overlap, boundary = dense_loss(state)
    assert close(got.total, total)
    assert close(got.interior, interior)
    assert close(got.overlap, overlap)
    assert close(got.boundary, boundary)
    # the split sums to the total
    assert close(got.interior + got.overlap + got.boundary, got.total)
    values, want = solution_values(state, xs), dense_solution(state, xs)
    assert np.linalg.norm(values - want) <= REL * np.linalg.norm(want)


@st.composite
def setups(draw):
    J = draw(st.integers(1, 8))
    if draw(st.booleans()):
        dec = build_decomposition(DOM, J, draw(st.floats(0.05, 0.95)))
    else:
        # widths up to 5h, where a point lies in up to six subdomains
        dec = build_decomposition_from_width(DOM, J, draw(st.floats(1.05, 5.0)) * DOM.width / J)
    soft = draw(st.booleans())
    constraint = None
    if soft:
        # some points on a subdomain edge: the window is 0 there, yet the
        # closed interval holds the point
        edges = [e for sd in dec.subdomains for e in (sd.left, sd.right)]
        n_bc = draw(st.integers(1, 3))
        points = tuple(draw(st.one_of(st.sampled_from(edges),
                                      st.floats(DOM.a, DOM.b)))
                       for _ in range(n_bc))
        targets = tuple(draw(st.floats(-1.0, 1.0)) for _ in range(n_bc))
        constraint = SoftConstraint(points, targets, draw(st.floats(0.5, 3.0)))
    kind = draw(st.sampled_from(["parallel", "alternating", "colored", "explicit"]))
    if kind == "parallel":
        schedule = parallel_schedule(J)
    elif kind == "alternating":
        schedule = alternating_schedule(J)
    elif kind == "colored":
        colors = draw(st.lists(st.integers(0, 2), min_size=J, max_size=J))
        schedule = colored_schedule(J, [[j + 1 for j in range(J) if colors[j] == c]
                                        for c in sorted(set(colors))])
    else:
        subsets = st.sets(st.integers(1, J), min_size=1)
        schedule = explicit_schedule(J, draw(st.lists(subsets, min_size=1, max_size=3)))
    return dict(dec=dec, constraint=constraint, schedule=schedule,
                coarse=draw(st.booleans()), p=draw(st.integers(1, 3)),
                rounds=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32 - 1)))


def wide_examples(test):
    """test, with the widths 2.9h, 3.5h and 4.5h of J = 7 (up to 3, 4 and
    5 holders per point) always among its examples, with and without a
    coarse network."""
    for stretch in (2.9, 3.5, 4.5):
        for coarse in (False, True):
            dec = build_decomposition_from_width(DOM, 7, stretch * DOM.width / 7)
            schedule = alternating_schedule(7) if coarse else parallel_schedule(7)
            test = example(setup=dict(dec=dec, constraint=None, schedule=schedule,
                                      coarse=coarse, p=2, rounds=3, seed=7))(test)
    return test


@given(setup=setups())
@wide_examples
@settings(max_examples=30, deadline=None)
def test_decomposed_path_matches_the_dense_reference(setup):
    prob = make_single_frequency(3.0, DOM)
    if setup["constraint"] is not None:
        prob = prob.with_constraint(setup["constraint"])
    state = create_state(prob, setup["dec"], sample_collocation(DOM, 48),
                         layer_sizes=[1, 5, 5, 1], communication_interval=setup["p"],
                         learning_rate=1e-2, master_seed=setup["seed"] % 1000,
                         coarse_layer_sizes=[1, 6, 1] if setup["coarse"] else None)
    rng = np.random.default_rng(setup["seed"])
    for params in state.params + ([state.coarse_params] if setup["coarse"] else []):
        params.flat[:] = 0.5 * rng.standard_normal(params.flat.size)
    state.cache = refresh_overlap_cache(state)
    xs = np.concatenate([rng.uniform(DOM.a, DOM.b, N_DENSE),
                         [sd.left for sd in setup["dec"].subdomains]])
    check_against_dense(state, xs)

    train(state, setup["schedule"], setup["rounds"], record_interval=2)
    fresh = refresh_overlap_cache(state)
    assert np.array_equal(state.cache.values, fresh.values)
    assert np.array_equal(state.cache.dvalues, fresh.dvalues)
    check_against_dense(state, xs)
