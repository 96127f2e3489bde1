import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from fbpinn import networks, training
from fbpinn.decomposition import (Interval, TripleOverlapError,
                                  build_decomposition,
                                  build_decomposition_from_width,
                                  classify_points, empty_subdomains,
                                  sample_collocation, window)
from fbpinn.networks import NumericalFailureError, eval_batch, loss_gradient
from fbpinn.problems import SoftConstraint, make_single_frequency, tanh_constraint
from fbpinn.scheduling import (active_set, alternating_schedule,
                               colored_schedule, parallel_schedule)
from fbpinn.optimizers import make_optimizer
from fbpinn.training import (create_state, global_loss, local_loss,
                             refresh_overlap_cache, solution_values, train,
                             train_coarse_then_local, train_pinn, train_round,
                             _stale_breakdown, RunReport)

from plain_pinn import train_plain

DOM = Interval(-2 * np.pi, 2 * np.pi)


def small_state(n_sub=2, n_pts=60, seed=0, omega=3.0, **kw):
    prob = make_single_frequency(omega, DOM)
    dec = build_decomposition(DOM, n_sub, kw.pop("overlap_fraction", 0.7))
    pts = sample_collocation(DOM, n_pts)
    return create_state(prob, dec, pts, layer_sizes=kw.pop("layer_sizes", [1, 6, 1]),
                        master_seed=seed, **kw)


def snapshot(params_list):
    return [[a.copy() for a in p.arrays()] for p in params_list]


def same_params(snap, params_list):
    return all(np.array_equal(a, b)
               for s, p in zip(snap, params_list)
               for a, b in zip(s, p.arrays()))


def manual_raw_global(state, x):
    """Window-weighted sum recomputed from scratch, no workspaces."""
    value = dvalue = 0.0
    if state.coarse_params is not None:
        c, hw = state.coarse_norm
        u, du = eval_batch(state.coarse_params, [(x - c) / hw])
        value += u[0]
        dvalue += du[0] / hw
    for j in range(1, state.n_subdomains + 1):
        sd = state.decomposition.subdomains[j - 1]
        if not sd.contains(x):
            continue
        w, dw = window(state.decomposition, j, x)
        c, hw = sd.center, 0.5 * sd.width
        u, du = eval_batch(state.params[j - 1], [(x - c) / hw])
        value += w * u[0]
        dvalue += dw * u[0] + w * du[0] / hw
    return value, dvalue


def manual_global_loss(state):
    """Mean squared constrained residual straight from the definition."""
    pts = state.tables.x
    prob = state.problem
    acc = 0.0
    for x in pts:
        v, dv = manual_raw_global(state, x)
        c = float(prob.constraint.multiplier(x))
        dc = float(prob.constraint.multiplier_prime(x))
        r = dc * v + c * dv - float(prob.rhs(x))
        acc += r * r
    return acc / len(pts)


def test_evaluate_global_matches_manual_sum():
    state = small_state(n_sub=3, n_pts=40, seed=2)
    rng = np.random.default_rng(0)
    xs = rng.uniform(DOM.a, DOM.b, size=25)
    got = solution_values(state, xs)
    for k, x in enumerate(xs):
        mv, _ = manual_raw_global(state, x)
        want = float(state.problem.constraint.multiplier(x)) * mv
        assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-14)
    with pytest.raises(ValueError):
        solution_values(state, [DOM.b + 1.0])


def test_global_loss_zero_networks_equals_mean_squared_rhs():
    state = small_state(n_sub=4, n_pts=80)
    for p in state.params:
        for a in p.arrays():
            a[:] = 0.0
    state.cache = refresh_overlap_cache(state)
    bd = global_loss(state)
    rhs = state.problem.rhs(state.tables.x)
    assert bd.total == pytest.approx(float(np.mean(rhs ** 2)), rel=1e-15)
    assert bd.boundary == 0.0


def test_global_loss_matches_manual_definition():
    state = small_state(n_sub=3, n_pts=50, seed=7)
    bd = global_loss(state)
    assert bd.total == pytest.approx(manual_global_loss(state), rel=1e-12)


def test_loss_split_identity():
    # interior + overlap = total, across subdomain counts and seeds
    for n_sub, seed in ((1, 0), (2, 1), (5, 2), (8, 3)):
        state = small_state(n_sub=n_sub, n_pts=70, seed=seed)
        bd = global_loss(state)
        assert bd.total == pytest.approx(bd.interior + bd.overlap, rel=1e-12)
        assert bd.interior == pytest.approx(sum(bd.per_subdomain_interior), rel=1e-12)
        if n_sub == 1:
            assert bd.overlap == 0.0


def test_cache_background_zero_without_neighbors():
    state = small_state(n_sub=1, n_pts=30)
    assert np.all(state.cache.values[0] == 0.0)
    assert np.all(state.cache.dvalues[0] == 0.0)


def test_cache_holds_neighbor_weighted_sum():
    state = small_state(n_sub=2, n_pts=60, seed=5)
    ws = state.workspaces[0]
    cache = state.cache
    for pos, x in enumerate(ws.x):
        w2, dw2 = window(state.decomposition, 2, x)
        if w2 == 0.0:
            assert cache.values[0][pos] == 0.0
            assert cache.dvalues[0][pos] == 0.0
            continue
        sd = state.decomposition.subdomains[1]
        c, hw = sd.center, 0.5 * sd.width
        u, du = eval_batch(state.params[1], [(x - c) / hw])
        assert cache.values[0][pos] == pytest.approx(w2 * u[0], rel=1e-13)
        assert cache.dvalues[0][pos] == pytest.approx(
            dw2 * u[0] + w2 * du[0] / hw, rel=1e-12, abs=1e-13)


def test_cache_coherent_with_global_loss_after_refresh():
    for n_sub in (1, 2, 6):
        state = small_state(n_sub=n_sub, n_pts=90, seed=n_sub)
        fresh = global_loss(state)
        stale = _stale_breakdown(state)
        assert stale.total == pytest.approx(fresh.total, rel=1e-12)
        assert stale.interior == pytest.approx(fresh.interior, rel=1e-12)
        assert stale.overlap == pytest.approx(fresh.overlap, rel=1e-12, abs=1e-15)


def test_local_loss_single_subdomain_is_global_total():
    state = small_state(n_sub=1, n_pts=40, seed=9)
    assert local_loss(state, 1) == pytest.approx(global_loss(state).total, rel=1e-13)


def test_local_loss_manual_two_subdomains():
    # subdomain 1's member residuals with subdomain 2 frozen from the cache,
    # normalized by the global point count
    state = small_state(n_sub=2, n_pts=50, seed=3)
    prob = state.problem
    n = len(state.tables.x)
    ws = state.workspaces[0]
    sd = state.decomposition.subdomains[0]
    c, hw = sd.center, 0.5 * sd.width
    acc = 0.0
    for pos, x in enumerate(ws.x):
        w1, dw1 = window(state.decomposition, 1, x)
        u, du = eval_batch(state.params[0], [(x - c) / hw])
        v = w1 * u[0] + state.cache.values[0][pos]
        dv = dw1 * u[0] + w1 * du[0] / hw + state.cache.dvalues[0][pos]
        cm = float(prob.constraint.multiplier(x))
        dcm = float(prob.constraint.multiplier_prime(x))
        r = dcm * v + cm * dv - float(prob.rhs(x))
        acc += r * r
    assert local_loss(state, 1) == pytest.approx(acc / n, rel=1e-12)


@pytest.mark.parametrize("kind", ["hard", "soft", "soft-multi", "coarse"])
def test_local_gradient_matches_finite_differences(kind):
    # the closure's d(residual)/du and d(residual)/d(du) against central
    # differences of local_loss in every parameter of network 2
    make = {"hard": small_state, "soft": soft_state,
            "soft-multi": soft_multi_state, "coarse": coarse_state}[kind]
    state = make(n_sub=3, n_pts=40, seed=4)
    inputs, loss_fn = training._make_local_loss_fn(state, 2, state.cache)
    loss, grad = loss_gradient(state.params[1], inputs, loss_fn)
    assert loss == pytest.approx(local_loss(state, 2), rel=1e-13)
    h = 1e-6
    for a, g in zip(state.params[1].arrays(), grad.arrays()):
        for idx in np.ndindex(a.shape):
            orig = a[idx]
            a[idx] = orig + h
            up = local_loss(state, 2)
            a[idx] = orig - h
            down = local_loss(state, 2)
            a[idx] = orig
            assert g[idx] == pytest.approx((up - down) / (2 * h), rel=1e-5, abs=1e-9)


def test_inactive_parameters_bitwise_frozen():
    state = small_state(n_sub=4, n_pts=60)
    sched = alternating_schedule(4)
    for r in range(8):
        active = (r % 4) + 1
        before = snapshot(state.params)
        train_round(state, active_set(sched, r))
        for j in range(4):
            if j + 1 == active:
                assert not same_params([before[j]], [state.params[j]])
            else:
                assert same_params([before[j]], [state.params[j]])


def test_colored_schedule_trains_only_active_group():
    state = small_state(n_sub=4, n_pts=60, seed=1)
    sched = colored_schedule(4, [[1, 3], [2, 4]])
    before = snapshot(state.params)
    train(state, sched, 1, record_interval=100)
    assert not same_params([before[0]], [state.params[0]])
    assert same_params([before[1]], [state.params[1]])
    assert not same_params([before[2]], [state.params[2]])
    assert same_params([before[3]], [state.params[3]])


def test_zero_learning_rate_leaves_parameters():
    state = small_state(n_sub=2, n_pts=40, optimizer="sgd", learning_rate=0.0)
    before = snapshot(state.params)
    train(state, parallel_schedule(2), 3, record_interval=1)
    assert same_params(before, state.params)
    assert state.step == 3 and state.round == 3


def test_small_sgd_step_decreases_loss():
    state = small_state(n_sub=2, n_pts=60, optimizer="sgd", learning_rate=1e-4)
    start = global_loss(state).total
    train(state, parallel_schedule(2), 5, record_interval=100)
    assert global_loss(state).total < start


def test_communication_interval_counts_steps_per_round():
    state = small_state(n_sub=2, n_pts=40, communication_interval=5)
    rep = train(state, parallel_schedule(2), 2, record_interval=100)
    assert state.step == 10
    assert state.round == 2
    assert state.cache.round_refreshed == 2
    assert rep.phases == {"fbpinn": 10}


def test_record_bookkeeping():
    state = small_state(n_sub=2, n_pts=40)
    rep = train(state, parallel_schedule(2), 25, record_interval=10)
    assert [r.step for r in rep.records] == [10, 20, 25]
    assert all(r.phase == "fbpinn" for r in rep.records)
    assert rep.initial_loss is not None
    assert rep.solution_x is not None and len(rep.solution_x) == 400
    state2 = small_state(n_sub=2, n_pts=40)
    rep2 = train(state2, parallel_schedule(2), 30, record_interval=10,
                 l2_points=77)
    assert [r.step for r in rep2.records] == [10, 20, 30]
    assert len(rep2.solution_x) == 77


def test_train_validation_errors():
    state = small_state(n_sub=2)
    with pytest.raises(ValueError):
        train(state, parallel_schedule(2), 0)
    with pytest.raises(ValueError):
        train(state, parallel_schedule(2), 1, record_interval=0)
    with pytest.raises(ValueError):
        train(state, parallel_schedule(3), 1)


def test_create_state_validation():
    prob = make_single_frequency(3.0, DOM)
    dec = build_decomposition(Interval(-1.0, 1.0), 2, 0.5)
    with pytest.raises(ValueError):
        create_state(prob, dec, [0.0, 0.5], layer_sizes=[1, 4, 1])
    dec2 = build_decomposition(DOM, 2, 0.5)
    with pytest.raises(ValueError):
        create_state(prob, dec2, sample_collocation(DOM, 10),
                     layer_sizes=[1, 4, 1], communication_interval=0)


def test_create_state_rejects_subdomains_without_points():
    prob = make_single_frequency(3.0, DOM)
    dec = build_decomposition(DOM, 8, 0.7)
    pts = sample_collocation(DOM, 3)
    empty = [j for j, sd in enumerate(dec.subdomains, 1)
             if not any(sd.contains(x) for x in pts)]
    assert empty and empty_subdomains(dec, pts) == empty
    with pytest.raises(ValueError, match=rf"subdomains \[{', '.join(map(str, empty))}\]"):
        create_state(prob, dec, pts, layer_sizes=[1, 4, 1])


MEMBERSHIP_DOM = Interval(-4.0, 4.0)


@given(data=st.data(), n_sub=st.integers(1, 9),
       overlap=st.one_of(st.floats(0.05, 0.95), st.just("2h")),
       soft=st.lists(st.floats(-4.0, 4.0), max_size=4))
@settings(max_examples=150, deadline=None)
def test_create_state_tables_agree_with_classify_points(data, n_sub, overlap, soft):
    # width 2h makes non-adjacent subdomains touch, so a point can be held
    # three times
    try:
        dec = build_decomposition(MEMBERSHIP_DOM, n_sub, overlap) if overlap != "2h" \
            else build_decomposition_from_width(MEMBERSHIP_DOM, n_sub, 16.0 / n_sub)
    except TripleOverlapError:
        reject()
    edges = [e for sd in dec.subdomains for e in (sd.left, sd.right)]
    pts = np.array(data.draw(st.lists(
        st.one_of(st.floats(-4.0, 4.0), st.sampled_from(edges)), min_size=1, max_size=40)))
    prob = make_single_frequency(3.0, MEMBERSHIP_DOM)
    if soft:
        prob = prob.with_constraint(SoftConstraint(tuple(soft), tuple(0.0 for _ in soft)))
    empty = empty_subdomains(dec, pts)
    if empty:
        with pytest.raises(ValueError, match=rf"^subdomains {re.escape(str(empty))} hold"):
            create_state(prob, dec, pts, layer_sizes=[1, 2, 1])
        return
    sets = classify_points(dec, pts)
    state = create_state(prob, dec, pts, layer_sizes=[1, 2, 1])
    interior = np.zeros(len(pts), dtype=bool)
    overlapping = np.zeros(len(pts), dtype=bool)
    for j, ws in enumerate(state.workspaces):
        interior[sets.interior[j]] = True
        overlapping[sets.overlap[j]] = True
        assert np.array_equal(ws.point_ids, sets.members[j])
        assert np.array_equal(ws.overlap_mask, np.isin(ws.point_ids, sets.overlap[j]))
    assert np.array_equal(state.tables.interior_mask, interior)
    assert np.array_equal(state.tables.overlap_mask, overlapping)


def test_numerical_failure_carries_location_and_report():
    # huge step blows the solution up by the second optimizer step
    state = small_state(n_sub=2, n_pts=40, optimizer="sgd", learning_rate=1e300)
    with pytest.raises(NumericalFailureError) as exc:
        train(state, parallel_schedule(2), 5, record_interval=1)
    err = exc.value
    assert err.subdomain in (1, 2)
    assert err.step is not None and err.step >= 1
    assert isinstance(err.report, RunReport)
    assert err.report.initial_loss is not None


def test_train_round_numerical_failure_location():
    state = small_state(n_sub=3, n_pts=40)
    state.params[1].weights[0][0, 0] = np.inf
    with pytest.raises(NumericalFailureError) as exc:
        train_round(state, active_set(parallel_schedule(3), 0))
    assert exc.value.subdomain == 2
    assert exc.value.step == 1


def test_solution_pinned_at_origin():
    state = small_state(n_sub=3, n_pts=50, seed=11)
    vals = solution_values(state, np.array([0.0, 1.0]))
    assert vals[0] == 0.0
    train(state, parallel_schedule(3), 2, record_interval=100)
    assert solution_values(state, np.array([0.0]))[0] == 0.0


def test_single_subdomain_matches_plain_network_training():
    # same seed, same point set: the two code paths must agree step for step
    prob = make_single_frequency(3.0, DOM)
    pts = sample_collocation(DOM, 80)
    dec = build_decomposition(DOM, 1, 0.7)
    state = create_state(prob, dec, pts, layer_sizes=[1, 8, 1], master_seed=4)
    rep_f = train(state, parallel_schedule(1), 50, record_interval=5,
                  l2_points=200)
    rep_p = train_pinn(prob, pts, layer_sizes=[1, 8, 1], steps=50, seed=5,
                       record_interval=5, l2_points=200)
    assert rep_f.initial_loss == pytest.approx(rep_p.initial_loss, rel=1e-12)
    assert len(rep_f.records) == len(rep_p.records)
    for a, b in zip(rep_f.records, rep_p.records):
        assert a.step == b.step
        assert a.total == pytest.approx(b.total, rel=1e-10)
        assert a.l2_error == pytest.approx(b.l2_error, rel=1e-10)


def test_train_pinn_descends_and_validates():
    prob = make_single_frequency(2.0, DOM)
    pts = sample_collocation(DOM, 60)
    rep = train_pinn(prob, pts, layer_sizes=[1, 8, 1], steps=40, seed=0,
                     record_interval=10, l2_points=100)
    assert rep.final_loss.total < rep.initial_loss
    assert rep.phases == {"pinn": 40}
    with pytest.raises(ValueError):
        train_pinn(prob, pts, layer_sizes=[1, 8, 1], steps=0)


@pytest.mark.parametrize("record_interval", [0, 2.5])
def test_train_pinn_rejects_a_bad_record_interval(record_interval):
    prob = make_single_frequency(2.0, DOM)
    with pytest.raises(ValueError, match="record_interval"):
        train_pinn(prob, sample_collocation(DOM, 30), layer_sizes=[1, 4, 1],
                   steps=4, record_interval=record_interval)


def test_train_pinn_rejects_points_outside_the_domain():
    prob = make_single_frequency(2.0, DOM)
    pts = np.append(sample_collocation(DOM, 30), DOM.b + 1.0)
    with pytest.raises(ValueError, match="outside domain"):
        train_pinn(prob, pts, layer_sizes=[1, 4, 1], steps=4)


def _plain_problem(constraint):
    prob = make_single_frequency(3.0, DOM)
    if constraint == "soft":
        prob = prob.with_constraint(MULTI)
    return prob


def _run_one_network(path, prob, pts, optimizer, lr, steps, monkeypatch):
    """Train one network with seed 7 on pts along path; returns its
    final parameters and the records of that training."""
    made = []

    def capture(sizes, seed):
        made.append(networks.init_params(sizes, seed))
        return made[-1]

    monkeypatch.setattr(training, "init_params", capture)
    kw = dict(optimizer=optimizer, learning_rate=lr)
    if path == "train_pinn":
        rep = train_pinn(prob, pts, layer_sizes=[1, 8, 1], steps=steps, seed=7,
                         record_interval=4, l2_points=70, **kw)
        return made[0], rep.records
    if path == "coarse phase":
        state = create_state(prob, build_decomposition(DOM, 3, 0.7),
                             sample_collocation(DOM, 40), layer_sizes=[1, 5, 1],
                             master_seed=7, coarse_layer_sizes=[1, 8, 1], **kw)
        rep = train_coarse_then_local(state, steps, len(pts), 2,
                                      record_interval=4, l2_points=70)
        return state.coarse_params, [r for r in rep.records if r.phase == "coarse"]
    state = create_state(prob, build_decomposition(DOM, 1, 0.7), pts,
                         layer_sizes=[1, 8, 1], master_seed=6, **kw)
    rep = train(state, parallel_schedule(1), steps, record_interval=4, l2_points=70)
    return state.params[0], rep.records


@pytest.mark.parametrize("path", ["train_pinn", "coarse phase", "J=1 train"])
@pytest.mark.parametrize("optimizer, lr", [("adam", 1e-2), ("sgd", 1e-3)])
@pytest.mark.parametrize("constraint", ["hard", "soft"])
def test_one_network_matches_the_plain_pinn_reference(path, optimizer, lr,
                                                      constraint, monkeypatch):
    # a single network on the whole domain, along whichever path, takes the
    # plain PINN's steps bit for bit; only the recorded loss is summed in
    # another order
    prob = _plain_problem(constraint)
    pts = sample_collocation(DOM, 50)
    steps = 10
    params, records = _run_one_network(path, prob, pts, optimizer, lr, steps,
                                       monkeypatch)
    ref_params = networks.init_params([1, 8, 1], 7)
    ref = train_plain(ref_params, prob, pts, make_optimizer(optimizer, lr), steps,
                      norm=(DOM.midpoint, 0.5 * DOM.width), record_interval=4,
                      l2_points=70)
    assert same_params(snapshot([ref_params]), [params])
    assert [(r.step, r.round) for r in records] == [(s, s - 1) for s, _, _ in ref]
    for r, (_, total, l2) in zip(records, ref):
        assert r.total == pytest.approx(total, rel=1e-13, abs=0.0)
        assert r.l2_error == l2


def coarse_state(seed=0, n_sub=3, n_pts=60, **kw):
    prob = make_single_frequency(3.0, DOM)
    dec = build_decomposition(DOM, n_sub, 0.7)
    pts = sample_collocation(DOM, n_pts)
    return create_state(prob, dec, pts, layer_sizes=[1, 6, 1],
                        master_seed=seed, coarse_layer_sizes=[1, 6, 1], **kw)


@pytest.mark.parametrize("problem", [
    make_single_frequency(1e300, DOM),                         # norm 0: error inf
    make_single_frequency(3.0, Interval(-1e-300, 1e-300)),     # norm 0: error nan
], ids=["omega-1e300", "tiny-domain"])
@pytest.mark.parametrize("path", ["train", "train_pinn", "train_coarse_then_local"])
def test_undefined_relative_l2_error_raises_before_training(problem, path):
    pts = sample_collocation(problem.domain, 40)
    state = create_state(problem, build_decomposition(problem.domain, 2, 0.7), pts,
                         layer_sizes=[1, 6, 1], coarse_layer_sizes=[1, 6, 1])
    before = snapshot(state.params + [state.coarse_params])
    with pytest.raises(ValueError, match="L2 norm on the 400-point error grid is 0.0"):
        if path == "train":
            train(state, parallel_schedule(2), 2)
        elif path == "train_pinn":
            train_pinn(problem, pts, layer_sizes=[1, 6, 1], steps=2)
        else:
            train_coarse_then_local(state, coarse_epochs=2, coarse_points=20, local_rounds=2)
    assert same_params(before, state.params + [state.coarse_params])
    assert state.step == 0


def test_coarse_network_contributes_to_evaluation():
    state = coarse_state(seed=2)
    x = 1.3
    mv, _ = manual_raw_global(state, x)
    want = float(state.problem.constraint.multiplier(x)) * mv
    assert solution_values(state, [x])[0] == pytest.approx(want, rel=1e-12)
    # the derivative enters through the residual
    assert global_loss(state).total == pytest.approx(manual_global_loss(state), rel=1e-12)
    # cache background equals the coarse term at interior points
    ws = state.workspaces[0]
    interior = ~ws.overlap_mask
    c, hw = state.coarse_norm
    ug, _ = eval_batch(state.coarse_params, (ws.x[interior] - c) / hw)
    np.testing.assert_allclose(state.cache.values[0][interior], ug, rtol=1e-13)


def test_coarse_split_identity_and_coherence():
    state = coarse_state(seed=5)
    bd = global_loss(state)
    assert bd.total == pytest.approx(bd.interior + bd.overlap, rel=1e-12)
    stale = _stale_breakdown(state)
    assert stale.total == pytest.approx(bd.total, rel=1e-12)


def test_coarse_frozen_during_local_phase():
    state = coarse_state(seed=1)
    rep = train_coarse_then_local(state, coarse_epochs=20, coarse_points=50,
                                  local_rounds=5, record_interval=10)
    # replay phase 1 alone with identical inputs: phase 2 must not move theta_g
    twin = coarse_state(seed=1)
    train_plain(twin.coarse_params, twin.problem, sample_collocation(DOM, 50),
                twin.coarse_optimizer, 20, norm=twin.coarse_norm,
                record_interval=10, l2_points=100)
    assert same_params(snapshot([twin.coarse_params]), [state.coarse_params])
    assert rep.phases == {"coarse": 20, "local": 5}
    phases = [r.phase for r in rep.records]
    assert "coarse" in phases and "local" in phases
    # local-phase steps continue after the coarse offset
    local_steps = [r.step for r in rep.records if r.phase == "local"]
    assert local_steps and min(local_steps) > 20


def test_coarse_epochs_zero_degenerates():
    state = coarse_state(seed=3)
    before = snapshot([state.coarse_params])
    rep = train_coarse_then_local(state, coarse_epochs=0, coarse_points=50,
                                  local_rounds=3, record_interval=1)
    assert same_params(before, [state.coarse_params])
    assert rep.phases == {"local": 3}
    assert all(r.phase == "local" for r in rep.records)
    with pytest.raises(ValueError):
        train_coarse_then_local(state, coarse_epochs=-1, coarse_points=50,
                                local_rounds=1)


def test_coarse_requires_coarse_network():
    state = small_state(n_sub=2)
    with pytest.raises(ValueError):
        train_coarse_then_local(state, coarse_epochs=1, coarse_points=50,
                                local_rounds=1)


def soft_state(n_sub=2, n_pts=50, seed=0, constraint=None, **kw):
    prob = make_single_frequency(3.0, DOM).with_constraint(
        constraint or SoftConstraint(points=(0.0,), targets=(0.0,), weight=2.0))
    dec = build_decomposition(DOM, n_sub, 0.7)
    pts = sample_collocation(DOM, n_pts)
    return create_state(prob, dec, pts, layer_sizes=[1, 6, 1], master_seed=seed,
                        **kw)


# -2.0 lies in the overlap of subdomains 1 and 2 for n_sub=3, 0.5 in the
# middle overlap for n_sub=2 and 4; 5.0 is interior for n_sub <= 4
MULTI = SoftConstraint(points=(-2.0, 0.5, 5.0), targets=(0.3, 0.0, -0.2), weight=2.0)


def soft_multi_state(**kw):
    return soft_state(constraint=MULTI, **kw)


@pytest.mark.parametrize("n_sub", [2, 3, 4])
def test_boundary_points_are_rows_of_every_holder(n_sub):
    # each boundary point is a row of every subdomain holding it, owned by
    # the lowest-indexed one; one of the points lies in an overlap
    state = soft_multi_state(n_sub=n_sub)
    n = len(state.tables.x)
    holders, owners = {}, {}
    for ws in state.workspaces:
        n_own = len(ws.x)
        for k, owned in zip(ws.row_ids[n_own:] - n, ws.row_owned[n_own:]):
            holders.setdefault(int(k), []).append(ws.index)
            if owned:
                owners.setdefault(int(k), []).append(ws.index)
    for k, xb in enumerate(MULTI.points):
        want = [sd.index for sd in state.decomposition.subdomains if sd.contains(xb)]
        assert holders[k] == want
        assert owners[k] == want[:1]
    assert max(len(h) for h in holders.values()) == 2


def test_soft_constraint_loss_includes_boundary_term():
    state = soft_state(seed=4)
    bd = global_loss(state)
    assert bd.boundary > 0.0
    assert bd.total == pytest.approx(bd.interior + bd.overlap + bd.boundary,
                                     rel=1e-12)
    raw = solution_values(state, [0.0])[0]
    assert bd.boundary == pytest.approx(2.0 * raw ** 2, rel=1e-12)


def test_soft_constraint_training_descends():
    state = soft_state(seed=6)
    start = global_loss(state).total
    train(state, parallel_schedule(2), 30, record_interval=100)
    end = global_loss(state)
    assert end.total < start
    stale = _stale_breakdown(state)
    assert stale.total == pytest.approx(end.total, rel=1e-10)


@pytest.mark.parametrize("kind", ["hard", "soft", "soft-multi", "coarse"])
@pytest.mark.parametrize("p", [1, 3])
def test_train_losses_equal_global_loss_before_and_after(kind, p):
    # train measures its initial and final loss against its own fresh cache
    # and memo forwards; global_loss refreshes a cache and runs the same
    # forwards on the same rows, so the two agree bitwise, field by field
    make = {"hard": small_state, "soft": soft_state,
            "soft-multi": soft_multi_state, "coarse": coarse_state}[kind]
    state = make(n_sub=4, n_pts=60, seed=8, communication_interval=p)
    before = global_loss(state)
    rep = train(state, alternating_schedule(4), 5, record_interval=2, l2_points=50)
    assert rep.initial_loss == before.total
    assert rep.final_loss == global_loss(state)


@pytest.mark.parametrize("kind", ["hard", "soft", "coarse"])
def test_final_l2_and_prediction_equal_a_fresh_grid_evaluation(kind):
    # the final step's record evaluates the grid at the final parameters;
    # the report reuses it (record_interval 3 does not divide 7 steps)
    make = {"hard": small_state, "soft": soft_state, "coarse": coarse_state}[kind]
    state = make(n_sub=4, n_pts=60, seed=8)
    rep = train(state, alternating_schedule(4), 7, record_interval=3, l2_points=90)
    grid = training._make_eval_grid(state, rep.solution_x)
    l2, pred = training._grid_l2(state, grid, rep.solution_exact)
    assert rep.final_l2 == l2 == rep.records[-1].l2_error
    assert np.array_equal(rep.solution_pred, pred)


def test_train_pinn_final_loss_and_l2_equal_a_fresh_evaluation(monkeypatch):
    made = []

    def capture(sizes, seed):
        made.append(networks.init_params(sizes, seed))
        return made[-1]

    monkeypatch.setattr(training, "init_params", capture)
    prob = make_single_frequency(2.0, DOM)
    pts = sample_collocation(DOM, 60)
    rep = train_pinn(prob, pts, layer_sizes=[1, 8, 1], steps=7, seed=3,
                     record_interval=3, l2_points=90)
    params = made[0]
    # the single-network hard residual, its mean square as the loss split
    # sums it, and the L2 error at the final parameters, in the trainer's
    # operation order
    halfwidth = 0.5 * DOM.width
    u, du = eval_batch(params, (pts - DOM.midpoint) / halfwidth)
    r = (prob.constraint.multiplier_prime(pts) * u
         + prob.constraint.multiplier(pts) * ((1.0 / halfwidth) * du) - prob.rhs(pts))
    assert rep.final_loss.total == np.sum(r * r) / len(pts)
    pred = prob.constraint.multiplier(rep.solution_x) * networks.eval_values(
        params, (rep.solution_x - DOM.midpoint) / halfwidth)
    assert np.array_equal(rep.solution_pred, pred)
    exact = prob.exact_solution(rep.solution_x)
    assert rep.final_l2 == np.linalg.norm(pred - exact) / float(np.linalg.norm(exact))


def _same_cache(a, b):
    pairs = list(zip(a.values, b.values)) + list(zip(a.dvalues, b.dvalues))
    assert all(np.array_equal(x, y) for x, y in pairs)


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("kind", ["parallel", "alternating", "colored"])
@pytest.mark.parametrize("constraint", ["hard", "soft", "soft-multi"])
def test_cache_after_train_matches_fresh_refresh(kind, p, constraint):
    # the forwards the refresh reuses inside train must be those of the
    # final parameters, also for subdomains an alternating or colored
    # schedule left inactive for several rounds. A fresh refresh runs the
    # same forwards on the same rows, so even soft caches match bitwise.
    make = {"hard": small_state, "soft": soft_state,
            "soft-multi": soft_multi_state}[constraint]
    state = make(n_sub=4, n_pts=60, seed=2, communication_interval=p)
    sched = {"parallel": parallel_schedule(4),
             "alternating": alternating_schedule(4),
             "colored": colored_schedule(4, [[1, 3], [2, 4]])}[kind]
    train(state, sched, 6, record_interval=2, l2_points=50)
    _same_cache(state.cache, refresh_overlap_cache(state))


def test_cache_after_coarse_run_matches_fresh_refresh():
    # the level-0 forward is reused for the whole local phase; each refresh
    # accumulates its contribution into fresh zeros, never into the memo
    state = coarse_state(seed=4, n_sub=4)
    train_coarse_then_local(state, coarse_epochs=5, coarse_points=40,
                            local_rounds=4, record_interval=2, l2_points=50)
    _same_cache(state.cache, refresh_overlap_cache(state))


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("kind", ["parallel", "alternating"])
def test_multi_point_boundary_loss_is_the_mean_squared_solution_error(kind, p):
    # the penalty of the owners' rows equals the definition taken from the
    # evaluated solution, before and after training
    state = soft_multi_state(n_sub=4, n_pts=60, seed=5, communication_interval=p)
    sched = parallel_schedule(4) if kind == "parallel" else alternating_schedule(4)
    for rounds in (0, 4):
        if rounds:
            train(state, sched, rounds, record_interval=2, l2_points=50)
        err = solution_values(state, MULTI.points) - np.asarray(MULTI.targets)
        want = MULTI.weight * float(np.mean(err * err))
        assert global_loss(state).boundary == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("constraint", ["hard", "soft"])
def test_coarse_part_of_solution_is_the_frozen_coarse_network(constraint):
    state = coarse_state(seed=6, n_sub=4)
    if constraint == "soft":
        state = create_state(
            state.problem.with_constraint(MULTI), state.decomposition, state.tables.x,
            layer_sizes=[1, 6, 1], master_seed=6, coarse_layer_sizes=[1, 6, 1])
    rep = train_coarse_then_local(state, coarse_epochs=5, coarse_points=40,
                                  local_rounds=3, record_interval=2, l2_points=70)
    x = rep.solution_x
    c, hw = state.coarse_norm
    want = networks.eval_values(state.coarse_params, (x - c) / hw)
    if constraint == "hard":
        want = state.problem.constraint.multiplier(x) * want
    assert np.array_equal(rep.solution_coarse, want)


@pytest.mark.parametrize("constraint", ["hard", "soft"])
def test_one_coarse_forward_per_train_call_on_every_level0_row(monkeypatch, constraint):
    # the frozen coarse network is level 0 of the memo: one tangent forward
    # per train call on every collocation point, then every soft boundary
    # point, routed to every subdomain's cache
    state = coarse_state(seed=6, n_sub=4)
    if constraint == "soft":
        state = create_state(
            state.problem.with_constraint(MULTI), state.decomposition, state.tables.x,
            layer_sizes=[1, 6, 1], master_seed=6, coarse_layer_sizes=[1, 6, 1])
    level0 = state.coarse_workspace
    assert level0.index == 0
    assert np.array_equal(level0.row_ids, np.arange(len(state.tables.x) + state.tables.n_bc))
    coarse_inputs = []
    real_forward = networks._forward

    def counting_forward(params, x_hat):
        if params is state.coarse_params:
            coarse_inputs.append(np.array(x_hat))
        return real_forward(params, x_hat)

    for module in (networks, training):
        monkeypatch.setattr(module, "_forward", counting_forward)
    train(state, parallel_schedule(4), 5, record_interval=2, l2_points=50)
    assert len(coarse_inputs) == 1
    assert np.array_equal(coarse_inputs[0], level0.inputs)

    # a row no neighbor holds gets 0 + u: the coarse value bit for bit
    u, _, _ = real_forward(state.coarse_params, level0.inputs)
    for ws, values in zip(state.workspaces, state.cache.values):
        alone = np.ones(len(ws.row_ids), dtype=bool)
        for _, src, _, _, _ in ws.outgoing:
            alone[src] = False
        assert alone.any()
        assert np.array_equal(values[alone], u[ws.row_ids[alone]])


@pytest.mark.parametrize("kind", ["parallel", "alternating"])
def test_one_tangent_forward_per_parameter_version(monkeypatch, kind):
    state = small_state(n_sub=4, n_pts=80, seed=3)
    tangent, values = [], []
    real_forward, real_values = networks._forward, networks.eval_values

    def counting_forward(params, x_hat):
        j = next(k for k, q in enumerate(state.params, 1) if q is params)
        tangent.append((j, b"".join(a.tobytes() for a in params.arrays())))
        return real_forward(params, x_hat)

    def counting_values(params, x_hat):
        values.append(len(x_hat))
        return real_values(params, x_hat)

    for module in (networks, training):
        monkeypatch.setattr(module, "_forward", counting_forward)
    monkeypatch.setattr(training, "eval_values", counting_values)
    sched = parallel_schedule(4) if kind == "parallel" else alternating_schedule(4)
    train(state, sched, 10, record_interval=10, l2_points=200)

    counts = Counter(tangent)
    # one forward per version: v0 at the initial loss, then one after every
    # step of the subdomain, shared by the final loss
    assert set(counts.values()) == {1}
    steps = [10] * 4 if kind == "parallel" else [3, 3, 2, 2]
    assert len(tangent) == sum(s + 1 for s in steps)
    # the dense grid, value only, once: the step-10 record, whose L2 and
    # prediction are also the report's final ones
    assert len(values) == 4
