from collections import Counter

import numpy as np
import pytest

from fbpinn import networks, training
from fbpinn.decomposition import (Interval, build_decomposition,
                                  empty_subdomains, sample_collocation, window)
from fbpinn.networks import NumericalFailureError, eval_batch, loss_gradient
from fbpinn.problems import SoftConstraint, make_single_frequency
from fbpinn.scheduling import (active_set, alternating_schedule,
                               colored_schedule, parallel_schedule)
from fbpinn.training import (create_state, global_loss, local_loss,
                             refresh_overlap_cache, solution_values, train,
                             train_coarse_then_local, train_pinn, train_round,
                             _stale_breakdown, _train_single, RunReport)

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
        c, hw = state.input_norms[j - 1]
        u, du = eval_batch(state.params[j - 1], [(x - c) / hw])
        value += w * u[0]
        dvalue += dw * u[0] + w * du[0] / hw
    return value, dvalue


def manual_global_loss(state):
    """Mean squared constrained residual straight from the definition."""
    pts = state.collocation.points
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
    rhs = state.problem.rhs(state.collocation.points)
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
        c, hw = state.input_norms[1]
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
    n = len(state.collocation.points)
    ws = state.workspaces[0]
    acc = 0.0
    for pos, x in enumerate(ws.x):
        w1, dw1 = window(state.decomposition, 1, x)
        c, hw = state.input_norms[0]
        u, du = eval_batch(state.params[0], [(x - c) / hw])
        v = w1 * u[0] + state.cache.values[0][pos]
        dv = dw1 * u[0] + w1 * du[0] / hw + state.cache.dvalues[0][pos]
        cm = float(prob.constraint.multiplier(x))
        dcm = float(prob.constraint.multiplier_prime(x))
        r = dcm * v + cm * dv - float(prob.rhs(x))
        acc += r * r
    assert local_loss(state, 1) == pytest.approx(acc / n, rel=1e-12)


@pytest.mark.parametrize("kind", ["hard", "soft", "coarse"])
def test_local_gradient_matches_finite_differences(kind):
    # the closure's d(residual)/du and d(residual)/d(du) against central
    # differences of local_loss in every parameter of network 2
    make = {"hard": small_state, "soft": soft_state, "coarse": coarse_state}[kind]
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


def coarse_state(seed=0, n_sub=3, n_pts=60, **kw):
    prob = make_single_frequency(3.0, DOM)
    dec = build_decomposition(DOM, n_sub, 0.7)
    pts = sample_collocation(DOM, n_pts)
    return create_state(prob, dec, pts, layer_sizes=[1, 6, 1],
                        master_seed=seed, coarse_layer_sizes=[1, 6, 1], **kw)


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
    rep2 = RunReport()
    _train_single(twin.coarse_params, twin.problem,
                  sample_collocation(DOM, 50), twin.coarse_optimizer, 20,
                  norm=twin.coarse_norm, record_interval=10, report=rep2,
                  phase="coarse", l2_points=100)
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


def soft_state(n_sub=2, n_pts=50, seed=0, **kw):
    prob = make_single_frequency(3.0, DOM).with_constraint(
        SoftConstraint(points=(0.0,), targets=(0.0,), weight=2.0))
    dec = build_decomposition(DOM, n_sub, 0.7)
    pts = sample_collocation(DOM, n_pts)
    return create_state(prob, dec, pts, layer_sizes=[1, 6, 1], master_seed=seed,
                        **kw)


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


@pytest.mark.parametrize("kind", ["hard", "soft", "coarse"])
@pytest.mark.parametrize("p", [1, 3])
def test_train_losses_equal_global_loss_before_and_after(kind, p):
    # train measures its initial and final loss against its own fresh cache
    # and memo forwards; global_loss refreshes a cache and runs the same
    # forwards on the same rows, so the two agree bitwise, field by field
    make = {"hard": small_state, "soft": soft_state, "coarse": coarse_state}[kind]
    state = make(n_sub=4, n_pts=60, seed=8, communication_interval=p)
    before = global_loss(state)
    rep = train(state, alternating_schedule(4), 5, record_interval=2, l2_points=50)
    assert rep.initial_loss == before.total
    assert rep.final_loss == global_loss(state)


def _same_cache(a, b):
    pairs = list(zip(a.values, b.values)) + list(zip(a.dvalues, b.dvalues))
    if a.bc_values is not None:
        pairs += list(zip(a.bc_values, b.bc_values))
    assert all(np.array_equal(x, y) for x, y in pairs)


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("kind", ["parallel", "alternating", "colored"])
@pytest.mark.parametrize("constraint", ["hard", "soft"])
def test_cache_after_train_matches_fresh_refresh(kind, p, constraint):
    # the forwards the refresh reuses inside train must be those of the
    # final parameters, also for subdomains an alternating or colored
    # schedule left inactive for several rounds. A fresh refresh runs the
    # same forwards on the same rows, so even soft caches match bitwise.
    make = small_state if constraint == "hard" else soft_state
    state = make(n_sub=4, n_pts=60, seed=2, communication_interval=p)
    sched = {"parallel": parallel_schedule(4),
             "alternating": alternating_schedule(4),
             "colored": colored_schedule(4, [[1, 3], [2, 4]])}[kind]
    train(state, sched, 6, record_interval=2, l2_points=50)
    _same_cache(state.cache, refresh_overlap_cache(state))


def test_cache_after_coarse_run_matches_fresh_refresh():
    # the coarse background is reused for the whole local phase and copied
    # before neighbor contributions accumulate into it
    state = coarse_state(seed=4, n_sub=4)
    train_coarse_then_local(state, coarse_epochs=5, coarse_points=40,
                            local_rounds=4, record_interval=2, l2_points=50)
    _same_cache(state.cache, refresh_overlap_cache(state))


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
    # the dense grid, value only: the step-10 record and the final L2
    assert len(values) == 2 * 4
