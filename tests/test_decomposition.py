import json

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from fbpinn.decomposition import (Interval, build_decomposition,
                                  build_decomposition_from_width,
                                  classify_points, index_list,
                                  sample_collocation, window,
                                  window_table)

import decomposition_reference
from decomposition_reference import empty_subdomains
import window_table_reference

EIGHT = Interval(0.0, 8.0)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -2.0)
    with pytest.raises(ValueError):
        Interval(0.0, np.inf)
    assert Interval(-1.0, 3.0).width == 4.0
    assert Interval(-1.0, 3.0).midpoint == 1.0


def test_layout_eight_subdomains_half_overlap():
    # spacing 1, width 2/(2 - 0.5) * 1 = 4/3, one-sided overlap 1/3
    dec = build_decomposition(EIGHT, 8, 0.5)
    assert dec.n_subdomains == 8
    sd1, sd2 = dec.subdomains[0], dec.subdomains[1]
    assert sd1.left == 0.0
    assert sd1.right == pytest.approx(7 / 6, abs=1e-15)
    assert (sd2.left, sd2.right) == (pytest.approx(5 / 6), pytest.approx(13 / 6))
    assert sd2.width == pytest.approx(4 / 3, abs=1e-15)
    # ends are clipped at the domain boundary
    assert dec.subdomains[-1].right == 8.0
    assert [sd["neighbors"] for sd in dec.to_jsonable()["subdomains"]] == [
        [2], [1, 3], [2, 4], [3, 5], [4, 6], [5, 7], [6, 8], [7]]
    # only the two subdomains sharing an overlap cover a point there
    assert sum(sd.contains(1.0) for sd in dec.subdomains) == 2


def test_window_frozen_values():
    dec = build_decomposition(EIGHT, 8, 0.5)
    # midpoint of the first overlap: both cosine ramps hit 1/2
    w1, dw1 = window(dec, 1, 1.0)
    w2, dw2 = window(dec, 2, 1.0)
    assert w1 == pytest.approx(0.5, abs=1e-12)
    assert w2 == pytest.approx(0.5, abs=1e-12)
    assert dw1 == pytest.approx(-1.5 * np.pi, rel=1e-12)
    assert dw2 == pytest.approx(1.5 * np.pi, rel=1e-12)
    # quarter of the way into the overlap
    x = 11 / 12
    assert window(dec, 1, x)[0] == pytest.approx((1 + np.sqrt(2) / 2) / 2, rel=1e-12)
    assert window(dec, 2, x)[0] == pytest.approx((1 - np.sqrt(2) / 2) / 2, rel=1e-12)
    # flat at the outer boundary
    assert window(dec, 1, 0.0) == (1.0, 0.0)
    assert window(dec, 8, 8.0) == (1.0, 0.0)


def test_window_zero_outside_subdomain():
    dec = build_decomposition(EIGHT, 8, 0.5)
    assert window(dec, 1, 7 / 6 + 1e-9) == (0.0, 0.0)
    assert window(dec, 3, 0.5) == (0.0, 0.0)
    assert window(dec, 8, 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("j, message", [
    (2.0, "is not an integer"), (True, "is not an integer"),
    (0, r"out of range 1\.\.8"), (9, r"out of range 1\.\.8"),
])
def test_window_rejects_a_bad_subdomain_index(j, message):
    dec = build_decomposition(EIGHT, 8, 0.5)
    with pytest.raises(ValueError, match=message):
        window(dec, j, 1.0)


def test_window_derivative_vs_finite_differences():
    dec = build_decomposition(Interval(-3.0, 5.0), 5, 0.7)
    rng = np.random.default_rng(1)
    h = 1e-7
    for x in rng.uniform(-2.9, 4.9, size=40):
        for j in range(1, 6):
            w, dw = window(dec, j, x)
            sd = dec.subdomains[j - 1]
            if not (sd.left + h < x < sd.right - h):
                continue
            fd = (window(dec, j, x + h)[0] - window(dec, j, x - h)[0]) / (2 * h)
            assert dw == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_partition_of_unity_dense():
    rng = np.random.default_rng(2)
    for n in (1, 2, 8, 16):
        dec = build_decomposition(Interval(-2 * np.pi, 2 * np.pi), n, 0.7)
        xs = rng.uniform(-2 * np.pi, 2 * np.pi, size=2000)
        total = np.zeros_like(xs)
        dtotal = np.zeros_like(xs)
        for j in range(1, n + 1):
            vals = np.array([window(dec, j, x) for x in xs])
            total += vals[:, 0]
            dtotal += vals[:, 1]
        assert np.max(np.abs(total - 1.0)) < 1e-12
        assert np.max(np.abs(dtotal)) < 1e-9


@given(n=st.integers(1, 12),
       f=st.floats(0.05, 0.95),
       t=st.floats(0.0, 1.0))
@settings(max_examples=120, deadline=None)
def test_partition_of_unity_property(n, f, t):
    dec = build_decomposition(Interval(-1.0, 2.0), n, f)
    x = -1.0 + 3.0 * t
    vals = [window(dec, j, x) for j in range(1, n + 1)]
    assert abs(sum(v for v, _ in vals) - 1.0) < 1e-12
    assert sum(v > 0 for v, _ in vals) <= 2
    assert sum(sd.contains(x) for sd in dec.subdomains) <= 2


def test_single_subdomain_window_is_one():
    dec = build_decomposition(EIGHT, 1, 0.5)
    sd = dec.subdomains[0]
    assert (sd.left, sd.right) == (0.0, 8.0)
    assert dec.to_jsonable()["subdomains"][0]["neighbors"] == []
    for x in (0.0, 3.3, 8.0):
        assert window(dec, 1, x) == (1.0, 0.0)


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_decomposition(EIGHT, 0, 0.5)
    with pytest.raises(ValueError):
        build_decomposition(EIGHT, 4, 0.0)
    with pytest.raises(ValueError):
        build_decomposition(EIGHT, 4, 1.0)


def test_width_constructor_bounds():
    # spacing is 2; any width above it builds, and widths beyond twice the
    # spacing put points in three or more subdomains
    dom = EIGHT
    wide = build_decomposition_from_width(dom, 4, 4.0 + 1e-9)
    assert sum(sd.contains(3.0) for sd in wide.subdomains) == 3
    with pytest.raises(ValueError):
        build_decomposition_from_width(dom, 4, 2.0)
    dec = build_decomposition_from_width(dom, 4, 3.8)
    assert dec.n_subdomains == 4
    assert dec.overlap_fraction is None
    # n=1 accepts any width covering the domain
    one = build_decomposition_from_width(dom, 1, 8.0)
    assert one.subdomains[0].contains(4.0)


@pytest.mark.parametrize("n, width, message", [
    (1, np.nan, "must cover the domain width 8.0"),
    (1, 7.9, "must cover the domain width 8.0"),
    (1, -1.0, "must cover the domain width 8.0"),
    (4, np.nan, "must exceed the spacing 2.0"),
])
def test_width_constructor_rejects_nan_and_a_lone_width_short_of_the_domain(n, width,
                                                                            message):
    with pytest.raises(ValueError, match=message):
        build_decomposition_from_width(EIGHT, n, width)


@pytest.mark.parametrize("dom, n, fraction, message", [
    # the width rounds down to the spacing
    (Interval(-2 * np.pi, 2 * np.pi), 2, 1e-17, "must exceed the spacing"),
    # subdomains 7 and 8 only touch, 1 and 2 have a gap between them
    (Interval(-2 * np.pi, 2 * np.pi), 17, 2e-15, "leaves subdomains 7 and 8 without"),
    (Interval(-2 * np.pi, 2 * np.pi), 17, 1e-15, "leaves subdomains 1 and 2 without"),
    # neighbours overlap, but every ramp rounds to width 0
    (Interval(-2 * np.pi, 1 - 2 * np.pi), 3, 2e-16, "leaves subdomains 1 and 2 without"),
])
def test_an_overlap_lost_to_rounding_is_a_build_error(dom, n, fraction, message):
    with pytest.raises(ValueError, match=message):
        build_decomposition(dom, n, fraction)


def test_window_table_matches_scalar_window():
    dec = build_decomposition(Interval(-2.0, 6.0), 6, 0.6)
    pts = np.linspace(-2.0, 6.0, 101)
    table = window_table(dec, pts)
    for j, (idx, win, dwin) in enumerate(table, start=1):
        for pos, i in enumerate(idx):
            w, dw = window(dec, j, pts[i])
            assert win[pos] == pytest.approx(w, rel=1e-14, abs=1e-14)
            assert dwin[pos] == pytest.approx(dw, rel=1e-12, abs=1e-10)


def test_classify_points_membership():
    dec = build_decomposition(EIGHT, 8, 0.5)
    pts = np.array([0.5, 1.0, 1.5, 2.0, 7.9])
    sets = classify_points(dec, pts)
    assert list(sets.members[0]) == [0, 1]       # [0, 7/6]
    assert list(sets.interior[0]) == [0]
    assert list(sets.overlap[0]) == [1]
    assert list(sets.members[1]) == [1, 2, 3]    # [5/6, 13/6]
    assert list(sets.overlap[1]) == [1, 3]
    assert list(sets.interior[1]) == [2]
    assert list(sets.members[7]) == [4]
    assert list(sets.interior[7]) == [4]
    # every point lands in at least one subdomain, overlap points in two
    counts = np.zeros(len(pts), dtype=int)
    for m in sets.members:
        counts[m] += 1
    assert np.array_equal(counts, [1, 2, 1, 2, 1])


@given(n_sub=st.integers(1, 12), overlap=st.floats(0.05, 0.95),
       pts=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_empty_subdomains_are_those_classify_points_leaves_empty(n_sub, overlap, pts):
    dec = build_decomposition(EIGHT, n_sub, overlap)
    members = classify_points(dec, pts).members
    assert empty_subdomains(dec, pts) == [j for j, m in enumerate(members, 1) if not len(m)]


# an overlap fraction in (0, 1), or a width in units of the spacing h
SPREADS = st.one_of(st.floats(0.05, 0.95), st.just(2.0), st.floats(1.05, 5.0))


def _spread_decomposition(n_sub, spread):
    if spread < 1.0:
        return build_decomposition(EIGHT, n_sub, spread)
    return build_decomposition_from_width(EIGHT, n_sub, spread * EIGHT.width / n_sub)


def _same_sets(got, want):
    assert got.points.tobytes() == want.points.tobytes()
    for name in ("members", "interior", "overlap"):
        got_sets, want_sets = getattr(got, name), getattr(want, name)
        assert len(got_sets) == len(want_sets)
        assert all(_same_bits(g, w) for g, w in zip(got_sets, want_sets))


@given(data=st.data(), n_sub=st.integers(1, 12), spread=SPREADS)
@settings(max_examples=150, deadline=None)
def test_classify_points_matches_the_per_subdomain_masks(data, n_sub, spread):
    # unsorted and repeated points, points on every subdomain edge, width
    # 2h, where an edge point is held three times, and wider overlaps
    dec = _spread_decomposition(n_sub, spread)
    edges = [e for sd in dec.subdomains for e in (sd.left, sd.right)]
    pts = data.draw(st.lists(st.one_of(st.floats(0.0, 8.0), st.sampled_from(edges)),
                             max_size=60))
    _same_sets(classify_points(dec, pts), decomposition_reference.classify_points(dec, pts))


def test_index_list_names_ten_indices_and_the_count():
    assert index_list([]) == "[]"
    assert index_list(list(range(1, 11))) == str(list(range(1, 11)))
    assert index_list(np.arange(5, 99945)) == \
        "[5, 6, 7, 8, 9, 10, 11, 12, 13, 14, …; 99940 in all]"


def test_classify_points_rejects_outside():
    dec = build_decomposition(EIGHT, 4, 0.5)
    with pytest.raises(ValueError, match="8.5"):
        classify_points(dec, [1.0, 8.5])
    with pytest.raises(ValueError):
        classify_points(dec, [np.nan])


def test_sample_collocation():
    pts = sample_collocation(Interval(-1.0, 1.0), 5)
    np.testing.assert_allclose(pts, [-1.0, -0.5, 0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        sample_collocation(Interval(-1.0, 1.0), 1)


def test_to_jsonable_round_trip_fields():
    dec = build_decomposition(EIGHT, 3, 0.4)
    d = dec.to_jsonable()
    assert d["domain"] == [0.0, 8.0]
    assert d["overlap_fraction"] == 0.4
    assert len(d["subdomains"]) == 3
    assert d["subdomains"][0]["window"]["up"] is None
    assert d["subdomains"][-1]["window"]["down"] is None
    assert d["subdomains"][1]["neighbors"] == [1, 3]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_tables_equal(table, ref):
    assert len(table) == len(ref)
    for got, want in zip(table, ref):
        assert all(_same_bits(g, w) for g, w in zip(got, want))


@given(data=st.data(), n_sub=st.integers(1, 12), spread=SPREADS)
@settings(max_examples=150, deadline=None)
def test_window_table_matches_the_per_subdomain_loop(data, n_sub, spread):
    # unsorted and repeated points, points on every subdomain edge, width
    # 2h, where non-adjacent subdomains touch and an edge point is held
    # three times, and wider overlaps, where a point is held up to six
    # times
    dec = _spread_decomposition(n_sub, spread)
    edges = [e for sd in dec.subdomains for e in (sd.left, sd.right)]
    pts = np.array(data.draw(st.lists(
        st.one_of(st.floats(0.0, 8.0), st.sampled_from(edges)), max_size=60)))
    _assert_tables_equal(window_table(dec, pts), window_table_reference.window_table(dec, pts))


@pytest.mark.parametrize("n_sub, overlap", [(1, 0.5), (16, 0.7), (30, 0.5)])
def test_window_table_matches_the_per_subdomain_loop_on_the_dense_grid(n_sub, overlap):
    dom = Interval(-2 * np.pi, 2 * np.pi)
    dec = build_decomposition(dom, n_sub, overlap)
    grid = sample_collocation(dom, 30_000)
    _assert_tables_equal(window_table(dec, grid), window_table_reference.window_table(dec, grid))


def test_window_table_rejects_points_outside_every_subdomain():
    dec = build_decomposition(EIGHT, 4, 0.5)
    for fn in (window_table, window_table_reference.window_table):
        with pytest.raises(ValueError, match=r"point \S*9\.5\S* lies outside every subdomain"):
            fn(dec, [1.0, 9.5, np.nan])


@given(a=st.floats(-10.0, 10.0), span=st.floats(0.1, 20.0), n=st.integers(1, 64),
       spread=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                        st.floats(1.0, 5.0, exclude_min=True)))
@settings(max_examples=300, deadline=None)
def test_views_match_the_per_subdomain_build(a, span, n, spread):
    # spread is an overlap fraction below 1, else a width in units of h
    dom = Interval(a, a + span)
    h = dom.width / n
    fraction, width = (spread, 2.0 * h / (2.0 - spread)) if spread < 1.0 else (None, spread * h)
    try:
        dec = (build_decomposition(dom, n, spread) if fraction is not None
               else build_decomposition_from_width(dom, n, width))
    except ValueError:
        # a width rounded down to h, or an overlap lost to rounding
        reject()
    subdomains, windows = decomposition_reference.build(dom, n, width)
    assert dec.subdomains == subdomains
    assert json.dumps(dec.to_jsonable()) == json.dumps(
        decomposition_reference.to_jsonable(dom, fraction, subdomains, windows))
    # the ramps window_table reads: start -inf (end +inf) and width 1
    # where a window has no ramp
    up = [(-np.inf, 1.0) if up is None else (up[0], up[1] - up[0]) for up, _ in windows]
    down = [(np.inf, 1.0) if down is None else (down[1], down[1] - down[0])
            for _, down in windows]
    assert all(_same_bits(got, np.array(want)) for got, want in
               zip(dec.ramps, (*np.array(up).T, *np.array(down).T)))


def test_a_large_decomposition_builds_no_subdomain_object_until_asked():
    dec = build_decomposition(EIGHT, 100_000, 0.5)
    pts = sample_collocation(EIGHT, 60)
    table = window_table(dec, pts)
    assert empty_subdomains(dec, pts) == [j for j, (ids, _, _) in enumerate(table, 1)
                                          if not len(ids)]
    assert window(dec, 100_000, 8.0) == (1.0, 0.0)
    assert "subdomains" not in vars(dec)
    assert dec.subdomains[-1].right == 8.0


def _pairwise_neighbors(domain, n, width):
    return decomposition_reference.neighbors(*decomposition_reference.bounds(domain, n, width))


@given(a=st.floats(-10.0, 0.0), span=st.floats(0.1, 20.0), n=st.integers(1, 12),
       stretch=st.one_of(st.floats(1e-6, 4.0), st.just(1.0)))
@settings(max_examples=300, deadline=None)
def test_neighbor_sets_match_the_pairwise_definition(a, span, n, stretch):
    # width h(1 + stretch): stretch 1 is width 2h, where rounding can make
    # subdomains i and i + 2 overlap, and a wider stretch makes them
    # overlap by design
    dom = Interval(a, a + span)
    width = dom.width / n * (1.0 + stretch)
    try:
        dec = build_decomposition_from_width(dom, n, width)
    except ValueError:
        # a width rounded down to h
        reject()
    assert [sd["neighbors"] for sd in dec.to_jsonable()["subdomains"]] == \
        _pairwise_neighbors(dom, n, width)


def test_width_2h_builds_with_the_pairwise_neighbour_sets():
    # width 2h: subdomains 1 and 3 should touch, but rounding makes them
    # overlap, so they are neighbours
    dom = Interval(-0.5135055286275616, 3.187131374903806)
    dec = build_decomposition_from_width(dom, 4, 2.0 * dom.width / 4)
    want = _pairwise_neighbors(dom, 4, 2.0 * dom.width / 4)
    assert want[0] == [2, 3]
    assert [sd["neighbors"] for sd in dec.to_jsonable()["subdomains"]] == want


def test_a_width_over_4h_makes_every_pair_neighbours():
    dec = build_decomposition_from_width(Interval(0.0, 8.0), 4, 9.0)
    assert [sd["neighbors"] for sd in dec.to_jsonable()["subdomains"]] == [
        [2, 3, 4], [1, 3, 4], [1, 2, 4], [1, 2, 3]]
