import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbpinn.decomposition import (Interval, TripleOverlapError,
                                  build_decomposition,
                                  build_decomposition_from_width,
                                  classify_points, empty_subdomains,
                                  sample_collocation, window, window_table)

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
    assert [sorted(sd.neighbor_indices) for sd in dec.subdomains] == [
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
    assert sd.neighbor_indices == frozenset()
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
    # spacing is 2; widths beyond twice the spacing break the pairwise chain
    dom = EIGHT
    with pytest.raises(TripleOverlapError):
        build_decomposition_from_width(dom, 4, 4.0 + 1e-9)
    with pytest.raises(ValueError):
        build_decomposition_from_width(dom, 4, 2.0)
    dec = build_decomposition_from_width(dom, 4, 3.8)
    assert dec.n_subdomains == 4
    assert dec.overlap_fraction is None
    # n=1 accepts any width covering the domain
    one = build_decomposition_from_width(dom, 1, 8.0)
    assert one.subdomains[0].contains(4.0)


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
