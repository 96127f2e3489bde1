"""Artifact writers: float text round-trips exactly."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fbpinn import reporting
from fbpinn.reporting import _fmt, _text, write_solution

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
           2.2250738585072014e-308, 1.7976931348623157e308, 1e-300, -1e300,
           0.1, 1 / 3, 1e16, 1e15 + 0.3, 123456789012345678.0]


def fmt_rows(header, columns):
    """Per-value reference text of a CSV of float columns."""
    return header + "\n" + "".join(",".join(_fmt(v) for v in row) + "\n"
                                   for row in zip(*columns))


def test_float_rows_match_fmt_on_special_values(tmp_path):
    rng = np.random.default_rng(0)
    block = reporting._ROWS
    for n in (1, block - 1, block, block + 1):
        x, pred, exact, coarse = (
            np.resize(np.concatenate([SPECIAL, rng.standard_normal(50)
                                      * 10.0 ** rng.integers(-300, 300, 50)]), n)
            for _ in range(4))
        pred, coarse = pred[::-1].copy(), np.roll(coarse, 7)
        with np.errstate(invalid="ignore", over="ignore"):
            local = pred - coarse
            write_solution(tmp_path, x, pred, exact, coarse)
        assert (tmp_path / "solution.csv").read_text() == fmt_rows(
            "x,u_pred,u_exact", (x, pred, exact))
        assert (tmp_path / "coarse_solution.csv").read_text() == fmt_rows(
            "x,u_coarse,u_local,u_combined,u_exact", (x, coarse, local, pred, exact))

        alone = tmp_path / "alone"
        alone.mkdir(exist_ok=True)
        write_solution(alone, x, pred, exact)
        assert (alone / "solution.csv").read_bytes() == \
            (tmp_path / "solution.csv").read_bytes()
        assert not (alone / "coarse_solution.csv").exists()


def texts(values):
    """_text's rows as strings, NULs dropped."""
    return [bytes(row[row != 0]).decode() for row in _text(np.asarray(values, np.float64))]


def assert_texts_match_fmt(values):
    values = np.asarray(values, np.float64)
    want = [_fmt(v) for v in values]
    got = texts(values)
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not wrong, wrong[:5]


FLOAT64 = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: np.uint64(bits).view(np.float64)),
    st.floats(allow_nan=True, allow_infinity=True, width=64))


@given(values=st.lists(FLOAT64, max_size=40))
@settings(max_examples=300, deadline=None)
def test_text_matches_fmt_on_any_float64(values):
    assert_texts_match_fmt(values)


def test_text_matches_fmt_on_ties():
    # m * 2**(-1 - k) with m in [2**52, 2**53) has k + 1 fraction bits and
    # 16 or 17 integer digits, so its 17-digit rounding meets exact halves
    rng = np.random.default_rng(1)
    m = np.concatenate([rng.integers(2**52, 2**53, 400), [2**52, 2**53 - 1]]).astype(float)
    ties = np.concatenate([m * 2.0 ** (-1 - k) for k in range(23)])
    assert_texts_match_fmt(np.concatenate([ties, -ties]))


def test_text_matches_fmt_around_powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-7, 18)])
    near = [powers]
    up, down = powers, powers
    for _ in range(50):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        near += [up, down]
    near = np.concatenate(near)
    assert_texts_match_fmt(np.concatenate([near, -near]))


def test_text_matches_fmt_at_the_ends_of_the_vector_range():
    # the double 1e-6 lies below 10**-6 and prints as 9.9999999999999995e-07;
    # 99999999999999999.0 is the double 1e17; the double 1e-14 lies below
    # 10**-14, and its 17 digits round up into the next decade
    assert Fraction(1e-14) < Fraction(1, 10**14) and _fmt(1e-14) == "1e-14"
    edges = [1e-6, math.nextafter(1e-6, 1.0), 1e-4, math.nextafter(1e-4, 0.0),
             1e17, math.nextafter(1e17, 0.0), 99999999999999999.0, 1e-14, 1e-5, 0.5]
    assert_texts_match_fmt(edges + [-v for v in edges])


def assert_same_lines(got, want):
    """got == want, naming the first differing lines rather than diffing
    whole files."""
    got, want = got.splitlines(), want.splitlines()
    wrong = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not wrong and len(got) == len(want), wrong[:3]


def test_solution_rows_match_fmt_in_the_vector_range(tmp_path):
    rng = np.random.default_rng(2)
    n = 2 * reporting._ROWS + 3
    x, pred, exact, coarse = (rng.standard_normal(n) * 10.0 ** rng.integers(-7, 18, n)
                              for _ in range(4))
    write_solution(tmp_path, x, pred, exact, coarse)
    assert_same_lines((tmp_path / "solution.csv").read_text(),
                      fmt_rows("x,u_pred,u_exact", (x, pred, exact)))
    assert_same_lines((tmp_path / "coarse_solution.csv").read_text(),
                      fmt_rows("x,u_coarse,u_local,u_combined,u_exact",
                               (x, coarse, pred - coarse, pred, exact)))
