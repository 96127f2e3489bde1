"""Artifact writers: float text round-trips exactly."""

import numpy as np

from fbpinn import reporting
from fbpinn.reporting import _fmt, write_solution

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
