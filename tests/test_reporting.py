"""Artifact writers: float text round-trips exactly."""

import numpy as np

from fbpinn.reporting import _fmt, _write_float_rows


def test_float_rows_match_fmt_on_special_values(tmp_path):
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, 1e-300, -1e300,
               0.1, 1 / 3, 1e16, 1e15 + 0.3, 123456789012345678.0]
    rng = np.random.default_rng(0)
    cols = [np.concatenate([special, rng.standard_normal(50)
                            * 10.0 ** rng.integers(-300, 300, 50)])
            for _ in range(3)]
    cols[1] = cols[1][::-1].copy()
    path = tmp_path / "rows.csv"
    _write_float_rows(path, "a,b,c", cols)
    want = "a,b,c\n" + "".join(",".join(_fmt(v) for v in row) + "\n"
                               for row in zip(*cols))
    assert path.read_text() == want
