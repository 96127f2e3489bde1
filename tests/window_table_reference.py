"""Per-subdomain reference for decomposition.window_table.

window_table finds every (subdomain, point) membership from one sort of
the points and computes ramps, derivatives and the normalization over all
membership rows at once. This module keeps the earlier per-subdomain form
of that work as an independent reference: one mask, one ramp evaluation
and one scatter-add per subdomain, in ascending subdomain order, so the
row pass can be checked against it bit for bit.
"""

import numpy as np


def _ramp(t):
    t = np.asarray(t, dtype=float)
    mid = (1.0 - np.cos(np.pi * np.clip(t, 0.0, 1.0))) / 2.0
    return np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, mid))


def _dramp(t):
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, 0.5 * np.pi * np.sin(np.pi * np.clip(t, 0.0, 1.0)), 0.0)


def _raw_window(up, down, x):
    """Unnormalized window and derivative of the ramps up and down, each
    (start, end) or None; assumes x inside the subdomain."""
    x = np.asarray(x, dtype=float)
    val = np.ones_like(x)
    dval = np.zeros_like(x)
    if up is not None:
        s, e = up
        t = (x - s) / (e - s)
        u = _ramp(t)
        du = _dramp(t) / (e - s)
        val, dval = u, du
    if down is not None:
        s, e = down
        t = (e - x) / (e - s)
        d = _ramp(t)
        dd = -_dramp(t) / (e - s)
        dval = dval * d + val * dd
        val = val * d
    return val, dval


def window_table(decomposition, points):
    """Per-subdomain (member positions, window values, window derivatives)
    for a batch of points inside the domain."""
    pts = np.asarray(points, dtype=float)
    total = np.zeros_like(pts)
    dtotal = np.zeros_like(pts)
    raws = []
    last, delta = decomposition.n_subdomains - 1, decomposition.delta
    for k, (left, right) in enumerate(zip(decomposition.lefts.tolist(),
                                          decomposition.rights.tolist())):
        # subdomain k+1's window rises from its left bound and falls to its
        # right bound over delta, but not at the domain's two ends
        up = None if k == 0 else (left, left + delta)
        down = None if k == last else (right - delta, right)
        idx = np.nonzero((pts >= left) & (pts <= right))[0]
        v, dv = _raw_window(up, down, pts[idx])
        raws.append((idx, v, dv))
        total[idx] += v
        dtotal[idx] += dv
    covered = np.zeros(len(pts), dtype=bool)
    for idx, _, _ in raws:
        covered[idx] = True
    if not covered.all():
        i = int(np.argmin(covered))
        raise ValueError(f"point {pts[i]!r} lies outside every subdomain")
    out = []
    for idx, v, dv in raws:
        s = total[idx]
        ds = dtotal[idx]
        out.append((idx, v / s, (dv * s - v * ds) / (s * s)))
    return out
