"""Overlapping 1D interval decompositions and C1 partition-of-unity windows.

A decomposition splits [a, b] into n equally spaced subdomains of common
width, clipped to the domain at the ends. overlap_fraction is the share of
each subdomain's width covered by overlap regions (both sides combined for
interior subdomains), so every fraction in (0, 1) yields a chain where no
point sits in more than two subdomains. Windows are products of cosine
ramps over the overlap regions, normalized pointwise to sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TripleOverlapError(ValueError):
    """Subdomain width exceeds twice the spacing, so a point would fall in
    three or more subdomains."""


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError(f"interval bounds must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise ValueError(f"interval needs a < b, got [{self.a}, {self.b}]")

    @property
    def width(self):
        return self.b - self.a

    @property
    def midpoint(self):
        return 0.5 * (self.a + self.b)

    def contains(self, x):
        return self.a <= x <= self.b


@dataclass(frozen=True)
class WindowParams:
    """Cosine ramp descriptors; None means the window is flat (value 1)
    from that side out to the subdomain edge."""

    up: tuple | None      # (start, end), rises 0 -> 1
    down: tuple | None    # (start, end), falls 1 -> 0


@dataclass(frozen=True)
class Subdomain:
    index: int            # 1-based
    left: float
    right: float
    neighbor_indices: frozenset

    @property
    def width(self):
        return self.right - self.left

    @property
    def center(self):
        return 0.5 * (self.left + self.right)

    def contains(self, x):
        return self.left <= x <= self.right


@dataclass(frozen=True)
class Decomposition:
    domain: Interval
    subdomains: tuple
    window_params: tuple
    overlap_fraction: float | None

    @property
    def n_subdomains(self):
        return len(self.subdomains)

    def subdomain(self, j):
        if not 1 <= j <= self.n_subdomains:
            raise ValueError(f"subdomain index {j} out of range 1..{self.n_subdomains}")
        return self.subdomains[j - 1]

    def window(self, j, x):
        return window(self, j, x)

    def to_jsonable(self):
        return {
            "domain": [self.domain.a, self.domain.b],
            "overlap_fraction": self.overlap_fraction,
            "subdomains": [
                {
                    "index": sd.index,
                    "left": sd.left,
                    "right": sd.right,
                    "neighbors": sorted(sd.neighbor_indices),
                    "window": {"up": list(wp.up) if wp.up else None,
                               "down": list(wp.down) if wp.down else None},
                }
                for sd, wp in zip(self.subdomains, self.window_params)
            ],
        }


def _ramp(t):
    t = np.asarray(t, dtype=float)
    mid = (1.0 - np.cos(np.pi * np.clip(t, 0.0, 1.0))) / 2.0
    return np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, mid))


def _dramp(t):
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, 0.5 * np.pi * np.sin(np.pi * np.clip(t, 0.0, 1.0)), 0.0)


def _raw_window(wp, x):
    """Unnormalized window and derivative; assumes x inside the subdomain."""
    x = np.asarray(x, dtype=float)
    val = np.ones_like(x)
    dval = np.zeros_like(x)
    if wp.up is not None:
        s, e = wp.up
        t = (x - s) / (e - s)
        u = _ramp(t)
        du = _dramp(t) / (e - s)
        val, dval = u, du
    if wp.down is not None:
        s, e = wp.down
        t = (e - x) / (e - s)
        d = _ramp(t)
        dd = -_dramp(t) / (e - s)
        dval = dval * d + val * dd
        val = val * d
    return val, dval


def build_decomposition(domain, n_subdomains, overlap_fraction):
    """Equally spaced centers, common width 2h/(2 - overlap_fraction)."""
    if not isinstance(n_subdomains, (int, np.integer)) or n_subdomains < 1:
        raise ValueError(f"n_subdomains must be a positive integer, got {n_subdomains!r}")
    if not 0.0 < overlap_fraction < 1.0:
        raise ValueError(f"overlap_fraction must lie in (0, 1), got {overlap_fraction!r}")
    h = domain.width / n_subdomains
    width = 2.0 * h / (2.0 - overlap_fraction)
    return build_decomposition_from_width(domain, n_subdomains, width,
                                          overlap_fraction=overlap_fraction)


def build_decomposition_from_width(domain, n_subdomains, width, overlap_fraction=None):
    """Decomposition with an explicit common subdomain width.

    Widths above twice the spacing are rejected: they would put points in
    three subdomains at once, which the window and cache machinery does not
    support.
    """
    if not isinstance(n_subdomains, (int, np.integer)) or n_subdomains < 1:
        raise ValueError(f"n_subdomains must be a positive integer, got {n_subdomains!r}")
    n = int(n_subdomains)
    h = domain.width / n
    if n > 1:
        if width <= h:
            raise ValueError(
                f"subdomain width {width} must exceed the spacing {h} so neighbors overlap")
        if width > 2.0 * h:
            raise TripleOverlapError(
                f"subdomain width {width} exceeds twice the spacing {h}; "
                "points would lie in three subdomains")
    centers = domain.a + (np.arange(n) + 0.5) * h
    lefts = np.maximum(centers - width / 2.0, domain.a)
    rights = np.minimum(centers + width / 2.0, domain.b)
    delta = width - h

    neighbor_sets = [set() for _ in range(n)]
    overlaps = np.maximum.outer(lefts, lefts) < np.minimum.outer(rights, rights)
    for i, j in np.argwhere(np.triu(overlaps, k=1)).tolist():
        if j - i > 1:
            raise TripleOverlapError(
                f"subdomains {i + 1} and {j + 1} overlap; chain structure broken")
        neighbor_sets[i].add(j + 1)
        neighbor_sets[j].add(i + 1)

    subdomains = tuple(
        Subdomain(i + 1, float(lefts[i]), float(rights[i]), frozenset(neighbor_sets[i]))
        for i in range(n))
    windows = []
    for i in range(n):
        up = None if i == 0 else (float(lefts[i]), float(lefts[i] + delta))
        down = None if i == n - 1 else (float(rights[i] - delta), float(rights[i]))
        windows.append(WindowParams(up, down))
    return Decomposition(domain, subdomains, tuple(windows),
                         float(overlap_fraction) if overlap_fraction is not None else None)


def window(decomposition, j, x):
    """Normalized window value and derivative of subdomain j at scalar x.

    Exactly (0, 0) outside the closed subdomain.
    """
    sd = decomposition.subdomain(j)
    x = float(x)
    if not sd.contains(x):
        return 0.0, 0.0
    total = 0.0
    dtotal = 0.0
    raw = draw = 0.0
    for other, wp in zip(decomposition.subdomains, decomposition.window_params):
        if not other.contains(x):
            continue
        v, dv = _raw_window(wp, x)
        v, dv = float(v), float(dv)
        total += v
        dtotal += dv
        if other.index == j:
            raw, draw = v, dv
    return raw / total, (draw * total - raw * dtotal) / (total * total)


def window_table(decomposition, points):
    """Per-subdomain (member positions, window values, window derivatives)
    for a batch of points inside the domain."""
    pts = np.asarray(points, dtype=float)
    total = np.zeros_like(pts)
    dtotal = np.zeros_like(pts)
    raws = []
    for sd, wp in zip(decomposition.subdomains, decomposition.window_params):
        idx = np.nonzero((pts >= sd.left) & (pts <= sd.right))[0]
        v, dv = _raw_window(wp, pts[idx])
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


def sample_collocation(domain, n_points):
    """Equispaced points spanning the domain, endpoints included."""
    if not isinstance(n_points, (int, np.integer)) or n_points < 2:
        raise ValueError(f"need at least 2 collocation points, got {n_points!r}")
    return np.linspace(domain.a, domain.b, int(n_points))


def empty_subdomains(decomposition, points):
    """1-based indices of the subdomains whose closed interval holds none of
    the points."""
    pts = np.sort(np.asarray(points, dtype=float))
    lefts = [sd.left for sd in decomposition.subdomains]
    rights = [sd.right for sd in decomposition.subdomains]
    held = np.searchsorted(pts, rights, "right") - np.searchsorted(pts, lefts, "left")
    return [int(j) + 1 for j in np.nonzero(held == 0)[0]]


@dataclass(frozen=True)
class CollocationSets:
    """Membership of each point in each subdomain, split into interior points
    (one containing subdomain) and overlap points (two). Index arrays refer
    to positions in `points`; list position k belongs to subdomain k+1."""

    points: np.ndarray
    members: list
    interior: list
    overlap: list


def classify_points(decomposition, points):
    pts = np.asarray(points, dtype=float)
    dom = decomposition.domain
    outside = (pts < dom.a) | (pts > dom.b) | ~np.isfinite(pts)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"collocation point outside domain [{dom.a}, {dom.b}]: {pts[i]!r}")
    masks = [(pts >= sd.left) & (pts <= sd.right) for sd in decomposition.subdomains]
    members, interior, overlap = [], [], []
    for sd, mask in zip(decomposition.subdomains, masks):
        shared = np.zeros_like(mask)
        for l in sd.neighbor_indices:
            shared |= masks[l - 1]
        members.append(np.nonzero(mask)[0])
        overlap.append(np.nonzero(mask & shared)[0])
        interior.append(np.nonzero(mask & ~shared)[0])
    return CollocationSets(pts, members, interior, overlap)
