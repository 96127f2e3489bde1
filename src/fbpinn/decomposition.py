"""Overlapping 1D interval decompositions and C1 partition-of-unity windows.

A decomposition splits [a, b] into n equally spaced subdomains of common
width, clipped to the domain at the ends. overlap_fraction is the share of
each subdomain's width covered by overlap regions (both sides combined for
interior subdomains). Any width above the spacing is allowed, so a point
may sit in any number of subdomains. Windows are products of cosine ramps
over the overlap regions, normalized pointwise to sum to one over every
subdomain that holds the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .scheduling import _check_group


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
class Subdomain:
    index: int            # 1-based
    left: float
    right: float

    @property
    def width(self):
        return self.right - self.left

    @property
    def center(self):
        return 0.5 * (self.left + self.right)

    def contains(self, x):
        return self.left <= x <= self.right


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Subdomain k+1 is [lefts[k], rights[k]]; its window rises over
    [lefts[k], lefts[k] + delta] and falls over [rights[k] - delta,
    rights[k]], but the first window does not rise and the last does not
    fall. subdomains, the one per-subdomain view, is built from these
    arrays on first use."""

    domain: Interval
    lefts: np.ndarray
    rights: np.ndarray
    delta: float
    overlap_fraction: float | None

    @property
    def n_subdomains(self):
        return len(self.lefts)

    @cached_property
    def subdomains(self):
        return tuple(Subdomain(k, left, right) for k, left, right in
                     zip(range(1, self.n_subdomains + 1),
                         self.lefts.tolist(), self.rights.tolist()))

    @cached_property
    def ramps(self):
        """Every subdomain's (up start, up width, down end, down width) as
        four arrays. A width is the difference of its ramp's two bounds,
        which can differ from delta in the last bit. A subdomain without a
        ramp has start -inf (end +inf) and width 1, which puts t at +inf,
        where the ramp is exactly 1 and its slope 0."""
        up_start, down_end = self.lefts.copy(), self.rights.copy()
        up_width = (self.lefts + self.delta) - self.lefts
        down_width = self.rights - (self.rights - self.delta)
        up_start[0], up_width[0], down_end[-1], down_width[-1] = -np.inf, 1.0, np.inf, 1.0
        return up_start, up_width, down_end, down_width

    def to_jsonable(self):
        """The decomposition.json layout. Subdomains i < j overlap when
        lefts[j] < rights[i], and lefts and rights never decrease, so
        subdomain k+1's neighbours are the others in lo[k]:hi[k]."""
        lo = np.searchsorted(self.rights, self.lefts, "right").tolist()
        hi = np.searchsorted(self.lefts, self.rights, "left").tolist()
        last = self.n_subdomains - 1
        return {
            "domain": [self.domain.a, self.domain.b],
            "overlap_fraction": self.overlap_fraction,
            "subdomains": [
                {
                    "index": k + 1,
                    "left": left,
                    "right": right,
                    "neighbors": [j + 1 for j in range(lo[k], hi[k]) if j != k],
                    "window": {"up": None if k == 0 else [left, left + self.delta],
                               "down": None if k == last else [right - self.delta, right]},
                }
                for k, (left, right) in enumerate(zip(self.lefts.tolist(),
                                                      self.rights.tolist()))
            ],
        }


def _ramp(t, width):
    """The cosine ramp at t (0 up to t = 0, 1 from t = 1 on) and its slope
    over width, computed in t's buffer and one new array. Only the points
    strictly inside the ramp take a cosine and a sine."""
    low, high = t <= 0.0, t >= 1.0
    inside = (t > 0.0) & (t < 1.0)
    t *= np.pi
    slope = np.zeros_like(t)
    np.sin(t, out=slope, where=inside)
    slope *= 0.5 * np.pi
    slope /= width
    np.cos(t, out=t, where=inside)
    np.subtract(1.0, t, out=t, where=inside)
    np.divide(t, 2.0, out=t, where=inside)
    np.copyto(t, 0.0, where=low)
    np.copyto(t, 1.0, where=high)
    return t, slope


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

    Any width above the spacing h builds; a width w puts a point in at
    most floor(w / h) + 1 subdomains. Rejected are a NaN width, a lone
    subdomain's width below the domain's, and widths that rounding leaves
    without an overlap of positive width, or with a ramp of width 0.
    """
    if not isinstance(n_subdomains, (int, np.integer)) or n_subdomains < 1:
        raise ValueError(f"n_subdomains must be a positive integer, got {n_subdomains!r}")
    n = int(n_subdomains)
    h = domain.width / n
    if n == 1 and not width >= h:
        raise ValueError(f"subdomain width {width} must cover the domain width {h}")
    if n > 1 and not width > h:
        raise ValueError(
            f"subdomain width {width} must exceed the spacing {h} so neighbors overlap")
    centers = domain.a + (np.arange(n) + 0.5) * h
    lefts = np.maximum(centers - width / 2.0, domain.a)
    rights = np.minimum(centers + width / 2.0, domain.b)
    dec = Decomposition(domain, lefts, rights, width - h,
                        float(overlap_fraction) if overlap_fraction is not None else None)
    _, up_width, _, down_width = dec.ramps
    apart = np.nonzero((lefts[1:] >= rights[:-1]) | (up_width[1:] <= 0) | (down_width[:-1] <= 0))[0]
    if len(apart):
        i = int(apart[0])
        raise ValueError(f"subdomain width {width} leaves subdomains {i + 1} and {i + 2} "
                         "without an overlap of positive width")
    return dec


def window(decomposition, j, x):
    """Normalized window value and derivative of subdomain j at scalar x:
    x's row of window_table. Exactly (0, 0) outside the closed subdomain."""
    _check_group([j], decomposition.n_subdomains, "window")
    x = float(x)
    if not decomposition.lefts[j - 1] <= x <= decomposition.rights[j - 1]:
        return 0.0, 0.0
    _, win, dwin = window_table(decomposition, [x])[j - 1]
    return float(win[0]), float(dwin[0])


@dataclass(frozen=True)
class WindowTable:
    """Window rows of a point set, one subdomain after another: rows
    bounds[k]:bounds[k + 1] hold subdomain k+1's member positions ids, in
    ascending order, and their window values win and derivatives dwin.
    Item k is subdomain k+1's (ids, win, dwin), as views."""

    bounds: np.ndarray
    ids: np.ndarray
    win: np.ndarray
    dwin: np.ndarray

    def __len__(self):
        return len(self.bounds) - 1

    def __getitem__(self, k):
        k = range(len(self))[k]
        lo, hi = self.bounds[k], self.bounds[k + 1]
        return self.ids[lo:hi], self.win[lo:hi], self.dwin[lo:hi]


def window_table(decomposition, points):
    """The WindowTable of a batch of points inside the domain. Memberships
    come from one stable sort of the points and a searchsorted of the
    subdomain bounds; ramps, derivatives and the normalization run over all
    rows at once, and each point's raw windows are summed in row order,
    which is ascending subdomain order. Each intermediate array is deleted
    once spent: on a 30,000-point grid the pass then peaks below the
    per-subdomain loop it replaced."""
    pts = np.asarray(points, dtype=float)
    order = np.argsort(pts, kind="stable")
    by_x = pts[order]
    lo = np.searchsorted(by_x, decomposition.lefts, "left")
    counts = np.searchsorted(by_x, decomposition.rights, "right") - lo
    del by_x
    bounds = np.concatenate([[0], np.cumsum(counts)])
    # subdomain k+1 holds the sorted positions lo[k]:lo[k] + counts[k];
    # sorting (subdomain, point) keys puts its members in point order
    ids = np.repeat(lo - bounds[:-1], counts)
    ids += np.arange(bounds[-1])
    ids = order[ids]
    del order
    key = np.repeat(np.arange(decomposition.n_subdomains) * len(pts), counts)
    ids += key
    ids.sort(kind="stable")
    ids -= key
    del key
    covered = np.zeros(len(pts), dtype=bool)
    covered[ids] = True
    if not covered.all():
        i = int(np.argmin(covered))
        raise ValueError(f"point {pts[i]!r} lies outside every subdomain")
    del covered

    # raw windows: rising ramp times falling ramp, (u d, du d + u dd)
    up_start, up_width, down_end, down_width = decomposition.ramps
    x = pts[ids]
    t = x - np.repeat(up_start, counts)
    width = np.repeat(up_width, counts)
    t /= width
    win, dwin = _ramp(t, width)
    np.subtract(np.repeat(down_end, counts), x, out=x)
    width = np.repeat(down_width, counts)
    x /= width
    d, dd = _ramp(x, width)
    del x, width
    np.negative(dd, out=dd)
    dwin *= d
    dd *= win
    dwin += dd
    win *= d
    del d, dd

    # normalized: v / s and (dv s - v ds) / s^2, s each point's sum
    total, dtotal = np.zeros(len(pts)), np.zeros(len(pts))
    np.add.at(total, ids, win)
    np.add.at(dtotal, ids, dwin)
    total, dtotal = total[ids], dtotal[ids]
    dtotal *= win
    dwin *= total
    dwin -= dtotal
    win /= total
    total *= total
    dwin /= total
    return WindowTable(bounds, ids, win, dwin)


def sample_collocation(domain, n_points):
    """Equispaced points spanning the domain, endpoints included."""
    if not isinstance(n_points, (int, np.integer)) or n_points < 2:
        raise ValueError(f"need at least 2 collocation points, got {n_points!r}")
    return np.linspace(domain.a, domain.b, int(n_points))


def empty_subdomains(decomposition, points):
    """1-based indices of the subdomains whose closed interval holds none of
    the points."""
    pts = np.sort(np.asarray(points, dtype=float))
    held = (np.searchsorted(pts, decomposition.rights, "right")
            - np.searchsorted(pts, decomposition.lefts, "left"))
    return [int(j) + 1 for j in np.nonzero(held == 0)[0]]


def index_list(indices):
    """indices as a list for an error message: all of them, as str(list)
    gives them, when there are at most 10, else the first 10 and the
    total, as in "[5, 6, …; 99940 in all]"."""
    if len(indices) <= 10:
        return str([int(j) for j in indices])
    head = ", ".join(str(int(j)) for j in indices[:10])
    return f"[{head}, …; {len(indices)} in all]"


@dataclass(frozen=True)
class CollocationSets:
    """Membership of each point in each subdomain, split into interior points
    (one containing subdomain) and overlap points (more than one). Index
    arrays refer to positions in `points`; list position k belongs to
    subdomain k+1."""

    points: np.ndarray
    members: list
    interior: list
    overlap: list


def _collocation_in_domain(domain, points):
    """points as a float array; ValueError at the first one that is not a
    finite point of the closed domain."""
    pts = np.asarray(points, dtype=float)
    outside = (pts < domain.a) | (pts > domain.b) | ~np.isfinite(pts)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(
            f"collocation point outside domain [{domain.a}, {domain.b}]: {pts[i]!r}")
    return pts


def classify_points(decomposition, points):
    """The CollocationSets of points, from one window_table pass: a point
    held by more than one subdomain is an overlap point."""
    pts = _collocation_in_domain(decomposition.domain, points)
    table = window_table(decomposition, pts)
    shared = np.bincount(table.ids, minlength=len(pts)) > 1
    members = [ids for ids, _, _ in table]
    overlap = [ids[shared[ids]] for ids in members]
    interior = [ids[~shared[ids]] for ids in members]
    return CollocationSets(pts, members, interior, overlap)
