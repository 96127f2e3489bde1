"""Per-subdomain reference for a Decomposition's views and classify_points.

A Decomposition holds its subdomains' bounds as arrays, builds its
Subdomain view from them on first use and writes decomposition.json
straight from them, and classify_points takes its sets from one
window_table pass. This module keeps the earlier forms as independent
references: the layout built one subdomain at a time from the layout
formulas, neighbour sets from comparing every pair of subdomains, the
JSON layout written from those, and one membership mask per subdomain,
whose overlap points are those its neighbours' masks also hold.
"""

import numpy as np

from fbpinn.decomposition import CollocationSets, Subdomain, _collocation_in_domain


def bounds(domain, n, width):
    """(lefts, rights) of n subdomains of common width on domain, as
    build_decomposition_from_width lays them out."""
    h = domain.width / n
    centers = domain.a + (np.arange(n) + 0.5) * h
    return (np.maximum(centers - width / 2.0, domain.a),
            np.minimum(centers + width / 2.0, domain.b))


def neighbors(lefts, rights):
    """Each subdomain's sorted 1-based neighbours: every other subdomain
    whose interval overlaps its own in more than a point."""
    overlaps = np.maximum.outer(lefts, lefts) < np.minimum.outer(rights, rights)
    np.fill_diagonal(overlaps, False)
    return [(np.nonzero(row)[0] + 1).tolist() for row in overlaps]


def build(domain, n, width):
    """(subdomains, windows) of n subdomains of common width on domain:
    the Subdomain views, and each window's (up, down) ramp bounds, None
    where the window is flat out to that edge."""
    lefts, rights = bounds(domain, n, width)
    delta = width - domain.width / n
    subdomains = tuple(Subdomain(i + 1, float(lefts[i]), float(rights[i])) for i in range(n))
    windows = []
    for i in range(n):
        up = None if i == 0 else (float(lefts[i]), float(lefts[i] + delta))
        down = None if i == n - 1 else (float(rights[i] - delta), float(rights[i]))
        windows.append((up, down))
    return subdomains, tuple(windows)


def to_jsonable(domain, overlap_fraction, subdomains, windows):
    """The decomposition.json layout of this build."""
    near = neighbors(np.array([sd.left for sd in subdomains]),
                     np.array([sd.right for sd in subdomains]))
    return {
        "domain": [domain.a, domain.b],
        "overlap_fraction": overlap_fraction,
        "subdomains": [
            {
                "index": sd.index,
                "left": sd.left,
                "right": sd.right,
                "neighbors": nb,
                "window": {"up": list(up) if up else None,
                           "down": list(down) if down else None},
            }
            for sd, nb, (up, down) in zip(subdomains, near, windows)
        ],
    }


def classify_points(decomposition, points):
    """CollocationSets from one mask per subdomain: a member is an overlap
    point when a neighbour's mask holds it too."""
    pts = _collocation_in_domain(decomposition.domain, points)
    lefts, rights = decomposition.lefts, decomposition.rights
    masks = [(pts >= left) & (pts <= right) for left, right in zip(lefts, rights)]
    members, interior, overlap = [], [], []
    for mask, near in zip(masks, neighbors(lefts, rights)):
        shared = np.zeros_like(mask)
        for l in near:
            shared |= masks[l - 1]
        members.append(np.nonzero(mask)[0])
        overlap.append(np.nonzero(mask & shared)[0])
        interior.append(np.nonzero(mask & ~shared)[0])
    return CollocationSets(pts, members, interior, overlap)
