"""Per-subdomain reference for a Decomposition's views and classify_points.

A Decomposition holds its subdomains' bounds as arrays and builds its
Subdomain and WindowParams objects from them on first use, and
classify_points takes its sets from one window_table pass. This module
keeps the earlier forms as independent references: the objects built one
subdomain at a time from the layout formulas, the JSON layout written
from them, and one membership mask per subdomain, whose overlap points
are those its neighbours' masks also hold.
"""

import numpy as np

from fbpinn.decomposition import (CollocationSets, Subdomain, WindowParams,
                                  _collocation_in_domain)


def build(domain, n, width):
    """(subdomains, window_params) of n subdomains of common width on
    domain, as build_decomposition_from_width lays them out."""
    h = domain.width / n
    centers = domain.a + (np.arange(n) + 0.5) * h
    lefts = np.maximum(centers - width / 2.0, domain.a)
    rights = np.minimum(centers + width / 2.0, domain.b)
    delta = width - h
    neighbor_sets = [set() for _ in range(n)]
    for i in np.nonzero(lefts[1:] < rights[:-1])[0].tolist():
        neighbor_sets[i].add(i + 2)
        neighbor_sets[i + 1].add(i + 1)
    subdomains = tuple(
        Subdomain(i + 1, float(lefts[i]), float(rights[i]), frozenset(neighbor_sets[i]))
        for i in range(n))
    windows = []
    for i in range(n):
        up = None if i == 0 else (float(lefts[i]), float(lefts[i] + delta))
        down = None if i == n - 1 else (float(rights[i] - delta), float(rights[i]))
        windows.append(WindowParams(up, down))
    return subdomains, tuple(windows)


def to_jsonable(domain, overlap_fraction, subdomains, window_params):
    """The decomposition.json layout of these objects."""
    return {
        "domain": [domain.a, domain.b],
        "overlap_fraction": overlap_fraction,
        "subdomains": [
            {
                "index": sd.index,
                "left": sd.left,
                "right": sd.right,
                "neighbors": sorted(sd.neighbor_indices),
                "window": {"up": list(wp.up) if wp.up else None,
                           "down": list(wp.down) if wp.down else None},
            }
            for sd, wp in zip(subdomains, window_params)
        ],
    }


def classify_points(decomposition, points):
    """CollocationSets from one mask per subdomain: a member is an overlap
    point when a neighbour's mask holds it too."""
    pts = _collocation_in_domain(decomposition.domain, points)
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
