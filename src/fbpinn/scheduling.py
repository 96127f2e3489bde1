"""Round-by-round active-subdomain schedules. Indices are 1-based."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ActiveSet:
    round: int
    active: frozenset


@dataclass(frozen=True)
class Schedule:
    """Round r activates groups[r % len(groups)]; kind is a label."""

    kind: str
    n_subdomains: int
    groups: tuple


def _check_n(n_subdomains):
    if not isinstance(n_subdomains, (int, np.integer)) or n_subdomains < 1:
        raise ValueError(f"n_subdomains must be a positive integer, got {n_subdomains!r}")
    return int(n_subdomains)


def _check_group(group, n, what):
    g = frozenset(int(j) for j in group)
    if not g:
        raise ValueError(f"{what} must not be empty")
    for j in g:
        if not 1 <= j <= n:
            raise ValueError(f"{what} contains index {j} outside 1..{n}")
    return g


def parallel_schedule(n_subdomains):
    n = _check_n(n_subdomains)
    return Schedule("parallel", n, (frozenset(range(1, n + 1)),))


def alternating_schedule(n_subdomains):
    n = _check_n(n_subdomains)
    return Schedule("alternating", n, tuple(frozenset({j}) for j in range(1, n + 1)))


def colored_schedule(n_subdomains, colors):
    """Disjoint groups covering all subdomains, activated cyclically."""
    n = _check_n(n_subdomains)
    groups = tuple(_check_group(c, n, "color group") for c in colors)
    if not groups:
        raise ValueError("colored schedule needs at least one color group")
    seen = set()
    for g in groups:
        if seen & g:
            raise ValueError(f"color groups overlap on {sorted(seen & g)}")
        seen |= g
    if seen != set(range(1, n + 1)):
        raise ValueError(f"color groups must cover 1..{n}, missing {sorted(set(range(1, n + 1)) - seen)}")
    return Schedule("colored", n, groups)


def explicit_schedule(n_subdomains, groups):
    """User-supplied round -> subset sequence, cycled; no cover requirement."""
    n = _check_n(n_subdomains)
    seq = tuple(_check_group(g, n, "explicit group") for g in groups)
    if not seq:
        raise ValueError("explicit schedule needs at least one group")
    return Schedule("explicit", n, seq)


def active_set(schedule, round):
    if not isinstance(round, (int, np.integer)) or round < 0:
        raise ValueError(f"round must be a non-negative integer, got {round!r}")
    r = int(round)
    return ActiveSet(r, schedule.groups[r % len(schedule.groups)])
