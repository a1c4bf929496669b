"""Task-family discovery: 1-D K-means over per-class sample counts.

The cluster centers (ascending) gate the weighting net: each class is
assigned to the family of its nearest center. Centers are frozen once
computed; training never re-clusters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass
class FamilyIndex:
    centers: np.ndarray                 # ascending
    class_to_family: dict[int, int] = field(default_factory=dict)

    @property
    def K(self) -> int:
        return len(self.centers)


def assign_family(count: float, centers: np.ndarray) -> int:
    """Nearest center index; exact midpoint ties go to the smaller center."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.size == 0:
        raise ValueError("empty center list")
    return int(np.argmin(np.abs(centers - count)))


def _lloyd(counts: np.ndarray, centers: np.ndarray, max_iter: int = 100):
    """Lloyd iterations to a fixed point. Returns (centers, assignment, wcss)."""
    for _ in range(max_iter):
        assign = np.argmin(np.abs(counts[:, None] - centers[None, :]), axis=1)
        new = centers.copy()
        for k in range(len(centers)):
            members = counts[assign == k]
            if members.size:
                new[k] = members.mean()
        if np.array_equal(new, centers):
            break
        centers = new
    assign = np.argmin(np.abs(counts[:, None] - centers[None, :]), axis=1)
    wcss = float(((counts - centers[assign]) ** 2).sum())
    return centers, assign, wcss


def kmeans_1d(counts, K: int, restarts: int = 10,
              rng: np.random.Generator | None = None) -> FamilyIndex:
    """Best-of-`restarts` Lloyd clustering of class sizes; centers ascending.

    If there are fewer distinct count values than K, K is reduced to that
    number (with a warning) so the balanced case stays well defined.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.size == 0:
        raise ValueError("empty class-count vector")
    if rng is None:
        rng = np.random.default_rng(0)
    distinct = np.unique(counts)
    if distinct.size < K:
        warnings.warn(
            f"only {distinct.size} distinct class sizes; reducing K from {K}")
        K = distinct.size
    best = None
    for _ in range(max(1, restarts)):
        init = rng.choice(distinct, size=K, replace=False).astype(np.float64)
        centers, assign, wcss = _lloyd(counts, np.sort(init))
        if best is None or wcss < best[2] - 1e-12:
            best = (centers, assign, wcss)
    centers, _, _ = best
    order = np.argsort(centers)
    centers = centers[order]
    mapping = {c: assign_family(counts[c], centers) for c in range(len(counts))}
    return FamilyIndex(centers=centers, class_to_family=mapping)


def brute_force_wcss(counts, K: int) -> float:
    """Optimal WCSS by enumerating contiguous partitions of the sorted counts.

    In 1-D the optimal clusters are contiguous in sorted order; this is the
    independent oracle for kmeans_1d and is only meant for small inputs.
    """
    from itertools import combinations

    xs = np.sort(np.asarray(counts, dtype=np.float64))
    n = xs.size
    K = min(K, np.unique(xs).size)

    def seg_cost(i, j):  # xs[i:j]
        seg = xs[i:j]
        return float(((seg - seg.mean()) ** 2).sum())

    best = np.inf
    for cuts in combinations(range(1, n), K - 1):
        bounds = (0,) + cuts + (n,)
        cost = sum(seg_cost(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
        best = min(best, cost)
    return best
