"""Task-family discovery: exact 1-D K-means over per-class sample counts.

The cluster centers (ascending) gate the weighting net: each class is
assigned to the family of its nearest center. Centers are frozen once
computed; training never re-clusters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class FamilyIndex:
    centers: np.ndarray                 # ascending
    class_to_family: np.ndarray         # (C,) int, family of each class

    @property
    def K(self) -> int:
        return len(self.centers)


def assign_family(counts, centers: np.ndarray) -> np.ndarray:
    """Nearest center index of each count (one index for a scalar count);
    exact midpoint ties go to the smaller center."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.size == 0:
        raise ValueError("empty center list")
    return np.argmin(np.abs(np.asarray(counts)[..., None] - centers), axis=-1)


def n_distinct(counts) -> int:
    """np.unique(counts).size without np.unique, which imports numpy.ma."""
    xs = np.sort(counts)
    return int(xs.size > 0) + int(np.count_nonzero(np.diff(xs)))


def kmeans_1d(counts, K: int, restarts: int = 10,
              rng: np.random.Generator | None = None) -> FamilyIndex:
    """Exact 1-D k-means of class sizes (Wang & Song 2011); centers ascending.

    Optimal clusters are contiguous runs of the sorted counts, so a dynamic
    program finds the minimum WCSS: the best split of the first j counts into
    k clusters extends a best split of a shorter prefix into k - 1. If there
    are fewer distinct count values than K, K is reduced to that number (with
    a warning) so the balanced case stays well defined. `restarts` and `rng`
    are unused: the result depends on the counts alone.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.size == 0:
        raise ValueError("empty class-count vector")
    xs = np.sort(counts)
    distinct = n_distinct(xs)
    if distinct < K:
        warnings.warn(
            f"only {distinct} distinct class sizes; reducing K from {K}")
        K = distinct
    n = xs.size
    s1, s2 = (np.concatenate(([0.0], np.cumsum(v))) for v in (xs, xs * xs))

    def sse(i, j):        # WCSS of the segments xs[i:j], from prefix sums
        return s2[j] - s2[i] - (s1[j] - s1[i]) ** 2 / (j - i)

    # cost[j], starts[j]: least WCSS and segment starts of a split of xs[:j]
    # into k segments, for k = 1, 2, ..., K in turn
    cost = np.concatenate(([np.inf], sse(0, np.arange(1, n + 1))))
    starts = [[0]] * (n + 1)
    for k in range(2, K + 1):
        j = np.arange(k, n + 1)     # the last segment is xs[i:j], i >= k - 1
        i = np.array([np.argmin(cost[k - 1:t] + sse(np.arange(k - 1, t), t))
                      for t in j]) + k - 1
        cost = np.concatenate((np.full(k, np.inf), cost[i] + sse(i, j)))
        starts = [[]] * k + [starts[a] + [a] for a in i]
    bounds = starts[n] + [n]
    centers = np.array([xs[a:b].mean() for a, b in zip(bounds, bounds[1:])])
    return FamilyIndex(centers=centers,
                       class_to_family=assign_family(counts, centers))


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
