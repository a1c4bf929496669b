"""1-D clustering of class sizes into task families."""

import time
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from cmwnet.numkit import spawn_rngs
from cmwnet.taskfam import (FamilyIndex, assign_family, brute_force_wcss,
                            kmeans_1d, n_distinct)


def wcss(counts, fam: FamilyIndex) -> float:
    counts = np.asarray(counts, dtype=np.float64)
    total = 0.0
    for i, c in enumerate(counts):
        mu = fam.centers[fam.class_to_family[i]]
        total += (c - mu) ** 2
    return total


def exact_wcss(groups) -> Fraction:
    total = Fraction(0)
    for group in groups:
        xs = [Fraction(int(x)) for x in group]
        mean = sum(xs) / len(xs)
        total += sum((x - mean) ** 2 for x in xs)
    return total


class TestKmeans:
    def test_identical_counts_single_cluster(self):
        fam = kmeans_1d([10, 10, 10, 10], 1)
        np.testing.assert_allclose(fam.centers, [10.0])

    def test_three_obvious_groups(self):
        fam = kmeans_1d([5, 6, 50, 55, 500], 3)
        np.testing.assert_allclose(sorted(fam.centers), [5.5, 52.5, 500.0])

    def test_k_reduced_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fam = kmeans_1d([7, 7, 7], 3)
        assert fam.K == 1
        np.testing.assert_allclose(fam.centers, [7.0])
        assert any("distinct" in str(w.message).lower() or "reduc" in
                   str(w.message).lower() for w in caught)

    def test_empty_counts(self):
        with pytest.raises(ValueError):
            kmeans_1d([], 2)

    def test_centers_ascending(self, rng):
        counts = rng.integers(1, 1000, size=8)
        fam = kmeans_1d(counts, 3, rng=rng)
        assert np.all(np.diff(fam.centers) > 0) or fam.K == 1

    def test_nearest_center_member_means(self, rng):
        counts = rng.integers(1, 1000, size=8).astype(float)
        fam = kmeans_1d(counts, 3, rng=rng)
        # a Lloyd fixed point: reassign then recenter changes nothing
        for i, c in enumerate(counts):
            assert fam.class_to_family[i] == assign_family(c, fam.centers)
        for k in range(fam.K):
            members = [counts[i] for i in range(len(counts))
                       if fam.class_to_family[i] == k]
            assert abs(np.mean(members) - fam.centers[k]) < 1e-9

    def test_deterministic_given_seed(self):
        counts = [3, 11, 47, 250, 251, 900]
        a = kmeans_1d(counts, 3, rng=np.random.default_rng(5))
        b = kmeans_1d(counts, 3, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.class_to_family, b.class_to_family)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(777)
        for _ in range(30):
            m = int(rng.integers(2, 9))
            counts = rng.integers(1, 1001, size=m).astype(float)
            K = int(rng.integers(1, 4))
            fam = kmeans_1d(counts, K, restarts=10, rng=rng)
            best = brute_force_wcss(counts, fam.K)
            assert wcss(counts, fam) <= best + 1e-9

    def test_longtail_benchmark_counts_optimal(self):
        # the long-tail benchmark's class sizes (imbalance 100, 2000 per
        # class); from the k-means streams of training seeds 14, 20 and 21
        # a best-of-10 Lloyd search ends at {2000, 1199} {719, 431}
        # {259..20}, 62% above the optimal WCSS
        counts = [2000, 1199, 719, 431, 259, 155, 93, 56, 34, 20]
        best = brute_force_wcss(counts, 3)
        for seed in (14, 20, 21):
            rng_kmeans = spawn_rngs(seed, 6)[4]
            fam = kmeans_1d(counts, 3, rng=rng_kmeans)
            assert abs(wcss(counts, fam) - best) <= 1e-9
        np.testing.assert_array_equal(
            [fam.class_to_family[c] for c in range(10)],
            [2, 1, 1, 0, 0, 0, 0, 0, 0, 0])

    def test_independent_of_rng(self):
        counts = [3, 11, 47, 250, 251, 900, 12, 13]
        ref = kmeans_1d(counts, 3)
        for seed in range(5):
            fam = kmeans_1d(counts, 3, restarts=1,
                            rng=np.random.default_rng(seed))
            np.testing.assert_array_equal(fam.centers, ref.centers)
            np.testing.assert_array_equal(fam.class_to_family,
                                          ref.class_to_family)

    def test_thousand_classes_under_a_second(self):
        # WebVision's class count; a numpy call per DP cell took about 7 s
        counts = np.random.default_rng(31).integers(1, 5000, size=1000)
        start = time.perf_counter()
        fam = kmeans_1d(counts, 3)
        assert time.perf_counter() - start < 1.0
        assert fam.K == 3

    def test_exact_optimum_on_ties(self):
        # whole-number counts with many equal values, where several splits
        # can have exactly the least WCSS: the families' WCSS, in exact
        # arithmetic, is the least over every split of the sorted counts
        cases = [([1] * 4 + [2] * 6 + [3] * 10, 2),
                 ([1] * 4 + [2] * 6 + [3] * 10, 3),
                 ([1] * 5 + [2] * 5 + [3] * 5, 2),
                 ([2, 2, 4, 4, 6, 6, 8, 8], 3)]
        rng = np.random.default_rng(32)
        for _ in range(20):
            counts = rng.integers(1, 6, size=12)
            cases.append((counts, min(int(rng.integers(2, 5)),
                                      n_distinct(counts))))
        for counts, K in cases:
            fam = kmeans_1d(counts, K)
            xs = sorted(int(c) for c in counts)
            best = min(exact_wcss(np.split(xs, cuts))
                       for cuts in combinations(range(1, len(xs)), fam.K - 1))
            got = exact_wcss([np.asarray(counts)[fam.class_to_family == k]
                              for k in range(fam.K)])
            assert got == best, (counts, K)


    def test_equality_is_identity(self):
        a = kmeans_1d([5, 6, 50, 55, 500], 3)
        b = kmeans_1d([5, 6, 50, 55, 500], 3)
        assert a == a and not a == b and a != b


class TestDistinctSizes:
    """n_distinct counts what np.unique(...).size does, without np.unique."""

    def test_equals_unique_oracle(self):
        rng = np.random.default_rng(21)
        cases = [[7], [7, 7, 7, 7], list(range(1, 12)), [3.0, 3.0, 1.0]]
        for _ in range(200):
            m = int(rng.integers(1, 30))
            cases.append(rng.integers(1, int(rng.integers(2, 40)), size=m))
        for counts in cases:
            assert n_distinct(counts) == np.unique(counts).size
        assert n_distinct(np.array([], dtype=np.int64)) == 0

    def test_kmeans_reduces_k_exactly_when_unique_says(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            counts = rng.integers(1, 6, size=int(rng.integers(1, 9)))
            K = int(rng.integers(1, 6))
            sizes = np.unique(counts).size
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fam = kmeans_1d(counts, K)
            want = ([f"only {sizes} distinct class sizes; reducing K from {K}"]
                    if sizes < K else [])
            assert [str(w.message) for w in caught] == want
            assert fam.K == min(K, sizes)


class TestAssignFamily:
    def test_exact_center(self):
        assert assign_family(500, np.array([5.5, 52.5, 500.0])) == 2

    def test_midpoint_tie_rule(self):
        # 29 is equidistant from 5.5 and 52.5; tie goes to the lower index
        assert assign_family(29, np.array([5.5, 52.5, 500.0])) == 0

    def test_agrees_with_brute_force_nearest(self, rng):
        centers = np.sort(rng.uniform(0, 1000, size=4))
        for c in rng.integers(0, 1001, size=1000):
            brute = int(np.argmin(np.abs(centers - c)))
            assert assign_family(float(c), centers) == brute
