"""Synthetic dataset generation and bias injection."""

import tracemalloc
import warnings

import numpy as np
import pytest

from cmwnet import biasgen
from cmwnet.biasgen import (BiasSpec, Dataset, apply_longtail, export_csv,
                            inject_asymmetric, inject_pmd, inject_symmetric, load_dataset,
                            make_gaussian_classes, nearest_class_mapping,
                            posterior, save_dataset)
from cmwnet.numkit import read_arrays


class TestGaussianClasses:
    def test_counts_exact(self):
        ds = make_gaussian_classes(4, 3, 50, 6.0, 1.0, 0)
        np.testing.assert_array_equal(ds.class_counts(), [50] * 4)
        np.testing.assert_array_equal(ds.observed_labels, ds.clean_labels)

    def test_zero_separation_chance_bayes(self):
        ds = make_gaussian_classes(2, 2, 10, 0.0, 1.0, 0)
        eta = posterior(np.random.default_rng(0).normal(size=(100, 2)),
                        ds.mixture)
        np.testing.assert_allclose(eta, np.full((100, 2), 0.5), atol=1e-9)

    def test_wide_separation_high_bayes_accuracy(self):
        ds = make_gaussian_classes(4, 2, 10, 6.0, 1.0, 0)
        rng = np.random.default_rng(1)
        # fresh Monte-Carlo draw per class, scored by the posterior argmax
        hits = 0
        total = 10000
        per = total // 4
        for c in range(4):
            x = rng.normal(size=(per, 2)) + ds.mixture.means[c]
            eta = posterior(x, ds.mixture)
            hits += int((np.argmax(eta, axis=1) == c).sum())
        assert hits / total > 0.99

    def test_pairwise_mean_distances(self):
        # with d >= C-1 every pair of class means is exactly `separation` apart
        ds = make_gaussian_classes(5, 8, 5, 3.0, 1.0, 0)
        m = ds.mixture.means
        for i in range(5):
            for j in range(i + 1, 5):
                assert abs(np.linalg.norm(m[i] - m[j]) - 3.0) < 1e-9

    def test_deterministic(self):
        a = make_gaussian_classes(3, 4, 20, 5.0, 1.0, 9)
        b = make_gaussian_classes(3, 4, 20, 5.0, 1.0, 9)
        np.testing.assert_array_equal(a.features, b.features)

    @pytest.mark.parametrize("C, d, n_per_class", [
        (10, 8, 40),  # simplex means
        (4, 2, 25),   # circle means
        (2, 1, 9),
        (3, 2, 1),
    ])
    def test_equals_gathered_means_plus_noise(self, C, d, n_per_class):
        # the in-place draw is the same single addition per feature as
        # means[labels] + noise, so the features match bit for bit
        ds = make_gaussian_classes(C, d, n_per_class, 5.0, 1.5, 11)
        noise = np.random.default_rng(np.random.SeedSequence(11)).normal(
            scale=1.5, size=(C * n_per_class, d))
        want = ds.mixture.means[ds.clean_labels] + noise
        assert ds.features.shape == want.shape
        assert ds.features.tobytes() == want.tobytes()

    def test_draw_holds_one_feature_array(self):
        make_gaussian_classes(10, 8, 2, 5.0, 1.0, 0)  # first-call set-up
        tracemalloc.start()
        try:
            ds = make_gaussian_classes(10, 8, 2000, 5.0, 1.0, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the features, the label vector and its two copies; a gathered
        # means[labels] beside the noise would need a second n x d array
        assert peak < 1.5 * ds.features.nbytes + 3 * ds.clean_labels.nbytes

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            make_gaussian_classes(1, 2, 10, 1.0, 1.0, 0)

    @pytest.mark.parametrize("C", [3, 10])
    def test_three_or_more_classes_need_two_dims(self, C):
        # their means lie on a circle in the first two coordinates
        with pytest.raises(ValueError):
            make_gaussian_classes(C, 1, 10, 1.0, 1.0, 0)
        assert make_gaussian_classes(C, 2, 10, 1.0, 1.0, 0).d == 2

    def test_two_classes_fit_one_dim(self):
        ds = make_gaussian_classes(2, 1, 10, 4.0, 1.0, 0)
        assert abs(np.ptp(ds.mixture.means[:, 0]) - 4.0) < 1e-12

    def test_non_finite_draw_refused(self):
        # features past the float range make a dataset no loader accepts
        with pytest.raises(ValueError, match="non-finite feature"):
            make_gaussian_classes(4, 3, 30, 4.0, 1.0e308, 0)


class TestPosterior:
    def test_midpoint_symmetry(self):
        ds = make_gaussian_classes(2, 2, 5, 4.0, 1.0, 0)
        mid = ds.mixture.means.mean(axis=0)
        eta = posterior(mid[None, :], ds.mixture)
        np.testing.assert_allclose(eta[0], [0.5, 0.5], atol=1e-12)

    def test_class_mean_dominant(self):
        ds = make_gaussian_classes(3, 2, 5, 8.0, 1.0, 0)
        eta = posterior(ds.mixture.means[1][None, :], ds.mixture)
        assert eta[0, 1] > 0.99

    def test_rows_sum_to_one(self, rng):
        ds = make_gaussian_classes(4, 3, 5, 5.0, 1.0, 0)
        eta = posterior(rng.normal(size=(50, 3)) * 5, ds.mixture)
        np.testing.assert_allclose(eta.sum(axis=1), np.ones(50), atol=1e-12)

    def test_sigma_squared_past_float_range(self):
        # sigma ** 2 overflows above about 1.3e154: every class is then
        # equally likely, so pmd noise flips the last class to the one before
        ds = make_gaussian_classes(4, 3, 30, 4.0, 1.0e200, 0)
        with np.errstate(over="ignore"):
            eta = posterior(ds.features, ds.mixture)
            noisy = inject_pmd(ds, 1, 0.1, 2)
        np.testing.assert_array_equal(eta, 0.25)
        flipped = noisy.noisy_mask()
        assert flipped.any()
        assert (noisy.clean_labels[flipped] == 3).all()
        assert (noisy.observed_labels[flipped] == 2).all()

    def test_no_difference_cube(self):
        # n = 2000 rows against C = 100 simplex means in d = 99: an (n, C, d)
        # cube of differences would hold 160 MB
        ds = make_gaussian_classes(100, 99, 20, 8.0, 1.0, 0)
        posterior(ds.features[:2], ds.mixture)  # first-call set-up
        tracemalloc.start()
        try:
            eta = posterior(ds.features, ds.mixture)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        # the squared-distance form, 100 rows at a time
        for i in range(0, ds.n, 100):
            x = ds.features[i:i + 100, None, :]
            logp = -((x - ds.mixture.means) ** 2).sum(axis=2) / 2.0
            p = np.exp(logp - logp.max(axis=1, keepdims=True))
            np.testing.assert_allclose(
                eta[i:i + 100], p / p.sum(axis=1, keepdims=True),
                rtol=0, atol=1e-12)


class TestLongtail:
    def test_factor_one_unchanged(self):
        ds = make_gaussian_classes(4, 2, 30, 5.0, 1.0, 0)
        out = apply_longtail(ds, 1.0, 3)
        np.testing.assert_array_equal(out.class_counts(), ds.class_counts())

    def test_geometric_decay(self):
        ds = make_gaussian_classes(10, 2, 500, 5.0, 1.0, 0)
        out = apply_longtail(ds, 10.0, 3)
        counts = out.class_counts()
        mu = 10.0 ** (-1.0 / 9.0)
        expected = [int(np.ceil(500 * mu ** i - 1e-9)) for i in range(10)]
        np.testing.assert_array_equal(counts, expected)
        assert counts[0] == 500 and counts[-1] == 50

    def test_measured_factor_near_requested(self):
        ds = make_gaussian_classes(10, 2, 500, 5.0, 1.0, 0)
        counts = apply_longtail(ds, 100.0, 3).class_counts()
        assert abs(counts.max() / counts.min() - 100.0) / 100.0 < 0.05

    def test_factor_below_one_rejected(self):
        ds = make_gaussian_classes(3, 2, 10, 5.0, 1.0, 0)
        with pytest.raises(ValueError):
            apply_longtail(ds, 0.5, 0)

    def test_preserves_feature_label_pairing(self):
        ds = make_gaussian_classes(4, 2, 40, 5.0, 1.0, 0)
        out = apply_longtail(ds, 8.0, 3)
        # every kept row exists in the source with the same labels
        src = {tuple(f): (o, c) for f, o, c in
               zip(ds.features, ds.observed_labels, ds.clean_labels)}
        for f, o, c in zip(out.features, out.observed_labels, out.clean_labels):
            assert src[tuple(f)] == (o, c)


class TestImbalanceFactor:
    def test_balanced(self):
        counts = make_gaussian_classes(3, 2, 10, 5.0, 1.0, 0).class_counts()
        assert counts.max() / counts.min() == 1.0

    def test_empty_class_rejected(self):
        # long-tail subsampling starts from a balanced set, so an empty
        # class is refused rather than given an infinite factor
        ds = make_gaussian_classes(3, 2, 10, 5.0, 1.0, 0)
        ds = Dataset(ds.features, np.zeros(30, dtype=np.int64),
                     ds.clean_labels, 3, ds.mixture)
        with pytest.raises(ValueError):
            apply_longtail(ds, 10.0, 0)


class TestSymmetricNoise:
    def test_rate_zero_unchanged(self):
        ds = make_gaussian_classes(4, 2, 25, 5.0, 1.0, 0)
        out = inject_symmetric(ds, 0.0, 1)
        np.testing.assert_array_equal(out.observed_labels, ds.observed_labels)

    def test_effective_rate_with_replacement(self):
        ds = make_gaussian_classes(10, 2, 1000, 5.0, 1.0, 0)
        out = inject_symmetric(ds, 0.4, 1)
        frac = float(np.mean(out.observed_labels != out.clean_labels))
        # resampling keeps the old label 1/C of the time
        expect = 0.4 * 0.9
        sigma = np.sqrt(expect * (1 - expect) / ds.n)
        assert abs(frac - expect) < 3 * sigma

    def test_full_rate_two_classes(self):
        ds = make_gaussian_classes(2, 2, 5000, 5.0, 1.0, 0)
        out = inject_symmetric(ds, 1.0, 1)
        frac = float(np.mean(out.observed_labels != out.clean_labels))
        assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / ds.n)

    def test_clean_labels_and_features_untouched(self):
        ds = make_gaussian_classes(4, 2, 25, 5.0, 1.0, 0)
        out = inject_symmetric(ds, 0.7, 1)
        np.testing.assert_array_equal(out.clean_labels, ds.clean_labels)
        np.testing.assert_array_equal(out.features, ds.features)

    def test_rate_out_of_range(self):
        ds = make_gaussian_classes(3, 2, 10, 5.0, 1.0, 0)
        with pytest.raises(ValueError):
            inject_symmetric(ds, 1.5, 0)


class TestAsymmetricNoise:
    def test_rate_zero_unchanged(self):
        ds = make_gaussian_classes(4, 2, 25, 5.0, 1.0, 0)
        out = inject_asymmetric(ds, 0.0, 1)
        np.testing.assert_array_equal(out.observed_labels, ds.observed_labels)

    def test_flips_follow_mapping_edges(self):
        ds = make_gaussian_classes(6, 5, 300, 5.0, 1.0, 0)
        mapping = nearest_class_mapping(ds.mixture)
        out = inject_asymmetric(ds, 0.4, 1)
        noisy = out.observed_labels != out.clean_labels
        for i in np.where(noisy)[0]:
            assert out.observed_labels[i] == mapping[out.clean_labels[i]]

    def test_per_class_rate(self):
        ds = make_gaussian_classes(5, 4, 1000, 5.0, 1.0, 0)
        out = inject_asymmetric(ds, 0.4, 1)
        for c in range(5):
            sel = out.clean_labels == c
            frac = float(np.mean(out.observed_labels[sel] != c))
            assert abs(frac - 0.4) < 3 * np.sqrt(0.4 * 0.6 / sel.sum())

    def test_mapping_is_nearest_mean(self):
        ds = make_gaussian_classes(4, 2, 10, 5.0, 1.0, 0)
        mapping = nearest_class_mapping(ds.mixture)
        for c, m in mapping.items():
            assert m != c
            d_m = np.linalg.norm(ds.mixture.means[c] - ds.mixture.means[m])
            for other in range(4):
                if other != c:
                    d_o = np.linalg.norm(ds.mixture.means[c] -
                                         ds.mixture.means[other])
                    assert d_m <= d_o + 1e-12


def pmd_by_bisection(ds, noise_type, level, seed):
    """inject_pmd as it was calibrated before the exact solve: a doubling
    search and 200 bisection steps for the c with mean(min(c tau, 1)) =
    level, and no flips at level 0."""
    out = ds.copy()
    if level == 0.0:
        return out
    eta = posterior(ds.features, ds.mixture)
    order = np.argsort(eta, axis=1)
    u, s = order[:, -1], order[:, -2]
    rows = np.arange(ds.n)
    tau = biasgen._margin_tau(eta[rows, u] - eta[rows, s], noise_type)
    tau *= ds.clean_labels == u

    def mean_prob(c):
        # a level just past the saturated mean doubles c to inf, and
        # inf * 0 is nan; those rows never flip, as in the saturated branch
        with np.errstate(invalid="ignore"):
            return np.minimum(c * tau, 1.0).mean()

    max_rate = (tau > 0).mean()
    if max_rate < level - 1e-12:
        warnings.warn(
            f"requested flip rate {level} infeasible; achievable mean is "
            f"{max_rate:.4f}, proceeding with saturated probabilities")
        prob = (tau > 0).astype(float)
    else:
        lo, hi = 0.0, 1.0
        while mean_prob(hi) < level:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mean_prob(mid) < level:
                lo = mid
            else:
                hi = mid
        with np.errstate(invalid="ignore"):
            prob = np.minimum(0.5 * (lo + hi) * tau, 1.0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    flip = rng.random(ds.n) < prob
    out.observed_labels[flip] = s[flip]
    return out


def labels_and_warnings(fn, *args):
    """fn(*args)'s observed labels and the infeasible-rate warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        labels = fn(*args).observed_labels
    return labels, [str(w.message) for w in caught
                    if "infeasible" in str(w.message)]


class TestPmdNoise:
    @pytest.mark.parametrize("noise_type", [1, 2, 3])
    @pytest.mark.parametrize("C, d", [(3, 2), (10, 8)])
    def test_exact_scale_equals_bisection(self, C, d, noise_type):
        for separation in (2.0, 6.0):
            for seed in range(2):
                ds = make_gaussian_classes(C, d, 40, separation, 1.0, seed)
                eta = posterior(ds.features, ds.mixture)
                top2 = np.sort(eta, axis=1)[:, -2:]
                tau = biasgen._margin_tau(top2[:, 1] - top2[:, 0], noise_type)
                # the count of samples that can flip, and levels at the
                # edge of saturation and of the infeasible warning's 1e-12
                m = int((tau * (ds.clean_labels == eta.argmax(axis=1)) > 0
                         ).sum())
                n = ds.n
                levels = [0.0, 0.05, 0.3, 0.6, 0.9, 1.0, m / n, (m - 1) / n,
                          m / n - 1e-13, m / n + 5e-13, m / n + 1e-9]
                for level in (v for v in levels if 0.0 <= v <= 1.0):
                    got = labels_and_warnings(inject_pmd, ds, noise_type,
                                              level, seed + 7)
                    want = labels_and_warnings(pmd_by_bisection, ds,
                                               noise_type, level, seed + 7)
                    assert got[0].tobytes() == want[0].tobytes(), level
                    assert got[1] == want[1], level

    def test_level_zero_unchanged(self):
        ds = make_gaussian_classes(4, 3, 50, 4.0, 1.0, 0)
        out = inject_pmd(ds, 1, 0.0, 1)
        np.testing.assert_array_equal(out.observed_labels, ds.observed_labels)

    def test_raw_probabilities_at_zero_margin(self):
        delta = np.array([0.0])
        assert biasgen._margin_tau(delta, 1)[0] == 0.5
        assert biasgen._margin_tau(delta, 2)[0] == 1.0
        assert biasgen._margin_tau(delta, 3)[0] == 1.0

    def test_raw_probabilities_at_full_margin(self):
        delta = np.array([1.0])
        assert biasgen._margin_tau(delta, 1)[0] == 0.0
        assert biasgen._margin_tau(delta, 2)[0] == 0.0
        assert abs(biasgen._margin_tau(delta, 3)[0]) < 1e-12

    @pytest.mark.parametrize("noise_type", [1, 2, 3])
    def test_achieved_rate(self, noise_type):
        ds = make_gaussian_classes(10, 8, 1000, 4.0, 1.0, 0)
        out = inject_pmd(ds, noise_type, 0.35, 1)
        frac = float(np.mean(out.observed_labels != out.clean_labels))
        assert abs(frac - 0.35) < 0.01

    def test_flips_go_to_runner_up(self):
        ds = make_gaussian_classes(5, 4, 400, 3.0, 1.0, 0)
        out = inject_pmd(ds, 2, 0.3, 1)
        eta = posterior(ds.features, ds.mixture)
        order = np.argsort(eta, axis=1)
        noisy = np.where(out.observed_labels != out.clean_labels)[0]
        assert noisy.size > 0
        for i in noisy:
            assert out.clean_labels[i] == order[i, -1]
            assert out.observed_labels[i] == order[i, -2]

    def test_infeasible_level_warns(self):
        # huge separation makes large flip rates unreachable
        ds = make_gaussian_classes(4, 3, 200, 12.0, 1.0, 0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            inject_pmd(ds, 1, 0.9, 1)
        assert any("infeasible" in str(w.message) for w in caught)

    def test_missing_oracle_rejected(self):
        ds = make_gaussian_classes(3, 2, 10, 4.0, 1.0, 0)
        bare = Dataset(ds.features, ds.observed_labels, ds.clean_labels, 3, None)
        with pytest.raises(ValueError):
            inject_pmd(bare, 1, 0.2, 0)


def hybrid(ds, pmd_level, sym_level, pmd_seed, sym_seed):
    """Feature-dependent noise, then a symmetric overlay: a two-spec chain,
    applied in order as config.build_train_dataset applies dataset.bias."""
    for spec in ({"kind": "pmd1", "level": pmd_level, "seed": pmd_seed},
                 {"kind": "symmetric", "level": sym_level, "seed": sym_seed}):
        ds = BiasSpec(**spec).apply(ds)
    return ds


class TestHybridNoise:
    def test_both_levels_zero_unchanged(self):
        ds = make_gaussian_classes(4, 3, 50, 4.0, 1.0, 0)
        out = hybrid(ds, 0.0, 0.0, 1, 2)
        np.testing.assert_array_equal(out.observed_labels, ds.observed_labels)

    def test_total_rate_bounds(self):
        ds = make_gaussian_classes(10, 8, 1000, 4.0, 1.0, 0)
        out = hybrid(ds, 0.35, 0.3, 1, 2)
        frac = float(np.mean(out.observed_labels != out.clean_labels))
        assert 0.30 < frac < 0.65

    def test_stage_order_matters(self):
        ds = make_gaussian_classes(6, 5, 400, 3.0, 1.0, 0)
        forward = hybrid(ds, 0.35, 0.3, 5, 6)
        # swapped order: symmetric first, then feature-dependent
        swapped = inject_pmd(inject_symmetric(ds, 0.3, 6), 1, 0.35, 5)
        assert not np.array_equal(forward.observed_labels,
                                  swapped.observed_labels)

    def test_stage_seeds_differ(self):
        # each stage draws from its own spec's seed
        ds = make_gaussian_classes(10, 8, 500, 4.0, 1.0, 0)
        out1 = hybrid(ds, 0.2, 0.2, 3, 4)
        out2 = hybrid(ds, 0.2, 0.2, 3, 5)
        assert not np.array_equal(out1.observed_labels, out2.observed_labels)
        direct = inject_symmetric(inject_pmd(ds, 1, 0.2, 3), 0.2, 4)
        np.testing.assert_array_equal(out1.observed_labels,
                                      direct.observed_labels)
        with pytest.raises(ValueError, match="hybrid"):
            BiasSpec(kind="hybrid")


class TestBiasSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BiasSpec(kind="gauss")

    def test_apply_chain_matches_direct_calls(self):
        ds = make_gaussian_classes(10, 8, 200, 4.0, 1.0, 0)
        via_spec = BiasSpec(kind="symmetric", level=0.4, seed=7).apply(ds)
        direct = inject_symmetric(ds, 0.4, 7)
        np.testing.assert_array_equal(via_spec.observed_labels,
                                      direct.observed_labels)

    def test_pmd_kinds_route_by_type(self):
        ds = make_gaussian_classes(6, 5, 300, 3.0, 1.0, 0)
        via_spec = BiasSpec(kind="pmd2", level=0.3, seed=2).apply(ds)
        direct = inject_pmd(ds, 2, 0.3, 2)
        np.testing.assert_array_equal(via_spec.observed_labels,
                                      direct.observed_labels)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            BiasSpec(kind="symmetric", level=2.0)
        with pytest.raises(ValueError):
            BiasSpec(kind="longtail", imbalance_factor=0.2)

    @pytest.mark.parametrize("spec", [
        {"kind": "longtail", "level": 0.5},
        {"kind": "symmetric", "imbalance_factor": 10.0},
        {"kind": "pmd2", "level": 0.3, "imbalance_factor": 2.0},
    ])
    def test_field_the_kind_does_not_read_rejected(self, spec):
        ignored = "level" if spec["kind"] == "longtail" else "imbalance_factor"
        with pytest.raises(ValueError, match=f"does not read {ignored}"):
            BiasSpec(**spec)
        # its default, written out, is accepted
        BiasSpec(**{**spec, ignored: getattr(BiasSpec, ignored)})


class TestDatasetFiles:
    def test_binary_round_trip(self, tmp_path):
        ds = make_gaussian_classes(4, 3, 25, 5.0, 1.0, 0)
        ds = inject_symmetric(ds, 0.3, 1)
        path = tmp_path / "data.cmwd"
        save_dataset(path, ds)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.observed_labels, ds.observed_labels)
        np.testing.assert_array_equal(back.clean_labels, ds.clean_labels)
        assert back.C == ds.C
        assert back.observed_labels.dtype == back.clean_labels.dtype == np.int64
        assert set(read_arrays(path)) == {"features", "observed", "clean", "C"}

    def test_round_trip_without_mixture(self, tmp_path):
        ds = make_gaussian_classes(3, 2, 10, 5.0, 1.0, 0)
        bare = Dataset(ds.features, ds.observed_labels, ds.clean_labels, 3, None)
        path = tmp_path / "bare.cmwd"
        save_dataset(path, bare)
        back = load_dataset(path)
        assert back.mixture is None
        np.testing.assert_array_equal(back.features, bare.features)

    def test_csv_export(self, tmp_path):
        ds = make_gaussian_classes(3, 2, 4, 5.0, 1.0, 0)
        path = tmp_path / "data.csv"
        export_csv(path, ds)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + ds.n
        header = lines[0].split(",")
        assert header[-2:] == ["observed", "clean"]

    def test_csv_export_bytes(self, tmp_path):
        # .17g features (every float64 round-trips), int labels, \n ends
        ds = Dataset(np.array([[0.1, -2.5], [1 / 3, 1e-20]]),
                     np.array([1, 0]), np.array([1, 1]), 2)
        export_csv(tmp_path / "data.csv", ds)
        assert (tmp_path / "data.csv").read_bytes() == (
            b"x0,x1,observed,clean\n"
            b"0.10000000000000001,-2.5,1,1\n"
            b"0.33333333333333331,9.9999999999999995e-21,0,1\n")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.cmwd"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_dataset(path)
