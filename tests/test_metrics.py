"""Evaluation reports and figure-data CSV emission."""

import csv

import numpy as np
import pytest

from cmwnet import metrics
from cmwnet.biasgen import Dataset, inject_symmetric, make_gaussian_classes
from cmwnet.metrics import (HIST_BINS, LOSS_GRID, MetricsReport, evaluate,
                            loss_histogram, weight_curve, write_confusion_csv,
                            write_histogram_csv, write_weight_curve_csv)
from cmwnet.models import LOSS_CLAMP, ROWS, Classifier, WeightNet
from conftest import tiny_weightnet


def fitted_classifier(ds, rng, steps=300):
    from cmwnet.numkit import SgdMomentum
    clf = Classifier.init([ds.d, 16, ds.C], rng)
    opt = SgdMomentum(0.3)
    from cmwnet.metaloop import erm_update
    for _ in range(steps):
        erm_update(clf, opt, ds.features, ds.clean_labels, 0.3)
    return clf


class TestEvaluate:
    def test_perfect_predictions(self, rng):
        ds = make_gaussian_classes(3, 2, 30, 8.0, 1.0, 0)
        clf = fitted_classifier(ds, rng)
        rep = evaluate(clf, ds)
        assert rep.accuracy == 1.0
        assert rep.confusion.trace() == ds.n
        np.testing.assert_array_equal(rep.per_class_accuracy, np.ones(3))

    def test_constant_predictor_chance(self, rng):
        ds = make_gaussian_classes(4, 2, 25, 5.0, 1.0, 0)
        clf = Classifier.init([2, 4], rng)
        clf.flat[...] = 0.0
        clf.biases[-1][2] = 10.0  # always predicts class 2
        rep = evaluate(clf, ds)
        assert rep.accuracy == 0.25
        np.testing.assert_array_equal(rep.per_class_accuracy, [0, 0, 1, 0])

    def test_agrees_with_naive_recount(self, rng):
        ds = make_gaussian_classes(4, 3, 20, 2.0, 1.0, 0)
        clf = Classifier.init([3, 8, 4], rng)
        rep = evaluate(clf, ds)
        pred = np.argmax(clf.forward(ds.features), axis=1)
        hits = sum(int(p == c) for p, c in zip(pred, ds.clean_labels))
        assert rep.accuracy == hits / ds.n
        for c in range(4):
            sel = ds.clean_labels == c
            assert rep.per_class_accuracy[c] == np.mean(pred[sel] == c)

    @pytest.mark.parametrize("C", [2, 3, 5])
    def test_confusion_equals_add_at_oracle(self, rng, C):
        # at C = 5 the 350 rows span two forward blocks; weak separation
        # gives off-diagonal counts, and small random nets leave some
        # classes unpredicted
        ds = make_gaussian_classes(C, 3, 70, 0.5, 1.0, C)
        clf = Classifier.init([3, 6, C], rng)
        rep = evaluate(clf, ds)
        pred = np.argmax(clf.forward(ds.features), axis=1)
        want = np.zeros((C, C), dtype=np.int64)
        np.add.at(want, (ds.clean_labels, pred), 1)
        assert rep.confusion.dtype == np.int64
        assert np.array_equal(rep.confusion, want)

    def test_confusion_rows_sum_to_class_counts(self, rng):
        ds = make_gaussian_classes(4, 3, 20, 2.0, 1.0, 0)
        clf = Classifier.init([3, 8, 4], rng)
        rep = evaluate(clf, ds)
        np.testing.assert_array_equal(rep.confusion.sum(axis=1), [20] * 4)
        assert rep.accuracy == rep.confusion.trace() / ds.n

    def test_empty_test_set_rejected(self, rng):
        ds = make_gaussian_classes(3, 2, 5, 5.0, 1.0, 0)
        from cmwnet.biasgen import Dataset
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64),
                        np.zeros(0, dtype=np.int64), 3, None)
        clf = Classifier.init([2, 3], rng)
        with pytest.raises(ValueError):
            evaluate(clf, empty)


class TestWeightCurve:
    def test_zero_theta_all_half(self, rng):
        wn = tiny_weightnet(rng, K=3)
        wn.flat[...] = 0.0
        grid = np.linspace(0, 10, 11)
        table = weight_curve(wn, grid)
        np.testing.assert_allclose(table, np.full((3, 11), 0.5), atol=1e-12)

    def test_cells_in_unit_interval(self, rng):
        wn = tiny_weightnet(rng, K=2)
        table = weight_curve(wn, np.linspace(0, 10, 21))
        assert np.all(table > 0) and np.all(table < 1)

    def test_columns_match_direct_evaluation(self, rng):
        wn = tiny_weightnet(rng, K=3)
        grid = np.linspace(0, 5, 7)
        table = weight_curve(wn, grid)
        for j, ell in enumerate(grid):
            assert np.array_equal(table[:, j], [
                wn.weight(np.array([ell]), np.array([k]))[0] for k in range(3)])

    @pytest.mark.parametrize("K", [1, 3])
    def test_rows_are_the_weights_training_applies(self, rng, K):
        # the curve and a training batch share one pass, so a family-k
        # sample at loss l is weighted exactly table[k] at l; the grid
        # spans several ROWS blocks and passes the loss clamp
        wn = tiny_weightnet(rng, K=K)
        wn.b2[...] = rng.normal(size=K)
        grid = np.linspace(0.0, 1.5 * LOSS_CLAMP, 2 * ROWS + 37)
        table = weight_curve(wn, grid)
        for k in range(K):
            assert np.array_equal(
                table[k], wn.weight(grid, np.full(grid.size, k)))

    def test_descending_grid_rejected(self, rng):
        wn = tiny_weightnet(rng)
        with pytest.raises(ValueError):
            weight_curve(wn, np.array([3.0, 1.0]))


def observed_losses(ds, clf):
    return clf.losses(ds.features, ds.observed_labels)


class TestLossHistogram:
    def test_uniform_model_single_bin(self, rng):
        ds = make_gaussian_classes(3, 2, 20, 5.0, 1.0, 0)
        clf = Classifier.init([2, 3], rng)
        clf.flat[...] = 0.0
        edges, clean, noisy = loss_histogram(ds, observed_losses(ds, clf))
        assert edges.shape == (HIST_BINS + 1,)
        assert clean.shape == noisy.shape == (3, HIST_BINS)
        assert clean.sum() + noisy.sum() == ds.n
        occupied = np.count_nonzero(clean.sum(axis=0) + noisy.sum(axis=0))
        assert occupied == 1

    def test_mass_conserved_per_split(self, rng):
        ds = inject_symmetric(make_gaussian_classes(4, 2, 50, 5.0, 1.0, 0),
                              0.3, 1)
        clf = Classifier.init([2, 8, 4], rng)
        edges, clean, noisy = loss_histogram(ds, observed_losses(ds, clf))
        assert clean.sum() == int((~ds.noisy_mask()).sum())
        assert noisy.sum() == int(ds.noisy_mask().sum())

    def test_matches_brute_force_binning(self, rng):
        ds = inject_symmetric(make_gaussian_classes(3, 2, 40, 5.0, 1.0, 0),
                              0.4, 1)
        clf = Classifier.init([2, 6, 3], rng)
        losses = observed_losses(ds, clf)
        edges, clean, noisy = loss_histogram(ds, losses)
        noisy_mask = ds.noisy_mask()
        for c in range(3):
            for split, table in ((False, clean), (True, noisy)):
                sel = (ds.observed_labels == c) & (noisy_mask == split)
                vals = np.clip(losses[sel], edges[0], edges[-1])
                brute, _ = np.histogram(vals, bins=edges)
                np.testing.assert_array_equal(table[c], brute)


class TestCsvEmission:
    def test_weight_curve_schema(self, rng, tmp_path):
        wn = tiny_weightnet(rng, K=3)
        path = tmp_path / "curve.csv"
        write_weight_curve_csv(path, wn)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["loss", "family_0", "family_1", "family_2"]
        assert len(rows) == 1 + LOSS_GRID.size
        assert [r[0] for r in rows[1:]] == [f"{v:.10g}" for v in LOSS_GRID]

    def test_histogram_schema(self, rng, tmp_path):
        ds = inject_symmetric(make_gaussian_classes(3, 2, 30, 5.0, 1.0, 0),
                              0.3, 1)
        clf = Classifier.init([2, 3], rng)
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, ds, observed_losses(ds, clf))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["class", "bin_lo", "bin_hi", "clean_count",
                           "noisy_count"]
        assert len(rows) == 1 + 3 * HIST_BINS
        total = sum(int(r[3]) + int(r[4]) for r in rows[1:])
        assert total == ds.n

    def test_confusion_schema(self, rng, tmp_path):
        ds = make_gaussian_classes(3, 2, 10, 5.0, 1.0, 0)
        clf = Classifier.init([2, 3], rng)
        rep = evaluate(clf, ds)
        path = tmp_path / "confusion.csv"
        write_confusion_csv(path, rep)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["pred_0", "pred_1", "pred_2"]
        body = np.array([[int(v) for v in r] for r in rows[1:]])
        np.testing.assert_array_equal(body, rep.confusion)


class TestCsvBytes:
    """Each figure table's exact bytes on a hand-built input: header, cell
    formats and LF line ends."""

    def test_weight_curve(self, tmp_path, monkeypatch):
        monkeypatch.setattr(metrics, "LOSS_GRID",
                            np.array([0.0, 0.1, 2 / 3, 10.0]))
        # zero weights: each head is sigmoid(b2[k]) at every loss
        wn = WeightNet(3, 2, np.zeros(2 * 3 + 3 * 2 + 2))
        wn.b2[...] = [-40.0, np.log(2.0)]
        write_weight_curve_csv(tmp_path / "curve.csv", wn)
        assert (tmp_path / "curve.csv").read_bytes() == (
            b"loss,family_0,family_1\n"
            b"0,4.248354255e-18,0.6666666667\n"
            b"0.1,4.248354255e-18,0.6666666667\n"
            b"0.6666666667,4.248354255e-18,0.6666666667\n"
            b"10,4.248354255e-18,0.6666666667\n")

    def test_histogram(self, tmp_path, monkeypatch):
        monkeypatch.setattr(metrics, "HIST_BINS", 2)
        # sample 1 is noisy; the largest loss, 2/3, sets the last edge
        ds = Dataset(np.zeros((4, 1)), np.array([0, 0, 1, 1]),
                     np.array([0, 1, 1, 1]), 2)
        write_histogram_csv(tmp_path / "hist.csv", ds,
                            np.array([0.0, 0.5, 2 / 3, 0.1]))
        assert (tmp_path / "hist.csv").read_bytes() == (
            b"class,bin_lo,bin_hi,clean_count,noisy_count\n"
            b"0,0,0.3333333333,1,0\n"
            b"0,0.3333333333,0.6666666667,0,1\n"
            b"1,0,0.3333333333,1,0\n"
            b"1,0.3333333333,0.6666666667,1,0\n")

    def test_confusion(self, tmp_path):
        confusion = np.array([[3, 1, 0], [0, 12, 2], [5, 0, 7]],
                             dtype=np.int64)
        write_confusion_csv(tmp_path / "confusion.csv",
                            MetricsReport(22 / 30, np.zeros(3), confusion))
        assert (tmp_path / "confusion.csv").read_bytes() == (
            b"pred_0,pred_1,pred_2\n3,1,0\n0,12,2\n5,0,7\n")
