"""Bi-level training engine: virtual step, analytic meta-gradient, variants."""

import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from cmwnet import metaloop, numkit
from cmwnet.biasgen import inject_symmetric, make_gaussian_classes
from cmwnet.config import (ConfigError, ExperimentConfig, build_test_dataset,
                           build_train_dataset, config_from_dict)
from cmwnet.metaloop import (ALPHA_TE, BETA_WA, build_meta_set,
                             classifier_update, ema_update, erm_update,
                             hypergrad, meta_test, meta_train, meta_update,
                             sl_virtual_step, temporal_ensemble, virtual_step)
from cmwnet.metrics import evaluate
from cmwnet.models import Classifier, WeightNet
from cmwnet.numkit import Adam, SgdMomentum
from conftest import random_batch, tiny_classifier, tiny_weightnet


def onehot(labels, C):
    out = np.zeros((labels.size, C))
    out[np.arange(labels.size), labels] = 1.0
    return out


def meta_loss_of_theta(theta, clf, wnet, x, y, fams, alpha, normalize, mx, my):
    """Meta loss evaluated through a fresh virtual step at the given Theta."""
    w = wnet.copy()
    w.set_flat(theta)
    clf_hat, _ = virtual_step(clf, w, x, y, fams, alpha, normalize)
    return float(clf_hat.losses(mx, my).mean())


class TestVirtualStep:
    def test_zero_theta_unnormalized_half_weights(self, rng):
        clf = tiny_classifier(rng)
        wnet = tiny_weightnet(rng)
        wnet.flat[...] = 0.0
        x, y = random_batch(rng, 5, 3, 4)
        fams = np.zeros(5, dtype=np.int64)
        _, g = clf.per_sample_grads(x, y)
        clf_hat, cache = virtual_step(clf, wnet, x, y, fams, 0.1, False)
        expected = clf.flat - 0.1 * 0.5 * g.sum(axis=0)
        np.testing.assert_allclose(clf_hat.flat, expected, atol=1e-12)
        np.testing.assert_allclose(cache.v, np.full(5, 0.5))

    def test_alpha_zero_no_move(self, rng):
        clf = tiny_classifier(rng)
        wnet = tiny_weightnet(rng)
        x, y = random_batch(rng, 5, 3, 4)
        clf_hat, _ = virtual_step(clf, wnet, x, y, np.zeros(5, dtype=np.int64),
                                  0.0, True)
        np.testing.assert_array_equal(clf_hat.flat, clf.flat)

    def test_normalized_single_sample_weight_one(self, rng):
        clf = tiny_classifier(rng)
        wnet = tiny_weightnet(rng)
        x, y = random_batch(rng, 1, 3, 4)
        fams = np.zeros(1, dtype=np.int64)
        _, g = clf.per_sample_grads(x, y)
        clf_hat, _ = virtual_step(clf, wnet, x, y, fams, 0.1, True)
        expected = clf.flat - 0.1 * g[0]
        np.testing.assert_allclose(clf_hat.flat, expected, atol=1e-12)

    def test_empty_batch_rejected(self, rng):
        clf = tiny_classifier(rng)
        wnet = tiny_weightnet(rng)
        with pytest.raises(ValueError):
            virtual_step(clf, wnet, np.zeros((0, 3)), np.zeros(0, dtype=int),
                         np.zeros(0, dtype=int), 0.1, True)


class TestVirtualStepOracle:
    """_virtual builds w_hat layer by layer; it equals the update of the
    flat parameter vector bit for bit."""

    @pytest.mark.parametrize("normalize", [False, True])
    def test_plain_factors(self, normalize):
        rng = np.random.default_rng(99)
        for _ in range(5):
            clf = Classifier.init([5, 9, 7, 4], rng)
            wnet = WeightNet.init(3, rng, hidden=6)
            n = int(rng.integers(2, 12))
            x, y = random_batch(rng, n, 5, 4)
            fams = rng.integers(0, 3, size=n)
            self.check(clf, wnet, metaloop._factors(clf, x, y, fams,
                                                    normalize))

    def test_soft_label_factors(self):
        rng = np.random.default_rng(98)
        for _ in range(5):
            clf = Classifier.init([5, 9, 7, 4], rng)
            wnet = WeightNet.init(3, rng, hidden=6)
            n = int(rng.integers(2, 12))
            x, y = random_batch(rng, n, 5, 4)
            z = rng.dirichlet(np.ones(4), size=n)
            perm = rng.permutation(n)
            fams = rng.integers(0, 3, size=n)
            self.check(clf, wnet, metaloop._sl_factors(
                clf, x, y, z, y[perm], z[perm], fams, fams[perm],
                float(rng.uniform())))

    @staticmethod
    def check(clf, wnet, f, alpha=0.1):
        before = clf.flat.copy()
        clf_hat, cache = metaloop._virtual(clf, wnet, f, alpha)
        step = metaloop._step_grads(f, cache.v, "virtual step")
        assert np.array_equal(clf_hat.flat, before - alpha * step)
        assert np.array_equal(clf.flat, before)

    def test_nonfinite_step_rejected(self, rng):
        clf = tiny_classifier(rng)
        x, y = random_batch(rng, 5, 3, 4)
        f = metaloop._factors(clf, x, y, np.zeros(5, dtype=np.int64), True)
        f.deltas[-1][2, 1] = np.inf
        with pytest.raises(FloatingPointError, match="virtual step"), \
                np.errstate(invalid="ignore"):
            metaloop._virtual(clf, tiny_weightnet(rng), f, 0.1)


def joined_step(f, v):
    """The weighted step of f as per-layer products joined by one copy."""
    s = v.sum()
    w = v / s if f.normalize and s != 0.0 else v
    grad = numkit.flatten([a.T @ (w[:, None] * d)
                           for a, d in zip(f.acts, f.deltas)]
                          + [w @ d for d in f.deltas])
    return grad if f.fixed is None else grad + f.fixed


class TestInPlaceStepWriters:
    """The step's gradient is written layer by layer into one vector, and
    w_hat and the EMA blend are formed in place; each equals its
    out-of-place expression bit for bit."""

    SIZES = [[8, 128, 128, 10], [3, 8, 4]]

    @staticmethod
    def case(sizes, n=100):
        rng = np.random.default_rng(sizes[0])
        clf = Classifier.init(sizes, rng)
        wnet = WeightNet.init(3, rng, hidden=10)
        x, y = random_batch(rng, n, sizes[0], sizes[-1])
        return rng, clf, wnet, x, y, rng.integers(0, 3, size=n)

    @pytest.mark.parametrize("sizes", SIZES)
    @pytest.mark.parametrize("normalize", [False, True])
    def test_step_equals_joined_products(self, sizes, normalize):
        _, clf, wnet, x, y, fams = self.case(sizes)
        f = metaloop._factors(clf, x, y, fams, normalize)
        v = wnet.weight(f.losses, f.fams)
        assert np.array_equal(metaloop._step_grads(f, v, "step"),
                              joined_step(f, v))

    @pytest.mark.parametrize("sizes", SIZES)
    def test_soft_label_fixed_part_equals_joined_products(self, sizes):
        rng, clf, wnet, x, y, fams = self.case(sizes)
        n, C, lam = x.shape[0], sizes[-1], 0.7
        z = rng.dirichlet(np.ones(C), size=n)
        perm = rng.permutation(n)
        f = metaloop._sl_factors(clf, x, y, z, y[perm], z[perm], fams,
                                 fams[perm], lam)
        acts = clf.forward_cached(x)
        p = numkit.softmax(acts[-1])
        deltas = clf.backward(
            acts, (lam * (p - z) + (1.0 - lam) * (p - z[perm])) / n)
        assert np.array_equal(f.fixed, numkit.flatten(
            [a.T @ d for a, d in zip(acts, deltas)]
            + [d.sum(axis=0) for d in deltas]))
        v = wnet.weight(f.losses, f.fams)
        assert np.array_equal(metaloop._step_grads(f, v, "step"),
                              joined_step(f, v))

    @pytest.mark.parametrize("sizes", SIZES)
    def test_w_hat_and_ema_equal_out_of_place(self, sizes):
        rng, clf, wnet, x, y, fams = self.case(sizes)
        f = metaloop._factors(clf, x, y, fams, True)
        clf_hat, cache = metaloop._virtual(clf, wnet, f, 0.1)
        assert np.array_equal(clf_hat.flat,
                              clf.flat - 0.1 * joined_step(f, cache.v))
        w_wa = Classifier.init(sizes, rng)
        want = BETA_WA * w_wa.flat + (1.0 - BETA_WA) * clf.flat
        ema_update(w_wa, clf)
        assert np.array_equal(w_wa.flat, want)


class TestHypergrad:
    def test_orthogonal_meta_gradient_zero(self, rng):
        clf = tiny_classifier(rng)
        wnet = tiny_weightnet(rng)
        x, y = random_batch(rng, 4, 3, 4)
        fams = rng.integers(0, 3, size=4)
        clf_hat, cache = virtual_step(clf, wnet, x, y, fams, 0.05, False)
        # targets equal to w_hat's own predictions make the meta batch's mean
        # gradient exactly zero, so every alignment is zero
        mx, _ = random_batch(rng, 4, 3, 4)
        grad, _ = hypergrad(cache, clf_hat, mx, clf_hat.forward(mx))
        np.testing.assert_array_equal(grad, np.zeros_like(grad))

    def test_aligned_samples_pushed_up(self, rng):
        # meta batch = train batch in the small-step limit: the coefficient
        # on each sample's weight-Jacobian row is -alpha times its alignment
        # with the mean batch gradient, so aligned samples are pushed up
        clf = tiny_classifier(rng)
        wnet = tiny_weightnet(rng, K=1)
        x, y = random_batch(rng, 6, 3, 4)
        fams = np.zeros(6, dtype=np.int64)
        alpha = 1e-8
        clf_hat, cache = virtual_step(clf, wnet, x, y, fams, alpha, False)
        grad, _ = hypergrad(cache, clf_hat, x, onehot(y, 4))
        # independent reconstruction from per-sample grads and the Jacobian
        _, g = clf.per_sample_grads(x, y)
        _, dv = wnet.weight_and_grad(clf.losses(x, y), fams)
        gbar = g.mean(axis=0)
        align = g @ gbar
        expected = -alpha * (align @ dv)
        np.testing.assert_allclose(grad, expected,
                                   rtol=1e-4, atol=alpha * 1e-6)
        # so descending the hypergradient moves each v_j by ~ align_j in the
        # rank-one sense: the projection onto dv_j grows with alignment
        assert (grad @ dv.T)[np.argmax(align)] < 0

    @pytest.mark.parametrize("normalize", [False, True])
    def test_matches_finite_difference(self, normalize):
        rng = np.random.default_rng(999)
        for _ in range(5):
            clf = Classifier.init([3, 6, 4], rng)
            wnet = WeightNet.init(3, rng, hidden=8)
            x, y = random_batch(rng, 6, 3, 4)
            fams = rng.integers(0, 3, size=6)
            mx, my = random_batch(rng, 5, 3, 4)
            mt = onehot(my, 4)
            alpha = 0.05
            clf_hat, cache = virtual_step(clf, wnet, x, y, fams, alpha, normalize)
            grad, _ = hypergrad(cache, clf_hat, mx, mt)
            fd = numkit.finite_diff_grad(
                lambda t: meta_loss_of_theta(t, clf, wnet, x, y, fams, alpha,
                                             normalize, mx, mt),
                wnet.get_flat())
            denom = max(np.abs(fd).max(), 1e-10)
            assert np.abs(grad - fd).max() / denom < 1e-4

    def test_stale_cache_detected(self, rng):
        clf = tiny_classifier(rng)
        wnet = tiny_weightnet(rng)
        x, y = random_batch(rng, 4, 3, 4)
        fams = rng.integers(0, 3, size=4)
        clf_hat, cache = virtual_step(clf, wnet, x, y, fams, 0.05, True)
        wnet.set_flat(wnet.get_flat() + 1.0)
        with pytest.raises(RuntimeError):
            hypergrad(cache, clf_hat, x, onehot(y, 4))

    def test_stale_after_in_place_meta_update(self, rng):
        # the Theta optimizer updates the net's arrays in place, as in training
        clf = tiny_classifier(rng)
        wnet = tiny_weightnet(rng)
        x, y = random_batch(rng, 4, 3, 4)
        fams = rng.integers(0, 3, size=4)
        clf_hat, cache = virtual_step(clf, wnet, x, y, fams, 0.05, True)
        grad, _ = hypergrad(cache, clf_hat, x, onehot(y, 4))
        meta_update(wnet, Adam(1e-2), grad)
        with pytest.raises(RuntimeError):
            hypergrad(cache, clf_hat, x, onehot(y, 4))


def rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


def oracle_weights(v, normalize):
    s = v.sum()
    return v / s if normalize and s != 0.0 else v


class TestFactoredStepOracle:
    """The factored step and hypergradient against a reconstruction from
    the dense per-sample gradient matrix."""

    @pytest.mark.parametrize("normalize", [False, True])
    def test_plain_path(self, normalize):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            clf = Classifier.init([5, 9, 7, 4], rng)
            wnet = WeightNet.init(3, rng, hidden=6)
            n = int(rng.integers(2, 12))
            x, y = random_batch(rng, n, 5, 4)
            fams = rng.integers(0, 3, size=n)
            mx, my = random_batch(rng, 7, 5, 4)
            mt = onehot(my, 4)
            alpha = 0.1
            losses, g = clf.per_sample_grads(x, y)
            v, dv = wnet.weight_and_grad(losses, fams)
            step = g.T @ oracle_weights(v, normalize)

            clf_hat, cache = virtual_step(clf, wnet, x, y, fams, alpha,
                                          normalize)
            assert rel_err(clf.flat - clf_hat.flat,
                           alpha * step) <= 1e-12

            grad, _ = hypergrad(cache, clf_hat, mx, mt)
            _, g_meta = clf_hat.per_sample_grads(mx, mt)
            c = g @ g_meta.mean(axis=0)
            s = v.sum()
            if normalize:
                want = (c @ dv) / s - ((c * v).sum() / s ** 2) * dv.sum(axis=0)
            else:
                want = c @ dv
            assert rel_err(grad, -alpha * want) <= 1e-12

            # real step at a moved Theta: weights recomputed there
            wnet.flat += 0.3 * rng.normal(size=wnet.flat.size)
            step = g.T @ oracle_weights(wnet.weight(losses, fams), normalize)
            clf2 = Classifier(clf.sizes, clf.flat.copy())
            classifier_update(clf2, SgdMomentum(alpha), wnet,
                              metaloop._factors(clf2, x, y, fams, normalize),
                              alpha)
            assert rel_err(clf.flat - clf2.flat,
                           alpha * step) <= 1e-12

    def test_soft_label_path(self):
        rng = np.random.default_rng(2025)
        for _ in range(10):
            clf = Classifier.init([5, 9, 7, 4], rng)
            wnet = WeightNet.init(3, rng, hidden=6)
            n = int(rng.integers(2, 12))
            x, y = random_batch(rng, n, 5, 4)
            z = rng.dirichlet(np.ones(4), size=n)
            perm = rng.permutation(n)
            fams = rng.integers(0, 3, size=n)
            lam = float(rng.uniform())
            mx, my = random_batch(rng, 7, 5, 4)
            mt = onehot(my, 4)
            alpha = 0.05
            loss_a, gA = clf.per_sample_grads(x, y)
            _, gAz = clf.per_sample_grads(x, z)
            loss_b, gB = clf.per_sample_grads(x, y[perm])
            _, gBz = clf.per_sample_grads(x, z[perm])

            def step_at(w):
                vA = w.weight(loss_a, fams)
                vB = w.weight(loss_b, fams[perm])
                dirA = gA * vA[:, None] + gAz * (1.0 - vA)[:, None]
                dirB = gB * vB[:, None] + gBz * (1.0 - vB)[:, None]
                return lam * dirA.mean(axis=0) + (1.0 - lam) * dirB.mean(axis=0)

            clf_hat, cache = sl_virtual_step(clf, wnet, x, y, z, y[perm],
                                             z[perm], fams, fams[perm], lam,
                                             alpha)
            assert rel_err(clf.flat - clf_hat.flat,
                           alpha * step_at(wnet)) <= 1e-12

            grad, _ = hypergrad(cache, clf_hat, mx, mt)
            _, g_meta = clf_hat.per_sample_grads(mx, mt)
            gbar = g_meta.mean(axis=0)
            _, dvA = wnet.weight_and_grad(loss_a, fams)
            _, dvB = wnet.weight_and_grad(loss_b, fams[perm])
            want = (lam * (((gA - gAz) @ gbar) @ dvA)
                    + (1.0 - lam) * (((gB - gBz) @ gbar) @ dvB)) / n
            assert rel_err(grad, -alpha * want) <= 1e-12

            wnet.flat += 0.3 * rng.normal(size=wnet.flat.size)
            clf2 = Classifier(clf.sizes, clf.flat.copy())
            classifier_update(clf2, SgdMomentum(alpha), wnet, cache.factors,
                              alpha)
            assert rel_err(clf.flat - clf2.flat,
                           alpha * step_at(wnet)) <= 1e-12


class TestMetaUpdate:
    def test_zero_grad_first_adam_step_no_move(self, rng):
        wnet = tiny_weightnet(rng)
        before = wnet.get_flat()
        meta_update(wnet, Adam(1e-3), np.zeros(wnet.flat.size))
        np.testing.assert_array_equal(wnet.get_flat(), before)

    def test_plain_sgd_mode(self, rng):
        wnet = tiny_weightnet(rng)
        before = wnet.get_flat()
        grad = rng.normal(size=wnet.flat.size)
        meta_update(wnet, SgdMomentum(0.01), grad)
        np.testing.assert_allclose(wnet.get_flat(), before - 0.01 * grad,
                                   atol=1e-12)

    def test_adam_converges_on_quadratic(self, rng):
        # repeated steps on f(theta) = ||theta - target||^2 reach the minimizer
        wnet = tiny_weightnet(rng)
        target = rng.normal(size=wnet.flat.size)
        opt = Adam(0.05)
        for _ in range(2000):
            meta_update(wnet, opt, 2.0 * (wnet.get_flat() - target))
        assert np.abs(wnet.get_flat() - target).max() < 1e-3

    def test_nonfinite_grad_rejected(self, rng):
        wnet = tiny_weightnet(rng)
        grad = np.full(wnet.flat.size, np.nan)
        with pytest.raises(FloatingPointError):
            meta_update(wnet, Adam(1e-3), grad)


class TestClassifierUpdate:
    def test_matches_virtual_step_without_momentum(self, rng):
        clf = tiny_classifier(rng)
        wnet = tiny_weightnet(rng)
        x, y = random_batch(rng, 5, 3, 4)
        fams = rng.integers(0, 3, size=5)
        clf_hat, _ = virtual_step(clf, wnet, x, y, fams, 0.1, True)
        clf2 = Classifier(clf.sizes, clf.flat.copy())
        classifier_update(clf2, SgdMomentum(0.1), wnet,
                          metaloop._factors(clf2, x, y, fams, True), 0.1)
        np.testing.assert_allclose(clf2.flat, clf_hat.flat,
                                   atol=1e-12)

    def test_zero_weightnet_heads_freeze_classifier(self, rng):
        clf = tiny_classifier(rng)
        wnet = tiny_weightnet(rng)
        # saturate every head to ~0 via a hugely negative output bias
        wnet.b2[...] = -500.0
        wnet.W1[...] = 0.0
        wnet.b1[...] = 0.0
        before = clf.flat.copy()
        x, y = random_batch(rng, 5, 3, 4)
        f = metaloop._factors(clf, x, y, rng.integers(0, 3, size=5), False)
        classifier_update(clf, SgdMomentum(0.1), wnet, f, 0.1)
        np.testing.assert_allclose(clf.flat, before, atol=1e-12)

    def test_batch_loss_decreases_for_small_step(self, rng):
        clf = tiny_classifier(rng)
        wnet = tiny_weightnet(rng)
        x, y = random_batch(rng, 8, 3, 4)
        fams = rng.integers(0, 3, size=8)
        before = float(clf.losses(x, y).mean())
        classifier_update(clf, SgdMomentum(0.01), wnet,
                          metaloop._factors(clf, x, y, fams, True), 0.01)
        after = float(clf.losses(x, y).mean())
        assert after < before


class TestStepStateIdentity:
    """StepFactors and VirtualStepCache compare by identity, so == answers
    instead of comparing array fields, and a WeakSet holds them."""

    @staticmethod
    def instances(seed):
        rng = np.random.default_rng(seed)
        clf, wnet = tiny_classifier(rng), tiny_weightnet(rng)
        x, y = random_batch(rng, 5, 3, 4)
        _, cache = virtual_step(clf, wnet, x, y, np.zeros(5, dtype=np.int64),
                                0.1, True)
        return [cache.factors, cache]

    def test_eq_is_identity(self):
        for a, b in zip(self.instances(0), self.instances(0)):
            assert a == a
            assert a != b   # equal fields, distinct objects

    def test_weakset_holds_each(self):
        objs = self.instances(1)
        held = weakref.WeakSet(objs)
        assert len(held) == 2 and all(o in held for o in objs)
        objs.clear()
        assert len(held) == 0


class TestMetaSet:
    def make_ds(self):
        ds = make_gaussian_classes(4, 3, 40, 5.0, 1.0, 0)
        return inject_symmetric(ds, 0.3, 1)

    def test_batch_size(self, rng):
        ds = self.make_ds()
        clf = Classifier.init([3, 8, 4], rng)
        x, targets = build_meta_set(ds, clf, per_class=10, mixup=False,
                                    rng=rng)
        assert x.shape[0] == targets.shape[0] == 40

    def test_lowest_loss_selection_is_minimal(self, rng):
        ds = self.make_ds()
        clf = Classifier.init([3, 8, 4], rng)
        x, targets = build_meta_set(ds, clf, per_class=5, mixup=False,
                                    rng=rng)
        losses = clf.losses(ds.features, ds.observed_labels)
        for c in range(4):
            members = losses[ds.observed_labels == c]
            threshold = np.sort(members)[4]
            sel = targets.argmax(axis=1) == c
            picked = clf.losses(x[sel], targets[sel].argmax(axis=1))
            assert np.all(picked <= threshold + 1e-12)

    def test_small_class_warns_and_takes_all(self, rng):
        ds = self.make_ds()
        keep = np.concatenate([np.where(ds.observed_labels == 0)[0][:3],
                               np.where(ds.observed_labels != 0)[0]])
        from cmwnet.biasgen import Dataset
        small = Dataset(ds.features[keep], ds.observed_labels[keep],
                        ds.clean_labels[keep], 4, ds.mixture)
        clf = Classifier.init([3, 8, 4], rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x, _ = build_meta_set(small, clf, per_class=10, mixup=False,
                                  rng=rng)
        assert any("taking all" in str(w.message) for w in caught)
        assert x.shape[0] == 3 + 30

    def test_mixup_endpoint_identity(self, rng):
        ds = self.make_ds()
        clf = Classifier.init([3, 8, 4], rng)
        plain = build_meta_set(ds, clf, per_class=4, mixup=False,
                               rng=np.random.default_rng(3))

        class LamOne:
            """Forwards everything to a real generator but pins beta() to 1."""
            def __init__(self, inner):
                self.inner = inner
            def beta(self, a, b, size=None):
                return np.ones(size)
            def __getattr__(self, name):
                return getattr(self.inner, name)

        mixed = build_meta_set(ds, clf, per_class=4, mixup=True,
                               rng=LamOne(np.random.default_rng(3)))
        np.testing.assert_allclose(mixed[0], plain[0], atol=1e-12)
        np.testing.assert_allclose(mixed[1], plain[1], atol=1e-12)

    def test_mixup_targets_are_convex(self, rng):
        ds = self.make_ds()
        clf = Classifier.init([3, 8, 4], rng)
        _, targets = build_meta_set(ds, clf, per_class=10, mixup=True,
                                    rng=rng)
        np.testing.assert_allclose(targets.sum(axis=1),
                                   np.ones(targets.shape[0]), atol=1e-12)
        assert np.all(targets >= 0)


class TestMetricLogger:
    def test_csv_text(self, tmp_path):
        # ints for iteration and epoch, .10g for every other cell, nan for
        # a cell never logged; only the logged rows of the table
        nan = float("nan")
        lg = metaloop.MetricLogger(2, 3)
        lg.log(iteration=0, epoch=0, train_loss=1.5, meta_loss=nan,
               test_acc=0.25, hypergrad_norm=nan)
        lg.log(iteration=1, epoch=1, train_loss=2 / 3, meta_loss=1e-12,
               test_acc=0.5, hypergrad_norm=12345678901.5,
               family_weight_0=0.1, family_weight_1=nan)
        lg.write_csv(tmp_path / "metrics.csv")
        assert (tmp_path / "metrics.csv").read_bytes() == (
            b"iteration,epoch,train_loss,meta_loss,test_acc,family_weight_0,"
            b"family_weight_1,hypergrad_norm\n"
            b"0,0,1.5,nan,0.25,nan,nan,nan\n"
            b"1,1,0.6666666667,1e-12,0.5,0.1,nan,1.23456789e+10\n")

    def test_erm_csv_has_no_family_columns(self, tmp_path):
        lg = metaloop.MetricLogger(0, 1)
        lg.log(iteration=7, epoch=2, train_loss=0.125, meta_loss=float("nan"),
               test_acc=1.0, hypergrad_norm=float("nan"))
        lg.write_csv(tmp_path / "metrics.csv")
        assert (tmp_path / "metrics.csv").read_bytes() == (
            b"iteration,epoch,train_loss,meta_loss,test_acc,hypergrad_norm\n"
            b"7,2,0.125,nan,1,nan\n")

    def test_logging_holds_only_the_table(self):
        # about a sym_meta run's row count; a dict of floats per row held
        # about 0.3 MB
        tracemalloc.start()
        try:
            lg = metaloop.MetricLogger(3, 600)
            for t in range(600):
                lg.log(iteration=t, epoch=t // 10, train_loss=t * 1e-3,
                       meta_loss=0.5, test_acc=0.75, hypergrad_norm=t * 0.1,
                       family_weight_0=0.1, family_weight_1=0.2,
                       family_weight_2=0.3)
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert grown <= lg.table.nbytes + 4096


class TestSoftLabelPieces:
    def test_ema_is_beta_wa_blend(self, rng):
        a = tiny_classifier(rng)
        b = tiny_classifier(rng)
        want = BETA_WA * a.flat + (1.0 - BETA_WA) * b.flat
        ema_update(a, b)
        np.testing.assert_array_equal(a.flat, want)

    def test_ema_geometric_decay(self, rng):
        a = tiny_classifier(rng)
        b = tiny_classifier(rng)
        gap = np.linalg.norm(a.flat - b.flat)
        for _ in range(3):
            ema_update(a, b)
            gap_next = np.linalg.norm(a.flat - b.flat)
            assert abs(gap_next - BETA_WA * gap) < 1e-9
            gap = gap_next

    def test_temporal_ensemble_geometric_convergence(self):
        z = np.array([[1.0, 0.0, 0.0]])
        p = np.array([[0.2, 0.5, 0.3]])
        for t in range(1, 4):
            z = temporal_ensemble(z, p)
            expect = (ALPHA_TE ** t * np.array([1.0, 0.0, 0.0])
                      + (1 - ALPHA_TE ** t) * p[0])
            np.testing.assert_allclose(z[0], expect, atol=1e-12)

    def test_temporal_ensemble_rows_sum_to_one(self, rng):
        z = rng.dirichlet(np.ones(4), size=6)
        p = rng.dirichlet(np.ones(4), size=6)
        out = temporal_ensemble(z, p)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-12)


class TestSoftLabelStep:
    def setup_batch(self, rng, n=6, d=3, C=4):
        clf = Classifier.init([d, 6, C], rng)
        wnet = WeightNet.init(3, rng, hidden=8)
        x, y = random_batch(rng, n, d, C)
        z = rng.dirichlet(np.ones(C), size=n)
        perm = rng.permutation(n)
        fams = rng.integers(0, 3, size=n)
        return clf, wnet, x, y, z, perm, fams

    def saturate(self, wnet, b2):
        """Pin every head of wnet at sigmoid(b2), whatever the loss."""
        wnet.flat[...] = 0.0
        wnet.b2[...] = b2
        return wnet

    def test_weight_one_lam_one_reduces_to_hard_label_step(self, rng):
        clf, wnet, x, y, z, perm, fams = self.setup_batch(rng)
        clf_hat, _ = sl_virtual_step(clf, self.saturate(wnet, 500.0), x, y, z,
                                     y[perm], z[perm], fams, fams[perm], 1.0,
                                     0.05)
        _, g = clf.per_sample_grads(x, y)
        expected = clf.flat - 0.05 * g.mean(axis=0)
        np.testing.assert_allclose(clf_hat.flat, expected, atol=1e-12)

    def test_weight_zero_lam_one_pure_pseudo_step(self, rng):
        clf, wnet, x, y, z, perm, fams = self.setup_batch(rng)
        clf_hat, _ = sl_virtual_step(clf, self.saturate(wnet, -500.0), x, y, z,
                                     y[perm], z[perm], fams, fams[perm], 1.0,
                                     0.05)
        _, gz = clf.per_sample_grads(x, z)
        expected = clf.flat - 0.05 * gz.mean(axis=0)
        np.testing.assert_allclose(clf_hat.flat, expected, atol=1e-12)

    def test_hypergrad_matches_finite_difference(self):
        rng = np.random.default_rng(555)
        for _ in range(3):
            clf, wnet, x, y, z, perm, fams = self.setup_batch(rng)
            lam = 0.7
            mx, my = random_batch(rng, 5, 3, 4)
            mt = onehot(my, 4)

            def f(theta):
                w = wnet.copy()
                w.set_flat(theta)
                clf_hat, _ = sl_virtual_step(clf, w, x, y, z, y[perm], z[perm],
                                             fams, fams[perm], lam, 0.05)
                return float(clf_hat.losses(mx, mt).mean())

            clf_hat, cache = sl_virtual_step(clf, wnet, x, y, z, y[perm],
                                             z[perm], fams, fams[perm], lam,
                                             0.05)
            grad, _ = hypergrad(cache, clf_hat, mx, mt)
            fd = numkit.finite_diff_grad(f, wnet.get_flat())
            denom = max(np.abs(fd).max(), 1e-10)
            assert np.abs(grad - fd).max() / denom < 1e-4

    def test_onehot_pseudo_labels_zero_hypergrad(self, rng):
        # pseudo labels equal to the observed one-hots cancel the two loss
        # branches exactly, so Theta receives no signal
        clf, wnet, x, y, _, perm, fams = self.setup_batch(rng)
        z = onehot(y, 4)
        clf_hat, cache = sl_virtual_step(clf, wnet, x, y, z, y[perm], z[perm],
                                         fams, fams[perm], 0.8, 0.05)
        mx, my = random_batch(rng, 5, 3, 4)
        grad, _ = hypergrad(cache, clf_hat, mx, onehot(my, 4))
        assert np.abs(grad).max() <= 1e-10

    def test_real_step_matches_virtual_at_same_theta(self, rng):
        clf, wnet, x, y, z, perm, fams = self.setup_batch(rng)
        clf_hat, cache = sl_virtual_step(clf, wnet, x, y, z, y[perm], z[perm],
                                         fams, fams[perm], 0.6, 0.05)
        clf2 = Classifier(clf.sizes, clf.flat.copy())
        classifier_update(clf2, SgdMomentum(0.05), wnet, cache.factors, 0.05)
        np.testing.assert_allclose(clf2.flat, clf_hat.flat,
                                   atol=1e-12)


def desk_cfg(variant="cmwnet", epochs=2, **train_kw):
    cfg = ExperimentConfig()
    cfg.dataset.C = 4
    cfg.dataset.d = 3
    cfg.dataset.n_per_class = 30
    cfg.dataset.separation = 4.0
    cfg.dataset.bias = [{"kind": "symmetric", "level": 0.3, "seed": 5}]
    cfg.model.hidden = [8]
    cfg.model.H = 8
    cfg.train.variant = variant
    cfg.train.epochs = epochs
    cfg.train.batch_size = 30
    cfg.train.warmup_epochs = 1
    cfg.train.mixup_meta = False
    cfg.train.meta_per_class = 5
    for k, v in train_kw.items():
        setattr(cfg.train, k, v)
    if variant == "mwnet":
        cfg.model.K = 1
    return cfg


class TestMetaTrain:
    def test_zero_epochs_returns_initial_state(self):
        cfg = desk_cfg(epochs=0)
        ds = build_train_dataset(cfg)
        state = meta_train(ds, cfg, seed=0)
        assert state.t == 0
        assert state.history == []

    def test_history_length_and_columns(self):
        cfg = desk_cfg(epochs=2)
        ds = build_train_dataset(cfg)
        te = build_test_dataset(cfg)
        state = meta_train(ds, cfg, test_ds=te, seed=0)
        assert state.t == 2 * 4  # 120 samples / batch 30 = 4 iters per epoch
        assert len(state.history) == state.t
        row = state.history[-1]
        for col in ("iteration", "epoch", "train_loss", "meta_loss",
                    "test_acc", "hypergrad_norm"):
            assert col in row

    def test_deterministic_across_runs(self):
        cfg = desk_cfg(epochs=3)
        ds = build_train_dataset(cfg)
        a = meta_train(ds, cfg, seed=11)
        b = meta_train(ds, cfg, seed=11)
        np.testing.assert_array_equal(a.clf.flat, b.clf.flat)
        np.testing.assert_array_equal(a.wnet.get_flat(), b.wnet.get_flat())
        assert len(a.history) == len(b.history)
        for ra, rb in zip(a.history, b.history):
            assert ra.keys() == rb.keys()
            for k in ra:
                np.testing.assert_equal(ra[k], rb[k])  # nan == nan here

    def test_history_rows_have_the_logged_keys(self):
        # rows are built from the metric table: every column, iteration and
        # epoch as ints, nan family cells in the warmup epoch
        cfg = desk_cfg(epochs=2)
        state = meta_train(build_train_dataset(cfg), cfg, seed=0)
        keys = (["iteration", "epoch", "train_loss", "meta_loss", "test_acc"]
                + [f"family_weight_{k}" for k in range(state.fam.K)]
                + ["hypergrad_norm"])
        assert state.logger.columns == keys
        history = state.history
        assert [list(r) for r in history] == [keys] * state.t
        assert [r["iteration"] for r in history] == list(range(state.t))
        assert all(type(r["iteration"]) is int and type(r["epoch"]) is int
                   for r in history)
        assert np.isnan(history[0]["family_weight_0"])
        assert not np.isnan(history[-1]["family_weight_0"])
        erm = meta_train(build_train_dataset(cfg), desk_cfg("erm", epochs=0))
        assert erm.history == []

    def test_logs_once_per_iteration(self, monkeypatch):
        calls = []
        log = metaloop.MetricLogger.log

        def counted(self, **kw):
            calls.append(kw["iteration"])
            return log(self, **kw)

        monkeypatch.setattr(metaloop.MetricLogger, "log", counted)
        cfg = desk_cfg(epochs=3)
        state = meta_train(build_train_dataset(cfg), cfg, seed=0)
        assert state.t == 12 and calls == list(range(state.t))

    def test_seed_changes_trajectory(self):
        cfg = desk_cfg(epochs=3)
        ds = build_train_dataset(cfg)
        a = meta_train(ds, cfg, seed=11)
        b = meta_train(ds, cfg, seed=12)
        assert not np.array_equal(a.clf.flat, b.clf.flat)

    def test_erm_has_no_weightnet(self):
        cfg = desk_cfg("erm", epochs=1)
        ds = build_train_dataset(cfg)
        state = meta_train(ds, cfg, seed=0)
        assert state.wnet is None and state.fam is None
        assert not any(c.startswith("family_weight_")
                       for c in state.logger.columns)

    def test_transfer_without_weightnet_logs_no_families(self):
        cfg = desk_cfg(epochs=1)
        state = meta_test(None, build_train_dataset(cfg), cfg, seed=0)
        assert state.fam is None
        assert not any(c.startswith("family_weight_")
                       for c in state.logger.columns)

    def test_every_weighted_iteration_takes_a_meta_step(self, monkeypatch):
        # one hypergradient per weighted iteration, always on the whole
        # meta set (meta_per_class x C rows)
        rows = []
        hg = metaloop.hypergrad

        def counted(cache, clf_hat, meta_x, meta_targets):
            rows.append(meta_x.shape[0])
            return hg(cache, clf_hat, meta_x, meta_targets)

        monkeypatch.setattr(metaloop, "hypergrad", counted)
        cfg = desk_cfg(epochs=3)
        state = meta_train(build_train_dataset(cfg), cfg, seed=0)
        weighted = [r for r in state.history
                    if r["epoch"] >= cfg.train.warmup_epochs]
        assert not any(np.isnan(r["hypergrad_norm"]) for r in weighted)
        assert rows == [cfg.train.meta_per_class * cfg.dataset.C] * len(weighted)

    def test_one_factor_pass_per_weighted_iteration(self, monkeypatch):
        calls = []
        factors = Classifier.factors

        def counted(self, x, targets):
            calls.append(x.shape[0])
            return factors(self, x, targets)

        monkeypatch.setattr(Classifier, "factors", counted)
        cfg = desk_cfg(epochs=3)
        ds = build_train_dataset(cfg)
        state = meta_train(ds, cfg, seed=0)
        weighted = sum(r["epoch"] >= cfg.train.warmup_epochs
                       for r in state.history)
        assert weighted == 8 and len(calls) == weighted

    @pytest.mark.parametrize("variant", ["cmwnet", "cmwnet-sl", "mwnet"])
    def test_losses_only_for_meta_set_and_report(self, variant, monkeypatch):
        """Weighted rows log the loss their step already has: full-data
        Classifier.losses runs once per weighted epoch (the meta-set
        ranking) and once for the final report, never per iteration."""
        calls = []
        losses = Classifier.losses

        def counted(self, x, targets):
            calls.append(x.shape[0])
            return losses(self, x, targets)

        monkeypatch.setattr(Classifier, "losses", counted)
        cfg = desk_cfg(variant, epochs=3)
        ds = build_train_dataset(cfg)
        state = meta_train(ds, cfg, test_ds=build_test_dataset(cfg), seed=0)
        assert len(state.history) == 12
        weighted_epochs = cfg.train.epochs - cfg.train.warmup_epochs
        assert calls == [ds.n] * (weighted_epochs + 1)

        calls.clear()
        meta_test(state.wnet, ds, desk_cfg(epochs=3), seed=1)
        assert calls == [ds.n]

    @pytest.mark.parametrize("variant", ["cmwnet", "cmwnet-sl", "mwnet"])
    def test_one_iteration_of_step_state_alive(self, variant, monkeypatch):
        """Each iteration's StepFactors and VirtualStepCache (with its
        r x PTheta dv) are freed once its steps have used them, so the loop
        never builds a new one while an earlier one is still alive."""
        made = {"factors": weakref.WeakSet(), "cache": weakref.WeakSet()}
        calls = []

        def track(name, kind, result_of):
            fn = getattr(metaloop, name)

            def wrapped(*args):
                assert not made[kind], \
                    f"{name}: an earlier {kind} is still alive"
                out = fn(*args)
                made[kind].add(result_of(out))
                calls.append(name)
                return out
            monkeypatch.setattr(metaloop, name, wrapped)

        track("_factors", "factors", lambda f: f)
        track("_sl_factors", "factors", lambda f: f)
        track("_virtual", "cache", lambda out: out[1])
        cfg = desk_cfg(variant, epochs=3)
        ds = build_train_dataset(cfg)
        state = meta_train(ds, cfg, seed=0)
        factors = "_sl_factors" if variant == "cmwnet-sl" else "_factors"
        assert calls.count(factors) == calls.count("_virtual") == 8

        calls.clear()
        meta_test(state.wnet, ds, desk_cfg(epochs=3), seed=1)
        assert calls == ["_factors"] * 8

    @pytest.mark.parametrize("variant", ["cmwnet", "cmwnet-sl", "mwnet"])
    def test_training_runs_the_public_step_functions(self, variant,
                                                     monkeypatch):
        """Each weighted iteration takes one virtual step of its variant's
        kind, one hypergradient and one classifier_update; transfer under
        the frozen net takes only the classifier_update."""
        calls = []

        def count(name):
            fn = getattr(metaloop, name)

            def counted(*args):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(metaloop, name, counted)

        for name in ("virtual_step", "sl_virtual_step", "hypergrad",
                     "classifier_update"):
            count(name)
        cfg = desk_cfg(variant, epochs=3)
        ds = build_train_dataset(cfg)
        state = meta_train(ds, cfg, seed=0)
        virtual = "sl_virtual_step" if variant == "cmwnet-sl" else "virtual_step"
        assert calls == [virtual, "hypergrad", "classifier_update"] * 8

        calls.clear()
        meta_test(state.wnet, ds, desk_cfg(epochs=3), seed=1)
        assert calls == ["classifier_update"] * 8

    def test_train_loss_is_pre_step_batch_mean(self):
        """With no warmup the first row is weighted; its train_loss is the
        mean CE of the first batch at the initial classifier, the same
        figure the erm variant logs for that batch."""
        cfg = desk_cfg(epochs=1, warmup_epochs=0)
        ds = build_train_dataset(cfg)
        clf0 = meta_train(ds, desk_cfg(epochs=0), seed=3).clf
        rng_order = numkit.spawn_rngs(3, 6)[2]
        idx = rng_order.permutation(ds.n)[:cfg.train.batch_size]
        want = float(clf0.losses(ds.features[idx],
                                 ds.observed_labels[idx]).mean())
        weighted = meta_train(ds, cfg, seed=3).history[0]
        assert not np.isnan(weighted["hypergrad_norm"])
        assert weighted["train_loss"] == want
        erm = meta_train(ds, desk_cfg("erm", epochs=1), seed=3).history[0]
        assert erm["train_loss"] == want

    def test_config_validated(self):
        """A config edited after it was built is checked before training,
        so a schedule without its kind is a ConfigError, not a KeyError."""
        cfg = desk_cfg(epochs=1)
        ds = build_train_dataset(cfg)
        cfg.train.schedule = {}
        with pytest.raises(ConfigError, match="train.schedule.kind"):
            meta_train(ds, cfg, seed=0)
        with pytest.raises(ConfigError, match="train.schedule.kind"):
            meta_test(None, ds, cfg, seed=0)

    def test_sl_variant_runs_and_is_deterministic(self):
        cfg = desk_cfg("cmwnet-sl", epochs=3)
        ds = build_train_dataset(cfg)
        a = meta_train(ds, cfg, seed=2)
        b = meta_train(ds, cfg, seed=2)
        np.testing.assert_array_equal(a.clf.flat, b.clf.flat)
        np.testing.assert_allclose(a.z.sum(axis=1), np.ones(ds.n), atol=1e-9)

    def test_final_report_weight_split(self):
        cfg = desk_cfg(epochs=3)
        ds = build_train_dataset(cfg)
        state = meta_train(ds, cfg, seed=0)
        rep = state.final_report
        assert 0.0 <= rep["noisy_mean_weight"] <= 1.0
        assert 0.0 <= rep["clean_mean_weight"] <= 1.0


class TestSoftLabelEfficacy:
    """cmwnet-sl on the desk benchmark: 40% symmetric noise, lr 0.1."""

    @staticmethod
    def desk(variant):
        return config_from_dict({
            "dataset": {"C": 10, "d": 8, "n_per_class": 100,
                        "separation": 4.0, "sigma": 1.0,
                        "bias": [{"kind": "symmetric", "level": 0.4,
                                  "seed": 7}]},
            "test": {"n_per_class": 100},
            "model": {"hidden": [128, 128], "H": 100, "K": 3},
            "train": {"variant": variant, "epochs": 60, "batch_size": 100,
                      "lr": 0.1, "weight_decay": 5e-4, "theta_lr": 5e-3,
                      "theta_weight_decay": 1e-4, "warmup_epochs": 5,
                      "mixup_meta": False, "meta_per_class": 10}})

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_beats_erm(self, seed):
        cfg = self.desk("cmwnet-sl")
        ds = build_train_dataset(cfg)
        te = build_test_dataset(cfg)
        st = meta_train(ds, cfg, test_ds=te, seed=seed)   # no numeric failure
        acc_sl = evaluate(st.clf, te).accuracy
        cfg_e = self.desk("erm")
        acc_erm = evaluate(meta_train(ds, cfg_e, test_ds=te, seed=seed).clf,
                           te).accuracy
        # the clean-minus-noisy weight gap is reported, not gated: it is
        # small (0.004 to 0.028 on these seeds) and not steady across seeds
        rep = st.final_report
        print(f"cmwnet-sl seed {seed}: accuracy {acc_sl:.3f} vs erm "
              f"{acc_erm:.3f}, weight gap "
              f"{rep['clean_mean_weight'] - rep['noisy_mean_weight']:+.3f}")
        assert acc_sl >= acc_erm + 0.03


class TestMetaTest:
    def test_frozen_transfer_runs(self):
        cfg = desk_cfg(epochs=4)
        ds = build_train_dataset(cfg)
        te = build_test_dataset(cfg)
        trained = meta_train(ds, cfg, test_ds=te, seed=0)
        theta_before = trained.wnet.get_flat()
        state = meta_test(trained.wnet, ds, cfg, test_ds=te, seed=1)
        np.testing.assert_array_equal(trained.wnet.get_flat(), theta_before)
        assert state.theta_opt is None

    def test_query_equals_training_data_similar_accuracy(self):
        cfg = desk_cfg(epochs=8)
        cfg.dataset.separation = 5.0
        ds = build_train_dataset(cfg)
        te = build_test_dataset(cfg)
        trained = meta_train(ds, cfg, test_ds=te, seed=0)
        replay = meta_test(trained.wnet, ds, cfg, test_ds=te, seed=0)
        assert abs(replay.final_report["test_acc"] -
                   trained.final_report["test_acc"]) <= 0.02 + 1e-9

    def test_saturated_weightnet_equals_erm(self):
        cfg = desk_cfg(epochs=3)
        ds = build_train_dataset(cfg)
        te = build_test_dataset(cfg)
        rng = np.random.default_rng(0)
        wnet = WeightNet.init(1, rng, hidden=8)
        wnet.flat[...] = 0.0
        wnet.b2[...] = 500.0   # head pinned at 1
        cfg_sat = desk_cfg(epochs=3, warmup_epochs=0)
        pinned = meta_test(wnet, ds, cfg_sat, test_ds=te, seed=7)
        erm = meta_test(None, ds, cfg_sat, test_ds=te, seed=7)
        np.testing.assert_allclose(pinned.clf.flat, erm.clf.flat,
                                   atol=1e-9)

    def test_head_count_mismatch_rejected(self):
        cfg = desk_cfg(epochs=1)
        ds = build_train_dataset(cfg)
        rng = np.random.default_rng(0)
        # the desk dataset only has two distinct class sizes, so clustering
        # caps at two families and a three-head net cannot be matched
        wnet = WeightNet.init(3, rng, hidden=8)
        with pytest.raises(ConfigError), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            meta_test(wnet, ds, cfg, seed=0)


class TestSchedule:
    def test_piecewise_milestones(self):
        # the rate drops tenfold at 60% and again at 80% of the epochs
        sched = {"kind": "piecewise"}
        assert metaloop._schedule_lr(sched, 1.0, 59, 0, 100) == 1.0
        assert metaloop._schedule_lr(sched, 1.0, 60, 0, 100) == 0.1
        assert metaloop._schedule_lr(sched, 1.0, 79, 0, 100) == 0.1
        assert abs(metaloop._schedule_lr(sched, 1.0, 80, 0, 100) - 0.01) < 1e-12

    def test_decay_preset(self):
        sched = {"kind": "decay"}
        assert metaloop._schedule_lr(sched, 0.1, 0, 1, 10) == 0.1
        assert abs(metaloop._schedule_lr(sched, 0.1, 0, 100, 10) - 0.01) < 1e-12

    def test_decay_theta_rate_follows_theta_lr(self):
        sched = {"kind": "decay"}
        assert abs(metaloop._schedule_lr(sched, 0.005, 0, 100, 10)
                   - 0.0005) < 1e-15
        cfg = desk_cfg(epochs=2, warmup_epochs=0, theta_lr=0.005)
        cfg.train.schedule = sched
        st = meta_train(build_train_dataset(cfg), cfg, seed=0)
        # the last meta step ran at iteration t - 1
        assert st.theta_opt.lr == pytest.approx(0.005 / np.sqrt(st.t - 1),
                                                rel=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            metaloop._schedule_lr({"kind": "cosine"}, 0.1, 0, 0, 10)


class TestErmUpdate:
    def test_matches_manual_sgd(self, rng):
        clf = tiny_classifier(rng)
        x, y = random_batch(rng, 6, 3, 4)
        _, grads = clf.mean_grad(x, y)
        expected = clf.flat - 0.2 * grads
        clf2 = Classifier(clf.sizes, clf.flat.copy())
        erm_update(clf2, SgdMomentum(0.2), x, y, 0.2)
        np.testing.assert_allclose(clf2.flat, expected, atol=1e-12)
