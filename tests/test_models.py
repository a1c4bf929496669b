"""Classifier and weighting-network forward/backward checks."""

import tracemalloc

import numpy as np
import pytest

from cmwnet import numkit
from cmwnet.models import (LOSS_CLAMP, LOSS_SCALE, ROWS, Classifier, WeightNet,
                           load_checkpoint, save_checkpoint)
from cmwnet.numkit import read_arrays, write_arrays
from cmwnet.taskfam import assign_family
from conftest import random_batch, tiny_classifier, tiny_weightnet


class TestClassifierForward:
    def test_zero_weights_uniform_probs(self, rng):
        clf = tiny_classifier(rng, d=3, hidden=(5,), C=4)
        clf.flat[...] = 0.0
        x = rng.normal(size=(6, 3))
        probs = clf.forward(x)
        np.testing.assert_allclose(probs, np.full((6, 4), 0.25), atol=1e-12)
        losses = clf.losses(x, np.zeros(6, dtype=np.int64))
        np.testing.assert_allclose(losses, np.full(6, np.log(4.0)), atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        clf = tiny_classifier(rng)
        probs = clf.forward(rng.normal(size=(5, 3)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)

    def test_separable_two_class_sgd(self, rng):
        # linear model on well-separated clusters reaches 100% train accuracy
        x = np.concatenate([rng.normal(size=(20, 2)) + 4,
                            rng.normal(size=(20, 2)) - 4])
        y = np.array([0] * 20 + [1] * 20)
        clf = Classifier.init([2, 2], rng)
        opt = numkit.SgdMomentum(lr=0.5)
        for _ in range(200):
            _, grads = clf.mean_grad(x, y)
            opt.step(clf.flat, grads)
        pred = np.argmax(clf.forward(x), axis=1)
        assert np.array_equal(pred, y)

    def test_shape_mismatch(self, rng):
        clf = tiny_classifier(rng, d=3)
        with pytest.raises(ValueError):
            clf.forward(rng.normal(size=(2, 4)))


class TestLogitsOracle:
    """forward_cached's logits equal the out-of-place layer-by-layer
    construction bit for bit; forward and losses are built on them."""

    @pytest.mark.parametrize("sizes", [[3, 4], [5, 9, 7, 4], [8, 128, 128, 10]])
    def test_equals_forward_cached(self, sizes):
        rng = np.random.default_rng(7)
        clf = Classifier.init(sizes, rng)
        x = 3.0 * rng.normal(size=(37, sizes[0]))
        x_before = x.copy()
        logits = clf.forward_cached(x)[-1]
        assert np.array_equal(x, x_before)
        h = x
        for li, (W, b) in enumerate(zip(clf.weights, clf.biases)):
            h = h @ W + b
            if li < len(clf.weights) - 1:
                h = np.maximum(h, 0.0)
        assert np.array_equal(logits, h)

    def test_forward_and_losses_use_it(self, rng):
        clf = Classifier.init([5, 9, 7, 4], rng)
        x, y = random_batch(rng, 20, 5, 4)
        targets = rng.dirichlet(np.ones(4), size=20)
        logits = clf.forward_cached(x)[-1]
        assert np.array_equal(clf.forward(x), numkit.softmax(logits))
        assert np.array_equal(clf.losses(x, y), numkit.xent(logits, y)[0])
        assert np.array_equal(clf.losses(x, targets),
                              numkit.xent(logits, targets)[0])


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestOneArrayPerLayer:
    """forward_cached rectifies each hidden layer in place and backward
    reads its ReLU mask from the rectified activations: the same bits as
    np.maximum of the out-of-place pre-activations and the mask
    pre-activation > 0, with exact 0, -0.0 and NaN included."""

    @staticmethod
    def case():
        rng = np.random.default_rng(5)
        clf = Classifier.init([4, 6, 5, 3], rng)
        clf.biases[0][:2] = 0.0
        x = rng.normal(size=(9, 4))
        x[0] = 0.0                  # layer 0's pre-activations are b0
        x[1, 2] = np.nan            # a NaN row
        pre, h = [], x
        for W, b in zip(clf.weights, clf.biases):
            pre.append(h @ W + b)
            h = np.maximum(pre[-1], 0.0)
        assert np.any(pre[0] == 0.0) and np.any(np.isnan(pre[0]))
        assert np.any(pre[0] < 0.0) and np.any(x < 0.0)
        return clf, x, pre

    def test_activations_are_rectified_pre_activations(self):
        clf, x, pre = self.case()
        x_before = x.copy()
        acts = clf.forward_cached(x)
        assert len(acts) == 4
        assert acts[0] is x and np.array_equal(bits(x), bits(x_before))
        for a, z in zip(acts[1:-1], pre):
            assert np.array_equal(bits(a), bits(np.maximum(z, 0.0)))
        assert np.array_equal(bits(acts[-1]), bits(pre[-1]))

    def test_backward_mask_is_pre_activation_mask(self):
        clf, x, pre = self.case()
        # a BLAS sum gives +0.0 for an exact zero, so -0.0 is put in by hand
        pre[0][2, :3] = -0.0
        pre[1][3, :2] = -0.0
        dlogits = np.random.default_rng(6).normal(size=pre[-1].shape)
        want = [dlogits]
        for li in (2, 1):
            want.insert(0, (want[0] @ clf.weights[li].T) * (pre[li - 1] > 0))
        acts = [x] + [np.maximum(z, 0.0) for z in pre[:-1]] + [pre[-1]]
        got = clf.backward(acts, dlogits)
        assert all(np.array_equal(bits(g), bits(w)) for g, w in zip(got, want))
        # a NaN row has an all-zero mask, so its deltas below the logits are 0
        assert np.all(got[0][1] == 0.0) and np.all(got[1][1] == 0.0)


def joined_grad(acts, deltas):
    """The unweighted gradient as per-layer products joined by one copy."""
    return numkit.flatten([a.T @ d for a, d in zip(acts, deltas)]
                          + [d.sum(axis=0) for d in deltas])


class TestMeanGradInPlace:
    """mean_grad writes each layer's product straight into its slot of one
    vector: no per-layer list and no joining copy."""

    @staticmethod
    def passes(clf, x, y):
        """mean_grad's forward and backward pass, without the gradient."""
        acts = clf.forward_cached(x)
        loss, dlogits = numkit.xent(acts[-1], y)
        dlogits /= x.shape[0]
        return loss, acts, clf.backward(acts, dlogits)

    @pytest.mark.parametrize("sizes", [[8, 128, 128, 10], [3, 8, 4]])
    def test_equals_joined_products(self, sizes):
        rng = np.random.default_rng(len(sizes))
        clf = Classifier.init(sizes, rng)
        x, y = random_batch(rng, 100, sizes[0], sizes[-1])
        loss, grad = clf.mean_grad(x, y)
        want_loss, acts, deltas = self.passes(clf, x, y)
        assert loss == want_loss.mean()
        assert np.array_equal(grad, joined_grad(acts, deltas))

    def test_holds_one_gradient_vector(self):
        # beyond the pass's own arrays, mean_grad holds only the P-sized
        # vector it returns; a per-layer list joined by a copy holds two
        rng = np.random.default_rng(0)
        clf = Classifier.init([8, 128, 128, 10], rng)
        x, y = random_batch(rng, 100, 8, 10)
        peaks = []
        for fn in (self.passes, Classifier.mean_grad) * 2:
            tracemalloc.start()
            try:
                fn(clf, x, y)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[3] <= peaks[2] + clf.flat.nbytes + 16_384


class TestClassifierGradients:
    def test_mean_grad_matches_finite_difference(self, rng):
        clf = tiny_classifier(rng)
        x, y = random_batch(rng, 6, 3, 4)

        def f(theta):
            c = Classifier(clf.sizes, theta)
            return float(c.losses(x, y).mean())

        _, grads = clf.mean_grad(x, y)
        fd = numkit.finite_diff_grad(f, clf.flat)
        rel = np.abs(grads - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-5

    def test_per_sample_grads_match_finite_difference(self, rng):
        clf = tiny_classifier(rng)
        x, y = random_batch(rng, 4, 3, 4)
        losses, g = clf.per_sample_grads(x, y)
        for j in range(4):
            def f(theta, j=j):
                c = Classifier(clf.sizes, theta)
                return float(c.losses(x[j:j + 1], y[j:j + 1])[0])

            fd = numkit.finite_diff_grad(f, clf.flat)
            rel = np.abs(g[j] - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() < 1e-5

    def test_per_sample_grads_sum_to_mean(self, rng):
        clf = tiny_classifier(rng)
        x, y = random_batch(rng, 8, 3, 4)
        _, g = clf.per_sample_grads(x, y)
        _, grads = clf.mean_grad(x, y)
        np.testing.assert_allclose(g.mean(axis=0), grads,
                                   atol=1e-12)

    def test_soft_target_grads(self, rng):
        clf = tiny_classifier(rng)
        x = rng.normal(size=(3, 3))
        targets = rng.dirichlet(np.ones(4), size=3)
        _, g = clf.per_sample_grads(x, targets)

        def f(theta):
            c = Classifier(clf.sizes, theta)
            return float(c.losses(x, targets).mean())

        fd = numkit.finite_diff_grad(f, clf.flat)
        rel = np.abs(g.mean(axis=0) - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-5


def all_heads(wn, losses):
    """Every head at every loss, shape (n, K), from the gated pass that
    training uses: row j, column k is wn.weight at loss j and family k."""
    n = losses.size
    return wn.weight(np.tile(losses, wn.K),
                     np.repeat(np.arange(wn.K), n)).reshape(wn.K, n).T


def cmw_weight(loss, count, wn, centers):
    """Weight of one sample whose class has `count` samples, and its Theta
    gradient: the head of the class's family (taskfam.assign_family) at
    the sample's loss, as training gates it."""
    fam = np.array([assign_family(count, centers)])
    v, dv = wn.weight_and_grad(np.array([loss]), fam)
    return float(v[0]), dv[0]


class TestFamilyGating:
    """A class's size picks the head that weights its samples."""

    def test_nearest_center(self, rng):
        wn = tiny_weightnet(rng, K=3)
        w, _ = cmw_weight(0.8, 60, wn, np.array([5.0, 50.0, 500.0]))
        assert w == all_heads(wn, np.array([0.8]))[0, 1]

    def test_single_center(self, rng):
        wn = tiny_weightnet(rng, K=1)
        w, _ = cmw_weight(0.8, 123, wn, np.array([7.0]))
        assert w == all_heads(wn, np.array([0.8]))[0, 0]

    def test_midpoint_tie_goes_to_smaller_center(self, rng):
        wn = tiny_weightnet(rng, K=2)
        w, _ = cmw_weight(0.8, 15, wn, np.array([10.0, 20.0]))
        assert w == all_heads(wn, np.array([0.8]))[0, 0]

    def test_empty_centers(self, rng):
        with pytest.raises(ValueError):
            cmw_weight(0.8, 10, tiny_weightnet(rng, K=1), np.array([]))


class TestWeightNet:
    def test_zero_params_output_half(self, rng):
        wn = tiny_weightnet(rng, K=3)
        wn.flat[...] = 0.0
        out = all_heads(wn, np.array([0.0, 1.0, 7.5]))
        np.testing.assert_allclose(out, np.full((3, 3), 0.5), atol=1e-12)

    def test_outputs_in_open_unit_interval(self, rng):
        wn = tiny_weightnet(rng, K=2)
        out = all_heads(wn, rng.uniform(0, 10, size=20))
        assert np.all(out > 0) and np.all(out < 1)

    def test_fresh_init_starts_near_half(self, rng):
        # zero head bias keeps initial weights uninformative
        wn = WeightNet.init(3, rng, hidden=100)
        np.testing.assert_array_equal(wn.b2, np.zeros(3))

    def test_nonfinite_loss_rejected(self, rng):
        wn = tiny_weightnet(rng)
        with pytest.raises(FloatingPointError, match="weight net"):
            wn.weight(np.array([np.inf]), np.array([0]))

    def test_grad_matches_finite_difference(self, rng):
        wn = tiny_weightnet(rng, K=3)
        losses = rng.uniform(0, 5, size=4)
        fams = rng.integers(0, 3, size=4)
        v, dv = wn.weight_and_grad(losses, fams)
        for j in range(4):
            def f(theta, j=j):
                w = wn.copy()
                w.set_flat(theta)
                return float(w.weight(losses[j:j + 1], fams[j:j + 1])[0])

            fd = numkit.finite_diff_grad(f, wn.get_flat())
            rel = np.abs(dv[j] - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() < 1e-5

    def test_selected_head_equals_forward_column(self, rng):
        wn = tiny_weightnet(rng, K=3)
        losses = rng.uniform(0, 5, size=6)
        fams = rng.integers(0, 3, size=6)
        v = wn.weight(losses, fams)
        table = all_heads(wn, losses)
        assert np.array_equal(v, table[np.arange(6), fams])

    # tail=None keeps every loss below the clamp; a number puts every other
    # loss at up to that multiple of it
    @pytest.mark.parametrize("tail", [None, 2.0])
    def test_weight_is_value_of_weight_and_grad(self, rng, tail):
        wn = tiny_weightnet(rng, K=3)
        losses = rng.uniform(0, 5, size=7)
        if tail is not None:
            losses[::2] = rng.uniform(1, tail, size=4) * LOSS_CLAMP
        fams = rng.integers(0, 3, size=7)
        v, _ = wn.weight_and_grad(losses, fams)
        assert np.array_equal(wn.weight(losses, fams), v)

    def test_loss_clamp_flattens_tail(self, rng):
        wn = tiny_weightnet(rng)
        heads = all_heads(wn, np.array([LOSS_CLAMP, LOSS_CLAMP + 1.0, 500.0]))
        np.testing.assert_array_equal(heads[1:], heads[[0, 0]])


class TestOneParameterVector:
    """Each model's parameters are one vector; its per-layer arrays are
    views into it."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_classifier_init_draw_order(self, seed):
        # W_0, b_0, W_1, b_1, ... from one generator, as per-array draws
        sizes = [5, 9, 7, 4]
        clf = Classifier.init(sizes, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        for W, b, d_in, d_out in zip(clf.weights, clf.biases, sizes[:-1],
                                     sizes[1:]):
            bound = 1.0 / np.sqrt(d_in)
            assert np.array_equal(W, rng.uniform(-bound, bound,
                                                 size=(d_in, d_out)))
            assert np.array_equal(b, rng.uniform(-bound, bound, size=d_out))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weightnet_init_draw_order(self, seed):
        K, H = 3, 7
        wn = WeightNet.init(K, np.random.default_rng(seed), hidden=H)
        rng = np.random.default_rng(seed)
        assert np.array_equal(wn.W1, rng.uniform(-1.0, 1.0, size=(1, H)))
        assert np.array_equal(wn.b1, rng.uniform(-1.0, 1.0, size=H))
        bound = 1.0 / np.sqrt(H)
        assert np.array_equal(wn.W2, rng.uniform(-bound, bound, size=(H, K)))
        assert np.array_equal(wn.b2, np.zeros(K))

    def test_layout_is_weights_then_biases(self, rng):
        clf = tiny_classifier(rng, d=4, hidden=(6, 5), C=3)
        assert np.array_equal(clf.flat, numkit.flatten(clf.weights
                                                       + clf.biases))
        wn = tiny_weightnet(rng)
        assert np.array_equal(wn.flat, numkit.flatten(
            [wn.W1, wn.b1, wn.W2, wn.b2]))

    def test_optimizer_step_shows_in_views(self, rng):
        clf = tiny_classifier(rng)
        before = [a.copy() for a in clf.weights + clf.biases]
        g = rng.normal(size=clf.flat.size)
        numkit.SgdMomentum(0.1).step(clf.flat, g)
        after = numkit.flatten(clf.weights + clf.biases)
        assert np.array_equal(after, numkit.flatten(before) - 0.1 * g)
        wn = tiny_weightnet(rng)
        numkit.Adam(0.1).step(wn.flat, np.ones(wn.flat.size))
        assert np.all(wn.b2 < 0.0)

    def test_copies_share_no_memory(self, rng, tmp_path):
        clf, wn = tiny_classifier(rng), tiny_weightnet(rng)
        save_checkpoint(tmp_path / "m.ckpt", clf, wn)
        ck = load_checkpoint(tmp_path / "m.ckpt")
        wn_copy = wn.copy()
        for new, old in ((ck.classifier, clf), (ck.weightnet, wn),
                         (wn_copy, wn)):
            assert not np.shares_memory(new.flat, old.flat)
        # the loaded models' arrays are views of their own vectors
        ck.classifier.flat[...] = 0.0
        ck.weightnet.flat[...] = 0.0
        assert not any(a.any() for a in ck.classifier.weights
                       + ck.classifier.biases)
        assert not any(a.any() for a in (ck.weightnet.W1, ck.weightnet.b1,
                                         ck.weightnet.W2, ck.weightnet.b2))
        wn_copy.flat[...] = 0.0
        assert wn.flat.any()

    def test_set_flat_copies_and_checks_length(self, rng):
        wn = tiny_weightnet(rng)
        theta = rng.normal(size=wn.flat.size)
        want = theta.copy()
        wn.set_flat(theta)
        theta[0] += 1.0
        assert np.array_equal(wn.flat, want)
        with pytest.raises(ValueError):
            wn.set_flat(theta[:-1])

    @pytest.mark.parametrize("seed", range(5))
    def test_broadcast_input_layer_equals_matmul(self, seed):
        # each entry of the (n x 1) @ (1 x H) product is one product, so
        # the broadcast form is the same bits, and so is every weight built
        # on it
        rng = np.random.default_rng(seed)
        n, H, K = (int(v) for v in rng.integers(1, 300, size=3))
        K = K % 5 + 1
        wn = WeightNet.init(K, rng, hidden=H)
        wn.b2[...] = rng.normal(size=K)
        losses = rng.exponential(3.0, size=n)
        fam = rng.integers(0, K, size=n)
        ell = np.minimum(losses, LOSS_CLAMP) / LOSS_SCALE
        h = np.maximum(ell[:, None] @ wn.W1 + wn.b1, 0.0)
        gated = wn._gated(losses, fam)
        assert np.array_equal(gated[2], h)
        z2 = np.einsum("nh,hn->n", h, wn.W2[:, fam]) + wn.b2[fam]
        assert np.array_equal(gated[-1], numkit.sigmoid(z2))


class TestWeightJacobianOracle:
    """weight_and_grad's dv, filled through a 3-D view of the W2 block,
    equals the 2-D fancy-index construction it replaced, bit for bit."""

    @pytest.mark.parametrize("K,H,n", [(1, 8, 5), (3, 6, 40), (4, 100, 200)])
    def test_equals_two_d_index_fill(self, K, H, n):
        rng = np.random.default_rng(11)
        wn = WeightNet.init(K, rng, hidden=H)
        losses = rng.exponential(2.0, size=n)
        losses[:3] = [0.0, 80.0, 1.0]              # 80 is clamped to 50
        fam = rng.integers(0, K, size=n)
        v, dv = wn.weight_and_grad(losses, fam)
        assert np.array_equal(v, wn.weight(losses, fam))

        ell = np.minimum(losses, LOSS_CLAMP) / LOSS_SCALE
        z1 = ell[:, None] @ wn.W1 + wn.b1
        h = np.maximum(z1, 0.0)
        dz2 = v * (1.0 - v)
        dz1 = dz2[:, None] * wn.W2[:, fam].T * (z1 > 0).astype(np.float64)
        rows = np.arange(n)
        want = np.zeros((n, wn.flat.size))
        want[:, :H] = dz1 * ell[:, None]
        want[:, H:2 * H] = dz1
        want[rows[:, None], 2 * H + np.arange(H) * K + fam[:, None]] = \
            dz2[:, None] * h
        want[rows, 2 * H + H * K + fam] = dz2
        assert np.array_equal(dv, want)


    def test_transient_memory_bound(self):
        # beyond dv itself, the step holds ell, h and W2[:, fam]; the
        # rectified h gives the ReLU mask, so no pre-activation is kept, and
        # dz1 and the W1 block are filled inside dv, not in (n x H)
        # temporaries. Keeping the pre-activation too reads 4.4 n H doubles
        n, H, K = 200, 100, 3
        rng = np.random.default_rng(0)
        wn = WeightNet.init(K, rng, hidden=H)
        losses = rng.exponential(2.0, size=n)
        fam = rng.integers(0, K, size=n)
        wn.weight_and_grad(losses, fam)
        tracemalloc.start()
        try:
            _, dv = wn.weight_and_grad(losses, fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - dv.nbytes <= 4 * n * H * 8


class TestWeightInRowBlocks:
    """weight runs ROWS rows at a time and still equals one pass over all
    rows, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, ROWS - 1, ROWS, 3 * ROWS + 7])
    def test_equals_one_pass(self, n):
        rng = np.random.default_rng(n)
        K, H = int(rng.integers(1, 5)), int(rng.integers(1, 120))
        wn = WeightNet.init(K, rng, hidden=H)
        losses = rng.exponential(3.0, size=n)
        losses[:1] = 80.0                          # clamped to 50
        fam = rng.integers(0, K, size=n)
        v = wn.weight(losses, fam)
        assert v.shape == (n,)
        assert np.array_equal(v, wn._gated(losses, fam)[-1])

    def test_memory_does_not_grow_with_n_times_h(self):
        # one pass over these rows holds three 40 MB (n x H) arrays
        rng = np.random.default_rng(0)
        n, H = 50_000, 100
        wn = WeightNet.init(3, rng, hidden=H)
        losses = rng.exponential(2.0, size=n)
        fam = rng.integers(0, 3, size=n)
        tracemalloc.start()
        try:
            wn.weight(losses, fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestClassifierInRowBlocks:
    """losses and forward run ROWS rows at a time: a call of at most ROWS
    rows is exactly one pass, and a longer one is the per-block passes
    joined, which round like ROWS-row products rather than one n-row one."""

    @staticmethod
    def one_pass(clf, x, targets):
        logits = clf.forward_cached(x)[-1]
        return numkit.xent(logits, targets)[0], numkit.softmax(logits)

    def case(self, n, soft):
        rng = np.random.default_rng(n + soft)
        clf = Classifier.init([7, 64, 5], rng)
        x = rng.normal(size=(n, 7))
        targets = (rng.dirichlet(np.ones(5), size=n) if soft
                   else rng.integers(0, 5, size=n))
        return clf, x, targets

    @pytest.mark.parametrize("soft", [False, True])
    @pytest.mark.parametrize("n", [0, 1, ROWS - 1, ROWS])
    def test_one_block_is_one_pass(self, n, soft):
        clf, x, targets = self.case(n, soft)
        losses, probs = clf.losses(x, targets), clf.forward(x)
        want_losses, want_probs = self.one_pass(clf, x, targets)
        assert losses.shape == (n,) and probs.shape == (n, 5)
        assert np.array_equal(losses, want_losses)
        assert np.array_equal(probs, want_probs)

    @pytest.mark.parametrize("soft", [False, True])
    def test_longer_input_is_per_block_passes(self, soft):
        n = 3 * ROWS + 7
        clf, x, targets = self.case(n, soft)
        losses, probs = clf.losses(x, targets), clf.forward(x)
        blocks = [self.one_pass(clf, x[i:i + ROWS], targets[i:i + ROWS])
                  for i in range(0, n, ROWS)]
        assert np.array_equal(losses, np.concatenate([b[0] for b in blocks]))
        assert np.array_equal(probs, np.concatenate([b[1] for b in blocks]))
        want_losses, want_probs = self.one_pass(clf, x, targets)
        np.testing.assert_allclose(losses, want_losses, rtol=1e-12, atol=0)
        np.testing.assert_allclose(probs, want_probs, rtol=1e-12, atol=0)

    def test_bad_label_in_a_later_block_raises(self):
        clf, x, y = self.case(ROWS + 3, False)
        y[-1] = 5
        with pytest.raises(IndexError):
            clf.losses(x, y)

    def test_losses_memory_does_not_grow_with_n_times_width(self):
        # one pass over these rows holds two 51 MB (n x 128) arrays. A
        # ROWS-row block holds one 262 KB array per hidden layer, about
        # 1.0 MB at the peak with the losses; a pre-activation copy per
        # layer as well reads 1.5 MB
        rng = np.random.default_rng(0)
        n = 50_000
        clf = Classifier.init([10, 128, 128, 10], rng)
        x = rng.normal(size=(n, 10))
        y = rng.integers(0, 10, size=n)
        tracemalloc.start()
        try:
            clf.losses(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25e6


class TestCmwWeight:
    def test_zero_theta_weight_half(self, rng):
        wn = tiny_weightnet(rng, K=3)
        wn.flat[...] = 0.0
        w, _ = cmw_weight(2.0, 60, wn, np.array([5.0, 50.0, 500.0]))
        assert w == 0.5

    def test_k1_ignores_count(self, rng):
        wn = tiny_weightnet(rng, K=1)
        w1, _ = cmw_weight(1.3, 10, wn, np.array([10.0]))
        w2, _ = cmw_weight(1.3, 99999, wn, np.array([10.0]))
        assert w1 == w2

    def test_same_family_same_weight(self, rng):
        wn = tiny_weightnet(rng, K=3)
        centers = np.array([10.0, 100.0, 1000.0])
        w1, _ = cmw_weight(0.7, 95, wn, centers)
        w2, _ = cmw_weight(0.7, 130, wn, centers)
        assert w1 == w2

    def test_grad_matches_finite_difference(self, rng):
        wn = tiny_weightnet(rng, K=3)
        centers = np.array([10.0, 100.0, 1000.0])
        _, dv = cmw_weight(1.1, 120, wn, centers)

        def f(theta):
            w = wn.copy()
            w.set_flat(theta)
            val, _ = cmw_weight(1.1, 120, w, centers)
            return val

        fd = numkit.finite_diff_grad(f, wn.get_flat())
        rel = np.abs(dv - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-5


class TestCheckpoint:
    def test_array_file_round_trip(self, rng, tmp_path):
        arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=7),
                  "scalarish": np.array(2.5)}
        path = tmp_path / "arrays.bin"
        write_arrays(path, arrays)
        back = read_arrays(path)
        assert set(back) == set(arrays)
        for k in arrays:
            assert back[k].shape == arrays[k].shape, k
            np.testing.assert_array_equal(back[k],
                                          np.asarray(arrays[k], dtype="<f8"))

    def test_array_file_bytes(self, tmp_path):
        # magic, version 2, three arrays; each its name, ndim, shape and
        # float64 data in C order: a 0-d array, int labels, a transpose
        path = tmp_path / "arrays.bin"
        write_arrays(path, {"s": np.array(2.5), "labels": np.array([2, 0, 1]),
                            "m": np.array([[1.0, 2.0], [3.0, 4.0]]).T})
        assert path.read_bytes() == bytes.fromhex(
            "434d574302000000030000000100000073000000000000000000000440060000"
            "006c6162656c7301000000030000000000000000000000000000400000000000"
            "000000000000000000f03f010000006d02000000020000000000000002000000"
            "00000000000000000000f03f0000000000000840000000000000004000000000"
            "00001040")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "arrays.bin"
        write_arrays(path, {"ok": np.ones(2), "w": np.array([[0.0, bad]])})
        with pytest.raises(numkit.CorruptArtifact,
                           match=f"{path}: array w holds a non-finite value"):
            read_arrays(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_arrays(path)

    def test_checkpoint_bit_exact_round_trip(self, rng, tmp_path):
        # the architecture comes back from the array shapes alone
        clf = tiny_classifier(rng, d=4, hidden=(6, 5), C=3)
        wn = tiny_weightnet(rng, K=3)
        centers = np.array([5.0, 50.0, 500.0])
        layers = {"clf_W_0", "clf_W_1", "clf_W_2",
                  "clf_b_0", "clf_b_1", "clf_b_2"}
        for net, names in ((wn, layers | {"wn_W1", "wn_b1", "wn_W2", "wn_b2"}),
                           (None, layers)):
            path = tmp_path / "model.ckpt"
            save_checkpoint(path, clf, net, centers)
            assert set(read_arrays(path)) == names | {"centers"}
            assert not (tmp_path / "model.ckpt.json").exists()
            ck = load_checkpoint(path)
            assert ck.classifier.sizes == [4, 6, 5, 3]
            np.testing.assert_array_equal(ck.classifier.flat,
                                          clf.flat)
            if net is None:
                assert ck.weightnet is None
            else:
                assert (ck.weightnet.hidden, ck.weightnet.K) == (wn.hidden, 3)
                np.testing.assert_array_equal(ck.weightnet.get_flat(),
                                              wn.get_flat())
            np.testing.assert_array_equal(ck.centers, centers)

    def test_checkpoint_without_weightnet(self, rng, tmp_path):
        clf = tiny_classifier(rng)
        path = tmp_path / "clf.ckpt"
        save_checkpoint(path, clf)
        ck = load_checkpoint(path)
        assert ck.weightnet is None
        assert ck.centers is None
        np.testing.assert_array_equal(ck.classifier.flat, clf.flat)
