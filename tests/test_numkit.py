"""Numeric primitives: activations, losses, optimizers, finite differences."""

import tracemalloc

import numpy as np
import pytest

from cmwnet import numkit
from cmwnet.models import Classifier


def affine(x, W, b):
    """x @ W + b, as the logits of a one-layer Classifier."""
    clf = Classifier(list(W.shape), numkit.flatten([W, b]))
    return clf.forward_cached(x)[-1]


def unit_net():
    """A one-hidden-unit classifier with unit weights and zero biases, whose
    hidden pre-activation at input z is z."""
    return Classifier([1, 1, 1], np.array([1.0, 1.0, 0.0, 0.0]))


def relu(z):
    """ReLU as Classifier.forward_cached applies it in place: the hidden
    activation of unit_net at input z."""
    return float(unit_net().forward_cached(np.array([[z]]))[1][0, 0])


def relu_grad(z):
    """The ReLU derivative as Classifier.backward applies it: the delta of
    unit_net at input z."""
    clf = unit_net()
    deltas = clf.backward(clf.forward_cached(np.array([[z]])), np.ones((1, 1)))
    return float(deltas[0][0, 0])


class TestAffine:
    def test_identity_weights(self):
        x = np.array([[1.0, 2.0]])
        W = np.eye(2)
        b = np.zeros(2)
        np.testing.assert_allclose(affine(x, W, b), [[1.0, 2.0]])

    def test_zero_input_returns_bias(self):
        x = np.zeros((1, 2))
        W = np.arange(6.0).reshape(2, 3)
        b = np.array([3.0, -1.0, 2.0])
        np.testing.assert_allclose(affine(x, W, b), [b])

    def test_matches_hand_summed_dot(self, rng):
        x = rng.normal(size=(3, 4))
        W = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        out = affine(x, W, b)
        for i in range(3):
            for j in range(2):
                manual = sum(x[i, k] * W[k, j] for k in range(4)) + b[j]
                assert abs(out[i, j] - manual) < 1e-12

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            affine(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))


class TestActivations:
    def test_sigmoid_at_zero(self):
        s = numkit.sigmoid(np.array(0.0))
        assert s == 0.5
        assert s * (1.0 - s) == 0.25

    def test_relu_negative(self):
        assert relu(-3.0) == 0.0
        assert relu_grad(-3.0) == 0.0

    def test_relu_grad_zero_at_origin(self):
        assert relu_grad(0.0) == 0.0

    def test_sigmoid_extreme_inputs_finite(self):
        vals = numkit.sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(vals))
        assert vals[0] >= 0.0 and vals[1] <= 1.0

    def test_sigmoid_equals_masked_two_branch_form(self):
        # the form with one exp per sign branch, filled through masks
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(0.0, 10.0, 50_000),
                            rng.normal(0.0, 1000.0, 50_000),
                            [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0,
                             -745.0]])
        want = np.empty_like(x)
        pos = x >= 0
        with np.errstate(over="ignore", invalid="ignore"):
            want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            want[~pos] = ex / (1.0 + ex)
            got = numkit.sigmoid(x)
        assert np.array_equal(got, want, equal_nan=True)

    def test_derivatives_match_finite_difference(self, rng):
        for _ in range(5):
            x = float(rng.normal()) + 0.05  # keep away from the relu kink
            fd = numkit.finite_diff_grad(
                lambda t: float(numkit.sigmoid(t[0])), np.array([x]))
            s = numkit.sigmoid(np.array(x))
            assert abs(s * (1.0 - s) - fd[0]) < 1e-6
            fd = numkit.finite_diff_grad(
                lambda t: relu(t[0]), np.array([abs(x)]))
            assert abs(relu_grad(abs(x)) - fd[0]) < 1e-6


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss, grad = numkit.xent(np.array([[0.0, 0.0]]), np.array([0]))
        assert abs(loss[0] - np.log(2.0)) < 1e-12
        np.testing.assert_allclose(grad, [[-0.5, 0.5]])

    def test_saturated_logits_no_overflow(self):
        loss, grad = numkit.xent(
            np.array([[1000.0, -1000.0]]), np.array([0]))
        assert np.all(np.isfinite(loss)) and np.all(np.isfinite(grad))
        assert loss[0] < 1e-12

    def test_rows_sum_to_one(self, rng):
        probs = numkit.softmax(rng.normal(size=(6, 5)) * 10)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-12)
        assert np.all(probs >= 0)

    def test_equals_separate_exp_and_leaves_logits(self, rng):
        logits = rng.normal(size=(40, 7)) * 20
        kept = logits.copy()
        y = rng.integers(0, 7, size=40)
        loss, grad = numkit.xent(logits, y)
        z = kept - kept.max(axis=1, keepdims=True)
        e = np.exp(z)
        s = e.sum(axis=1, keepdims=True)
        want = e / s
        want[np.arange(40), y] -= 1.0
        assert np.array_equal(loss, np.log(s[:, 0]) - z[np.arange(40), y])
        assert np.array_equal(grad, want)
        assert np.array_equal(logits, kept)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            numkit.xent(np.zeros((1, 3)), np.array([3]))

    def test_grad_matches_finite_difference(self, rng):
        logits = rng.normal(size=5)
        y = np.array([2])

        def f(t):
            loss, _ = numkit.xent(t[None, :], y)
            return float(loss[0])

        _, grad = numkit.xent(logits[None, :], y)
        fd = numkit.finite_diff_grad(f, logits)
        rel = np.abs(grad[0] - fd) / np.maximum(np.abs(fd), 1e-12)
        assert rel.max() < 1e-6

    def test_soft_targets_reduce_to_hard(self, rng):
        logits = rng.normal(size=(4, 3))
        y = rng.integers(0, 3, size=4)
        onehot = np.zeros((4, 3))
        onehot[np.arange(4), y] = 1.0
        l_hard, g_hard = numkit.xent(logits, y)
        l_soft, g_soft = numkit.xent(logits, onehot)
        np.testing.assert_allclose(l_hard, l_soft, atol=1e-12)
        np.testing.assert_allclose(g_hard, g_soft, atol=1e-12)

    @pytest.mark.parametrize("logits", [
        [[1000.0, -1000.0]], [[-1000.0, 1000.0]], [[0.0, 0.0]],
        [[40.0, 0.0, -3.0]], "random"])
    def test_labels_and_their_one_hot_rows_give_the_same_bits(self, logits):
        # a saturated row has a zero loss, which must keep its sign (+0.0)
        rng = np.random.default_rng(5)
        logits = (20.0 * rng.normal(size=(300, 7)) if logits == "random"
                  else np.array(logits))
        n, C = logits.shape
        y = np.zeros(n, dtype=np.int64) if n == 1 else rng.integers(0, C, n)
        l_hard, g_hard = numkit.xent(logits, y)
        l_soft, g_soft = numkit.xent(logits, np.eye(C)[y])
        assert l_hard.tobytes() == l_soft.tobytes()
        assert g_hard.tobytes() == g_soft.tobytes()
        assert not np.signbit(l_hard).any()

    def test_one_hot_rows_refuse_labels_out_of_range(self):
        assert np.array_equal(numkit.onehot(np.array([2, 0]), 3),
                              [[0, 0, 1], [1, 0, 0]])
        for bad in (-1, 3):
            with pytest.raises(IndexError):
                numkit.onehot(np.array([0, bad]), 3)

    def test_soft_targets_grad_matches_finite_difference(self, rng):
        logits = rng.normal(size=4)
        targets = rng.dirichlet(np.ones(4))

        def f(t):
            loss, _ = numkit.xent(t[None, :], targets[None, :])
            return float(loss[0])

        _, grad = numkit.xent(logits[None, :], targets[None, :])
        fd = numkit.finite_diff_grad(f, logits)
        assert np.abs(grad[0] - fd).max() < 1e-6


class TestFusedSoftmaxOracle:
    """xent takes the softmax from the exponentials of its loss; for labels
    and for soft rows both outputs equal the separate computations bit for
    bit."""

    @pytest.mark.parametrize("n,C", [(1, 2), (17, 10), (200, 7)])
    def test_hard_labels(self, n, C):
        rng = np.random.default_rng(3)
        logits = 20.0 * rng.normal(size=(n, C))
        y = rng.integers(0, C, size=n)
        loss, grad = numkit.xent(logits, y)
        onehot = np.zeros((n, C))
        onehot[np.arange(n), y] = 1.0
        assert np.array_equal(grad, numkit.softmax(logits) - onehot)
        z = logits - logits.max(axis=1, keepdims=True)
        assert np.array_equal(
            loss, np.log(np.exp(z).sum(axis=1)) - z[np.arange(n), y])

    @pytest.mark.parametrize("n,C", [(1, 2), (17, 10), (200, 7)])
    def test_soft_targets(self, n, C):
        rng = np.random.default_rng(4)
        logits = 20.0 * rng.normal(size=(n, C))
        targets = rng.dirichlet(np.ones(C), size=n)
        loss, grad = numkit.xent(logits, targets)
        assert np.array_equal(grad, numkit.softmax(logits) - targets)
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        assert np.array_equal(loss, -(targets * logp).sum(axis=1))


class TestOptimizers:
    def test_plain_sgd(self):
        opt = numkit.SgdMomentum(lr=0.1)
        p = np.array([1.0])
        opt.step(p, np.array([2.0]))
        np.testing.assert_allclose(p, [0.8])

    def test_zero_grad_no_change(self):
        for opt in (numkit.SgdMomentum(0.1), numkit.Adam(0.1)):
            p = np.array([1.5, -2.0])
            opt.step(p, np.zeros(2))
            np.testing.assert_allclose(p, [1.5, -2.0])

    def test_adam_first_step_magnitude(self):
        # bias-corrected first step moves each coordinate by ~lr
        opt = numkit.Adam(lr=0.01)
        p = np.array([5.0])
        opt.step(p, np.array([3.7]))
        assert abs((5.0 - p[0]) - 0.01) < 1e-5
        assert opt.step_count == 1

    def test_momentum_accumulates(self):
        opt = numkit.SgdMomentum(lr=1.0, momentum=0.5)
        p = np.array([0.0])
        opt.step(p, np.array([1.0]))   # buffer 1, p=-1
        opt.step(p, np.array([1.0]))   # buffer 1.5, p=-2.5
        np.testing.assert_allclose(p, [-2.5])

    def test_weight_decay_adds_to_grad(self):
        opt = numkit.SgdMomentum(lr=0.1, weight_decay=0.5)
        p = np.array([2.0])
        opt.step(p, np.array([0.0]))
        np.testing.assert_allclose(p, [2.0 - 0.1 * 0.5 * 2.0])

    def test_deterministic(self, rng):
        g = rng.normal(size=9)
        results = []
        for _ in range(2):
            opt = numkit.Adam(lr=0.05)
            p = np.ones(9)
            for _ in range(5):
                opt.step(p, g.copy())
            results.append(p)
        np.testing.assert_array_equal(results[0], results[1])

    @pytest.mark.parametrize("make", [
        lambda: numkit.SgdMomentum(0.1, momentum=0.9, weight_decay=0.01),
        lambda: numkit.Adam(0.05, weight_decay=0.01)])
    def test_one_vector_step_matches_per_array_steps(self, rng, make):
        # every update is elementwise, so stepping the concatenation is
        # bit-identical to stepping each array on its own
        arrays = [rng.normal(size=(3, 2)), rng.normal(size=3)]
        grads = [[rng.normal(size=a.shape) for a in arrays] for _ in range(4)]
        flat, opt = numkit.flatten(arrays), make()
        parts = [(a.copy(), make()) for a in arrays]
        for gs in grads:
            opt.step(flat, numkit.flatten(gs))
            for (p, o), g in zip(parts, gs):
                o.step(p, g)
        assert np.array_equal(flat, numkit.flatten([p for p, _ in parts]))

    @pytest.mark.parametrize("wd", [0.0, 5e-4])
    def test_sgd_equals_out_of_place_update(self, rng, wd):
        # the in-place step rounds exactly like the expression, and never
        # writes the gradient it is given
        p = rng.normal(size=50)
        want, buf = p.copy(), np.zeros(50)
        opt = numkit.SgdMomentum(0.1, momentum=0.9, weight_decay=wd)
        for _ in range(4):
            g = rng.normal(size=50)
            g_in = g.copy()
            opt.step(p, g)
            buf = 0.9 * buf + (g + wd * want if wd else g)
            want = want - 0.1 * buf
            assert np.array_equal(p, want)
            assert np.array_equal(g, g_in)

    def test_adam_leaves_gradient_unwritten(self, rng):
        # training logs the hypergradient's norm after its Adam step
        p, g = rng.normal(size=20), rng.normal(size=20)
        g_in = g.copy()
        numkit.Adam(0.05, weight_decay=0.01).step(p, g)
        assert np.array_equal(g, g_in)

    @pytest.mark.parametrize("wd", [0.0, 5e-4])
    def test_sgd_step_holds_one_temporary(self, rng, wd):
        # g + wd * p is formed in one new array, which then takes
        # lr * buffer; fresh arrays for wd * p, the sum and lr * buffer
        # hold two at once
        p, g = rng.normal(size=100_000), rng.normal(size=100_000)
        opt = numkit.SgdMomentum(0.1, momentum=0.9, weight_decay=wd)
        opt.step(p, g)                  # allocates the momentum buffer
        tracemalloc.start()
        try:
            opt.step(p, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= p.nbytes + 4096

    def test_shape_mismatch_raises(self):
        for opt in (numkit.SgdMomentum(0.1), numkit.Adam(0.1)):
            with pytest.raises(ValueError, match="shape mismatch"):
                opt.step(np.zeros(3), np.zeros(2))


class TestFiniteDiff:
    def test_quadratic(self):
        fd = numkit.finite_diff_grad(lambda t: float(t[0] ** 2),
                                     np.array([3.0]), eps=1e-5)
        assert abs(fd[0] - 6.0) < 1e-8

    def test_constant(self):
        fd = numkit.finite_diff_grad(lambda t: 7.0, np.array([1.0, 2.0]))
        np.testing.assert_allclose(fd, np.zeros(2))

    def test_nonfinite_raises(self):
        with pytest.raises(FloatingPointError):
            numkit.finite_diff_grad(lambda t: float("inf"), np.array([0.0]))


class TestRng:
    def test_same_seed_same_stream(self):
        a = [r.normal(size=10) for r in numkit.spawn_rngs(42, 3)]
        b = [r.normal(size=10) for r in numkit.spawn_rngs(42, 3)]
        np.testing.assert_array_equal(a, b)

    def test_spawned_streams_differ(self):
        r1, r2 = numkit.spawn_rngs(42, 2)
        assert not np.array_equal(r1.normal(size=10), r2.normal(size=10))


class TestFlatten:
    def test_round_trip(self, rng):
        arrays = [rng.normal(size=(2, 3)), rng.normal(size=4)]
        flat = numkit.flatten(arrays)
        back = numkit.views(flat, [a.shape for a in arrays])
        for a, b in zip(arrays, back):
            np.testing.assert_array_equal(a, b)

    def test_views_alias_the_vector(self):
        flat = np.zeros(10)
        W, b = numkit.views(flat, [(2, 3), (4,)])
        W[1, 2] = 1.0
        flat[6:] = 2.0
        assert flat[5] == 1.0 and np.array_equal(b, np.full(4, 2.0))

    def test_views_must_cover_the_vector(self):
        with pytest.raises(ValueError, match="parameter count 6"):
            numkit.views(np.zeros(7), [(2, 3)])
