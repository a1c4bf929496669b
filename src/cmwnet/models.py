"""The two fixed architectures and their hand-derived gradients.

Classifier: softmax MLP f(x; w) with ReLU hidden layers and one forward
pass, forward_cached, which whole-dataset passes run ROWS rows at a time.
Weighting net: shared 1 -> H ReLU hidden layer feeding K sigmoid heads;
each sample receives the weight of its task family's head.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import numkit
from .numkit import (CorruptArtifact, array_shape, flatten, read_arrays,
                     sigmoid, softmax, write_arrays, xent)

# the weighting net reads each loss as min(loss, LOSS_CLAMP) / LOSS_SCALE
LOSS_CLAMP = 50.0
LOSS_SCALE = 1.0
# whole-dataset passes run this many rows at a time, so their temporaries
# are (ROWS x width) rather than (n x width)
ROWS = 256


def _row_blocks(fn, *arrays) -> np.ndarray:
    """fn over aligned ROWS-row slices of the arrays, concatenated. There is
    at least one slice, and at most ROWS rows are one: fn(*arrays) itself."""
    parts = [fn(*(a[i:i + ROWS] for a in arrays))
             for i in range(0, max(arrays[0].shape[0], 1), ROWS)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _fan_in_uniform(rng: np.random.Generator, out: np.ndarray,
                    fan_in: int) -> None:
    """Fill `out` in place with U(-1/sqrt(fan_in), 1/sqrt(fan_in)) draws."""
    bound = 1.0 / np.sqrt(fan_in)
    out[...] = rng.uniform(-bound, bound, size=out.shape)


def layer_views(sizes: list[int], flat: np.ndarray):
    """(weights, biases): per-layer views of a classifier-shaped vector,
    every weight matrix first, then every bias."""
    pairs = list(zip(sizes[:-1], sizes[1:]))
    arrays = numkit.views(flat, pairs + [(d_out,) for _, d_out in pairs])
    return arrays[:len(pairs)], arrays[len(pairs):]


def summed_grad(acts, deltas, w=None) -> np.ndarray:
    """Sum over rows j of w_j (1 if w is None) times outer(acts[l][j],
    deltas[l][j]) for W_l and deltas[l][j] for b_l, laid out like
    Classifier.flat: each layer's product is written into its own slot."""
    sizes = [acts[0].shape[1]] + [d.shape[1] for d in deltas]
    grad = np.empty(sum((i + 1) * o for i, o in zip(sizes, sizes[1:])))
    for a, d, gw, gb in zip(acts, deltas, *layer_views(sizes, grad)):
        np.matmul(a.T, d if w is None else w[:, None] * d, out=gw)
        if w is None:
            d.sum(axis=0, out=gb)
        else:
            np.matmul(w, d, out=gb)
    return grad


class Classifier:
    """MLP over float64 arrays. Its parameters are one vector, self.flat;
    self.weights and self.biases are views into it."""

    def __init__(self, sizes: list[int], flat: np.ndarray):
        self.sizes = list(sizes)
        self.flat = flat
        self.weights, self.biases = layer_views(self.sizes, flat)

    @classmethod
    def init(cls, sizes: list[int], rng: np.random.Generator) -> "Classifier":
        clf = cls(sizes, np.empty(sum((d_in + 1) * d_out for d_in, d_out
                                      in zip(sizes[:-1], sizes[1:]))))
        for W, b in zip(clf.weights, clf.biases):
            _fan_in_uniform(rng, W, W.shape[0])
            _fan_in_uniform(rng, b, W.shape[0])
        return clf

    # -- forward / backward ------------------------------------------------

    def _check_dim(self, x: np.ndarray) -> None:
        if x.shape[1] != self.sizes[0]:
            raise ValueError(f"feature dim {x.shape[1]} != {self.sizes[0]}")

    def forward_cached(self, x: np.ndarray) -> list[np.ndarray]:
        """Forward pass keeping every layer: acts[l] is the input of layer l
        (acts[-1] the logits); hidden layers are rectified in place."""
        self._check_dim(x)
        acts = [x]
        for li, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ W
            z += b
            if li < len(self.weights) - 1:
                np.maximum(z, 0.0, out=z)
            acts.append(z)
        return acts

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities, rows summing to 1, ROWS rows at a time."""
        return _row_blocks(lambda xb: softmax(self.forward_cached(xb)[-1]), x)

    def losses(self, x: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per-sample CE losses, ROWS rows at a time; targets are labels or
        soft rows."""
        return _row_blocks(
            lambda xb, tb: xent(self.forward_cached(xb)[-1], tb)[0],
            x, targets)

    def backward(self, acts, dlogits) -> list[np.ndarray]:
        """Batched backward from per-row logit gradients, reading the hidden
        activations acts[1:L]: deltas[l][j] is d(row j's loss)/d(its layer-l
        pre-activation). Linear in dlogits for fixed acts."""
        deltas = [None] * len(self.weights)
        delta = dlogits
        for li in range(len(self.weights) - 1, -1, -1):
            deltas[li] = delta
            if li > 0:
                # ReLU derivative, taken as 0 at 0: relu(z) > 0 iff z > 0
                delta = delta @ self.weights[li].T
                delta *= acts[li] > 0
        return deltas

    def mean_grad(self, x: np.ndarray, targets: np.ndarray):
        """(mean loss, its gradient laid out like self.flat)."""
        acts = self.forward_cached(x)
        loss, dlogits = xent(acts[-1], targets)
        dlogits /= x.shape[0]
        deltas = self.backward(acts, dlogits)
        return loss.mean(), summed_grad(acts, deltas)

    def factors(self, x: np.ndarray, targets: np.ndarray):
        """(per-sample losses [n], layer inputs, layer deltas) of one forward
        and one backward pass. Sample j's gradient is
        outer(acts[l][j], deltas[l][j]) for W_l and deltas[l][j] for b_l."""
        acts = self.forward_cached(x)
        loss, dlogits = xent(acts[-1], targets)
        return loss, acts[:-1], self.backward(acts, dlogits)

    def per_sample_grads(self, x: np.ndarray, targets: np.ndarray):
        """(per-sample losses [n], per-sample flat gradients [n x P]).

        Row j is the gradient of sample j's own loss w.r.t. all parameters,
        laid out like self.flat. Training never forms this matrix;
        the tests use it as the oracle for the factored step.
        """
        loss, acts, deltas = self.factors(x, targets)
        n = x.shape[0]
        parts_w = [np.einsum("ni,nj->nij", a, d).reshape(n, -1)
                   for a, d in zip(acts, deltas)]
        return loss, np.concatenate(parts_w + deltas, axis=1)


# ---------------------------------------------------------------------------
# weighting net


class WeightNet:
    """Loss -> per-family weight net: shared hidden layer, K sigmoid heads.
    Its parameters Theta are one vector, self.flat; W1 (1 x H), b1 (H,),
    W2 (H x K) and b2 (K,) are views into it, in that order."""

    def __init__(self, hidden: int, K: int, flat: np.ndarray):
        self.hidden, self.K = hidden, K
        self.flat = flat
        self.W1, self.b1, self.W2, self.b2 = numkit.views(
            flat, [(1, hidden), (hidden,), (hidden, K), (K,)])

    @classmethod
    def init(cls, K: int, rng: np.random.Generator,
             hidden: int) -> "WeightNet":
        if K < 1:
            raise ValueError("K must be >= 1")
        wnet = cls(hidden, K, np.empty((2 + K) * hidden + K))
        _fan_in_uniform(rng, wnet.W1, 1)
        _fan_in_uniform(rng, wnet.b1, 1)
        _fan_in_uniform(rng, wnet.W2, hidden)
        wnet.b2[...] = 0.0  # heads start near 0.5
        return wnet

    def get_flat(self) -> np.ndarray:
        return self.flat.copy()

    def set_flat(self, vec: np.ndarray) -> None:
        if np.shape(vec) != self.flat.shape:
            raise ValueError(f"flat vector shape {np.shape(vec)} != "
                             f"{self.flat.shape}")
        self.flat[...] = vec

    def copy(self) -> "WeightNet":
        return WeightNet(self.hidden, self.K, self.flat.copy())

    def _gated(self, losses: np.ndarray, fam: np.ndarray):
        """The net's one forward pass, through each sample's own head:
        (net inputs, fam, h, W2[:, fam], v), v_j = head[fam_j](loss_j)."""
        ell = np.atleast_1d(np.asarray(losses, dtype=np.float64))
        if not np.all(np.isfinite(ell)):
            raise FloatingPointError("non-finite loss input to weight net")
        ell = np.minimum(ell, LOSS_CLAMP) / LOSS_SCALE
        fam = np.atleast_1d(np.asarray(fam))
        h = ell[:, None] * self.W1                      # (n, H)
        h += self.b1
        np.maximum(h, 0.0, out=h)
        w2 = self.W2[:, fam]                            # (H, n)
        z2 = np.einsum("nh,hn->n", h, w2) + self.b2[fam]
        return ell, fam, h, w2, sigmoid(z2)

    def weight_and_grad(self, losses: np.ndarray, fam: np.ndarray):
        """Per-sample gated weight v_j = head[fam_j](loss_j) and dv_j/dTheta.

        Returns (v [n], dv [n x PTheta]) with dv rows laid out like self.flat.
        """
        ell, fam, h, w2, v = self._gated(losses, fam)
        n = ell.shape[0]
        H, K = self.hidden, self.K
        # backward for the selected head only: in the W2 (H x K) and b2
        # blocks of row j only column fam_j is nonzero
        dz2 = v * (1.0 - v)                             # (n,)
        rows = np.arange(n)
        dv = np.zeros((n, self.flat.size))
        dz1 = dv[:, H:2 * H]                            # b1, (n, H)
        np.multiply(dz2[:, None], w2.T, out=dz1)
        dz1 *= h > 0                                    # before h is scaled
        np.multiply(dz1, ell[:, None], out=dv[:, :H])   # W1 (1 x H)
        h *= dz2[:, None]
        # a view of the W2 block, so the indexed write lands in dv
        dv[:, 2 * H:2 * H + H * K].reshape(n, H, K)[rows, :, fam] = h
        dv[rows, 2 * H + H * K + fam] = dz2
        return v, dv

    def weight(self, losses: np.ndarray, fam: np.ndarray) -> np.ndarray:
        """The v of weight_and_grad, without forming dv, ROWS rows at a
        time. Each row's weight depends only on that row, so the result is
        bit-identical to one pass over all rows."""
        return _row_blocks(lambda lb, fb: self._gated(lb, fb)[-1],
                           np.atleast_1d(np.asarray(losses, dtype=np.float64)),
                           np.atleast_1d(np.asarray(fam)))


# ---------------------------------------------------------------------------
# checkpoint: named float64 arrays whose shapes give the architecture


def save_checkpoint(path, clf: Classifier, wnet: WeightNet | None = None,
                    centers: np.ndarray | None = None) -> None:
    """The classifier's layers, the weighting net and the family centers as
    one file of named arrays."""
    arrays = {f"clf_W_{i}": w for i, w in enumerate(clf.weights)}
    arrays.update({f"clf_b_{i}": b for i, b in enumerate(clf.biases)})
    if wnet is not None:
        arrays.update(wn_W1=wnet.W1, wn_b1=wnet.b1, wn_W2=wnet.W2,
                      wn_b2=wnet.b2)
    if centers is not None:
        arrays["centers"] = centers
    write_arrays(path, arrays)


@dataclass
class Checkpoint:
    classifier: Classifier
    weightnet: WeightNet | None
    centers: np.ndarray | None


def load_checkpoint(path) -> Checkpoint:
    """Rebuild the models from the array shapes: the classifier has one layer
    per clf_W_i array, and a weighting net is present iff wn_W2 is."""
    arrays = read_arrays(path)
    shape = functools.partial(array_shape, path, arrays)
    n_layers = max(1, sum(name.startswith("clf_W_") for name in arrays))
    sizes = [shape("clf_W_0", (None, None))[0]]
    for i in range(n_layers):
        sizes.append(shape(f"clf_W_{i}", (sizes[i], None))[1])
        shape(f"clf_b_{i}", (sizes[-1],))
    clf = Classifier(sizes, flatten(
        [arrays[f"clf_{kind}_{i}"] for kind in "Wb" for i in range(n_layers)]))
    wnet = centers = None
    if "wn_W2" in arrays:
        H, K = shape("wn_W2", (None, None))
        if H < 1 or K < 1:  # the floors of model.H and model.K
            raise CorruptArtifact(f"{path}: array wn_W2 has shape {(H, K)}, "
                                  f"expected at least one unit and one head")
        for name, want in (("wn_W1", (1, H)), ("wn_b1", (H,)), ("wn_b2", (K,))):
            shape(name, want)
        wnet = WeightNet(H, K, flatten([arrays[name] for name in
                                        ("wn_W1", "wn_b1", "wn_W2", "wn_b2")]))
    if "centers" in arrays:
        shape("centers", (None,))
        centers = arrays["centers"]
    return Checkpoint(clf, wnet, centers)
