"""Dense float64 numeric primitives.

The logistic function and one softmax cross-entropy (int labels become
one-hot target rows) with hand-derived gradients, first-order optimizers,
seeded RNG construction, the named-float64-array file that holds every
binary artifact (and the error for a corrupt one), the writer of every CSV
table, and the central finite-difference oracle used by the test suite. No
autodiff anywhere: every backward pass in this package is written out
explicitly.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """n independent deterministic child generators derived from one seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


# ---------------------------------------------------------------------------
# the logistic function


def sigmoid(x):
    """The logistic function, from exp(-|x|), which never overflows."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


# ---------------------------------------------------------------------------
# softmax cross-entropy


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with log-sum-exp stabilization."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def onehot(labels: np.ndarray, C: int) -> np.ndarray:
    """One-hot rows of int labels; IndexError for a label outside [0, C)."""
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= C:
        raise IndexError(f"label out of range [0, {C})")
    out = np.zeros((labels.size, C))
    out[np.arange(labels.size), labels] = 1.0
    return out


def xent(logits: np.ndarray, targets: np.ndarray):
    """Per-sample CE loss and its logit gradient against target rows t (int
    labels become one-hot rows). Per row, with z = logits - max(logits),
    e = exp(z) and s = sum(e): loss = t . (log s - z), grad = e / s - t."""
    if targets.ndim == 1:
        targets = onehot(targets, logits.shape[1])
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=1, keepdims=True)
    loss = (targets * (np.log(s) - z)).sum(axis=1)
    return loss, e / s - targets


# ---------------------------------------------------------------------------
# optimizers (operate in place on one parameter vector)

# Adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _decayed(p: np.ndarray, g: np.ndarray, weight_decay: float) -> np.ndarray:
    """g + weight_decay * p in one new array; g itself without decay."""
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {g.shape}")
    if not weight_decay:
        return g
    d = np.multiply(weight_decay, p)
    d += g
    return d


class SgdMomentum:
    """SGD with classical momentum and optional L2; each step takes a rate."""

    def __init__(self, momentum: float = 0.0, weight_decay: float = 0.0):
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.buffer: np.ndarray | None = None

    def step(self, p: np.ndarray, g: np.ndarray, lr: float) -> None:
        d = _decayed(p, g, self.weight_decay)
        if self.buffer is None:
            self.buffer = np.zeros_like(p)
        self.buffer *= self.momentum
        self.buffer += d
        # one temporary: the decayed gradient's, reused for lr * buffer
        p -= np.multiply(lr, self.buffer, out=None if d is g else d)


class Adam:
    """Adam with bias correction and weight decay; each step takes a rate."""

    def __init__(self, weight_decay: float = 0.0):
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, p: np.ndarray, g: np.ndarray, lr: float) -> None:
        d = _decayed(p, g, self.weight_decay)
        if self.m is None:
            self.m, self.v = np.zeros_like(p), np.zeros_like(p)
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.step_count
        bc2 = 1.0 - ADAM_BETA2 ** self.step_count
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * d
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * d * d
        p -= lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# parameter views, the array file, CSV tables and the finite-difference oracle


def flatten(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays])


def views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive slices of `flat` in the given shapes, which must
    cover it exactly: a write to a view is a write to `flat`."""
    out, i = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(flat[i:i + size].reshape(shape))
        i += size
    if i != flat.size:
        raise ValueError(f"flat vector length {flat.size} != parameter "
                         f"count {i}")
    return out


class CorruptArtifact(ValueError):
    """An artifact file that is truncated or not in its expected format."""


def read_exact(fh, size: int, path) -> bytes:
    """Read exactly `size` bytes from a binary file; CorruptArtifact if it
    ends first. The size is checked before reading, so a corrupt length
    field cannot request a huge buffer."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if not 0 <= size <= left:
        raise CorruptArtifact(f"{path}: truncated file (needs {size} more "
                              f"bytes, has {left})")
    return fh.read(size)


# array file: magic, version, count, then per array its name, its shape
# and its float64 data in C order (little-endian throughout)
_MAGIC = b"CMWC"
_VERSION = 2


def write_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype="<f8", order="C")
            nb = name.encode()
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr)  # its buffer, in C order, with no copy


def read_arrays(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise CorruptArtifact(f"{path}: not a cmwnet array file")
        version, count = struct.unpack("<II", read_exact(fh, 8, path))
        if version != _VERSION:
            raise CorruptArtifact(
                f"{path}: unsupported array file version {version} "
                f"(expected {_VERSION})")
        out = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<I", read_exact(fh, 4, path))
            try:
                name = read_exact(fh, nlen, path).decode()
            except UnicodeDecodeError as e:
                raise CorruptArtifact(f"{path}: bad array name ({e})") from e
            (ndim,) = struct.unpack("<I", read_exact(fh, 4, path))
            shape = struct.unpack(f"<{ndim}Q", read_exact(fh, 8 * ndim, path))
            size = math.prod(shape)  # a Python int, which cannot wrap
            data = np.frombuffer(read_exact(fh, 8 * size, path), dtype="<f8")
            if not np.isfinite(data).all():
                raise CorruptArtifact(f"{path}: array {name} holds a "
                                      f"non-finite value")
            out[name] = data.reshape(shape).copy()
        return out


def array_shape(path, arrays: dict, name: str, want: tuple) -> tuple:
    """The shape of arrays[name], read from `path`, which must match `want`
    (None: any length); CorruptArtifact naming the array if not."""
    got = arrays[name].shape if name in arrays else None
    if got is None or len(got) != len(want) or any(
            w not in (None, g) for w, g in zip(want, got)):
        found = "is missing" if got is None else f"has shape {got}"
        raise CorruptArtifact(f"{path}: array {name} {found}, "
                              f"expected shape {want}")
    return got


def write_csv(path, header: list[str], table, fmt) -> None:
    """Comma-separated, \\n line ends: the header, then `table` in `fmt`."""
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, table, fmt, ",", header=",".join(header), comments="")


def finite_diff_grad(f, theta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient estimate of scalar f at theta."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += eps
        tm[i] -= eps
        fp = f(tp)
        fm = f(tm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(f"non-finite function value at coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * eps)
    return grad
