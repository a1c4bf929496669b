"""Synthetic biased-dataset generation.

Gaussian-mixture classification data with an exact posterior oracle, plus
the bias injectors: exponential long-tail subsampling, symmetric and
asymmetric label noise and posterior-margin-driven feature-dependent noise
(three flip-probability profiles). Combinations are chains of BiasSpecs,
applied in order. Injectors only ever touch the observed labels; features
and hidden clean labels are preserved.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numkit import (CorruptArtifact, array_shape, read_arrays, softmax,
                     write_arrays, write_csv)


@dataclass
class GaussianMixtureSpec:
    means: np.ndarray          # (C, d)
    sigma: float               # shared isotropic std; equal class priors

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def C(self) -> int:
        return self.means.shape[0]


def posterior(x: np.ndarray, spec: GaussianMixtureSpec) -> np.ndarray:
    """Exact Bayes posterior rows for x (n, d) -> (n, C); rows sum to 1.

    Computed in log space from the isotropic Gaussian class conditionals,
    so near-saturated points stay finite; the priors and the per-row |x|^2
    term are equal across classes, so they cancel in the normalization.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    # -|x - mu|^2 / 2 sigma^2 without its per-row |x|^2, which the max cancels
    logp = x @ spec.means.T
    logp -= 0.5 * (spec.means ** 2).sum(axis=1)
    logp /= np.square(spec.sigma)  # inf, not OverflowError, past 1.3e154
    return softmax(logp)


@dataclass
class Dataset:
    features: np.ndarray              # (n, d)
    observed_labels: np.ndarray       # (n,) int64
    clean_labels: np.ndarray          # (n,) int64, never read by training
    C: int
    mixture: GaussianMixtureSpec | None = None

    def __post_init__(self):
        for name in ("observed_labels", "clean_labels"):
            labels = np.asarray(getattr(self, name))
            if labels.min(initial=0) < 0 or labels.max(initial=0) >= self.C:
                raise ValueError(f"{name[:-1].replace('_', ' ')} out of range")
            setattr(self, name, labels.astype(np.int64, copy=False))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> np.ndarray:
        """Observed per-class sizes (these gate the task families)."""
        return np.bincount(self.observed_labels, minlength=self.C)

    def noisy_mask(self) -> np.ndarray:
        return self.observed_labels != self.clean_labels

    def copy(self) -> "Dataset":
        return Dataset(self.features.copy(), self.observed_labels.copy(),
                       self.clean_labels.copy(), self.C, self.mixture)


# ---------------------------------------------------------------------------
# generation


def _class_means(C: int, d: int, separation: float) -> np.ndarray:
    """Class means with pairwise (simplex, if d >= C-1) or adjacent (circle)
    distance equal to `separation`."""
    if d >= C - 1 and C >= 2:
        # regular simplex: orthonormal corners shifted to zero mean
        eye = np.eye(C)
        simplex = eye - eye.mean(axis=0)
        simplex *= separation / np.sqrt(2.0)  # corner distance of eye is sqrt(2)
        basis = np.linalg.svd(simplex, full_matrices=False)[2][: C - 1]
        means = np.zeros((C, d))
        means[:, : C - 1] = simplex @ basis.T
        return means
    # circle in the first two coordinates, adjacent chord = separation
    radius = separation / (2.0 * np.sin(np.pi / C))
    ang = 2.0 * np.pi * np.arange(C) / C
    means = np.zeros((C, d))
    means[:, 0] = radius * np.cos(ang)
    means[:, 1] = radius * np.sin(ang)
    return means


def make_gaussian_classes(C: int, d: int, n_per_class: int, separation: float,
                          sigma: float, seed: int) -> Dataset:
    """Balanced mixture draw with the posterior oracle attached."""
    if C < 2 or d < min(C - 1, 2) or n_per_class < 1:
        raise ValueError("need C >= 2, d >= min(C - 1, 2), n_per_class >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    spec = GaussianMixtureSpec(_class_means(C, d, separation), sigma)
    labels = np.repeat(np.arange(C), n_per_class)
    # one n x d array: each class mean is added in place to its block of rows
    x = rng.normal(scale=sigma, size=(C, n_per_class, d))
    x += spec.means[:, None, :]
    if not np.isfinite(x).all():
        raise ValueError("the mixture draw holds a non-finite feature")
    return Dataset(x.reshape(-1, d), labels.copy(), labels.copy(), C, spec)


# ---------------------------------------------------------------------------
# long tail


def apply_longtail(ds: Dataset, factor: float, seed: int) -> Dataset:
    """Keep ceil(n_0 * mu^i) samples of class i, mu = factor^(-1/(C-1))."""
    if factor < 1:
        raise ValueError("imbalance factor must be >= 1")
    counts = ds.class_counts()
    if counts.min() != counts.max():
        raise ValueError("long-tail subsampling expects a balanced dataset")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n0 = counts[0]
    mu = factor ** (-1.0 / (ds.C - 1))
    keep_idx = []
    for c in range(ds.C):
        members = np.where(ds.observed_labels == c)[0]
        # epsilon guard: exact geometric values must not ceil one step up
        keep = int(np.ceil(n0 * mu ** c - 1e-9))
        keep_idx.append(rng.choice(members, size=keep, replace=False))
    idx = np.sort(np.concatenate(keep_idx))
    return Dataset(ds.features[idx], ds.observed_labels[idx],
                   ds.clean_labels[idx], ds.C, ds.mixture)


# ---------------------------------------------------------------------------
# feature-independent noise


def inject_symmetric(ds: Dataset, rate: float, seed: int) -> Dataset:
    """Resample labels of a uniform rate-fraction over all C classes; the
    replacement may coincide with the current label."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    out = ds.copy()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_flip = int(round(rate * ds.n))
    chosen = rng.choice(ds.n, size=n_flip, replace=False)
    out.observed_labels[chosen] = rng.integers(0, ds.C, size=n_flip)
    return out


def nearest_class_mapping(spec: GaussianMixtureSpec) -> dict[int, int]:
    """Each class -> class with the nearest mean (ties -> lower index)."""
    C = spec.C
    mapping = {}
    for c in range(C):
        d2 = ((spec.means - spec.means[c]) ** 2).sum(axis=1)
        d2[c] = np.inf
        mapping[c] = int(np.argmin(d2))
    return mapping


def inject_asymmetric(ds: Dataset, rate: float, seed: int) -> Dataset:
    """Flip a rate-fraction of each class to the class with the nearest mean."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    if ds.mixture is None:
        raise ValueError("asymmetric noise needs the mixture's class means")
    mapping = nearest_class_mapping(ds.mixture)
    out = ds.copy()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for c in range(ds.C):
        members = np.where(ds.observed_labels == c)[0]
        n_flip = int(round(rate * members.size))
        chosen = rng.choice(members, size=n_flip, replace=False)
        out.observed_labels[chosen] = mapping[c]
    return out


# ---------------------------------------------------------------------------
# feature-dependent (posterior-margin) noise


def _margin_tau(delta: np.ndarray, noise_type: int) -> np.ndarray:
    """Raw flip probability from the top-two posterior margin delta in [0,1]."""
    if noise_type == 1:
        return 0.5 - 0.5 * delta ** 2
    if noise_type == 2:
        return 1.0 - delta ** 3
    if noise_type == 3:
        return 1.0 - (delta ** 3 + delta ** 2 + delta) / 3.0
    raise ValueError("noise_type must be 1, 2 or 3")


def inject_pmd(ds: Dataset, noise_type: int, level: float, seed: int) -> Dataset:
    """Flip top-posterior label to the runner-up with margin-shaped probability.

    Raw probabilities are scaled by one constant, solved exactly, so the
    mean flip probability over the dataset equals `level`; per-sample
    probabilities are clamped to [0, 1]. Samples whose clean label is not the
    top posterior class are left untouched.
    """
    if ds.mixture is None:
        raise ValueError("feature-dependent noise needs the posterior oracle")
    if not 0.0 <= level <= 1.0:
        raise ValueError("level must be in [0, 1]")
    out = ds.copy()
    eta = posterior(ds.features, ds.mixture)
    order = np.argsort(eta, axis=1)
    u = order[:, -1]
    s = order[:, -2]
    delta = eta[np.arange(ds.n), u] - eta[np.arange(ds.n), s]
    eligible = ds.clean_labels == u
    tau = _margin_tau(delta, noise_type) * eligible
    # t: positive tau, descending. With t[:k] saturated, c_k = (n * level - k)
    # / sum(t[k:]) meets the mean; the least k with c_k * t[k] < 1 is exact.
    t = np.sort(tau[tau > 0])[::-1]
    c = (ds.n * level - np.arange(t.size)) / np.cumsum(t[::-1])[::-1]
    unsaturated = np.flatnonzero(c * t < 1.0)
    if unsaturated.size:
        prob = np.minimum(c[unsaturated[0]] * tau, 1.0)
    else:  # every sample with tau > 0 flips with probability 1
        if t.size / ds.n < level - 1e-12:
            warnings.warn(
                f"requested flip rate {level} infeasible; achievable mean is "
                f"{t.size / ds.n:.4f}, proceeding with saturated probabilities")
        prob = (tau > 0).astype(float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    flip = rng.random(ds.n) < prob
    out.observed_labels[flip] = s[flip]
    return out


# ---------------------------------------------------------------------------
# declarative bias chain

_BIAS_KINDS = ("longtail", "symmetric", "asymmetric", "pmd1", "pmd2", "pmd3")


@dataclass
class BiasSpec:
    kind: str
    level: float = 0.0
    imbalance_factor: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _BIAS_KINDS:
            raise ValueError(f"unknown bias kind {self.kind!r}")
        # longtail reads only imbalance_factor, the noise kinds only level
        ignored = "level" if self.kind == "longtail" else "imbalance_factor"
        if getattr(self, ignored) != getattr(BiasSpec, ignored):
            raise ValueError(f"kind {self.kind!r} does not read {ignored}, "
                             f"got {getattr(self, ignored)}")
        if not 0.0 <= self.level <= 1.0:
            raise ValueError("level must be in [0, 1]")
        if self.imbalance_factor < 1.0:
            raise ValueError("imbalance_factor must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def apply(self, ds: Dataset) -> Dataset:
        if self.kind == "longtail":
            return apply_longtail(ds, self.imbalance_factor, self.seed)
        if self.kind == "symmetric":
            return inject_symmetric(ds, self.level, self.seed)
        if self.kind == "asymmetric":
            return inject_asymmetric(ds, self.level, self.seed)
        return inject_pmd(ds, int(self.kind[-1]), self.level, self.seed)


# ---------------------------------------------------------------------------
# files


def save_dataset(path, ds: Dataset) -> None:
    """The features, both label vectors and a 0-d class count as named
    float64 arrays (exact for labels below 2**53)."""
    write_arrays(path, {"features": ds.features, "observed": ds.observed_labels,
                        "clean": ds.clean_labels, "C": np.float64(ds.C)})


def load_dataset(path) -> Dataset:
    arrays = read_arrays(path)
    shape = functools.partial(array_shape, path, arrays)
    n, _ = shape("features", (None, None))
    shape("observed", (n,))
    shape("clean", (n,))
    shape("C", ())
    if n == 0:
        raise CorruptArtifact(f"{path}: empty dataset")
    ints = np.concatenate([arrays["observed"], arrays["clean"],
                           arrays["C"].ravel()])
    if not np.all(ints == np.round(ints)):
        raise CorruptArtifact(f"{path}: labels or class count not whole numbers")
    try:  # labels out of range
        return Dataset(arrays["features"], arrays["observed"], arrays["clean"],
                       int(arrays["C"]))
    except ValueError as e:
        raise CorruptArtifact(f"{path}: {e}") from e


def export_csv(path, ds: Dataset) -> None:
    """One row per sample: features..., observed, clean."""
    write_csv(path, [f"x{i}" for i in range(ds.d)] + ["observed", "clean"],
              np.c_[ds.features, ds.observed_labels, ds.clean_labels],
              ["%.17g"] * ds.d + ["%d", "%d"])
