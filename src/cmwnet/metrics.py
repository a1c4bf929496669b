"""Evaluation reports and figure-data emission (CSV, not rendered plots)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .biasgen import Dataset
from .models import Classifier, WeightNet
from .numkit import write_csv

# the losses at which weight_curve.csv samples every head
LOSS_GRID = np.linspace(0.0, 10.0, 101)
HIST_BINS = 50   # equal-width loss bins of histogram.csv


@dataclass
class MetricsReport:
    accuracy: float
    per_class_accuracy: np.ndarray
    confusion: np.ndarray        # (C, C), rows = true class


def evaluate(clf: Classifier, ds: Dataset) -> MetricsReport:
    """Argmax predictions scored against the clean labels."""
    if ds.n == 0:
        raise ValueError("empty test set")
    pred = np.argmax(clf.forward(ds.features), axis=1)
    C = ds.C
    confusion = np.bincount(ds.clean_labels * C + pred,
                            minlength=C * C).reshape(C, C)
    correct = confusion.trace()
    class_counts = confusion.sum(axis=1)
    per_class = np.divide(np.diag(confusion), class_counts,
                          out=np.zeros(C), where=class_counts > 0)
    return MetricsReport(accuracy=correct / ds.n,
                         per_class_accuracy=per_class, confusion=confusion)


def weight_curve(wnet: WeightNet, loss_grid: np.ndarray) -> np.ndarray:
    """Head outputs over a loss grid; row k is family k's weighting curve,
    the weights that training gives family-k samples at those losses."""
    grid = np.asarray(loss_grid, dtype=np.float64)
    if grid.size and (np.any(np.diff(grid) < 0) or grid[0] < 0):
        raise ValueError("loss grid must be ascending and nonnegative")
    K, G = wnet.K, grid.size
    return wnet.weight(np.tile(grid, K),
                       np.repeat(np.arange(K), G)).reshape(K, G)


def loss_histogram(ds: Dataset, losses: np.ndarray):
    """Per-class histograms of the samples' losses (one per row of ds),
    split into clean and noisy samples.

    Returns (edges [HIST_BINS+1], clean_counts [C x HIST_BINS],
    noisy_counts [C x HIST_BINS]).
    """
    edges = np.linspace(0.0, max(float(losses.max()), 1e-12), HIST_BINS + 1)
    clean_counts = np.zeros((ds.C, HIST_BINS), dtype=np.int64)
    noisy_counts = np.zeros((ds.C, HIST_BINS), dtype=np.int64)
    noisy = ds.noisy_mask()
    for c in range(ds.C):
        sel = ds.observed_labels == c
        clean_counts[c] = np.histogram(losses[sel & ~noisy], bins=edges)[0]
        noisy_counts[c] = np.histogram(losses[sel & noisy], bins=edges)[0]
    return edges, clean_counts, noisy_counts


# ---------------------------------------------------------------------------
# CSV emission


def write_weight_curve_csv(path, wnet: WeightNet) -> None:
    write_csv(path, ["loss"] + [f"family_{k}" for k in range(wnet.K)],
              np.c_[LOSS_GRID, weight_curve(wnet, LOSS_GRID).T], "%.10g")


def write_histogram_csv(path, ds: Dataset, losses: np.ndarray) -> None:
    edges, clean, noisy = loss_histogram(ds, losses)
    bins = np.tile(np.c_[edges[:-1], edges[1:]], (ds.C, 1))  # class-major
    write_csv(path, ["class", "bin_lo", "bin_hi", "clean_count", "noisy_count"],
              np.c_[np.arange(ds.C).repeat(HIST_BINS), bins, clean.ravel(),
                    noisy.ravel()], "%d,%.10g,%.10g,%d,%d")


def write_confusion_csv(path, report: MetricsReport) -> None:
    write_csv(path, [f"pred_{c}" for c in range(report.confusion.shape[0])],
              report.confusion, "%d")
