"""Span tracer that wraps cmwnet's public functions from outside the package.

Each wrapper is installed at the name its caller resolves at call time:
module attributes for functions called through their module, the importing
module's binding for names imported with ``from ... import``, and the class
for methods. Spans stay in memory (id, parent, op, name, start, end,
counts) until the benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

from cmwnet import biasgen, cli, metaloop, metrics, models, numkit

SPAN_FIELDS = ("id", "parent", "op", "name", "start", "end", "counts")

# The CSV writers of metrics.py, summed into metrics.write.s.
METRICS_WRITERS = ("metrics.write_confusion_csv",
                   "metrics.write_weight_curve_csv",
                   "metrics.write_histogram_csv")
# Writers of run artifacts; their spans under cli.run make cli.artifacts.s.
ARTIFACT_WRITERS = ("config.save_config", "biasgen.save_dataset",
                    "metaloop.MetricLogger.write_csv",
                    "models.save_checkpoint") + METRICS_WRITERS


def _per_sample_grads_counts(tracer, args, out):
    _, g = out
    return {"rows": g.shape[0], "bytes": g.shape[0] * g.shape[1] * 8}


def _losses_counts(tracer, args, out):
    return {"rows": args[1].shape[0]}


def _weight_and_grad_counts(tracer, args, out):
    # dv rows are consumed by hypergrad only when computed in virtual_step
    return {"dv_bytes": out[1].nbytes,
            "dv_used": int(tracer.within("metaloop.virtual_step"))}


def _save_dataset_counts(tracer, args, out):
    return {"bytes": os.path.getsize(args[0])}


# (span name, owner whose attribute the caller resolves, attribute, counts)
PATCH_POINTS = [
    ("cli.run", cli, "run", None),
    ("config.build_train_dataset", cli, "build_train_dataset", None),
    ("config.build_test_dataset", cli, "build_test_dataset", None),
    ("config.save_config", cli, "save_config", None),
    ("biasgen.save_dataset", biasgen, "save_dataset", _save_dataset_counts),
    ("models.save_checkpoint", models, "save_checkpoint", None),
    ("models.load_checkpoint", models, "load_checkpoint", None),
    ("metaloop.meta_train", metaloop, "meta_train", None),
    ("metaloop.meta_test", metaloop, "meta_test", None),
    ("taskfam.kmeans_1d", metaloop, "kmeans_1d", None),
    ("metaloop.build_meta_set", metaloop, "build_meta_set", None),
    ("metaloop.virtual_step", metaloop, "virtual_step", None),
    ("metaloop.hypergrad", metaloop, "hypergrad", None),
    ("metaloop.meta_update", metaloop, "meta_update", None),
    ("metaloop.classifier_update", metaloop, "classifier_update", None),
    ("metaloop.erm_update", metaloop, "erm_update", None),
    ("metaloop.MetricLogger.log", metaloop.MetricLogger, "log", None),
    ("metaloop.MetricLogger.write_csv", metaloop.MetricLogger, "write_csv",
     None),
    ("metrics.evaluate", metrics, "evaluate", None),
    ("metrics.write_confusion_csv", metrics, "write_confusion_csv", None),
    ("metrics.write_weight_curve_csv", metrics, "write_weight_curve_csv", None),
    ("metrics.write_histogram_csv", metrics, "write_histogram_csv", None),
    ("models.Classifier.per_sample_grads", models.Classifier,
     "per_sample_grads", _per_sample_grads_counts),
    ("models.Classifier.losses", models.Classifier, "losses", _losses_counts),
    ("models.Classifier.mean_grad", models.Classifier, "mean_grad", None),
    ("models.WeightNet.weight_and_grad", models.WeightNet, "weight_and_grad",
     _weight_and_grad_counts),
    ("numkit.SgdMomentum.step", numkit.SgdMomentum, "step", None),
    ("numkit.Adam.step", numkit.Adam, "step", None),
]


class Tracer:
    """Records nested spans of the wrapped calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, self.op, name, time.perf_counter(),
                None, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def within(self, name: str) -> bool:
        return any(s[3] == name for s in self._stack)

    def _wrap(self, name, fn, counts):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counts is not None:
                span[6] = counts(tracer, args, out)
            return out
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, counts in PATCH_POINTS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, counts))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[list]] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s[4]
        for c in sorted(children.get(s[0], ()), key=lambda c: c[4]):
            lo, hi = max(c[4], reach), min(c[5], s[5])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[5] - s[4] - covered)
    return out


def layer_metrics(tracer: Tracer, ops: list) -> dict:
    """Per-op per-layer figures over the traced ops, keyed by metric name.

    Every figure is a mean over `ops`; iteration spacing pools the
    MetricLogger.log calls under the first cli.run span (the reweighted
    run) of every traced op.
    """
    n_ops = len(ops)
    spans = [s for s in tracer.spans if s[2] in ops]
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    agg: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, selfs):
        a = agg.setdefault(span[3], {"s": 0.0, "self_s": 0.0, "calls": 0})
        a["s"] += span[5] - span[4]
        a["self_s"] += self_s
        a["calls"] += 1
        for key, value in (span[6] or {}).items():
            a[key] = a.get(key, 0) + value

    def stat(name, key):
        return agg.get(name, {}).get(key, 0) / n_ops

    out = {}
    for name, stats in LAYER_STATS.items():
        for key in stats:
            out[f"{name}.{key}"] = stat(name, key)
    wg = agg.get("models.WeightNet.weight_and_grad", {})
    out["models.WeightNet.weight_and_grad.dv_used_ratio"] = (
        wg["dv_used"] / wg["calls"] if wg else 0.0)
    out["metrics.write.s"] = sum(stat(n, "s") for n in METRICS_WRITERS)

    def cli_run(span):
        """The cli.run span that `span` runs under, or None."""
        while span[1] is not None:
            span = by_id[span[1]]
            if span[3] == "cli.run":
                return span
        return None

    out["cli.artifacts.s"] = sum(
        s[5] - s[4] for s in spans
        if s[3] in ARTIFACT_WRITERS and cli_run(s) is not None) / n_ops

    gaps = []
    for op in ops:
        runs = [s for s in spans if s[2] == op and s[3] == "cli.run"]
        starts = [s[4] for s in spans if s[3] == "metaloop.MetricLogger.log"
                  and cli_run(s) is runs[0]]
        gaps.extend(np.diff(starts) * 1e3)
    p50, p98 = np.percentile(gaps, [50, 98]) if gaps else (0.0, 0.0)
    out["metaloop.iter_ms.p50"] = float(p50)
    out["metaloop.iter_ms.p98"] = float(p98)
    return out


# Stats taken straight from the spans, per layer; derived figures
# (dv_used_ratio, metrics.write.s, cli.artifacts.s, iter_ms) are added
# in layer_metrics.
LAYER_STATS = {
    "models.Classifier.per_sample_grads": ("s", "calls", "rows", "bytes"),
    "metaloop.virtual_step": ("s", "self_s", "calls"),
    "metaloop.hypergrad": ("s", "self_s", "calls"),
    "metaloop.meta_update": ("s", "self_s", "calls"),
    "metaloop.classifier_update": ("s", "self_s", "calls"),
    "models.WeightNet.weight_and_grad": ("s", "calls", "dv_bytes"),
    "metaloop.build_meta_set": ("s", "calls"),
    "models.Classifier.losses": ("s", "calls", "rows"),
    "metrics.evaluate": ("s", "calls"),
    "metaloop.erm_update": ("s", "calls"),
    "models.Classifier.mean_grad": ("s", "calls"),
    "numkit.SgdMomentum.step": ("s", "calls"),
    "numkit.Adam.step": ("s", "calls"),
    "metaloop.meta_train": ("self_s",),
    "metaloop.meta_test": ("self_s",),
    "taskfam.kmeans_1d": ("s", "calls"),
    "config.build_train_dataset": ("s",),
    "config.build_test_dataset": ("s",),
    "biasgen.save_dataset": ("s", "bytes"),
    "models.save_checkpoint": ("s",),
    "models.load_checkpoint": ("s",),
    "metaloop.MetricLogger.write_csv": ("s",),
    "cli.run": ("self_s",),
}


UNITS = {"s": "s", "self_s": "s", "calls": "count", "rows": "count",
         "bytes": "bytes", "dv_bytes": "bytes", "dv_used_ratio": "ratio",
         "p50": "ms", "p98": "ms"}


def report(tracer: Tracer, ops: list, traced_s: float, untraced_s: float,
           artifact_bytes: float):
    """(name, value, unit) of every per-layer metric of a traced run."""
    out = layer_metrics(tracer, ops)
    out["cli.artifacts.bytes"] = artifact_bytes
    rows = [(k, float(v), UNITS[k.rsplit(".", 1)[1]]) for k, v in out.items()]
    rows.append(("trace.run_s", traced_s, "s"))
    rows.append(("trace.overhead_s", traced_s - untraced_s, "s"))
    return rows
