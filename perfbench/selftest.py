"""Tests of the benchmark itself, on shortened workloads.

    python3 -m pytest -q perfbench/selftest.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Few epochs, still past warmup so the meta step (or frozen weighting) runs.
SHORT = {"sym_meta": {"epochs": 7}, "longtail_meta": {"epochs": 3},
         "transfer": {"epochs": 12}}
COUNT_KEYS = (".calls", ".rows", ".bytes", ".dv_bytes", ".dv_used_ratio")


def test_self_times_on_synthetic_tree():
    # id, parent, op, name, start, end, counts
    spans = [[0, None, 0, "root", 0.0, 10.0, None],
             [1, 0, 0, "a", 1.0, 3.0, None],
             [2, 0, 0, "b", 2.0, 5.0, None],      # overlaps a
             [3, 0, 0, "c", 8.0, 12.0, None],     # runs past its parent
             [4, 1, 0, "a.child", 1.5, 2.5, None]]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


@pytest.fixture(params=workloads.NAMES)
def bench(request, tmp_path):
    wl = workloads.make(request.param, 3, **SHORT[request.param])
    wl.acc_floor = 0.0     # the floors are for full-length training
    b = run.Bench(wl, tmp_path)
    b.setup(0)
    return b


def test_tracing_changes_no_result(bench):
    _, problems, _ = bench.op(0)
    assert problems == []
    _, problems, _ = bench.op(1, tracing.Tracer())
    # a differing metrics.csv hash is reported as a problem
    assert problems == []


def test_counts_repeat_across_traced_runs(bench):
    figures = []
    for i in range(2):
        tr = tracing.Tracer()
        _, problems, _ = bench.op(i, tr)
        assert problems == []
        figures.append({k: v for k, v, _ in tracing.report(
            tr, [i], 1.0, 1.0, 0) if k.endswith(COUNT_KEYS)})
    assert figures[0] == figures[1]
    assert figures[0]["models.Classifier.losses.calls"] > 0
