"""cmwnet benchmark: one workload in one process, each op a pair of
in-process `cmwnet` CLI runs (reweighted, then plain erm on the same data).

    python3 perfbench/run.py --workload sym_meta --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; cmwnet is imported from `src/`.
Prints the environment and the quality figures, then as its last stdout line
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced run
(`--trace 1`). perfbench/README.md describes workloads, metrics and checks.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3     # glibc mallopt parameters
SETUP_REPS = 3
MIN_OPS = 2       # the determinism check compares ops of one process


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def pin_allocator() -> bool:
    """Make glibc malloc keep freed memory for reuse; False if not glibc.

    With glibc's dynamic thresholds, whether the ~15 MB per-sample-gradient
    temporaries are reused from the heap or mapped and page-faulted afresh
    on every call depends on the order of earlier frees, so identical
    transfer ops took 3.4 s in some processes and 6-7.5 s in others. Blocks
    under 32 MB (the largest allowed threshold) now always come from the
    heap, and the heap is not trimmed.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1)


def environment(malloc_pinned: bool) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "malloc_pinned": malloc_pinned}


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def fresh_import() -> None:
    """Start a fresh interpreter that imports cmwnet.cli; wait for it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import cmwnet.cli"], env=env,
                   check=True)


class Bench:
    """Runs the setup and the ops of one workload and checks their outputs."""

    def __init__(self, workload, work: Path):
        from cmwnet import biasgen, cli

        self.cli = cli
        self.load_dataset = biasgen.load_dataset
        self.wl = workload
        self.work = work
        self.setup_dir = None
        self.hashes: dict[str, str] = {}    # run label -> metrics.csv sha256
        self.quality: dict | None = None

    def _runs(self, runs, out: Path) -> dict[str, int]:
        """Execute runs in order; returns {label: exit code}."""
        codes = {}
        for label, argv in runs:
            argv = [a.format(cfg=self.setup_dir) for a in argv]
            codes[label] = self.cli.main(argv + ["--out", str(out / label)])
        return codes

    def setup(self, rep: int) -> float:
        """Start a fresh interpreter that imports cmwnet, write the configs
        and do the setup runs; returns seconds."""
        t = time.perf_counter()
        fresh_import()
        self.setup_dir = self.work / f"setup{rep}"
        self.setup_dir.mkdir(parents=True)
        for name, cfg in self.wl.configs.items():
            with open(self.setup_dir / f"{name}.yaml", "w") as fh:
                yaml.safe_dump(cfg, fh, sort_keys=True)
        codes = self._runs(self.wl.setup_runs, self.setup_dir)
        bad = {k: c for k, c in codes.items() if c != 0}
        if bad:
            raise RuntimeError(f"setup run(s) failed with exit codes {bad}")
        return time.perf_counter() - t

    def op(self, i: int, tracer=None):
        """One op, traced if a tracer is given.

        Returns (seconds, problems, bytes of artifacts written).
        """
        out = self.work / f"op{i}"
        if tracer is not None:
            tracer.op = i
            tracer.install()
        t = time.perf_counter()
        try:
            codes = self._runs(self.wl.op_runs, out)
        except Exception as e:  # noqa: BLE001 - an uncaught error fails the op
            return time.perf_counter() - t, [f"raised {e!r}"], 0
        finally:
            if tracer is not None:
                tracer.uninstall()
        seconds = time.perf_counter() - t
        problems, reports = [], {}
        for label, code in codes.items():
            if code != 0:
                problems.append(f"{label}: exit code {code}")
                continue
            try:
                reports[label], errs = self._check_run(out / label, label)
            except (OSError, ValueError, KeyError, TypeError) as e:
                errs = [f"{label}: unreadable output: {e!r}"]
            problems += errs
        size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        if not problems and self.quality is None:
            self.quality = quality(reports, self.load_dataset(
                out / "reweighted" / "train.cmwd").observed_labels)
        shutil.rmtree(out)
        return seconds, problems, size

    def _check_run(self, run_dir: Path, label: str):
        errs = []
        with open(run_dir / "report.json") as fh:
            rep = json.load(fh)
        acc = rep.get("accuracy")
        floor = 1.0 / len(rep["per_class_accuracy"])     # chance
        if label == "reweighted":
            floor = max(floor, self.wl.acc_floor)
        data = (run_dir / "metrics.csv").read_bytes()
        if not (isinstance(acc, float) and math.isfinite(acc) and acc > floor):
            errs.append(f"{label}: accuracy {acc!r} not above {floor} "
                        f"(train_loss peaked at {peak_train_loss(data):.4g})")
        train = self.wl.configs[label]["train"]
        n = self.load_dataset(run_dir / "train.cmwd").observed_labels.size
        want = train["epochs"] * math.ceil(n / min(train["batch_size"], n))
        rows = data.count(b"\n") - 1
        if rows != want:
            errs.append(f"{label}: metrics.csv has {rows} rows, want {want}")
        digest = hashlib.sha256(data).hexdigest()
        if self.hashes.setdefault(label, digest) != digest:
            errs.append(f"{label}: metrics.csv differs from the first op's")
        return rep, errs


def peak_train_loss(metrics_csv: bytes) -> float:
    """Largest train_loss in a metrics.csv; a diverged run shows here."""
    header, *rows = metrics_csv.decode().splitlines()
    col = header.split(",").index("train_loss")
    return max((float(r.split(",")[col]) for r in rows), default=math.nan)


def quality(reports: dict, labels) -> dict:
    """Model quality of one op: deterministic for a given workload seed."""
    import numpy as np

    rw, erm = reports["reweighted"], reports["erm"]
    per_class = np.asarray(rw["per_class_accuracy"])
    counts = np.bincount(labels, minlength=per_class.size)
    smallest = np.argsort(counts, kind="stable")[:3]
    out = {"test_acc": rw["accuracy"],
           "acc_vs_erm": rw["accuracy"] - erm["accuracy"],
           "tail_acc": float(per_class[smallest].mean())}
    if "noisy_mean_weight" in rw:
        out["weight_gap"] = rw["clean_mean_weight"] - rw["noisy_mean_weight"]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pinned before numpy loads, so every commit runs with the same threads
    # and the same allocator settings; the environment is inherited by the
    # interpreters that setup starts.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    malloc_pinned = pin_allocator()
    if not (ROOT / "src" / "cmwnet" / "__init__.py").is_file():
        print(f"perfbench: no cmwnet sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    out_root = ROOT / ".bench_out"
    work = out_root / f"work-{os.getpid()}"
    bench = Bench(workloads.make(args.workload, args.seed), work)
    env = environment(malloc_pinned)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    times = {False: [], True: []}    # op seconds, keyed by traced
    traced_ops, sizes, log = [], [], []
    try:
        setup_s = statistics.median(bench.setup(r) for r in range(SETUP_REPS))
        t_start = time.perf_counter()
        # Start another op only if it is expected to end within --seconds.
        while len(log) < MIN_OPS or (
                time.perf_counter() - t_start
                + statistics.median(times[False] + times[True]) <= args.seconds):
            i = len(log)
            traced = tracer is not None and i % 2 == 1
            seconds, problems, size = bench.op(i, tracer if traced else None)
            times[traced].append(seconds)
            sizes.append(size)
            if traced:
                traced_ops.append(i)
            if problems:
                print(f"op {i} failed: {problems}", file=sys.stderr)
            log.append({"op": i, "traced": traced, "seconds": seconds,
                        "problems": problems})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        metrics = [("setup_s", setup_s, "s"),
                   ("run_s", statistics.median(times[False]), "s"),
                   ("peak_rss_mb", resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")]
        print("quality " + json.dumps(bench.quality, sort_keys=True))
    else:
        metrics = tracing.report(
            tracer, traced_ops, statistics.median(times[True]),
            statistics.median(times[False]), statistics.median(sizes))
    failed = sum(1 for entry in log if entry["problems"])
    result = {"correct": failed == 0, "attempted": len(log), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, value, unit in metrics}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_root / f"{stem}.json", "w") as fh:
        json.dump({"env": env, "quality": bench.quality,
                   "metrics_csv_sha256": bench.hashes, "ops": log,
                   "result": result}, fh, indent=1)
    if tracer is not None:
        tracer.write(out_root / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
