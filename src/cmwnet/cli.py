"""Experiment orchestration CLI.

Subcommands: generate (datasets only), train, meta-test, compare, curves.
Every artifact under a run directory is reproducible from the resolved
config snapshot written there.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import biasgen, metaloop, metrics, models
from .config import (ConfigError, ExperimentConfig, build_test_dataset,
                     build_train_dataset, load_config, save_config)
from .numkit import CorruptArtifact, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _resolve_out(out: str) -> Path:
    Path(out).mkdir(parents=True, exist_ok=True)
    return Path(out)


def _dataset_fingerprint(cfg: ExperimentConfig) -> dict:
    dc = cfg.dataset
    return {"C": dc.C, "d": dc.d, "separation": dc.separation,
            "sigma": dc.sigma, "test_n_per_class": cfg.test.n_per_class,
            "test_seed": cfg.test.seed}


def _load(args) -> ExperimentConfig:
    """The config named by --config with --seed and, for meta-test, the
    variant and --checkpoint applied, then validated."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.command == "meta-test":
        cfg.train.variant = "meta-test"
        cfg.train.checkpoint = args.checkpoint or cfg.train.checkpoint
    cfg.validate()
    return cfg


def _materialize(cfg: ExperimentConfig, out: str):
    """Build both datasets, then write them and the snapshot; returns
    (dir, train, test)."""
    train_ds = build_train_dataset(cfg)
    test_ds = build_test_dataset(cfg)
    out_dir = _resolve_out(out)
    save_config(out_dir / "snapshot.yaml", cfg)
    biasgen.save_dataset(out_dir / "train.cmwd", train_ds)
    biasgen.save_dataset(out_dir / "test.cmwd", test_ds)
    return out_dir, train_ds, test_ds


def _load_weighted(path) -> models.Checkpoint:
    """The checkpoint at path, which must hold a weighting net."""
    ckpt = models.load_checkpoint(path)
    if ckpt.weightnet is None:
        raise ConfigError(f"checkpoint {path} has no weighting net")
    return ckpt


def run(cfg: ExperimentConfig, out: str) -> tuple[Path, dict]:
    """Execute one experiment from a resolved config: load the checkpoint
    (meta-test), build data, train, persist all artifacts. Returns the run
    directory and the summary written to its report.json."""
    variant = cfg.train.variant
    frozen = (_load_weighted(cfg.train.checkpoint).weightnet
              if variant == "meta-test" else None)
    out_dir, train_ds, test_ds = _materialize(cfg, out)
    if frozen is not None:
        state = metaloop.meta_test(frozen, train_ds, cfg, test_ds=test_ds,
                                   seed=cfg.seed)
    else:
        state = metaloop.meta_train(train_ds, cfg, test_ds=test_ds,
                                    seed=cfg.seed)

    state.logger.write_csv(out_dir / "metrics.csv")
    centers = state.fam.centers if state.fam is not None else None
    models.save_checkpoint(out_dir / "checkpoint.ckpt", state.clf,
                           state.wnet, centers)

    report = state.test_report
    metrics.write_confusion_csv(out_dir / "confusion.csv", report)
    if state.wnet is not None:
        metrics.write_weight_curve_csv(out_dir / "weight_curve.csv", state.wnet)
        metrics.write_histogram_csv(out_dir / "histogram.csv", train_ds,
                                    state.train_losses)
    summary = dict(state.final_report)
    summary.update({
        "variant": variant,
        "seed": cfg.seed,
        "accuracy": report.accuracy,
        "per_class_accuracy": [float(a) for a in report.per_class_accuracy],
        "test_fingerprint": _dataset_fingerprint(cfg),
    })
    with open(out_dir / "report.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir, summary


def _read_report(run_dir) -> dict:
    path = Path(run_dir) / "report.json"
    if not path.exists():
        raise FileNotFoundError(f"{path} missing; run not finished?")
    with open(path) as fh:
        try:
            report = json.load(fh)
        except ValueError as e:
            raise CorruptArtifact(f"{path}: not valid JSON: {e}") from e
    get = report.get if isinstance(report, dict) else {}.get
    fp, per_class = get("test_fingerprint"), get("per_class_accuracy")
    C = fp.get("C") if isinstance(fp, dict) else None
    # the keys compare reads, each with its type and length (bool is no number)
    for key, ok, want in (
            ("test_fingerprint", type(C) is int, "a mapping with an int C"),
            ("accuracy", type(get("accuracy")) in (int, float), "a number"),
            ("per_class_accuracy", isinstance(per_class, list)
             and len(per_class) == C
             and all(type(v) in (int, float) for v in per_class),
             f"a list of test_fingerprint.C = {C} numbers")):
        if not ok:
            raise CorruptArtifact(f"{path}: key {key} must be {want}")
    return report


def compare(dir_a, dir_b, out_path=None):
    """Paired accuracy deltas between two finished runs on the same test set."""
    a, b = _read_report(dir_a), _read_report(dir_b)
    if a["test_fingerprint"] != b["test_fingerprint"]:
        raise ConfigError("runs were evaluated on different test sets")
    C = len(a["per_class_accuracy"])
    header = ["accuracy_a", "accuracy_b"] + [f"delta_class_{c}" for c in range(C)]
    row = [a["accuracy"], b["accuracy"]] + [
        a["per_class_accuracy"][c] - b["per_class_accuracy"][c]
        for c in range(C)]
    if out_path is not None:
        write_csv(out_path, header, [row], "%.10g")
    return header, row


def _cmd_generate(args) -> int:
    out_dir, train_ds, _ = _materialize(_load(args), args.out)
    biasgen.export_csv(out_dir / "train.csv", train_ds)
    print(f"wrote datasets to {out_dir}")
    return EXIT_OK


def _cmd_train(args) -> int:
    """train, and meta-test: train under the checkpoint's frozen net."""
    out_dir, report = run(_load(args), args.out)
    print(f"{report['variant']}: test accuracy {report['accuracy']:.4f} "
          f"({out_dir})")
    return EXIT_OK


def _cmd_compare(args) -> int:
    out_path = _resolve_out(args.out) / "compare.csv" if args.out else None
    header, row = compare(args.run_a, args.run_b, out_path)
    print(",".join(header))
    print(",".join(f"{v:.6g}" for v in row))
    print(f"overall delta (a - b): {row[0] - row[1]:+.4f}")
    return EXIT_OK


def _cmd_curves(args) -> int:
    ckpt = _load_weighted(args.checkpoint)
    ds = biasgen.load_dataset(args.dataset) if args.dataset else None
    if ds is not None:
        sizes = ckpt.classifier.sizes
        if (ds.d, ds.C) != (sizes[0], sizes[-1]):
            raise ConfigError(
                f"dataset {args.dataset} has d={ds.d}, C={ds.C}; the "
                f"checkpoint's classifier takes d={sizes[0]}, C={sizes[-1]}")
        losses = ckpt.classifier.losses(ds.features, ds.observed_labels)
        if not np.all(np.isfinite(losses)):
            raise FloatingPointError(
                f"non-finite classifier loss on dataset {args.dataset}")
    out_dir = _resolve_out(args.out)
    metrics.write_weight_curve_csv(out_dir / "weight_curve.csv", ckpt.weightnet)
    if ds is not None:
        metrics.write_histogram_csv(out_dir / "histogram.csv", ds, losses)
    print(f"wrote curves to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmwnet",
        description="Class-aware meta-learned sample re-weighting experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p = sub.add_parser("generate", help="build and save datasets only")
    add_common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="run a training experiment")
    add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("meta-test", help="transfer a trained weighting net")
    add_common(p)
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint providing the frozen weighting net")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("compare", help="paired accuracy deltas of two runs")
    p.add_argument("run_a")
    p.add_argument("run_b")
    p.add_argument("--out", default=None, help="optional output directory")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("curves", help="emit weighting curves / histograms")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dataset", default=None, help="dataset file for histograms")
    p.set_defaults(func=_cmd_curves)
    return parser


def _pin_allocator() -> None:
    """Under glibc, serve blocks under 32 MB from a heap never trimmed, so
    each step's temporaries are reused; a no-op where mallopt is missing."""
    import ctypes
    mallopt = getattr(ctypes.pythonapi, "mallopt", None)  # POSIX: dlopen(NULL)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
        mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 30)    # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _pin_allocator()
    args = build_parser().parse_args(argv)
    try:
        # every non-finite value is caught by an explicit check that names
        # where it happened, so numpy's own warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (FloatingPointError, ZeroDivisionError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, CorruptArtifact) as e:
        print(f"I/O failure: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
