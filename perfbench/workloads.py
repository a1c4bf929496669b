"""The benchmark's workloads: configs derived from the workload seed, and the
`cmwnet` command lines of one setup and one operation.

Seed s sets the train dataset seed (2s), the test seed (2s + 1, never equal
to a train seed), the bias seed and the training seed. Seed 0 reproduces
the configs of acceptance criteria 5 (sym_meta) and 8 (transfer).
"""

from __future__ import annotations

from dataclasses import dataclass, field


def desk_config(bias: list, seed: int, dataset_seed: int, n_per_class=100,
                separation=4.0, hidden=(128, 128), **train) -> dict:
    """The acceptance tests' desk benchmark as a CLI config."""
    t = {"variant": "cmwnet", "epochs": 60, "batch_size": 100, "lr": 0.1,
         "weight_decay": 5e-4, "theta_lr": 5e-3, "theta_weight_decay": 1e-4,
         "warmup_epochs": 5, "mixup_meta": False, "meta_per_class": 10}
    t.update(train)
    return {"dataset": {"C": 10, "d": 8, "n_per_class": n_per_class,
                        "separation": separation, "sigma": 1.0,
                        "seed": dataset_seed, "bias": bias},
            "test": {"n_per_class": 100, "seed": 2 * seed + 1},
            "model": {"hidden": list(hidden), "H": 100, "K": 3},
            "train": t,
            "seed": seed}


def sym_config(seed: int, **train) -> dict:
    """Criterion 5: 40% symmetric noise, n=1000, hidden [128, 128]."""
    return desk_config([{"kind": "symmetric", "level": 0.4, "seed": 7 + seed}],
                       seed, 2 * seed, **train)


def longtail_config(seed: int, **train) -> dict:
    """Imbalance 100 over 2000 samples per class (n = 4970), hidden [64, 64]."""
    t = {"batch_size": 200, "theta_lr": 1e-3, "warmup_epochs": 2,
         "epochs": 25}
    t.update(train)
    return desk_config(
        [{"kind": "longtail", "imbalance_factor": 100.0, "seed": 7 + seed}],
        seed, 2 * seed, n_per_class=2000, separation=3.0, hidden=(64, 64), **t)


def transfer_target_config(seed: int, **train) -> dict:
    """Criterion 8's target: 40% asymmetric noise on a fresh draw."""
    return desk_config(
        [{"kind": "asymmetric", "level": 0.4, "seed": 17 + seed}],
        seed, 100 + 2 * seed, warmup_epochs=10, **train)


@dataclass
class Workload:
    """Config files and `cmwnet` runs of one workload at one seed.

    Runs are (label, argv) pairs. `{cfg}` in an argv is the setup directory,
    which holds the configs as `<name>.yaml` and the outputs of the setup
    runs. Each run gets `--out <dir>/<label>` appended; the first op run is
    the reweighted one, the second plain erm on the same data. The
    reweighted run's test accuracy must exceed `acc_floor` and chance.
    """

    configs: dict[str, dict]
    op_runs: list[tuple[str, list[str]]]
    acc_floor: float
    setup_runs: list[tuple[str, list[str]]] = field(default_factory=list)


def _train(name: str, seed: int) -> list[str]:
    return ["train", "--config", f"{{cfg}}/{name}.yaml", "--seed", str(seed)]


# Lower bounds on the reweighted run's test accuracy, well below the lowest
# seen at the commit the benchmark was defined on (perfbench/README.md,
# #acc-floor). sym_meta has none beyond chance: on some seeds cmwnet
# collapses to near-chance accuracy there.
ACC_FLOOR = {"sym_meta": 0.0, "longtail_meta": 0.65, "transfer": 0.3}


def make(name: str, seed: int, **train) -> Workload:
    """Workload `name` at workload seed `seed`; `train` overrides train
    settings of every config (the benchmark's tests use it to shorten runs).
    """
    erm = {**train, "variant": "erm"}
    if name in ("sym_meta", "longtail_meta"):
        config = sym_config if name == "sym_meta" else longtail_config
        return Workload({"reweighted": config(seed, **train),
                         "erm": config(seed, **erm)},
                        [("reweighted", _train("reweighted", seed)),
                         ("erm", _train("erm", seed))], ACC_FLOOR[name])
    if name == "transfer":
        target_seed = 1000 + seed
        return Workload({
            "source": sym_config(seed, **train),
            "reweighted": transfer_target_config(seed, **train),
            "erm": transfer_target_config(seed, **erm),
        }, [("reweighted", ["meta-test", "--config", "{cfg}/reweighted.yaml",
                            "--checkpoint", "{cfg}/source/checkpoint.ckpt",
                            "--seed", str(target_seed)]),
            ("erm", _train("erm", target_seed))], ACC_FLOOR[name],
            setup_runs=[("source", _train("source", seed))])
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sym_meta", "longtail_meta", "transfer")
