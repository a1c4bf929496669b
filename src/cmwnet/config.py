"""Declarative experiment configuration.

YAML in, fully resolved dataclasses out. Every default is materialized into
the resolved config, and the snapshot written next to a run's artifacts is
itself a valid config, so any result can be regenerated from (snapshot,
seed) alone.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field

import yaml

from . import biasgen
from .biasgen import BiasSpec, Dataset

VARIANTS = ("cmwnet", "cmwnet-sl", "erm", "mwnet", "meta-test")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass
class DatasetConfig:
    C: int = 10
    d: int = 8
    n_per_class: int = 500
    separation: float = 6.0
    sigma: float = 1.0
    seed: int = 0
    bias: list[dict] = field(default_factory=list)

    def validate(self):
        if self.d < min(self.C - 1, 2):  # C >= 3 class means lie on a circle
            raise ConfigError("dataset.d must be >= 1 (2 when dataset.C >= 3)")
        if self.sigma <= 0:
            raise ConfigError("dataset.sigma must be positive")
        for i, spec in enumerate(self.bias):
            _build(f"dataset.bias[{i}].", spec, BiasSpec)


@dataclass
class TestSetConfig:
    n_per_class: int = 100
    seed: int = 1


@dataclass
class ModelConfig:
    hidden: list[int] = field(default_factory=lambda: [64, 64])
    K: int = 3
    H: int = 100

    def validate(self):
        if any(h < 1 for h in self.hidden):
            raise ConfigError("model.hidden entries must be >= 1")


@dataclass
class TrainConfig:
    variant: str = "cmwnet"
    epochs: int = 60
    batch_size: int = 100
    lr: float = 0.1
    weight_decay: float = 5e-4
    theta_lr: float = 1e-3
    theta_weight_decay: float = 1e-4
    warmup_epochs: int = 5
    meta_per_class: int = 10
    mixup_meta: bool = True
    schedule: dict = field(default_factory=lambda: {"kind": "piecewise"})
    checkpoint: str | None = None          # Theta* source for meta-test

    def validate(self, model: ModelConfig):
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"train.variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant == "mwnet" and model.K != 1:
            raise ConfigError("train.variant=mwnet requires model.K=1")
        if self.variant == "meta-test" and not self.checkpoint:
            raise ConfigError("train.variant=meta-test requires train.checkpoint")
        if self.schedule.get("kind") not in ("piecewise", "decay"):
            raise ConfigError("train.schedule.kind must be 'piecewise' or 'decay'")
        bad = sorted(f"train.schedule.{k}" for k in self.schedule if k != "kind")
        if bad:
            raise ConfigError(f"unknown field(s): {bad}")


_KINDS = {"int": int, "float": (int, float), "bool": bool, "str": str,
          "dict": dict}


def _type_ok(value, annotation: str) -> bool:
    """Whether a YAML value fits a schema annotation such as 'list[int]' or
    'float | None'; a float is finite, an int in its range is a float too,
    and a bool is no number."""
    if annotation.endswith(" | None"):
        return value is None or _type_ok(value, annotation[:-len(" | None")])
    if annotation.startswith("list["):
        return isinstance(value, list) and all(
            _type_ok(v, annotation[5:-1]) for v in value)
    return isinstance(value, _KINDS[annotation]) and (
        annotation == "bool" or not isinstance(value, bool)) and (
        annotation != "float" or abs(value) <= sys.float_info.max)


# The least value of each bounded field. A negative rate or decay would
# ascend the loss, so those bounds are 0.
_LOWER_BOUNDS = {
    "seed": 0,
    "dataset.C": 2, "dataset.n_per_class": 1, "dataset.seed": 0,
    "test.n_per_class": 1, "test.seed": 0,
    "model.K": 1, "model.H": 1,
    "train.epochs": 0, "train.batch_size": 1, "train.lr": 0,
    "train.weight_decay": 0, "train.theta_lr": 0,
    "train.theta_weight_decay": 0, "train.warmup_epochs": 0,
    "train.meta_per_class": 1,
}


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    test: TestSetConfig = field(default_factory=TestSetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def validate(self):
        """The field rules of a YAML file, then the cross-field rules."""
        _build("", self.to_dict(), ExperimentConfig)
        self.dataset.validate()
        self.model.validate()
        self.train.validate(self.model)

    def to_dict(self) -> dict:
        return asdict(self)


_SECTIONS = {cls.__name__: cls for cls in
             (DatasetConfig, TestSetConfig, ModelConfig, TrainConfig)}
def _build(path: str, data, cls):
    """`cls` built from a mapping whose every key is a field of `cls` and
    whose every value fits that field's annotation and lower bound; a
    section field is built in turn. `path` ('', 'train.', 'dataset.bias[0].')
    prefixes the field names in errors."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path.rstrip('.') or 'config root'} "
                          "must be a mapping")
    fields = cls.__dataclass_fields__
    bad = sorted(path + key for key in data if key not in fields)
    if bad:
        raise ConfigError(f"unknown field(s): {bad}")
    kwargs = {}
    for key, value in data.items():
        name, annotation = path + key, fields[key].type
        bound = _LOWER_BOUNDS.get(name)
        if annotation in _SECTIONS:
            value = _build(name + ".", value, _SECTIONS[annotation])
        elif not _type_ok(value, annotation):
            kind = annotation.replace("float", "finite float")
            raise ConfigError(f"{name} must be of type {kind}, got {value!r}")
        elif bound is not None and value < bound:
            raise ConfigError(f"{name} must be >= {bound}, got {value}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path.rstrip('.')}: {e}") from e


def config_from_dict(data: dict) -> ExperimentConfig:
    cfg = _build("", data, ExperimentConfig)
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh) or {}
        except (yaml.YAMLError, UnicodeDecodeError) as e:
            raise ConfigError(f"{path}: not valid YAML: "
                              f"{' '.join(str(e).split())}") from e
    return config_from_dict(data)


def save_config(path, cfg: ExperimentConfig) -> None:
    """Write the fully resolved config (all defaults materialized)."""
    with open(path, "w") as fh:
        yaml.safe_dump(cfg.to_dict(), fh, sort_keys=True,
                       default_flow_style=False)


# ---------------------------------------------------------------------------
# dataset realization


def _draw(cfg: ExperimentConfig, n_per_class: int, seed: int) -> Dataset:
    dc = cfg.dataset
    try:
        return biasgen.make_gaussian_classes(dc.C, dc.d, n_per_class,
                                             dc.separation, dc.sigma, seed)
    except ValueError as e:  # a draw past the float range
        raise ConfigError(f"dataset.sigma / dataset.separation: {e}") from e


def build_train_dataset(cfg: ExperimentConfig) -> Dataset:
    ds = _draw(cfg, cfg.dataset.n_per_class, cfg.dataset.seed)
    for i, spec in enumerate(cfg.dataset.bias):
        try:
            ds = BiasSpec(**spec).apply(ds)
        except ValueError as e:  # a spec that does not fit the data before it
            raise ConfigError(f"dataset.bias[{i}]: {e}") from e
    return ds


def build_test_dataset(cfg: ExperimentConfig) -> Dataset:
    return _draw(cfg, cfg.test.n_per_class, cfg.test.seed)
