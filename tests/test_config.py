"""Config parsing, validation, and round-trip identity."""

import re
import sys

import pytest
import yaml

from cmwnet.biasgen import make_gaussian_classes
from cmwnet.config import (ConfigError, ExperimentConfig, build_test_dataset,
                           build_train_dataset, config_from_dict, load_config,
                           save_config)
from cmwnet.metaloop import meta_train

# (field path, least value it may take); a negative rate or decay would
# ascend the loss, so those bounds are 0
LOWER_BOUNDS = [
    ("train.epochs", 0), ("train.lr", 0), ("train.theta_lr", 0),
    ("train.weight_decay", 0), ("train.theta_weight_decay", 0),
    ("train.warmup_epochs", 0), ("train.batch_size", 1),
    ("train.meta_per_class", 1), ("seed", 0), ("dataset.C", 2),
    ("dataset.n_per_class", 1), ("dataset.seed", 0), ("test.n_per_class", 1),
    ("test.seed", 0), ("model.K", 1), ("model.H", 1),
]


class TestValidation:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"trainer": {}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"train": {"learning_rate": 0.1}})

    def test_mwnet_requires_k1(self):
        with pytest.raises(ConfigError):
            config_from_dict({"train": {"variant": "mwnet"},
                              "model": {"K": 3}})
        cfg = config_from_dict({"train": {"variant": "mwnet"},
                                "model": {"K": 1}})
        assert cfg.model.K == 1

    def test_meta_test_requires_checkpoint(self):
        with pytest.raises(ConfigError):
            config_from_dict({"train": {"variant": "meta-test"}})

    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            config_from_dict({"train": {"variant": "dividemix"}})

    def test_bad_bias_spec_named(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"dataset": {"bias": [{"kind": "nope"}]}})
        assert "bias" in str(exc.value)

    @pytest.mark.parametrize(
        "path, bound", LOWER_BOUNDS,
        ids=[path.removeprefix("train.") for path, _ in LOWER_BOUNDS])
    def test_negative_count_or_rate_rejected(self, path, bound):
        *section, name = path.split(".")

        def config(value):
            return {section[0]: {name: value}} if section else {name: value}

        message = f"{path} must be >= {bound}, got {bound - 1}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(config(bound - 1))
        config_from_dict(config(bound))

    @pytest.mark.parametrize("data, field", [
        ({"dataset": {"separation": float("nan")}}, "dataset.separation"),
        ({"dataset": {"sigma": float("inf")}}, "dataset.sigma"),
        ({"train": {"lr": float("nan")}}, "train.lr"),
        ({"train": {"theta_lr": -float("inf")}}, "train.theta_lr"),
        ({"train": {"lr": 10 ** 400}}, "train.lr"),
        ({"dataset": {"bias": [{"kind": "pmd1", "level": float("nan")}]}},
         "dataset.bias[0].level"),
        ({"dataset": {"bias": [{"kind": "longtail",
                                "imbalance_factor": float("inf")}]}},
         "dataset.bias[0].imbalance_factor"),
    ])
    def test_non_finite_float_rejected(self, data, field):
        # nan passes every bound (nan < 0 is false), and an int past the
        # float range cannot convert
        with pytest.raises(ConfigError,
                           match=re.escape(f"{field} must be of type finite "
                                           "float, got ")):
            config_from_dict(data)

    @pytest.mark.parametrize("section, name, value", [
        ("train", "lr", float("nan")), ("dataset", "sigma", float("inf")),
        ("train", "epochs", 2.5), (None, "seed", -1)])
    def test_config_edited_in_code_checked_like_yaml(self, section, name,
                                                     value):
        cfg = ExperimentConfig()
        cfg.train.variant = "erm"
        setattr(getattr(cfg, section) if section else cfg, name, value)
        field = f"{section}.{name}" if section else name
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be")):
            cfg.validate()
        # training checks it before its first step
        ds = make_gaussian_classes(2, 1, 5, 4.0, 1.0, 0)
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be")):
            meta_train(ds, cfg)

    def test_largest_finite_float_accepted(self):
        big = sys.float_info.max
        cfg = config_from_dict({"train": {"lr": big, "theta_lr": int(big)}})
        assert cfg.train.lr == big and cfg.train.theta_lr == int(big)

    def test_bad_schedule(self):
        with pytest.raises(ConfigError):
            config_from_dict({"train": {"schedule": {"kind": "cosine"}}})

    def test_schedule_set_after_construction_needs_every_key(self):
        # "kind" is a schedule's only key: its milestones and gamma are the
        # constants metaloop.MILESTONES and LR_GAMMA
        cfg = ExperimentConfig()
        cfg.train.schedule = {}
        with pytest.raises(ConfigError, match="train.schedule.kind"):
            cfg.validate()
        cfg.train.schedule = {"kind": "piecewise", "milestones": [0.5]}
        with pytest.raises(ConfigError, match="train.schedule.milestones"):
            cfg.validate()
        for kind in ("piecewise", "decay"):
            cfg.train.schedule = {"kind": kind}
            cfg.validate()


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self, tmp_path):
        data = {
            "dataset": {"C": 6, "n_per_class": 40,
                        "bias": [{"kind": "symmetric", "level": 0.4,
                                  "seed": 7}]},
            "model": {"K": 3, "hidden": [16, 16]},
            "train": {"variant": "cmwnet", "epochs": 5},
            "seed": 3,
        }
        cfg = config_from_dict(data)
        path = tmp_path / "cfg.yaml"
        save_config(path, cfg)
        cfg2 = load_config(path)
        assert cfg.to_dict() == cfg2.to_dict()

    def test_snapshot_materializes_defaults(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        save_config(path, ExperimentConfig())
        data = yaml.safe_load(path.read_text())
        assert data["train"]["lr"] == 0.1
        assert data["model"]["H"] == 100
        assert data["test"]["n_per_class"] == 100

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        cfg = load_config(path)
        assert cfg.to_dict() == ExperimentConfig().to_dict()


class TestDatasetBuilders:
    def test_bias_chain_applied_in_order(self):
        cfg = config_from_dict({
            "dataset": {"C": 6, "d": 5, "n_per_class": 60,
                        "bias": [
                            {"kind": "longtail", "imbalance_factor": 4.0,
                             "seed": 1},
                            {"kind": "symmetric", "level": 0.2, "seed": 2},
                        ]}})
        ds = build_train_dataset(cfg)
        counts = ds.class_counts()
        assert counts.max() < 61  # subsampled before noise
        assert (ds.observed_labels != ds.clean_labels).mean() > 0.05

    def test_test_set_is_clean_and_balanced(self):
        cfg = config_from_dict({
            "dataset": {"C": 4, "bias": [{"kind": "symmetric", "level": 0.5,
                                          "seed": 1}]},
            "test": {"n_per_class": 30, "seed": 9}})
        te = build_test_dataset(cfg)
        assert (te.observed_labels == te.clean_labels).all()
        assert list(te.class_counts()) == [30] * 4

    def test_train_and_test_seeds_independent(self):
        cfg = ExperimentConfig()
        cfg.dataset.n_per_class = cfg.test.n_per_class
        tr = build_train_dataset(cfg)
        te = build_test_dataset(cfg)
        assert not (tr.features == te.features).all()
