"""Config parsing, validation, and round-trip identity."""

import pytest
import yaml

from cmwnet.config import (ConfigError, ExperimentConfig, build_test_dataset,
                           build_train_dataset, config_from_dict, load_config,
                           save_config)


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

    @pytest.mark.parametrize("name", ["epochs", "lr", "theta_lr",
                                      "weight_decay", "theta_weight_decay",
                                      "warmup_epochs"])
    def test_negative_count_or_rate_rejected(self, name):
        with pytest.raises(ConfigError, match=f"train.{name} must be >= 0"):
            config_from_dict({"train": {name: -1}})
        config_from_dict({"train": {name: 0}})

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
