"""End-to-end CLI runs: artifacts, exit codes, reproducibility."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from cmwnet import cli, metaloop, metrics
from cmwnet.biasgen import Dataset, load_dataset, save_dataset
from cmwnet.config import TrainConfig
from cmwnet.models import ROWS, Classifier, load_checkpoint
from cmwnet.numkit import read_arrays, write_arrays


def write_cfg(tmp_path, name="cfg.yaml", **overrides):
    data = {
        "dataset": {"C": 4, "d": 3, "n_per_class": 30, "separation": 4.0,
                    "bias": [{"kind": "symmetric", "level": 0.3, "seed": 5}]},
        "test": {"n_per_class": 20},
        "model": {"hidden": [8], "H": 8, "K": 3},
        "train": {"variant": "cmwnet", "epochs": 2, "batch_size": 30,
                  "warmup_epochs": 1, "meta_per_class": 5,
                  "mixup_meta": False},
        "seed": 0,
    }
    for section, vals in overrides.items():
        if isinstance(vals, dict):
            data.setdefault(section, {}).update(vals)
        else:
            data[section] = vals
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


# damage() cases that put a NaN or -inf into this array
NON_FINITE = {"nan-feature": "features", "nan-weight": "clf_W_0",
              "inf-weight": "clf_W_0"}


def files_under(path):
    """Every file under path (none if it does not exist)."""
    return [p for p in Path(path).rglob("*") if p.is_file()]


class TestTrain:
    def test_artifacts_written(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("snapshot.yaml", "train.cmwd", "test.cmwd", "metrics.csv",
                     "checkpoint.ckpt", "confusion.csv", "weight_curve.csv",
                     "histogram.csv", "report.json"):
            assert (out / name).exists(), name
        assert not (out / "checkpoint.ckpt.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["variant"] == "cmwnet"
        assert 0.0 <= report["accuracy"] <= 1.0
        assert len(report["per_class_accuracy"]) == 4

    def test_erm_zero_epochs_header_only_metrics(self, tmp_path):
        cfg = write_cfg(tmp_path, train={"variant": "erm", "epochs": 0})
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "metrics.csv").read_bytes() == (  # header only
            b"iteration,epoch,train_loss,meta_loss,test_acc,hypergrad_norm\n")
        assert (out / "checkpoint.ckpt").exists()

    def test_rerun_byte_identical_metrics(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["train", "--config", str(cfg), "--out", str(out1)])
        # second run consumes the first run's snapshot
        cli.main(["train", "--config", str(out1 / "snapshot.yaml"),
                  "--out", str(out2)])
        assert (out1 / "metrics.csv").read_bytes() == \
               (out2 / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("variant", ["cmwnet", "cmwnet-sl"])
    def test_rerun_reproduces_checkpoint_and_report(self, tmp_path, variant):
        cfg = write_cfg(tmp_path, train={"variant": variant})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", str(cfg), "--out",
                         str(out1)]) == 0
        assert cli.main(["train", "--config", str(out1 / "snapshot.yaml"),
                         "--out", str(out2)]) == 0
        for name in ("checkpoint.ckpt", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), \
                name

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["train", "--config", str(cfg), "--out", str(out1),
                  "--seed", "1"])
        cli.main(["train", "--config", str(cfg), "--out", str(out2),
                  "--seed", "2"])
        assert (out1 / "metrics.csv").read_bytes() != \
               (out2 / "metrics.csv").read_bytes()

    def test_checkpoint_holds_only_learned_arrays(self, tmp_path):
        # the classifier, the weighting net and the family centers; no
        # optimizer state
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        cli.main(["train", "--config", str(cfg), "--out", str(out)])
        ck = load_checkpoint(out / "checkpoint.ckpt")
        assert ck.classifier.sizes == [3, 8, 4]
        assert ck.weightnet.hidden == 8
        assert ck.centers.shape == (ck.weightnet.K,)
        assert set(read_arrays(out / "checkpoint.ckpt")) == {
            "clf_W_0", "clf_W_1", "clf_b_0", "clf_b_1",
            "wn_W1", "wn_b1", "wn_W2", "wn_b2", "centers"}

    def test_erm_run_clusters_nothing(self, tmp_path):
        # no weighting net: no k-means warning, no family columns and no
        # family centers in the checkpoint
        cfg = write_cfg(tmp_path, model={"K": 5}, train={"variant": "erm"})
        out = tmp_path / "run"
        assert TestExitCodes.script_stderr(
            ["train", "--config", str(cfg), "--out", str(out)], 0) == []
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert "family_weight_" not in header
        assert load_checkpoint(out / "checkpoint.ckpt").centers is None
        assert "centers" not in read_arrays(out / "checkpoint.ckpt")

    def test_partial_sl_takes_defaults(self, tmp_path):
        # the soft-label rates and momentum are metaloop constants, so a
        # cmwnet-sl run always takes them and its snapshot names none
        cfg = write_cfg(tmp_path, train={"variant": "cmwnet-sl"})
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        snap = yaml.safe_load((out / "snapshot.yaml").read_text())
        assert not {"sl", "momentum", "t_meta",
                    "meta_batch_size"} & set(snap["train"])
        assert (metaloop.ALPHA_TE, metaloop.BETA_WA,
                metaloop.SL_MIXUP) == (0.9, 0.99, 1.0)

    def test_partial_schedule_takes_defaults(self, tmp_path):
        # a schedule is its kind alone; piecewise divides the rate by 10 at
        # 60% and 80% of the epochs
        cfg = write_cfg(tmp_path, train={"schedule": {"kind": "piecewise"}})
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        snap = yaml.safe_load((out / "snapshot.yaml").read_text())
        assert snap["train"]["schedule"] == {"kind": "piecewise"}
        tc = TrainConfig(lr=1.0, epochs=10, schedule=snap["train"]["schedule"])
        lrs = [metaloop._rates(tc, e, 0)[0] for e in (5, 6, 7, 8)]
        assert lrs == pytest.approx([1.0, 0.1, 0.1, 0.01])

    def test_final_model_evaluated_once(self, tmp_path, monkeypatch):
        # the test set is scored before training and after each epoch; the
        # training set is ranked for each weighted epoch's meta set and
        # once at the end, and report.json and histogram.csv reuse both
        cfg = write_cfg(tmp_path, train={"epochs": 3})
        calls = {"evaluate": 0, "losses": 0}
        evaluate, losses = metrics.evaluate, Classifier.losses

        def counted_evaluate(clf, ds):
            calls["evaluate"] += 1
            return evaluate(clf, ds)

        def counted_losses(clf, x, targets):
            calls["losses"] += x.shape[0] == 4 * 30
            return losses(clf, x, targets)

        monkeypatch.setattr(metrics, "evaluate", counted_evaluate)
        monkeypatch.setattr(Classifier, "losses", counted_losses)
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "run")]) == 0
        assert calls == {"evaluate": 3 + 1, "losses": 2 + 1}


class TestExitCodes:
    def test_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("train:\n  variant: dividemix\n")
        code = cli.main(["train", "--config", str(bad),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("train, field", [
        # removed settings (here and at the end of the list): snapshots
        # that still name them are refused
        ({"sl": {"gama": 2.0}}, "train.sl"),
        ({"t_meta": 1}, "train.t_meta"),
        ({"schedule": {"kind": "piecewise", "milestone": [0.5]}},
         "train.schedule"),
        ({"schedule": {"kind": "piecewise", "milestones": 0.5}},
         "train.schedule.milestones"),
        ({"schedule": {"kind": "decay", "c": 0.1}}, "train.schedule"),
        # YAML reads 5e-3 (no dot) as a string
        ({"theta_lr": "5e-3"}, "train.theta_lr"),
        ({"epochs": "3"}, "train.epochs"),
        ({"epochs": 3.0}, "train.epochs"),
        ({"lr": True}, "train.lr"),
        ({"mixup_meta": "no"}, "train.mixup_meta"),
        ({"variant": 1}, "train.variant"),
        ({"checkpoint": ["a"]}, "train.checkpoint"),
        ({"meta_batch_size": 100}, "train.meta_batch_size"),
        ({"momentum": 0.9}, "train.momentum"),
        ({"schedule": {"kind": "piecewise", "gamma": 0.1}},
         "train.schedule.gamma"),
        # a negative rate or decay would ascend the loss
        ({"lr": -0.1}, "train.lr"),
        ({"theta_lr": -5e-3}, "train.theta_lr"),
        ({"weight_decay": -1e-4}, "train.weight_decay"),
        ({"theta_weight_decay": -1e-4}, "train.theta_weight_decay"),
        ({"warmup_epochs": -1}, "train.warmup_epochs"),
        # nan passes every bound and would fail at the first step; an int
        # past the float range cannot convert
        ({"lr": float("nan")}, "train.lr"),
        ({"lr": 10 ** 400}, "train.lr"),
    ])
    def test_config_error_names_field(self, tmp_path, capsys, train, field):
        self.assert_config_error(write_cfg(tmp_path, train=train), tmp_path,
                                 capsys, field)

    @staticmethod
    def assert_config_error(cfg, tmp_path, capsys, field):
        code = cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert field in err[0]

    @pytest.mark.parametrize("overrides, field", [
        ({"model": {"hidden": [8, "8"]}}, "model.hidden"),
        ({"model": {"hidden": [True]}}, "model.hidden"),
        # removed setting, now the constant models.LOSS_CLAMP
        ({"model": {"loss_clamp": 50.0}}, "model.loss_clamp"),
        ({"dataset": {"C": 4.5}}, "dataset.C"),
        ({"test": {"seed": None}}, "test.seed"),
        ({"seed": "0"}, "seed"),
        # removed settings: snapshots that still name them are refused
        ({"model": {"normalize": True}}, "normalize"),
        ({"train": {"theta_optimizer": "adam"}}, "theta_optimizer"),
        ({"train": {"meta_labels": "observed"}}, "meta_labels"),
        # values numpy or the bias injectors would reject mid-run
        ({"dataset": {"bias": [{"kind": "symmetric", "level": 0.3,
                                "seed": 1.5}]}}, "dataset.bias[0].seed"),
        ({"seed": -1}, "seed"),
        ({"dataset": {"seed": -1}}, "dataset.seed"),
        ({"test": {"seed": -1}}, "test.seed"),
        ({"dataset": {"bias": [{"kind": "symmetric", "level": 0.3,
                                "seed": -1}]}}, "seed"),
        ({"dataset": {"bias": [{"kind": "hybrid", "level": 0.3,
                                "pmd_type": 4}]}}, "pmd_type"),
        # the removed hybrid kind: chain a pmd and a symmetric spec instead
        ({"dataset": {"bias": [{"kind": "hybrid", "level": 0.3}]}},
         "hybrid"),
        ({"dataset": {"bias": [{"kind": "longtail", "imbalance_factor": 5.0},
                               {"kind": "longtail",
                                "imbalance_factor": 2.0}]}}, "dataset.bias[1]"),
        ({"test": {"n_per_class": 0}}, "test.n_per_class"),
        ({"train": {"meta_per_class": 0}}, "train.meta_per_class"),
        ({"dataset": {"bias": [{"kind": "pmd1", "level": 0.3,
                                "extra_level": 0.2}]}},
         "dataset.bias[0].extra_level"),
        ({"dataset": {"bias": [{"kind": "pmd1", "level": 0.3,
                                "extra": "symmetric"}]}},
         "dataset.bias[0].extra"),
        # a field its kind does not read would leave the data unbiased
        ({"dataset": {"bias": [{"kind": "longtail", "level": 0.5}]}},
         "dataset.bias[0]"),
        ({"dataset": {"bias": [{"kind": "symmetric",
                                "imbalance_factor": 10.0}]}},
         "dataset.bias[0]"),
        # non-finite floats, in a section and in a bias spec
        ({"dataset": {"separation": float("inf")}}, "dataset.separation"),
        ({"dataset": {"bias": [{"kind": "pmd2", "level": float("nan")}]}},
         "dataset.bias[0].level"),
        # cross-field rules, after every field has its type and bound
        ({"model": {"hidden": [8, 0]}}, "model.hidden"),
        ({"dataset": {"sigma": 0.0}}, "dataset.sigma"),
    ])
    def test_config_type_error_outside_train(self, tmp_path, capsys,
                                             overrides, field):
        self.assert_config_error(write_cfg(tmp_path, **overrides), tmp_path,
                                 capsys, field)

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_one_dim_needs_two_classes(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, dataset={"C": 3, "d": 1})
        code = cli.main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert "dataset.d" in err[0]
        assert files_under(tmp_path / "o") == []

    @pytest.mark.parametrize("command", ["generate", "train"])
    @pytest.mark.parametrize("field, value", [
        # the class means' SVD does not converge
        ("separation", float("nan")),
        # generate would write a dataset that no command can load
        ("sigma", float("inf")),
    ])
    def test_non_finite_dataset_float(self, tmp_path, capsys, command,
                                      field, value):
        cfg = write_cfg(tmp_path, dataset={field: value})
        code = cli.main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert (f"dataset.{field} must be of type finite float, got {value}"
                in err[0])
        assert files_under(tmp_path / "o") == []

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_non_finite_draw_is_config_error(self, tmp_path, capsys, command):
        # finite, but the mixture draw passes the float range
        cfg = write_cfg(tmp_path, dataset={"sigma": 1.0e308})
        code = cli.main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert "dataset.sigma" in err[0] and "non-finite feature" in err[0]
        assert files_under(tmp_path / "o") == []

    def test_int_accepted_for_float(self, tmp_path):
        cfg = write_cfg(tmp_path, train={"variant": "erm", "epochs": 1,
                                         "lr": 1, "theta_lr": 0},
                        dataset={"sigma": 1})
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 0

    @staticmethod
    def script_stderr(args, code):
        """Run the CLI in a subprocess, so that warnings reach stderr as
        they would on the installed script; returns its stderr lines."""
        src_dir = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src_dir] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
        proc = subprocess.run([sys.executable, "-m", "cmwnet.cli", *args],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == code
        return proc.stderr.strip().splitlines()

    def test_head_count_mismatch_is_config_error(self, tmp_path):
        # a balanced target has one class size, so one family for two heads;
        # refused before clustering, so no k-means warning precedes the error
        src_cfg = write_cfg(tmp_path, "src.yaml", model={"K": 2})
        src = tmp_path / "src"
        assert cli.main(["train", "--config", str(src_cfg),
                         "--out", str(src)]) == 0
        dst_cfg = write_cfg(tmp_path, "dst.yaml", dataset={"bias": []})
        err = self.script_stderr(
            ["meta-test", "--config", str(dst_cfg), "--out",
             str(tmp_path / "dst"), "--checkpoint",
             str(src / "checkpoint.ckpt")], 2)
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert "2 heads" in err[0]
        # refused by the training it needs, before anything is written
        assert files_under(tmp_path / "dst") == []

    def test_nonfinite_loss_is_numeric_failure(self, tmp_path):
        src_cfg = write_cfg(tmp_path, "src.yaml", model={"K": 2})
        src = tmp_path / "src"
        assert cli.main(["train", "--config", str(src_cfg),
                         "--out", str(src)]) == 0
        # features this far apart overflow the classifier's logits
        dst_cfg = write_cfg(tmp_path, "dst.yaml", model={"K": 2},
                            dataset={"separation": 1.0e300},
                            train={"warmup_epochs": 0})
        # a subprocess, because numpy's RuntimeWarnings would reach stderr
        # outside pytest's capture
        err = self.script_stderr(
            ["meta-test", "--config", str(dst_cfg), "--out",
             str(tmp_path / "dst"), "--checkpoint",
             str(src / "checkpoint.ckpt")], 3)
        assert len(err) == 1 and err[0].startswith("numeric failure: ")
        assert "weight net" in err[0]
        # a run that fails in training leaves no datasets behind
        assert files_under(tmp_path / "dst") == []

    # the whole of an erm run, and the warmup epoch of a weighted one; an
    # erm run once more in this process, where a line trace sees it
    @pytest.mark.parametrize("variant", ["erm", "cmwnet", "erm-in-process"])
    def test_diverging_erm_step_is_numeric_failure(self, tmp_path, capsys,
                                                   variant):
        name = variant.removesuffix("-in-process")
        cfg = write_cfg(tmp_path, model={"K": 2},
                        train={"variant": name, "lr": 1.0e200})
        args = ["train", "--config", str(cfg), "--out", str(tmp_path / "o")]
        if name == variant:
            err = self.script_stderr(args, 3)
        else:
            assert cli.main(args) == 3
            err = capsys.readouterr().err.strip().splitlines()
        assert err == ["numeric failure: non-finite gradient in erm step"]

    # the last is valid YAML, but its root is a list, not a mapping
    @pytest.mark.parametrize("text", [b"a: [", b"a: \xff\xfe", b"- a\n"])
    def test_malformed_yaml_is_config_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(text)
        field = "config root" if text.startswith(b"-") else str(bad)
        self.assert_config_error(bad, tmp_path, capsys, field)

    @pytest.mark.parametrize("damage", ["not-json", "no-fingerprint",
                                        "not-a-mapping", "missing"])
    def test_corrupt_report_is_io_failure(self, tmp_path, capsys, damage):
        cfg = write_cfg(tmp_path, train={"variant": "erm", "epochs": 1})
        out = tmp_path / "run"
        cli.main(["train", "--config", str(cfg), "--out", str(out)])
        path = out / "report.json"
        report = json.loads(path.read_text())
        del report["test_fingerprint"]
        if damage == "missing":  # a run that never finished
            path.unlink()
        else:
            path.write_text({"not-json": "{", "not-a-mapping": "[1]",
                             "no-fingerprint": json.dumps(report)}[damage])
        capsys.readouterr()
        code = cli.main(["compare", str(out), str(out)])
        self.assert_io_failure(code, capsys, path, damage)

    @pytest.mark.parametrize("key, value", [
        ("accuracy", "high"), ("accuracy", True), ("accuracy", None),
        ("per_class_accuracy", [0.5, 0.5, 0.5]),
        ("per_class_accuracy", [0.5, "0.5", 0.5, 0.5]),
        ("per_class_accuracy", 0.5), ("test_fingerprint", {"C": "4"})])
    def test_wrong_report_value_is_io_failure(self, tmp_path, capsys, key,
                                              value):
        cfg = write_cfg(tmp_path, train={"variant": "erm", "epochs": 1})
        good, bad = tmp_path / "good", tmp_path / "bad"
        for out in (good, bad):
            cli.main(["train", "--config", str(cfg), "--out", str(out)])
        path = bad / "report.json"
        report = json.loads(path.read_text())
        report[key] = value
        path.write_text(json.dumps(report))
        capsys.readouterr()
        for runs in ([good, bad], [bad, good]):
            code = cli.main(["compare", *map(str, runs),
                             "--out", str(tmp_path / "cmp")])
            err = self.assert_io_failure(code, capsys, path, key)
            assert f"key {key} " in err
        assert files_under(tmp_path / "cmp") == []

    @pytest.mark.parametrize("dataset, name", [({"d": 4}, "d=4"),
                                               ({"C": 5}, "C=5")])
    def test_curves_dataset_must_fit_checkpoint(self, tmp_path, capsys,
                                                dataset, name):
        out = tmp_path / "run"
        cli.main(["train", "--config", str(write_cfg(tmp_path)),
                  "--out", str(out)])
        other = tmp_path / "other"
        cli.main(["generate", "--config",
                  str(write_cfg(tmp_path, "other.yaml", dataset=dataset)),
                  "--out", str(other)])
        capsys.readouterr()
        code = cli.main(["curves", "--checkpoint", str(out / "checkpoint.ckpt"),
                         "--out", str(tmp_path / "c"),
                         "--dataset", str(other / "train.cmwd")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert name in err[0]
        assert files_under(tmp_path / "c") == []

    def test_io_error_missing_config(self, tmp_path, capsys):
        code = cli.main(["train", "--config", str(tmp_path / "absent.yaml"),
                         "--out", str(tmp_path / "o")])
        assert code == 4

    @staticmethod
    def damage(path, keep):
        """Truncate path to its first `keep` bytes (int), or corrupt one
        header field; returns the file the error must name."""
        data = path.read_bytes()
        if keep == "magic":
            path.write_bytes(b"XXXX" + data[4:])
        elif keep in ("version", "v1"):  # v1 files came with a JSON sidecar
            version = 99 if keep == "version" else 1
            path.write_bytes(data[:4] + version.to_bytes(4, "little")
                             + data[8:])
        elif keep == "length":  # features' first dimension: 2**46+ bytes
            path.write_bytes(data[:28] + (2 ** 40).to_bytes(8, "little")
                             + data[36:])
        elif keep == "name":  # first byte of a checkpoint's first array name
            path.write_bytes(data[:16] + b"\xff" + data[17:])
        elif keep == "dims":  # clf_W_0's shape: 2**64 entries in all
            path.write_bytes(data[:27] + (2 ** 62).to_bytes(8, "little")
                             + (4).to_bytes(8, "little") + data[43:])
        elif keep in ("clf-shape", "wn-shape"):  # arrays that do not chain
            arrays = read_arrays(path)
            name = "clf_W_0" if keep == "clf-shape" else "wn_W2"
            arrays[name] = np.zeros((arrays[name].shape[0],
                                     arrays[name].shape[1] + 1))
            write_arrays(path, arrays)
        elif keep in ("missing", "bias-length", "not-2d"):
            arrays = read_arrays(path)
            if keep == "missing":
                del arrays["wn_W1"]
            elif keep == "bias-length":
                arrays["clf_b_1"] = np.zeros(arrays["clf_b_1"].size + 1)
            else:
                arrays["clf_W_1"] = arrays["clf_W_1"].ravel()
            write_arrays(path, arrays)
        elif keep in ("label", "clean-label", "empty"):
            ds = load_dataset(path)  # a dataset its loader must refuse
            if keep == "label":
                ds.observed_labels[0] = ds.C
            elif keep == "clean-label":
                ds.clean_labels[0] = ds.C
            else:
                ds = Dataset(ds.features[:0], ds.observed_labels[:0],
                             ds.clean_labels[:0], ds.C)
            save_dataset(path, ds)
        elif keep == "fraction":  # a label that is not a whole number
            arrays = read_arrays(path)
            arrays["observed"][0] += 0.5
            write_arrays(path, arrays)
        elif keep in NON_FINITE:
            arrays = read_arrays(path)
            arrays[NON_FINITE[keep]][0, 0] = (-np.inf if keep == "inf-weight"
                                              else np.nan)
            write_arrays(path, arrays)
        else:
            path.write_bytes(data[:keep])
        return path

    def assert_io_failure(self, code, capsys, path, keep):
        assert code == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("I/O failure: ")
        assert str(path) in err[0]
        if isinstance(keep, int) or keep == "dims":
            assert "truncated" in err[0]
        if keep in NON_FINITE:
            assert (f"array {NON_FINITE[keep]} holds a non-finite value"
                    in err[0])
        return err[0]

    @pytest.mark.parametrize("keep", [6, 100, -1, "magic", "version", "v1",
                                      "name", "dims", "missing",
                                      "bias-length", "not-2d", "clf-shape",
                                      "wn-shape", "nan-weight", "inf-weight"])
    def test_truncated_checkpoint(self, tmp_path, capsys, keep):
        cfg = write_cfg(tmp_path)
        src = tmp_path / "src"
        cli.main(["train", "--config", str(cfg), "--out", str(src)])
        ckpt = src / "checkpoint.ckpt"
        bad = self.damage(ckpt, keep)
        capsys.readouterr()
        code = cli.main(["meta-test", "--config", str(cfg),
                         "--out", str(tmp_path / "dst"),
                         "--checkpoint", str(ckpt)])
        self.assert_io_failure(code, capsys, bad, keep)
        assert files_under(tmp_path / "dst") == []

    @pytest.mark.parametrize("keep", [20, 100, -1, "magic", "version",
                                      "length", "label", "clean-label",
                                      "fraction", "empty", "nan-feature"])
    def test_truncated_dataset(self, tmp_path, capsys, keep):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        cli.main(["train", "--config", str(cfg), "--out", str(out)])
        data = self.damage(out / "train.cmwd", keep)
        capsys.readouterr()
        code = cli.main(["curves", "--checkpoint", str(out / "checkpoint.ckpt"),
                         "--out", str(tmp_path / "c"), "--dataset", str(data)])
        self.assert_io_failure(code, capsys, data, keep)
        assert files_under(tmp_path / "c") == []

    @pytest.mark.parametrize("command", ["curves", "meta-test"])
    def test_file_of_the_wrong_kind(self, tmp_path, capsys, command):
        # checkpoints and datasets share one container, so each loader
        # names the array the other kind of file lacks
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        cli.main(["train", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        if command == "curves":
            path, missing = out / "checkpoint.ckpt", "features"
            code = cli.main(["curves", "--checkpoint", str(path),
                             "--out", str(tmp_path / "c"),
                             "--dataset", str(path)])
        else:
            path, missing = out / "train.cmwd", "clf_W_0"
            code = cli.main(["meta-test", "--config", str(cfg),
                             "--out", str(tmp_path / "dst"),
                             "--checkpoint", str(path)])
        line = self.assert_io_failure(code, capsys, path, command)
        assert f"array {missing} is missing" in line
        assert files_under(tmp_path / "c") + files_under(tmp_path / "dst") == []

    @pytest.mark.parametrize("command", ["curves", "meta-test"])
    @pytest.mark.parametrize("empty", ["heads", "hidden"])
    def test_zero_size_weightnet(self, tmp_path, capsys, command, empty):
        # a net with no head or no hidden unit is refused at load; neither
        # command may index into it or weight with a constant
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        cli.main(["train", "--config", str(cfg), "--out", str(out)])
        arrays = read_arrays(out / "checkpoint.ckpt")
        if empty == "heads":
            arrays["wn_W2"], arrays["wn_b2"] = (arrays["wn_W2"][:, :0],
                                                arrays["wn_b2"][:0])
        else:
            for name in ("wn_W1", "wn_b1"):
                arrays[name] = arrays[name][..., :0]
            arrays["wn_W2"] = arrays["wn_W2"][:0]
        path = tmp_path / "empty.ckpt"
        write_arrays(path, arrays)
        capsys.readouterr()
        if command == "curves":
            code = cli.main(["curves", "--checkpoint", str(path),
                             "--out", str(tmp_path / "c")])
        else:
            code = cli.main(["meta-test", "--config", str(cfg),
                             "--out", str(tmp_path / "dst"),
                             "--checkpoint", str(path)])
        line = self.assert_io_failure(code, capsys, path, command)
        assert "array wn_W2 has shape" in line
        assert files_under(tmp_path / "c") + files_under(tmp_path / "dst") == []

    def test_mwnet_alias_requires_k1(self, tmp_path):
        cfg = write_cfg(tmp_path, train={"variant": "mwnet"}, model={"K": 3})
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2


class TestImports:
    def test_no_command_loads_numpy_ma(self, tmp_path):
        """np.unique imports numpy.ma on first use; no command needs it. A
        fresh interpreter, since this one may already hold numpy.ma."""
        cfg, run = str(write_cfg(tmp_path)), tmp_path / "run"
        ckpt = str(run / "checkpoint.ckpt")
        commands = [
            ["generate", "--config", cfg, "--out", str(tmp_path / "gen")],
            ["train", "--config", cfg, "--out", str(run)],
            ["meta-test", "--config", cfg, "--out", str(tmp_path / "mt"),
             "--checkpoint", ckpt],
            ["curves", "--checkpoint", ckpt, "--out", str(tmp_path / "cv"),
             "--dataset", str(run / "train.cmwd")],
            ["compare", str(run), str(run), "--out", str(tmp_path / "cmp")]]
        src_dir = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src_dir}
        code = ("import json, sys\n"
                "from cmwnet import cli\n"
                "for args in json.loads(sys.argv[1]):\n"
                "    assert cli.main(args) == 0, args\n"
                "print('numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code,
                               json.dumps(commands)], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "False"


class TestAllocator:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the allocator policy is set through glibc")
    def test_train_reuses_its_temporaries(self, tmp_path):
        """Under default glibc settings the step's temporaries of 128 KB and
        more are unmapped or trimmed after each use and faulted in afresh:
        about five times the page faults of the import alone."""
        import resource

        cfg = write_cfg(tmp_path, dataset={"C": 10, "d": 8, "n_per_class": 100},
                        model={"hidden": [128, 128], "H": 100, "K": 3},
                        train={"epochs": 7, "batch_size": 100,
                               "warmup_epochs": 5, "meta_per_class": 10})
        src_dir = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src_dir}

        def minor_faults(*args):
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            proc = subprocess.run([sys.executable, *args], capture_output=True,
                                  text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

        bare = minor_faults("-c", "import cmwnet.cli")
        train = minor_faults("-m", "cmwnet.cli", "train", "--config", str(cfg),
                             "--out", str(tmp_path / "run"))
        assert train < 2 * bare, (train, bare)


class TestGenerate:
    def test_writes_datasets(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "gen"
        assert cli.main(["generate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        ds = load_dataset(out / "train.cmwd")
        assert ds.n == 120
        assert (out / "train.csv").exists()


class TestMetaTestCommand:
    def test_transfer_from_checkpoint(self, tmp_path):
        cfg = write_cfg(tmp_path)
        src = tmp_path / "src"
        cli.main(["train", "--config", str(cfg), "--out", str(src)])
        dst = tmp_path / "dst"
        code = cli.main(["meta-test", "--config", str(cfg), "--out", str(dst),
                         "--checkpoint", str(src / "checkpoint.ckpt")])
        assert code == 0
        report = json.loads((dst / "report.json").read_text())
        assert report["variant"] == "meta-test"
        snap = yaml.safe_load((dst / "snapshot.yaml").read_text())
        assert snap["train"]["variant"] == "meta-test"
        assert snap["train"]["checkpoint"] == str(src / "checkpoint.ckpt")
        assert not (dst / "resolved.yaml").exists()

    def test_checkpoint_flag_completes_a_meta_test_config(self, tmp_path,
                                                          capsys):
        # the config is checked once --checkpoint has been applied
        src = tmp_path / "src"
        assert cli.main(["train", "--config", str(write_cfg(tmp_path)),
                         "--out", str(src)]) == 0
        cfg = write_cfg(tmp_path, "transfer.yaml",
                        train={"variant": "meta-test"})
        ckpt = str(src / "checkpoint.ckpt")
        dst = tmp_path / "dst"
        assert cli.main(["meta-test", "--config", str(cfg), "--out", str(dst),
                         "--checkpoint", ckpt]) == 0
        snap = yaml.safe_load((dst / "snapshot.yaml").read_text())
        assert snap["train"]["checkpoint"] == ckpt
        capsys.readouterr()
        assert cli.main(["meta-test", "--config", str(cfg),
                         "--out", str(tmp_path / "none")]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "config error: train.variant=meta-test requires train.checkpoint"]
        assert files_under(tmp_path / "none") == []

    def test_erm_checkpoint_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, train={"variant": "erm", "epochs": 1})
        src = tmp_path / "src"
        cli.main(["train", "--config", str(cfg), "--out", str(src)])
        code = cli.main(["meta-test", "--config", str(cfg),
                         "--out", str(tmp_path / "dst"),
                         "--checkpoint", str(src / "checkpoint.ckpt")])
        assert code == 2
        assert files_under(tmp_path / "dst") == []


class TestCompare:
    def test_self_comparison_all_zero(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        cli.main(["train", "--config", str(cfg), "--out", str(out)])
        header, row = cli.compare(out, out)
        assert header[:2] == ["accuracy_a", "accuracy_b"]
        assert len(header) == 2 + 4
        assert all(v == 0.0 for v in row[2:])
        assert row[0] == row[1]

    def test_mismatched_test_sets_rejected(self, tmp_path):
        cfg_a = write_cfg(tmp_path, "a.yaml")
        cfg_b = write_cfg(tmp_path, "b.yaml", dataset={"separation": 5.0})
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        cli.main(["train", "--config", str(cfg_a), "--out", str(out_a)])
        cli.main(["train", "--config", str(cfg_b), "--out", str(out_b)])
        with pytest.raises(Exception):
            cli.compare(out_a, out_b)

    def test_compare_command_writes_csv(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        cli.main(["train", "--config", str(cfg), "--out", str(out)])
        cmp_dir = tmp_path / "cmp"
        assert cli.main(["compare", str(out), str(out),
                         "--out", str(cmp_dir)]) == 0
        assert (cmp_dir / "compare.csv").exists()

    def test_compare_csv_bytes(self, tmp_path):
        # one .10g row, LF line ends; an int accuracy prints as one
        fp = {"C": 2}
        for name, acc, per_class in (("a", 1, [1.0, 0.5]),
                                     ("b", 0.75, [2 / 3, 0.5])):
            (tmp_path / name).mkdir()
            (tmp_path / name / "report.json").write_text(json.dumps(
                {"accuracy": acc, "per_class_accuracy": per_class,
                 "test_fingerprint": fp}))
        cli.compare(tmp_path / "a", tmp_path / "b", tmp_path / "compare.csv")
        assert (tmp_path / "compare.csv").read_bytes() == (
            b"accuracy_a,accuracy_b,delta_class_0,delta_class_1\n"
            b"1,0.75,0.3333333333,0\n")


class TestCurves:
    def test_emits_curves_from_checkpoint(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        cli.main(["train", "--config", str(cfg), "--out", str(out)])
        cdir = tmp_path / "curves"
        code = cli.main(["curves", "--checkpoint", str(out / "checkpoint.ckpt"),
                         "--out", str(cdir),
                         "--dataset", str(out / "train.cmwd")])
        assert code == 0
        # the checkpoint reproduces the run's own figures
        for name in ("weight_curve.csv", "histogram.csv"):
            assert (cdir / name).read_bytes() == (out / name).read_bytes()

    def test_training_set_over_one_row_block(self, tmp_path):
        """curves reproduces histogram.csv when the final losses span more
        than one ROWS-row block."""
        cfg = write_cfg(tmp_path, dataset={"n_per_class": 70})
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert load_dataset(out / "train.cmwd").n > ROWS
        cdir = tmp_path / "curves"
        assert cli.main(["curves", "--checkpoint", str(out / "checkpoint.ckpt"),
                         "--out", str(cdir),
                         "--dataset", str(out / "train.cmwd")]) == 0
        assert ((cdir / "histogram.csv").read_bytes()
                == (out / "histogram.csv").read_bytes())

    def test_erm_checkpoint_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, train={"variant": "erm", "epochs": 1})
        out = tmp_path / "run"
        cli.main(["train", "--config", str(cfg), "--out", str(out)])
        code = cli.main(["curves", "--checkpoint", str(out / "checkpoint.ckpt"),
                         "--out", str(tmp_path / "c")])
        assert code == 2
        assert files_under(tmp_path / "c") == []

    def test_nonfinite_losses_are_numeric_failure(self, tmp_path, capsys):
        """Finite features that overflow the classifier give no histogram:
        exit 3 before anything is written."""
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(write_cfg(tmp_path)),
                         "--out", str(out)]) == 0
        arrays = read_arrays(out / "train.cmwd")
        arrays["features"][:2] = [[1.7e308], [-1.7e308]]
        write_arrays(tmp_path / "overflow.cmwd", arrays)
        capsys.readouterr()
        code = cli.main(["curves", "--checkpoint", str(out / "checkpoint.ckpt"),
                         "--out", str(tmp_path / "c"),
                         "--dataset", str(tmp_path / "overflow.cmwd")])
        assert code == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure: ")
        assert "overflow.cmwd" in err[0]
        assert files_under(tmp_path / "c") == []
