"""Command-line interface: exit codes, artifacts, reproducibility."""

import json
from pathlib import Path

import numpy as np
import pytest

from painforge.cli import main
from painforge.config import RunConfig, load_config, parse_config_text
from painforge.errors import ConfigError, DataError
from painforge.fileio import (file_sha256, read_manifest, save_tensor,
                              write_manifest)
from painforge.model import (ModelConfig, init_params, load_checkpoint,
                             save_checkpoint)

DEMOS = Path(__file__).resolve().parent.parent / "demos"

TOY_CONFIG = """\
# toy run
seed = 4
dataset.identities = 8
dataset.expressions = 2
dataset.views = 0
dataset.resolution = 32
model.hidden_dim = 32
model.patch_size = 16
model.num_layers = 1
model.num_heads = 2
train.epochs = 2
train.freeze_epochs = 1
train.batch_size = 8
train.lr_backbone = 3e-4
train.lr_heads = 3e-3
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TOY_CONFIG + f"out = {tmp_path / 'run'}\n")
    return path


class TestConfig:
    def test_hash_ignores_order_comments_whitespace(self):
        a = parse_config_text("seed = 3\ntrain.epochs = 7\n")
        b = parse_config_text("# hi\ntrain.epochs=7\n\nseed =   3\n")
        assert a.hash() == b.hash()

    def test_hash_changes_on_value_change(self):
        a = parse_config_text("seed = 3\n")
        b = parse_config_text("seed = 4\n")
        assert a.hash() != b.hash()

    def test_hash_ignores_output_root(self):
        a = parse_config_text("seed = 3\nout = runs/here\n")
        b = parse_config_text("seed = 3\nout = /elsewhere\n")
        assert a.hash() == b.hash()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("dataset.bananas = 7\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("train.epochs = many\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "none.cfg")

    @pytest.mark.parametrize("line", ["train.val_fraction = 1.5",
                                      "train.weight_decay = -1"])
    def test_out_of_range_train_value_rejected_at_parse(self, line):
        with pytest.raises(ConfigError):
            parse_config_text(line + "\n")

    @pytest.mark.parametrize("key, value", [("dataset.pspi_distribution", "1,x"),
                                            ("dataset.views", "0,abc"),
                                            ("dataset.views", "0,120"),
                                            ("dataset.views", "nan"),
                                            ("dataset.resolution", "0")])
    def test_bad_dataset_value_rejected_at_parse(self, key, value):
        with pytest.raises(ConfigError, match=key.split(".")[1]):
            parse_config_text(f"{key} = {value}\n")

    @pytest.mark.parametrize("key, value", [("dataset.pspi_distribution", "1,x"),
                                            ("dataset.views", "0,abc"),
                                            ("dataset.views", "0,120"),
                                            ("dataset.views", "nan")])
    def test_malformed_dataset_value_exits_2(self, tmp_path, capsys, key, value):
        # Replace the key's line: a second line for it is a duplicate-key error.
        toy = "".join(line + "\n" for line in TOY_CONFIG.splitlines()
                      if not line.startswith(key + " "))
        bad = tmp_path / "bad.cfg"
        bad.write_text(toy + f"{key} = {value}\nout = {tmp_path / 'run'}\n")
        assert main(["generate", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    # Each row was accepted at parse time before model.* and the non-finite
    # train and loss values were range-checked there.
    @pytest.mark.parametrize("key, value", [
        ("model.num_heads", "0"), ("model.patch_size", "0"),
        ("model.hidden_dim", "-4"), ("model.num_layers", "-1"),
        ("model.dropout", "1.5"), ("model.dropout", "nan"),
        ("model.mlp_ratio", "0"), ("model.mlp_ratio", "nan"),
        ("train.floor_fraction", "-1"), ("train.floor_fraction", "1.5"),
        ("train.lr_backbone", "nan"), ("train.lr_heads", "inf"),
        ("train.weight_decay", "inf"), ("loss.au", "nan"), ("loss.pspi", "inf"),
        ("loss.temperature", "nan")])
    def test_out_of_range_value_rejected_at_parse(self, tmp_path, capsys, key, value):
        with pytest.raises(ConfigError):
            parse_config_text(f"{key} = {value}\n")
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"{key} = {value}\nout = {tmp_path / 'run'}\n")
        code = main(["train", "--role", "teacher", "--data",
                     str(tmp_path / "manifest.jsonl"), "--config", str(bad)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("config error:")
        assert "Traceback" not in err

    def test_pinned_config_hashes(self):
        # The hash names a run in the ledger; the default table must not drift.
        assert RunConfig.from_mapping({}).hash() == "fe7543574f020022"
        assert load_config(DEMOS / "pipeline.cfg").hash() == "5907f2fb04753e71"

    def test_no_supervised_loss_term_exits_2_before_any_stage(self, config_file,
                                                             tmp_path, capsys):
        config_file.write_text(config_file.read_text()
                               + "loss.pspi = 0\nloss.au = 0\n")
        assert main(["pipeline", "--config", str(config_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "pspi and au" in err
        assert not (tmp_path / "run").exists()

    def test_out_of_range_config_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TOY_CONFIG + "train.val_fraction = 1.5\n")
        code = main(["train", "--role", "teacher", "--data",
                     str(tmp_path / "manifest.jsonl"), "--config", str(bad)])
        assert code == 2
        assert "val_fraction" in capsys.readouterr().err

    def test_typed_views(self, config_file):
        config = load_config(config_file)
        spec = config.dataset_spec()
        assert spec.views == (0.0,)
        assert spec.identities == 8
        model = config.model_config()
        assert model.hidden_dim == 32


class TestGenerate:
    def test_generate_writes_manifest_and_ledger(self, config_file, tmp_path,
                                                 capsys):
        assert main(["generate", "--config", str(config_file)]) == 0
        captured = capsys.readouterr().out
        assert "frames: 24" in captured
        assert "heatmaps: 16" in captured
        run_dir = tmp_path / "run"
        rows = read_manifest(run_dir / "data" / "manifest.jsonl")
        assert len(rows) == 24
        ledger_lines = (run_dir / "ledger.jsonl").read_text().splitlines()
        record = json.loads(ledger_lines[0])
        assert record["stage"] == "generate"
        assert record["outputs"]

    def test_resume_is_noop_with_identical_hash(self, config_file, tmp_path):
        main(["generate", "--config", str(config_file)])
        manifest = tmp_path / "run" / "data" / "manifest.jsonl"
        before = file_sha256(manifest)
        assert main(["generate", "--config", str(config_file), "--resume"]) == 0
        assert file_sha256(manifest) == before

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_non_integer_threads_exits_2(self, config_file, capsys, monkeypatch):
        monkeypatch.setenv("PAINFORGE_THREADS", "abc")
        assert main(["generate", "--config", str(config_file)]) == 2
        err = capsys.readouterr().err
        assert "PAINFORGE_THREADS" in err and "'abc'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_nonpositive_threads_exits_2(self, config_file, capsys, monkeypatch, raw):
        monkeypatch.setenv("PAINFORGE_THREADS", raw)
        assert main(["generate", "--config", str(config_file)]) == 2
        err = capsys.readouterr().err
        assert "PAINFORGE_THREADS" in err and f"got {raw}" in err
        assert "Traceback" not in err

    def test_worker_failure_exits_1(self, config_file, capsys, identity_one_fails):
        assert main(["generate", "--config", str(config_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate"])  # missing --config
        assert exc.value.code == 2


class TestTrainEvaluate:
    @pytest.fixture()
    def generated(self, config_file, tmp_path):
        main(["generate", "--config", str(config_file)])
        return config_file, tmp_path / "run" / "data" / "manifest.jsonl"

    def test_teacher_then_student_then_evaluate(self, generated, tmp_path, capsys):
        config_file, manifest = generated
        assert main(["train", "--role", "teacher", "--data", str(manifest),
                     "--config", str(config_file)]) == 0
        teacher_ckpt = tmp_path / "run" / "train_teacher" / "checkpoint"
        assert (teacher_ckpt / "index.json").exists()

        assert main(["train", "--role", "student", "--data", str(manifest),
                     "--teacher", str(teacher_ckpt),
                     "--config", str(config_file)]) == 0
        student_ckpt = tmp_path / "run" / "train_student" / "checkpoint"

        assert main(["evaluate", "--ckpt", str(student_ckpt),
                     "--data", str(manifest), "--folds", "4",
                     "--thresholds", "2,3"]) == 0
        out = capsys.readouterr().out
        assert "binary @ PSPI >= 2" in out and "binary @ PSPI >= 3" in out
        report = json.loads((student_ckpt.parent / "eval_report.json").read_text())
        assert len(report["folds"]) == 4

    def test_student_without_teacher_is_supervised(self, generated, tmp_path):
        config_file, manifest = generated
        assert main(["train", "--role", "student", "--data", str(manifest),
                     "--config", str(config_file)]) == 0
        report_path = tmp_path / "run" / "train_student" / "train_report.jsonl"
        meta = json.loads(report_path.read_text().splitlines()[0])
        assert meta["role"] == "student_baseline"

    def test_baseline_with_teacher_exits_2(self, generated):
        config_file, manifest = generated
        code = main(["train", "--role", "baseline", "--data", str(manifest),
                     "--teacher", "whatever", "--config", str(config_file)])
        assert code == 2

    def test_student_with_teacher_of_another_resolution_exits_2(self, generated,
                                                                tmp_path, capsys):
        config_file, manifest = generated
        teacher = save_checkpoint(
            init_params(ModelConfig(image_size=64, patch_size=16, hidden_dim=32,
                                    num_layers=1, num_heads=2, in_channels=1), 0),
            tmp_path / "teacher64")
        code = main(["train", "--role", "student", "--data", str(manifest),
                     "--teacher", str(teacher), "--config", str(config_file)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("config error:")
        assert "32x32" in err and "64x64" in err and "Traceback" not in err

    def test_student_with_rgb_teacher_exits_2_before_reading_inputs(
            self, generated, tmp_path, capsys, monkeypatch):
        from painforge import training
        config_file, manifest = generated
        teacher = save_checkpoint(
            init_params(ModelConfig(image_size=32, patch_size=16, hidden_dim=32,
                                    num_layers=1, num_heads=2), 0), tmp_path / "rgb")

        def unreachable(*args, **kwargs):
            raise AssertionError("student inputs were read before the teacher check")

        monkeypatch.setattr(training, "load_model_inputs", unreachable)
        code = main(["train", "--role", "student", "--data", str(manifest),
                     "--teacher", str(teacher), "--config", str(config_file)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("config error:")
        assert f"teacher checkpoint {teacher} takes 3-channel images" in err
        assert not (tmp_path / "run" / "train_student").exists()

    def test_teacher_on_rgb_only_manifest_exits_1(self, generated, tmp_path):
        config_file, manifest = generated
        rows = [r for r in read_manifest(manifest) if r["expression_id"] is None]
        bad = tmp_path / "rgb_only.jsonl"
        write_manifest(bad, rows)
        assert main(["train", "--role", "teacher", "--data", str(bad),
                     "--config", str(config_file)]) == 1

    @pytest.mark.parametrize("key", ["rgb_path", "heatmap_path"])
    @pytest.mark.parametrize("escape", ["absolute", "parent"])
    def test_evaluate_manifest_path_outside_the_root_exits_1(
            self, generated, tmp_path, capsys, key, escape):
        # Either spelling still names the real file, so only the check rejects it.
        _, manifest = generated
        rows = read_manifest(manifest)
        row = next(r for r in rows if r["expression_id"] is not None)
        row[key] = (str(manifest.parent / row[key]) if escape == "absolute"
                    else f"../{manifest.parent.name}/{row[key]}")
        escaped = manifest.parent / "escaped.jsonl"
        write_manifest(escaped, rows)
        ckpt = save_checkpoint(init_params(ModelConfig(image_size=32, hidden_dim=16,
                                                       num_layers=1, num_heads=2), 0),
                               tmp_path / "ckpt")
        code = main(["evaluate", "--ckpt", str(ckpt), "--data", str(escaped)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "Traceback" not in err
        assert key in err and f"identity {row['identity_id']}, expression " \
            f"{row['expression_id']}, view {row['view_id']}" in err
        assert not (ckpt.parent / "eval_report.json").exists()

    def test_evaluate_null_rgb_path_exits_1(self, generated, tmp_path, capsys):
        # Read as a path, None would load as a neutral frame's zero heatmap.
        _, manifest = generated
        rows = read_manifest(manifest)
        rows[1]["rgb_path"] = None
        nulled = manifest.parent / "nulled.jsonl"
        write_manifest(nulled, rows)
        ckpt = save_checkpoint(init_params(ModelConfig(image_size=32, hidden_dim=16,
                                                       num_layers=1, num_heads=2), 0),
                               tmp_path / "ckpt")
        code = main(["evaluate", "--ckpt", str(ckpt), "--data", str(nulled)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "Traceback" not in err
        assert "rgb_path None" in err and f"identity {rows[1]['identity_id']}, " \
            f"expression {rows[1]['expression_id']}, view {rows[1]['view_id']}" in err
        assert not (ckpt.parent / "eval_report.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("identity_id", None), ("view_id", None), ("pspi", None),  # None: no key
        ("au", [0.0, 1.0]), ("au", [float("nan")] * 6), ("au", [-5.0] * 6),
        ("split_subject_id", "a"), ("pspi", 40), ("pspi", 2.0), ("expression_id", True)],
        ids=["no-identity_id", "no-view_id", "no-pspi", "au-of-2", "au-nan",
             "au-negative", "subject-a", "pspi-40", "pspi-2.0", "expression-true"])
    def test_evaluate_malformed_row_exits_1(self, generated, tmp_path, capsys,
                                            key, value):
        _, manifest = generated
        rows = read_manifest(manifest)
        if value is None:
            del rows[2][key]
        else:
            rows[2][key] = value
        broken = manifest.parent / "broken.jsonl"
        write_manifest(broken, rows)
        ckpt = save_checkpoint(init_params(ModelConfig(image_size=32, hidden_dim=16,
                                                       num_layers=1, num_heads=2), 0),
                               tmp_path / "ckpt")
        code = main(["evaluate", "--ckpt", str(ckpt), "--data", str(broken)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "Traceback" not in err
        assert "manifest row 3" in err and key in err and str(broken) in err
        assert not (ckpt.parent / "eval_report.json").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("victim", ["frame", "checkpoint tensor"])
    def test_evaluate_missing_file_exits_1(self, generated, tmp_path, capsys,
                                           monkeypatch, victim, threads):
        # The frame is in the second encode chunk, read on a pool thread at 2.
        _, manifest = generated
        ckpt = save_checkpoint(init_params(ModelConfig(image_size=32, hidden_dim=16,
                                                       num_layers=1, num_heads=2), 0),
                               tmp_path / "ckpt")
        missing = (manifest.parent / read_manifest(manifest)[20]["rgb_path"]
                   if victim == "frame" else ckpt / "pos_embed.p3dt")
        missing.unlink()
        monkeypatch.setenv("PAINFORGE_THREADS", threads)
        code = main(["evaluate", "--ckpt", str(ckpt), "--data", str(manifest)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "Traceback" not in err
        assert f"{missing}: cannot read tensor file" in err
        assert not (ckpt.parent / "eval_report.json").exists()

    def test_evaluate_truncated_checkpoint_tensor_exits_1(self, tmp_path, capsys):
        ckpt = save_checkpoint(init_params(ModelConfig(image_size=32,
                                                       hidden_dim=16,
                                                       num_layers=1,
                                                       num_heads=2), 0),
                               tmp_path / "ckpt")
        victim = ckpt / "patch_proj__w.p3dt"
        victim.write_bytes(victim.read_bytes()[:-3])
        code = main(["evaluate", "--ckpt", str(ckpt),
                     "--data", str(tmp_path / "manifest.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert victim.name in err and "Traceback" not in err

    def test_evaluate_unparsable_checkpoint_index_exits_1(self, tmp_path, capsys):
        ckpt = save_checkpoint(init_params(ModelConfig(image_size=32,
                                                       hidden_dim=16,
                                                       num_layers=1,
                                                       num_heads=2), 0),
                               tmp_path / "ckpt")
        (ckpt / "index.json").write_text("{not json\n")
        code = main(["evaluate", "--ckpt", str(ckpt),
                     "--data", str(tmp_path / "manifest.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert "index.json" in err and "Traceback" not in err

    # Each fault edits the index dict in place, or the checkpoint directory.
    INDEX_FAULTS = {
        "hidden_dim not an integer": lambda ix, d: ix["config"].update(hidden_dim="x"),
        "tensor missing": lambda ix, d: ix["tensors"].pop("pspi_head.w3"),
        "unknown format": lambda ix, d: ix.update(format="v9"),
        "no config": lambda ix, d: ix.pop("config"),
        "unknown config key": lambda ix, d: ix["config"].update(bananas=1),
        "num_layers a float": lambda ix, d: ix["config"].update(num_layers=1.0),
        "hidden_dim a float": lambda ix, d: ix["config"].update(hidden_dim=16.0),
        "num_heads a float": lambda ix, d: ix["config"].update(num_heads=2.0),
        "use_au_queries a string": lambda ix, d: ix["config"].update(use_au_queries="no"),
        "tensor of the wrong shape": lambda ix, d: save_tensor(
            d / ix["tensors"]["pspi_head.w3"]["file"], np.zeros((3, 17))),
    }

    @pytest.mark.parametrize("fault", sorted(INDEX_FAULTS))
    def test_evaluate_malformed_checkpoint_index_exits_1(self, tmp_path, capsys,
                                                         fault):
        ckpt = save_checkpoint(init_params(ModelConfig(image_size=32,
                                                       hidden_dim=16,
                                                       num_layers=1,
                                                       num_heads=2), 0),
                               tmp_path / "ckpt")
        index = json.loads((ckpt / "index.json").read_text())
        self.INDEX_FAULTS[fault](index, ckpt)
        (ckpt / "index.json").write_text(json.dumps(index))
        with pytest.raises(DataError, match="index.json"):
            load_checkpoint(ckpt)
        code = main(["evaluate", "--ckpt", str(ckpt),
                     "--data", str(tmp_path / "manifest.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert "index.json" in err and "Traceback" not in err

    def test_evaluate_non_integer_thresholds_exits_2(self, tmp_path, capsys):
        code = main(["evaluate", "--ckpt", str(tmp_path / "ckpt"),
                     "--data", str(tmp_path / "manifest.jsonl"),
                     "--thresholds", "2,x"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--thresholds" in err and "'2,x'" in err and "Traceback" not in err

    @pytest.mark.parametrize("thresholds", ["-1", "17"])
    def test_evaluate_out_of_range_thresholds_exits_2(self, generated, tmp_path,
                                                      capsys, thresholds):
        _, manifest = generated
        ckpt = save_checkpoint(init_params(ModelConfig(image_size=32, hidden_dim=16,
                                                       num_layers=1, num_heads=2), 0),
                               tmp_path / "ckpt")
        code = main(["evaluate", "--ckpt", str(ckpt), "--data", str(manifest),
                     "--thresholds", thresholds])
        err = capsys.readouterr().err
        assert code == 2
        assert f"thresholds [{thresholds}]" in err and "Traceback" not in err

    @pytest.mark.parametrize("raw, named", [("abc", "'abc'"), ("0", "got 0"),
                                            ("-3", "got -3")])
    def test_evaluate_bad_threads_exits_2(self, generated, tmp_path, capsys,
                                          monkeypatch, raw, named):
        _, manifest = generated
        ckpt = save_checkpoint(init_params(ModelConfig(image_size=32, hidden_dim=16,
                                                       num_layers=1, num_heads=2), 0),
                               tmp_path / "ckpt")
        monkeypatch.setenv("PAINFORGE_THREADS", raw)
        code = main(["evaluate", "--ckpt", str(ckpt), "--data", str(manifest)])
        err = capsys.readouterr().err
        assert code == 2
        assert "PAINFORGE_THREADS" in err and named in err and "Traceback" not in err
        assert not (ckpt.parent / "eval_report.json").exists()

    def test_same_seed_reproduces_checkpoint_bytes(self, generated, tmp_path):
        config_file, manifest = generated
        main(["train", "--role", "teacher", "--data", str(manifest),
              "--config", str(config_file), "--out", str(tmp_path / "a")])
        main(["train", "--role", "teacher", "--data", str(manifest),
              "--config", str(config_file), "--out", str(tmp_path / "b")])
        ck_a = tmp_path / "a" / "train_teacher" / "checkpoint"
        ck_b = tmp_path / "b" / "train_teacher" / "checkpoint"
        for f in sorted(ck_a.iterdir()):
            assert f.read_bytes() == (ck_b / f.name).read_bytes()


class TestPipeline:
    def test_end_to_end_table_and_report(self, tmp_path, capsys):
        config = tmp_path / "p.cfg"
        config.write_text(
            "seed = 1\n"
            "dataset.identities = 8\ndataset.expressions = 2\n"
            "dataset.views = 0\ndataset.resolution = 32\n"
            "model.hidden_dim = 32\nmodel.patch_size = 16\n"
            "model.num_layers = 1\nmodel.num_heads = 2\n"
            "train.epochs = 2\ntrain.freeze_epochs = 1\ntrain.batch_size = 8\n"
            f"out = {tmp_path / 'pipe'}\n")
        assert main(["pipeline", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        for label in ("Baseline", "+AU-Query", "+AU-Query+Heatmap", "Teacher"):
            assert label in out
        final = json.loads((tmp_path / "pipe" / "final_report.json").read_text())
        assert set(final["models"]) == {"baseline", "auquery", "distilled",
                                        "teacher"}
        ledger = (tmp_path / "pipe" / "ledger.jsonl").read_text().splitlines()
        stages = [json.loads(line)["stage"] for line in ledger]
        assert stages[0] == "generate" and "evaluate" in stages

    def test_one_identity_exits_2_before_any_training(self, tmp_path, capsys):
        config = tmp_path / "p.cfg"
        config.write_text(
            "dataset.identities = 1\ndataset.expressions = 1\n"
            "dataset.views = 0\ndataset.resolution = 32\n"
            "model.hidden_dim = 32\nmodel.num_layers = 1\nmodel.num_heads = 2\n"
            "train.epochs = 1\ntrain.freeze_epochs = 0\n"
            f"out = {tmp_path / 'pipe'}\n")
        assert main(["pipeline", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "test split is empty" in err
        assert not list((tmp_path / "pipe").glob("train_*"))
        ledger = (tmp_path / "pipe" / "ledger.jsonl").read_text().splitlines()
        assert [json.loads(line)["stage"] for line in ledger] == ["generate"]

    def test_one_class_test_split_exits_2_before_any_training(self, tmp_path,
                                                               capsys):
        config = tmp_path / "p.cfg"
        config.write_text(
            "dataset.identities = 8\ndataset.expressions = 1\n"
            "dataset.views = 0\ndataset.resolution = 32\n"
            "dataset.pspi_distribution = 1" + ",0" * 16 + "\n"
            "model.hidden_dim = 32\nmodel.num_layers = 1\nmodel.num_heads = 2\n"
            "train.epochs = 1\ntrain.freeze_epochs = 0\n"
            f"out = {tmp_path / 'pipe'}\n")
        assert main(["pipeline", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "the test split holds only PSPI [0]" in err
        assert not list((tmp_path / "pipe").glob("train_*"))
        ledger = (tmp_path / "pipe" / "ledger.jsonl").read_text().splitlines()
        assert [json.loads(line)["stage"] for line in ledger] == ["generate"]

    def test_one_class_teacher_share_exits_2_before_any_training(self, tmp_path,
                                                                  capsys):
        # The test split holds PSPI {0, 10}; its one heatmap frame, PSPI 10.
        config = tmp_path / "p.cfg"
        config.write_text(
            "seed = 1\n"
            "dataset.identities = 4\ndataset.expressions = 1\n"
            "dataset.views = 0\ndataset.resolution = 32\n"
            "model.hidden_dim = 32\nmodel.patch_size = 16\n"
            "model.num_layers = 1\nmodel.num_heads = 2\n"
            "train.epochs = 1\ntrain.freeze_epochs = 0\ntrain.batch_size = 8\n"
            f"out = {tmp_path / 'pipe'}\n")
        assert main(["pipeline", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "the teacher's share of the test split holds only PSPI [10]" in err
        assert not list((tmp_path / "pipe").glob("train_*"))
        ledger = (tmp_path / "pipe" / "ledger.jsonl").read_text().splitlines()
        assert [json.loads(line)["stage"] for line in ledger] == ["generate"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fault, code", [("lr_heads", 1), ("config_error", 2)])
    def test_failure_is_reported_once_with_its_stage(self, tmp_path, capsys,
                                                     monkeypatch, fault, code):
        from painforge import cli
        config = tmp_path / "p.cfg"
        config.write_text(
            "seed = 1\n"
            "dataset.identities = 8\ndataset.expressions = 2\n"
            "dataset.views = 0\ndataset.resolution = 32\n"
            "model.hidden_dim = 32\nmodel.patch_size = 16\n"
            "model.num_layers = 1\nmodel.num_heads = 2\n"
            "train.epochs = 1\ntrain.freeze_epochs = 0\ntrain.batch_size = 8\n"
            + ("train.lr_heads = 1e300\n" if fault == "lr_heads" else "")
            + f"out = {tmp_path / 'pipe'}\n")
        if fault == "config_error":
            def reject(*args, **kwargs):
                raise ConfigError("injected teacher fault")
            monkeypatch.setattr(cli, "train_teacher", reject)
        assert main(["pipeline", "--config", str(config)]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert "pipeline failed at stage train_teacher: " in err[0]
