"""Loss composition, modality pairing, and the training loop contracts."""

import dataclasses
import hashlib
import json
import shutil
import tracemalloc

import numpy as np
import pytest

from painforge import training
from painforge.errors import ConfigError, DataError, DimensionError, NumericError
from painforge.facesynth.dataset import (DatasetSpec, FrameStack, build_dataset,
                                         heatmap_of, load_model_inputs)
from painforge.evaluation import evaluate_model
from painforge.fileio import read_manifest, save_tensor, write_manifest
from painforge.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from painforge.tensor import Tensor
from painforge.training import (LossWeights, TrainConfig, compose_loss,
                                train_student, train_teacher)

WEIGHTS = LossWeights()  # paper defaults: 1.0, 1.0, 0.1, 0.3, 0.5, T=4


def synthetic_outputs(seed, batch=4, n_classes=17, dim=16):
    rng = np.random.default_rng(seed)
    from painforge.model import ModelOutput
    return ModelOutput(
        pspi_logits=Tensor(rng.normal(size=(batch, n_classes))),
        au_pred=Tensor(np.abs(rng.normal(size=(batch, 6)))),
        cls_feature=Tensor(rng.normal(size=(batch, dim))),
        patch_features=Tensor(rng.normal(size=(batch, 3, dim))),
        attention_maps=None)


def teacher_arrays(seed):
    """A teacher triple in the form ``predict`` returns."""
    out = synthetic_outputs(seed)
    return out.pspi_logits.data, out.au_pred.data, out.cls_feature.data


def labels_for(batch=4, seed=0):
    """(PSPI classes, AU intensities) for a batch."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 17, size=batch), np.abs(rng.normal(size=(batch, 6)))


class TestComposeLoss:
    def test_weighted_sum_identity(self):
        student = synthetic_outputs(0)
        teacher = teacher_arrays(1)
        total, terms = compose_loss(student, teacher, *labels_for(), WEIGHTS)
        expected = (1.0 * terms["pspi"] + 1.0 * terms["au"]
                    + 0.1 * terms["pspi_distill"] + 0.3 * terms["au_distill"]
                    + 0.5 * terms["feature_distill"])
        assert total.item() == pytest.approx(expected, abs=1e-6)
        assert terms["total"] == total.item()

    def test_weighted_sum_on_many_random_outputs(self):
        for seed in range(50):
            student = synthetic_outputs(2 * seed)
            teacher = teacher_arrays(2 * seed + 1)
            total, terms = compose_loss(student, teacher, *labels_for(seed=seed),
                                        WEIGHTS)
            expected = sum(getattr(WEIGHTS, k) * terms[k]
                           for k in ("pspi", "au", "pspi_distill", "au_distill",
                                     "feature_distill"))
            assert total.item() == pytest.approx(expected, abs=1e-6)

    def test_distill_terms_vanish_when_student_equals_teacher(self):
        student = synthetic_outputs(3)
        teacher = teacher_arrays(3)
        _, terms = compose_loss(student, teacher, *labels_for(), WEIGHTS)
        assert terms["pspi_distill"] == 0.0
        assert terms["au_distill"] == 0.0
        assert terms["feature_distill"] == 0.0

    def test_teacher_absent_drops_distill_terms(self):
        total, terms = compose_loss(synthetic_outputs(0), None, *labels_for(),
                                    WEIGHTS)
        assert terms["pspi_distill"] == 0.0
        assert total.item() == pytest.approx(terms["pspi"] + terms["au"], abs=1e-6)

    def test_perfect_predictions_near_zero(self):
        student = synthetic_outputs(0)
        logits = np.zeros((4, 17))
        logits[:, 0] = 1e4
        student.pspi_logits = Tensor(logits)
        total, _ = compose_loss(student, None, np.zeros(4, dtype=int),
                                student.au_pred.data.copy(), WEIGHTS)
        assert total.item() < 1e-6

    def test_hand_computed_weighted_sum(self):
        # CE=2.0, AU=0.5, KL=0.1, AU-distill=0.2, feature=0.4
        # -> 1*2.0 + 1*0.5 + 0.1*0.1 + 0.3*0.2 + 0.5*0.4 = 2.77
        total = (1.0 * 2.0 + 1.0 * 0.5 + 0.1 * 0.1 + 0.3 * 0.2 + 0.5 * 0.4)
        assert total == pytest.approx(2.77, abs=1e-12)

    def test_teacher_gradient_absent(self):
        student = synthetic_outputs(0)
        student.pspi_logits = Tensor(student.pspi_logits.data, requires_grad=True)
        teacher = teacher_arrays(1)
        before = [a.tobytes() for a in teacher]
        total, _ = compose_loss(student, teacher, *labels_for(), WEIGHTS)
        total.backward()
        assert student.pspi_logits.grad is not None
        assert [a.tobytes() for a in teacher] == before

    def test_label_shape_mismatch(self):
        student, (pspi, au) = synthetic_outputs(0), labels_for()
        logits, au_pred, feature = teacher_arrays(1)
        for teacher, au_labels in [(None, np.zeros((4, 5))),
                                   ((logits, au_pred[:, :5], feature), au),
                                   ((logits[:, :16], au_pred, feature), au)]:
            with pytest.raises(DimensionError):
                compose_loss(student, teacher, pspi, au_labels, WEIGHTS)

    def test_bad_weights_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(pspi=-1.0)
        with pytest.raises(ConfigError):
            LossWeights(temperature=0.0)
        # Every role trains on the two supervised terms; one must count.
        with pytest.raises(ConfigError, match="pspi and au"):
            LossWeights(pspi=0.0, au=0.0)
        LossWeights(pspi=0.0)
        LossWeights(au=0.0)


class TestTrainConfig:
    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5, float("nan")])
    def test_val_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ConfigError):
            TrainConfig(val_fraction=fraction)

    @pytest.mark.parametrize("decay", [-1.0, float("nan")])
    def test_negative_weight_decay_rejected(self, decay):
        with pytest.raises(ConfigError):
            TrainConfig(weight_decay=decay)

    def test_boundary_values_accepted(self):
        TrainConfig(val_fraction=0.0, weight_decay=0.0)


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("train_data")
    spec = DatasetSpec(identities=6, expressions_per_identity=2,
                       views=(0.0, 25.0), resolution=32, seed=3)
    manifest = build_dataset(spec, out)
    return out, manifest


MODEL32 = ModelConfig(image_size=32, patch_size=16, hidden_dim=32,
                      num_layers=1, num_heads=2)


class TestPairModalities:
    def test_all_views_share_one_heatmap(self, small_data):
        _, manifest = small_data
        by_expr = {}
        for row in read_manifest(manifest):
            if row["expression_id"] is not None:
                key = (row["identity_id"], row["expression_id"])
                by_expr.setdefault(key, set()).add(row["heatmap_path"])
        assert all(len(v) == 1 and None not in v for v in by_expr.values())
        assert len(by_expr) == 12

    def test_neutral_pairs_with_zero(self, small_data):
        _, manifest = small_data
        neutrals = [r for r in read_manifest(manifest) if r["expression_id"] is None]
        assert neutrals
        assert all(r["heatmap_path"] is None and heatmap_of(r) is None
                   for r in neutrals)

    def test_missing_heatmap_is_data_error(self, small_data, tmp_path):
        # The row check runs before any file is read: the root does not exist.
        _, manifest = small_data
        broken = [dict(r) for r in read_manifest(manifest)]
        victim = next(r for r in broken if r["expression_id"] is not None)
        victim["heatmap_path"] = None
        for channels in (3, 1):
            config = dataclasses.replace(MODEL32, in_channels=channels)
            with pytest.raises(DataError) as err:
                load_model_inputs(tmp_path / "missing" / "manifest.jsonl", broken,
                                  config)
            assert (f"identity {victim['identity_id']}, expression "
                    f"{victim['expression_id']}, view {victim['view_id']}"
                    in str(err.value))


class TestTrainTeacher:
    def test_epochs_zero_checkpoint_equals_init(self, small_data, tmp_path):
        _, manifest = small_data
        config = TrainConfig(epochs=0, freeze_epochs=0, seed=7)
        ckpt, report = train_teacher(manifest, tmp_path, model_config=MODEL32,
                                     train_config=config)
        loaded = load_checkpoint(ckpt)
        init = init_params(dataclasses.replace(MODEL32, in_channels=1), 7)
        for name in init.tensors:
            assert np.array_equal(loaded.tensors[name].data,
                                  init.tensors[name].data)

    def test_rgb_only_manifest_is_data_error(self, small_data, tmp_path):
        out, manifest = small_data
        rows = read_manifest(manifest)
        rgb_only = [dict(r) for r in rows if r["expression_id"] is None]
        from painforge.fileio import write_manifest
        bad_manifest = tmp_path / "rgb_only.jsonl"
        write_manifest(bad_manifest, rgb_only)
        with pytest.raises(DataError):
            train_teacher(bad_manifest, tmp_path, model_config=MODEL32,
                          train_config=TrainConfig(epochs=1, freeze_epochs=0))

    def test_loss_trend_decreases(self, small_data, tmp_path):
        _, manifest = small_data
        config = TrainConfig(epochs=8, freeze_epochs=1, lr_backbone=3e-4,
                             lr_heads=3e-3, batch_size=8, seed=0,
                             val_fraction=0.0)
        _, report = train_teacher(manifest, tmp_path, model_config=MODEL32,
                                  train_config=config)
        first = report.epochs[0]["loss_total"]
        last_window = np.mean([r["loss_total"] for r in report.epochs[-3:]])
        assert last_window < first


class TestCheckpointWrite:
    """A run writes its checkpoint once, after the last epoch: the best
    validation epoch, else the final parameters (the initial ones at 0 epochs)."""

    # config, best epoch, sha256 of the checkpoint's (name, bytes) in name order
    RUNS = {
        "validated": (TrainConfig(epochs=5, freeze_epochs=1, lr_backbone=3e-4,
                                  lr_heads=3e-3, batch_size=8, seed=4,
                                  val_fraction=0.5), 1,
                      "3e344905ed9964d197b559cbf8230fdf617d7240d648643961bf1375baea0999"),
        "no validation": (TrainConfig(epochs=2, freeze_epochs=1, batch_size=8, seed=6,
                                      val_fraction=0.0), None,
                          "10d69cfa4ddca5b9af2b1b261bad806e8f479d4b504e6e6405e62bb3ef044907"),
        "zero epochs": (TrainConfig(epochs=0, freeze_epochs=0, seed=6), None,
                        "d379a70a6c92c827c2db6d7efb2db71440d16b2fdc0c22d6bea41b9b645b693f"),
    }

    @pytest.mark.parametrize("run", RUNS)
    def test_one_write_with_the_same_bytes(self, small_data, tmp_path, monkeypatch,
                                           run):
        config, best_epoch, expected = self.RUNS[run]
        _, manifest = small_data
        writes = []
        real_save = training.save_checkpoint

        def spy(params, directory):
            writes.append(directory)
            return real_save(params, directory)

        monkeypatch.setattr(training, "save_checkpoint", spy)
        ckpt, report = train_teacher(manifest, tmp_path, model_config=MODEL32,
                                     train_config=config)
        assert writes == [ckpt]
        # The validated run's best epoch is not its last: later epochs must
        # not leak into the checkpoint.
        assert report.best_epoch == best_epoch
        digest = hashlib.sha256()
        for path in sorted(ckpt.iterdir()):
            digest.update(path.name.encode() + path.read_bytes())
        assert digest.hexdigest() == expected

    def test_run_failing_in_first_epoch_leaves_no_checkpoint(self, small_data,
                                                             tmp_path, monkeypatch):
        _, manifest = small_data

        def overflowing_step(arrays, grads, *args, **kwargs):
            return {n: np.full_like(v, np.inf) for n, v in arrays.items()}

        monkeypatch.setattr(training, "adamw_step", overflowing_step)
        with pytest.raises(NumericError):
            train_teacher(manifest, tmp_path, model_config=MODEL32,
                          train_config=TrainConfig(epochs=2, freeze_epochs=0,
                                                   batch_size=8, seed=1))
        assert not (tmp_path / "checkpoint").exists()


class TestTrainStudent:
    def test_frozen_backbone_is_bit_identical_during_freeze(self, small_data, tmp_path):
        _, manifest = small_data
        config = TrainConfig(epochs=2, freeze_epochs=2, lr_backbone=1e-3,
                             lr_heads=1e-2, batch_size=8, seed=1,
                             val_fraction=0.0)
        ckpt, _ = train_student(manifest, tmp_path, model_config=MODEL32,
                                train_config=config)
        trained = load_checkpoint(ckpt)
        init = init_params(dataclasses.replace(MODEL32, in_channels=3), 1)
        backbone = trained.backbone_names()
        for name in backbone:
            assert np.array_equal(trained.tensors[name].data,
                                  init.tensors[name].data), name
        changed = [name for name in trained.tensors if name not in backbone
                   and not np.array_equal(trained.tensors[name].data,
                                         init.tensors[name].data)]
        assert changed

    def test_frozen_step_gives_backbone_no_gradients(self, small_data, tmp_path,
                                                     monkeypatch):
        _, manifest = small_data
        model_params, updated = [], []
        real_forward, real_step = training.forward, training.adamw_step

        def spy_forward(images, params, *args, **kwargs):
            model_params.append(params)
            return real_forward(images, params, *args, **kwargs)

        def spy_step(arrays, grads, *args, **kwargs):
            params = model_params[-1]
            updated.append((sorted(arrays), sorted(grads),
                            [params.tensors[n].grad is None
                             for n in params.backbone_names()]))
            return real_step(arrays, grads, *args, **kwargs)

        monkeypatch.setattr(training, "forward", spy_forward)
        monkeypatch.setattr(training, "adamw_step", spy_step)
        config = TrainConfig(epochs=2, freeze_epochs=1, batch_size=8, seed=1,
                             val_fraction=0.0)
        train_student(manifest, tmp_path, model_config=MODEL32, train_config=config)

        params = model_params[0]
        everything = sorted(params.tensors)
        heads = sorted(set(everything) - set(params.backbone_names()))
        steps_per_epoch = len(updated) // 2
        assert steps_per_epoch >= 1
        for arrays, grads, backbone_grad_is_none in updated[:steps_per_epoch]:
            assert arrays == grads == heads
            assert all(backbone_grad_is_none)
        for arrays, grads, _ in updated[steps_per_epoch:]:
            assert arrays == grads == everything

    def test_eval_mode_passes_build_no_graph(self, small_data, tmp_path,
                                             monkeypatch):
        # Validation, the teacher precompute and evaluate_model run the model in
        # eval mode; none of their outputs may carry an autodiff graph.
        from painforge import evaluation, model
        _, manifest = small_data
        seen = []

        real_heads = model.heads

        def heads(encoded, params, training=False, *args, **kwargs):
            # cls_feature is a row of the encoder output, so it carries any
            # graph the encoder built.
            out = real_heads(encoded, params, training, *args, **kwargs)
            seen.append((training, [t.requires_grad for t in
                                    (out.pspi_logits, out.au_pred, out.cls_feature)]))
            return out

        # forward and predict both reach the heads through this module name.
        monkeypatch.setattr(model, "heads", heads)
        config = TrainConfig(epochs=1, freeze_epochs=0, batch_size=8, seed=1,
                             val_fraction=0.3)
        teacher_ckpt, _ = train_teacher(manifest, tmp_path / "t",
                                        model_config=MODEL32, train_config=config)
        ckpt, _ = train_student(manifest, tmp_path / "s", teacher_checkpoint=teacher_ckpt,
                                model_config=MODEL32, train_config=config)
        evaluation.evaluate_model(ckpt, manifest)
        eval_grads = [g for is_training, grads in seen if not is_training
                      for g in grads]
        # 2 validations, the teacher precompute, 1 evaluation
        assert sum(1 for is_training, _ in seen if not is_training) >= 4
        assert not any(eval_grads)
        assert all(all(grads) for is_training, grads in seen if is_training)

    def test_a_step_graph_is_freed_before_the_next_forward(self, small_data,
                                                            tmp_path, monkeypatch):
        # Refcounting alone must free the previous step's graph: no gc.collect().
        import weakref
        _, manifest = small_data
        logits, alive_at_start = [], []
        real_forward = training.forward

        def spy_forward(images, params, *args, **kwargs):
            alive_at_start.append([ref() is not None for ref in logits])
            out = real_forward(images, params, *args, **kwargs)
            logits.append(weakref.ref(out.pspi_logits.data))
            return out

        monkeypatch.setattr(training, "forward", spy_forward)
        config = TrainConfig(epochs=2, freeze_epochs=1, batch_size=8, seed=1,
                             val_fraction=0.0)
        train_student(manifest, tmp_path, model_config=MODEL32, train_config=config)
        assert len(alive_at_start) >= 3
        assert not any(any(alive) for alive in alive_at_start)

    def test_non_finite_update_raises_at_that_step(self, small_data, tmp_path,
                                                   monkeypatch):
        _, manifest = small_data
        steps = []

        def overflowing_step(arrays, grads, *args, **kwargs):
            steps.append(1)
            return {n: np.full_like(v, np.inf) for n, v in arrays.items()}

        monkeypatch.setattr(training, "adamw_step", overflowing_step)
        config = TrainConfig(epochs=2, freeze_epochs=0, batch_size=8, seed=1,
                             val_fraction=0.0)
        with pytest.raises(NumericError):
            train_student(manifest, tmp_path, model_config=MODEL32,
                          train_config=config)
        assert len(steps) == 1

    def test_zero_distill_weights_match_supervised_run_exactly(self, small_data,
                                                               tmp_path):
        _, manifest = small_data
        config = TrainConfig(epochs=3, freeze_epochs=1, batch_size=8, seed=5,
                             val_fraction=0.0)
        teacher_ckpt, _ = train_teacher(
            manifest, tmp_path / "teacher", model_config=MODEL32,
            train_config=TrainConfig(epochs=2, freeze_epochs=0, seed=5,
                                     batch_size=8, val_fraction=0.0))
        zero = LossWeights(pspi_distill=0.0, au_distill=0.0, feature_distill=0.0)
        ck_plain, _ = train_student(manifest, tmp_path / "plain",
                                    model_config=MODEL32, train_config=config)
        ck_zero, _ = train_student(manifest, tmp_path / "zero",
                                   teacher_checkpoint=teacher_ckpt,
                                   model_config=MODEL32, train_config=config,
                                   loss_weights=zero)
        a = load_checkpoint(ck_plain)
        b = load_checkpoint(ck_zero)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name].data, b.tensors[name].data), name

    def test_same_seed_bit_identical_checkpoints(self, small_data, tmp_path):
        _, manifest = small_data
        config = TrainConfig(epochs=2, freeze_epochs=1, batch_size=8, seed=9,
                             val_fraction=0.0)
        ck_a, _ = train_student(manifest, tmp_path / "a", model_config=MODEL32,
                                train_config=config)
        ck_b, _ = train_student(manifest, tmp_path / "b", model_config=MODEL32,
                                train_config=config)
        for f in sorted(ck_a.iterdir()):
            assert f.read_bytes() == (ck_b / f.name).read_bytes(), f.name

    def test_hidden_dim_mismatch_with_teacher(self, small_data, tmp_path):
        _, manifest = small_data
        teacher_ckpt, _ = train_teacher(
            manifest, tmp_path / "t", model_config=MODEL32,
            train_config=TrainConfig(epochs=0, freeze_epochs=0, seed=0))
        wide = dataclasses.replace(MODEL32, hidden_dim=64, num_heads=4)
        with pytest.raises(ConfigError):
            train_student(manifest, tmp_path / "s", teacher_checkpoint=teacher_ckpt,
                          model_config=wide,
                          train_config=TrainConfig(epochs=1, freeze_epochs=0))

    def test_lr_trajectory_matches_cosine_schedule(self, small_data, tmp_path):
        from painforge.optim import cosine_lr
        _, manifest = small_data
        config = TrainConfig(epochs=4, freeze_epochs=1, batch_size=8, seed=2,
                             val_fraction=0.0)
        _, report = train_student(manifest, tmp_path, model_config=MODEL32,
                                  train_config=config)
        for record in report.epochs:
            epoch = record["epoch"]
            assert record["lr_backbone"] == cosine_lr(epoch, 4, config.lr_backbone)
            assert record["lr_heads"] == cosine_lr(epoch, 4, config.lr_heads)
            assert record["lr_heads"] / record["lr_backbone"] == pytest.approx(10.0)


def heatmap_teacher(directory, image_size=32):
    """An untrained one-channel checkpoint whose hidden dim matches MODEL32."""
    config = dataclasses.replace(MODEL32, image_size=image_size, in_channels=1)
    return save_checkpoint(init_params(config, 0), directory)


class TestDistillationInputs:
    CONFIG = TrainConfig(epochs=1, freeze_epochs=0, batch_size=8, seed=1,
                         val_fraction=0.0)

    def test_teacher_of_another_resolution_is_a_config_error(self, small_data,
                                                              tmp_path):
        _, manifest = small_data
        teacher = heatmap_teacher(tmp_path / "t64", image_size=64)
        with pytest.raises(ConfigError) as err:
            train_student(manifest, tmp_path / "s", teacher_checkpoint=teacher,
                          model_config=MODEL32, train_config=self.CONFIG)
        assert "32x32" in str(err.value) and "64x64" in str(err.value)

    def test_heatmap_of_another_shape_is_a_data_error(self, small_data, tmp_path):
        out, manifest = small_data
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        heatmaps = list(dict.fromkeys(r["heatmap_path"] for r in read_manifest(manifest)
                                      if r["heatmap_path"]))
        save_tensor(copy / heatmaps[-1], np.zeros((16, 16), np.float32))
        with pytest.raises(DataError, match=heatmaps[-1]):
            train_student(copy / manifest.name, tmp_path / "s",
                          teacher_checkpoint=heatmap_teacher(tmp_path / "t"),
                          model_config=MODEL32, train_config=self.CONFIG)

    def test_all_neutral_manifest_distils_from_the_zero_heatmap(self, small_data,
                                                               tmp_path):
        out, manifest = small_data
        shutil.copytree(out, tmp_path / "data")
        neutral = tmp_path / "data" / "neutral.jsonl"
        write_manifest(neutral, [r for r in read_manifest(manifest)
                                 if r["expression_id"] is None])
        _, report = train_student(neutral, tmp_path / "s",
                                  teacher_checkpoint=heatmap_teacher(tmp_path / "t"),
                                  model_config=MODEL32, train_config=self.CONFIG)
        assert report.role == "student_distilled"
        assert report.epochs[0]["loss_pspi_distill"] > 0.0

    def test_only_training_mode_forward_calls(self, small_data, tmp_path,
                                              monkeypatch):
        # Eval-mode passes, the teacher's included, go through ``predict``.
        _, manifest = small_data
        modes = []
        real_forward = training.forward

        def spy(images, params, training=False, *args, **kwargs):
            modes.append(training)
            return real_forward(images, params, training, *args, **kwargs)

        monkeypatch.setattr(training, "forward", spy)
        train_student(manifest, tmp_path / "s",
                      teacher_checkpoint=heatmap_teacher(tmp_path / "t"),
                      model_config=MODEL32,
                      train_config=dataclasses.replace(self.CONFIG, val_fraction=0.3))
        assert modes and all(modes)

    def test_pinned_distillation_bytes(self, small_data, tmp_path):
        # Pins a teacher -> distilled student -> evaluation run byte for byte:
        # the student's report and checkpoint, and both evaluation reports.
        _, manifest = small_data
        config = TrainConfig(epochs=2, freeze_epochs=1, lr_backbone=3e-4,
                             lr_heads=3e-3, batch_size=8, seed=6, val_fraction=0.3)
        teacher, _ = train_teacher(manifest, tmp_path / "t", model_config=MODEL32,
                                   train_config=config)
        student, _ = train_student(manifest, tmp_path / "s", teacher_checkpoint=teacher,
                                   model_config=MODEL32, train_config=config)
        digest = hashlib.sha256((student.parent / "train_report.jsonl").read_bytes())
        for path in sorted(student.iterdir()):
            digest.update(path.name.encode() + path.read_bytes())
        for ckpt in (teacher, student):
            report = evaluate_model(ckpt, manifest, k_folds=3)
            digest.update(json.dumps(report, sort_keys=True).encode())
        assert digest.hexdigest() == \
            "a704b9b841271e3f3b01601a7efe3305307505cb4509bc4b0e570ed035683201"


class TestTrainReport:
    def test_total_reconstructs_from_terms(self, small_data, tmp_path):
        _, manifest = small_data
        config = TrainConfig(epochs=3, freeze_epochs=0, batch_size=8, seed=4,
                             val_fraction=0.0)
        _, report = train_teacher(manifest, tmp_path, model_config=MODEL32,
                                  train_config=config)
        for record in report.epochs:
            expected = sum(getattr(WEIGHTS, k) * record[f"loss_{k}"]
                           for k in ("pspi", "au", "pspi_distill", "au_distill",
                                     "feature_distill"))
            assert record["loss_total"] == pytest.approx(expected, abs=1e-6)

    def test_report_serialization_is_deterministic(self, small_data, tmp_path):
        _, manifest = small_data
        config = TrainConfig(epochs=2, freeze_epochs=0, batch_size=8, seed=4,
                             val_fraction=0.0)
        _, rep_a = train_teacher(manifest, tmp_path / "a", model_config=MODEL32,
                                 train_config=config)
        _, rep_b = train_teacher(manifest, tmp_path / "b", model_config=MODEL32,
                                 train_config=config)
        assert rep_a.canonical_lines() == rep_b.canonical_lines()
        assert (tmp_path / "a" / "train_report.jsonl").read_bytes() == \
            (tmp_path / "b" / "train_report.jsonl").read_bytes()


def _frame_manifest(root, n, size):
    """A manifest of ``n`` one-view rigged rows, four to a subject, with
    random ``size``-px float32 frames and heatmaps and PSPI cycling over 0-2."""
    rng = np.random.default_rng(5)
    rows = []
    for i in range(n):
        rows.append({"identity_id": i // 4, "expression_id": i % 4, "view_id": 0,
                     "split_subject_id": i // 4, "rgb_path": f"f{i:03d}.p3dt",
                     "heatmap_path": f"h{i:03d}.p3dt", "au": [0.0] * 6,
                     "pspi": i % 3})
        save_tensor(root / rows[-1]["rgb_path"],
                    rng.random((size, size, 3)).astype(np.float32))
        save_tensor(root / rows[-1]["heatmap_path"],
                    rng.random((size, size)).astype(np.float32))
    manifest = root / "manifest.jsonl"
    write_manifest(manifest, rows)
    return manifest


class TestStreamedInputs:
    CONFIG = TrainConfig(epochs=2, freeze_epochs=1, batch_size=8, seed=2)

    def test_no_read_holds_more_than_a_batch_or_an_encode_chunk(self, tmp_path,
                                                                monkeypatch):
        manifest = _frame_manifest(tmp_path, 48, 32)
        sizes = []
        real_getitem = FrameStack.__getitem__

        def spy(stack, key):
            images = real_getitem(stack, key)
            sizes.append(len(images))
            return images

        monkeypatch.setattr(FrameStack, "__getitem__", spy)
        teacher, _ = train_teacher(manifest, tmp_path / "t", model_config=MODEL32,
                                   train_config=self.CONFIG)
        train_student(manifest, tmp_path / "s", teacher_checkpoint=teacher,
                      model_config=MODEL32, train_config=self.CONFIG)
        assert sizes and max(sizes) <= max(self.CONFIG.batch_size, 16), sizes

    def test_training_never_holds_the_input_stack(self, tmp_path, monkeypatch):
        # Each step reads its batch's frames and validation one encode chunk at
        # a time, so a run peaks below the float32 stack of its inputs.
        monkeypatch.setenv("PAINFORGE_THREADS", "1")
        manifest = _frame_manifest(tmp_path, 400, 32)
        stack_bytes = 400 * 32 * 32 * 3 * np.dtype(np.float32).itemsize
        config = dataclasses.replace(self.CONFIG, epochs=1, freeze_epochs=0)
        # The first run's set-up stays out of the peak.
        train_student(manifest, tmp_path / "warm", model_config=MODEL32,
                      train_config=config)
        tracemalloc.start()
        try:
            train_student(manifest, tmp_path / "run", model_config=MODEL32,
                          train_config=config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack_bytes, (peak, stack_bytes)
