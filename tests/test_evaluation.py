"""Checkpoint evaluation over manifests."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from painforge import evaluation
from painforge.errors import ConfigError, DataError
from painforge.evaluation import evaluate_model
from painforge.facesynth.dataset import DatasetSpec, build_dataset
from painforge.fileio import read_manifest, save_tensor, write_manifest
from painforge.model import ModelConfig, init_params, save_checkpoint
from painforge.training import TrainConfig, train_teacher

SPEC = DatasetSpec(identities=5, expressions_per_identity=2, views=(0.0,),
                   resolution=32, seed=21)
MODEL32 = ModelConfig(image_size=32, patch_size=16, hidden_dim=32,
                      num_layers=1, num_heads=2)


@pytest.fixture(scope="module")
def data_and_ckpts(tmp_path_factory):
    out = tmp_path_factory.mktemp("eval_data")
    manifest = build_dataset(SPEC, out)
    rgb_params = init_params(MODEL32, 0)
    rgb_ckpt = save_checkpoint(rgb_params, out / "rgb_ckpt")
    heat_params = init_params(dataclasses.replace(MODEL32, in_channels=1), 0)
    heat_ckpt = save_checkpoint(heat_params, out / "heat_ckpt")
    return out, manifest, rgb_ckpt, heat_ckpt


class TestEvaluateModel:
    def test_report_schema(self, data_and_ckpts):
        _, manifest, rgb_ckpt, _ = data_and_ckpts
        report = evaluate_model(rgb_ckpt, manifest, thresholds=(2, 3))
        block = report["overall"]
        for key in ("macro_auroc", "acc_exact", "acc_tol1", "acc_tol2", "binary"):
            assert key in block
        assert set(block["binary"]) == {"2", "3"}
        for entry in block["binary"].values():
            for key in ("auroc", "f1_at_0.5", "f1_best", "f1_best_threshold"):
                assert key in entry
        assert report["per_class_auroc"]
        json.dumps(report)  # must be serializable

    def test_rgb_model_sees_all_frames(self, data_and_ckpts):
        _, manifest, rgb_ckpt, _ = data_and_ckpts
        report = evaluate_model(rgb_ckpt, manifest)
        assert report["overall"]["n_samples"] == SPEC.frames_total

    def test_heatmap_model_sees_expressions_only(self, data_and_ckpts):
        _, manifest, _, heat_ckpt = data_and_ckpts
        report = evaluate_model(heat_ckpt, manifest)
        assert report["overall"]["n_samples"] == SPEC.heatmaps_total

    def test_fold_evaluation(self, data_and_ckpts):
        _, manifest, rgb_ckpt, _ = data_and_ckpts
        report = evaluate_model(rgb_ckpt, manifest, k_folds=5)
        assert len(report["folds"]) == 5
        subjects = [s for block in report["folds"] for s in block["subjects"]]
        assert sorted(subjects) == list(range(5))

    def test_resolution_mismatch_is_config_error(self, data_and_ckpts):
        out, manifest, _, _ = data_and_ckpts
        wrong = ModelConfig(image_size=64, patch_size=16, hidden_dim=32,
                            num_layers=1, num_heads=2)
        ckpt = save_checkpoint(init_params(wrong, 0), out / "wrong_ckpt")
        with pytest.raises(ConfigError):
            evaluate_model(ckpt, manifest)

    @pytest.mark.parametrize("model", ["rgb", "heatmap"])
    def test_rigged_row_without_heatmap_is_data_error(self, data_and_ckpts,
                                                      tmp_path, model):
        out, manifest, rgb_ckpt, heat_ckpt = data_and_ckpts
        rows = read_manifest(manifest)
        victim = next(r for r in rows
                      if r["expression_id"] is not None and r["identity_id"] == 3)
        victim["heatmap_path"] = None
        broken = out / f"broken_{model}.jsonl"
        write_manifest(broken, rows)
        ckpt = rgb_ckpt if model == "rgb" else heat_ckpt
        with pytest.raises(DataError, match="identity 3"):
            evaluate_model(ckpt, broken)

    def test_heatmap_model_on_rgb_only_manifest_is_data_error(self, data_and_ckpts):
        out, manifest, _, heat_ckpt = data_and_ckpts
        rgb_only = out / "rgb_only.jsonl"
        write_manifest(rgb_only, [r for r in read_manifest(manifest)
                                  if r["expression_id"] is None])
        with pytest.raises(DataError):
            evaluate_model(heat_ckpt, rgb_only)

    def test_trained_teacher_beats_chance(self, data_and_ckpts, tmp_path):
        # 10 heatmap samples, evaluated on the training set: the model only
        # has to memorize them, which needs enough steps at this tiny scale.
        out, manifest, _, _ = data_and_ckpts
        config = TrainConfig(epochs=40, freeze_epochs=1, lr_backbone=3e-4,
                             lr_heads=3e-3, batch_size=4, seed=0,
                             val_fraction=0.0)
        ckpt, _ = train_teacher(manifest, tmp_path, model_config=MODEL32,
                                train_config=config)
        report = evaluate_model(ckpt, manifest)
        assert report["overall"]["macro_auroc"] > 0.6

    def test_prediction_set_probs_normalized(self, data_and_ckpts, monkeypatch):
        _, manifest, rgb_ckpt, _ = data_and_ckpts
        seen = []
        report = evaluation.evaluation_report
        monkeypatch.setattr(evaluation, "evaluation_report",
                            lambda pred, *args: seen.append(pred) or report(pred, *args))
        evaluate_model(rgb_ckpt, manifest)
        assert np.allclose(seen[0].pspi_probs.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic_report(self, data_and_ckpts):
        _, manifest, rgb_ckpt, _ = data_and_ckpts
        a = evaluate_model(rgb_ckpt, manifest, k_folds=3, seed=1)
        b = evaluate_model(rgb_ckpt, manifest, k_folds=3, seed=1)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize("thresholds", [(2, 17), (0,), (2.5,)])
    def test_thresholds_checked_before_any_data_is_read(self, data_and_ckpts,
                                                        monkeypatch, thresholds):
        _, manifest, rgb_ckpt, _ = data_and_ckpts

        def unreachable(*args, **kwargs):
            raise AssertionError("inputs were read before the thresholds were checked")

        monkeypatch.setattr(evaluation, "load_model_inputs", unreachable)
        monkeypatch.setattr(evaluation, "predict", unreachable)
        with pytest.raises(ConfigError, match=r"binary thresholds .* must be "
                                              r"integers in \[1, 16\]"):
            evaluate_model(rgb_ckpt, manifest, thresholds=thresholds)

    @pytest.mark.parametrize("k_folds", [0, 6])  # the manifest has 5 subjects
    def test_fold_plan_checked_before_inference(self, data_and_ckpts, monkeypatch,
                                                k_folds):
        _, manifest, rgb_ckpt, _ = data_and_ckpts

        def unreachable(*args, **kwargs):
            raise AssertionError("predict ran before the fold plan was made")

        monkeypatch.setattr(evaluation, "predict", unreachable)
        with pytest.raises(ConfigError, match=f"cannot make {k_folds} folds from 5 "
                                              f"subjects"):
            evaluate_model(rgb_ckpt, manifest, k_folds=k_folds)


def test_inference_never_holds_the_input_stack(tmp_path, monkeypatch):
    # predict reads each encode chunk's frames as it encodes them, so an
    # evaluation pass peaks below the float32 stack of its manifest's inputs.
    monkeypatch.setenv("PAINFORGE_THREADS", "1")
    rng = np.random.default_rng(3)
    rows = []
    for i in range(200):
        rows.append({"identity_id": i // 5, "expression_id": None, "view_id": i % 5,
                     "split_subject_id": i // 5, "rgb_path": f"f{i:03d}.p3dt",
                     "heatmap_path": None, "au": [0.0] * 6, "pspi": 0})
        save_tensor(tmp_path / rows[-1]["rgb_path"],
                    rng.random((64, 64, 3)).astype(np.float32))
    manifest = tmp_path / "manifest.jsonl"
    write_manifest(manifest, rows)
    ckpt = save_checkpoint(init_params(ModelConfig(), 0), tmp_path / "ckpt")
    # One label class has no metrics; the pass measured here is inference.
    monkeypatch.setattr(evaluation, "evaluation_report", lambda *args: {})
    stack_bytes = 200 * 64 * 64 * 3 * np.dtype(np.float32).itemsize
    evaluate_model(ckpt, manifest)  # first-call set-up stays out of the peak
    tracemalloc.start()
    try:
        evaluate_model(ckpt, manifest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes, (peak, stack_bytes)
