"""Checkpoint evaluation against a dataset manifest."""

from __future__ import annotations

from pathlib import Path

from . import tensor as T
from .fileio import read_manifest
from .facesynth.dataset import load_model_inputs
from .metrics import (PredictionSet, check_thresholds, evaluation_report,
                      subject_kfold)
from .model import load_checkpoint, predict


def prediction_set_from_manifest(params, manifest_path,
                                 batch_size: int = 64) -> PredictionSet:
    """Run eval-mode inference over every manifest row the model applies to."""
    manifest_path = Path(manifest_path)
    inputs, pspi, au, subjects = load_model_inputs(
        manifest_path.parent, read_manifest(manifest_path), params.config)
    logits, au_pred, _ = predict(inputs, params, batch_size)
    probs = T.softmax(logits, axis=-1).data
    return PredictionSet(pspi_probs=probs, au_pred=au_pred, true_pspi=pspi,
                         true_au=au, subject_id=subjects)


def evaluate_model(checkpoint_dir, manifest_path, k_folds: int | None = None,
                   thresholds=(2, 3), batch_size: int = 64, seed: int = 0) -> dict:
    """Inference plus the full metric battery, per fold and aggregated.

    With ``k_folds``, the manifest's subjects split into that many folds drawn
    from ``seed``; without, the whole manifest is one block. The thresholds
    are checked against the checkpoint's classes before any data is read.
    """
    params = load_checkpoint(checkpoint_dir)
    check_thresholds(thresholds, params.config.num_classes)
    pred = prediction_set_from_manifest(params, manifest_path, batch_size)
    fold_plan = (None if k_folds is None
                 else subject_kfold(pred.subject_id.tolist(), k_folds, seed))
    report = evaluation_report(pred, fold_plan, thresholds)
    report["checkpoint_config"] = params.config.to_dict()
    return report
