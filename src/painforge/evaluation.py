"""Checkpoint evaluation against a dataset manifest."""

from __future__ import annotations

from . import tensor as T
from .fileio import read_manifest
from .facesynth.dataset import load_model_inputs
from .metrics import (PredictionSet, check_thresholds, evaluation_report,
                      subject_kfold)
from .model import load_checkpoint, predict


def evaluate_model(checkpoint_dir, manifest_path, k_folds: int | None = None,
                   thresholds=(2, 3), seed: int = 0) -> dict:
    """Eval-mode inference over every manifest row the model applies to, plus
    the full metric battery, per fold and aggregated.

    With ``k_folds``, the manifest's subjects split into that many folds drawn
    from ``seed``; without, the whole manifest is one block. The thresholds
    are checked against the checkpoint's classes, and the fold plan is made
    from the rows' subjects, before any frame past the lead file is read.
    """
    params = load_checkpoint(checkpoint_dir)
    check_thresholds(thresholds, params.config.num_classes)
    inputs, pspi, au, subjects = load_model_inputs(
        manifest_path, read_manifest(manifest_path), params.config)
    fold_plan = (None if k_folds is None
                 else subject_kfold(subjects.tolist(), k_folds, seed))
    logits, au_pred, _ = predict(inputs, params)
    pred = PredictionSet(pspi_probs=T.softmax(logits, axis=-1).data, au_pred=au_pred,
                         true_pspi=pspi, true_au=au, subject_id=subjects)
    report = evaluation_report(pred, fold_plan, thresholds)
    report["checkpoint_config"] = params.config.to_dict()
    return report
