"""Ranking and accuracy metrics plus subject-grouped cross-validation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrityError, MetricError
from .rng import STREAM_FOLD, keyed_rng


def _check_finite(values: np.ndarray, name: str) -> None:
    if not np.isfinite(values).all():
        raise MetricError(f"{name} must be finite")


@dataclass
class PredictionSet:
    """Per-sample model outputs and ground truth for one evaluation block."""

    pspi_probs: np.ndarray    # (N, C), rows sum to 1
    au_pred: np.ndarray       # (N, 6)
    true_pspi: np.ndarray     # (N,)
    true_au: np.ndarray       # (N, 6)
    subject_id: np.ndarray    # (N,)

    def __post_init__(self):
        self.pspi_probs = np.asarray(self.pspi_probs, dtype=np.float64)
        self.au_pred = np.asarray(self.au_pred, dtype=np.float64)
        self.true_au = np.asarray(self.true_au, dtype=np.float64)
        self.true_pspi = np.asarray(self.true_pspi, dtype=np.int64)
        for name in ("pspi_probs", "au_pred", "true_au"):
            _check_finite(getattr(self, name), name)
        row_sums = self.pspi_probs.sum(axis=1)
        if np.any(self.pspi_probs < 0) or np.any(np.abs(row_sums - 1.0) > 1e-6):
            raise MetricError("pspi_probs rows must be nonnegative and sum to 1")

    @property
    def pspi_pred(self) -> np.ndarray:
        # argmax with lowest-index tie-break, which is numpy's behavior
        return self.pspi_probs.argmax(axis=1)


@dataclass
class FoldPlan:
    """Disjoint subject groups covering every subject exactly once."""

    folds: list

    def __post_init__(self):
        seen: set = set()
        for fold in self.folds:
            overlap = seen & set(fold)
            if overlap:
                raise IntegrityError(f"subjects {sorted(overlap)} appear in two folds")
            seen |= set(fold)

    @property
    def subjects(self) -> set:
        return {s for fold in self.folds for s in fold}


def binary_auroc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative, with
    ties counted half; the rank (Mann-Whitney) formulation.

    Each score's rank is the mean of the first and last 1-based positions of
    its value among the sorted scores, found by binary search, so tied scores
    share a rank; the positives' rank sum gives U. Labels equal to 1 are
    positives and all others negatives. Non-finite scores are a MetricError,
    so no order for NaN is ever needed.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise MetricError(
            f"scores and labels must be equal-length vectors, got "
            f"{scores.shape} and {labels.shape}")
    _check_finite(scores, "AUROC scores")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUROC undefined: both classes must be present")
    # every rank is an integer or a half-integer, so exact in float64
    ordered = np.sort(scores)
    ranks = (np.searchsorted(ordered, scores, side="left")
             + np.searchsorted(ordered, scores, side="right") + 1) * 0.5
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def per_class_auroc(probs, labels) -> dict:
    """One-vs-rest AUROC per class, using that class's probability column.
    Classes absent from the labels (or filling them entirely) are skipped."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or labels.shape != (probs.shape[0],):
        raise MetricError(
            f"expected (N, C) probs and (N,) labels, got {probs.shape} and "
            f"{labels.shape}")
    out = {}
    for c in range(probs.shape[1]):
        positives = (labels == c).astype(np.int64)
        if 0 < positives.sum() < labels.size:
            out[c] = binary_auroc(probs[:, c], positives)
    return out


def macro_auroc(probs, labels) -> float:
    """Unweighted mean of the per-class one-vs-rest AUROCs."""
    return _mean_auroc(per_class_auroc(probs, labels))


def _mean_auroc(values: dict) -> float:
    if not values:
        raise MetricError("macro AUROC undefined: no class has both "
                          "positives and negatives")
    return float(np.mean(list(values.values())))


def tolerance_accuracy(preds, labels, tol: int = 0) -> float:
    """Fraction of predictions within ``tol`` score levels of the truth."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.size == 0:
        raise MetricError(
            f"need equal-length non-empty vectors, got {preds.shape} and "
            f"{labels.shape}")
    return float(np.mean(np.abs(preds - labels) <= tol))


def binarize_pspi(labels, threshold: int) -> np.ndarray:
    """Clinical pain/no-pain split: 1 where the score reaches the threshold."""
    labels = np.asarray(labels)
    return (labels >= threshold).astype(np.int64)


def f1_binary(preds, labels) -> float:
    """Harmonic mean of precision and recall; 0 by convention when both are 0."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise MetricError(f"shapes disagree: {preds.shape} vs {labels.shape}")
    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == 0)))
    fn = int(np.sum((preds == 0) & (labels == 1)))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2.0 * tp / (2 * tp + fp + fn)


def _shuffled_subjects(subject_ids, key: tuple) -> list:
    """The distinct subjects, sorted, then permuted by the keyed stream."""
    distinct = sorted(set(subject_ids))
    return [distinct[i] for i in keyed_rng(*key).permutation(len(distinct))]


def subject_kfold(subject_ids, k: int, seed: int) -> FoldPlan:
    """Seeded shuffle of the distinct subjects, then a contiguous partition
    into k folds whose sizes differ by at most one."""
    order = _shuffled_subjects(subject_ids, (seed, STREAM_FOLD))
    if k < 1 or k > len(order):
        raise ConfigError(f"cannot make {k} folds from {len(order)} subjects")
    return FoldPlan(folds=[list(part) for part in np.array_split(order, k)])


def subject_holdout(subject_ids, fraction: float, key: tuple) -> set:
    """Subjects held out of an identity-disjoint split.

    The first round(fraction * n) subjects of the keyed shuffle, at least one
    and never all; nothing when fraction <= 0 or there are fewer than two.
    Each caller passes its own RNG key, so different splits stay independent.
    """
    order = _shuffled_subjects(subject_ids, key)
    if fraction <= 0 or len(order) < 2:
        return set()
    n_held = min(len(order) - 1, max(1, round(fraction * len(order))))
    return set(order[:n_held])


def best_f1_threshold(scores, labels) -> tuple[float, float]:
    """Scan candidate thresholds and return (best F1, threshold achieving it).

    The candidates are 0.5 and every distinct score, and predicting positive
    means ``score >= t``. The true and false positives of every candidate are
    counted at once by binary search in the sorted positive and negative
    scores; labels other than 0 and 1 count as neither class, as in
    ``f1_binary``. The lowest candidate with the highest F1 wins, and
    (0.0, 0.5) is returned when no candidate scores above 0. Non-finite
    scores are a MetricError.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise MetricError(f"shapes disagree: {scores.shape} vs {labels.shape}")
    _check_finite(scores, "F1 scores")
    candidates = np.unique(np.concatenate([[0.5], scores]))
    positives = np.sort(scores[labels == 1])
    negatives = np.sort(scores[labels == 0])
    tp = positives.size - np.searchsorted(positives, candidates, side="left")
    fp = negatives.size - np.searchsorted(negatives, candidates, side="left")
    fn = positives.size - tp
    denom = 2 * tp + fp + fn
    f1 = np.where(denom > 0, 2.0 * tp / np.maximum(denom, 1), 0.0)
    best = int(np.argmax(f1))
    if f1[best] > 0:
        return float(f1[best]), float(candidates[best])
    return 0.0, 0.5


def _metrics_block(pred: PredictionSet, thresholds) -> tuple[dict, dict]:
    """The metrics of one prediction set, and its per-class AUROCs."""
    preds = pred.pspi_pred
    per_class = per_class_auroc(pred.pspi_probs, pred.true_pspi)
    block = {
        "n_samples": int(pred.true_pspi.size),
        "macro_auroc": _mean_auroc(per_class),
        "acc_exact": tolerance_accuracy(preds, pred.true_pspi, 0),
        "acc_tol1": tolerance_accuracy(preds, pred.true_pspi, 1),
        "acc_tol2": tolerance_accuracy(preds, pred.true_pspi, 2),
        "au_mse": float(np.mean((pred.au_pred - pred.true_au) ** 2)),
        "binary": {},
    }
    n_classes = pred.pspi_probs.shape[1]
    for threshold in thresholds:
        labels = binarize_pspi(pred.true_pspi, threshold)
        scores = pred.pspi_probs[:, threshold:n_classes].sum(axis=1)
        entry: dict = {"positive_rate": float(labels.mean())}
        try:
            entry["auroc"] = binary_auroc(scores, labels)
        except MetricError:
            entry["auroc"] = None
        entry["f1_at_0.5"] = f1_binary((scores >= 0.5).astype(np.int64), labels)
        f1_best, t_best = best_f1_threshold(scores, labels)
        entry["f1_best"] = f1_best
        entry["f1_best_threshold"] = t_best
        block["binary"][str(threshold)] = entry
    return block, per_class


def evaluation_report(pred: PredictionSet, fold_plan: FoldPlan | None = None,
                      thresholds=(2, 3)) -> dict:
    """Metrics over the whole set and, when a fold plan is given, per fold
    with an unweighted mean across folds as the aggregate."""
    report: dict = {"thresholds": list(thresholds)}
    report["overall"], per_class = _metrics_block(pred, thresholds)
    report["per_class_auroc"] = {str(c): v for c, v in per_class.items()}
    if fold_plan is None:
        report["aggregate"] = report["overall"]
        report["folds"] = []
        return report

    sample_subjects = set(pred.subject_id.tolist())
    plan_subjects = fold_plan.subjects
    missing = sample_subjects - plan_subjects
    if missing:
        raise IntegrityError(
            f"samples from subjects outside the fold plan: {sorted(missing)[:5]}")
    fold_blocks = []
    for i, fold in enumerate(fold_plan.folds):
        mask = np.isin(pred.subject_id, list(fold))
        if not mask.any():
            raise IntegrityError(f"fold {i} matches no samples")
        sub = PredictionSet(pspi_probs=pred.pspi_probs[mask],
                            au_pred=pred.au_pred[mask],
                            true_pspi=pred.true_pspi[mask],
                            true_au=pred.true_au[mask],
                            subject_id=pred.subject_id[mask])
        block, _ = _metrics_block(sub, thresholds)
        block["fold"] = i
        block["subjects"] = sorted(np.asarray(fold).tolist())
        fold_blocks.append(block)
    report["folds"] = fold_blocks

    agg = {}
    for key in ("macro_auroc", "acc_exact", "acc_tol1", "acc_tol2", "au_mse"):
        agg[key] = float(np.mean([b[key] for b in fold_blocks]))
    agg["binary"] = {}
    for threshold in thresholds:
        key = str(threshold)
        vals = [b["binary"][key]["auroc"] for b in fold_blocks
                if b["binary"][key]["auroc"] is not None]
        agg["binary"][key] = {
            "auroc": float(np.mean(vals)) if vals else None,
            "f1_at_0.5": float(np.mean([b["binary"][key]["f1_at_0.5"]
                                        for b in fold_blocks])),
        }
    report["aggregate"] = agg
    return report
