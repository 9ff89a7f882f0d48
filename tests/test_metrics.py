"""Metric correctness against brute-force oracles."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats

from painforge.errors import ConfigError, IntegrityError, MetricError
from painforge.metrics import (FoldPlan, PredictionSet, best_f1_threshold,
                               binarize_pspi, binary_auroc, evaluation_report,
                               f1_binary, macro_auroc, per_class_auroc,
                               subject_holdout, subject_kfold,
                               tolerance_accuracy)
from painforge.rng import STREAM_SPLIT


def pair_counting_auroc(scores, labels):
    """Exhaustive positive-negative pair enumeration with half-credit ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestBinaryAUROC:
    def test_perfect_separation(self):
        assert binary_auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_perfect_inversion(self):
        assert binary_auroc([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1]) == 0.0

    def test_hand_case(self):
        assert binary_auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_single_class_undefined(self):
        with pytest.raises(MetricError):
            binary_auroc([0.1, 0.2], [1, 1])

    def test_matches_pair_counting_exactly(self):
        rng = np.random.default_rng(7)
        for trial in range(200):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.random(n) * 4) / 4
            assert binary_auroc(scores, labels) == pair_counting_auroc(scores, labels)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        base = binary_auroc(scores, labels)
        assert binary_auroc(np.exp(scores), labels) == pytest.approx(base)
        assert binary_auroc(3 * scores + 7, labels) == pytest.approx(base)


class TestNonFiniteScores:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_binary_auroc(self, bad):
        with pytest.raises(MetricError):
            binary_auroc([bad, 0.2, 0.3, 0.1], [1, 0, 1, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_best_f1_threshold(self, bad):
        with pytest.raises(MetricError):
            best_f1_threshold([bad, 0.2, 0.3, 0.1], [1, 0, 1, 0])

    def test_macro_auroc(self):
        probs = np.full((4, 2), 0.5)
        probs[0] = (np.nan, 0.5)
        with pytest.raises(MetricError):
            macro_auroc(probs, np.array([0, 1, 0, 1]))


class TestMacroAUROC:
    def test_one_hot_perfect(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        probs = np.eye(3)[labels]
        assert macro_auroc(probs, labels) == 1.0

    def test_uniform_probabilities_are_chance(self):
        labels = np.array([0, 1, 2, 3, 0, 1])
        probs = np.full((6, 4), 0.25)
        assert macro_auroc(probs, labels) == 0.5

    def test_absent_classes_excluded(self):
        labels = np.array([0, 0, 2, 2])
        probs = np.full((4, 17), 1.0 / 17)
        values = per_class_auroc(probs, labels)
        assert set(values) == {0, 2}

    def test_matches_manual_average_on_hand_case(self):
        probs = np.array([[0.7, 0.3], [0.6, 0.4], [0.2, 0.8], [0.4, 0.6]])
        labels = np.array([0, 0, 1, 1])
        expected = 0.5 * (pair_counting_auroc(probs[:, 0], (labels == 0).astype(int))
                          + pair_counting_auroc(probs[:, 1], (labels == 1).astype(int)))
        assert macro_auroc(probs, labels) == pytest.approx(expected)

    def test_single_class_undefined(self):
        with pytest.raises(MetricError):
            macro_auroc(np.full((3, 4), 0.25), np.array([2, 2, 2]))

    def test_consistent_class_relabeling(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(5), size=40)
        labels = rng.integers(0, 5, size=40)
        perm = np.array([3, 0, 4, 1, 2])
        relabeled = perm[labels]
        permuted_probs = probs[:, np.argsort(perm)]
        assert macro_auroc(probs, labels) == pytest.approx(
            macro_auroc(permuted_probs, relabeled))


class TestToleranceAccuracy:
    def test_hand_case(self):
        preds, labels = [3, 0, 10], [4, 0, 16]
        assert tolerance_accuracy(preds, labels, 0) == pytest.approx(1 / 3)
        assert tolerance_accuracy(preds, labels, 1) == pytest.approx(2 / 3)
        assert tolerance_accuracy(preds, labels, 2) == pytest.approx(2 / 3)

    def test_exact_match(self):
        preds = np.arange(10)
        for tol in (0, 1, 2):
            assert tolerance_accuracy(preds, preds, tol) == 1.0

    def test_empty_undefined(self):
        with pytest.raises(MetricError):
            tolerance_accuracy([], [], 0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16)),
                    min_size=1, max_size=40))
    def test_monotone_in_tolerance(self, pairs):
        preds = [p for p, _ in pairs]
        labels = [l for _, l in pairs]
        a0 = tolerance_accuracy(preds, labels, 0)
        a1 = tolerance_accuracy(preds, labels, 1)
        a2 = tolerance_accuracy(preds, labels, 2)
        assert a0 <= a1 <= a2


class TestBinarize:
    def test_boundary_inclusive(self):
        assert binarize_pspi([3], 3)[0] == 1
        assert binarize_pspi([2], 3)[0] == 0

    def test_positive_rate_bound(self):
        labels = np.array([0] * 80 + [1] * 9 + [5] * 11)
        rate = binarize_pspi(labels, 2).mean()
        assert rate == pytest.approx(0.11)


class TestF1:
    def test_perfect(self):
        assert f1_binary([1, 0, 1], [1, 0, 1]) == 1.0

    def test_hand_case(self):
        # TP=2, FP=1, FN=1
        assert f1_binary([1, 1, 1, 0], [1, 1, 0, 1]) == pytest.approx(2 / 3)

    def test_all_negative_convention(self):
        assert f1_binary([0, 0, 0], [1, 0, 1]) == 0.0

    def test_best_threshold_beats_half(self):
        scores = np.array([0.1, 0.2, 0.3, 0.45, 0.46, 0.47])
        labels = np.array([0, 0, 0, 1, 1, 1])
        best, threshold = best_f1_threshold(scores, labels)
        assert best == 1.0
        assert f1_binary((scores >= 0.5).astype(int), labels) == 0.0


class TestSubjectKFold:
    def test_25_subjects_5_folds(self):
        plan = subject_kfold(list(range(25)), k=5, seed=0)
        assert len(plan.folds) == 5
        assert all(len(f) == 5 for f in plan.folds)
        assert plan.subjects == set(range(25))

    def test_leave_one_out_degenerate(self):
        plan = subject_kfold([10, 11, 12], k=3, seed=0)
        assert sorted(len(f) for f in plan.folds) == [1, 1, 1]

    def test_deterministic(self):
        a = subject_kfold(list(range(25)), 5, seed=3)
        b = subject_kfold(list(range(25)), 5, seed=3)
        assert a.folds == b.folds

    def test_sizes_differ_by_at_most_one(self):
        plan = subject_kfold(list(range(23)), 5, seed=1)
        sizes = sorted(len(f) for f in plan.folds)
        assert sizes[-1] - sizes[0] <= 1

    def test_too_many_folds(self):
        with pytest.raises(ConfigError):
            subject_kfold([1, 2], 3, seed=0)

    def test_duplicate_subject_rejected_in_plan(self):
        with pytest.raises(IntegrityError):
            FoldPlan(folds=[[1, 2], [2, 3]])


# Held-out subjects for (seed, subject count, fraction), recorded from the two
# split implementations that subject_holdout replaced: training validation,
# keyed (seed, STREAM_SPLIT), and the pipeline's test holdout, keyed
# (seed, STREAM_SPLIT, 999). Subject ids are 3i + 1, two rows each.
VALIDATION_SPLITS = {
    (0, 8, 0.2): [1, 7], (1, 8, 0.2): [13, 16], (4, 5, 0.2): [1],
    (7, 2, 0.2): [1], (7, 2, 0.9): [1], (3, 10, 0.5): [1, 13, 16, 19, 25],
    (11, 40, 0.2): [19, 28, 31, 52, 58, 76, 85, 88],
    (5, 64, 0.2): [64, 70, 79, 91, 100, 112, 115, 127, 133, 154, 160, 172, 175],
    (123, 3, 0.1): [4], (2, 1, 0.2): [], (9, 6, 0.0): [],
    (0, 12, 0.34): [7, 10, 22, 25]}
PIPELINE_HOLDOUTS = {
    (0, 8, 0.2): [7, 19], (1, 8, 0.2): [1, 22], (4, 5, 0.2): [4],
    (7, 2, 0.2): [4], (7, 2, 0.9): [4], (3, 10, 0.5): [7, 19, 22, 25, 28],
    (11, 40, 0.2): [28, 37, 43, 55, 70, 88, 91, 109],
    (5, 64, 0.2): [13, 73, 76, 91, 94, 100, 103, 112, 133, 136, 160, 163, 166],
    (123, 3, 0.1): [7], (2, 1, 0.2): [], (0, 12, 0.34): [1, 7, 28, 31]}


def _subject_rows(n):
    return [3 * i + 1 for i in range(n) for _ in range(2)]


class TestSubjectHoldout:
    @pytest.mark.parametrize("case", sorted(VALIDATION_SPLITS))
    def test_validation_split_golden(self, case):
        seed, n, fraction = case
        held = subject_holdout(_subject_rows(n), fraction, (seed, STREAM_SPLIT))
        assert sorted(held) == VALIDATION_SPLITS[case]

    @pytest.mark.parametrize("case", sorted(PIPELINE_HOLDOUTS))
    def test_pipeline_holdout_golden(self, case):
        seed, n, fraction = case
        held = subject_holdout(_subject_rows(n), fraction, (seed, STREAM_SPLIT, 999))
        assert sorted(held) == PIPELINE_HOLDOUTS[case]


def oracle_prediction_set(n=60, classes=17, seed=0):
    rng = np.random.default_rng(seed)
    true = rng.integers(0, classes, size=n)
    probs = np.eye(classes)[true]
    return PredictionSet(pspi_probs=probs, au_pred=np.zeros((n, 6)),
                         true_pspi=true, true_au=np.zeros((n, 6)),
                         subject_id=rng.integers(0, 10, size=n))


class TestEvaluationReport:
    def test_oracle_predictor_scores_one(self):
        pred = oracle_prediction_set()
        report = evaluation_report(pred)
        assert report["overall"]["macro_auroc"] == 1.0
        assert report["overall"]["acc_exact"] == 1.0
        assert report["overall"]["binary"]["2"]["auroc"] == 1.0
        assert report["overall"]["binary"]["3"]["f1_at_0.5"] == 1.0

    def test_uniform_random_predictor_near_half(self):
        values = []
        for seed in range(3):
            rng = np.random.default_rng(seed)
            n = 4000
            true = rng.integers(0, 17, size=n)
            probs = rng.dirichlet(np.ones(17), size=n)
            pred = PredictionSet(pspi_probs=probs, au_pred=np.zeros((n, 6)),
                                 true_pspi=true, true_au=np.zeros((n, 6)),
                                 subject_id=np.zeros(n, dtype=int))
            values.append(macro_auroc(pred.pspi_probs, pred.true_pspi))
        assert abs(np.mean(values) - 0.5) < 0.05

    def test_fold_blocks_and_aggregate(self):
        pred = oracle_prediction_set(n=120)
        plan = subject_kfold(pred.subject_id.tolist(), 5, seed=0)
        report = evaluation_report(pred, plan)
        assert len(report["folds"]) == 5
        assert report["aggregate"]["macro_auroc"] == pytest.approx(
            np.mean([b["macro_auroc"] for b in report["folds"]]))

    def test_argmax_tie_break_lowest_index(self):
        probs = np.array([[0.4, 0.4, 0.2]])
        pred = PredictionSet(pspi_probs=probs, au_pred=np.zeros((1, 6)),
                             true_pspi=np.array([0]), true_au=np.zeros((1, 6)),
                             subject_id=np.array([0]))
        assert pred.pspi_pred[0] == 0

    def test_unplanned_subject_is_integrity_error(self):
        pred = oracle_prediction_set(n=30)
        plan = FoldPlan(folds=[[0, 1, 2]])
        with pytest.raises(IntegrityError):
            evaluation_report(pred, plan)

    @pytest.mark.parametrize("field,bad", [("pspi_probs", np.nan),
                                           ("au_pred", np.nan), ("au_pred", np.inf),
                                           ("true_au", np.nan), ("true_au", -np.inf)])
    def test_non_finite_inputs_rejected(self, field, bad):
        fields = dict(pspi_probs=np.full((2, 3), 1 / 3), au_pred=np.zeros((2, 6)),
                      true_pspi=np.zeros(2, int), true_au=np.zeros((2, 6)),
                      subject_id=np.zeros(2, int))
        fields[field][0, 0] = bad
        with pytest.raises(MetricError, match=field):
            PredictionSet(**fields)

    def test_probs_must_sum_to_one(self):
        with pytest.raises(MetricError):
            PredictionSet(pspi_probs=np.full((2, 3), 0.5),
                          au_pred=np.zeros((2, 6)), true_pspi=np.zeros(2, int),
                          true_au=np.zeros((2, 6)), subject_id=np.zeros(2, int))


# Reference implementations the metric battery must match bit for bit: AUROC
# from scipy's average ranks, and the F1 scan as one f1_binary per candidate.
def rankdata_auroc(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUROC undefined: both classes must be present")
    ranks = sp_stats.rankdata(scores, method="average")
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def loop_best_f1_threshold(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    best = (0.0, 0.5)
    for t in np.unique(np.concatenate([[0.5], scores])):
        f1 = f1_binary((scores >= t).astype(np.int64), labels)
        if f1 > best[0]:
            best = (f1, float(t))
    return best


def random_scores(rng, n):
    """Continuous, quantized (0.5 included) or heavily tied scores."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return rng.random(n)
    if kind == 1:
        return np.round(rng.random(n) * 8) / 8
    return rng.choice(rng.random(3), size=n)


class TestOracleParity:
    def test_binary_auroc_matches_rankdata(self):
        rng = np.random.default_rng(11)
        for _ in range(600):
            n = int(rng.integers(2, 61))
            labels = rng.integers(0, int(rng.integers(2, 4)), size=n)
            labels[:2] = (0, 1)
            scores = random_scores(rng, n)
            assert repr(binary_auroc(scores, labels)) == \
                repr(rankdata_auroc(scores, labels))

    def test_per_class_auroc_matches_rankdata_on_17_columns(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 81))
            labels = rng.integers(0, 17, size=n)
            probs = rng.dirichlet(np.ones(17), size=n)
            if rng.random() < 0.5:
                probs = np.round(probs * 4) / 4
            expected = {}
            for c in range(17):
                positives = (labels == c).astype(np.int64)
                if 0 < positives.sum() < n:
                    expected[c] = rankdata_auroc(probs[:, c], positives)
            assert repr(per_class_auroc(probs, labels)) == repr(expected)

    def test_best_f1_threshold_matches_loop(self):
        rng = np.random.default_rng(13)
        for _ in range(600):
            n = int(rng.integers(0, 61))
            kind = int(rng.integers(0, 3))
            if kind == 0:
                labels = rng.integers(0, 2, size=n)
            elif kind == 1:
                labels = rng.integers(0, 3, size=n)
            else:  # one class only
                labels = np.full(n, int(rng.integers(0, 2)))
            scores = random_scores(rng, n)
            assert repr(best_f1_threshold(scores, labels)) == \
                repr(loop_best_f1_threshold(scores, labels))

    def test_one_class_auroc_undefined_in_both(self):
        for labels in ([0, 0, 0], [1, 1, 1]):
            for fn in (binary_auroc, rankdata_auroc):
                with pytest.raises(MetricError):
                    fn([0.2, 0.5, 0.5], labels)


def test_import_does_not_load_scipy_stats():
    # scipy.stats roughly doubles the import time and resident memory of
    # `import painforge`; the package ranks without it.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import painforge, sys; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def pinned_prediction_set():
    rng = np.random.default_rng(2024)
    n, classes = 160, 17
    true = rng.choice(classes, size=n, p=np.r_[0.5, np.full(16, 0.5 / 16)])
    logits = rng.integers(0, 3, size=(n, classes)) + 2.0 * np.eye(classes)[true]
    continuous = rng.random(n) < 0.5
    logits[continuous] += rng.normal(size=(int(continuous.sum()), classes))
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    return PredictionSet(pspi_probs=probs, au_pred=rng.random((n, 6)) * 5,
                         true_pspi=true, true_au=rng.integers(0, 6, (n, 6)),
                         subject_id=np.arange(n) % 20)


def test_pinned_report_digest():
    # Pins the report bytes themselves, recorded before ranking and the F1
    # scan became array code.
    pred = pinned_prediction_set()
    plan = subject_kfold(pred.subject_id.tolist(), 5, seed=0)
    report = evaluation_report(pred, plan, (2, 3))
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == \
        "2e49636985cba32abae3a60c68d00e08d71ef9c59494377cd5081de7482ee414"


@pytest.mark.parametrize("threshold", [-1, 0, 17, 2.5])
def test_binary_threshold_outside_the_score_range_rejected(threshold):
    # -1 sliced the scores as pspi_probs[:, -1:17], scoring class 16 alone.
    with pytest.raises(ConfigError, match="threshold"):
        evaluation_report(pinned_prediction_set(), None, (2, threshold))
