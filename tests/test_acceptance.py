"""Acceptance gate: one test per criterion, each at its stated tolerance.

The terminal summary prints one PASS/FAIL line per criterion (see conftest).
Heavier criteria build datasets and train models; the whole module is
designed to stay within its stated per-criterion time budgets on a CPU.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import primitive_chains as chains
from painforge import tensor as T
from painforge.evaluation import evaluate_model
from painforge.facesynth.au import AUVector, pspi_score
from painforge.facesynth.dataset import DatasetSpec, build_dataset
from painforge.facesynth.demographics import reference_config, sample_demographics
from painforge.fileio import (file_sha256, load_tensor, read_manifest, save_tensor,
                              write_manifest)
from painforge.metrics import binary_auroc, subject_kfold, tolerance_accuracy
from painforge.model import (ModelConfig, au_cross_attention, forward,
                             init_params)
from painforge.rng import STREAM_SPLIT, keyed_rng
from painforge.tensor import (Tensor, cross_entropy, dropout, gelu, gradcheck,
                              kl_temperature, layer_norm, mse, relu, softmax)
from painforge.training import (LossWeights, TrainConfig, compose_loss,
                                train_student, train_teacher)


# -- criterion 1: PSPI oracle equivalence --------------------------------------

def test_criterion_1_pspi_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for au4, au6, au7, au9, au10 in itertools.product(range(6), repeat=5):
        for au43 in (0, 1):
            expected = au4 + max(au6, au7) + max(au9, au10) + au43
            assert pspi_score(AUVector(au4, au6, au7, au9, au10, au43)) == expected
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 15552
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


# -- criterion 2: gradient correctness ------------------------------------------

def _square(t):
    return T.mul(t, t)


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)

    # fixed companions so every closure is a pure function of its argument
    mat = Tensor(rng.normal(size=(4, 3)))
    w23 = Tensor(rng.random((2, 3)) + 0.5)
    w6 = Tensor(rng.random(6) + 0.5)
    gamma = Tensor(rng.random(6) + 0.5)
    beta = Tensor(rng.normal(size=6))
    teacher_logits = Tensor(rng.normal(size=(2, 6)))
    mse_target = Tensor(rng.normal(size=(2, 6)))
    lin_w, lin_b = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=3))
    lin_x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    lin_const_x = Tensor(rng.normal(size=(2, 3, 4)))
    w233 = Tensor(rng.random((2, 3, 3)) + 0.5)
    att_q, att_k, att_v = (Tensor(rng.normal(size=(2, 3, 4))) for _ in range(3))
    att_q2 = Tensor(rng.normal(size=(3, 4)))
    w234 = Tensor(rng.random((2, 3, 4)) + 0.5)

    def attention(q, k, v, heads):
        return T.tsum(T.mul(T.attention(q, k, v, heads)[0], w234))

    op_cases = {
        "add": (6, lambda x: T.tsum(T.mul(T.add(x, 1.5), w6))),
        "mul": (6, lambda x: T.tsum(T.mul(x, w6))),
        "matmul": ((2, 4), lambda x: T.tsum(T.mul(chains.matmul(x, mat), w23))),
        "linear": ((2, 3, 4), lambda x: T.tsum(T.mul(T.linear(x, lin_w, lin_b), w233))),
        "linear_weight": ((4, 3), lambda x: T.tsum(
            T.mul(T.linear(lin_x, x, lin_b), w233))),
        "linear_const_input": (15, lambda x: T.tsum(T.mul(T.linear(
            lin_const_x, T.reshape(T.getitem(x, slice(None, 12)), (4, 3)),
            T.getitem(x, slice(12, None))), w233))),
        "sum": (6, lambda x: T.tsum(_square(T.tsum(T.reshape(x, (2, 3)), axis=1)))),
        "reshape_transpose": (6, lambda x: T.tsum(T.mul(
            chains.transpose(T.reshape(x, (2, 3)), (1, 0)),
            chains.transpose(w23, (1, 0))))),
        "getitem": (8, lambda x: T.tsum(T.mul(T.getitem(x, slice(1, 7)), w6))),
        "concat": (6, lambda x: T.tsum(_square(
            T.concat([T.reshape(x, (2, 3)), w23], axis=0)))),
        "broadcast": (6, lambda x: T.tsum(
            T.mul(T.broadcast_to(T.reshape(x, (1, 6)), (3, 6)), 0.7))),
        "softmax": (6, lambda x: T.tsum(T.mul(softmax(T.reshape(x, (2, 3)), -1), w23))),
        "layer_norm": (6, lambda x: T.tsum(
            T.mul(layer_norm(T.reshape(x, (1, 6)), gamma, beta), w6))),
        "relu": (6, lambda x: T.tsum(T.mul(relu(x), w6))),
        "gelu": (6, lambda x: T.tsum(T.mul(gelu(x), w6))),
        "dropout": (6, lambda x: T.tsum(T.mul(
            dropout(x, 0.4, training=True, rng=keyed_rng(5, 0, 1)), w6))),
        "cross_entropy": (6, lambda x: cross_entropy(T.reshape(x, (2, 3)),
                                                     np.array([0, 2]))),
        "kl_temperature": (12, lambda x: kl_temperature(teacher_logits,
                                                        T.reshape(x, (2, 6)), 4.0)),
        "mse": (12, lambda x: mse(T.reshape(x, (2, 6)), mse_target)),
        "attention_q": ((2, 3, 4), lambda x: attention(x, att_k, att_v, 2)),
        "attention_k": ((2, 3, 4), lambda x: attention(att_q, x, att_v, 2)),
        "attention_v": ((2, 3, 4), lambda x: attention(att_q, att_k, x, 2)),
        "attention_q_2d": ((3, 4), lambda x: attention(x, att_k, att_k, 1)),
        "attention_kv_shared": ((2, 3, 4), lambda x: attention(att_q2, x, x, 1)),
    }
    for name, (size, f) in op_cases.items():
        worst = 0.0
        for _ in range(10):
            point = rng.normal(size=size)
            if name == "relu":
                point = point + np.sign(point) * 0.2
            worst = max(worst, gradcheck(f, Tensor(point), h=1e-5))
        assert worst < 1e-4, f"op {name}: max rel err {worst:.3e}"

    # full tiny model: D=16, 1 layer, 4 patches, full loss with distillation
    tiny = ModelConfig(image_size=8, patch_size=4, hidden_dim=16,
                       num_layers=1, num_heads=2)
    params = init_params(tiny, 0)
    for name, t in params.tensors.items():
        params.tensors[name] = Tensor(rng.normal(0.0, 0.4, size=t.shape),
                                      requires_grad=True)
    images = rng.random((2, 8, 8, 3))
    pspi_labels, au_labels = np.array([3, 9]), np.abs(rng.normal(size=(2, 6)))
    teacher = (rng.normal(size=(2, 17)), np.abs(rng.normal(size=(2, 6))),
               rng.normal(size=(2, 16)))
    weights = LossWeights()

    def full_loss_wrt(name):
        def f(x):
            params.tensors[name] = x
            out = forward(images, params, training=False)
            total, _ = compose_loss(out, teacher, pspi_labels, au_labels, weights)
            return total
        return f

    for name in ("cls_token", "au_queries", "pspi_head.w3", "au_head.w1",
                 "blocks.0.attn.wq", "blocks.0.mlp.w1", "patch_proj.w",
                 "pos_embed", "blocks.0.ln1.g"):
        original = params.tensors[name]
        err = gradcheck(full_loss_wrt(name), original, h=1e-5)
        params.tensors[name] = original
        assert err < 1e-4, f"full loss wrt {name}: rel err {err:.3e}"

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


# -- criterion 3: attention equations --------------------------------------------

def scalar_attention_reference(patches, queries):
    batch, n, d = patches.shape
    n_q = queries.shape[0]
    alpha = np.zeros((batch, n_q, n))
    pooled = np.zeros((batch, n_q, d))
    for b in range(batch):
        for i in range(n_q):
            logits = [sum(queries[i][k] * patches[b][j][k] for k in range(d))
                      / math.sqrt(d) for j in range(n)]
            peak = max(logits)
            exps = [math.exp(l - peak) for l in logits]
            denom = sum(exps)
            for j in range(n):
                alpha[b, i, j] = exps[j] / denom
                for k in range(d):
                    pooled[b, i, k] += alpha[b, i, j] * patches[b][j][k]
    return pooled, alpha


def test_criterion_3_attention_equations():
    rng = np.random.default_rng(3)
    for _ in range(100):
        batch = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 6))
        n_q = int(rng.integers(1, 7))
        patches = rng.normal(size=(batch, n, d)) * 2
        queries = rng.normal(size=(n_q, d)) * 2
        pooled, alpha = au_cross_attention(Tensor(patches), Tensor(queries))
        ref_pooled, ref_alpha = scalar_attention_reference(patches, queries)
        assert np.allclose(alpha.data, ref_alpha, atol=1e-10)
        assert np.allclose(pooled.data, ref_pooled, atol=1e-10)
        assert np.all(np.abs(alpha.data.sum(axis=-1) - 1.0) < 1e-5)


# -- criterion 4: loss composition ------------------------------------------------

def test_criterion_4_loss_composition():
    weights = LossWeights()
    assert (weights.pspi, weights.au, weights.pspi_distill, weights.au_distill,
            weights.feature_distill, weights.temperature) == \
        (1.0, 1.0, 0.1, 0.3, 0.5, 4.0)

    from painforge.model import ModelOutput

    def outputs(seed):
        rng = np.random.default_rng(seed)
        return ModelOutput(pspi_logits=Tensor(rng.normal(size=(4, 17))),
                           au_pred=Tensor(np.abs(rng.normal(size=(4, 6)))),
                           cls_feature=Tensor(rng.normal(size=(4, 16))),
                           patch_features=Tensor(rng.normal(size=(4, 2, 16))),
                           attention_maps=None)

    def teacher_arrays(seed):
        out = outputs(seed)
        return out.pspi_logits.data, out.au_pred.data, out.cls_feature.data

    rng = np.random.default_rng(0)
    for seed in range(1000):
        student = outputs(2 * seed)
        teacher = teacher_arrays(2 * seed + 1)
        pspi_labels = rng.integers(0, 17, size=4)
        au_labels = np.abs(rng.normal(size=(4, 6)))
        total, terms = compose_loss(student, teacher, pspi_labels, au_labels,
                                    weights)
        expected = (1.0 * terms["pspi"] + 1.0 * terms["au"]
                    + 0.1 * terms["pspi_distill"] + 0.3 * terms["au_distill"]
                    + 0.5 * terms["feature_distill"])
        assert abs(total.item() - expected) < 1e-6

    student = outputs(77)
    twin = teacher_arrays(77)
    _, terms = compose_loss(student, twin, np.zeros(4, dtype=int),
                            np.zeros((4, 6)), weights)
    assert terms["pspi_distill"] == 0.0
    assert terms["au_distill"] == 0.0
    assert terms["feature_distill"] == 0.0


# -- criterion 5: dataset integrity ------------------------------------------------

@pytest.fixture(scope="module")
def dataset_100(tmp_path_factory):
    spec = DatasetSpec(identities=100, expressions_per_identity=10,
                       views=(-30.0, 0.0, 30.0), resolution=64, seed=42)
    out = tmp_path_factory.mktemp("accept_data")
    start = time.perf_counter()
    manifest = build_dataset(spec, out)
    return spec, out, manifest, time.perf_counter() - start


def test_criterion_5_dataset_integrity(dataset_100, tmp_path):
    spec, out, manifest, build_seconds = dataset_100
    assert build_seconds < 300.0, f"build took {build_seconds:.0f}s"

    rows = read_manifest(manifest)
    assert len(rows) == 3300
    heatmap_paths = {r["heatmap_path"] for r in rows if r["heatmap_path"]}
    assert len(heatmap_paths) == 1000

    for row in rows:
        assert row["pspi"] == pspi_score(AUVector.from_array(np.array(row["au"])))

    for row in rows:
        if row["heatmap_path"] is None:
            continue
        heat = load_tensor(out / row["heatmap_path"])
        if any(row["au"]):
            assert heat.max() > 0, row["heatmap_path"]
        else:
            assert np.all(heat == 0), row["heatmap_path"]

    rerun = build_dataset(spec, tmp_path)
    assert file_sha256(manifest) == file_sha256(rerun)
    rng = np.random.default_rng(0)
    sample_rows = [rows[int(i)] for i in rng.choice(len(rows), size=60,
                                                    replace=False)]
    for row in sample_rows:
        assert file_sha256(out / row["rgb_path"]) == \
            file_sha256(tmp_path / row["rgb_path"])
    for path in list(sorted(heatmap_paths))[:40]:
        assert file_sha256(out / path) == file_sha256(tmp_path / path)


# -- criterion 6: demographics -------------------------------------------------------

def test_criterion_6_demographics_reference_marginals():
    profiles = sample_demographics(reference_config(), seed=0)
    assert len(profiles) == 2500
    age = {g: sum(p.age_group == g for p in profiles) for g in ("Young", "Elderly")}
    assert age == {"Young": 1563, "Elderly": 937}
    gender = {g: sum(p.gender == g for p in profiles) for g in ("Man", "Woman")}
    assert gender == {"Man": 1723, "Woman": 777}
    ethnicity = {g: sum(p.ethnicity == g for p in profiles)
                 for g in ("Latino", "White", "South Asian", "Black",
                           "Middle Eastern", "East Asian")}
    assert ethnicity == {"Latino": 646, "White": 460, "South Asian": 469,
                         "Black": 82, "Middle Eastern": 585, "East Asian": 258}


# -- criterion 7: metric oracles -------------------------------------------------------

def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n) * 5) / 5
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum(1.0 if p > q else (0.5 if p == q else 0.0)
                   for p in pos for q in neg)
        assert binary_auroc(scores, labels) == wins / (len(pos) * len(neg))

    for _ in range(1000):
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, 17, size=n)
        labels = rng.integers(0, 17, size=n)
        a0 = tolerance_accuracy(preds, labels, 0)
        a1 = tolerance_accuracy(preds, labels, 1)
        a2 = tolerance_accuracy(preds, labels, 2)
        assert a0 <= a1 <= a2

    plan = subject_kfold(list(range(25)), k=5, seed=3)
    assert len(plan.folds) == 5
    assert all(len(fold) == 5 for fold in plan.folds)
    seen = set()
    for fold in plan.folds:
        assert not (seen & set(fold)), "subject leaked across folds"
        seen |= set(fold)
    assert seen == set(range(25))


# -- criterion 8: directional replication ----------------------------------------------

@pytest.fixture(scope="module")
def desk_scale_data(tmp_path_factory):
    spec = DatasetSpec(identities=256, expressions_per_identity=4,
                       views=(0.0,), resolution=64, seed=8)
    out = tmp_path_factory.mktemp("desk_data")
    manifest = build_dataset(spec, out)
    rows = read_manifest(manifest)
    subjects = sorted({r["split_subject_id"] for r in rows})
    order = [subjects[i] for i in
             keyed_rng(8, STREAM_SPLIT, 404).permutation(len(subjects))]
    test_subjects = set(order[:round(0.2 * len(subjects))])
    train_manifest = out / "manifest_train.jsonl"
    test_manifest = out / "manifest_test.jsonl"
    write_manifest(train_manifest,
                   [r for r in rows if r["split_subject_id"] not in test_subjects])
    write_manifest(test_manifest,
                   [r for r in rows if r["split_subject_id"] in test_subjects])
    return out, train_manifest, test_manifest


def test_criterion_8_directional_replication(desk_scale_data):
    out, train_manifest, test_manifest = desk_scale_data
    model_config = ModelConfig(image_size=64, patch_size=16, hidden_dim=64,
                               num_layers=2, num_heads=4)
    teacher_scores, baseline_scores, distilled_scores = [], [], []
    for seed in (0, 1, 2):
        teacher_tc = TrainConfig(epochs=25, freeze_epochs=3, lr_backbone=3e-4,
                                 lr_heads=3e-3, batch_size=32, seed=seed)
        student_tc = TrainConfig(epochs=15, freeze_epochs=3, lr_backbone=3e-4,
                                 lr_heads=3e-3, batch_size=32, seed=seed)

        start = time.perf_counter()
        teacher_ckpt, _ = train_teacher(train_manifest, out / f"t{seed}",
                                        model_config=model_config,
                                        train_config=teacher_tc)
        assert time.perf_counter() - start < 900, "teacher run over budget"
        teacher_scores.append(
            evaluate_model(teacher_ckpt, test_manifest)["overall"]["macro_auroc"])

        start = time.perf_counter()
        baseline_ckpt, _ = train_student(train_manifest, out / f"b{seed}",
                                         model_config=model_config,
                                         train_config=student_tc)
        assert time.perf_counter() - start < 900, "baseline run over budget"
        baseline_scores.append(
            evaluate_model(baseline_ckpt, test_manifest)["overall"]["macro_auroc"])

        start = time.perf_counter()
        distilled_ckpt, _ = train_student(train_manifest, out / f"d{seed}",
                                          teacher_checkpoint=teacher_ckpt,
                                          model_config=model_config,
                                          train_config=student_tc)
        assert time.perf_counter() - start < 900, "distilled run over budget"
        distilled_scores.append(
            evaluate_model(distilled_ckpt, test_manifest)["overall"]["macro_auroc"])

    teacher_mean = float(np.mean(teacher_scores))
    baseline_mean = float(np.mean(baseline_scores))
    distilled_mean = float(np.mean(distilled_scores))
    print("\ncriterion 8 macro AUROC over 3 seeds:")
    print(f"  teacher:   {teacher_scores} mean={teacher_mean:.4f}")
    print(f"  baseline:  {baseline_scores} mean={baseline_mean:.4f}")
    print(f"  distilled: {distilled_scores} mean={distilled_mean:.4f}")

    assert teacher_mean >= 0.85, f"teacher mean {teacher_mean:.4f} < 0.85"
    assert distilled_mean >= baseline_mean, (
        f"distilled {distilled_mean:.4f} < baseline {baseline_mean:.4f}")
    assert teacher_mean > baseline_mean and teacher_mean > distilled_mean


# -- criterion 9: determinism and serialization ------------------------------------------

def test_criterion_9_determinism_and_serialization(tmp_path):
    # tensor files: byte-exact round trip, explicit little-endian layout
    rng = np.random.default_rng(0)
    for dtype in (np.float32, np.float64, np.uint8):
        arr = (rng.random((5, 7)) * 200).astype(dtype)
        p1, p2 = tmp_path / f"a_{dtype.__name__}", tmp_path / f"b_{dtype.__name__}"
        save_tensor(p1, arr)
        save_tensor(p2, load_tensor(p1))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes()[:4] == b"P3DT"
    raw = (tmp_path / "a_float32").read_bytes()
    assert np.frombuffer(raw[8:16], dtype="<u4").tolist() == [5, 7]

    # manifests: same seed, byte-identical
    spec = DatasetSpec(identities=3, expressions_per_identity=2, views=(0.0,),
                       resolution=32, seed=15)
    m1 = build_dataset(spec, tmp_path / "d1")
    m2 = build_dataset(spec, tmp_path / "d2")
    assert m1.read_bytes() == m2.read_bytes()

    # checkpoints and training reports: same seed, bit-identical
    model_config = ModelConfig(image_size=32, patch_size=16, hidden_dim=32,
                               num_layers=1, num_heads=2)
    config = TrainConfig(epochs=2, freeze_epochs=1, batch_size=8, seed=33,
                         val_fraction=0.0)
    ck1, _ = train_student(m1, tmp_path / "r1", model_config=model_config,
                           train_config=config)
    ck2, _ = train_student(m2, tmp_path / "r2", model_config=model_config,
                           train_config=config)
    for f in sorted(ck1.iterdir()):
        assert f.read_bytes() == (ck2 / f.name).read_bytes(), f.name
    assert (tmp_path / "r1" / "train_report.jsonl").read_bytes() == \
        (tmp_path / "r2" / "train_report.jsonl").read_bytes()

    # evaluation reports: identical JSON for identical inputs
    rep1 = evaluate_model(ck1, m1, k_folds=3, seed=1)
    rep2 = evaluate_model(ck2, m2, k_folds=3, seed=1)
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
