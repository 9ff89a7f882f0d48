"""The benchmark's three workloads and the layer boundaries it traces.

Each workload drives painforge only through its public entry points
(``build_dataset``, ``train_teacher``, ``train_student``, ``evaluate_model``)
at program defaults: 64 px images, the default tiny ViT, batch 32, one render
worker. Entry points are looked up on their module at call time, so the
tracer's wrappers see them.

Why these workloads:
- ``generate`` renders and writes a dataset and does no tensor or model
  work; about three quarters of it is rasterizing and vertex normals.
- ``train`` trains a heatmap teacher and a distilled RGB student on a fixed
  manifest; forward and backward dominate, and it does no rendering.
- ``evaluate`` runs the same tensor and model code forward-only, plus
  checkpoint reads and the metric battery, with no backward and no optimizer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from painforge import evaluation, fileio, model, training
from painforge.facesynth import dataset, mesh
from painforge.facesynth.au import AUVector, pspi_score

import spans as S

# (span name, where the caller looks the function up, per-call info)
TRACE_TARGETS = [
    ("facesynth.build_dataset", "painforge.facesynth.dataset:build_dataset", None),
    ("facesynth.make_identity_mesh", "painforge.facesynth.dataset:make_identity_mesh", None),
    ("facesynth.apply_au_rig", "painforge.facesynth.dataset:apply_au_rig", None),
    ("facesynth.render_rgb", "painforge.facesynth.dataset:render_rgb", None),
    ("facesynth.render_heatmap", "painforge.facesynth.dataset:render_heatmap", None),
    ("facesynth.skin_albedo", "painforge.facesynth.render:skin_albedo", None),
    ("facesynth.vertex_normals", "painforge.facesynth.render:vertex_normals", None),
    ("facesynth.rasterize", "painforge.facesynth.render:rasterize", None),
]


def _file_bytes(args, kwargs):
    """Size of the tensor file the call wrote or read."""
    return os.path.getsize(args[0])


for _module in ("painforge.facesynth.dataset", "painforge.model"):
    TRACE_TARGETS += [
        ("fileio.save_tensor", f"{_module}:save_tensor", _file_bytes),
        ("fileio.load_tensor", f"{_module}:load_tensor", _file_bytes),
    ]


def _forward_info(args, kwargs):
    """(images in the batch, whether it ran in training mode)."""
    is_training = kwargs.get("training", args[2] if len(args) > 2 else False)
    return len(args[0]), bool(is_training)


TRACE_TARGETS += [
    ("model.forward", "painforge.training:forward", _forward_info),
    ("model.forward", "painforge.model:forward", _forward_info),
    ("model.patch_embed", "painforge.model:patch_embed", None),
    ("model.encoder_forward", "painforge.model:encoder_forward", None),
    ("model.au_cross_attention", "painforge.model:au_cross_attention", None),
    ("model.au_head", "painforge.model:au_head", None),
    ("model.pspi_head", "painforge.model:pspi_head", None),
    ("model.predict", "painforge.training:predict", None),
    ("model.predict", "painforge.evaluation:predict", None),
    ("model.save_checkpoint", "painforge.training:save_checkpoint", None),
    ("model.load_checkpoint", "painforge.training:load_checkpoint", None),
    ("model.load_checkpoint", "painforge.evaluation:load_checkpoint", None),
    ("tensor.backward", "painforge.tensor:Tensor.backward", None),
    ("optim.adamw_step", "painforge.training:adamw_step", None),
    ("training.compose_loss", "painforge.training:compose_loss", None),
    ("training", "painforge.training:train_teacher", None),
    ("training", "painforge.training:train_student", None),
    ("metrics.evaluation_report", "painforge.evaluation:evaluation_report", None),
    ("metrics.subject_kfold", "painforge.evaluation:subject_kfold", None),
    ("evaluation", "painforge.evaluation:evaluate_model", None),
]
# One self_s metric per span name, in the order above.
SPAN_NAMES = list(dict.fromkeys(name for name, _, _ in TRACE_TARGETS))
# Entry-point spans: their self time is the caller's glue around the named
# layers (stacking inputs, loops, manifest writes), not a layer of its own.
ENTRY_SPANS = {"facesynth.build_dataset", "training", "evaluation"}

VIEWS_3 = (-30.0, 0.0, 30.0)
FROZEN_EPOCHS = 1
LR_BACKBONE, LR_HEADS = 3e-4, 3e-3


class CheckFailed(Exception):
    """A pass produced output that fails the workload's correctness checks."""


def clear_template_cache() -> None:
    """Drop the face template caches so every set-up pays for building them."""
    for value in vars(mesh).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


def _hash_files(h, root: Path, rel_paths) -> None:
    for rel in rel_paths:
        h.update(str(rel).encode() + b"\0")
        h.update((root / rel).read_bytes())


def _checkpoint_files(ckpt: Path) -> list:
    return sorted(p.name for p in ckpt.iterdir())


def _train_config(epochs: int, seed: int) -> training.TrainConfig:
    return training.TrainConfig(epochs=epochs, freeze_epochs=FROZEN_EPOCHS,
                                lr_backbone=LR_BACKBONE, lr_heads=LR_HEADS,
                                batch_size=32, seed=seed)


def _training_images(train, *args):
    """Call ``train(*args)``; return its result and the images it trained on.

    Counts the batch sizes of training-mode ``forward`` calls, so the count
    follows the trainer's own split and row rules.
    """
    tracer = S.Tracer([("forward", "painforge.training:forward", _forward_info)])
    tracer.install()
    try:
        with tracer.root("count"):
            result = train(*args)
    finally:
        tracer.uninstall()
    return result, sum(s[S.INFO][0] for s in tracer.spans[1:] if s[S.INFO][1])


class Generate:
    """``build_dataset`` of a fixed spec into a fresh directory per pass."""

    name = "generate"

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = dataset.DatasetSpec(identities=8, expressions_per_identity=4,
                                        views=VIEWS_3, resolution=64, seed=seed)

    @property
    def sizes(self) -> dict:
        return {"identities": self.spec.identities,
                "expressions_per_identity": self.spec.expressions_per_identity,
                "views": list(self.spec.views), "resolution": self.spec.resolution,
                "rgb_frames": self.spec.frames_total,
                "heatmaps": self.spec.heatmaps_total}

    @property
    def images_per_pass(self) -> int:
        return self.spec.frames_total + self.spec.heatmaps_total

    def setup(self, work: Path) -> None:
        clear_template_cache()
        warm = dataclasses.replace(self.spec, identities=1)
        dataset.build_dataset(warm, work / "warmup")

    def run(self, out: Path):
        return dataset.build_dataset(self.spec, out)

    def check(self, out: Path, manifest) -> str:
        rows = fileio.read_manifest(manifest)
        if len(rows) != self.spec.frames_total:
            raise CheckFailed(f"manifest has {len(rows)} rows, "
                              f"expected {self.spec.frames_total}")
        heatmaps = {}
        for row in rows:
            expected = pspi_score(AUVector.from_array(np.asarray(row["au"])))
            if row["pspi"] != expected:
                raise CheckFailed(f"{row['rgb_path']}: pspi {row['pspi']} != {expected}")
            if row["heatmap_path"] is not None:
                heatmaps[row["heatmap_path"]] = any(row["au"])
        if len(heatmaps) != self.spec.heatmaps_total:
            raise CheckFailed(f"{len(heatmaps)} heatmaps, "
                              f"expected {self.spec.heatmaps_total}")
        for rel, active in sorted(heatmaps.items()):
            nonzero = bool(np.any(fileio.load_tensor(out / rel)))
            if nonzero != active:
                raise CheckFailed(f"{rel}: heatmap non-zero={nonzero} but AUs "
                                  f"non-zero={active}")

        h = hashlib.sha256()
        _hash_files(h, out, ["manifest.jsonl"])
        rng = np.random.default_rng(self.seed)
        frames = [rows[i]["rgb_path"] for i in
                  sorted(rng.choice(len(rows), size=16, replace=False))]
        _hash_files(h, out, frames + sorted(heatmaps)[:8])
        return h.hexdigest()


class Train:
    """Teacher, then a distilled student from that teacher, on one manifest."""

    name = "train"
    identities, expressions, views = 40, 4, (0.0,)
    teacher_epochs, student_epochs = 8, 3

    def __init__(self, seed: int):
        self.seed = seed
        self.manifest = None
        self._images = None

    @property
    def sizes(self) -> dict:
        return {"identities": self.identities,
                "expressions_per_identity": self.expressions,
                "views": list(self.views), "resolution": 64,
                "teacher_epochs": self.teacher_epochs,
                "student_epochs": self.student_epochs, "batch_size": 32,
                "model": model.ModelConfig().to_dict()}

    @property
    def images_per_pass(self) -> int:
        return self._images

    def _build_fixture(self, work: Path) -> None:
        clear_template_cache()
        spec = dataset.DatasetSpec(identities=self.identities,
                                   expressions_per_identity=self.expressions,
                                   views=self.views, resolution=64, seed=self.seed)
        self.manifest = dataset.build_dataset(spec, work / "fixture")

    def setup(self, work: Path) -> None:
        self._build_fixture(work)
        # One epoch of each model warms both paths and counts the images an
        # epoch of each trains on.
        (teacher_ckpt, _), teacher_images = _training_images(
            training.train_teacher, self.manifest, work / "warm_teacher",
            model.ModelConfig(), _train_config(1, self.seed))
        _, student_images = _training_images(
            training.train_student, self.manifest, work / "warm_student",
            teacher_ckpt, model.ModelConfig(), _train_config(1, self.seed))
        self._images = (teacher_images * self.teacher_epochs
                        + student_images * self.student_epochs)

    def run(self, out: Path):
        teacher_ckpt, teacher_report = training.train_teacher(
            self.manifest, out / "teacher", model.ModelConfig(),
            _train_config(self.teacher_epochs, self.seed))
        student_ckpt, student_report = training.train_student(
            self.manifest, out / "student", teacher_ckpt, model.ModelConfig(),
            _train_config(self.student_epochs, self.seed))
        return [(teacher_ckpt, teacher_report, 1, self.teacher_epochs),
                (student_ckpt, student_report, 3, self.student_epochs)]

    def check(self, out: Path, trained) -> str:
        h = hashlib.sha256()
        for ckpt, report, channels, epochs in trained:
            params = model.load_checkpoint(ckpt)
            if params.config.in_channels != channels:
                raise CheckFailed(f"{ckpt}: reloaded in_channels "
                                  f"{params.config.in_channels}, expected {channels}")
            if len(report.epochs) != epochs:
                raise CheckFailed(f"{report.role}: {len(report.epochs)} epochs "
                                  f"reported, expected {epochs}")
            for record in report.epochs:
                for key, value in record.items():
                    if key.startswith("loss_") and not math.isfinite(value):
                        raise CheckFailed(f"{report.role} epoch {record['epoch']}: "
                                          f"{key} = {value}")
            _hash_files(h, ckpt, _checkpoint_files(ckpt))
            _hash_files(h, ckpt.parent, ["train_report.jsonl"])
        return h.hexdigest()


class Evaluate(Train):
    """``evaluate_model`` with 5 subject folds for a teacher and a student."""

    name = "evaluate"
    teacher_epochs, student_epochs = 2, 1
    rounds, k_folds = 4, 5

    def __init__(self, seed: int):
        super().__init__(seed)
        self.checkpoints = []

    @property
    def sizes(self) -> dict:
        sizes = super().sizes
        sizes.update(rounds=self.rounds, k_folds=self.k_folds)
        return sizes

    def setup(self, work: Path) -> None:
        self._build_fixture(work)
        trained = super().run(work / "models")
        self.checkpoints = [ckpt for ckpt, *_ in trained]
        reports = self._evaluate_once()
        self._images = self.rounds * sum(r["overall"]["n_samples"] for r in reports)

    def _evaluate_once(self) -> list:
        return [evaluation.evaluate_model(ckpt, self.manifest, k_folds=self.k_folds,
                                          seed=self.seed)
                for ckpt in self.checkpoints]

    def run(self, out: Path):
        return [self._evaluate_once() for _ in range(self.rounds)]

    def check(self, out: Path, rounds) -> str:
        subjects = {r["split_subject_id"] for r in fileio.read_manifest(self.manifest)}
        for report in rounds[0]:
            blocks = [report["overall"], report["aggregate"], *report["folds"]]
            for block in blocks:
                auroc = block["macro_auroc"]
                if not 0.0 <= auroc <= 1.0:
                    raise CheckFailed(f"macro AUROC {auroc} outside [0, 1]")
            seen: set = set()
            for fold in report["folds"]:
                if seen & set(fold["subjects"]):
                    raise CheckFailed(f"fold {fold['fold']} shares subjects "
                                      "with an earlier fold")
                seen |= set(fold["subjects"])
            if len(report["folds"]) != self.k_folds or not seen <= subjects:
                raise CheckFailed("fold plan does not partition the manifest subjects")
        text = json.dumps(rounds[0], sort_keys=True)
        for again in rounds[1:]:
            if json.dumps(again, sort_keys=True) != text:
                raise CheckFailed("repeated evaluation gave a different report")
        return hashlib.sha256(text.encode()).hexdigest()


WORKLOADS = {w.name: w for w in (Generate, Train, Evaluate)}
