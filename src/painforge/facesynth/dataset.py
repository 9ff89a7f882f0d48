"""Deterministic, resumable dataset generation.

Every identity derives its own seed stream, so generation is reproducible
per identity and identities can be rendered in parallel. A run writes one
tensor file per frame (RGB) plus one frontal heatmap per expression, then a
line-oriented JSON manifest tying frames to labels and demographics.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError, DataError
from ..fileio import load_tensor, save_tensor, write_manifest
from ..rng import STREAM_PSPI_TARGET, derive_seed, keyed_rng
from .au import NUM_PSPI_CLASSES, AUVector, pspi_score, sample_au_config
from .demographics import (DemographicProfile, reference_config,
                           sample_demographics, scale_config)
from .mesh import apply_au_rig, make_identity_mesh
from .render import render_heatmap, render_rgb, skin_albedo

if TYPE_CHECKING:
    from ..model import ModelConfig

DEFAULT_VIEWS = (-30.0, 0.0, 30.0)
HEATMAP_YAW = 0.0  # heatmaps are rendered at the frontal view only


@dataclass(frozen=True)
class DatasetSpec:
    identities: int = 8
    expressions_per_identity: int = 2
    views: tuple = DEFAULT_VIEWS
    resolution: int = 64
    pspi_distribution: tuple = tuple([1.0 / NUM_PSPI_CLASSES] * NUM_PSPI_CLASSES)
    seed: int = 0

    def __post_init__(self):
        if self.identities < 1 or self.expressions_per_identity < 1:
            raise ConfigError("identity and expression counts must be >= 1")
        if len(self.views) < 1:
            raise ConfigError("need at least one camera view")
        if self.resolution < 1:
            raise ConfigError(f"resolution must be >= 1, got {self.resolution}")
        dist = np.asarray(self.pspi_distribution, dtype=float)
        if dist.shape != (NUM_PSPI_CLASSES,):
            raise ConfigError(
                f"pspi_distribution needs {NUM_PSPI_CLASSES} entries, got {dist.shape}")
        if np.any(dist < 0) or abs(dist.sum() - 1.0) > 1e-9:
            raise ConfigError("pspi_distribution must be nonnegative and sum to 1")

    @property
    def frames_total(self) -> int:
        return self.identities * (self.expressions_per_identity + 1) * len(self.views)

    @property
    def heatmaps_total(self) -> int:
        return self.identities * self.expressions_per_identity


@dataclass
class Sample:
    """One dataset record, fully materialized in memory."""

    identity_id: int
    view_id: int
    camera_yaw: float
    rgb: np.ndarray
    au: AUVector
    pspi: int
    demographic: DemographicProfile
    heatmap: np.ndarray | None = None
    expression_id: int | None = None


def _expression_plan(seed: int, identity: int, count: int,
                     distribution) -> list[AUVector]:
    rng = keyed_rng(seed, STREAM_PSPI_TARGET, identity)
    dist = np.asarray(distribution, dtype=float)
    targets = rng.choice(NUM_PSPI_CLASSES, size=count, p=dist / dist.sum())
    return [sample_au_config(int(t), derive_seed(seed, 23, identity, e))
            for e, t in enumerate(targets)]


def _identity_rows(spec: DatasetSpec, identity: int,
                   profile: DemographicProfile, plan: list[AUVector]) -> list[dict]:
    """Manifest rows of one identity; the only place that names its files."""
    def row(expression_id, view_id, au):
        stem = f"id{identity:05d}_" + (
            "neutral" if expression_id is None else f"x{expression_id:03d}")
        return {
            "identity_id": identity,
            "expression_id": expression_id,
            "view_id": view_id,
            "camera_yaw": float(spec.views[view_id]),
            "rgb_path": f"frames/{stem}_v{view_id}.p3dt",
            "heatmap_path": None if expression_id is None else f"heatmaps/{stem}.p3dt",
            "au": [float(x) for x in au.as_array()],
            "pspi": pspi_score(au),
            "age_group": profile.age_group,
            "ethnicity": profile.ethnicity,
            "gender": profile.gender,
            "split_subject_id": identity,
        }

    expressions = [(None, AUVector())] + list(enumerate(plan))
    return [row(e, view, au) for e, au in expressions
            for view in range(len(spec.views))]


def _render_identity(spec: DatasetSpec, profile: DemographicProfile,
                     plan: list[AUVector], rows: list[dict], out_dir: str) -> None:
    """Render and write every file the identity's rows name.

    Rows come grouped by expression, neutral first, so each expression is
    rigged and its heatmap rendered once, at its first row. The rig keeps the
    wrinkle amplitude, so one skin albedo serves every frame.
    """
    out = Path(out_dir)
    mesh = make_identity_mesh(profile)
    albedo = skin_albedo(profile, mesh.wrinkle_amplitude)
    expression, posed = None, mesh
    for row in rows:
        if row["expression_id"] != expression:
            expression = row["expression_id"]
            posed = apply_au_rig(mesh, plan[expression])
            heat = render_heatmap(mesh, posed, HEATMAP_YAW, spec.resolution)
            save_tensor(out / row["heatmap_path"], heat.astype(np.float32))
        img = render_rgb(posed, profile, spec.views[row["view_id"]], spec.resolution,
                         albedo=albedo)
        save_tensor(out / row["rgb_path"], img.astype(np.float32))


def _render_identity_star(args) -> None:
    _render_identity(*args)


def _default_workers() -> int:
    """``PAINFORGE_THREADS`` if set, else the CPUs this process may run on."""
    raw = os.environ.get("PAINFORGE_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"PAINFORGE_THREADS must be an integer, got {raw!r}") from exc


def build_dataset(spec: DatasetSpec, out_dir, demographics: dict | None = None,
                  resume: bool = False, workers: int | None = None):
    """Render the full dataset and write its manifest; returns the manifest path.

    With ``resume`` set, identities whose files all exist are skipped; content
    is deterministic per identity so a resumed build is byte-identical to an
    uninterrupted one. ``workers`` defaults to ``PAINFORGE_THREADS``, else to
    the number of CPUs this process may run on, and must be at least 1. It is
    capped at the number of identities left to render; with one, they render
    in this process, otherwise in a pool of worker processes. The bytes are
    the same either way. A worker process that dies raises ``DataError``.
    """
    if workers is None:
        workers = _default_workers()
    if workers < 1:
        raise ConfigError(
            f"the worker count (PAINFORGE_THREADS) must be >= 1, got {workers}")
    out = Path(out_dir)
    try:
        (out / "frames").mkdir(parents=True, exist_ok=True)
        (out / "heatmaps").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc}") from exc

    config = demographics if demographics is not None else \
        scale_config(reference_config(), spec.identities)
    profiles = sample_demographics(config, spec.seed)
    if len(profiles) != spec.identities:
        raise ConfigError(
            f"demographics config yields {len(profiles)} identities, "
            f"spec wants {spec.identities}")

    plans = [_expression_plan(spec.seed, i, spec.expressions_per_identity,
                              spec.pspi_distribution)
             for i in range(spec.identities)]
    rows = [_identity_rows(spec, i, profiles[i], plans[i])
            for i in range(spec.identities)]

    pending = []
    for i in range(spec.identities):
        files = [p for r in rows[i] for p in (r["rgb_path"], r["heatmap_path"]) if p]
        if resume and all((out / p).exists() for p in files):
            continue
        pending.append((spec, profiles[i], plans[i], rows[i], str(out)))

    workers = min(workers, len(pending))
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for _ in pool.map(_render_identity_star, pending):
                    pass
        except BrokenProcessPool as exc:
            raise DataError(
                f"a dataset worker process died while building {out}: {exc}") from exc
    else:
        for task in pending:
            _render_identity_star(task)

    manifest_path = out / "manifest.jsonl"
    write_manifest(manifest_path, [row for identity in rows for row in identity])
    return manifest_path


def load_rgb(root, row: dict) -> np.ndarray:
    return load_tensor(Path(root) / row["rgb_path"]).astype(np.float64)


def load_heatmap(root, row: dict, resolution: int) -> np.ndarray:
    """The row's heatmap, or an all-zero one for neutral frames."""
    if row["heatmap_path"] is None:
        return np.zeros((resolution, resolution))
    return load_tensor(Path(root) / row["heatmap_path"]).astype(np.float64)


def pair_modalities(rows: list[dict]) -> list[tuple[dict, str | None]]:
    """Pair every RGB frame with its expression's frontal heatmap path.

    Neutral frames pair with None, meaning an all-zero heatmap. A rigged frame
    without a heatmap path is a corrupt manifest and raises DataError.
    """
    pairs = []
    for row in rows:
        if row["expression_id"] is None:
            pairs.append((row, None))
        elif row["heatmap_path"]:
            pairs.append((row, row["heatmap_path"]))
        else:
            raise DataError(
                "manifest row is missing its heatmap: identity "
                f"{row['identity_id']}, expression {row['expression_id']}, "
                f"view {row['view_id']}")
    return pairs


def _load_stacked(root, paths: list[str], channel_axis: bool) -> np.ndarray:
    """Tensor files of one shape as a float64 stack, optionally with a trailing
    channel axis. Each file is cast into a preallocated array, so the images
    are never held twice (as a list and as its stack)."""
    if not paths:
        raise DataError("manifest has no rows to load")
    first = load_tensor(Path(root) / paths[0])
    shape = first.shape + ((1,) if channel_axis else ())
    stacked = np.empty((len(paths),) + shape)
    for i, path in enumerate(paths):
        image = first if i == 0 else load_tensor(Path(root) / path)
        if image.shape != first.shape:
            raise DataError(f"{path}: shape {image.shape} differs from "
                            f"{first.shape} of {paths[0]}")
        stacked[i] = image.reshape(shape)
    return stacked


def load_model_inputs(root, rows: list[dict], config: ModelConfig):
    """Model inputs and labels from manifest rows: (inputs, pspi, au, subjects).

    RGB models see every row. Heatmap models (one channel) see one frontal
    heatmap per (identity, expression), first row in manifest order; neutral
    rows have none. A rigged row without its heatmap is a DataError for both,
    as is a manifest without heatmaps for a heatmap model, or images of
    different shapes. Images that do not match the model's resolution are a
    ConfigError.
    """
    size = config.image_size
    pairs = pair_modalities(rows)
    if config.in_channels == 1:
        first = {}
        for row, heatmap in pairs:
            if heatmap is not None:
                first.setdefault((row["identity_id"], row["expression_id"]), row)
        if not first:
            raise DataError("manifest has no heatmap rows for a heatmap model")
        rows = list(first.values())
        inputs = _load_stacked(root, [r["heatmap_path"] for r in rows], channel_axis=True)
    else:
        inputs = _load_stacked(root, [r["rgb_path"] for r in rows], channel_axis=False)
    if inputs.shape[1:3] != (size, size):
        raise ConfigError(
            f"data resolution {inputs.shape[1]}x{inputs.shape[2]} does not "
            f"match model config {size}x{size}")
    return (inputs,
            np.array([r["pspi"] for r in rows], dtype=np.int64),
            np.array([r["au"] for r in rows], dtype=np.float64),
            np.array([r["split_subject_id"] for r in rows], dtype=np.int64))


def load_sample(root, row: dict) -> Sample:
    heatmap = None
    if row["heatmap_path"] is not None:
        heatmap = load_tensor(Path(root) / row["heatmap_path"]).astype(np.float64)
    au = AUVector.from_array(np.asarray(row["au"]))
    profile = DemographicProfile(age_group=row["age_group"],
                                 ethnicity=row["ethnicity"],
                                 gender=row["gender"],
                                 identity_seed=0)
    return Sample(identity_id=row["identity_id"], view_id=row["view_id"],
                  camera_yaw=row["camera_yaw"], rgb=load_rgb(root, row),
                  au=au, pspi=row["pspi"], demographic=profile,
                  heatmap=heatmap, expression_id=row["expression_id"])


def demographic_summary(rows: list[dict]) -> dict:
    """Identity-level marginal counts in the same shape as a config dict."""
    by_identity = {}
    for row in rows:
        by_identity[row["identity_id"]] = (row["age_group"], row["ethnicity"],
                                           row["gender"])
    summary = {"age": {}, "ethnicity": {}, "gender": {}}
    for age, eth, gender in by_identity.values():
        summary["age"][age] = summary["age"].get(age, 0) + 1
        summary["ethnicity"][eth] = summary["ethnicity"].get(eth, 0) + 1
        summary["gender"][gender] = summary["gender"].get(gender, 0) + 1
    summary["total"] = len(by_identity)
    return summary
