"""Deterministic, resumable dataset generation.

Every identity derives its own seed stream, so generation is reproducible
per identity and identities can be rendered in parallel. A run writes one
tensor file per frame (RGB) plus one frontal heatmap per expression, then a
line-oriented JSON manifest tying frames to labels and demographics.
"""

from __future__ import annotations

import json
import numbers
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError, DataError
from ..fileio import load_tensor, save_tensor, write_json, write_manifest
from ..rng import STREAM_PSPI_TARGET, derive_seed, keyed_rng
from ..workers import map_in_order, worker_count
from .au import (AU_MAX, NUM_PSPI_CLASSES, PSPI_MAX, PSPI_MIN, AUVector,
                 pspi_score, sample_au_config)
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
        views = np.asarray(self.views, dtype=float)
        if views.size < 1 or not np.all(np.abs(views) <= 90.0):
            raise ConfigError(f"dataset.views must be one or more camera yaws in "
                              f"[-90, 90], got {self.views}")
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


def _identity_intact(out: Path, rows: list[dict], res: int) -> bool:
    """Whether every file the identity's rows name loads with its shape."""
    shapes = {r["rgb_path"]: (res, res, 3) for r in rows}
    shapes.update((r["heatmap_path"], (res, res)) for r in rows if r["heatmap_path"])
    for path, shape in shapes.items():
        try:
            if load_tensor(out / path).shape != shape:
                return False
        except (OSError, DataError):
            return False
    return True


def build_dataset(spec: DatasetSpec, out_dir, resume: bool = False):
    """Render the full dataset and write its manifest; returns the manifest path.

    The build records ``spec`` in ``<out>/build_spec.json``. With ``resume``
    set and that record equal to ``spec``, an identity is skipped when every
    file it names loads with the resolution's shape; the others render again.
    Otherwise the build first deletes the record, every ``.jsonl`` manifest
    in ``out_dir`` (split manifests too: they name the frames it deletes) and
    every ``.p3dt`` under ``frames/`` and ``heatmaps/``, then writes its
    record, then renders, so a crash leaves only files of the recorded spec.
    Content is deterministic per identity, so a resumed build is byte-identical
    to an uninterrupted one. The worker count is ``PAINFORGE_THREADS``, else the
    number of CPUs this process may run on, and must be at least 1. It is
    capped at the number of identities left to render; with one, they render
    in this process, otherwise in a pool of worker processes. The bytes are
    the same either way. A worker process that dies raises ``DataError``.
    """
    workers = worker_count()
    out = Path(out_dir)
    try:
        (out / "frames").mkdir(parents=True, exist_ok=True)
        (out / "heatmaps").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc}") from exc

    record_path = out / "build_spec.json"
    # The spec as its record reads back from JSON (tuples become lists).
    record = json.loads(json.dumps(asdict(spec)))
    try:
        trusted = resume and json.loads(record_path.read_text("utf-8")) == record
    except (OSError, ValueError):  # no record, or a torn one
        trusted = False
    if not trusted:
        for stale in [record_path, *out.glob("*.jsonl"),
                      *(out / "frames").glob("*.p3dt"),
                      *(out / "heatmaps").glob("*.p3dt")]:
            stale.unlink(missing_ok=True)
        write_json(record_path, record)

    profiles = sample_demographics(scale_config(reference_config(), spec.identities),
                                   spec.seed)

    plans = [_expression_plan(spec.seed, i, spec.expressions_per_identity,
                              spec.pspi_distribution)
             for i in range(spec.identities)]
    rows = [_identity_rows(spec, i, profiles[i], plans[i])
            for i in range(spec.identities)]

    pending = [(spec, profiles[i], plans[i], rows[i], str(out))
               for i in range(spec.identities)
               if not (trusted and _identity_intact(out, rows[i], spec.resolution))]

    try:
        map_in_order(_render_identity_star, pending, ProcessPoolExecutor, workers)
    except BrokenProcessPool as exc:
        raise DataError(
            f"a dataset worker process died while building {out}: {exc}") from exc

    manifest_path = out / "manifest.jsonl"
    write_manifest(manifest_path, [row for identity in rows for row in identity])
    return manifest_path


def heatmap_of(row: dict) -> str | None:
    """The frontal heatmap a row pairs with: None (all zeros) for a neutral row."""
    return None if row["expression_id"] is None else row["heatmap_path"]


def load_stacked(root, paths: list[str | None], config: ModelConfig) -> np.ndarray:
    """Model inputs for ``config`` as one preallocated stack in the files' own
    dtype (float32 for a built dataset), with a channel axis for heatmap
    models; a None path is the all-zero heatmap of a neutral frame. The first
    file must have the model's resolution (ConfigError) and every other image
    its shape and dtype (DataError naming the file).
    """
    if not paths:
        raise DataError("manifest has no rows to load")
    size = config.image_size

    def read(path, dtype=np.float32):
        return (np.zeros((size, size), dtype) if path is None
                else load_tensor(Path(root) / path))

    lead = next((i for i, path in enumerate(paths) if path is not None), 0)
    first = read(paths[lead])
    if first.shape[:2] != (size, size):
        raise ConfigError(
            f"data resolution {first.shape[0]}x{first.shape[1]} does not "
            f"match model config {size}x{size}")
    shape = first.shape + ((1,) if config.in_channels == 1 else ())
    stacked = np.empty((len(paths),) + shape, first.dtype)
    for i, path in enumerate(paths):
        image = first if i == lead else read(path, first.dtype)
        if image.shape != first.shape or image.dtype != first.dtype:
            raise DataError(f"{path}: {image.dtype} image of shape {image.shape} "
                            f"differs from the {first.dtype} {first.shape} of "
                            f"{paths[lead]}")
        stacked[i] = image.reshape(shape)
    return stacked


_ROW_IDS = ("identity_id", "expression_id", "view_id", "split_subject_id")
_ROW_KEYS = _ROW_IDS + ("rgb_path", "heatmap_path", "au", "pspi")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _row_label(number: int, row: dict) -> str:
    """The name of manifest row ``number`` in messages, once its ids are
    integers (``expression_id`` may be null), ``au`` is six intensities in
    [0, ``AU_MAX``] and ``pspi`` an integer score; a row that lacks a key or breaks
    a rule is a DataError naming it."""
    missing = [key for key in _ROW_KEYS if key not in row]
    if missing:
        raise DataError(f"manifest row {number} has no {', '.join(missing)}")
    for key in _ROW_IDS:
        if not (_is_int(row[key]) or key == "expression_id" and row[key] is None):
            raise DataError(f"manifest row {number}: {key} {row[key]!r} is not an integer")
    where = (f"manifest row {number} (identity {row['identity_id']}, expression "
             f"{row['expression_id']}, view {row['view_id']})")
    au = row["au"]
    if not (isinstance(au, (list, tuple)) and len(au) == len(AU_MAX) and all(
            isinstance(x, numbers.Real) and not isinstance(x, bool) and 0 <= x <= limit
            for x, limit in zip(au, AU_MAX))):
        raise DataError(f"{where}: au {au!r} is not {len(AU_MAX)} intensities "
                        f"from 0 up to {AU_MAX.tolist()}")
    if not (_is_int(row["pspi"]) and PSPI_MIN <= row["pspi"] <= PSPI_MAX):
        raise DataError(f"{where}: pspi {row['pspi']!r} is not an integer in "
                        f"[{PSPI_MIN}, {PSPI_MAX}]")
    return where


def load_model_inputs(root, rows: list[dict], config: ModelConfig):
    """Model inputs and labels from manifest rows: (inputs, pspi, au, subjects).

    Every row is checked before any file is read; a failure is a DataError
    naming the row. Each row needs its ids, labels and paths as
    ``_row_label`` sets out. A rigged row needs its heatmap, and a row path
    must be a string (None stands for a neutral row's heatmap) that is
    neither absolute nor has a ``..`` part. RGB models
    see every row. Heatmap models (one channel) see the first row of each
    distinct ``heatmap_of``, neutral rows excluded; a
    manifest without heatmaps is a DataError for them. The inputs are
    ``load_stacked``'s checked float32 stack.
    """
    for number, row in enumerate(rows, start=1):
        where = _row_label(number, row)
        if row["expression_id"] is not None and not row["heatmap_path"]:
            raise DataError(f"{where} is missing its heatmap")
        for key in ("rgb_path", "heatmap_path"):
            if not isinstance(row[key], str) and (key == "rgb_path" or row[key]):
                raise DataError(f"{where}: {key} {row[key]!r} is not a path")
            path = Path(row[key] or ".")
            if path.is_absolute() or ".." in path.parts:
                raise DataError(f"{where}: {key} {row[key]!r} leaves the dataset root")
    if config.in_channels == 1:
        first = {}
        for row in rows:
            first.setdefault(heatmap_of(row), row)
        first.pop(None, None)
        if not first:
            raise DataError("manifest has no heatmap rows for a heatmap model")
        rows, paths = list(first.values()), list(first)
    else:
        paths = [r["rgb_path"] for r in rows]
    return (load_stacked(root, paths, config),
            np.array([r["pspi"] for r in rows], dtype=np.int64),
            np.array([r["au"] for r in rows], dtype=np.float64),
            np.array([r["split_subject_id"] for r in rows], dtype=np.int64))


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
