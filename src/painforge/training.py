"""Supervised and cross-modal distillation training.

The teacher learns from displacement heatmaps; the student learns from RGB
renders while matching the teacher at three levels: temperature-softened
score distributions, action-unit predictions, and CLS features. Teacher
outputs are precomputed once in eval mode, so a distillation run with all
distillation weights at zero is step-for-step identical to a supervised run.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ConfigError, MetricError
from .fileio import read_manifest, write_json, write_manifest
from .facesynth.dataset import heatmap_of, load_model_inputs, load_stacked
from .metrics import macro_auroc, subject_holdout
from .model import (ModelConfig, ModelOutput, ModelParams, forward,
                    init_params, load_checkpoint, predict, save_checkpoint)
from .optim import adamw_step, cosine_lr, init_optim_state
from .rng import STREAM_SHUFFLE, STREAM_SPLIT, keyed_rng


@dataclass(frozen=True)
class LossWeights:
    pspi: float = 1.0
    au: float = 1.0
    pspi_distill: float = 0.1
    au_distill: float = 0.3
    feature_distill: float = 0.5
    temperature: float = 4.0

    def __post_init__(self):
        for name in TERM_NAMES:
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"loss weight {name} must be finite and >= 0")
        if self.pspi == self.au == 0:
            raise ConfigError("loss weights pspi and au are both 0; every role "
                              "needs a positive supervised term")
        if not 0 < self.temperature < np.inf:
            raise ConfigError(
                f"temperature must be positive and finite, got {self.temperature}")


# The weighted loss terms, in field order: compose_loss sums them in this order.
TERM_NAMES = tuple(f.name for f in dataclasses.fields(LossWeights)
                   if f.name != "temperature")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    freeze_epochs: int = 5
    lr_backbone: float = 5e-6
    lr_heads: float = 5e-5
    floor_fraction: float = 0.01
    batch_size: int = 32
    seed: int = 0
    weight_decay: float = 0.01
    betas: tuple = (0.9, 0.999)
    val_fraction: float = 0.2

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not 0 <= self.freeze_epochs <= max(self.epochs, 1):
            raise ConfigError(
                f"freeze_epochs {self.freeze_epochs} must not exceed epochs {self.epochs}")
        if not (0 < self.lr_backbone < np.inf and 0 < self.lr_heads < np.inf):
            raise ConfigError("learning rates must be positive and finite")
        if not 0.0 <= self.floor_fraction <= 1.0:
            raise ConfigError(
                f"floor_fraction must be in [0, 1], got {self.floor_fraction}")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(
                f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ConfigError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}")


@dataclass
class TrainReport:
    role: str
    seed: int
    train_config: dict
    loss_weights: dict
    model_config: dict
    epochs: list = field(default_factory=list)
    best_epoch: int | None = None
    best_val_macro_auroc: float | None = None
    wall_clock_s: float = 0.0

    def canonical_lines(self) -> list[dict]:
        """The records of the report file, a meta line then one per epoch;
        wall-clock time goes in a sidecar, so the file is deterministic."""
        meta = {"type": "meta", **asdict(self)}
        del meta["epochs"], meta["wall_clock_s"]
        return [meta] + [{"type": "epoch", **rec} for rec in self.epochs]

    def save(self, path) -> None:
        write_manifest(path, self.canonical_lines())
        write_json(f"{path}.timing.json", {"wall_clock_s": self.wall_clock_s})


def compose_loss(student_out: ModelOutput, teacher, pspi_labels, au_labels,
                 weights: LossWeights):
    """Weighted sum of the supervised and distillation objectives.

    ``teacher`` is None (distillation terms drop out) or the
    ``(pspi_logits, au_pred, cls_feature)`` arrays that ``predict`` returns,
    sliced to the batch; arrays are constants, so no gradient reaches them.
    ``pspi_labels`` are integer classes and ``au_labels`` match ``au_pred``.
    Returns (total loss tensor, per-term float breakdown).
    """
    computed = {"pspi": T.cross_entropy(student_out.pspi_logits, pspi_labels),
                "au": T.mse(student_out.au_pred, au_labels)}
    if teacher is not None:
        logits, au_pred, cls_feature = teacher
        computed["pspi_distill"] = T.kl_temperature(
            logits, student_out.pspi_logits, weights.temperature)
        computed["au_distill"] = T.mse(student_out.au_pred, au_pred)
        computed["feature_distill"] = T.mse(student_out.cls_feature, cls_feature)

    total = None
    terms = {}
    for name in TERM_NAMES:
        loss, weight = computed.get(name), getattr(weights, name)
        terms[name] = 0.0 if loss is None else loss.item()
        # Zero-weight terms are skipped entirely so the computation graph of a
        # weightless distillation run matches the supervised run bit for bit.
        if loss is not None and weight != 0.0:
            piece = T.mul(loss, weight)
            total = piece if total is None else T.add(total, piece)
    terms["total"] = total.item()
    return total, terms


def _train_loop(role: str, data: tuple, teacher_arrays, model_config: ModelConfig,
                config: TrainConfig, weights: LossWeights, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    inputs, pspi, au, subjects = data
    params = init_params(model_config, config.seed)
    backbone = params.backbone_names()
    group_of = {n: "backbone" if n in backbone else "heads" for n in params.tensors}
    state = init_optim_state({n: t.data for n, t in params.tensors.items()},
                             group_of, config.weight_decay)

    val_subjects = subject_holdout(subjects.tolist(), config.val_fraction,
                                   (config.seed, STREAM_SPLIT))
    val_mask = np.isin(subjects, list(val_subjects))
    train_idx, val_idx = np.nonzero(~val_mask)[0], np.nonzero(val_mask)[0]
    report = TrainReport(role=role, seed=config.seed,
                         train_config=asdict(config),
                         loss_weights=asdict(weights),
                         model_config=asdict(model_config))

    best_auroc, best = -np.inf, None

    def validation_auroc() -> float | None:
        if val_idx.size == 0:
            return None
        logits, _, _ = predict(inputs[val_idx], params, config.batch_size)
        try:
            return macro_auroc(T.softmax(logits, axis=-1).data, pspi[val_idx])
        except MetricError:
            return None

    def train_step(batch, lr: dict, step: int) -> dict:
        """One AdamW step on ``batch``; returns its loss terms as floats. The
        step's autodiff graph is referenced only from here, so it is freed on
        return, before the next step's forward."""
        out = forward(inputs[batch], params, training=True,
                      run_seed=config.seed, step=step)
        teacher = (None if teacher_arrays is None
                   else tuple(a[batch] for a in teacher_arrays))
        total, terms = compose_loss(out, teacher, pspi[batch], au[batch], weights)
        total.backward()
        grads = {n: t.grad for n, t in params.tensors.items() if t.grad is not None}
        updated = adamw_step({n: params.tensors[n].data for n in grads},
                             grads, state, lr, betas=config.betas)
        for name, value in updated.items():
            params.tensors[name].assign(value)
        return terms

    global_step = 0
    for epoch in range(config.epochs):
        lr = {"backbone": cosine_lr(epoch, config.epochs, config.lr_backbone,
                                    config.floor_fraction),
              "heads": cosine_lr(epoch, config.epochs, config.lr_heads,
                                 config.floor_fraction)}
        frozen = epoch < config.freeze_epochs
        # A frozen backbone is a constant: backward neither builds nor walks
        # its graph, and only the heads receive gradients.
        for name in backbone:
            params.tensors[name].requires_grad = not frozen

        order = train_idx[keyed_rng(config.seed, STREAM_SHUFFLE, epoch)
                          .permutation(train_idx.size)]
        term_sums: dict = {}
        n_batches = 0
        for lo in range(0, order.size, config.batch_size):
            terms = train_step(order[lo:lo + config.batch_size], lr, global_step)
            for name, value in terms.items():
                term_sums[name] = term_sums.get(name, 0.0) + value
            n_batches += 1
            global_step += 1

        record = {"epoch": epoch, "lr_backbone": lr["backbone"],
                  "lr_heads": lr["heads"], "backbone_frozen": frozen}
        for name, value in term_sums.items():
            record[f"loss_{name}"] = value / max(n_batches, 1)
        val = validation_auroc()
        record["val_macro_auroc"] = val
        report.epochs.append(record)
        if val is not None and val > best_auroc:
            best_auroc = val
            report.best_epoch = epoch
            report.best_val_macro_auroc = val
            # ``assign`` rebinds a tensor's array and never writes into it, so
            # these references keep the best epoch's values.
            best = {n: t.data for n, t in params.tensors.items()}

    # One write per run: the best validation epoch, else the last parameters
    # (the initial ones when there are no epochs).
    if best is not None:
        params.replace(best)
    ckpt_dir = save_checkpoint(params, out_dir / "checkpoint")
    report.wall_clock_s = time.perf_counter() - t_start
    report.save(out_dir / "train_report.jsonl")
    return ckpt_dir, report


def train_teacher(manifest_path, out_dir, model_config: ModelConfig | None = None,
                  train_config: TrainConfig | None = None,
                  loss_weights: LossWeights | None = None):
    """Supervised training on frontal heatmaps, one sample per expression."""
    manifest_path = Path(manifest_path)
    model_config = dataclasses.replace(model_config or ModelConfig(), in_channels=1)
    data = load_model_inputs(manifest_path.parent, read_manifest(manifest_path),
                             model_config)
    return _train_loop("teacher", data, None, model_config,
                       train_config or TrainConfig(), loss_weights or LossWeights(),
                       out_dir)


def _precompute_teacher_signals(rows, root, teacher: ModelParams,
                                batch_size: int):
    """Teacher outputs per unique heatmap, gathered back per student row:
    the (pspi_logits, au_pred, cls_feature) arrays of ``predict``, the
    ``teacher`` form that ``compose_loss`` takes once sliced to a batch.

    Rows are keyed by ``heatmap_of`` (neutral rows share None, the all-zero
    heatmap) and come checked by ``load_model_inputs``. The heatmaps run in
    first-appearance order, in batches of ``batch_size``.
    """
    keys = [heatmap_of(row) for row in rows]
    index_of = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    outputs = predict(load_stacked(root, list(index_of), teacher.config),
                      teacher, batch_size)
    gather = np.array([index_of[key] for key in keys])
    return tuple(out[gather] for out in outputs)


def train_student(manifest_path, out_dir, teacher_checkpoint=None,
                  model_config: ModelConfig | None = None,
                  train_config: TrainConfig | None = None,
                  loss_weights: LossWeights | None = None):
    """RGB training; with a teacher checkpoint, adds three-level distillation.

    Without a teacher this is the supervised baseline: same data, same seeds,
    same parameter trajectory as a distillation run whose weights are zero.
    """
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    rows = read_manifest(manifest_path)
    config = train_config or TrainConfig()
    model_config = dataclasses.replace(model_config or ModelConfig(), in_channels=3)
    data = load_model_inputs(root, rows, model_config)

    teacher_arrays = None
    role = "student_baseline"
    if teacher_checkpoint is not None:
        teacher = load_checkpoint(teacher_checkpoint)
        if teacher.config.hidden_dim != model_config.hidden_dim:
            raise ConfigError(
                f"teacher hidden dim {teacher.config.hidden_dim} does not match "
                f"student {model_config.hidden_dim}; CLS features cannot align")
        teacher_arrays = _precompute_teacher_signals(rows, root, teacher,
                                                     config.batch_size)
        role = "student_distilled"

    return _train_loop(role, data, teacher_arrays, model_config, config,
                       loss_weights or LossWeights(), out_dir)
