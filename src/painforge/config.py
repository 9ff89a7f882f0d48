"""Flat key=value run configuration shared by every pipeline stage.

The parsed form, not the file text, defines a run's identity: the config hash
is taken over a canonical re-serialization, so comments, blank lines, key
order and whitespace never change it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .facesynth.dataset import DEFAULT_VIEWS, DatasetSpec
from .model import ModelConfig
from .training import LossWeights, TrainConfig

_DEFAULTS = {
    "seed": 0,
    "out": "runs/default",
    "dataset.identities": 8,
    "dataset.expressions": 2,
    "dataset.views": ",".join(str(v) for v in DEFAULT_VIEWS),
    "dataset.resolution": 64,
    "dataset.pspi_distribution": "uniform",
    "model.hidden_dim": 64,
    "model.patch_size": 16,
    "model.num_layers": 2,
    "model.num_heads": 4,
    "model.mlp_ratio": 4.0,
    "model.dropout": 0.1,
    # Desk-scale defaults: models here train from scratch, so the learning
    # rates sit well above the fine-tuning rates used with a pretrained
    # backbone (TrainConfig's own defaults) while keeping the 10x head ratio.
    "train.epochs": 30,
    "train.freeze_epochs": 5,
    "train.lr_backbone": 3e-4,
    "train.lr_heads": 3e-3,
    "train.floor_fraction": 0.01,
    "train.batch_size": 32,
    "train.weight_decay": 0.01,
    "train.val_fraction": 0.2,
    "loss.pspi": 1.0,
    "loss.au": 1.0,
    "loss.pspi_distill": 0.1,
    "loss.au_distill": 0.3,
    "loss.feature_distill": 0.5,
    "loss.temperature": 4.0,
}

_INT_KEYS = {"seed", "dataset.identities", "dataset.expressions",
             "dataset.resolution", "model.hidden_dim", "model.patch_size",
             "model.num_layers", "model.num_heads", "train.epochs",
             "train.freeze_epochs", "train.batch_size"}
_STR_KEYS = {"out", "dataset.views", "dataset.pspi_distribution"}


@dataclass(frozen=True)
class RunConfig:
    values: tuple  # sorted (key, value) pairs; hashable and order-free

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        merged = dict(_DEFAULTS)
        for key, raw in mapping.items():
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown config key: {key!r}")
            try:
                if key in _STR_KEYS:
                    merged[key] = str(raw).strip()
                elif key in _INT_KEYS:
                    merged[key] = int(str(raw).strip())
                else:
                    merged[key] = float(str(raw).strip())
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        config = cls(values=tuple(sorted(merged.items())))
        # Range-check the training and loss values now, before any stage runs.
        config.train_config()
        config.loss_weights()
        return config

    def get(self, key: str):
        for k, v in self.values:
            if k == key:
                return v
        raise KeyError(key)

    def override(self, **kwargs) -> "RunConfig":
        merged = dict(self.values)
        for key, value in kwargs.items():
            if value is not None:
                merged[key] = value
        return RunConfig.from_mapping(merged)

    def canonical_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.values)

    def hash(self) -> str:
        # the output root determines where artifacts land, not what they are,
        # so it stays out of the hash; a rerun elsewhere is the same run
        text = "".join(f"{k} = {v}\n" for k, v in self.values if k != "out")
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    # -- typed views ---------------------------------------------------------

    @property
    def seed(self) -> int:
        return self.get("seed")

    @property
    def out_root(self) -> Path:
        return Path(self.get("out"))

    def dataset_spec(self) -> DatasetSpec:
        views = tuple(float(v) for v in str(self.get("dataset.views")).split(","))
        dist_raw = str(self.get("dataset.pspi_distribution"))
        if dist_raw == "uniform":
            dist = tuple([1.0 / 17] * 17)
        else:
            parts = [float(x) for x in dist_raw.split(",")]
            dist = tuple(parts)
        return DatasetSpec(identities=self.get("dataset.identities"),
                           expressions_per_identity=self.get("dataset.expressions"),
                           views=views,
                           resolution=self.get("dataset.resolution"),
                           pspi_distribution=dist,
                           seed=self.seed)

    def model_config(self, in_channels: int = 3,
                     use_au_queries: bool = True) -> ModelConfig:
        return ModelConfig(image_size=self.get("dataset.resolution"),
                           patch_size=self.get("model.patch_size"),
                           hidden_dim=self.get("model.hidden_dim"),
                           num_layers=self.get("model.num_layers"),
                           num_heads=self.get("model.num_heads"),
                           mlp_ratio=self.get("model.mlp_ratio"),
                           dropout_p=self.get("model.dropout"),
                           in_channels=in_channels,
                           use_au_queries=use_au_queries)

    def train_config(self, seed: int | None = None) -> TrainConfig:
        return TrainConfig(epochs=self.get("train.epochs"),
                           freeze_epochs=self.get("train.freeze_epochs"),
                           lr_backbone=self.get("train.lr_backbone"),
                           lr_heads=self.get("train.lr_heads"),
                           floor_fraction=self.get("train.floor_fraction"),
                           batch_size=self.get("train.batch_size"),
                           seed=self.seed if seed is None else seed,
                           weight_decay=self.get("train.weight_decay"),
                           val_fraction=self.get("train.val_fraction"))

    def loss_weights(self) -> LossWeights:
        return LossWeights(pspi=self.get("loss.pspi"),
                           au=self.get("loss.au"),
                           pspi_distill=self.get("loss.pspi_distill"),
                           au_distill=self.get("loss.au_distill"),
                           feature_distill=self.get("loss.feature_distill"),
                           temperature=self.get("loss.temperature"))


def parse_config_text(text: str) -> RunConfig:
    mapping = {}
    for n, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {n}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in mapping:
            raise ConfigError(f"line {n}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return RunConfig.from_mapping(mapping)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())
