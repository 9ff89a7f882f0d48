"""Flat key=value run configuration shared by every pipeline stage.

The parsed form, not the file text, defines a run's identity: the config hash
is taken over a canonical re-serialization, so comments, blank lines, key
order and whitespace never change it.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .facesynth.au import NUM_PSPI_CLASSES
from .facesynth.dataset import DEFAULT_VIEWS, DatasetSpec
from .model import ModelConfig
from .training import LossWeights, TrainConfig

# The train.<field> and loss.<field> keys with their dataclass defaults; the
# run seed is its own key and the Adam betas are not configurable.
_TRAIN_FIELDS = {f.name: f.default for f in dataclasses.fields(TrainConfig)
                 if f.name not in ("seed", "betas")}
_LOSS_FIELDS = {f.name: f.default for f in dataclasses.fields(LossWeights)}

# Each key's default also fixes its type: str, int or float.
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
    **{f"train.{name}": value for name, value in _TRAIN_FIELDS.items()},
    # Desk-scale defaults: models here train from scratch, so the learning
    # rates sit well above the fine-tuning rates used with a pretrained
    # backbone (TrainConfig's own defaults) while keeping the 10x head ratio.
    "train.epochs": 30,
    "train.lr_backbone": 3e-4,
    "train.lr_heads": 3e-3,
    **{f"loss.{name}": value for name, value in _LOSS_FIELDS.items()},
}


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
                merged[key] = type(_DEFAULTS[key])(str(raw).strip())
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        config = cls(values=tuple(sorted(merged.items())))
        # Range-check every stage's values now, before any stage runs.
        config.dataset_spec()
        config.model_config()
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

    def _floats(self, key: str) -> tuple:
        raw = self.get(key)
        try:
            return tuple(float(x) for x in raw.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc

    def dataset_spec(self) -> DatasetSpec:
        if self.get("dataset.pspi_distribution") == "uniform":
            dist = tuple([1.0 / NUM_PSPI_CLASSES] * NUM_PSPI_CLASSES)
        else:
            dist = self._floats("dataset.pspi_distribution")
        return DatasetSpec(identities=self.get("dataset.identities"),
                           expressions_per_identity=self.get("dataset.expressions"),
                           views=self._floats("dataset.views"),
                           resolution=self.get("dataset.resolution"),
                           pspi_distribution=dist,
                           seed=self.seed)

    def model_config(self, use_au_queries: bool = True) -> ModelConfig:
        return ModelConfig(image_size=self.get("dataset.resolution"),
                           patch_size=self.get("model.patch_size"),
                           hidden_dim=self.get("model.hidden_dim"),
                           num_layers=self.get("model.num_layers"),
                           num_heads=self.get("model.num_heads"),
                           mlp_ratio=self.get("model.mlp_ratio"),
                           dropout_p=self.get("model.dropout"),
                           use_au_queries=use_au_queries)

    def train_config(self) -> TrainConfig:
        return TrainConfig(seed=self.seed,
                           **{f: self.get(f"train.{f}") for f in _TRAIN_FIELDS})

    def loss_weights(self) -> LossWeights:
        return LossWeights(**{f: self.get(f"loss.{f}") for f in _LOSS_FIELDS})


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
