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
from .facesynth.dataset import DEFAULT_VIEWS, DatasetSpec
from .model import ModelConfig
from .training import LossWeights, TrainConfig

# Each config section's dataclass and its keys ("<section>.<key>") with the
# field each sets, by default its namesake: every field but those the run sets
# otherwise, such as the seed, the Adam betas and the model's image size.
_SECTIONS = {
    section: (cls, {renamed.get(f.name, f.name): f.name
                    for f in dataclasses.fields(cls) if f.name not in fixed})
    for section, cls, fixed, renamed in [
        ("dataset", DatasetSpec, {"seed"},
         {"expressions_per_identity": "expressions"}),
        ("model", ModelConfig, {"image_size", "num_classes", "num_aus",
                                "in_channels", "use_au_queries"},
         {"dropout_p": "dropout"}),
        ("train", TrainConfig, {"seed", "betas"}, {}),
        ("loss", LossWeights, set(), {})]}

# Each key's default also fixes its type: str, int or float.
_DEFAULTS = {
    "seed": 0,
    "out": "runs/default",
    **{f"{section}.{key}": cls.__dataclass_fields__[name].default
       for section, (cls, keys) in _SECTIONS.items() for key, name in keys.items()},
    # Read as text: comma-separated floats, or "uniform" for the field default.
    "dataset.views": ",".join(str(v) for v in DEFAULT_VIEWS),
    "dataset.pspi_distribution": "uniform",
    # Desk-scale defaults: models here train from scratch, so the learning
    # rates sit well above the fine-tuning rates used with a pretrained
    # backbone (TrainConfig's own defaults) while keeping the 10x head ratio.
    "train.epochs": 30,
    "train.lr_backbone": 3e-4,
    "train.lr_heads": 3e-3,
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

    def _section(self, name: str) -> dict:
        """The values of section ``name``'s keys, keyed by the field each sets."""
        _, keys = _SECTIONS[name]
        return {field: self.get(f"{name}.{key}") for key, field in keys.items()}

    def dataset_spec(self) -> DatasetSpec:
        fields = self._section("dataset")
        fields["views"] = self._floats("dataset.views")
        if fields.pop("pspi_distribution") != "uniform":  # else the field default
            fields["pspi_distribution"] = self._floats("dataset.pspi_distribution")
        return DatasetSpec(**fields, seed=self.seed)

    def model_config(self, use_au_queries: bool = True) -> ModelConfig:
        return ModelConfig(**self._section("model"),
                           image_size=self.get("dataset.resolution"),
                           use_au_queries=use_au_queries)

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self._section("train"), seed=self.seed)

    def loss_weights(self) -> LossWeights:
        return LossWeights(**self._section("loss"))


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
