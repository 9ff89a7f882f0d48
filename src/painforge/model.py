"""Dual-branch vision transformer for pain scoring.

A plain pre-norm ViT encodes image patches plus a learnable CLS token. The
pain-intensity branch classifies the CLS feature into the 17 score levels;
the action-unit branch lets six learnable query tokens cross-attend to patch
features (single head, no projections) and regresses one non-negative
intensity per unit through a small shared head.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special as sp_special

from . import tensor as T
from .errors import ConfigError, DimensionError, NumericError
from .fileio import load_tensor, save_tensor
from .rng import STREAM_DROPOUT, STREAM_INIT, keyed_rng
from .tensor import Tensor

# Dropout call sites inside the pain-intensity head.
_DROP_SITE_PSPI_1 = 1
_DROP_SITE_PSPI_2 = 2


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 64
    patch_size: int = 16
    hidden_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    mlp_ratio: float = 4.0
    num_classes: int = 17
    num_aus: int = 6
    dropout_p: float = 0.1
    in_channels: int = 3
    use_au_queries: bool = True

    def __post_init__(self):
        for name in ("image_size", "patch_size", "hidden_dim", "num_heads",
                     "num_classes", "num_aus"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_layers < 0:
            raise ConfigError(f"num_layers must be >= 0, got {self.num_layers}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout_p}")
        if not (np.isfinite(self.mlp_ratio)
                and round(self.hidden_dim * self.mlp_ratio) >= 1):
            raise ConfigError(f"mlp_ratio {self.mlp_ratio} must be finite and give "
                              f"an MLP width >= 1 at hidden dim {self.hidden_dim}")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image size {self.image_size} not divisible by patch size "
                f"{self.patch_size}")
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError(
                f"hidden dim {self.hidden_dim} not divisible by {self.num_heads} heads")
        if self.in_channels not in (1, 3):
            raise ConfigError(f"in_channels must be 1 or 3, got {self.in_channels}")

    @property
    def num_patches(self) -> int:
        side = self.image_size // self.patch_size
        return side * side

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class ModelParams:
    """All learnable tensors of one model instance, keyed by name."""

    config: ModelConfig
    tensors: dict = field(default_factory=dict)

    def backbone_names(self) -> list[str]:
        prefixes = ("patch_proj.", "pos_embed", "cls_token", "blocks.")
        return [n for n in self.tensors if n.startswith(prefixes)]

    def head_names(self) -> list[str]:
        backbone = set(self.backbone_names())
        return [n for n in self.tensors if n not in backbone]

    def replace(self, arrays: dict) -> None:
        """Install parameter values as fresh gradient roots."""
        for name, value in arrays.items():
            self.tensors[name] = Tensor(value, requires_grad=True)

    def detach(self) -> "ModelParams":
        """The same values as constants, so a forward pass builds no graph."""
        return ModelParams(config=self.config,
                           tensors={n: t.detach() for n, t in self.tensors.items()})


@dataclass
class ModelOutput:
    pspi_logits: Tensor          # (B, 17)
    au_pred: Tensor              # (B, 6), non-negative
    cls_feature: Tensor          # (B, D)
    patch_features: Tensor       # (B, N, D)
    attention_maps: Tensor | None  # (B, 6, N); None without AU queries

    def detach(self) -> "ModelOutput":
        return ModelOutput(
            pspi_logits=self.pspi_logits.detach(),
            au_pred=self.au_pred.detach(),
            cls_feature=self.cls_feature.detach(),
            patch_features=self.patch_features.detach(),
            attention_maps=None if self.attention_maps is None
            else self.attention_maps.detach())


def _trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    # Inverse-CDF sampling of a normal truncated to +/- 2 sigma.
    lo, hi = sp_special.ndtr(-2.0), sp_special.ndtr(2.0)
    return sp_special.ndtri(rng.uniform(lo, hi, size=shape)) * std


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    rng = keyed_rng(seed, STREAM_INIT)
    d = config.hidden_dim
    patch_dim = config.patch_size * config.patch_size * config.in_channels
    arrays: dict = {}

    def w(name, shape):
        arrays[name] = _trunc_normal(rng, shape)

    def b(name, shape):
        arrays[name] = np.zeros(shape)

    w("patch_proj.w", (patch_dim, d))
    b("patch_proj.b", (d,))
    w("pos_embed", (config.num_patches + 1, d))
    w("cls_token", (d,))
    for layer in range(config.num_layers):
        pre = f"blocks.{layer}."
        arrays[pre + "ln1.g"] = np.ones(d)
        b(pre + "ln1.b", (d,))
        for proj in ("wq", "wk", "wv", "wo"):
            w(pre + "attn." + proj, (d, d))
        for bias in ("bq", "bk", "bv", "bo"):
            b(pre + "attn." + bias, (d,))
        arrays[pre + "ln2.g"] = np.ones(d)
        b(pre + "ln2.b", (d,))
        hidden = int(round(d * config.mlp_ratio))
        w(pre + "mlp.w1", (d, hidden))
        b(pre + "mlp.b1", (hidden,))
        w(pre + "mlp.w2", (hidden, d))
        b(pre + "mlp.b2", (d,))

    au_hidden = max(1, d // 2)
    if config.use_au_queries:
        w("au_queries", (config.num_aus, d))
        w("au_head.w1", (d, au_hidden))
        b("au_head.b1", (au_hidden,))
        w("au_head.w2", (au_hidden, 1))
        b("au_head.b2", (1,))
    else:
        w("au_head.w1", (d, au_hidden))
        b("au_head.b1", (au_hidden,))
        w("au_head.w2", (au_hidden, config.num_aus))
        b("au_head.b2", (config.num_aus,))

    h1, h2 = max(1, d // 2), max(1, d // 4)
    arrays["pspi_head.ln.g"] = np.ones(d)
    b("pspi_head.ln.b", (d,))
    w("pspi_head.w1", (d, h1))
    b("pspi_head.b1", (h1,))
    w("pspi_head.w2", (h1, h2))
    b("pspi_head.b2", (h2,))
    w("pspi_head.w3", (h2, config.num_classes))
    b("pspi_head.b3", (config.num_classes,))

    params = ModelParams(config=config)
    params.replace(arrays)
    return params


# -- forward pieces -----------------------------------------------------------

def patchify(images: np.ndarray, patch_size: int) -> np.ndarray:
    """(B, H, W, C) -> (B, N, patch*patch*C) row-major patch flattening."""
    if images.ndim != 4:
        raise DimensionError(f"expected B x H x W x C images, got {images.shape}")
    batch, h, w, c = images.shape
    if h % patch_size or w % patch_size:
        raise DimensionError(
            f"image size {h}x{w} not divisible by patch size {patch_size}")
    gh, gw = h // patch_size, w // patch_size
    x = images.reshape(batch, gh, patch_size, gw, patch_size, c)
    return x.transpose(0, 1, 3, 2, 4, 5).reshape(batch, gh * gw, -1)


def patch_embed(images: np.ndarray, params: ModelParams) -> Tensor:
    """Project non-overlapping patches and add their positional embeddings.

    Images arrive in [0, 1]; each image is mean-centered and rescaled first so
    patch tokens do not share one dominant brightness direction, for dense RGB
    and sparse heatmap inputs alike.
    """
    config = params.config
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise DimensionError(f"expected B x H x W x C images, got {images.shape}")
    images = (images - images.mean(axis=(1, 2, 3), keepdims=True)) * 2.0
    patches = patchify(images, config.patch_size)
    if patches.shape[1] != config.num_patches:
        raise DimensionError(
            f"got {patches.shape[1]} patches, config expects {config.num_patches}")
    if patches.shape[2] != params.tensors["patch_proj.w"].shape[0]:
        raise DimensionError(
            f"patch dim {patches.shape[2]} does not match projection "
            f"{params.tensors['patch_proj.w'].shape}")
    tok = T.linear(Tensor(patches), params.tensors["patch_proj.w"],
                   params.tensors["patch_proj.b"])
    return T.add(tok, T.getitem(params.tensors["pos_embed"], slice(1, None)))


def _self_attention(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    config = params.config
    batch, tokens, d = x.shape
    heads = config.num_heads
    head_dim = d // heads
    p = params.tensors

    def proj(name, bias):
        return T.linear(x, p[prefix + name], p[prefix + bias])

    def split_heads(t):
        return T.transpose(T.reshape(t, (batch, tokens, heads, head_dim)),
                           (0, 2, 1, 3))

    q = split_heads(proj("wq", "bq"))
    k = split_heads(proj("wk", "bk"))
    v = split_heads(proj("wv", "bv"))
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))),
                   1.0 / np.sqrt(head_dim))
    attn = T.softmax(scores, axis=-1)
    mixed = T.matmul(attn, v)
    merged = T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (batch, tokens, d))
    return T.linear(merged, p[prefix + "wo"], p[prefix + "bo"])


def encoder_forward(tokens: Tensor, params: ModelParams) -> Tensor:
    """Pre-norm transformer blocks; the identity when num_layers is 0."""
    x = tokens
    for layer in range(params.config.num_layers):
        pre = f"blocks.{layer}."
        p = params.tensors
        try:
            normed = T.layer_norm(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
            x = T.add(x, _self_attention(normed, params, pre + "attn."))
            normed = T.layer_norm(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
            h = T.gelu(T.linear(normed, p[pre + "mlp.w1"], p[pre + "mlp.b1"]))
            x = T.add(x, T.linear(h, p[pre + "mlp.w2"], p[pre + "mlp.b2"]))
        except NumericError as exc:
            raise NumericError(f"encoder layer {layer}: {exc}") from exc
    return x


def au_cross_attention(patches: Tensor, queries: Tensor) -> tuple[Tensor, Tensor]:
    """Single-head cross-attention of AU query tokens over patch features.

    Scores are query-patch dot products scaled by 1/sqrt(D); each query's
    weights sum to 1 over patches and pool the patch features directly.
    Returns (pooled features (B, A, D), attention weights (B, A, N)).
    """
    if patches.ndim != 3 or queries.ndim != 2:
        raise DimensionError(
            f"expected (B, N, D) patches and (A, D) queries, got "
            f"{patches.shape} and {queries.shape}")
    if patches.shape[2] != queries.shape[1]:
        raise DimensionError(
            f"feature dims disagree: patches {patches.shape} vs queries {queries.shape}")
    d = queries.shape[1]
    scores = T.mul(T.matmul(queries, T.transpose(patches, (0, 2, 1))),
                   1.0 / np.sqrt(d))
    alpha = T.softmax(scores, axis=-1)
    return T.matmul(alpha, patches), alpha


def au_head(features: Tensor, params: ModelParams) -> Tensor:
    """Two linear layers with ReLU after each; output is non-negative."""
    p = params.tensors
    h = T.relu(T.linear(features, p["au_head.w1"], p["au_head.b1"]))
    out = T.relu(T.linear(h, p["au_head.w2"], p["au_head.b2"]))
    batch = features.shape[0]
    return T.reshape(out, (batch, -1)) if out.ndim == 3 else out


def pspi_head(cls_feature: Tensor, params: ModelParams, training: bool = False,
              run_seed: int = 0, step: int = 0) -> Tensor:
    """CLS feature -> 17 logits with progressive width reduction."""
    p = params.tensors
    cfg = params.config
    h = T.layer_norm(cls_feature, p["pspi_head.ln.g"], p["pspi_head.ln.b"])
    h = T.gelu(T.linear(h, p["pspi_head.w1"], p["pspi_head.b1"]))
    h = T.dropout(h, cfg.dropout_p, training,
                  keyed_rng(run_seed, STREAM_DROPOUT, _DROP_SITE_PSPI_1, step))
    h = T.gelu(T.linear(h, p["pspi_head.w2"], p["pspi_head.b2"]))
    h = T.dropout(h, cfg.dropout_p, training,
                  keyed_rng(run_seed, STREAM_DROPOUT, _DROP_SITE_PSPI_2, step))
    return T.linear(h, p["pspi_head.w3"], p["pspi_head.b3"])


def forward(images: np.ndarray, params: ModelParams, training: bool = False,
            run_seed: int = 0, step: int = 0) -> ModelOutput:
    """Full model: patch embedding, encoder, then both prediction branches."""
    config = params.config
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4 or images.shape[1] != config.image_size or \
            images.shape[2] != config.image_size or images.shape[3] != config.in_channels:
        raise ConfigError(
            f"images {images.shape} incompatible with configured "
            f"{config.image_size}x{config.image_size}x{config.in_channels}")
    batch = images.shape[0]
    d = config.hidden_dim

    tok = patch_embed(images, params)
    cls = T.add(params.tensors["cls_token"],
                T.getitem(params.tensors["pos_embed"], 0))
    cls_row = T.broadcast_to(T.reshape(cls, (1, 1, d)), (batch, 1, d))
    encoded = encoder_forward(T.concat([cls_row, tok], axis=1), params)

    cls_feature = T.getitem(encoded, (slice(None), 0))
    patch_features = T.getitem(encoded, (slice(None), slice(1, None)))

    logits = pspi_head(cls_feature, params, training, run_seed, step)
    if config.use_au_queries:
        pooled, alpha = au_cross_attention(patch_features, params.tensors["au_queries"])
        au_pred = au_head(pooled, params)
    else:
        alpha = None
        au_pred = au_head(cls_feature, params)
    return ModelOutput(pspi_logits=logits, au_pred=au_pred,
                       cls_feature=cls_feature, patch_features=patch_features,
                       attention_maps=alpha)


def predict(images: np.ndarray, params: ModelParams, batch_size: int = 64):
    """Eval-mode inference returning numpy (pspi_probs, au_pred, cls_features)."""
    constant = params.detach()
    probs, aus, features = [], [], []
    for lo in range(0, images.shape[0], batch_size):
        out = forward(images[lo:lo + batch_size], constant, training=False)
        probs.append(T.softmax(out.pspi_logits, axis=-1).data)
        aus.append(out.au_pred.data)
        features.append(out.cls_feature.data)
    return np.concatenate(probs), np.concatenate(aus), np.concatenate(features)


# -- checkpoints ----------------------------------------------------------------

def save_checkpoint(params: ModelParams, directory) -> Path:
    """One tensor file per parameter plus a JSON index with the config."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index = {"format": "painforge-checkpoint-v1",
             "config": params.config.to_dict(), "tensors": {}}
    for name in sorted(params.tensors):
        data = params.tensors[name].data
        fname = name.replace(".", "__") + ".p3dt"
        save_tensor(directory / fname, data)
        index["tensors"][name] = {"file": fname, "shape": list(data.shape),
                                  "dtype": str(data.dtype)}
    (directory / "index.json").write_text(
        json.dumps(index, sort_keys=True, indent=1) + "\n")
    return directory


def load_checkpoint(directory) -> ModelParams:
    directory = Path(directory)
    index_path = directory / "index.json"
    if not index_path.exists():
        raise ConfigError(f"no checkpoint index at {index_path}")
    index = json.loads(index_path.read_text())
    config = ModelConfig.from_dict(index["config"])
    params = ModelParams(config=config)
    arrays = {}
    for name, meta in index["tensors"].items():
        data = load_tensor(directory / meta["file"])
        if list(data.shape) != meta["shape"]:
            raise ConfigError(
                f"checkpoint tensor {name} has shape {data.shape}, "
                f"index says {meta['shape']}")
        arrays[name] = data
    params.replace(arrays)
    return params
