"""Dual-branch vision transformer for pain scoring.

A plain pre-norm ViT encodes image patches plus a learnable CLS token. The
pain-intensity branch classifies the CLS feature into the 17 score levels;
the action-unit branch lets six learnable query tokens cross-attend to patch
features (single head, no projections) and regresses one non-negative
intensity per unit through a small shared head.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy import special as sp_special

from . import tensor as T
from .errors import ConfigError, DataError, DimensionError, NumericError
from .fileio import load_tensor, save_tensor, write_json
from .rng import STREAM_DROPOUT, STREAM_INIT, keyed_rng
from .tensor import Tensor
from .workers import map_in_order, worker_count

# Dropout call sites inside the pain-intensity head.
_DROP_SITE_PSPI_1 = 1
_DROP_SITE_PSPI_2 = 2
_CHECKPOINT_FORMAT = "painforge-checkpoint-v1"
# Images per encoder call in predict. Encoder rows do not depend on it.
_ENCODE_CHUNK = 16
# Rows per heads call in predict, the one partition every caller gets.
_HEADS_GROUP = 64


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
        for name, value in self.to_dict().items():
            # Each field's default fixes its type; a float field takes an int too.
            kind = type(self.__dataclass_fields__[name].default)
            if isinstance(value, bool) != (kind is bool) or not isinstance(
                    value, (int, float) if kind is float else kind):
                raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
            low = 0 if name == "num_layers" else 1
            if kind is int and value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
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
        return asdict(self)


@dataclass
class ModelParams:
    """All learnable tensors of one model instance, keyed by name."""

    config: ModelConfig
    tensors: dict = field(default_factory=dict)

    def backbone_names(self) -> list[str]:
        prefixes = ("patch_proj.", "pos_embed", "cls_token", "blocks.")
        return [n for n in self.tensors if n.startswith(prefixes)]

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
    attention_maps: Tensor | None  # (B, 6, N), constant; None without AU queries


def _trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    # Inverse-CDF sampling of a normal truncated to +/- 2 sigma.
    lo, hi = sp_special.ndtr(-2.0), sp_special.ndtr(2.0)
    return sp_special.ndtri(rng.uniform(lo, hi, size=shape)) * std


def param_layout(config: ModelConfig) -> dict:
    """Every parameter as ``name -> (shape, fill)`` in creation order; ``fill``
    is ``np.zeros``, ``np.ones`` or None for a truncated-normal draw."""
    d = config.hidden_dim
    patch_dim = config.patch_size * config.patch_size * config.in_channels
    layout: dict = {}

    def w(name, shape):
        layout[name] = (shape, None)

    def b(name, shape, fill=np.zeros):
        layout[name] = (shape, fill)

    w("patch_proj.w", (patch_dim, d))
    b("patch_proj.b", (d,))
    w("pos_embed", (config.num_patches + 1, d))
    w("cls_token", (d,))
    for layer in range(config.num_layers):
        pre = f"blocks.{layer}."
        b(pre + "ln1.g", (d,), np.ones)
        b(pre + "ln1.b", (d,))
        for proj in ("wq", "wk", "wv", "wo"):
            w(pre + "attn." + proj, (d, d))
        for bias in ("bq", "bk", "bv", "bo"):
            b(pre + "attn." + bias, (d,))
        b(pre + "ln2.g", (d,), np.ones)
        b(pre + "ln2.b", (d,))
        hidden = int(round(d * config.mlp_ratio))
        w(pre + "mlp.w1", (d, hidden))
        b(pre + "mlp.b1", (hidden,))
        w(pre + "mlp.w2", (hidden, d))
        b(pre + "mlp.b2", (d,))

    au_hidden = max(1, d // 2)
    au_out = 1 if config.use_au_queries else config.num_aus
    if config.use_au_queries:
        w("au_queries", (config.num_aus, d))
    w("au_head.w1", (d, au_hidden))
    b("au_head.b1", (au_hidden,))
    w("au_head.w2", (au_hidden, au_out))
    b("au_head.b2", (au_out,))

    h1, h2 = max(1, d // 2), max(1, d // 4)
    b("pspi_head.ln.g", (d,), np.ones)
    b("pspi_head.ln.b", (d,))
    w("pspi_head.w1", (d, h1))
    b("pspi_head.b1", (h1,))
    w("pspi_head.w2", (h1, h2))
    b("pspi_head.b2", (h2,))
    w("pspi_head.w3", (h2, config.num_classes))
    b("pspi_head.b3", (config.num_classes,))
    return layout


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    rng = keyed_rng(seed, STREAM_INIT)
    params = ModelParams(config=config)
    params.replace({name: _trunc_normal(rng, shape) if fill is None else fill(shape)
                    for name, (shape, fill) in param_layout(config).items()})
    return params


# -- forward pieces -----------------------------------------------------------

def patch_embed(images: np.ndarray, params: ModelParams) -> Tensor:
    """Project the non-overlapping row-major patches of ``forward``'s checked
    float32 or float64 (B, H, W, C) images. Each image is mean-centered and
    rescaled first so patch tokens do not share one dominant brightness
    direction, for dense RGB and sparse heatmap inputs alike. The images are
    only read: the patches are their one float64 copy."""
    p = params.config.patch_size
    batch, h, w, c = images.shape
    mean = images.mean(axis=(1, 2, 3), dtype=np.float64)
    patches = np.empty((batch, h // p, w // p, p, p, c))
    # A float32 -> float64 cast in this assignment is exact.
    patches[...] = images.reshape(batch, h // p, p, w // p, p, c).transpose(
        0, 1, 3, 2, 4, 5)
    patches = patches.reshape(batch, (h // p) * (w // p), -1)
    patches -= mean[:, None, None]
    patches *= 2.0
    return T.linear(Tensor(patches), params.tensors["patch_proj.w"],
                    params.tensors["patch_proj.b"])


def _self_attention(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    p = params.tensors
    q, k, v = (T.linear(x, p[prefix + "w" + n], p[prefix + "b" + n]) for n in "qkv")
    mixed, _ = T.attention(q, k, v, params.config.num_heads)
    return T.linear(mixed, p[prefix + "wo"], p[prefix + "bo"])


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
    pooled, weights = T.attention(queries, patches, patches, 1)
    return pooled, Tensor(weights[:, 0])


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


@np.errstate(over="ignore", invalid="ignore")
def encode(images: np.ndarray, params: ModelParams) -> Tensor:
    """CLS row and patch tokens of checked images, plus ``pos_embed``, through
    the encoder: the (B, 1+N, D) features, each row computed per image. numpy's
    overflow and invalid-value warnings are not printed: every op checks its
    output, and a non-finite one is a NumericError naming it."""
    if images.dtype != np.float32:  # float32 is cast once, in patch_embed
        images = images.astype(np.float64, copy=False)
    batch, d = images.shape[0], params.config.hidden_dim
    cls_row = T.broadcast_to(T.reshape(params.tensors["cls_token"], (1, 1, d)),
                             (batch, 1, d))
    tokens = T.concat([cls_row, patch_embed(images, params)], axis=1)
    return encoder_forward(T.add(tokens, params.tensors["pos_embed"]), params)


@np.errstate(over="ignore", invalid="ignore")
def heads(encoded: Tensor, params: ModelParams, training: bool = False,
          run_seed: int = 0, step: int = 0) -> ModelOutput:
    """Both prediction branches over ``encode``'s features. The pain head's
    GEMMs, and the AU head's in a model without AU queries, take all of the
    rows at once, so their last bits can depend on how many rows there are;
    ``predict`` passes them ``_HEADS_GROUP`` rows at a time."""
    cls_feature = T.getitem(encoded, (slice(None), 0))
    patch_features = T.getitem(encoded, (slice(None), slice(1, None)))
    logits = pspi_head(cls_feature, params, training, run_seed, step)
    if params.config.use_au_queries:
        pooled, alpha = au_cross_attention(patch_features, params.tensors["au_queries"])
        au_pred = au_head(pooled, params)
    else:
        alpha = None
        au_pred = au_head(cls_feature, params)
    return ModelOutput(pspi_logits=logits, au_pred=au_pred,
                       cls_feature=cls_feature, patch_features=patch_features,
                       attention_maps=alpha)


def _checked(images, config: ModelConfig):
    """``images`` as given, once their ``shape`` fits ``config``."""
    shape = images.shape
    if len(shape) != 4 or shape[1] != config.image_size or \
            shape[2] != config.image_size or shape[3] != config.in_channels:
        raise ConfigError(
            f"images {shape} incompatible with configured "
            f"{config.image_size}x{config.image_size}x{config.in_channels}")
    return images


def forward(images: np.ndarray, params: ModelParams, training: bool = False,
            run_seed: int = 0, step: int = 0) -> ModelOutput:
    """Full model: ``encode`` the checked images, then both ``heads``."""
    return heads(encode(_checked(np.asarray(images), params.config), params), params,
                 training, run_seed, step)


def predict(images, params: ModelParams):
    """Eval-mode inference, returning numpy (pspi_logits, au_pred, cls_features);
    softmax the logits for probabilities. ``images`` is an array or anything
    with its ``shape`` whose slices are arrays, such as a ``FrameStack``. Up to
    ``worker_count()`` threads encode ``_ENCODE_CHUNK`` images at a time, each
    slicing its own chunk, so a ``FrameStack``'s files are read in the thread
    that encodes them and the whole stack is never held; the heads then run
    here over consecutive groups of ``_HEADS_GROUP`` rows. No bit depends on
    the thread count, and every output equals ``forward`` run over the same
    groups, so every caller gets the same bits for the same images. No images
    is a DimensionError."""
    images = _checked(images, params.config)
    n = images.shape[0]
    if n == 0:
        raise DimensionError("predict needs at least one image, got 0")
    constant = params.detach()
    encoded = np.empty((n, params.config.num_patches + 1, params.config.hidden_dim))

    def run(lo):
        encoded[lo:lo + _ENCODE_CHUNK] = encode(images[lo:lo + _ENCODE_CHUNK],
                                                constant).data

    map_in_order(run, range(0, n, _ENCODE_CHUNK), ThreadPoolExecutor, worker_count())
    outs = []
    for lo in range(0, n, _HEADS_GROUP):
        out = heads(Tensor(encoded[lo:lo + _HEADS_GROUP]), constant)
        outs.append((out.pspi_logits.data, out.au_pred.data, out.cls_feature.data))
    return tuple(np.concatenate(parts) for parts in zip(*outs))


# -- checkpoints ----------------------------------------------------------------

def save_checkpoint(params: ModelParams, directory) -> Path:
    """One tensor file per parameter plus a JSON index with the config."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index = {"format": _CHECKPOINT_FORMAT,
             "config": params.config.to_dict(), "tensors": {}}
    for name in sorted(params.tensors):
        data = params.tensors[name].data
        fname = name.replace(".", "__") + ".p3dt"
        save_tensor(directory / fname, data)
        index["tensors"][name] = {"file": fname, "shape": list(data.shape),
                                  "dtype": str(data.dtype)}
    write_json(directory / "index.json", index)
    return directory


def load_checkpoint(directory) -> ModelParams:
    """A missing index is a ConfigError; an index that does not match its
    format or its config's ``param_layout`` is a DataError naming it."""
    directory = Path(directory)
    index_path = directory / "index.json"
    if not index_path.exists():
        raise ConfigError(f"no checkpoint index at {index_path}")
    try:
        index = json.loads(index_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise DataError(f"{index_path} does not parse: {exc}") from exc
    if not isinstance(index, dict) or index.get("format") != _CHECKPOINT_FORMAT:
        raise DataError(f"{index_path} is not a {_CHECKPOINT_FORMAT} index")
    try:
        config = ModelConfig(**index["config"])
        files = {name: directory / meta["file"] for name, meta in index["tensors"].items()}
    except (KeyError, TypeError, ValueError, AttributeError, ConfigError) as exc:
        raise DataError(f"{index_path} is malformed: {type(exc).__name__}: {exc}") from exc
    layout = param_layout(config)
    if files.keys() != layout.keys():
        raise DataError(f"{index_path} tensors differ from its config's in "
                        f"{sorted(files.keys() ^ layout.keys())}")
    arrays = {}
    for name, path in files.items():
        arrays[name] = load_tensor(path)
        if arrays[name].shape != layout[name][0]:
            raise DataError(f"{index_path}: tensor {name} has shape "
                            f"{arrays[name].shape}, its config gives {layout[name][0]}")
    params = ModelParams(config=config)
    params.replace(arrays)
    return params
