"""Minimal reverse-mode autodiff over numpy arrays.

Each operation returns a fresh Tensor holding a backward closure; only
leaf tensors change afterwards, through :meth:`Tensor.assign`, as an
optimizer writes its update. Gradients accumulate into ``.grad`` when
``backward()`` is called on a scalar result, and only for operands that
require grad. ``backward()`` releases the graph it walks: each operation's
gradient, closure and parents are dropped once its closure has run, so only
the leaves keep a ``.grad``, and a second ``backward()`` through the released
graph is a ParameterError. Every operation validates its output for NaN/Inf
so numerical trouble surfaces at the op that caused it instead of three
layers downstream.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import special as sp_special

from .errors import DimensionError, LabelError, NumericError, ParameterError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _as_array(data) -> np.ndarray:
    if isinstance(data, np.ndarray):
        if not np.issubdtype(data.dtype, np.floating):
            return data.astype(np.float64)
        return data
    return np.asarray(data, dtype=np.float64)


class Tensor:
    """Dense array participating in reverse-mode differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _backward_fn=None):
        self.data = _as_array(data)
        if self.data.size == 0:
            raise DimensionError("tensor must not have zero-size dimensions")
        _check_finite(self.data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward_fn = _backward_fn

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a 1-element tensor, got {self.shape}")
        return float(self.data.reshape(-1)[0])

    def assign(self, data: np.ndarray) -> None:
        """Give a leaf tensor new values and clear its gradient.

        The training step writes each optimizer update through this instead of
        building a new tensor; the values pass the same finite check as
        construction.
        """
        data = _as_array(data)
        _check_finite(data)
        self.data = data
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------------

    @np.errstate(over="ignore", invalid="ignore")
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this (scalar) tensor, then
        release the graph: once an operation's closure has run, its gradient,
        closure and parents are dropped, so a spent graph holds no memory and
        only leaves keep their ``.grad``. A later ``backward()`` that reaches a
        released operation raises ParameterError before it writes any
        gradient. numpy's overflow and invalid-value warnings are not
        printed; in training, a non-finite gradient ends as the NumericError
        of the AdamW update it feeds."""
        if not self.requires_grad:
            raise ParameterError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise DimensionError(
                    f"backward() without explicit gradient needs a scalar, got {self.shape}")
            grad = np.ones_like(self.data)

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward_fn is _released:
                _released(None)  # before any gradient is written
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        self.grad = grad if self.grad is None else self.grad + grad
        for node in reversed(topo):
            if node._backward_fn is not None:
                if node.grad is not None:
                    node._backward_fn(node.grad)
                node.grad, node._backward_fn, node._parents = None, _released, ()


def _released(g) -> None:
    raise ParameterError("backward() through a graph that an earlier backward() "
                         "released")


def _check_finite(data: np.ndarray) -> None:
    if not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite values in tensor of shape {data.shape}")


def _accum(t: Tensor, g: np.ndarray) -> None:
    # Gradient arrays are never written in place, so a first contribution is
    # stored without a copy.
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple, backward_fn,
          op: str | None = None) -> Tensor:
    """Wrap an op's output; ``op`` names fused ops in NumericError messages."""
    req = any(p.requires_grad for p in parents)
    try:
        return Tensor(data, requires_grad=req,
                      _parents=parents if req else (),
                      _backward_fn=backward_fn if req else None)
    except NumericError as exc:
        if op is None:
            raise
        raise NumericError(f"{op}: {exc}") from exc


# -- arithmetic ---------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out_data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), backward)


def linear(x, w, b) -> Tensor:
    """Affine map ``x @ w + b`` over the last axis of ``x``, as one node.

    ``w`` is (in, out) and ``b`` is (out,); the leading axes of ``x`` are
    batch axes. The weight gradient is a single GEMM over the flattened batch
    axes, and ``dx`` is computed only when ``x`` requires grad.
    """
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if w.ndim != 2 or b.shape != w.shape[1:]:
        raise DimensionError(
            f"linear needs (in, out) weights and (out,) bias, got {w.shape} and {b.shape}")
    if x.shape[-1:] != w.shape[:1]:
        raise DimensionError(f"linear input {x.shape} does not match weights {w.shape}")
    out_data = np.matmul(x.data, w.data)
    out_data += b.data

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if w.requires_grad:
            _accum(w, x.data.reshape(-1, x.shape[-1]).T @ g2)
        if b.requires_grad:
            _accum(b, g2.sum(axis=0))
        if x.requires_grad:
            _accum(x, (g2 @ w.data.T).reshape(x.shape))

    return _make(out_data, (x, w, b), backward, "linear")


# -- shape manipulation --------------------------------------------------------

def reshape(a, shape: Sequence[int]) -> Tensor:
    a = _coerce(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(a.shape))

    return _make(out_data, (a,), backward)


def broadcast_to(a, shape: Sequence[int]) -> Tensor:
    a = _coerce(a)
    out_data = np.broadcast_to(a.data, shape).copy()

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))

    return _make(out_data, (a,), backward)


def getitem(a, index) -> Tensor:
    a = _coerce(a)
    out_data = a.data[index]
    if np.isscalar(out_data) or out_data.ndim == 0:
        out_data = np.asarray(out_data)

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, index, g)
            _accum(a, full)

    return _make(out_data, (a,), backward)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [_coerce(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _make(out_data, tuple(ts), backward)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    if out_data.ndim == 0:
        out_data = np.asarray(out_data)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape).copy())

    return _make(out_data, (a,), backward)


# -- nonlinearities -------------------------------------------------------------

def relu(a) -> Tensor:
    a = _coerce(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        _accum(a, g * (a.data > 0.0))

    return _make(out_data, (a,), backward)


def gelu(a) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    a = _coerce(a)
    # In place, each step as in 0.5 * (1 + erf(a / sqrt 2)): the same bits.
    cdf = a.data / _SQRT2
    sp_special.erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out_data = a.data * cdf

    def backward(g):
        # g * (cdf + a * pdf), pdf = exp(-a * a / 2) / sqrt(2 pi), in one buffer
        grad = -0.5 * a.data
        grad *= a.data
        np.exp(grad, out=grad)
        grad *= _INV_SQRT_2PI
        grad *= a.data
        grad += cdf
        grad *= g
        _accum(a, grad)

    return _make(out_data, (a,), backward)


def dropout(a, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; the identity when not training."""
    a = _coerce(a)
    if not (0.0 <= p < 1.0):
        raise ParameterError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    if rng is None:
        raise ParameterError("training-mode dropout needs a seeded generator")
    keep = (rng.random(a.shape) >= p) / (1.0 - p)
    out_data = a.data * keep

    def backward(g):
        _accum(a, g * keep)

    return _make(out_data, (a,), backward)


def _log_softmax_np(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis."""
    a = _coerce(a)
    if not -a.ndim <= axis < a.ndim:
        raise DimensionError(f"softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        _accum(a, out_data * (g - inner))

    return _make(out_data, (a,), backward)


def attention(q, k, v, heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled-dot-product attention as one node. ``q`` (..., Tq, D)
    broadcasts against the (B, Tk, D) keys and values; each last axis splits
    into ``heads`` groups. Returns pooled values (B, Tq, D) and constant weights
    (B, heads, Tq, Tk). Forward and backward evaluate the numpy expressions of
    the matmul / softmax chain on the same views, so they keep its bits."""
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    d = k.shape[-1]
    if k.ndim != 3 or v.shape != k.shape or q.shape[-1:] != (d,) or q.ndim < 2 \
            or q.shape[:-2] not in ((), (1,), k.shape[:1]) or not 0 < heads <= d or d % heads:
        raise DimensionError(f"attention of {heads} heads cannot take {q.shape} queries "
                             f"over {k.shape} keys and {v.shape} values")
    scale = 1.0 / np.sqrt(d // heads)

    def split(x):  # (..., T, D) -> (..., heads, T, D / heads)
        return x.reshape(x.shape[:-1] + (heads, d // heads)).swapaxes(-2, -3)

    def merge(x):  # (..., heads, T, D / heads) -> (..., T, D)
        return x.swapaxes(-2, -3).reshape(x.shape[:-3] + (x.shape[-2], d))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    weights = np.matmul(qh, kh.swapaxes(-1, -2))
    weights *= scale
    # A softmax turns an overflowing score into finite weights; stop here as
    # the chain's own checks would.
    if not np.all(np.isfinite(weights)):
        raise NumericError(f"attention: non-finite scores for queries of shape {q.shape}")
    weights -= np.max(weights, axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)

    def backward(g):
        g = split(g)
        if v.requires_grad:
            _accum(v, merge(np.matmul(weights.swapaxes(-1, -2), g)))
        if q.requires_grad or k.requires_grad:
            g_scores = np.matmul(g, vh.swapaxes(-1, -2))
            g_scores -= (g_scores * weights).sum(axis=-1, keepdims=True)
            g_scores *= weights
            g_scores *= scale
            if q.requires_grad:
                _accum(q, merge(_unbroadcast(np.matmul(g_scores, kh), qh.shape)))
            if k.requires_grad:
                _accum(k, merge(np.matmul(qh.swapaxes(-1, -2), g_scores).swapaxes(-1, -2)))

    return _make(merge(np.matmul(weights, vh)), (q, k, v), backward, "attention"), weights


def layer_norm(a, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean/unit variance, then scale and shift.

    One node with an analytic backward for ``a``, ``gamma`` and ``beta``.
    """
    a, gamma, beta = _coerce(a), _coerce(gamma), _coerce(beta)
    dim = a.shape[-1]
    if gamma.shape != (dim,) or beta.shape != (dim,):
        raise DimensionError(
            f"layer_norm affine parameters must have shape ({dim},), "
            f"got {gamma.shape} and {beta.shape}")
    # The same numpy expressions as a mean / variance / power composition of
    # primitive ops, so the forward bits match that composition.
    inv_dim = 1.0 / dim
    centered = a.data - a.data.sum(axis=-1, keepdims=True) * inv_dim
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_dim
    # An overflowing variance would give finite (zero) outputs; stop here as
    # a composition's own checks would.
    if not np.all(np.isfinite(var)):
        raise NumericError(
            f"layer_norm: non-finite variance for input of shape {a.shape}")
    inv_std = (var + eps) ** -0.5
    normalized = centered * inv_std
    out_data = normalized * gamma.data + beta.data

    def backward(g):
        if gamma.requires_grad:
            _accum(gamma, (g * normalized).reshape(-1, dim).sum(axis=0))
        if beta.requires_grad:
            _accum(beta, g.reshape(-1, dim).sum(axis=0))
        if a.requires_grad:
            gn = g * gamma.data
            mean_gn = gn.sum(axis=-1, keepdims=True) * inv_dim
            mean_gn_x = (gn * normalized).sum(axis=-1, keepdims=True) * inv_dim
            _accum(a, inv_std * (gn - mean_gn - normalized * mean_gn_x))

    return _make(out_data, (a, gamma, beta), backward, "layer_norm")


# -- losses ---------------------------------------------------------------------
# Each loss is one node whose forward and backward evaluate the numpy
# expressions of its chain of primitive ops (log-softmax, pick, subtract,
# square, mean), so values and gradients keep the bits that chain gives.

def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer class labels."""
    logits = _coerce(logits)
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy expects B x C logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (logits.shape[0],):
        raise DimensionError(
            f"labels shape {labels.shape} does not match batch {logits.shape[0]}")
    n_classes = logits.shape[1]
    bad = np.nonzero((labels < 0) | (labels >= n_classes))[0]
    if bad.size:
        raise LabelError(
            f"label {int(labels[bad[0]])} at index {int(bad[0])} outside [0, {n_classes})")
    batch = logits.shape[0]
    rows = np.arange(batch)
    log_probs = _log_softmax_np(logits.data, axis=1)
    # An overflowing log-probability need not reach the picked entries.
    if not np.all(np.isfinite(log_probs)):
        raise NumericError(f"cross_entropy: non-finite log-probabilities for "
                           f"logits of shape {logits.shape}")
    out_data = -(log_probs[rows, labels].sum() * (1.0 / batch))

    def backward(g):
        picked_grad = np.zeros_like(log_probs)
        np.add.at(picked_grad, (rows, labels), -g * (1.0 / batch))
        soft = np.exp(log_probs)
        _accum(logits, picked_grad - soft * picked_grad.sum(axis=1, keepdims=True))

    return _make(out_data, (logits,), backward, "cross_entropy")


def mse(a, b) -> Tensor:
    """Mean squared difference."""
    a, b = _coerce(a), _coerce(b)
    if a.shape != b.shape:
        raise DimensionError(f"mse shapes disagree: {a.shape} vs {b.shape}")
    d = a.data - b.data
    inv_n = 1.0 / d.size
    out_data = (d * d).sum() * inv_n

    def backward(g):
        half = (g * inv_n) * d
        gd = half + half
        _accum(a, gd)
        _accum(b, -gd)

    return _make(out_data, (a, b), backward, "mse")


def kl_temperature(z_t, z_s, temperature: float) -> Tensor:
    """Temperature-scaled KL(teacher || student) on logits, batch-meaned.

    The teacher side is detached: gradients flow only into ``z_s``.
    The T^2 factor keeps gradient magnitudes comparable across temperatures.
    """
    z_t, z_s = _coerce(z_t), _coerce(z_s)
    if z_t.shape != z_s.shape:
        raise DimensionError(f"logit shapes disagree: {z_t.shape} vs {z_s.shape}")
    if z_t.ndim != 2:
        raise DimensionError(f"kl_temperature expects B x C logits, got {z_t.shape}")
    temperature = float(temperature)
    if not temperature > 0.0:
        raise ParameterError(f"temperature must be positive, got {temperature}")

    inv_t = 1.0 / temperature
    t2 = temperature * temperature
    inv_b = 1.0 / z_s.shape[0]
    log_p = _log_softmax_np(z_t.data * inv_t, axis=1)  # teacher, constant
    p = np.exp(log_p)
    log_q = _log_softmax_np(z_s.data * inv_t, axis=1)
    out_data = (p * (log_p - log_q)).sum(axis=1).sum() * inv_b * t2

    def backward(g):
        g_log_q = -((g * t2 * inv_b) * p)
        soft = np.exp(log_q)
        _accum(z_s, (g_log_q - soft * g_log_q.sum(axis=1, keepdims=True)) * inv_t)

    return _make(out_data, (z_s,), backward, "kl_temperature")


# -- verification ------------------------------------------------------------------

def gradcheck(f: Callable[[Tensor], Tensor], x, h: float = 1e-5,
              exclusion_floor: float = 1e-8) -> float:
    """Compare reverse-mode gradients of a scalar function against central
    finite differences, componentwise, in double precision.

    Returns the max relative error |a - n| / (|a| + |n|) over components where
    |a| + |n| >= ``exclusion_floor``; 0.0 if every component is excluded.
    """
    base = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    probe = Tensor(base, requires_grad=True)
    out = f(probe)
    if out.size != 1:
        raise DimensionError(f"gradcheck target must be scalar, got {out.shape}")
    out.backward()
    analytic = (probe.grad if probe.grad is not None else np.zeros_like(base)).reshape(-1)

    numeric = np.zeros(base.size, dtype=np.float64)
    flat = base.reshape(-1)
    for i in range(base.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = f(Tensor(base)).item()
        flat[i] = orig - h
        f_minus = f(Tensor(base)).item()
        flat[i] = orig
        numeric[i] = (f_plus - f_minus) / (2.0 * h)

    if not (np.all(np.isfinite(analytic)) and np.all(np.isfinite(numeric))):
        return np.inf
    denom = np.abs(analytic) + np.abs(numeric)
    mask = denom >= exclusion_floor
    if not mask.any():
        return 0.0
    rel = np.abs(analytic - numeric)[mask] / denom[mask]
    return float(rel.max())
