"""Chains of primitive ops that the engine's fused nodes must reproduce.

The engine computes layer norm, attention and its three losses each as one
node. These are the compositions of primitive nodes those fused ops replaced,
with the ``matmul`` and ``transpose`` primitives that only the attention chain
used, kept here only as a reference: the tests check that each fused op gives
the same bits as its chain, in value and in gradient.
"""

import numpy as np

from painforge import tensor as T
from painforge.errors import DimensionError
from painforge.tensor import (Tensor, _accum, _coerce, _log_softmax_np, _make,
                              _unbroadcast)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy's stacked-matrix broadcasting."""
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    try:
        out_data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise DimensionError(
            f"matmul batch dimensions disagree: {a.shape} x {b.shape}") from exc

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return _make(out_data, (a, b), backward)


def transpose(a, axes) -> Tensor:
    a = _coerce(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def backward(g):
        _accum(a, g.transpose(inverse))

    return _make(out_data, (a,), backward)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _make(a.data - b.data, (a, b), backward)


def neg(a) -> Tensor:
    a = _coerce(a)

    def backward(g):
        _accum(a, -g)

    return _make(-a.data, (a,), backward)


def power(a, exponent: float) -> Tensor:
    a = _coerce(a)
    exponent = float(exponent)

    def backward(g):
        _accum(a, g * exponent * a.data ** (exponent - 1.0))

    return _make(a.data ** exponent, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    count = a.size if axis is None else a.shape[axis]
    return T.mul(T.tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _coerce(a)
    out_data = _log_softmax_np(a.data, axis)

    def backward(g):
        soft = np.exp(out_data)
        _accum(a, g - soft * g.sum(axis=axis, keepdims=True))

    return _make(out_data, (a,), backward)


def layer_norm(a, gamma, beta, eps=1e-5) -> Tensor:
    """The seven-node composition layer_norm must reproduce bit for bit."""
    mu = tmean(a, axis=-1, keepdims=True)
    centered = sub(a, mu)
    var = tmean(T.mul(centered, centered), axis=-1, keepdims=True)
    inv_std = power(T.add(var, eps), -0.5)
    return T.add(T.mul(T.mul(centered, inv_std), gamma), beta)


def cross_entropy(logits, labels) -> Tensor:
    logits = _coerce(logits)
    labels = np.asarray(labels, dtype=np.int64)
    picked = T.getitem(log_softmax(logits, axis=1),
                       (np.arange(logits.shape[0]), labels))
    return neg(tmean(picked))


def mse(a, b) -> Tensor:
    d = sub(a, b)
    return tmean(T.mul(d, d))


def kl_temperature(z_t, z_s, temperature: float) -> Tensor:
    z_t, z_s = _coerce(z_t), _coerce(z_s)
    inv_t = 1.0 / temperature
    log_p = _log_softmax_np(z_t.data * inv_t, axis=1)
    p = np.exp(log_p)
    log_q = log_softmax(T.mul(z_s, inv_t), axis=1)
    per_row = T.tsum(T.mul(Tensor(p), sub(Tensor(log_p), log_q)), axis=1)
    return T.mul(tmean(per_row), temperature * temperature)


def attention(q, k, v, heads: int):
    """The chains ``T.attention`` replaced, returning (pooled, weights).

    One head over 2-D queries runs the AU-query cross-attention's chain on the
    unsplit inputs. Otherwise each input's last axis splits into heads by a
    reshape and a transpose, and the pooled values merge back, as the
    encoder's self-attention did.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    d = k.shape[-1]
    unsplit = heads == 1 and q.ndim == 2

    def swap(ndim, axis):  # the permutation exchanging ``axis`` and ``axis + 1``
        axes = list(range(ndim))
        axes[axis], axes[axis + 1] = axes[axis + 1], axes[axis]
        return axes

    def split(t):
        if unsplit:
            return t
        t = T.reshape(t, t.shape[:-1] + (heads, d // heads))
        return transpose(t, swap(t.ndim, t.ndim - 3))

    qh, kh, vh = split(q), split(k), split(v)
    scores = T.mul(matmul(qh, transpose(kh, swap(kh.ndim, kh.ndim - 2))),
                   1.0 / np.sqrt(qh.shape[-1]))
    weights = T.softmax(scores, axis=-1)
    mixed = matmul(weights, vh)
    if unsplit:
        return mixed, weights
    mixed = transpose(mixed, swap(mixed.ndim, mixed.ndim - 3))
    return T.reshape(mixed, mixed.shape[:-2] + (d,)), weights
