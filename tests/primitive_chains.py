"""Chains of primitive ops that the engine's fused nodes must reproduce.

The engine computes layer norm and its three losses each as one node. These
are the compositions of primitive nodes those fused ops replaced, kept here
only as a reference: the tests check that each fused op gives the same bits
as its chain, in value and in gradient.
"""

import numpy as np

from painforge import tensor as T
from painforge.tensor import (Tensor, _accum, _coerce, _log_softmax_np, _make,
                              _unbroadcast)


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
