"""Decoupled-weight-decay Adam and the cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError


@dataclass
class OptimState:
    """Per-parameter moment estimates plus group bookkeeping.

    ``group_of`` maps parameter names to a learning-rate group ("backbone" or
    "heads"); parameters absent from the map fall into the "default" group.
    ``param_steps`` tracks how many updates each parameter has received so
    bias correction stays correct for parameters that spend early epochs
    frozen.
    """

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    param_steps: dict = field(default_factory=dict)
    group_of: dict = field(default_factory=dict)
    weight_decay: float = 0.01


def init_optim_state(params: dict, group_of: dict | None = None,
                     weight_decay: float = 0.01) -> OptimState:
    state = OptimState(group_of=dict(group_of or {}), weight_decay=weight_decay)
    for name, value in params.items():
        state.m[name] = np.zeros_like(value)
        state.v[name] = np.zeros_like(value)
        state.param_steps[name] = 0
    return state


def _check_rate(name: str, value) -> float:
    rate = float(value)
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ParameterError(f"{name} must be finite and >= 0, got {rate}")
    return rate


def adamw_step(params: dict, grads: dict, state: OptimState, lr: dict,
               betas=(0.9, 0.999), eps: float = 1e-8) -> dict:
    """One AdamW update over the parameters named in ``grads``.

    ``lr`` is a ``{group: rate}`` dict; a parameter's group comes from
    ``state.group_of`` ("default" when absent). Every rate must be finite and
    >= 0. Every gradient is checked before any moment changes, so a rejected
    step leaves ``state`` as it was: its parameter must be in ``params`` and
    in ``state`` (ParameterError), have the gradient's shape (DimensionError)
    and be in a group with a rate (ParameterError). The weight decay is
    ``state.weight_decay``. Returns a new parameter dict; parameters without
    a gradient this step pass through untouched.
    """
    if not isinstance(lr, dict):
        raise ParameterError(f"lr must be a {{group: rate}} dict, got {lr!r}")
    beta1, beta2 = betas
    rates = {group: _check_rate(f"learning rate of group {group!r}", value)
             for group, value in lr.items()}
    for name, g in grads.items():
        if name not in params:
            raise ParameterError(f"parameter '{name}' has a gradient but is not in params")
        if name not in state.m:
            raise ParameterError(f"parameter '{name}' has no optimizer state")
        if g.shape != params[name].shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match parameter "
                f"'{name}' of shape {params[name].shape}")
        group = state.group_of.get(name, "default")
        if group not in rates:
            raise ParameterError(
                f"parameter '{name}' is in group {group!r}, which has no rate in lr")
    out = dict(params)
    for name, g in grads.items():
        theta = params[name]
        step_lr = rates[state.group_of.get(name, "default")]
        state.param_steps[name] += 1
        t = state.param_steps[name]
        # theta - lr*wd*theta - lr*m_hat / (sqrt(v_hat) + eps), with the moments
        # updated in place and fewer temporaries; every rounding is the same.
        m, v = state.m[name], state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        denom = np.sqrt(v / (1.0 - beta2 ** t))
        denom += eps
        step = m / (1.0 - beta1 ** t)
        step *= step_lr
        step /= denom
        updated = theta - step_lr * state.weight_decay * theta
        updated -= step
        out[name] = updated
    return out


def cosine_lr(epoch: float, total_epochs: int, lr_max: float,
              floor_fraction: float = 0.01) -> float:
    """Cosine annealing from ``lr_max`` down to ``floor_fraction * lr_max``.

    Epochs past ``total_epochs`` clamp to the floor rather than erroring.
    ``lr_max`` must be finite and >= 0, ``floor_fraction`` in [0, 1].
    """
    if epoch < 0:
        raise ParameterError(f"epoch must be >= 0, got {epoch}")
    if total_epochs <= 0:
        raise ParameterError(f"total_epochs must be positive, got {total_epochs}")
    _check_rate("lr_max", lr_max)
    if not 0.0 <= floor_fraction <= 1.0:
        raise ParameterError(f"floor_fraction must lie in [0, 1], got {floor_fraction}")
    lr_min = floor_fraction * lr_max
    if epoch >= total_epochs:
        return lr_min
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * epoch / total_epochs))
