"""AdamW update rule and the cosine learning-rate schedule."""

import numpy as np
import pytest

from painforge.errors import DimensionError, ParameterError
from painforge.optim import adamw_step, cosine_lr, init_optim_state


def _single(theta):
    return {"w": np.asarray(theta, dtype=np.float64)}


class TestAdamW:
    def test_decay_only_update(self):
        params = _single([2.0, -1.0])
        state = init_optim_state(params, weight_decay=0.01)
        out = adamw_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        assert np.allclose(out["w"], params["w"] * (1.0 - 0.001))

    def test_one_step_closed_form(self):
        # theta=1, g=1, lr=0.1, wd=0: bias-corrected m_hat = v_hat = 1,
        # so theta' = 1 - 0.1 / (1 + eps) ~= 0.9.
        params = _single([1.0])
        state = init_optim_state(params, weight_decay=0.0)
        out = adamw_step(params, {"w": np.ones(1)}, state, lr=0.1)
        assert np.isclose(out["w"][0], 0.9, atol=1e-6)

    def test_lr_zero_is_identity_on_parameters(self):
        rng = np.random.default_rng(0)
        params = _single(rng.normal(size=5))
        state = init_optim_state(params, weight_decay=0.0)
        out = adamw_step(params, {"w": rng.normal(size=5)}, state, lr=0.0)
        assert np.array_equal(out["w"], params["w"])

    def test_shape_mismatch(self):
        params = _single([1.0, 2.0])
        state = init_optim_state(params)
        with pytest.raises(DimensionError):
            adamw_step(params, {"w": np.zeros(3)}, state, lr=0.1)

    def test_group_learning_rates(self):
        params = {"a": np.array([1.0]), "b": np.array([1.0])}
        state = init_optim_state(params, group_of={"a": "backbone", "b": "heads"},
                                 weight_decay=0.0)
        out = adamw_step(params, {"a": np.ones(1), "b": np.ones(1)}, state,
                         lr={"backbone": 0.0, "heads": 0.1})
        assert out["a"][0] == 1.0
        assert np.isclose(out["b"][0], 0.9, atol=1e-6)

    def test_frozen_param_bias_correction_uses_own_age(self):
        # A parameter first updated at global step 10 must be corrected as if
        # at its own step 1, giving the same magnitude as a fresh parameter.
        fresh = _single([1.0])
        fresh_state = init_optim_state(fresh, weight_decay=0.0)
        fresh_out = adamw_step(fresh, {"w": np.ones(1)}, fresh_state, lr=0.1)

        both = {"w": np.array([1.0]), "other": np.array([1.0])}
        state = init_optim_state(both, weight_decay=0.0)
        for _ in range(9):
            both = adamw_step(both, {"other": np.ones(1)}, state, lr=0.1)
        both = adamw_step(both, {"w": np.ones(1)}, state, lr=0.1)
        assert np.isclose(both["w"][0], fresh_out["w"][0], atol=1e-12)


class TestCosineLR:
    def test_start_at_max(self):
        assert cosine_lr(0, 100, 5e-5) == pytest.approx(5e-5)

    def test_end_at_one_percent(self):
        assert cosine_lr(100, 100, 5e-5) == pytest.approx(0.01 * 5e-5)

    def test_midpoint(self):
        lr_max = 3e-4
        lr_min = 0.01 * lr_max
        assert cosine_lr(50, 100, lr_max) == pytest.approx((lr_max + lr_min) / 2)

    def test_clamps_past_end(self):
        assert cosine_lr(250, 100, 1e-3) == pytest.approx(1e-5)

    def test_monotone_non_increasing(self):
        values = [cosine_lr(e, 100, 1e-3) for e in range(101)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_negative_epoch_rejected(self):
        with pytest.raises(ParameterError):
            cosine_lr(-1, 100, 1e-3)

    def test_head_backbone_ratio_constant(self):
        for epoch in range(0, 101, 7):
            head = cosine_lr(epoch, 100, 5e-5)
            backbone = cosine_lr(epoch, 100, 5e-6)
            assert head / backbone == pytest.approx(10.0, rel=1e-12)


def _adamw(lr):
    params = _single(np.ones(3))
    return adamw_step(params, {"w": np.ones(3)}, init_optim_state(params), lr=lr)


@pytest.mark.parametrize("call", [
    lambda: _adamw(float("nan")),
    lambda: _adamw(float("inf")),
    lambda: _adamw({"default": -1e-3}),
    lambda: _adamw({"default": float("nan")}),
    lambda: _adamw({"default": 1e-3, "heads": float("inf")}),
    lambda: cosine_lr(3, 4, -1e-3),
    lambda: cosine_lr(3, 4, float("nan")),
    lambda: cosine_lr(3, 4, float("inf")),
    lambda: cosine_lr(3, 4, 1e-3, floor_fraction=-1.0),
    lambda: cosine_lr(3, 4, 1e-3, floor_fraction=1.5),
    lambda: cosine_lr(3, 4, 1e-3, floor_fraction=float("nan")),
], ids=["adamw lr nan", "adamw lr inf", "adamw group lr -1e-3",
        "adamw group lr nan", "adamw unused group lr inf", "cosine lr_max -1e-3",
        "cosine lr_max nan", "cosine lr_max inf", "cosine floor -1", "cosine floor 1.5",
        "cosine floor nan"])
def test_rates_out_of_range_rejected(call):
    with pytest.raises(ParameterError):
        call()
