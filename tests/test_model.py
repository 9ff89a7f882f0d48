"""Model architecture: shapes, attention equations, heads, checkpoints."""

import math
import os
import signal
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import primitive_chains as chains
from painforge import model
from painforge import tensor as T
from painforge.errors import ConfigError, DataError, DimensionError, NumericError
from painforge.model import (ModelConfig, au_cross_attention,
                             au_head, encoder_forward, forward, init_params,
                             load_checkpoint, patch_embed, predict, pspi_head,
                             save_checkpoint)
from painforge.tensor import Tensor, cross_entropy, gradcheck, mse


def scalar_cross_attention(patches, queries):
    """Straight-line reference for the query attention equations."""
    batch, n, d = patches.shape
    n_q = queries.shape[0]
    alpha = np.zeros((batch, n_q, n))
    pooled = np.zeros((batch, n_q, d))
    for b in range(batch):
        for i in range(n_q):
            logits = [sum(queries[i][k] * patches[b][j][k] for k in range(d))
                      / math.sqrt(d) for j in range(n)]
            m = max(logits)
            exps = [math.exp(l - m) for l in logits]
            total = sum(exps)
            for j in range(n):
                alpha[b, i, j] = exps[j] / total
            for k in range(d):
                pooled[b, i, k] = sum(alpha[b, i, j] * patches[b][j][k]
                                      for j in range(n))
    return pooled, alpha


class TestPatchEmbed:
    def test_token_counts(self):
        assert ModelConfig(image_size=224, patch_size=16).num_patches == 196
        assert ModelConfig(image_size=64, patch_size=16).num_patches == 16

    def test_indivisible_size_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(image_size=60, patch_size=16)

    def test_projection_shape(self):
        cfg = ModelConfig(image_size=32, patch_size=16, hidden_dim=32,
                          num_layers=1, num_heads=2)
        params = init_params(cfg, 0)
        tok = patch_embed(np.zeros((2, 32, 32, 3)), params)
        assert tok.shape == (2, 4, 32)

    def test_equals_linear_of_centred_patches(self):
        # No positional term: ``forward`` adds pos_embed to all tokens at once.
        cfg = ModelConfig(image_size=32, patch_size=16, hidden_dim=32,
                          num_layers=1, num_heads=2)
        params = init_params(cfg, 0)
        images = np.random.default_rng(2).random((3, 32, 32, 3))
        centred = (images - images.mean(axis=(1, 2, 3), keepdims=True)) * 2.0
        patches = np.stack([centred[:, r:r + 16, c:c + 16].reshape(3, -1)
                            for r in (0, 16) for c in (0, 16)], axis=1)
        expected = T.linear(Tensor(patches), params.tensors["patch_proj.w"],
                            params.tensors["patch_proj.b"])
        assert np.array_equal(patch_embed(images, params).data, expected.data)

    @pytest.mark.parametrize("patch_size", [16, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaves_its_input_unchanged(self, patch_size, dtype):
        # At patch_size == image_size the patch reshape is a view of the input.
        cfg = ModelConfig(image_size=32, patch_size=patch_size, hidden_dim=32,
                          num_layers=1, num_heads=2)
        images = np.random.default_rng(4).random((3, 32, 32, 3)).astype(dtype)
        before = images.copy()
        patch_embed(images, init_params(cfg, 0))
        assert images.dtype == dtype and images.tobytes() == before.tobytes()

    def test_wrong_channel_count(self):
        cfg = ModelConfig(image_size=32, patch_size=16, hidden_dim=32,
                          num_layers=1, num_heads=2, in_channels=1)
        params = init_params(cfg, 0)
        with pytest.raises(DimensionError):
            patch_embed(np.zeros((2, 32, 32, 3)), params)


class TestEncoder:
    def test_zero_layers_is_identity(self):
        cfg = ModelConfig(image_size=32, patch_size=16, hidden_dim=8,
                          num_layers=0, num_heads=2)
        params = init_params(cfg, 0)
        tokens = Tensor(np.random.default_rng(0).normal(size=(2, 5, 8)))
        out = encoder_forward(tokens, params)
        assert out is tokens

    def test_output_shape_matches_input(self):
        cfg = ModelConfig(image_size=32, patch_size=16, hidden_dim=16,
                          num_layers=2, num_heads=4)
        params = init_params(cfg, 0)
        tokens = Tensor(np.random.default_rng(0).normal(size=(3, 5, 16)))
        assert encoder_forward(tokens, params).shape == (3, 5, 16)

    def test_patch_permutation_equivariance(self):
        cfg = ModelConfig(image_size=64, patch_size=16, hidden_dim=32,
                          num_layers=2, num_heads=4)
        params = init_params(cfg, 3)
        rng = np.random.default_rng(1)
        images = rng.random((2, 64, 64, 3))
        out = forward(images, params)

        # permute patch tokens along with their positional embeddings
        perm = rng.permutation(cfg.num_patches)
        pos = params.tensors["pos_embed"].data.copy()
        pos[1:] = pos[1:][perm]
        params.tensors["pos_embed"] = Tensor(pos, requires_grad=True)
        patches = images.reshape(2, 4, 16, 4, 16, 3).transpose(0, 1, 3, 2, 4, 5)
        patches = patches.reshape(2, 16, 16, 16, 3)[:, perm]
        permuted_images = patches.reshape(2, 4, 4, 16, 16, 3).transpose(
            0, 1, 3, 2, 4, 5).reshape(2, 64, 64, 3)
        out_perm = forward(permuted_images, params)

        assert np.allclose(out_perm.cls_feature.data, out.cls_feature.data,
                           atol=1e-9)
        assert np.allclose(out_perm.patch_features.data,
                           out.patch_features.data[:, perm], atol=1e-9)

    def test_overflow_mid_encoder_names_the_layer(self):
        cfg = ModelConfig(image_size=32, patch_size=16, hidden_dim=16,
                          num_layers=2, num_heads=4)
        params = init_params(cfg, 0)
        # 1e308 is finite, so construction succeeds; the matmul overflows.
        bad = params.tensors["blocks.1.mlp.w1"].data.copy()
        bad[:, :] = 1e308
        params.tensors["blocks.1.mlp.w1"] = Tensor(bad, requires_grad=True)
        tokens = Tensor(np.random.default_rng(0).normal(size=(1, 5, 16)))
        with np.errstate(over="ignore"), pytest.raises(NumericError) as err:
            encoder_forward(tokens, params)
        assert "layer 1" in str(err.value)
        assert "linear" in str(err.value)


def _attention_case(rng, broadcast_queries):
    """Random attention inputs over batch, token and head counts, head width
    and input scale; broadcast queries are 2-D and the keys are the values."""
    batch, n_q, n_k = (int(n) for n in rng.integers(1, 9, size=3))
    heads, head_dim = int(rng.integers(1, 9)), int(rng.integers(1, 5))
    d, scale = heads * head_dim, 10.0 ** rng.uniform(-2.0, 1.0)
    q = rng.normal(size=(n_q, d) if broadcast_queries else (batch, n_q, d)) * scale
    k = rng.normal(size=(batch, n_k, d)) * scale
    v = k if broadcast_queries else rng.normal(size=(batch, n_k, d)) * scale
    return q, k, v, heads, rng.normal(size=(batch, n_q, d))


def _run_attention(attention, q, k, v, heads, upstream):
    """Pooled values, weights and the q, k, v gradients of sum(pooled * upstream)."""
    tq = Tensor(q, requires_grad=True)
    tk = Tensor(k, requires_grad=True)
    tv = tk if v is k else Tensor(v, requires_grad=True)
    pooled, weights = attention(tq, tk, tv, heads)
    T.tsum(T.mul(pooled, upstream)).backward()
    weights = weights.data if isinstance(weights, Tensor) else weights
    return pooled.data, weights, (tq.grad, tk.grad, tv.grad)


def _assert_bit_equal_to_chain(rng, broadcast_queries, cases=200):
    for _ in range(cases):
        q, k, v, heads, upstream = _attention_case(rng, broadcast_queries)
        pooled, weights, grads = _run_attention(T.attention, q, k, v, heads, upstream)
        ref_pooled, ref_weights, ref_grads = _run_attention(
            chains.attention, q, k, v, heads, upstream)
        assert np.array_equal(pooled, ref_pooled)
        assert np.array_equal(weights.reshape(ref_weights.shape), ref_weights)
        for g, ref in zip(grads, ref_grads):
            assert np.array_equal(g, ref)


class TestAttention:
    """``T.attention`` is the chain of primitive nodes both attention sites
    ran, bit for bit in values and in q, k, v gradients."""

    def test_multi_head_matches_self_attention_chain(self):
        _assert_bit_equal_to_chain(np.random.default_rng(0), broadcast_queries=False)

    def test_queries_broadcast_over_batch_match_cross_attention_chain(self):
        # One head runs the AU-query chain itself, on the unsplit inputs.
        _assert_bit_equal_to_chain(np.random.default_rng(1), broadcast_queries=True)

    def test_shape_errors(self):
        x = Tensor(np.zeros((2, 3, 4)))
        for q, k, v, heads in [(x, x, x, 3), (x, x, Tensor(np.zeros((2, 5, 4))), 1),
                               (Tensor(np.zeros((3, 4, 3, 4))), x, x, 1),
                               (Tensor(np.zeros((3, 3, 4))), x, x, 1),
                               (Tensor(np.zeros((3, 5))), x, x, 1)]:
            with pytest.raises(DimensionError):
                T.attention(q, k, v, heads)

    def test_overflowing_score_names_the_op(self):
        x = Tensor(np.full((1, 2, 2), 1e200))
        with np.errstate(over="ignore"), pytest.raises(NumericError) as err:
            T.attention(x, x, x, 1)
        assert str(err.value).startswith("attention: non-finite")


class TestAUCrossAttention:
    def test_single_patch_forces_uniform(self):
        patches = Tensor(np.random.default_rng(0).normal(size=(2, 1, 8)))
        queries = Tensor(np.random.default_rng(1).normal(size=(6, 8)))
        pooled, alpha = au_cross_attention(patches, queries)
        assert np.allclose(alpha.data, 1.0)
        for i in range(6):
            assert np.allclose(pooled.data[:, i, :], patches.data[:, 0, :])

    def test_orthogonal_queries_give_mean(self):
        patches = Tensor(np.random.default_rng(0).normal(size=(1, 5, 4)))
        queries = Tensor(np.zeros((6, 4)))
        pooled, alpha = au_cross_attention(patches, queries)
        assert np.allclose(alpha.data, 0.2)
        assert np.allclose(pooled.data, patches.data.mean(axis=1, keepdims=True))

    def test_hand_case_d1(self):
        patches = Tensor(np.array([[[1.0], [3.0]]]))
        queries = Tensor(np.array([[2.0]]))
        pooled, alpha = au_cross_attention(patches, queries)
        assert np.allclose(alpha.data[0, 0], [0.017986209962091555,
                                              0.9820137900379085], atol=1e-12)
        assert np.isclose(pooled.data[0, 0, 0], 2.9640275800758173, atol=1e-12)

    def test_matches_scalar_reference_on_random_instances(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            b, n, d = rng.integers(1, 4), int(rng.integers(1, 6)), int(rng.integers(1, 5))
            n_q = int(rng.integers(1, 7))
            patches = rng.normal(size=(b, n, d))
            queries = rng.normal(size=(n_q, d))
            pooled, alpha = au_cross_attention(Tensor(patches), Tensor(queries))
            ref_pooled, ref_alpha = scalar_cross_attention(patches, queries)
            assert np.allclose(alpha.data, ref_alpha, atol=1e-10)
            assert np.allclose(pooled.data, ref_pooled, atol=1e-10)
            assert np.all(np.abs(alpha.data.sum(-1) - 1.0) < 1e-5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            au_cross_attention(Tensor(np.zeros((1, 4, 8))), Tensor(np.zeros((6, 7))))


class TestHeads:
    def test_au_head_nonnegative_everywhere(self):
        cfg = ModelConfig(image_size=32, patch_size=16, hidden_dim=16,
                          num_layers=1, num_heads=2)
        rng = np.random.default_rng(0)
        for seed in range(3):
            params = init_params(cfg, seed)
            for name in ("au_head.w1", "au_head.w2"):
                params.tensors[name] = Tensor(rng.normal(size=params.tensors[name].shape) * 5,
                                              requires_grad=True)
            features = Tensor(rng.normal(size=(4, 6, 16)) * 10)
            out = au_head(features, params)
            assert out.shape == (4, 6)
            assert np.all(out.data >= 0)

    def test_au_head_zero_params_zero_output(self):
        cfg = ModelConfig(image_size=32, patch_size=16, hidden_dim=16,
                          num_layers=1, num_heads=2)
        params = init_params(cfg, 0)
        for name in ("au_head.w1", "au_head.b1", "au_head.w2", "au_head.b2"):
            params.tensors[name] = Tensor(np.zeros_like(params.tensors[name].data),
                                          requires_grad=True)
        out = au_head(Tensor(np.random.default_rng(0).normal(size=(2, 6, 16))), params)
        assert np.all(out.data == 0)

    def test_au_head_hand_trace_one_dim(self):
        # relu(-relu(5)) with unit weights: the second ReLU clamps to 0.
        h = T.relu(T.add(chains.matmul(Tensor([[5.0]]), Tensor([[1.0]])), Tensor([0.0])))
        y = T.relu(T.add(chains.matmul(h, Tensor([[-1.0]])), Tensor([0.0])))
        assert y.data[0, 0] == 0.0

    def test_pspi_head_output_width_17(self):
        cfg = ModelConfig(image_size=32, patch_size=16, hidden_dim=32,
                          num_layers=1, num_heads=2)
        params = init_params(cfg, 0)
        out = pspi_head(Tensor(np.random.default_rng(0).normal(size=(3, 32))), params)
        assert out.shape == (3, 17)

    def test_pspi_head_eval_deterministic(self):
        cfg = ModelConfig(image_size=32, patch_size=16, hidden_dim=32,
                          num_layers=1, num_heads=2)
        params = init_params(cfg, 0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 32)))
        a = pspi_head(x, params, training=False)
        b = pspi_head(x, params, training=False)
        assert np.array_equal(a.data, b.data)

    def test_pspi_head_zero_final_layer_gives_bias(self):
        cfg = ModelConfig(image_size=32, patch_size=16, hidden_dim=32,
                          num_layers=1, num_heads=2)
        params = init_params(cfg, 0)
        params.tensors["pspi_head.w3"] = Tensor(
            np.zeros_like(params.tensors["pspi_head.w3"].data), requires_grad=True)
        bias = np.arange(17.0)
        params.tensors["pspi_head.b3"] = Tensor(bias, requires_grad=True)
        out = pspi_head(Tensor(np.random.default_rng(1).normal(size=(3, 32))), params)
        assert np.allclose(out.data, np.tile(bias, (3, 1)))


class TestForward:
    CFG = ModelConfig(image_size=64, patch_size=16, hidden_dim=64,
                      num_layers=2, num_heads=4)

    def test_output_shapes(self):
        params = init_params(self.CFG, 0)
        out = forward(np.random.default_rng(0).random((2, 64, 64, 3)), params)
        assert out.pspi_logits.shape == (2, 17)
        assert out.au_pred.shape == (2, 6)
        assert out.cls_feature.shape == (2, 64)
        assert out.attention_maps.shape == (2, 6, 16)
        assert np.all(np.abs(out.attention_maps.data.sum(-1) - 1.0) < 1e-5)

    def test_identical_inputs_identical_rows(self):
        params = init_params(self.CFG, 0)
        img = np.random.default_rng(0).random((1, 64, 64, 3))
        out = forward(np.concatenate([img, img]), params)
        for field in (out.pspi_logits, out.au_pred, out.cls_feature):
            assert np.array_equal(field.data[0], field.data[1])

    def test_eval_forward_is_pure(self):
        params = init_params(self.CFG, 0)
        img = np.random.default_rng(0).random((2, 64, 64, 3))
        a = forward(img, params)
        b = forward(img, params)
        assert np.array_equal(a.pspi_logits.data, b.pspi_logits.data)

    def test_resolution_mismatch_is_config_error(self):
        params = init_params(self.CFG, 0)
        with pytest.raises(ConfigError):
            forward(np.zeros((1, 32, 32, 3)), params)

    @pytest.mark.parametrize("channels", [3, 1])
    @pytest.mark.parametrize("training", [False, True])
    def test_float32_input_equals_its_float64_copy(self, channels, training):
        cfg = ModelConfig(image_size=64, patch_size=16, hidden_dim=32,
                          num_layers=1, num_heads=2, in_channels=channels)
        params = init_params(cfg, 0)
        images = np.random.default_rng(channels).random((5, 64, 64, channels))
        images = images.astype(np.float32)
        if channels == 1:  # sparse, like a heatmap
            images[images < 0.7] = 0.0
        single = forward(images, params, training, 3, 2)
        double = forward(images.astype(np.float64), params, training, 3, 2)
        for field in ("pspi_logits", "au_pred", "cls_feature", "patch_features"):
            a, b = getattr(single, field).data, getattr(double, field).data
            assert a.dtype == b.dtype == np.float64
            assert a.tobytes() == b.tobytes(), field

    def test_baseline_variant_has_no_attention_maps(self):
        cfg = ModelConfig(image_size=64, patch_size=16, hidden_dim=32,
                          num_layers=1, num_heads=2, use_au_queries=False)
        params = init_params(cfg, 0)
        out = forward(np.random.default_rng(0).random((2, 64, 64, 3)), params)
        assert out.attention_maps is None
        assert out.au_pred.shape == (2, 6)
        assert np.all(out.au_pred.data >= 0)

    def test_gradcheck_through_full_model(self):
        tiny = ModelConfig(image_size=8, patch_size=4, hidden_dim=16,
                           num_layers=1, num_heads=2)
        rng = np.random.default_rng(3)
        params = init_params(tiny, 0)
        # random healthy point: init-scale weights give gradients near the
        # exclusion floor where finite differences are pure noise
        for name, t in params.tensors.items():
            params.tensors[name] = Tensor(rng.normal(0, 0.4, size=t.shape),
                                          requires_grad=True)
        images = rng.random((2, 8, 8, 3))
        labels = np.array([3, 9])
        au_targets = Tensor(rng.random((2, 6)) * 3)

        def loss_wrt(name):
            def f(x):
                params.tensors[name] = x
                out = forward(images, params)
                return T.add(cross_entropy(out.pspi_logits, labels),
                             mse(out.au_pred, au_targets))
            return f

        for name in ("cls_token", "au_queries", "pspi_head.w3",
                     "blocks.0.attn.wq", "patch_proj.w"):
            original = params.tensors[name]
            err = gradcheck(loss_wrt(name), original, h=1e-5)
            params.tensors[name] = original
            assert err < 1e-4, f"{name}: {err}"

    def test_gradcheck_wrt_input_image(self):
        tiny = ModelConfig(image_size=8, patch_size=4, hidden_dim=16,
                           num_layers=1, num_heads=2)
        rng = np.random.default_rng(4)
        params = init_params(tiny, 0)
        for name, t in params.tensors.items():
            params.tensors[name] = Tensor(rng.normal(0, 0.4, size=t.shape),
                                          requires_grad=True)
        labels = np.array([1, 14])

        def f(x):
            # patchify + centering redone by hand so the graph reaches x
            imgs = T.mul(T.add(x, T.mul(T.tsum(x), -1.0 / x.size)), 2.0)
            patches = T.reshape(chains.transpose(T.reshape(
                imgs, (2, 2, 4, 2, 4, 3)), (0, 1, 3, 2, 4, 5)), (2, 4, 48))
            tok = T.add(chains.matmul(patches, params.tensors["patch_proj.w"]),
                        params.tensors["patch_proj.b"])
            pos = params.tensors["pos_embed"]
            tok = T.add(tok, T.getitem(pos, slice(1, None)))
            cls = T.add(params.tensors["cls_token"], T.getitem(pos, 0))
            tokens = T.concat([T.broadcast_to(T.reshape(cls, (1, 1, 16)), (2, 1, 16)),
                               tok], axis=1)
            encoded = encoder_forward(tokens, params)
            return cross_entropy(pspi_head(T.getitem(encoded, (slice(None), 0)), params),
                                 labels)

        err = gradcheck(f, Tensor(rng.random((2, 8, 8, 3))), h=1e-5)
        assert err < 1e-4, f"input gradcheck: {err}"

    def test_zero_layer_identity_projection_matches_scalar_attention(self):
        # With no encoder blocks, an identity patch projection and zero
        # positional embeddings, the AU branch consumes the raw (centered)
        # patches directly, so it must match the straight-line reference.
        cfg = ModelConfig(image_size=8, patch_size=4, hidden_dim=16,
                          num_layers=0, num_heads=2, in_channels=1)
        params = init_params(cfg, 0)
        params.tensors["patch_proj.w"] = Tensor(np.eye(16), requires_grad=True)
        params.tensors["patch_proj.b"] = Tensor(np.zeros(16), requires_grad=True)
        params.tensors["pos_embed"] = Tensor(np.zeros((5, 16)), requires_grad=True)
        rng = np.random.default_rng(0)
        images = rng.random((2, 8, 8, 1))
        out = forward(images, params)

        centered = (images - images.mean(axis=(1, 2, 3), keepdims=True)) * 2.0
        raw_patches = centered.reshape(2, 2, 4, 2, 4, 1).transpose(
            0, 1, 3, 2, 4, 5).reshape(2, 4, 16)
        assert np.allclose(out.patch_features.data, raw_patches, atol=1e-12)
        ref_pooled, ref_alpha = scalar_cross_attention(
            raw_patches, params.tensors["au_queries"].data)
        assert np.allclose(out.attention_maps.data, ref_alpha, atol=1e-10)
        pooled, _ = au_cross_attention(out.patch_features,
                                       params.tensors["au_queries"])
        assert np.allclose(pooled.data, ref_pooled, atol=1e-10)


def split_pos_embed_forward(images, params, training, run_seed, step):
    """``forward`` with the earlier token assembly: ``pos_embed[1:]`` added
    to the patch tokens and ``pos_embed[0]`` to the CLS token, separately."""
    config, p = params.config, params.tensors
    batch, d = images.shape[0], config.hidden_dim
    tok = T.add(patch_embed(images, params), T.getitem(p["pos_embed"], slice(1, None)))
    cls = T.add(p["cls_token"], T.getitem(p["pos_embed"], 0))
    cls_row = T.broadcast_to(T.reshape(cls, (1, 1, d)), (batch, 1, d))
    encoded = encoder_forward(T.concat([cls_row, tok], axis=1), params)
    cls_feature = T.getitem(encoded, (slice(None), 0))
    patch_features = T.getitem(encoded, (slice(None), slice(1, None)))
    logits = pspi_head(cls_feature, params, training, run_seed, step)
    if config.use_au_queries:
        pooled, alpha = au_cross_attention(patch_features, p["au_queries"])
        return logits, au_head(pooled, params), cls_feature, patch_features, alpha
    return logits, au_head(cls_feature, params), cls_feature, patch_features, None


@pytest.mark.parametrize("use_au_queries", [True, False])
@pytest.mark.parametrize("heads", [1, 4])
def test_one_positional_add_matches_split_assembly(use_au_queries, heads):
    cfg = ModelConfig(image_size=32, patch_size=8, hidden_dim=16, num_layers=2,
                      num_heads=heads, use_au_queries=use_au_queries)
    rng = np.random.default_rng(heads)
    images = rng.random((3, 32, 32, 3))
    labels = np.array([0, 5, 16])
    au_targets = Tensor(rng.random((3, 6)) * 3)

    def run(model):
        params = init_params(cfg, 7)
        outs = model(images, params, True, 5, 3)
        loss = T.add(cross_entropy(outs[0], labels), mse(outs[1], au_targets))
        loss.backward()
        return outs, {n: t.grad for n, t in params.tensors.items()}

    def one_add(images, params, training, run_seed, step):
        out = forward(images, params, training, run_seed, step)
        return (out.pspi_logits, out.au_pred, out.cls_feature,
                out.patch_features, out.attention_maps)

    outs, grads = run(one_add)
    ref_outs, ref_grads = run(split_pos_embed_forward)
    for out, ref in zip(outs, ref_outs):
        assert (out is None) == (ref is None)
        assert out is None or np.array_equal(out.data, ref.data)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name
    assert grads["pos_embed"] is not None and grads["cls_token"] is not None


class _RecordingThreadPool(ThreadPoolExecutor):
    """The thread pool ``predict`` builds, recording its ``max_workers``."""

    built: list = []

    def __init__(self, max_workers):
        self.built.append(max_workers)
        super().__init__(max_workers=max_workers)


class TestPredict:
    CFG = ModelConfig(image_size=32, patch_size=16, hidden_dim=32, num_layers=1,
                      num_heads=2)

    @pytest.fixture()
    def pools(self, monkeypatch):
        monkeypatch.setattr(_RecordingThreadPool, "built", [])
        monkeypatch.setattr(model, "ThreadPoolExecutor", _RecordingThreadPool)
        return _RecordingThreadPool.built

    @pytest.mark.parametrize("chunks", [1, 2, 3, 4])
    def test_bit_equal_at_one_and_two_threads(self, pools, monkeypatch, chunks):
        params = init_params(self.CFG, 0)
        n = 16 * (chunks - 1) + 3  # the last encoder chunk holds 3 of 16
        images = np.random.default_rng(chunks).random((n, 32, 32, 3))
        outs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("PAINFORGE_THREADS", threads)
            outs[threads] = predict(images.astype(np.float32), params, 5)
        # One worker, or one chunk, runs inline; else a pool of two threads.
        assert pools == ([2] if chunks > 1 else [])
        assert [a.shape[0] for a in outs["1"]] == [n, n, n]
        for serial, threaded in zip(outs["1"], outs["2"]):
            assert serial.dtype == threaded.dtype == np.float64
            assert serial.tobytes() == threaded.tobytes()

    def test_more_threads_than_cores_under_fast_switching(self, pools, monkeypatch):
        # Encoder chunks read shared arrays and write disjoint rows of one
        # output; seven chunks on six threads, with a thread switch every
        # 10 us, must not change a bit of the gathered results.
        params = init_params(self.CFG, 0)
        images = np.random.default_rng(9).random((101, 32, 32, 3))
        monkeypatch.setenv("PAINFORGE_THREADS", "1")
        serial = predict(images, params, 2)
        monkeypatch.setenv("PAINFORGE_THREADS", "6")

        def expire(signum, frame):
            pytest.fail("predict was still running its threads after 60 s")

        interval = sys.getswitchinterval()
        previous = signal.signal(signal.SIGALRM, expire)
        sys.setswitchinterval(1e-5)
        signal.alarm(60)
        try:
            threaded = predict(images, params, 2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            sys.setswitchinterval(interval)
        assert pools == [6]
        for a, b in zip(serial, threaded):
            assert a.tobytes() == b.tobytes()

    def test_non_finite_image_in_last_batch_raises_as_serial(self, monkeypatch):
        params = init_params(self.CFG, 0)
        images = np.random.default_rng(0).random((37, 32, 32, 3))
        images[36, 7, 9, 1] = np.nan
        messages = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("PAINFORGE_THREADS", threads)
            with pytest.raises(NumericError) as exc:
                predict(images, params, 5)
            messages[threads] = str(exc.value)
        assert messages["1"] == messages["2"]
        assert "(5, 4, 768)" in messages["1"]  # the 5-image last encoder chunk

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_which_outputs_depend_on_batch_size(self, monkeypatch, threads):
        # Encoder rows are computed per image, so the CLS features and the
        # AU-query branch are the same at every batch size; the pain head's
        # GEMMs see the batch_size partition, as forward over it does.
        params = init_params(self.CFG, 0)
        assert self.CFG.use_au_queries
        images = np.random.default_rng(4).random((70, 32, 32, 3)).astype(np.float32)
        monkeypatch.setenv("PAINFORGE_THREADS", threads)
        reference = predict(images, params, 64)
        constant = params.detach()
        for batch_size in (1, 5, 7, 16, 31, 33, 64):
            logits, au_pred, cls_features = predict(images, params, batch_size)
            assert cls_features.tobytes() == reference[2].tobytes()
            assert au_pred.tobytes() == reference[1].tobytes()
            batches = [forward(images[lo:lo + batch_size], constant).pspi_logits.data
                       for lo in range(0, len(images), batch_size)]
            assert logits.tobytes() == np.concatenate(batches).tobytes()

    def test_memory_does_not_grow_with_batch_size(self, monkeypatch):
        # The encoder runs in fixed chunks; only the small heads see a batch.
        monkeypatch.setenv("PAINFORGE_THREADS", "1")
        params = init_params(ModelConfig(), 1)
        images = np.random.default_rng(1).random((192, 64, 64, 3)).astype(np.float32)
        predict(images[:2], params, 2)  # first-call set-up stays out of the peaks
        peaks = {}
        for batch_size in (16, 64):
            tracemalloc.start()
            try:
                predict(images, params, batch_size)
                peaks[batch_size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] <= 1.1 * peaks[16], peaks

    def test_no_images_is_a_dimension_error(self, pools, monkeypatch):
        monkeypatch.setenv("PAINFORGE_THREADS", "2")
        with pytest.raises(DimensionError, match="at least one image"):
            predict(np.zeros((0, 32, 32, 3), np.float32), init_params(self.CFG, 0), 4)
        assert pools == []

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_bad_thread_count_is_a_config_error(self, monkeypatch, raw):
        monkeypatch.setenv("PAINFORGE_THREADS", raw)
        with pytest.raises(ConfigError, match="PAINFORGE_THREADS"):
            predict(np.zeros((2, 32, 32, 3)), init_params(self.CFG, 0), 1)

    def test_bit_equal_under_the_default_blas_thread_count(self):
        # A fresh process with no BLAS thread limit set, at the default model
        # size, so OpenBLAS may split its GEMMs over threads of its own.
        code = (
            "import hashlib, os, numpy as np\n"
            "from painforge.model import ModelConfig, init_params, predict\n"
            "params = init_params(ModelConfig(), 1)\n"
            "images = np.random.default_rng(1).random((150, 64, 64, 3))\n"
            "for threads in ('1', '2'):\n"
            "    os.environ['PAINFORGE_THREADS'] = threads\n"
            "    outs = predict(images.astype(np.float32), params, 64)\n"
            "    print(hashlib.sha256(b''.join(a.tobytes() for a in outs)).hexdigest())\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS", "PAINFORGE_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        serial, threaded = out.stdout.split()
        assert serial == threaded


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = ModelConfig(image_size=32, patch_size=16, hidden_dim=32,
                          num_layers=1, num_heads=2)
        params = init_params(cfg, 5)
        save_checkpoint(params, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.config == cfg
        assert set(loaded.tensors) == set(params.tensors)
        for name in params.tensors:
            assert np.array_equal(loaded.tensors[name].data,
                                  params.tensors[name].data)

    def test_save_twice_identical_bytes(self, tmp_path):
        cfg = ModelConfig(image_size=32, patch_size=16, hidden_dim=32,
                          num_layers=1, num_heads=2)
        params = init_params(cfg, 5)
        save_checkpoint(params, tmp_path / "a")
        save_checkpoint(params, tmp_path / "b")
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(ConfigError):
            load_checkpoint(tmp_path / "nothing")

    def test_index_that_does_not_parse(self, tmp_path):
        cfg = ModelConfig(image_size=32, patch_size=16, hidden_dim=32,
                          num_layers=1, num_heads=2)
        ckpt = save_checkpoint(init_params(cfg, 5), tmp_path / "ckpt")
        index = ckpt / "index.json"
        index.write_text(index.read_text()[:40])
        with pytest.raises(DataError, match="index.json does not parse"):
            load_checkpoint(ckpt)
