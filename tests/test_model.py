"""Model architecture: shapes, attention equations, heads, checkpoints."""

import math

import numpy as np
import pytest

from painforge import tensor as T
from painforge.errors import ConfigError, DimensionError, NumericError
from painforge.model import (ModelConfig, au_cross_attention, au_head,
                             encoder_forward, forward, init_params,
                             load_checkpoint, patch_embed, pspi_head,
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
        h = T.relu(T.add(T.matmul(Tensor([[5.0]]), Tensor([[1.0]])), Tensor([0.0])))
        y = T.relu(T.add(T.matmul(h, Tensor([[-1.0]])), Tensor([0.0])))
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
            patches = T.reshape(T.transpose(T.reshape(
                imgs, (2, 2, 4, 2, 4, 3)), (0, 1, 3, 2, 4, 5)), (2, 4, 48))
            tok = T.add(T.matmul(patches, params.tensors["patch_proj.w"]),
                        params.tensors["patch_proj.b"])
            tok = T.add(tok, params.tensors["pos_embed"][1:])
            cls = T.add(params.tensors["cls_token"],
                        params.tensors["pos_embed"][0])
            tokens = T.concat([T.broadcast_to(cls.reshape(1, 1, 16), (2, 1, 16)),
                               tok], axis=1)
            encoded = encoder_forward(tokens, params)
            return cross_entropy(pspi_head(encoded[:, 0], params), labels)

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
