"""Tensor engine: op semantics, frozen oracle values, gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primitive_chains as chains
from painforge import tensor as T
from painforge.errors import (DimensionError, LabelError, NumericError,
                              ParameterError)
from painforge.rng import keyed_rng
from painforge.tensor import (Tensor, cross_entropy, dropout, gelu, gradcheck,
                              kl_temperature, layer_norm, mse, relu, softmax)

# Values computed by standalone scalar scripts before the engine existed.
KL_ORACLE_T1 = 0.13081203594113697
KL_ORACLE_T4 = 0.14945786501204283


def _square(t):
    return t * t


class TestMatmul:
    """The matmul oracle the attention chain is built from."""

    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = chains.matmul(Tensor(np.eye(2)), Tensor(a))
        assert np.array_equal(out.data, a)

    def test_hand_product(self):
        out = chains.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]),
                            Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as err:
            chains.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(err.value)

    def test_batched_broadcast(self):
        q = np.random.default_rng(0).normal(size=(6, 4))
        p = np.random.default_rng(1).normal(size=(2, 4, 5))
        out = chains.matmul(Tensor(q), Tensor(p))
        assert out.shape == (2, 6, 5)
        assert np.allclose(out.data, q @ p)


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_closed_form(self):
        out = softmax(Tensor([np.log(2.0), 0.0]))
        assert np.allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_stability_under_shift(self):
        out = softmax(Tensor([1000.0, 1000.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_rows_sum_to_one_with_large_shifts(self):
        rng = np.random.default_rng(3)
        for shift in (0.0, 1e4, -1e4):
            x = rng.normal(size=(5, 9)) + shift
            out = softmax(Tensor(x), axis=-1)
            assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) < 1e-6)
            assert np.all(out.data > 0.0)

    def test_nan_input_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.nan, 0.0])


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        out = layer_norm(Tensor([[4.0, 4.0, 4.0]]), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0)

    def test_two_point_row(self):
        out = layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)),
                         Tensor(np.zeros(2)), eps=1e-15)
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-6)

    def test_affine(self):
        out = layer_norm(Tensor([[1.0, 3.0]]), Tensor(2 * np.ones(2)),
                         Tensor(np.ones(2)), eps=1e-15)
        assert np.allclose(out.data, [[-1.0, 3.0]], atol=1e-6)

    def test_mismatched_affine_shape(self):
        with pytest.raises(DimensionError):
            layer_norm(Tensor([[1.0, 2.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))


class TestFusedOps:
    def test_forwards_bit_identical_to_primitive_compositions(self):
        rng = np.random.default_rng(11)
        for shape in [(7, 16), (3, 5, 16), (2, 3, 4, 16)]:
            x = Tensor(rng.normal(size=shape) * rng.uniform(0.1, 10.0))
            w, b = Tensor(rng.normal(size=(16, 9))), Tensor(rng.normal(size=9))
            assert np.array_equal(T.linear(x, w, b).data,
                                  T.add(chains.matmul(x, w), b).data)
            gamma = Tensor(rng.random(16) + 0.5)
            beta = Tensor(rng.normal(size=16))
            assert np.array_equal(layer_norm(x, gamma, beta).data,
                                  chains.layer_norm(x, gamma, beta).data)

    def test_linear_shape_errors(self):
        x = Tensor(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            T.linear(x, Tensor(np.ones((4, 5))), Tensor(np.ones(5)))
        with pytest.raises(DimensionError):
            T.linear(x, Tensor(np.ones((3, 5))), Tensor(np.ones(4)))

    def test_constant_operands_get_no_gradient(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=5))
        T.tsum(T.linear(x, w, b)).backward()
        assert x.grad is None and b.grad is None
        assert np.allclose(w.grad, x.data.reshape(-1, 4).sum(axis=0)[:, None])
        q = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        kv = Tensor(rng.normal(size=(2, 5, 4)))
        T.tsum(T.attention(q, kv, kv, 2)[0]).backward()
        assert q.grad.shape == (6, 4) and kv.grad is None

    def test_non_finite_output_names_the_op(self):
        x = Tensor(np.full((1, 2), 1e308))
        with np.errstate(over="ignore"), pytest.raises(NumericError) as err:
            T.linear(x, Tensor(np.full((2, 2), 1e308)), Tensor(np.zeros(2)))
        assert str(err.value).startswith("linear: non-finite")
        with np.errstate(over="ignore"), pytest.raises(NumericError) as err:
            layer_norm(Tensor([[1e200, -1e200]]), Tensor(np.ones(2)),
                       Tensor(np.zeros(2)))
        assert str(err.value).startswith("layer_norm: non-finite")
        losses = {
            "cross_entropy": lambda: cross_entropy(Tensor([[1e308, -1e308]]), [0]),
            "mse": lambda: mse(Tensor([1e200]), Tensor([-1e200])),
            "kl_temperature": lambda: kl_temperature(
                Tensor([[1e308, -1e308]]), Tensor([[0.0, 0.0]]), 1.0),
        }
        for name, loss in losses.items():
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NumericError) as err:
                loss()
            assert str(err.value).startswith(f"{name}: non-finite"), name

    @staticmethod
    def _loss_case(rng, name):
        """Random leaves and loss arguments with a random shape and scale."""
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        if name == "mse":
            shape = tuple(rng.integers(1, 6, size=rng.integers(0, 4)))
            a = Tensor(rng.normal(size=shape) * scale, requires_grad=True)
            b = Tensor(rng.normal(size=shape) * scale, requires_grad=True)
            return (a, b), (a, b)
        batch, classes = rng.integers(1, 9), rng.integers(2, 20)
        z = Tensor(rng.normal(size=(batch, classes)) * scale, requires_grad=True)
        if name == "cross_entropy":
            return (z, rng.integers(0, classes, size=batch)), (z,)
        teacher = Tensor(rng.normal(size=(batch, classes)) * scale)
        return (teacher, z, 10.0 ** rng.uniform(-0.5, 1.0)), (z,)

    @pytest.mark.parametrize("name", ["cross_entropy", "mse", "kl_temperature"])
    def test_losses_bit_identical_to_primitive_chains(self, name):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            weight, seed = rng.uniform(0.05, 5.0), rng.integers(2**63)
            results = []
            for loss in (getattr(T, name), getattr(chains, name)):
                args, leaves = self._loss_case(np.random.default_rng(seed), name)
                value = loss(*args)
                T.mul(value, weight).backward()
                results.append((value.item(), [leaf.grad for leaf in leaves]))
            (fused, fused_grads), (chain, chain_grads) = results
            assert fused == chain
            for got, want in zip(fused_grads, chain_grads):
                assert got.shape == want.shape and np.array_equal(got, want)


class TestAssign:
    def test_replaces_values_and_clears_gradient(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        T.tsum(w * 3.0).backward()
        w.assign(np.array([5.0, 6.0]))
        assert np.array_equal(w.data, [5.0, 6.0]) and w.grad is None

    def test_rejects_non_finite_values(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(NumericError):
            w.assign(np.array([np.inf, 0.0]))
        assert np.array_equal(w.data, [1.0, 2.0])


class TestActivations:
    def test_relu_definition(self):
        out = relu(Tensor([-2.0, 3.0]))
        assert np.array_equal(out.data, [0.0, 3.0])

    def test_gelu_zero(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0

    def test_gelu_large_positive_is_identity(self):
        assert np.isclose(gelu(Tensor([10.0])).data[0], 10.0)

    def test_dropout_eval_is_bit_exact(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        out = dropout(x, 0.5, training=False)
        assert np.array_equal(out.data, x.data)

    def test_dropout_bad_probability(self):
        with pytest.raises(ParameterError):
            dropout(Tensor([1.0]), 1.0, training=True, rng=keyed_rng(0))
        with pytest.raises(ParameterError):
            dropout(Tensor([1.0]), -0.1, training=True, rng=keyed_rng(0))

    def test_dropout_training_rescales_survivors(self):
        x = Tensor(np.ones(10000))
        out = dropout(x, 0.25, training=True, rng=keyed_rng(1, 2, 3))
        survivors = out.data[out.data != 0.0]
        assert np.allclose(survivors, 1.0 / 0.75)
        assert abs(survivors.size / 10000 - 0.75) < 0.03

    def test_dropout_same_key_same_mask(self):
        x = Tensor(np.ones(64))
        a = dropout(x, 0.5, training=True, rng=keyed_rng(9, 1, 4))
        b = dropout(x, 0.5, training=True, rng=keyed_rng(9, 1, 4))
        assert np.array_equal(a.data, b.data)


class TestCrossEntropy:
    def test_uniform_logits(self):
        out = cross_entropy(Tensor(np.zeros((3, 17))), np.array([0, 5, 16]))
        assert np.isclose(out.item(), np.log(17.0), atol=1e-12)

    def test_saturated_correct_class(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1e4
        assert cross_entropy(Tensor(logits), np.array([2])).item() < 1e-8

    def test_out_of_range_label(self):
        with pytest.raises(LabelError) as err:
            cross_entropy(Tensor(np.zeros((2, 17))), np.array([3, 17]))
        assert "17" in str(err.value) and "index 1" in str(err.value)


class TestKLTemperature:
    def test_identical_is_exactly_zero(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(4, 7)) * 3
        for temp in (0.5, 1.0, 4.0):
            assert kl_temperature(Tensor(z), Tensor(z.copy()), temp).item() == 0.0

    def test_hand_case_t1(self):
        out = kl_temperature(Tensor([[np.log(3.0), 0.0]]), Tensor([[0.0, 0.0]]), 1.0)
        assert np.isclose(out.item(), KL_ORACLE_T1, atol=1e-12)

    def test_hand_case_t4(self):
        out = kl_temperature(Tensor([[np.log(3.0), 0.0]]), Tensor([[0.0, 0.0]]), 4.0)
        assert np.isclose(out.item(), KL_ORACLE_T4, atol=1e-12)

    def test_teacher_receives_no_gradient(self):
        z_t = Tensor(np.random.default_rng(0).normal(size=(2, 5)), requires_grad=True)
        z_s = Tensor(np.random.default_rng(1).normal(size=(2, 5)), requires_grad=True)
        kl_temperature(z_t, z_s, 4.0).backward()
        assert z_t.grad is None
        assert z_s.grad is not None and np.any(z_s.grad != 0)

    def test_bad_temperature(self):
        with pytest.raises(ParameterError):
            kl_temperature(Tensor([[0.0, 1.0]]), Tensor([[0.0, 1.0]]), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-15, 15), min_size=2, max_size=6),
           st.lists(st.floats(-15, 15), min_size=2, max_size=6),
           st.floats(0.25, 8.0))
    def test_nonnegative(self, a, b, temp):
        n = min(len(a), len(b))
        out = kl_temperature(Tensor([a[:n]]), Tensor([b[:n]]), temp)
        assert out.item() >= -1e-12


class TestMSE:
    def test_identical(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert mse(x, Tensor(x.data.copy())).item() == 0.0

    def test_hand_case(self):
        assert mse(Tensor([0.0, 2.0]), Tensor([1.0, 0.0])).item() == 2.5

    def test_scalars(self):
        assert mse(Tensor(3.0), Tensor(1.0)).item() == 4.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mse(Tensor([1.0, 2.0]), Tensor([[1.0, 2.0]]))


class TestGradcheck:
    def test_linear_is_exact(self):
        err = gradcheck(lambda x: T.tsum(3.0 * x), Tensor(np.random.default_rng(0).normal(size=7)))
        assert err <= 1e-10

    def test_every_op_at_random_points(self):
        rng = np.random.default_rng(42)
        b_const = Tensor(rng.normal(size=(4, 3)))
        w_const = Tensor(rng.random((2, 3)) + 0.5)
        w6 = Tensor(rng.random(6) + 0.5)
        gamma = Tensor(rng.random(6) + 0.5)
        beta = Tensor(rng.normal(size=6))
        labels = np.array([1, 3])
        z_teacher = Tensor(rng.normal(size=(2, 6)))
        targets = Tensor(rng.normal(size=(2, 6)))
        att_q, att_k, att_v = (Tensor(rng.normal(size=(2, 3, 4))) for _ in range(3))
        att_q2 = Tensor(rng.normal(size=(3, 4)))
        att_w = Tensor(rng.random((2, 3, 4)) + 0.5)

        def pooled(q, k, v, heads):
            return T.tsum(T.attention(q, k, v, heads)[0] * att_w)

        cases = {
            "add": lambda x: T.tsum((x + b_const.data[0, 0]) * w6),
            "mul": lambda x: T.tsum(x * w6),
            "matmul": lambda x: T.tsum(chains.matmul(x, b_const) * w_const),
            "sum_axis": lambda x: T.tsum(_square(T.tsum(x.reshape(2, 3), axis=1))),
            "softmax": lambda x: T.tsum(softmax(x.reshape(2, 3), -1) * w_const),
            "layer_norm": lambda x: T.tsum(layer_norm(x.reshape(1, 6), gamma, beta) * w6),
            "relu": lambda x: T.tsum(relu(x) * w6),
            "gelu": lambda x: T.tsum(gelu(x) * w6),
            "dropout": lambda x: T.tsum(
                dropout(x, 0.4, training=True, rng=keyed_rng(3, 1, 7)) * w6),
            "cross_entropy": lambda x: cross_entropy(x.reshape(2, 3), np.array([0, 2])),
            "kl_student": lambda x: kl_temperature(z_teacher, x.reshape(2, 6), 4.0),
            "mse": lambda x: mse(x.reshape(2, 6), targets),
            "concat": lambda x: T.tsum(_square(T.concat([x.reshape(2, 3), w_const], axis=0))),
            "getitem": lambda x: T.tsum(x[1:5] * w6.data[0]),
            "broadcast": lambda x: T.tsum(T.broadcast_to(x.reshape(1, 6), (3, 6)) * 0.7),
            "attention_q": lambda x: pooled(x, att_k, att_v, 2),
            "attention_k": lambda x: pooled(att_q, x, att_v, 2),
            "attention_v": lambda x: pooled(att_q, att_k, x, 2),
            "attention_q_2d": lambda x: pooled(x, att_k, att_k, 1),
            "attention_kv_shared": lambda x: pooled(att_q2, x, x, 1),
        }
        sizes = {"matmul": (2, 4), "kl_student": 12, "mse": 12,
                 "attention_q_2d": (3, 4),
                 **{name: (2, 3, 4) for name in ("attention_q", "attention_k",
                                                 "attention_v", "attention_kv_shared")}}
        worst = {}
        for trial in range(10):
            for name, f in cases.items():
                point = rng.normal(size=sizes.get(name, 6))
                if name == "relu":
                    point = point + np.sign(point) * 0.2  # keep off the kink
                err = gradcheck(f, Tensor(point), h=1e-5)
                worst[name] = max(worst.get(name, 0.0), err)
        for name, err in worst.items():
            assert err < 1e-4, f"{name}: max rel err {err}"

    def test_zero_size_rejected(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((0, 3)))


class TestBackwardMechanics:
    def test_grad_accumulates_over_shared_use(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x * 3.0
        y.backward(np.ones(1))
        assert np.allclose(x.grad, [7.0])  # 2x + 3

    def test_backward_needs_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(DimensionError):
            (x * 2.0).backward()

    def test_detach_stops_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        T.tsum(x.detach() * 2.0 + x).backward()
        assert np.allclose(x.grad, [1.0, 1.0])

    def test_eval_graph_not_built(self):
        x = Tensor([1.0, 2.0])
        out = x * 2.0 + 1.0
        assert out._parents == () and out._backward_fn is None

    def test_backward_releases_the_graph(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        w = Tensor([0.5, 0.25, 2.0], requires_grad=True)
        hidden = [T.mul(x, w)]
        hidden.append(T.gelu(hidden[-1]))
        hidden.append(T.layer_norm(hidden[-1], w, x))
        y = T.tsum(T.mul(hidden[-1], hidden[0]))
        y.backward()
        assert x.grad is not None and w.grad is not None
        for node in hidden + [y]:
            assert node.grad is None and node._parents == ()
            assert node._backward_fn is T._released

    def test_second_backward_through_a_released_graph_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([3.0, 4.0], requires_grad=True)
        h = T.gelu(x)
        y, z = T.tsum(h), T.tsum(T.mul(h, w))
        y.backward()
        grad = x.grad
        with pytest.raises(ParameterError, match="released"):
            y.backward()
        with pytest.raises(ParameterError, match="released"):
            z.backward()  # shares h, released by y's backward
        # The rejected backward wrote nothing: not even w, reached around h.
        assert x.grad is grad and w.grad is None and z.grad is None
        assert z._backward_fn is not T._released
        # A leaf is no graph: its backward still accumulates.
        x.backward(np.ones(2))
        assert np.array_equal(x.grad, grad + 1.0)

