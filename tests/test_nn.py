import gc
import tracemalloc
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from affectline import nn
from affectline.audio_io import EMOTIONS
from affectline.checkpoint import drop_retired
from affectline.errors import ConfigError
from affectline.gradcheck import central_diff
from affectline.nn import (KERNEL, MAX_CONV_CHANNELS, PAD, Conv1d, FullyConnected, MaxPool1d,
                           Model, ModelSpec, PoolGrad, ReLU, RmsProp, ShapeError, he_uniform,
                           softmax_xent)
from affectline.train_eval import predict_logits
from conftest import run_at_blas_threads

H = 1e-5


def fd_grad(loss_fn, tensor):
    """Central finite differences, the oracle for every analytic gradient.
    Each element is set through ``tensor``, so a view moves its base."""
    grad = np.zeros(tensor.shape)
    for i in np.ndindex(tensor.shape):
        keep = tensor[i]
        tensor[i] = keep + H
        up = loss_fn()
        tensor[i] = keep - H
        down = loss_fn()
        tensor[i] = keep
        grad[i] = (up - down) / (2 * H)
    return grad


@pytest.mark.parametrize("diff", [fd_grad, central_diff], ids=["fd_grad", "central_diff"])
def test_finite_differences_move_a_view(diff):
    # a conv's weight is a transposed view of its taps: a perturbation of a
    # flattened copy would leave the loss unchanged and read a zero gradient
    rng = np.random.default_rng(0)
    base, u = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 3, 4))
    view = base.transpose(2, 1, 0)
    before = base.copy()
    grad = diff(lambda: float(np.sum(np.sin(base) * u)), view)
    np.testing.assert_allclose(grad, (np.cos(base) * u).transpose(2, 1, 0), rtol=1e-6)
    assert base.tobytes() == before.tobytes()


def rel_err(a, b):
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def conv_reference(x, w, b, stride, pad):
    """Direct nested-loop cross-correlation; deliberately naive."""
    batch, c_in, t = x.shape
    c_out, _, k = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    t_out = (t + 2 * pad - k) // stride + 1
    y = np.zeros((batch, c_out, t_out))
    for n in range(batch):
        for o in range(c_out):
            for pos in range(t_out):
                acc = b[o]
                for c in range(c_in):
                    for i in range(k):
                        acc += w[o, c, i] * xp[n, c, pos * stride + i]
                y[n, o, pos] = acc
    return y


class Im2colConv1d:
    """The im2col convolution that ``Conv1d`` replaced, kept verbatim as a test oracle."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int = 1,
                 pad: int = 0, *, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.pad = kernel, stride, pad
        rng = rng or np.random.default_rng(0)
        self.w = he_uniform(rng, (out_ch, in_ch, kernel), in_ch * kernel, dtype)
        self.b = np.zeros(out_ch, dtype=dtype)
        self._cols = None
        self._in_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ShapeError(f"conv expects (B, C, T) input, got shape {x.shape}")
        b, c, t = x.shape
        if c != self.in_ch:
            raise ShapeError(f"conv expects {self.in_ch} channels, got {c}")
        if t + 2 * self.pad < self.kernel:
            raise ShapeError(f"input length {t} too short for kernel {self.kernel}")
        xp = np.pad(x, ((0, 0), (0, 0), (self.pad, self.pad))) if self.pad else x
        t_out = (xp.shape[2] - self.kernel) // self.stride + 1
        windows = np.lib.stride_tricks.sliding_window_view(xp, self.kernel, axis=2)
        windows = windows[:, :, ::self.stride][:, :, :t_out]
        cols = windows.transpose(0, 2, 1, 3).reshape(b * t_out, self.in_ch * self.kernel)
        wm = self.w.reshape(self.out_ch, -1)
        y = cols @ wm.T + self.b
        self._cols = cols
        self._in_shape = (b, c, t)
        return y.reshape(b, t_out, self.out_ch).transpose(0, 2, 1)

    def backward(self, grad_out: np.ndarray):
        b, c, t = self._in_shape
        t_out = grad_out.shape[2]
        if grad_out.shape != (b, self.out_ch, t_out):
            raise ShapeError("grad_out shape does not match forward output")
        gm = grad_out.transpose(0, 2, 1).reshape(b * t_out, self.out_ch)
        self.gw = (gm.T @ self._cols).reshape(self.w.shape)
        self.gb = gm.sum(axis=0)
        dcols = gm @ self.w.reshape(self.out_ch, -1)
        dwin = dcols.reshape(b, t_out, self.in_ch, self.kernel).transpose(0, 2, 1, 3)
        dxp = np.zeros((b, c, t + 2 * self.pad), dtype=grad_out.dtype)
        for i in range(self.kernel):
            dxp[:, :, i:i + self.stride * t_out:self.stride] += dwin[:, :, :, i]
        return dxp[:, :, self.pad:self.pad + t] if self.pad else dxp


class TestConv1d:
    def test_identity_kernel(self):
        layer = Conv1d(1, 1, dtype=np.float64)
        layer.w[...] = 0.0
        layer.w[0, 0, PAD] = 1.0  # the centre tap
        x = np.random.default_rng(0).standard_normal((2, 1, 7))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_hand_computed_edge_filter(self):
        layer = Conv1d(1, 1, dtype=np.float64)
        layer.w[...] = np.array([[[1.0, 0.0, -1.0]]])
        y = layer.forward(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        # x[j - 1] - x[j + 1], with a zero on either side
        np.testing.assert_array_equal(y, np.array([[[-2.0, -2.0, -2.0, 3.0]]]))

    # rows that straddle two batch items are the failure mode a B=1 grid cannot
    # see; T 1 and 2 are shorter than the kernel, and B 0 runs no GEMM. A
    # stride-s reference is the layer sampled at every s-th position.
    @pytest.mark.parametrize("t", [1, 2, 3, 11])
    @pytest.mark.parametrize("batch", [0, 1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_nested_loop_reference(self, stride, batch, t):
        rng = np.random.default_rng(100 * stride + 10 * batch + t)
        layer = Conv1d(3, 2, rng=rng, dtype=np.float64)
        oracle = DenseConv1d(3, 2, dtype=np.float64)  # the model tests' oracle
        oracle.w[...] = layer.w
        x = rng.standard_normal((batch, 3, t))
        expected = conv_reference(x, layer.w, layer.b, stride, PAD)
        assert expected.shape == (batch, 2, len(range(0, t, stride)))
        np.testing.assert_allclose(layer.forward(x)[:, :, ::stride], expected, atol=1e-12)
        np.testing.assert_allclose(oracle.forward(x)[:, :, ::stride], expected, atol=1e-12)

    # a stride-s oracle is the layer sampled at every s-th position, with the
    # gradient zero at the positions in between
    @pytest.mark.parametrize("t", [1, 2, 3, 11])
    @pytest.mark.parametrize("batch", [0, 1, 3])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_im2col_oracle(self, stride, batch, t):
        rng = np.random.default_rng(1000 * stride + 100 + 10 * batch + t)
        layer = Conv1d(4, 5, rng=rng, dtype=np.float64)
        layer.b[...] = rng.standard_normal(5)
        oracle = Im2colConv1d(4, 5, KERNEL, stride=stride, pad=PAD, dtype=np.float64)
        oracle.w[...], oracle.b[...] = layer.w, layer.b
        x = rng.standard_normal((batch, 4, t))
        y = layer.forward(x)
        y_ref = oracle.forward(x)
        assert y.shape == (batch, 5, t)
        assert y_ref.shape == (batch, 5, len(range(0, t, stride)))
        np.testing.assert_allclose(y[:, :, ::stride], y_ref, rtol=0, atol=1e-12)
        u = rng.standard_normal(y_ref.shape)
        g = np.zeros(y.shape)
        g[:, :, ::stride] = u
        np.testing.assert_allclose(layer.backward(g), oracle.backward(u), rtol=0, atol=1e-12)
        for name in ("gw", "gb"):
            assert getattr(layer, name).shape == getattr(oracle, name).shape
            np.testing.assert_allclose(getattr(layer, name), getattr(oracle, name),
                                       rtol=0, atol=1e-12)

    # the model's last conv: a global max pool after its ReLU sends gradient to one
    # time step per (item, channel), the first maximum on ties
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_pooled_backward_matches_im2col_oracle(self, batch, ties):
        rng = np.random.default_rng(10 * batch + ties)
        layer = Conv1d(4, 6, dtype=np.float64)
        oracle = Im2colConv1d(4, 6, KERNEL, pad=PAD, dtype=np.float64)
        x = rng.standard_normal((batch, 4, 11))
        if ties:  # small integers: outputs repeat, and whole channels die at 0
            layer.w[...] = rng.integers(-1, 2, layer.w.shape)
            x = rng.integers(-1, 2, x.shape).astype(np.float64)
        bias = rng.standard_normal(6)
        layer.b[...] = bias.round() if ties else bias
        oracle.w[...], oracle.b[...] = layer.w, layer.b
        relu, pool = ReLU(), MaxPool1d()
        h = relu.forward(layer.forward(x))
        np.testing.assert_allclose(h, np.maximum(oracle.forward(x), 0), rtol=0, atol=1e-12)
        u = rng.standard_normal(pool.forward(h).shape)
        grad = relu.backward(pool.backward(u))
        assert grad.shape == (batch, 6, 11)
        np.testing.assert_array_equal(grad.index, h.argmax(axis=2))
        if ties:
            assert ((h == h.max(axis=2, keepdims=True)).sum(axis=2) > 1).any()
        dense = np.zeros(h.shape)
        np.put_along_axis(dense, h.argmax(axis=2)[..., None], u[..., None], axis=2)
        dense *= h > 0
        assert grad.dense().tobytes() == dense.tobytes()
        np.testing.assert_allclose(layer.backward(grad), oracle.backward(dense), rtol=0,
                                   atol=1e-12)
        for name in ("gw", "gb"):
            np.testing.assert_allclose(getattr(layer, name), getattr(oracle, name),
                                       rtol=0, atol=1e-12)

    # the last conv gathers its pooled rows' input windows for 16 output channels
    # at a time: 1, 2 and 16 blocks
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("out_ch", [4, 17, 256])
    def test_channel_blocked_pooled_weight_gradient_bit_equal_to_one_einsum(self, out_ch, dtype):
        rng = np.random.default_rng(out_ch)
        b, c, t = 25, 96, 30
        layer = Conv1d(c, out_ch, rng=rng, dtype=dtype)
        layer.forward(rng.standard_normal((b, c, t)).astype(dtype))
        index = rng.integers(0, t, (b, out_ch))
        value = rng.standard_normal((b, out_ch)).astype(dtype)
        layer.backward(PoolGrad(index, value, t))
        at = np.arange(b)[:, None] * (t + 2 * PAD) + index
        want = np.stack([np.einsum("bo,boi->io", value, layer._rows[at + k])
                         for k in range(KERNEL)])
        got = np.ascontiguousarray(layer.gw.transpose(2, 1, 0))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    # the last conv scatters its input gradient from the pooled pairs, one output
    # channel after another, where the oracle runs dense GEMMs: with small integers
    # every sum is exact in float64, so any order of the sums gives the same bytes.
    # C_out 1, 17 and 256 are one, two and sixteen weight blocks
    @pytest.mark.parametrize("out_ch", [1, 17, 256])
    @pytest.mark.parametrize("t", [1, 2, 37, 300])
    @pytest.mark.parametrize("b", [1, 3, 25])
    def test_pooled_input_gradient_bit_equal_to_dense_oracle_in_exact_arithmetic(
            self, b, t, out_ch):
        rng = np.random.default_rng(1000 * b + t + out_ch)
        layer = Conv1d(5, out_ch, dtype=np.float64)
        oracle = DenseConv1d(5, out_ch, dtype=np.float64)
        layer.w[...] = oracle.w[...] = rng.integers(-2, 3, layer.w.shape)
        layer.b[...] = oracle.b[...] = rng.integers(-1, 2, out_ch)
        x = rng.integers(-2, 3, (b, 5, t)).astype(np.float64)
        relu, pool = ReLU(), MaxPool1d()
        h = relu.forward(layer.forward(x))
        u = rng.integers(-3, 4, (b, out_ch)).astype(np.float64)
        pool.forward(h)
        grad = relu.backward(pool.backward(u))
        if t > 2 and out_ch > 1:  # small integers: some channel's maximum repeats
            assert ((h == h.max(axis=2, keepdims=True)).sum(axis=2) > 1).any()
        oracle.forward(x)
        got, want = layer.backward(grad), oracle.backward(grad.dense())
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    def test_forward_does_not_mutate_input(self):
        rng = np.random.default_rng(9)
        layer = Conv1d(3, 4, rng=rng, dtype=np.float64)
        x = rng.standard_normal((3, 3, 7))
        before = x.copy()
        layer.backward(np.ones_like(layer.forward(x)))
        np.testing.assert_array_equal(x, before)

    def test_backward_zero_grad(self):
        layer = Conv1d(2, 2, dtype=np.float64)
        x = np.random.default_rng(1).standard_normal((1, 2, 6))
        layer.forward(x)
        dx = layer.backward(np.zeros((1, 2, 6)))
        assert np.all(dx == 0) and np.all(layer.gw == 0) and np.all(layer.gb == 0)

    def test_backward_scalar_chain_rule(self):
        # at T 1 only the centre tap touches x; the others read the zero padding
        layer = Conv1d(1, 1, dtype=np.float64)
        layer.w[...] = 7.0
        layer.w[0, 0, PAD] = 3.0
        layer.b[...] = 0.5
        x = np.array([[[2.0]]])
        assert layer.forward(x)[0, 0, 0] == 6.5
        dx = layer.backward(np.ones((1, 1, 1)))
        assert dx[0, 0, 0] == 3.0  # dL/dx = the centre tap
        gw = np.zeros(KERNEL)
        gw[PAD] = 2.0  # dL/dw = x at the centre tap, 0 at the others
        np.testing.assert_array_equal(layer.gw[0, 0], gw)
        assert layer.gb[0] == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        layer = Conv1d(3, 2, rng=rng, dtype=np.float64)
        x = rng.uniform(-1, 1, (2, 3, 8))
        u = rng.uniform(-1, 1, layer.forward(x).shape)

        def loss():
            return float(np.sum(layer.forward(x) * u))

        dx = layer.backward(u)
        assert rel_err(dx, fd_grad(loss, x)) < 1e-4
        assert rel_err(layer.gw, fd_grad(loss, layer.w)) < 1e-4
        assert rel_err(layer.gb, fd_grad(loss, layer.b)) < 1e-4

    def test_shape_errors(self):
        layer = Conv1d(3, 2)
        with pytest.raises(ShapeError):  # the wrong channel count
            layer.forward(np.zeros((1, 4, 8), dtype=np.float32))
        with pytest.raises(ShapeError):  # T 0
            layer.forward(np.zeros((1, 3, 0), dtype=np.float32))
        layer.forward(np.zeros((1, 3, 10), dtype=np.float32))  # output length 10
        with pytest.raises(ShapeError):
            layer.backward(np.ones((1, 2, 9), dtype=np.float32))


class TestReluPoolFc:
    def test_relu_values(self):
        layer = ReLU()
        np.testing.assert_array_equal(layer.forward(np.array([-1.0, 0.0, 2.0])),
                                      np.array([0.0, 0.0, 2.0]))

    def test_relu_backward_mask(self):
        layer = ReLU()
        layer.forward(np.array([-1.0, 0.5, 0.0]))
        np.testing.assert_array_equal(layer.backward(np.ones(3)),
                                      np.array([0.0, 1.0, 0.0]))

    def test_maxpool_forward_and_tie_rule(self):
        layer = MaxPool1d()
        # channels-last memory, as the ReLU after a conv hands it over
        x = np.array([[[1.0, 2.0], [3.0, 2.0], [2.0, 0.0], [3.0, 1.0]]]).transpose(0, 2, 1)
        y = layer.forward(x)
        np.testing.assert_array_equal(y, np.array([[3.0, 2.0]]))
        dx = layer.backward(np.array([[1.0, 5.0]])).dense()
        # both channels tie: each gradient routes to the first maximum
        np.testing.assert_array_equal(dx, np.array([[[0.0, 1.0, 0.0, 0.0],
                                                     [5.0, 0.0, 0.0, 0.0]]]))
        assert dx.strides == x.strides

    # the backward takes the argmax one item at a time; ties, all-zero channels (a
    # ReLU's dead ones) and T 1 must route exactly as one argmax over the whole array
    @pytest.mark.parametrize("t", [1, 2, 37])
    def test_pool_argmax_bit_equal_to_whole_array_argmax(self, t):
        rng = np.random.default_rng(t)
        x = np.maximum(rng.integers(-1, 3, (5, 7, t)), 0).astype(np.float32)
        x[:, 2], x[3] = 0, 0
        # channels-last memory, as the ReLU after a conv hands it over
        x = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
        if t > 1:
            assert ((x == x.max(axis=2, keepdims=True)).sum(axis=2) > 1).all(axis=0).any()
        layer = MaxPool1d()
        layer.forward(x)
        index = layer.backward(np.ones((5, 7), dtype=np.float32)).index
        want = np.ascontiguousarray(x).argmax(axis=2)
        assert index.dtype == want.dtype and index.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_fc_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        layer = FullyConnected(3, 4, rng=rng, dtype=np.float64)
        x = rng.uniform(-1, 1, (5, 3))
        u = rng.uniform(-1, 1, (5, 4))

        def loss():
            return float(np.sum(layer.forward(x) * u))

        layer.forward(x)
        dx = layer.backward(u)
        assert rel_err(dx, fd_grad(loss, x)) < 1e-4
        assert rel_err(layer.gw, fd_grad(loss, layer.w)) < 1e-4
        assert rel_err(layer.gb, fd_grad(loss, layer.b)) < 1e-4

    def test_maxpool_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        layer = MaxPool1d()
        x = rng.uniform(-1, 1, (2, 2, 9))
        u = rng.uniform(-1, 1, layer.forward(x).shape)

        def loss():
            return float(np.sum(layer.forward(x) * u))

        dx = layer.backward(u)
        assert rel_err(dx, fd_grad(loss, x)) < 1e-4


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss, grad = softmax_xent(np.zeros((1, 6)), [3])
        assert loss.shape == (1,) and grad.shape == (1, 6)
        assert loss[0] == pytest.approx(np.log(6.0), rel=1e-12)
        expected = np.full((1, 6), 1 / 6.0)
        expected[0, 3] -= 1.0
        np.testing.assert_allclose(grad, expected, atol=1e-12)

    def test_extreme_logit_is_stable(self):
        loss, grad = softmax_xent(np.array([[1000.0, 0, 0, 0, 0, 0]]), [0])
        assert np.isfinite(loss[0]) and loss[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_probabilities_sum_to_one_and_loss_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            logits = rng.uniform(-30, 30, (4, 6))
            targets = rng.integers(0, 6, 4)
            losses, grad = softmax_xent(logits, targets)
            probs = grad.copy()
            probs[np.arange(4), targets] += 1.0
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(losses >= 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(300 + seed)
        logits = rng.uniform(-2, 2, (3, 6))
        targets = rng.integers(0, 6, 3)
        _, grad = softmax_xent(logits, targets)

        def loss():
            losses, _ = softmax_xent(logits, targets)
            return float(losses.sum())

        assert rel_err(grad, fd_grad(loss, logits)) < 1e-6


def step_one_tensor(param, grad, acc, **hyper):
    """One RmsProp.step on a single tensor whose accumulator is ``acc``."""
    opt = RmsProp(**hyper)
    opt.acc["p"] = acc
    opt.step([("p", param)], {"p": grad})


class TestRmsProp:
    def test_zero_gradient_decays_accumulator_only(self):
        p = np.array([1.0, -2.0])
        acc = np.array([0.4, 0.8])
        step_one_tensor(p, np.zeros(2), acc, lr=1e-4)
        np.testing.assert_array_equal(p, np.array([1.0, -2.0]))
        np.testing.assert_allclose(acc, np.array([0.36, 0.72]))

    def test_first_step_closed_form(self):
        p = np.zeros(1)
        acc = np.zeros(1)
        step_one_tensor(p, np.ones(1), acc, lr=1e-4)
        assert p[0] == pytest.approx(-1e-4 / (np.sqrt(0.1) + 1e-8), rel=1e-12)

    def test_constant_gradient_converges_to_lr_magnitude(self):
        p = np.zeros(1)
        acc = np.zeros(1)
        g = np.array([0.37])
        last = 0.0
        for _ in range(400):
            before = p[0]
            step_one_tensor(p, g, acc, lr=1e-4)
            last = before - p[0]
        assert last == pytest.approx(1e-4, rel=1e-3)  # s -> g^2, step -> lr*sign(g)

    def test_accumulator_never_negative(self):
        rng = np.random.default_rng(21)
        p = rng.standard_normal(50)
        acc = np.zeros(50)
        for _ in range(100):
            step_one_tensor(p, rng.standard_normal(50), acc, lr=1e-4)
            assert np.all(acc >= 0)

    def test_optimizer_shape_mismatch(self):
        with pytest.raises(ShapeError):
            step_one_tensor(np.zeros(3), np.zeros(4), np.zeros(3), lr=1e-4)

    def test_named_optimizer_tracks_state(self):
        opt = RmsProp(lr=1e-4)
        params = [("a", np.ones(2, dtype=np.float32))]
        opt.step(params, {"a": np.ones(2)})
        assert "a" in opt.acc
        assert params[0][1][0] != 1.0


class OracleMaxPool1d:
    """MaxPool1d as it was when forward took the argmax: the bit-exact oracle."""

    def __init__(self, width: int, stride: int | None = None):
        self.width = width
        self.stride = stride if stride is not None else width

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, c, t = x.shape
        if t < self.width:
            raise ShapeError(f"input length {t} shorter than pool width {self.width}")
        t_out = (t - self.width) // self.stride + 1
        windows = np.lib.stride_tricks.sliding_window_view(x, self.width, axis=2)
        windows = windows[:, :, ::self.stride][:, :, :t_out]
        argmax = windows.argmax(axis=3)
        self._argmax = argmax
        self._in_shape = (b, c, t)
        return np.take_along_axis(windows, argmax[..., None], axis=3)[..., 0]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        b, c, t = self._in_shape
        # channels-last, like the conv output the ReLU mask comes from
        dx = np.zeros((b, t, c), dtype=grad_out.dtype).transpose(0, 2, 1)
        t_out = grad_out.shape[2]
        pos = np.arange(t_out) * self.stride + self._argmax
        bi = np.arange(b)[:, None, None]
        ci = np.arange(c)[None, :, None]
        np.add.at(dx, (np.broadcast_to(bi, pos.shape),
                       np.broadcast_to(ci, pos.shape), pos), grad_out)
        return dx


class TestMaxPoolOracle:
    # A windowed oracle pool is the global pool over each window; its input
    # gradient is the sum, window by window, of theirs.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("width, stride", [(0, None), (2, None), (3, 2), (4, 1), (2, 3)])
    def test_bit_equal_to_argmax_pool(self, width, stride, ties, dtype):
        rng = np.random.default_rng(width * 10 + (stride or 0) + ties)
        shape = (3, 5, 12)
        if ties:  # few distinct values: most windows hold a tied maximum
            x = rng.integers(-1, 3, shape).astype(dtype)
        else:
            x = rng.standard_normal(shape).astype(dtype)
        # channels-last memory, as the ReLU after a conv hands it over
        x = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
        width = width or shape[2]  # 0: a global pool
        oracle = OracleMaxPool1d(width, stride)
        y_ref = oracle.forward(x)
        starts = range(0, shape[2] - width + 1, oracle.stride)
        pools = [MaxPool1d() for _ in starts]
        y = np.stack([p.forward(x[:, :, s:s + width]) for p, s in zip(pools, starts)], axis=2)
        assert y.shape == y_ref.shape and y.tobytes() == y_ref.tobytes()
        u = rng.standard_normal(y.shape).astype(dtype)
        dx_ref = oracle.backward(u)
        dx = np.zeros_like(dx_ref)
        for j, (p, s) in enumerate(zip(pools, starts)):
            dx[:, :, s:s + width] += p.backward(u[:, :, j])
        assert dx.shape == dx_ref.shape and dx.strides == dx_ref.strides
        assert dx.tobytes() == dx_ref.tobytes()


SMALL = ModelSpec(conv_channels=(6, 6, 8, 8, 10, 10))


class TestModel:
    def test_zero_parameters_give_zero_logits(self):
        model = Model(SMALL, seed=0)
        for _, arr in model.parameters():
            arr[...] = 0.0
        logits = model.forward(np.zeros((3, 41, 20), dtype=np.float32))
        np.testing.assert_array_equal(logits, np.zeros((3, 6)))

    def test_identical_inputs_identical_rows(self):
        model = Model(SMALL, seed=1)
        one = np.random.default_rng(2).uniform(-1, 1, (1, 41, 20)).astype(np.float32)
        batch = np.repeat(one, 4, axis=0)
        logits = model.forward(batch)
        for row in logits[1:]:
            np.testing.assert_array_equal(row, logits[0])

    def test_batch_row_independence(self):
        model = Model(SMALL, seed=3)
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (5, 41, 20)).astype(np.float32)
        full = model.forward(x)
        alone = model.forward(x[2:3])
        np.testing.assert_allclose(full[2], alone[0], atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fc_rows_bit_equal_at_any_batch(self, dtype):
        rng = np.random.default_rng(8)
        layer = FullyConnected(256, 6, rng=rng, dtype=dtype)
        x = rng.standard_normal((64, 256)).astype(dtype)
        full = layer.forward(x)
        for b in (1, 25):
            for start in range(0, 64 - b + 1, b):
                part = layer.forward(x[start:start + b])
                assert part.tobytes() == full[start:start + b].tobytes()

    def test_default_spec_logits_bit_equal_at_batch_1_and_64(self):
        # classify forwards one window at a time, eval in batches of 64
        model = Model(ModelSpec(), seed=9)
        x = np.random.default_rng(10).standard_normal((64, 41, 300)).astype(np.float32)
        full = model.forward(x)
        for i in (0, 17, 63):
            assert model.forward(x[i:i + 1]).tobytes() == full[i:i + 1].tobytes()

    def test_forward_deterministic(self):
        model = Model(SMALL, seed=5)
        x = np.random.default_rng(6).uniform(-1, 1, (2, 41, 20)).astype(np.float32)
        np.testing.assert_array_equal(model.forward(x), model.forward(x))

    def test_empty_batch_gives_no_logits(self):
        model = Model(SMALL, seed=0)
        assert model.forward(np.zeros((0, 41, 20), dtype=np.float32)).shape == (0, 6)
        x = np.random.default_rng(0).standard_normal((2, 41, 20)).astype(np.float32)
        assert model.forward(x).tobytes() == Model(SMALL, seed=0).forward(x).tobytes()

    def test_empty_inference_batch_gives_no_logits(self):
        # an inference forward's last-conv blocks at B 0: in the free buffer at the
        # default spec, in a block of their own for one conv or a wide last conv, and
        # in a trained model's training arena
        rng = np.random.default_rng(0)
        for spec in (ModelSpec(), ONE_CONV, WIDE_LAST):
            trained = Model(spec, seed=0)
            train_step(trained, RmsProp(lr=1e-3), rng.standard_normal((3, 41, 300))
                       .astype(np.float32), rng.integers(0, 6, 3))
            for model in (Model(spec, seed=0), trained):
                empty = np.zeros((0, 41, 300), dtype=np.float32)
                assert model.forward(empty, keep=False).shape == (0, 6), spec
                x = rng.standard_normal((2, 41, 300)).astype(np.float32)
                want = Model(spec, seed=0)
                want.set_parameters(dict(model.parameters()))
                assert model.forward(x, keep=False).tobytes() == want.forward(x).tobytes(), spec

    def test_input_shape_validation(self):
        model = Model(SMALL, seed=0)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((2, 40, 20), dtype=np.float32))

    @pytest.mark.parametrize("t", [1, 2, 21, 300])
    def test_any_input_length(self, t):
        model = Model(SMALL, seed=0)
        x = np.random.default_rng(t).uniform(-1, 1, (2, 41, t)).astype(np.float32)
        assert model.forward(x).shape == (2, len(EMOTIONS))
        assert model.backward(np.ones((2, len(EMOTIONS)), dtype=np.float32))["conv1.w"].shape \
            == (6, 41, KERNEL)

    @pytest.mark.parametrize("spec", [SMALL, ModelSpec(), ModelSpec(conv_channels=(3,))])
    def test_parameter_shapes_are_the_models(self, spec):
        assert spec.parameter_shapes() == {
            name: value.shape for name, value in Model(spec).parameters()}
        assert list(spec.parameter_shapes()) == [name for name, _ in Model(spec).parameters()]

    def test_full_model_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        model = Model(SMALL, seed=7, dtype=np.float64)
        targets = rng.integers(0, 6, 2)
        x = rng.uniform(-1, 1, (2, 41, 20))

        def loss():
            losses, _ = softmax_xent(model.forward(x), targets)
            return float(losses.sum())

        _, grad_logits = softmax_xent(model.forward(x), targets)
        grads = model.backward(grad_logits)
        worst = 0.0
        for name, tensor in model.parameters():
            worst = max(worst, rel_err(grads[name], fd_grad(loss, tensor)))
        assert worst < 1e-4

    # as read from a checkpoint header, where the retired keys may still appear
    @pytest.mark.parametrize("field", [{"kernel": 0}, {"stride": 0}, {"kernel": 3.0},
                                       {"pad": -1}, {"pool_width": -1}, {"pool_stride": -1},
                                       {"stride": True}, {"stride": 1.0}, {"pad": 0},
                                       {"in_channels": 40}, {"n_classes": 7},
                                       {"conv_channels": ()}, {"conv_channels": (64, 0)},
                                       {"conv_channels": (64, MAX_CONV_CHANNELS + 1)}])
    def test_spec_range_validation(self, field):
        with pytest.raises(ConfigError, match=next(iter(field))):
            ModelSpec(**drop_retired({**asdict(ModelSpec()), **field}))

    @pytest.mark.parametrize("field", [{"conv_channels": (64, 64.0)},
                                       {"conv_channels": (64, True)}])
    def test_spec_sizes_must_be_integers(self, field):
        with pytest.raises(ConfigError, match="integers"):
            ModelSpec(**field)

    def test_widest_layer_accepted(self):
        assert ModelSpec(conv_channels=(1, MAX_CONV_CHANNELS)).parameter_shapes()["fc.w"] \
            == (len(EMOTIONS), MAX_CONV_CHANNELS)


def im2col(rows, kernel, n):
    """The first ``n`` im2col rows of a (rows, channels) matrix, copied:
    rows[r:r + kernel] as one row each."""
    if n <= 0:  # B = 0: fewer rows than one window
        return np.empty((0, kernel * rows.shape[1]), dtype=rows.dtype)
    windows = np.lib.stride_tricks.sliding_window_view(rows, (kernel, rows.shape[1]))
    return np.ascontiguousarray(windows[:n, 0]).reshape(n, -1)


class DenseConv1d(Conv1d):
    """``Conv1d`` as explicit im2col, the test oracle: it copies its input and
    the im2col columns of it and of its zero-padded output gradient, allocates
    every product and backpropagates densely. Each product is a GEMM with the
    stacked weight (tap-reversed for the input gradient), one per phase for
    the forward and the input gradient: BLAS rounds a row of a small GEMM
    by the GEMM's row count, and the layer multiplies each phase's rows
    r = s (mod KERNEL) alone. The weight gradient is one GEMM over every row.
    """

    def _by_phase(self, cols, stacked):
        out = np.empty((len(cols), stacked.shape[1]), dtype=np.result_type(cols, stacked))
        for s in range(KERNEL):
            out[s::KERNEL] = cols[s::KERNEL] @ stacked
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ShapeError(f"conv expects (B, C, T) input, got shape {x.shape}")
        b, c, t = x.shape
        if c != self.in_ch:
            raise ShapeError(f"conv expects {self.in_ch} channels, got {c}")
        if t + 2 * PAD < KERNEL:
            raise ShapeError(f"input length {t} too short for kernel {KERNEL}")
        tp = t + 2 * PAD
        xp = np.zeros((b, tp, c), dtype=x.dtype)
        xp[:, PAD:PAD + t] = x.transpose(0, 2, 1)
        cols = im2col(xp.reshape(b * tp, c), KERNEL, b * tp - KERNEL + 1)
        stacked = np.ascontiguousarray(self.w.transpose(2, 1, 0)).reshape(-1, self.out_ch)
        y = np.zeros((b * tp, self.out_ch), dtype=np.result_type(x, self.w))
        y[:len(cols)] = self._by_phase(cols, stacked)
        self._cols, self._in_shape = cols, (b, c, t)
        y = y.reshape(b, tp, self.out_ch)[:, :tp - KERNEL + 1]
        y += self.b
        return y.transpose(0, 2, 1)

    def backward(self, grad_out: np.ndarray):
        b, c, t = self._in_shape
        tp = t + 2 * PAD
        t_out = tp - KERNEL + 1
        if grad_out.shape != (b, self.out_ch, t_out):
            raise ShapeError("grad_out shape does not match forward output")
        g = np.zeros((b, tp, self.out_ch), dtype=grad_out.dtype)
        g[:, :t_out] = grad_out.transpose(0, 2, 1)
        g, cols = g.reshape(b * tp, self.out_ch), self._cols
        gw = cols.T @ g[:len(cols)]
        self.gw = gw.reshape(KERNEL, c, self.out_ch).transpose(2, 1, 0)
        self.gb = g.sum(axis=0)
        front = np.zeros((KERNEL - 1, self.out_ch), dtype=g.dtype)
        g_cols = im2col(np.concatenate([front, g]), KERNEL, b * tp)
        flipped = np.ascontiguousarray(self.w.transpose(2, 0, 1)[::-1]).reshape(-1, c)
        dxp = self._by_phase(g_cols, flipped)
        return dxp.reshape(b, tp, c)[:, PAD:PAD + t].transpose(0, 2, 1)


class DenseReLU:
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.maximum(x, 0)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * (self._y > 0)  # y > 0 exactly where x > 0


class DenseMaxPool1d:
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x.max(axis=2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        b, c, t = self._x.shape
        # channels-last, like the conv output the ReLU mask comes from
        dx = np.zeros((b, t, c), dtype=grad_out.dtype).transpose(0, 2, 1)
        first = self._x.argmax(axis=2)[..., None]
        np.put_along_axis(dx, first, grad_out[..., None], axis=2)
        return dx


class DenseModel(Model):
    """``Model`` with the dense layers above and its former forward and backward,
    verbatim: the bit-exact oracle of the arena's and the phase GEMMs' logits, of
    the FC head's gradients and of the last conv's bias gradient. The last conv
    scatters its input gradient from the pooled pairs where this runs dense GEMMs,
    so every gradient before it, like every conv weight gradient, is only close."""

    def __init__(self, model: Model):
        self.convs = [DenseConv1d(c.in_ch, c.out_ch, dtype=c.w.dtype)
                      for c in model.convs]
        self.relus = [DenseReLU() for _ in model.convs]
        self.pool = DenseMaxPool1d()
        self.fc = FullyConnected(model.fc.in_features, model.fc.out_features,
                                 dtype=model.fc.w.dtype)
        self.set_parameters(dict(model.parameters()))

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = x
        for conv, relu in zip(self.convs, self.relus):
            h = relu.forward(conv.forward(h))
        return self.fc.forward(self.pool.forward(h))

    def backward(self, grad_logits: np.ndarray) -> dict:
        g = self.pool.backward(self.fc.backward(grad_logits))
        for conv, relu in zip(reversed(self.convs), reversed(self.relus)):
            g = conv.backward(relu.backward(g))
        return {f"{name}.{p}": getattr(layer, "g" + p)
                for name, layer in self._layers() for p in "wb"}


def trained_like(spec, seed):
    """A model whose biases are non-zero, so dead channels and ties differ from init."""
    model = Model(spec, seed=seed)
    rng = np.random.default_rng(seed)
    for name, value in model.parameters():
        if name.endswith(".b"):
            value[...] = rng.uniform(-0.05, 0.05, value.shape)
    return model


ONE_CONV = ModelSpec(conv_channels=(10,))
# widths that fall: in inference, conv i's input shares a buffer with wider ones
DECREASING = ModelSpec(conv_channels=(256, 128, 64, 32, 16, 8))
# a last conv whose output is far wider than conv n - 2's 41-channel input buffer: an
# inference forward runs its last conv in a block of its own
WIDE_LAST = ModelSpec(conv_channels=(4, 512))


def layers_run_alone(model, x, grad_logits):
    """Logits and parameter gradients of ``model``'s own layers chained standalone:
    each conv copies its input and allocates its output and gradient rows, each
    ReLU allocates its output, and no buffer is shared. The last conv's output is
    taken over the model's blocks of whole items, one standalone forward each, so
    its GEMMs have the model's row counts (BLAS may round a row by them: at
    DECREASING's 8 output channels a 64-item GEMM does so); a forward over the
    whole batch then gives its backward the whole input."""
    h = x
    for conv, relu in zip(model.convs[:-1], model.relus[:-1]):
        h = relu.forward(conv.forward(h))
    last, items = model.convs[-1], max(1, nn.POOL_BLOCK_ROWS // (x.shape[2] + 2 * PAD))
    y = np.concatenate([last.forward(h[j:j + items]) for j in range(0, len(h), items)])
    last.forward(h)
    logits = model.fc.forward(model.pool.forward(model.relus[-1].forward(y)))
    g = model.pool.backward(model.fc.backward(grad_logits))
    for conv, relu in zip(reversed(model.convs), reversed(model.relus)):
        g = conv.backward(relu.backward(g))
    return logits, {f"{name}.{p}": getattr(layer, "g" + p)
                    for name, layer in model._layers() for p in "wb"}


class TestArenaOracle:
    @pytest.mark.parametrize("spec", [SMALL, ModelSpec(), ONE_CONV],
                             ids=["small", "default", "one_conv"])
    def test_logits_bit_equal_at_every_batch_and_t(self, spec):
        model = trained_like(spec, 31)
        oracle = DenseModel(model)
        rng = np.random.default_rng(32)
        # a small batch right after a larger one reuses the leading rows; a second
        # T makes the arena regrow, and the first T after it again
        for b, t in [(25, 300), (1, 300), (64, 300), (7, 300), (16, 300), (25, 300),
                     (7, 37), (64, 300), (1, 37)]:
            x = rng.standard_normal((b, 41, t)).astype(np.float32)
            assert model.forward(x).tobytes() == oracle.forward(x).tobytes(), (b, t)

    @pytest.mark.parametrize("b", [1, 7, 16, 25, 64])
    @pytest.mark.parametrize("spec", [SMALL, ModelSpec(), ONE_CONV],
                             ids=["small", "default", "one_conv"])
    def test_gradients_bit_equal_but_conv_weights(self, spec, b):
        model = trained_like(spec, 40 + b)
        oracle = DenseModel(model)
        rng = np.random.default_rng(b)
        model.forward(rng.standard_normal((64, 41, 300)).astype(np.float32))  # larger first
        x = rng.standard_normal((b, 41, 300)).astype(np.float32)
        _, grad = softmax_xent(oracle.forward(x), rng.integers(0, 6, b))
        grad = (grad / b).astype(np.float32)
        assert model.forward(x).tobytes() == oracle.forward(x).tobytes()
        got, want = model.backward(grad), oracle.backward(grad)
        assert list(got) == list(want)
        last = f"conv{len(spec.conv_channels)}"
        for name in want:
            assert got[name].dtype == want[name].dtype and got[name].shape == want[name].shape
            # a float32 sum's error scales with its terms, not its result, so a
            # gradient's bound is relative to the tensor
            scale = np.abs(want[name]).max()
            if name == f"{last}.w":  # B products per entry instead of B*(T + 2)
                assert np.abs(got[name] - want[name]).max() <= 1e-6 * scale
            elif name.startswith("conv") and name != f"{last}.b":
                # the last conv's input gradient is scattered, not a GEMM, and each
                # weight gradient sums 256-row blocks per phase, then the phases,
                # instead of one sum over every row: at most 1.1e-6 of the tensor's
                # largest entry here (9.4e-7 for a bias)
                assert np.abs(got[name] - want[name]).max() <= 4e-6 * scale, name
            else:
                assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("spec", [SMALL, ModelSpec(), DECREASING, ONE_CONV],
                             ids=["small", "default", "decreasing", "one_conv"])
    def test_logits_after_a_backward_bit_equal_to_a_fresh_models(self, spec):
        # the backward writes each conv's input gradient over that input: no later
        # forward, at the arena's batch or a smaller one, reads a row of them it has not
        # written. At T 3 every pooled step is next to a pad row, so a stale pad row
        # moves the logits
        model, fresh = trained_like(spec, 50), trained_like(spec, 50)
        rng = np.random.default_rng(51)
        for t in (300, 3):
            x = rng.standard_normal((25, 41, t)).astype(np.float32)
            model.forward(x)
            model.backward(rng.standard_normal((25, 6)).astype(np.float32))
            for b in (25, 7):
                x = rng.standard_normal((b, 41, t)).astype(np.float32)
                assert model.forward(x).tobytes() == fresh.forward(x).tobytes(), (t, b)

    # every buffer a model shares between layers and every row a forward or backward
    # leaves from an earlier step must leave the bytes of a fresh, unshared chain.
    # Each batch takes two steps; the arena grows at 25 and 64, and the other batches
    # reuse its leading rows. At T 1 one last-conv block holds every batch, at T 17
    # and 18 the 64 items take two and at T 300 3 items take one
    @pytest.mark.parametrize("t", [1, 17, 18, 300])
    @pytest.mark.parametrize("spec", [ModelSpec(), SMALL, DECREASING, ONE_CONV],
                             ids=["default", "small", "decreasing", "one_conv"])
    def test_model_backward_bit_equal_to_its_layers_run_alone(self, spec, t):
        model, alone = trained_like(spec, 60), trained_like(spec, 60)
        optimizers = RmsProp(lr=1e-3), RmsProp(lr=1e-3)
        rng = np.random.default_rng(61)
        for b in (25, 7, 64, 1):
            for step in range(2):
                x = rng.standard_normal((b, 41, t)).astype(np.float32)
                logits = model.forward(x)
                _, grad = softmax_xent(logits, rng.integers(0, 6, b))
                grad = (grad / b).astype(np.float32)
                got = model.backward(grad)
                want_logits, want = layers_run_alone(alone, x, grad)
                assert logits.tobytes() == want_logits.tobytes(), (b, step)
                assert list(got) == list(want)
                for name in want:
                    assert got[name].tobytes() == want[name].tobytes(), (b, step, name)
                optimizers[0].step(model.parameters(), got)
                optimizers[1].step(alone.parameters(), want)

    # the last conv runs in blocks of whole items: 1, 3 and 8 items a block give the
    # bytes of one block over the whole batch, in a train step and in inference
    @pytest.mark.parametrize("t", [50, 300])
    @pytest.mark.parametrize("spec", [ModelSpec(), ModelSpec(conv_channels=(8, 8, 16, 16, 32, 32)),
                                      ModelSpec(conv_channels=(4, 6)),
                                      ModelSpec(conv_channels=(4, 4, 4, 4, 4, 4))],
                             ids=["default", "ascending", "two_conv", "narrow"])
    def test_last_conv_blocks_bit_equal_to_one_block(self, spec, t, monkeypatch):
        rng = np.random.default_rng(62)
        x = rng.standard_normal((25, 41, t)).astype(np.float32)
        targets, inference = rng.integers(0, 6, 25), x[:16]
        runs = []
        for items in (25, 1, 3, 8):
            monkeypatch.setattr(nn, "POOL_BLOCK_ROWS", items * (t + 2 * PAD))
            model = trained_like(spec, 63)
            steps = [train_step(model, RmsProp(lr=1e-3), x, targets) for _ in range(2)]
            assert model._arena.items == items
            runs.append((steps, predict_logits(model, inference),
                         predict_logits(trained_like(spec, 63), inference)))
        one = runs[0]
        for items, (steps, logits, fresh) in zip((1, 3, 8), runs[1:]):
            for (got_logits, got), (want_logits, want) in zip(steps, one[0]):
                assert got_logits.tobytes() == want_logits.tobytes(), items
                for name in want:
                    assert got[name].tobytes() == want[name].tobytes(), (items, name)
            assert logits.tobytes() == one[1].tobytes(), items
            assert fresh.tobytes() == one[2].tobytes(), items

    def test_float64_model_matches_the_oracle(self):
        model = Model(SMALL, seed=5, dtype=np.float64)
        oracle = DenseModel(model)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 41, 20))
        assert model.forward(x).tobytes() == oracle.forward(x).tobytes()
        u = rng.standard_normal((3, 6))
        got, want = model.backward(u), oracle.backward(u)
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-15)


# the default; two narrow rising specs, where the 41-row input is the widest matrix
# of one of the two buffers; falling widths; two narrow convs, whose two inference
# buffers are a whole training arena; and a single conv, whose one buffer is its
# whole arena either way
INFERENCE_SPECS = [ModelSpec(), SMALL, ModelSpec(conv_channels=(8, 8, 16, 16, 32, 32)),
                   DECREASING, ModelSpec(conv_channels=(4, 6)), ONE_CONV]
INFERENCE_IDS = ["default", "small", "ascending", "decreasing", "two_conv", "one_conv"]


def train_step(model, optimizer, x, targets):
    """Logits and gradients of one RMSProp step of ``model`` on ``x``."""
    logits = model.forward(x)
    _, grad = softmax_xent(logits, targets)
    grads = model.backward((grad / len(x)).astype(np.float32))
    optimizer.step(model.parameters(), grads)
    return logits, grads


class TestInferenceForward:
    """``forward(x, keep=False)`` on a new model runs in two buffers, conv i's
    input in buffer i % 2, and on a trained one in its training arena. The
    GEMMs read the same rows as in a forward that keeps every activation."""

    @pytest.mark.parametrize("spec", INFERENCE_SPECS, ids=INFERENCE_IDS)
    def test_two_buffer_logits_bit_equal_to_the_full_arenas(self, spec):
        two, full = trained_like(spec, 70), trained_like(spec, 70)
        rng = np.random.default_rng(71)
        # each T regrows both arenas; the batch first grows, then falls back onto
        # the leading rows of its largest, with stale rows after them
        for t in (1, 2, 5, 17, 18, 40, 300):
            for b in (1, 3, 16, 3, 1):
                x = rng.standard_normal((b, 41, t)).astype(np.float32)
                got = two.forward(x, keep=False)
                assert got.tobytes() == full.forward(x).tobytes(), (t, b)
        n = len(spec.conv_channels)
        assert len(two._arena.acts) == min(2, n) and len(full._arena.acts) == n

    @pytest.mark.parametrize("spec", INFERENCE_SPECS, ids=INFERENCE_IDS)
    def test_inference_after_a_train_step_bit_equal_and_in_its_arena(self, spec):
        model, fresh = trained_like(spec, 72), trained_like(spec, 72)
        rng = np.random.default_rng(73)
        train_step(model, RmsProp(lr=1e-3), rng.standard_normal((25, 41, 300)).astype(np.float32),
                   rng.integers(0, 6, 25))
        fresh.set_parameters(dict(model.parameters()))
        arena, buffers = model._arena, list(model._arena.acts)
        for b in (16, 3):  # the backward's gradients are still in the buffers
            x = rng.standard_normal((b, 41, 300)).astype(np.float32)
            assert predict_logits(model, x).tobytes() == fresh.forward(x).tobytes(), b
        # the training arena, not a new one
        assert model._arena is arena and all(new is old for new, old in zip(arena.acts, buffers))

    @pytest.mark.parametrize("spec", INFERENCE_SPECS, ids=INFERENCE_IDS)
    def test_train_step_after_inference_bit_equal(self, spec):
        model, fresh = trained_like(spec, 74), trained_like(spec, 74)
        steps = RmsProp(lr=1e-3), RmsProp(lr=1e-3)
        rng = np.random.default_rng(75)
        # a larger inference batch first: the full arena is built at its size, or at
        # two convs is the inference arena itself
        predict_logits(model, rng.standard_normal((32, 41, 300)).astype(np.float32))
        for b, t in ((7, 300), (25, 300), (7, 300), (25, 40)):
            x, targets = rng.standard_normal((b, 41, t)).astype(np.float32), rng.integers(0, 6, b)
            (logits, got), (want_logits, want) = (train_step(m, o, x, targets)
                                                  for m, o in zip((model, fresh), steps))
            assert logits.tobytes() == want_logits.tobytes(), (b, t)
            assert list(got) == list(want)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), (b, t, name)
            predict_logits(model, rng.standard_normal((16, 41, t)).astype(np.float32))
        assert len(model._arena.acts) == len(spec.conv_channels)

    # an inference forward runs its last conv in the buffer that held conv n - 2's
    # input, as many items a block as it holds (8 of 16 at the default spec and T 300,
    # against 3 in a keeping forward), or in a block of its own where that holds fewer
    # than a keeping forward's (WIDE_LAST, one conv, B 1, and T <= 111 at B 16 at the
    # default spec). At B 16 a keeping forward's blocks are 8 items at T 126 and 7 at
    # T 127 and 128; the batch grows the new model's arena, then reuses its leading
    # rows, and the trained model's training arena, regrown whole at B 16
    @pytest.mark.parametrize("trained", [False, True], ids=["fresh", "trained"])
    @pytest.mark.parametrize("spec", INFERENCE_SPECS + [WIDE_LAST],
                             ids=INFERENCE_IDS + ["wide_last"])
    def test_half_batch_blocks_bit_equal_to_a_keeping_forward(self, spec, trained):
        model, keeping = trained_like(spec, 76), trained_like(spec, 76)
        rng = np.random.default_rng(77)
        for t in (1, 17, 18, 126, 127, 128, 300):
            if trained:
                train_step(model, RmsProp(lr=1e-3), rng.standard_normal((8, 41, t))
                           .astype(np.float32), rng.integers(0, 6, 8))
                keeping.set_parameters(dict(model.parameters()))
            for b in (1, 3, 8, 16, 17, 8, 3, 1):
                x = rng.standard_normal((b, 41, t)).astype(np.float32)
                got = model.forward(x, keep=False)
                assert got.tobytes() == keeping.forward(x).tobytes(), (t, b)
            n = len(spec.conv_channels)
            assert len(model._arena.acts) == (n if trained else min(2, n)), t

    def test_backward_after_inference_forward_refused(self):
        model = Model(SMALL, seed=0)
        x = np.zeros((4, 41, 30), dtype=np.float32)
        grad = np.ones((4, 6), dtype=np.float32)
        with pytest.raises(RuntimeError, match="none ran"):
            model.backward(grad)
        model.forward(x)
        model.forward(x, keep=False)  # overwrites the kept forward's last activations
        with pytest.raises(RuntimeError, match="keep=False"):
            model.backward(grad)
        model.forward(x)
        model.backward(grad)


class TestArenaMemory:
    def test_arena_dies_with_its_model(self):
        model = Model(SMALL, seed=0)
        x = np.random.default_rng(0).standard_normal((4, 41, 30)).astype(np.float32)
        model.forward(x)
        model.backward(np.ones((4, 6), dtype=np.float32))
        refs = weakref.ref(model), weakref.ref(model._arena)
        was_enabled = gc.isenabled()
        gc.disable()  # reference counting alone must free both: no model<->arena cycle
        try:
            del model
            assert [ref() for ref in refs] == [None, None]
        finally:
            if was_enabled:
                gc.enable()

    # one buffer per conv input at its own width, each conv's input gradient written
    # over it, and one block of the last conv's output: 3 items of 302 rows at T 300
    @pytest.mark.parametrize("spec, widths", [
        (ModelSpec(), [41, 64, 64, 128, 128, 256]),
        (DECREASING, [41, 256, 128, 64, 32, 16]),
        (ONE_CONV, [41])], ids=["default", "decreasing", "one_conv"])
    def test_arena_holds_only_the_activations(self, spec, widths):
        model = Model(spec, seed=0)
        b, t = 25, 300
        model.forward(np.zeros((b, 41, t), dtype=np.float32))
        model.backward(np.ones((b, 6), dtype=np.float32))
        arena, tp = model._arena, t + 2 * PAD
        assert sorted(vars(arena)) == ["acts", "b", "block", "items", "t"]
        # KERNEL - 1 spare rows for the zero rows in front of an output gradient
        assert [a.shape for a in arena.acts] == [(b * tp + KERNEL - 1, w) for w in widths]
        assert arena.items == 3 and arena.block.shape == (3 * tp, spec.conv_channels[-1])

    # conv i's input in buffer i % 2, each as wide as the widest input it takes: at the
    # default spec 41, 64 and 128 channels in one and 64, 128 and 256 in the other, at
    # DECREASING 41, 128 and 32 and 256, 64 and 16; one conv needs one buffer. The last
    # conv's blocks go in the buffer that held conv n - 2's input (8 items a block at
    # the default spec, room for 256 at DECREASING), and need a 3-item block of their
    # own only for one conv, whose one buffer is its input, and at WIDE_LAST, whose
    # 41-channel buffer holds one 512-channel item
    @pytest.mark.parametrize("spec, widths, items, block", [
        (ModelSpec(), [128, 256], 8, None), (DECREASING, [128, 256], 256, None),
        (ONE_CONV, [41], 3, (906, 10)), (WIDE_LAST, [41, 4], 3, (906, 512))],
        ids=["default", "decreasing", "one_conv", "wide_last"])
    def test_inference_arena_holds_two_buffers(self, spec, widths, items, block):
        model = Model(spec, seed=0)
        b, t = 16, 300
        predict_logits(model, np.zeros((b, 41, t), dtype=np.float32))
        rows = b * (t + 2 * PAD) + KERNEL - 1
        arena = model._arena
        assert [a.shape for a in arena.acts] == [(rows, w) for w in widths]
        assert arena.pool_blocks(model._widths, keep=False)[0] == items
        assert (None if arena.block is None else arena.block.shape) == block
        model.forward(np.zeros((b, 41, t), dtype=np.float32))  # a kept forward builds them all
        assert len(model._arena.acts) == len(spec.conv_channels)
        # and a larger inference batch after it regrows them all, for the next train step
        model.forward(np.zeros((b + 1, 41, t), dtype=np.float32), keep=False)
        assert model._arena.b == b + 1 and len(model._arena.acts) == len(spec.conv_channels)

    def test_inference_forward_peak_memory(self):
        # the two buffers (128 and 256 channels), the last conv's blocks in the first,
        # are 7.4 MB at B 16, T 300, and the peak 7.5 MB (numpy 2.4); 8.4 MB with a
        # block of its own, 9.9 MB with two 256-channel buffers, the pool's input one of
        # them, and 18.2 MB when the forward built the arena of every layer's buffer
        model = Model(ModelSpec(), seed=0)
        x = np.random.default_rng(0).standard_normal((16, 41, 300)).astype(np.float32)
        tracemalloc.start()
        try:
            predict_logits(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.8e6

    def test_arena_rebuild_frees_the_old_buffers_first(self):
        # a batch-8 step's arena (6 buffers and a block, 7.5 MB at T 300), then a
        # 16-row predict_logits, which rebuilds it whole at 16 rows: 17.3 MB at the
        # peak (numpy 2.4); 31.9 MB when the old buffers, held by the arena or by the
        # layers' views of them, lived until the new ones were built
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 41, 300)).astype(np.float32)
        grad = (rng.standard_normal((8, 6)) / 8).astype(np.float32)
        x16 = rng.standard_normal((16, 41, 300)).astype(np.float32)
        tracemalloc.start()
        try:
            model = Model(ModelSpec(), seed=0)
            model.forward(x)
            model.backward(grad)
            predict_logits(model, x16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6

    def test_new_t_rebuild_peaks_below_the_train_step(self):
        # a batch-16 T 300 step, then 16 rows at T 280: the new arena is built
        # once the old one (14.1 MB) is freed, so the step sets the peak (18.1 MB,
        # numpy 2.4); holding both peaked at 39.8 MB
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 41, 300)).astype(np.float32)
        grad = (rng.standard_normal((16, 6)) / 16).astype(np.float32)
        x280 = rng.standard_normal((16, 41, 280)).astype(np.float32)
        tracemalloc.start()
        try:
            model = Model(ModelSpec(), seed=0)
            model.forward(x)
            model.backward(grad)
            step_peak = tracemalloc.get_traced_memory()[1]
            predict_logits(model, x280)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model._arena.t == 280
        assert peak < step_peak + 1e6, (step_peak, peak)

    def test_first_train_step_peak_memory(self):
        # the step allocates the arena, 20.6 MB of conv inputs and a 0.9 MB block at
        # B 25, T 300: 24.8 MB at the peak (numpy 2.4); 31.1 MB with the pool's input
        # stored, 31.9 MB with the last conv's input gradient taken by dense GEMMs, a
        # ReLU's mask held through them, 47.4 MB with two gradient buffers besides
        model = Model(ModelSpec(), seed=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((25, 41, 300)).astype(np.float32)
        grad = (rng.standard_normal((25, 6)) / 25).astype(np.float32)
        tracemalloc.start()
        try:
            model.forward(x)
            model.backward(grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 27.3e6

    def test_warm_train_step_peak_memory(self):
        # the dense model before the arena peaked at 88.4 MB on this step
        # (numpy 2.4), allocating every padded copy, product and mask anew
        model = Model(ModelSpec(), seed=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((25, 41, 300)).astype(np.float32)
        grad = (rng.standard_normal((25, 6)) / 25).astype(np.float32)
        model.forward(x)
        model.backward(grad)
        tracemalloc.start()
        try:
            model.forward(x)
            model.backward(grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 3.3 MB: the last conv's scatter with the ReLU mask (1.9 MB) of its input held
        # through it, as each conv's input gradient goes over that input; 2.8 MB with
        # the pool's input stored and the mask taken in the ReLU's backward; 3.6 MB
        # with the input gradient taken by dense GEMMs, 7.8 MB with two gradient
        # buffers and the pool's argmax over a copy of its whole input
        assert peak < 3.4e6


STEP_GRADIENTS = """\
import hashlib
import numpy as np
from affectline.nn import Model, ModelSpec, softmax_xent
model, rng = Model(ModelSpec(), seed=0), np.random.default_rng(0)
x = rng.standard_normal((25, 41, 300)).astype(np.float32)
_, grad = softmax_xent(model.forward(x), rng.integers(0, 6, 25))
for name, g in model.backward((grad / 25).astype(np.float32)).items():
    print(name, hashlib.sha256(g.tobytes()).hexdigest())
"""


def test_train_step_gradients_bit_equal_at_1_and_2_blas_threads():
    # a B 25, T 300 step: each phase's weight-gradient reduction runs over 2,517
    # rows, long enough for OpenBLAS to split it differently at 2 threads
    one, two = (run_at_blas_threads(n, STEP_GRADIENTS) for n in (1, 2))
    assert len(one.splitlines()) == 14 and one == two
