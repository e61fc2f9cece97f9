"""Minimal network kernel with explicit backpropagation.

The paper's architecture and nothing else: 1-D convolution over time
(feature rows are input channels) at stride 1, ReLU, one global max pool
over time, one fully connected head, softmax cross-entropy, and RMSProp.
A convolution is ``kernel`` GEMMs over row-shifted slices of one
zero-padded channels-last copy of its input, with no im2col columns. No
autograd: every layer caches what its hand-derived backward pass needs
on ``self``, so one layer or model instance must not run forwards
concurrently. Training math is float32; gradient checks run the same
code in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AffectlineError, ConfigError
from .features import N_FEATURE_ROWS, check_sizes

N_CLASSES = 6


class ShapeError(AffectlineError):
    """Operand shapes incompatible with a layer contract."""


def he_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Conv1d:
    """Stride-1 cross-correlation with bias over the time axis.

    Input (B, C_in, T) -> output (B, C_out, T'), a transposed view of
    channels-last memory, with T' = T + 2*pad - kernel + 1. F is the input
    copied once into a zero-padded channels-last (B*(T + 2*pad), C_in)
    matrix; the output is sum_k F[k:k+n] @ w[:, :, k].T at rows
    b*(T + 2*pad) + j for j < T' (rows straddling two batch items are
    dropped).
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int, pad: int = 0, *,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.pad = kernel, pad
        rng = rng or np.random.default_rng(0)
        self.w = he_uniform(rng, (out_ch, in_ch, kernel), in_ch * kernel, dtype)
        self.b = np.zeros(out_ch, dtype=dtype)
        self._rows = self._taps = self._in_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ShapeError(f"conv expects (B, C, T) input, got shape {x.shape}")
        b, c, t = x.shape
        if c != self.in_ch:
            raise ShapeError(f"conv expects {self.in_ch} channels, got {c}")
        if t + 2 * self.pad < self.kernel:
            raise ShapeError(f"input length {t} too short for kernel {self.kernel}")
        tp = t + 2 * self.pad
        xp = np.zeros((b, tp, c), dtype=x.dtype)
        xp[:, self.pad:self.pad + t] = x.transpose(0, 2, 1)
        rows, n = xp.reshape(b * tp, c), b * tp - self.kernel + 1
        taps = np.ascontiguousarray(self.w.transpose(2, 0, 1))  # (K, C_out, C_in)
        y = np.empty((b * tp, self.out_ch), dtype=np.result_type(x, self.w))
        np.matmul(rows[:n], taps[0].T, out=y[:n])
        for k in range(1, self.kernel):
            y[:n] += rows[k:k + n] @ taps[k].T
        self._rows, self._taps, self._in_shape = rows, taps, (b, c, t)
        y = y.reshape(b, tp, self.out_ch)[:, :tp - self.kernel + 1]
        y += self.b
        return y.transpose(0, 2, 1)

    def backward(self, grad_out: np.ndarray):
        b, c, t = self._in_shape
        t_out = t + 2 * self.pad - self.kernel + 1
        if grad_out.shape != (b, self.out_ch, t_out):
            raise ShapeError("grad_out shape does not match forward output")
        rows, n = self._rows, len(self._rows) - self.kernel + 1
        g = np.zeros((b, len(rows) // b, self.out_ch), dtype=grad_out.dtype)
        g[:, :t_out] = grad_out.transpose(0, 2, 1)
        g, taps = g.reshape(len(rows), self.out_ch), self._taps
        self.gw = np.stack([g[:n].T @ rows[k:k + n] for k in range(self.kernel)], axis=2)
        self.gb = g.sum(axis=0)
        dxp = np.zeros((len(rows), c), dtype=np.result_type(g, taps))
        for k in range(self.kernel):
            dxp[k:k + n] += g[:n] @ taps[k]
        return dxp.reshape(b, -1, c)[:, self.pad:self.pad + t].transpose(0, 2, 1)


class ReLU:
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.maximum(x, 0)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * (self._y > 0)  # y > 0 exactly where x > 0


class MaxPool1d:
    """Global max over time, (B, C, T) -> (B, C); the gradient routes to
    the first argmax on ties.

    ``forward`` computes only the max and keeps its input, not a copy (in
    the model the ReLU already holds that array); ``backward``, the only
    reader of the argmax, takes it there, so the input must not change
    between the two calls.
    """

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


class FullyConnected:
    """Affine head. Forward sums each output in einsum's own loop, not in
    BLAS, where a 1-row product takes the GEMV path and rounds differently
    from the same row inside a GEMM; so a row's output does not depend on
    the batch size.
    """

    def __init__(self, in_features: int, out_features: int, *,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        self.in_features, self.out_features = in_features, out_features
        rng = rng or np.random.default_rng(0)
        self.w = he_uniform(rng, (out_features, in_features), in_features, dtype)
        self.b = np.zeros(out_features, dtype=dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.in_features:
            raise ShapeError(f"fc expects {self.in_features} inputs, got {x.shape[1]}")
        self._x = x
        return np.einsum("bi,oi->bo", x, self.w) + self.b

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.gw = grad_out.T @ self._x
        self.gb = grad_out.sum(axis=0)
        return grad_out @ self.w


def softmax_xent(logits: np.ndarray, targets) -> tuple:
    """Stable softmax cross-entropy.

    Accepts (B, K) logits with integer targets (B,), or a single (K,)
    vector with a scalar target. Returns per-sample losses and the
    gradient of the summed loss w.r.t. the logits (softmax - onehot).
    """
    single = np.ndim(logits) == 1
    z = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    t = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_p = z - log_norm
    rows = np.arange(z.shape[0])
    loss = -log_p[rows, t]
    grad = np.exp(log_p)
    grad[rows, t] -= 1.0
    if single:
        return float(loss[0]), grad[0]
    return loss, grad


class RmsProp:
    """RMSProp over a named parameter set, one accumulator per tensor."""

    def __init__(self, lr: float = 1e-4, rho: float = 0.9, eps: float = 1e-8):
        self.lr, self.rho, self.eps = lr, rho, eps
        self.acc: dict[str, np.ndarray] = {}

    def step(self, named_params, named_grads: dict) -> None:
        """In place per tensor: acc <- rho*acc + (1-rho)*g^2; p <- p - lr*g/(sqrt(acc)+eps)."""
        for name, param in named_params:
            if name not in self.acc:
                self.acc[name] = np.zeros_like(param)
            grad = named_grads[name].astype(param.dtype, copy=False)
            acc = self.acc[name]
            if param.shape != grad.shape or param.shape != acc.shape:
                raise ShapeError(f"{name}: param/grad/accumulator shapes differ")
            acc *= self.rho
            acc += (1.0 - self.rho) * grad * grad
            param -= self.lr * grad / (np.sqrt(acc) + self.eps)


@dataclass(frozen=True)
class ModelSpec:
    """The paper's architecture: stride-1 conv/ReLU pairs sharing one
    kernel size and padding, a global max pool, one FC head over the last
    conv layer's channels.
    """

    in_channels: int = N_FEATURE_ROWS
    in_frames: int = 300
    conv_channels: tuple = (64, 64, 128, 128, 256, 256)
    kernel: int = 3
    pad: int = 1
    n_classes: int = N_CLASSES

    def __post_init__(self):
        check_sizes(in_channels=self.in_channels, in_frames=self.in_frames,
                    kernel=self.kernel, pad=self.pad, n_classes=self.n_classes,
                    **{f"conv_channels[{i}]": c for i, c in enumerate(self.conv_channels)})
        if min(self.in_frames, self.kernel) < 1:
            raise ConfigError("in_frames (t_fixed) and kernel must be >= 1, got "
                              f"{self.in_frames}, {self.kernel}")
        if self.pad < 0:
            raise ConfigError(f"pad must be >= 0, got {self.pad}")
        if not self.conv_channels or any(c <= 0 for c in self.conv_channels):
            raise ShapeError("conv_channels must be positive")
        shrink = max(self.kernel - 1 - 2 * self.pad, 0)  # frames each conv layer removes
        if self.in_frames - shrink * len(self.conv_channels) < 1:
            raise ShapeError("conv stack shrinks time axis below kernel size")


class Model:
    """Conv/ReLU stack, global max pool, FC head.

    Forward on an unchanged parameter set is deterministic, and a row's
    logits are bit-equal at any batch size while BLAS rounds a GEMM row the
    same way whatever the row count: every conv product is a GEMM of at
    least T' rows even at batch 1, and the FC head does not use BLAS.
    Training steps mutate parameters and must not run concurrently.
    """

    def __init__(self, spec: ModelSpec, seed=0, dtype=np.float32):
        self.spec = spec
        rng = np.random.default_rng(seed)
        self.convs = []
        in_ch = spec.in_channels
        for out_ch in spec.conv_channels:
            self.convs.append(Conv1d(in_ch, out_ch, spec.kernel, spec.pad,
                                     rng=rng, dtype=dtype))
            in_ch = out_ch
        self.relus = [ReLU() for _ in spec.conv_channels]
        self.pool = MaxPool1d()
        self.fc = FullyConnected(in_ch, spec.n_classes, rng=rng, dtype=dtype)

    def parameters(self):
        """(name, tensor) pairs in declaration order."""
        out = []
        for i, conv in enumerate(self.convs, start=1):
            out.append((f"conv{i}.w", conv.w))
            out.append((f"conv{i}.b", conv.b))
        out.append(("fc.w", self.fc.w))
        out.append(("fc.b", self.fc.b))
        return out

    def set_parameters(self, named: dict) -> None:
        for name, value in self.parameters():
            new = named[name]
            if new.shape != value.shape:
                raise ShapeError(f"parameter {name}: shape {new.shape} != {value.shape}")
            value[...] = new

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.spec.in_channels \
                or x.shape[2] != self.spec.in_frames:
            raise ShapeError(
                f"model expects (B, {self.spec.in_channels}, {self.spec.in_frames}),"
                f" got {x.shape}"
            )
        h = x
        for conv, relu in zip(self.convs, self.relus):
            h = relu.forward(conv.forward(h))
        return self.fc.forward(self.pool.forward(h))

    def backward(self, grad_logits: np.ndarray) -> dict:
        """Gradients for every parameter given d(loss)/d(logits)."""
        g = self.pool.backward(self.fc.backward(grad_logits))
        for conv, relu in zip(reversed(self.convs), reversed(self.relus)):
            g = conv.backward(relu.backward(g))
        grads = {}
        for i, conv in enumerate(self.convs, start=1):
            grads[f"conv{i}.w"] = conv.gw
            grads[f"conv{i}.b"] = conv.gb
        grads["fc.w"] = self.fc.gw
        grads["fc.b"] = self.fc.gb
        return grads
