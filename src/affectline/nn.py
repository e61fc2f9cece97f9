"""Minimal network kernel with explicit backpropagation.

The paper's architecture and nothing else: 1-D convolution over time
(feature rows are input channels) at stride 1, kernel KERNEL and padding
PAD, ReLU, one global max pool over time, one fully connected head onto
the EMOTIONS classes, softmax cross-entropy, and RMSProp. Only the conv
widths vary (``ModelSpec``). A convolution is one GEMM per phase, the
output rows r = s (mod kernel), over a plain reshape of its input's
zero-padded channels-last matrix whose rows are then im2col rows, with
no columns copied. ``Model`` keeps those matrices in one activation
arena and nothing else: each conv writes its GEMMs straight into the
next layer's, the ReLUs work in place, and the backward pass writes each
gradient over one of the last two activations, which it no longer needs
by then. The global max pool's gradient is one (time step, value) pair
per item and channel (``PoolGrad``): the last conv sums its weight
gradient over only the rows those pairs name and scatters its input
gradient from them, with no GEMM. No autograd: every layer
caches what its hand-derived backward pass needs on ``self`` (in a
model, views of the arena), so one layer or model instance must not run
forwards concurrently. Training math is float32; gradient checks run the same
code in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import EMOTIONS
from .errors import AffectlineError, ConfigError
from .features import N_FEATURE_ROWS, check_sizes

KERNEL, PAD = 3, 1  # of every conv layer in the model: T' = T
# A conv sums each phase's weight-gradient rows in fixed blocks of this many, so
# its bytes do not depend on the BLAS thread count: 256 is below the K block at
# which OpenBLAS 0.3.31 splits a reduction (other builds may split elsewhere).
GRAD_BLOCK_ROWS = 256
# The last conv gathers the input windows its pooled rows name for this many
# output channels at a time: (B, 16, C_in) values instead of (B, C_out, C_in).
POOL_GATHER_CHANNELS = 16
MAX_CONV_CHANNELS = 4096  # per layer


class ShapeError(AffectlineError):
    """Operand shapes incompatible with a layer contract."""


def he_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class PoolGrad:
    """The gradient a global max pool sends to its (B, C, T) input:
    ``value[b, c]`` at time ``index[b, c]`` and zero everywhere else.
    ``dense()`` (or ``np.asarray``) expands it in channels-last memory."""

    def __init__(self, index: np.ndarray, value: np.ndarray, t: int):
        self.index, self.value, self.t = index, value, t

    @property
    def shape(self) -> tuple:
        return (*self.index.shape, self.t)

    @property
    def dtype(self):
        return self.value.dtype

    def dense(self) -> np.ndarray:
        b, c, t = self.shape
        dx = np.zeros((b, t, c), dtype=self.value.dtype).transpose(0, 2, 1)
        np.put_along_axis(dx, self.index[..., None], self.value[..., None], axis=2)
        return dx

    def __array__(self, dtype=None, copy=None):
        return self.dense() if dtype is None else self.dense().astype(dtype)


class Conv1d:
    """Stride-1 cross-correlation with bias over the time axis.

    Input (B, C_in, T) -> output (B, C_out, T'), a transposed view of
    channels-last memory, with T' = T + 2*pad - kernel + 1. F is the input
    in a zero-padded channels-last (B*(T + 2*pad), C_in) matrix. Its rows
    r..r+kernel-1 are kernel*C_in contiguous values, im2col row r, so the
    output is F's im2col rows times the weight stacked as (kernel*C_in,
    C_out), at rows b*(T + 2*pad) + j for j < T' (rows straddling two batch
    items are set to zero). The windows of the rows r = s (mod kernel)
    follow each other in memory, so each phase s is one GEMM over a plain
    reshape of F, written to every kernel-th output row. The input
    gradient is the same product over the output gradient with kernel - 1
    zero rows in front, times the tap-reversed stacked weight; a
    ``PoolGrad`` output gradient is scattered instead (``_pooled_backward``).

    ``taps`` (kernel, C_in, C_out) holds the weight in the layout these
    GEMMs read; ``w`` is its (C_out, C_in, kernel) view, and ``gw`` is laid
    out the same way.

    Called alone, a layer copies its input into F and allocates its
    output. ``Model`` passes its arena's buffers instead: ``x_rows`` is
    the F that ``x`` is the interior of, and ``out`` the (B*(T + 2*pad),
    C_out) matrix to write. With pad = (kernel - 1) // 2, ``out`` shifted
    down by ``pad`` rows is the next layer's F. ``backward`` takes a dense
    output gradient in the same layout after kernel - 1 rows it zeroes,
    ``g_rows`` (kernel - 1 + B*(T + 2*pad), C_out), and writes the input
    gradient's padded rows into ``out``. A ``PoolGrad`` needs no
    ``g_rows``: its input gradient is scattered into ``out`` and its weight
    gradient sums only the rows it names.
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int, pad: int = 0, *,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.pad = kernel, pad
        rng = rng or np.random.default_rng(0)
        w = he_uniform(rng, (out_ch, in_ch, kernel), in_ch * kernel, dtype)
        self.taps = np.ascontiguousarray(w.transpose(2, 1, 0))
        self.w = self.taps.transpose(2, 1, 0)
        self.b = np.zeros(out_ch, dtype=dtype)
        self._rows = self._in_shape = None

    def _phases(self, rows: np.ndarray, n: int):
        """(output rows, im2col rows) of each phase s: the rows r < n with
        r = s (mod kernel), and rows[r:r + kernel] of each as one row, a
        view of ``rows``' memory."""
        k, c = self.kernel, rows.shape[1]
        flat = rows.reshape(-1)
        for s in range(min(k, n)):
            m = (n - s + k - 1) // k
            yield slice(s, n, k), flat[s * c:(s + k * m) * c].reshape(m, k * c)

    def forward(self, x: np.ndarray, x_rows=None, out=None) -> np.ndarray:
        if x.ndim != 3:
            raise ShapeError(f"conv expects (B, C, T) input, got shape {x.shape}")
        b, c, t = x.shape
        if c != self.in_ch:
            raise ShapeError(f"conv expects {self.in_ch} channels, got {c}")
        if t + 2 * self.pad < self.kernel:
            raise ShapeError(f"input length {t} too short for kernel {self.kernel}")
        tp = t + 2 * self.pad
        if x_rows is None:
            x_rows = np.zeros((b * tp, c), dtype=x.dtype)
            x_rows.reshape(b, tp, c)[:, self.pad:self.pad + t] = x.transpose(0, 2, 1)
        n, t_out = max(b * tp - self.kernel + 1, 0), tp - self.kernel + 1  # n = 0 at B = 0
        y = np.empty((b * tp, self.out_ch), dtype=np.result_type(x_rows, self.taps)) \
            if out is None else out
        w = self.taps.reshape(-1, self.out_ch)
        for rows, cols in self._phases(x_rows, n):
            np.matmul(cols, w, out=y[rows])
        self._rows, self._in_shape = x_rows, (b, c, t)
        y = y.reshape(b, tp, self.out_ch)
        y[:, :t_out] += self.b
        y[:, t_out:] = 0
        return y[:, :t_out].transpose(0, 2, 1)

    def backward(self, grad_out, g_rows=None, out=None):
        b, c, t = self._in_shape
        k, tp = self.kernel, t + 2 * self.pad
        n, t_out = max(b * tp - k + 1, 0), tp - k + 1
        if grad_out.shape != (b, self.out_ch, t_out):
            raise ShapeError("grad_out shape does not match forward output")
        dxp = np.empty((b * tp, c), dtype=np.result_type(grad_out.dtype, self.taps)) \
            if out is None else out
        if isinstance(grad_out, PoolGrad):
            gw, self.gb = self._pooled_backward(grad_out, dxp)
        else:
            if g_rows is None:
                g_rows = np.empty((k - 1 + b * tp, self.out_ch), dtype=grad_out.dtype)
                g_rows[k - 1:].reshape(b, tp, self.out_ch)[:, :t_out] = \
                    grad_out.transpose(0, 2, 1)
            g = g_rows[k - 1:]
            # the rows in front of g and the rows whose window straddles two items
            g_rows[:b * tp].reshape(b, tp, self.out_ch)[:, :k - 1] = 0
            g_rows[b * tp:] = 0
            gw = np.zeros((k * c, self.out_ch), dtype=np.result_type(g, self._rows))
            for rows, cols in self._phases(self._rows, n):
                g_phase = g[rows]
                for s0 in range(0, len(cols), GRAD_BLOCK_ROWS):
                    gw += cols[s0:s0 + GRAD_BLOCK_ROWS].T @ g_phase[s0:s0 + GRAD_BLOCK_ROWS]
            self.gb = g.sum(axis=0)
            w = np.ascontiguousarray(self.taps[::-1].transpose(0, 2, 1)).reshape(-1, c)
            for rows, cols in self._phases(g_rows, b * tp):
                np.matmul(cols, w, out=dxp[rows])
        self.gw = gw.reshape(k, c, self.out_ch).transpose(2, 1, 0)
        return dxp.reshape(b, tp, c)[:, self.pad:self.pad + t].transpose(0, 2, 1)

    def _pooled_backward(self, grad: PoolGrad, dxp: np.ndarray) -> tuple:
        """Backpropagate an output gradient that is non-zero at one time step
        per (item, channel): write the input gradient's padded rows into
        ``dxp`` and return the weight gradient in ``taps``' layout and the
        bias gradient. Output row r reads input rows r..r + kernel - 1, so
        each pair scatters its value times the channel's taps into those
        rows, one channel after another in order: a channel's B*kernel rows
        never collide, and no BLAS runs. The weight gradient sums B products
        per entry instead of B*(T + 2*pad), so it rounds differently from
        the dense one. The layer copies its weight and gathers the input
        windows of ``POOL_GATHER_CHANNELS`` output channels at a time; each
        entry is still one sum over the items in order, so the blocks do not
        change its bytes."""
        b, _, t = self._in_shape
        at = np.arange(b)[:, None] * (t + 2 * self.pad) + grad.index  # (B, C_out) output row
        gw = np.empty((self.kernel, self.in_ch, self.out_ch),
                      dtype=np.result_type(grad.value, self._rows))
        dxp[...] = 0
        for o in range(0, self.out_ch, POOL_GATHER_CHANNELS):
            block = slice(o, o + POOL_GATHER_CHANNELS)
            for k in range(self.kernel):  # einsum returns each tap transposed
                gw[k, :, block] = np.einsum("bo,boi->io", grad.value[:, block],
                                            self._rows[at[:, block] + k])
            taps = np.ascontiguousarray(self.taps[:, :, block].transpose(2, 0, 1))
            rows = at[:, block, None] + np.arange(self.kernel)  # (B, block, kernel)
            for j, w in enumerate(taps):
                dxp[rows[:, j]] += grad.value[:, o + j, None, None] * w
        return gw, grad.value.sum(axis=0) + 0.0  # no -0.0 sum, as over the dense rows


class ReLU:
    """max(x, 0). ``Model`` passes ``out=x`` to both calls, so they work in
    place; y must be unchanged between them."""

    def forward(self, x: np.ndarray, out=None) -> np.ndarray:
        self._y = np.maximum(x, 0, out=out)
        return self._y

    def backward(self, grad_out, out=None):
        if isinstance(grad_out, PoolGrad):  # the mask at the pooled steps; no ``out``
            y = np.take_along_axis(self._y, grad_out.index[..., None], axis=2)[..., 0]
            return PoolGrad(grad_out.index, grad_out.value * (y > 0), grad_out.t)
        return np.multiply(grad_out, self._y > 0, out=out)  # y > 0 exactly where x > 0


class MaxPool1d:
    """Global max over time, (B, C, T) -> (B, C); the gradient routes to
    the first argmax on ties.

    ``forward`` computes only the max and keeps its input, not a copy (in
    the model the ReLU already holds that array); ``backward``, the only
    reader of the argmax, takes it there one item at a time (an argmax
    along the strided time axis copies its operand), so the input must not
    change between the two calls. In a model, the backward consumes that
    input: ``Model.backward`` then writes the last conv's output gradient
    over it. ``backward`` returns a ``PoolGrad``: one (time index, value)
    pair per (item, channel), not a dense gradient.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x.max(axis=2)

    def backward(self, grad_out: np.ndarray) -> PoolGrad:
        index = np.empty(self._x.shape[:2], dtype=np.intp)
        for item, at in zip(self._x, index):
            item.argmax(axis=1, out=at)
        return PoolGrad(index, grad_out, self._x.shape[2])


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
    """Stable softmax cross-entropy of (B, K) logits with integer targets (B,).

    Returns per-sample losses and the gradient of the summed loss w.r.t.
    the logits (softmax - onehot).
    """
    z = np.asarray(logits, dtype=np.float64)
    t = np.asarray(targets, dtype=np.int64)
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_p = z - log_norm
    rows = np.arange(z.shape[0])
    loss = -log_p[rows, t]
    grad = np.exp(log_p)
    grad[rows, t] -= 1.0
    return loss, grad


RMSPROP_RHO = 0.9
RMSPROP_EPS = 1e-8


class RmsProp:
    """RMSProp over a named parameter set, one accumulator per tensor."""

    def __init__(self, lr: float):
        self.lr = lr
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
            acc *= RMSPROP_RHO
            acc += (1.0 - RMSPROP_RHO) * grad * grad
            param -= self.lr * grad / (np.sqrt(acc) + RMSPROP_EPS)


@dataclass(frozen=True)
class ModelSpec:
    """The widths of the paper's architecture: one stride-1 conv/ReLU pair
    per ``conv_channels`` entry, a global max pool, and one FC head over
    the last conv layer's channels. Everything else is fixed in this
    module.
    """

    conv_channels: tuple = (64, 64, 128, 128, 256, 256)

    def __post_init__(self):
        check_sizes(**{f"conv_channels[{i}]": c for i, c in enumerate(self.conv_channels)})
        if not self.conv_channels or not all(1 <= c <= MAX_CONV_CHANNELS
                                             for c in self.conv_channels):
            raise ConfigError(f"conv_channels must be 1..{MAX_CONV_CHANNELS} each, got "
                              f"{list(self.conv_channels)}")

    def parameter_shapes(self) -> dict:
        """name -> shape of every ``Model`` parameter in declaration order,
        without allocating any."""
        widths, shapes = (N_FEATURE_ROWS, *self.conv_channels), {}
        for i, (c_in, c_out) in enumerate(zip(widths, widths[1:]), start=1):
            shapes[f"conv{i}.w"], shapes[f"conv{i}.b"] = (c_out, c_in, KERNEL), (c_out,)
        shapes["fc.w"], shapes["fc.b"] = (len(EMOTIONS), widths[-1]), (len(EMOTIONS),)
        return shapes


class _Arena:
    """The zero-padded channels-last buffers of one model, for ``b`` items
    of length ``t``; a smaller batch uses the leading rows.

    ``acts[i]`` holds layer i's input: item j's time step s at row
    j*(t + 2*PAD) + PAD + s, every other row zero (one spare row lets the
    last item's output window start at PAD). The arena holds nothing else:
    the backward pass keeps its gradients in the last two buffers, the
    pool's input ``acts[-1]`` and the last conv's input ``acts[-2]``, which
    it no longer needs as activations by then (see ``Model.backward``), so
    every forward rewrites each row it reads but the model input's pad rows,
    which no backward writes. Those two have KERNEL - 1 spare rows, for the
    zero rows a conv's input gradient reads in front of its output
    gradient, and each is as wide as the widest matrix it holds; that is
    its activation's width at a spec whose widths never decrease, such as
    the default. ``rows(i, c, n)`` reads buffer i's memory
    as n rows of width c. The arena holds no reference to its model or
    layers, so it dies with the model.
    """

    def __init__(self, widths, b: int, t: int, dtype):
        self.b, self.t = b, t
        rows, n = b * (t + 2 * PAD), len(widths) - 1
        self.acts = [np.zeros((rows + PAD, c), dtype=dtype) for c in widths[:n - 1]]
        # buffer i also holds the input gradients of convs i - 1, i - 3, ...
        self.acts += [np.zeros((rows + KERNEL - 1, max((widths[i], *widths[:i][::-2]))),
                               dtype=dtype) for i in (n - 1, n)]

    def rows(self, i: int, c: int, n: int) -> np.ndarray:
        """The first n*c values of ``acts[i]`` as an (n, c) matrix."""
        return self.acts[i].reshape(-1)[:n * c].reshape(n, c)


class Model:
    """Conv/ReLU stack at ``spec``'s widths, global max pool, FC head. Each
    conv keeps the input length T and the pool drops it, so any T >= 1 fits.

    The model owns one ``_Arena`` sized for the largest batch and the
    current T it has seen, and computes in its dtype. Each conv writes its
    GEMMs straight into the next layer's zero-padded buffer, each ReLU
    works in place, and backward writes each conv's input gradient over
    the pool's input or the last conv's, in turn; so a train step
    allocates little beyond the parameter gradients, one ReLU mask at a
    time and conv6's gathered input windows. The global max pool sends
    gradient to one time step per (item, channel): conv6's weight gradient
    sums over only those rows, and its input gradient is scattered from
    them (see ``Conv1d._pooled_backward``).

    Forward on an unchanged parameter set is deterministic. A row's
    logits are bit-equal at any batch size where BLAS rounds a GEMM row
    the same way whatever the GEMM's row count, which small GEMMs need
    not do: at the default spec with OpenBLAS 0.3.31 on AVX-512 that
    holds for T >= 18 and fails for T <= 17. The FC head does not use
    BLAS. Training steps mutate parameters and must not run concurrently,
    and a forward's results are views of the arena that the next forward
    or backward overwrites (the logits are not).
    """

    def __init__(self, spec: ModelSpec, seed=0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        self._widths = (N_FEATURE_ROWS, *spec.conv_channels)
        self.convs = [Conv1d(c_in, c_out, KERNEL, PAD, rng=rng, dtype=dtype)
                      for c_in, c_out in zip(self._widths, self._widths[1:])]
        self.relus = [ReLU() for _ in spec.conv_channels]
        self.pool = MaxPool1d()
        self.fc = FullyConnected(self._widths[-1], len(EMOTIONS), rng=rng, dtype=dtype)
        self.dtype = np.dtype(dtype)
        self._arena = self._batch = None  # the (B, T) of the last forward

    def _layers(self):
        """(name, layer) of every layer with parameters, in declaration order."""
        return [(f"conv{i}", conv) for i, conv in enumerate(self.convs, start=1)] \
            + [("fc", self.fc)]

    def parameters(self):
        """(name, tensor) pairs in declaration order."""
        return [(f"{name}.{p}", getattr(layer, p)) for name, layer in self._layers() for p in "wb"]

    def set_parameters(self, named: dict) -> None:
        for name, value in self.parameters():
            new = named[name]
            if new.shape != value.shape:
                raise ShapeError(f"parameter {name}: shape {new.shape} != {value.shape}")
            value[...] = new

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(B, N_FEATURE_ROWS, T) input, any T >= 1 -> (B, len(EMOTIONS)) logits."""
        if x.ndim != 3 or x.shape[1] != N_FEATURE_ROWS:
            raise ShapeError(f"model expects (B, {N_FEATURE_ROWS}, T) input, got {x.shape}")
        b, _, t = x.shape
        arena = self._arena
        if arena is None or b > arena.b or t != arena.t:
            arena = self._arena = _Arena(self._widths, max(b, arena.b if arena else 0), t,
                                         self.dtype)
        self._batch = b, t
        tp = t + 2 * PAD
        padded = arena.rows(0, N_FEATURE_ROWS, b * tp).reshape(b, tp, N_FEATURE_ROWS)
        h = padded[:, PAD:PAD + t].transpose(0, 2, 1)
        h[...] = x
        x_rows = padded.reshape(b * tp, N_FEATURE_ROWS)
        for i, (conv, relu) in enumerate(zip(self.convs, self.relus), start=1):
            nxt = arena.rows(i, self._widths[i], PAD + b * tp)
            nxt[:PAD] = 0  # the rest is the conv's output and its zeroed straddling rows
            h = conv.forward(h, x_rows, out=nxt[PAD:])
            h = relu.forward(h, out=h)
            x_rows = nxt[:b * tp]
        return self.fc.forward(self.pool.forward(h))

    def backward(self, grad_logits: np.ndarray) -> dict:
        """Gradients for every parameter given d(loss)/d(logits) of the last forward.

        A backward consumes its forward's last two activations. Conv i's input
        gradient goes over the pool's input for n - 1 - i even and over the
        last conv's input for n - 1 - i odd (n convs): the last conv's lands
        on the pool's input once the pool has taken its argmax and the last
        ReLU its mask at the pooled steps, and the next one on the last conv's
        input once that conv has read it for its weight gradient and the ReLU
        before it has masked with it. So a second backward needs a new forward.
        """
        arena, (b, t) = self._arena, self._batch
        n, rows = len(self.convs), KERNEL - 1 + b * (t + 2 * PAD)  # see Conv1d.backward
        g = self.pool.backward(self.fc.backward(grad_logits.astype(self.dtype, copy=False)))
        g_rows = None  # the last conv's output gradient is a PoolGrad
        for i in reversed(range(n)):
            g = self.relus[i].backward(g, out=g)
            dx_rows = arena.rows(n - (n - 1 - i) % 2, self._widths[i], rows)
            g = self.convs[i].backward(g, g_rows, out=dx_rows[KERNEL - 1 - PAD:rows - PAD])
            g_rows = dx_rows
        return {f"{name}.{p}": getattr(layer, "g" + p)
                for name, layer in self._layers() for p in "wb"}
