"""Minimal network kernel with explicit backpropagation.

The paper's architecture and nothing else: 1-D convolution over time
(feature rows are input channels) at stride 1, KERNEL taps and PAD zero
rows on each side, so each conv keeps its input length; ReLU, one global
max pool over time, one fully connected head onto the EMOTIONS classes,
softmax cross-entropy, and RMSProp. Only the conv widths vary
(``ModelSpec``). A convolution is one GEMM per phase, the output
rows r = s (mod KERNEL), over a plain reshape of its input's zero-padded
channels-last matrix whose rows are then im2col rows, with no columns
copied. ``Model`` keeps those matrices in one activation arena and
nothing else: each conv writes its GEMMs straight into the next conv's
input, the ReLUs work in place, the last conv's output is pooled one
block of items at a time as it is computed, and the backward pass writes
each conv's input gradient over that input, which it no longer needs by
then. An inference forward (``keep=False``) keeps no activation and runs
in two buffers, a model that never trains holding only them. The global
max pool's gradient is one (time step, value) pair per item and channel
(``PoolGrad``): the last conv sums its weight gradient over only the
rows those pairs name and scatters its input gradient from them, with no
GEMM. No autograd: every layer caches what its hand-derived
backward pass needs on ``self`` (in a model, views of the arena), so one
layer or model instance must not run forwards concurrently. Training
math is float32; gradient checks run the same code in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import EMOTIONS
from .errors import AffectlineError, ConfigError
from .features import N_FEATURE_ROWS, check_sizes

KERNEL = 3  # the taps of every conv layer
PAD = (KERNEL - 1) // 2  # same padding: each conv's output is as long as its input
# A conv sums each phase's weight-gradient rows in fixed blocks of this many, so
# its bytes do not depend on the BLAS thread count: 256 is below the K block at
# which OpenBLAS 0.3.31 splits a reduction (other builds may split elsewhere).
GRAD_BLOCK_ROWS = 256
# The last conv gathers the input windows its pooled rows name for this many
# output channels at a time: (B, 16, C_in) values instead of (B, C_out, C_in).
POOL_GATHER_CHANNELS = 16
# A model runs its last conv over whole items in blocks of about this many rows,
# pooling each block as it is computed, so the pool's input is never stored.
POOL_BLOCK_ROWS = 1024
MAX_CONV_CHANNELS = 4096  # per layer


class ShapeError(AffectlineError):
    """Operand shapes incompatible with a layer contract."""


def he_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class PoolGrad:
    """The gradient a global max pool sends to its (B, C, T) input:
    ``value[b, c]`` at time ``index[b, c]`` and zero everywhere else.
    ``peak`` is the pool's input at those steps, its maxima, when the pool
    sent it. ``dense()`` (or ``np.asarray``) expands it in channels-last
    memory."""

    def __init__(self, index: np.ndarray, value: np.ndarray, t: int, peak=None):
        self.index, self.value, self.t, self.peak = index, value, t, peak

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
    """The model's conv layer: a stride-1 cross-correlation with bias over
    the time axis, ``KERNEL`` taps wide with ``PAD`` zero rows on each side.

    Input (B, C_in, T), T >= 1 -> output (B, C_out, T), a transposed view
    of channels-last memory. F is the input in a zero-padded channels-last
    (B*(T + 2*PAD), C_in) matrix. Its rows r..r+KERNEL-1 are KERNEL*C_in
    contiguous values, im2col row r, so the output is F's im2col rows times
    the weight stacked as (KERNEL*C_in, C_out), at rows b*(T + 2*PAD) + j
    for j < T (rows straddling two batch items are set to zero). The
    windows of the rows r = s (mod KERNEL) follow each other in memory, so
    each phase s is one GEMM over a plain reshape of F, written to every
    KERNEL-th output row. The input gradient is the same product over the
    output gradient with KERNEL - 1 zero rows in front, times the
    tap-reversed stacked weight; a ``PoolGrad`` output gradient is
    scattered instead (``_pooled_backward``).

    ``taps`` (KERNEL, C_in, C_out) holds the weight in the layout these
    GEMMs read; ``w`` is its (C_out, C_in, KERNEL) view, and ``gw`` is laid
    out the same way.

    Called alone, a layer copies its input into F and allocates its
    output. ``Model`` passes its arena's buffers instead: ``x_rows`` is
    the F that ``x`` is the interior of, and ``out`` the (B*(T + 2*PAD),
    C_out) matrix to write, which shifted down by PAD rows is the next
    layer's F. With ``items``, a slice of the batch, the forward computes
    and returns only those items' output, in ``out``'s leading rows; the
    backward still takes the whole batch. ``backward`` takes a dense output
    gradient in the same layout after KERNEL - 1 rows it zeroes, ``g_rows``
    (KERNEL - 1 + B*(T + 2*PAD), C_out), and writes the input gradient's
    padded rows into ``out``, which may overlap F: F is read first. A
    ``PoolGrad`` needs no ``g_rows``: its input gradient is scattered into
    ``out`` and its weight gradient sums only the rows it names.
    """

    kernel = KERNEL  # for code that reads a layer's geometry, like perfbench's FLOP count

    def __init__(self, in_ch: int, out_ch: int, *,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        self.in_ch, self.out_ch = in_ch, out_ch
        rng = rng or np.random.default_rng(0)
        w = he_uniform(rng, (out_ch, in_ch, KERNEL), in_ch * KERNEL, dtype)
        self.taps = np.ascontiguousarray(w.transpose(2, 1, 0))
        self.w = self.taps.transpose(2, 1, 0)
        self.b = np.zeros(out_ch, dtype=dtype)
        self._rows = self._in_shape = None

    def _phases(self, rows: np.ndarray, n: int):
        """(output rows, im2col rows) of each phase s: the rows r < n with
        r = s (mod KERNEL), and rows[r:r + KERNEL] of each as one row, a
        view of ``rows``' memory. There are none for n <= 0 (B = 0)."""
        k, c = KERNEL, rows.shape[1]
        flat = rows.reshape(-1)
        for s in range(min(k, n)):
            m = (n - s + k - 1) // k
            yield slice(s, n, k), flat[s * c:(s + k * m) * c].reshape(m, k * c)

    def forward(self, x: np.ndarray, x_rows=None, out=None, items=slice(None)) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.in_ch or x.shape[2] < 1:
            raise ShapeError(f"conv expects (B, {self.in_ch}, T >= 1) input, got shape {x.shape}")
        b, c, t = x.shape
        tp = t + 2 * PAD
        if x_rows is None:
            x_rows = np.zeros((b * tp, c), dtype=x.dtype)
            x_rows.reshape(b, tp, c)[:, PAD:PAD + t] = x.transpose(0, 2, 1)
        first, stop, _ = items.indices(b)
        n = stop - first
        y = np.empty((n * tp, self.out_ch), dtype=np.result_type(x_rows, self.taps)) \
            if out is None else out
        w = self.taps.reshape(-1, self.out_ch)
        for rows, cols in self._phases(x_rows[first * tp:(first + n) * tp], n * tp - KERNEL + 1):
            np.matmul(cols, w, out=y[rows])
        self._rows, self._in_shape = x_rows, (b, c, t)
        y = y.reshape(n, tp, self.out_ch)
        y[:, :t] += self.b
        y[:, t:] = 0
        return y[:, :t].transpose(0, 2, 1)

    def backward(self, grad_out, g_rows=None, out=None):
        b, c, t = self._in_shape
        k, tp = KERNEL, t + 2 * PAD
        if grad_out.shape != (b, self.out_ch, t):
            raise ShapeError("grad_out shape does not match forward output")
        dxp = np.empty((b * tp, c), dtype=np.result_type(grad_out.dtype, self.taps)) \
            if out is None else out
        if isinstance(grad_out, PoolGrad):
            gw, self.gb = self._pooled_backward(grad_out, dxp)
        else:
            if g_rows is None:
                g_rows = np.empty((k - 1 + b * tp, self.out_ch), dtype=grad_out.dtype)
                g_rows[k - 1:].reshape(b, tp, self.out_ch)[:, :t] = grad_out.transpose(0, 2, 1)
            g = g_rows[k - 1:]
            # the rows in front of g and the rows whose window straddles two items
            g_rows[:b * tp].reshape(b, tp, self.out_ch)[:, :k - 1] = 0
            g_rows[b * tp:] = 0
            gw = np.zeros((k * c, self.out_ch), dtype=np.result_type(g, self._rows))
            for rows, cols in self._phases(self._rows, b * tp - k + 1):
                g_phase = g[rows]
                for s0 in range(0, len(cols), GRAD_BLOCK_ROWS):
                    gw += cols[s0:s0 + GRAD_BLOCK_ROWS].T @ g_phase[s0:s0 + GRAD_BLOCK_ROWS]
            self.gb = g.sum(axis=0)
            w = np.ascontiguousarray(self.taps[::-1].transpose(0, 2, 1)).reshape(-1, c)
            for rows, cols in self._phases(g_rows, b * tp):
                np.matmul(cols, w, out=dxp[rows])
        self.gw = gw.reshape(k, c, self.out_ch).transpose(2, 1, 0)
        return dxp.reshape(b, tp, c)[:, PAD:PAD + t].transpose(0, 2, 1)

    def _pooled_backward(self, grad: PoolGrad, dxp: np.ndarray) -> tuple:
        """Backpropagate an output gradient that is non-zero at one time step
        per (item, channel): write the input gradient's padded rows into
        ``dxp`` and return the weight gradient in ``taps``' layout and the
        bias gradient. Output row r reads input rows r..r + KERNEL - 1, so
        each pair scatters its value times the channel's taps into those
        rows, one channel after another in order: a channel's B*KERNEL rows
        never collide, and no BLAS runs. The weight gradient sums B products
        per entry instead of B*(T + 2*PAD), so it rounds differently from
        the dense one. The layer gathers the input windows, and copies its
        weight, for ``POOL_GATHER_CHANNELS`` output channels at a time; each
        entry is still one sum over the items in order, so the blocks do not
        change its bytes. Every window is read before ``dxp`` is written, so
        ``dxp`` may overlap the input (in a model, it does)."""
        b, _, t = self._in_shape
        at = np.arange(b)[:, None] * (t + 2 * PAD) + grad.index  # (B, C_out) output row
        gw = np.empty((KERNEL, self.in_ch, self.out_ch),
                      dtype=np.result_type(grad.value, self._rows))
        blocks = [slice(o, o + POOL_GATHER_CHANNELS)
                  for o in range(0, self.out_ch, POOL_GATHER_CHANNELS)]
        for block in blocks:
            for k in range(KERNEL):  # einsum returns each tap transposed
                gw[k, :, block] = np.einsum("bo,boi->io", grad.value[:, block],
                                            self._rows[at[:, block] + k])
        dxp[...] = 0
        for block in blocks:
            o = block.start
            taps = np.ascontiguousarray(self.taps[:, :, block].transpose(2, 0, 1))
            rows = at[:, block, None] + np.arange(KERNEL)  # (B, block, KERNEL)
            for j, w in enumerate(taps):
                dxp[rows[:, j]] += grad.value[:, o + j, None, None] * w
        return gw, grad.value.sum(axis=0) + 0.0  # no -0.0 sum, as over the dense rows


class ReLU:
    """max(x, 0). ``Model`` passes ``out=x`` to both calls, so they work in
    place. The backward multiplies by ``mask()``, y > 0, which is exactly
    where x > 0: taken from y as it stands, or passed in as ``mask`` when y
    has been overwritten since. In a model the conv above writes its input
    gradient over y, so the model takes each mask just before that, one at
    a time. A ``PoolGrad`` is masked by its ``peak`` instead, y at the
    pooled steps as the pool read it, so the pool's input need not outlive
    the forward."""

    def forward(self, x: np.ndarray, out=None) -> np.ndarray:
        self._y = np.maximum(x, 0, out=out)
        return self._y

    def mask(self) -> np.ndarray:
        return self._y > 0

    def backward(self, grad_out, out=None, mask=None):
        if isinstance(grad_out, PoolGrad):  # no ``out`` or ``mask``
            return PoolGrad(grad_out.index, grad_out.value * (grad_out.peak > 0), grad_out.t,
                            grad_out.peak)
        return np.multiply(grad_out, self.mask() if mask is None else mask, out=out)


class MaxPool1d:
    """Global max over time, (B, C, T) -> (B, C); the gradient routes to
    the first argmax on ties.

    ``forward`` keeps no input. With ``keep`` it takes the first argmax at
    once, one item at a time (an argmax along the strided time axis copies
    its operand), and ``backward`` returns it as a ``PoolGrad``: one (time
    index, value) pair per (item, channel) and the maxima, not a dense
    gradient. ``Model`` pools its last conv's output one block of whole
    items at a time, as the conv computes it: ``x`` is then items ``at`` to
    ``at + len(x)`` of the batch ``out`` holds the maxima of, and the block
    at 0 starts that batch.
    """

    def forward(self, x: np.ndarray, keep: bool = True, out=None, at: int = 0) -> np.ndarray:
        b, c, t = x.shape
        if out is None:
            out = np.empty((b, c), dtype=x.dtype)
        if at == 0:
            self._index = np.empty(out.shape, dtype=np.intp) if keep else None
            self._peak, self._t = out, t
        x.max(axis=2, out=out[at:at + b])
        if keep:
            for item, row in zip(x, self._index[at:at + b]):
                item.argmax(axis=1, out=row)
        return out

    def backward(self, grad_out: np.ndarray) -> PoolGrad:
        return PoolGrad(self._index, grad_out, self._t, self._peak)


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

    With n convs, conv i's input, for i = 0 (the model's input) to n - 1,
    has item j's time step s at row j*(t + 2*PAD) + PAD + s and every other
    row zero. An arena for forwards that keep their activations (``keep``)
    holds one buffer per conv input, ``acts[i]`` at that input's width, and
    the backward writes conv i's input gradient over ``acts[i]`` (see
    ``Model.backward``). An arena for inference forwards alone holds
    min(2, n), each as wide as the widest input it takes: conv i's input goes
    in ``acts[i % 2]``. Either way it is in ``acts[i % len(acts)]``. Each
    buffer has KERNEL - 1 spare rows: a conv's output runs PAD rows past its
    input's, and its input gradient reads KERNEL - 1 zero rows in front of
    its output gradient. The last conv's output is never stored whole: it
    is computed and pooled a block of whole items at a time, in ``block``
    or, in an inference forward, over a buffer it no longer reads (see
    ``pool_blocks``). ``block`` is None only in an arena of fewer buffers
    than convs that has ``free_blocks``, since a keeping forward runs in any
    arena of one buffer per conv input: at the default spec and T 300, an
    arena for 16 inference rows is its two buffers, 7.4 MB. Every forward
    writes every row it reads. ``rows(i, c, n)`` reads buffer i's memory as n rows of width
    c. The arena holds no reference to its model or layers, so it dies
    with the model.
    """

    def __init__(self, widths, b: int, t: int, dtype, keep: bool):
        n, tp = len(widths) - 1, t + 2 * PAD
        m = n if keep else min(2, n)
        self.b, self.t, self.items = b, t, max(1, POOL_BLOCK_ROWS // tp)
        self.acts = [np.zeros((b * tp + KERNEL - 1, max(widths[j:n:m])), dtype=dtype)
                     for j in range(m)]
        # for keeping forwards, which may run in any arena of one buffer per conv input
        self.block = (np.zeros((min(b, self.items) * tp, widths[n]), dtype=dtype)
                      if m == n or self.free_blocks(widths) is None else None)

    def rows(self, i: int, c: int, n: int) -> np.ndarray:
        """The first n*c values of ``acts[i]`` as an (n, c) matrix."""
        return self.acts[i].reshape(-1)[:n * c].reshape(n, c)

    def free_blocks(self, widths):
        """(items, rows) for an inference forward's last conv where the buffer
        that held conv n - 2's input holds min(b, items) items, else None:
        as many whole items a block as that buffer holds, or ``items`` where
        that is more, and its leading min(b, items)*(t + 2*PAD) rows at the
        last conv's width. None in a one-conv model, whose one buffer is the
        last conv's input, at a last conv far wider than that buffer, and
        where ``items`` is more than the buffer's share of the batch (at the
        default spec, more than half the batch: B 1, or short items)."""
        n, tp, c = len(widths) - 1, self.t + 2 * PAD, widths[-1]
        free = (n - 2) % len(self.acts)  # conv n - 1's input is in buffer (n - 1) % len
        fits = self.acts[free].size // (tp * c)
        if n < 2 or fits < min(self.b, self.items):
            return None
        items = max(fits, self.items)
        return items, self.rows(free, c, min(self.b, items) * tp)

    def pool_blocks(self, widths, keep: bool) -> tuple:
        """(items, rows): how many whole items a forward runs the last conv
        over at a time, and the matrix it writes each block to: an inference
        forward's ``free_blocks`` where there are some, else ``items`` at a
        time in ``block``."""
        free = None if keep else self.free_blocks(widths)
        return (self.items, self.block) if free is None else free


class Model:
    """Conv/ReLU stack at ``spec``'s widths, global max pool, FC head. Each
    conv keeps the input length T and the pool drops it, so any T >= 1 fits.

    The model owns one ``_Arena`` sized for the largest batch and the
    current T it has seen, and computes in its dtype; a new one is built
    only once the old one and the layers' views of it are dropped, so the
    two are never held at once. Each conv but the last writes its GEMMs
    straight into the next conv's zero-padded input buffer, and each ReLU
    works in place. The last conv runs over blocks of whole items, about
    ``POOL_BLOCK_ROWS`` rows each, in one small buffer: each block gets its
    bias and ReLU and is pooled at once, its max and, for a backward, its
    first argmax, so the pool's input is never stored. The backward writes
    each conv's input gradient over that conv's own input; so a train step
    allocates little beyond the parameter gradients, one ReLU mask at a time
    and the last conv's gathered input windows. ``forward(x, keep=False)``,
    inference, keeps no activation and takes no argmax: a new arena it
    needs holds two buffers (unless the old one held every conv's input),
    and ``backward`` refuses to follow it. Its last conv writes its blocks
    over the buffer that held conv n - 2's input, as many items a block as
    that holds where that is more (half the batch at the default spec and
    T 300; see ``_Arena.free_blocks``). Its logits are bit-equal to a
    keeping forward's, whose GEMMs read the same rows; where its blocks are
    larger, that rests on the rule below. The global max pool sends
    gradient to one time step per (item, channel): the last conv's weight
    gradient sums over only those rows, and its input gradient is
    scattered from them (see ``Conv1d._pooled_backward``).

    Forward on an unchanged parameter set is deterministic. A row's
    logits are bit-equal at any batch size, and in any last-conv block,
    where BLAS rounds a GEMM row the same way whatever the GEMM's row count,
    which small GEMMs need not do: at the default spec with OpenBLAS 0.3.31
    on AVX-512 that holds for T >= 18 and fails for T <= 17. At T <= 17 a
    block holds at least 53 items, so a batch of up to 53 is one block in
    an inference forward and in a keeping one alike and its logits do not
    rest on that rule. The FC head does not use BLAS. Training steps mutate
    parameters and must not run concurrently, and a forward's results are
    views of the arena that the next forward or backward overwrites (the
    logits are not).
    """

    def __init__(self, spec: ModelSpec, seed=0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        self._widths = (N_FEATURE_ROWS, *spec.conv_channels)
        self.convs = [Conv1d(c_in, c_out, rng=rng, dtype=dtype)
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

    def forward(self, x: np.ndarray, keep: bool = True) -> np.ndarray:
        """(B, N_FEATURE_ROWS, T) input, any T >= 1 -> (B, len(EMOTIONS)) logits.
        With ``keep`` false, no layer's activation outlives the forward (see
        ``_Arena``), so no ``backward`` may follow it."""
        if x.ndim != 3 or x.shape[1] != N_FEATURE_ROWS:
            raise ShapeError(f"model expects (B, {N_FEATURE_ROWS}, T) input, got {x.shape}")
        b, _, t = x.shape
        n, arena = len(self.convs), self._arena
        whole = arena is not None and len(arena.acts) == n  # a trained model's is rebuilt whole
        if arena is None or b > arena.b or t != arena.t or (keep and not whole):
            size, arena = max(b, arena.b if arena else 0), None
            # the old buffers go first: the arena and each layer's view of them
            self._arena = None
            for conv, relu in zip(self.convs, self.relus):
                conv._rows = relu._y = None
            arena = self._arena = _Arena(self._widths, size, t, self.dtype, keep or whole)
        self._batch = (b, t) if keep else None
        tp = t + 2 * PAD
        padded = arena.rows(0, N_FEATURE_ROWS, b * tp).reshape(b, tp, N_FEATURE_ROWS)
        # the pad rows too: a backward, or in inference another conv's input, leaves values there
        padded[:, :PAD] = padded[:, PAD + t:] = 0
        h = padded[:, PAD:PAD + t].transpose(0, 2, 1)
        h[...] = x
        x_rows = padded.reshape(b * tp, N_FEATURE_ROWS)
        for i in range(1, n):
            nxt = arena.rows(i % len(arena.acts), self._widths[i], PAD + b * tp)
            nxt[:PAD] = 0  # the rest is the conv's output and its zeroed straddling rows
            h = self.convs[i - 1].forward(h, x_rows, out=nxt[PAD:])
            h = self.relus[i - 1].forward(h, out=h)
            x_rows = nxt[:b * tp]
        pooled = np.empty((b, self._widths[n]), dtype=self.dtype)
        step, block = arena.pool_blocks(self._widths, keep)
        # B 0 runs one empty block, which starts the pool's batch
        for j in range(0, max(b, 1), step):
            items = slice(j, min(j + step, b))
            y = self.convs[-1].forward(h, x_rows, out=block[:(items.stop - j) * tp], items=items)
            self.pool.forward(self.relus[-1].forward(y, out=y), keep, out=pooled, at=j)
        return self.fc.forward(pooled)

    def backward(self, grad_logits: np.ndarray) -> dict:
        """Gradients for every parameter given d(loss)/d(logits) of the last forward.

        A backward consumes its forward's activations: each conv's input
        gradient goes over its own input, once that conv has read the input
        for its weight gradient and the ReLU whose output it is has taken its
        mask. The pool took its argmax in the forward, and the last ReLU masks
        by the pooled maxima. So a second backward needs a new forward, and a
        forward with ``keep`` false is refused: it kept no activation.
        """
        if self._batch is None:
            raise RuntimeError("Model.backward needs a forward that keeps its activations: "
                               "the last forward ran with keep=False, or none ran")
        arena, (b, t) = self._arena, self._batch
        n, rows = len(self.convs), KERNEL - 1 + b * (t + 2 * PAD)  # see Conv1d.backward
        g = self.pool.backward(self.fc.backward(grad_logits.astype(self.dtype, copy=False)))
        g_rows = mask = None  # the last conv's output gradient is a PoolGrad
        for i in reversed(range(n)):
            g = self.relus[i].backward(g, out=g, mask=mask)
            del mask  # one mask at a time: the next is taken before conv i overwrites its input
            mask = self.relus[i - 1].mask() if i else None
            dx_rows = arena.rows(i, self._widths[i], rows)
            g = self.convs[i].backward(g, g_rows, out=dx_rows[KERNEL - 1 - PAD:rows - PAD])
            g_rows = dx_rows
        return {f"{name}.{p}": getattr(layer, "g" + p)
                for name, layer in self._layers() for p in "wb"}
