"""Central finite-difference verification of every analytic gradient.

All checks run in float64. Inputs are redrawn when a ReLU pre-activation
or the gap between a max pool's two largest inputs sits closer to zero
than the difference step allows, since the true derivative has a kink there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import EMOTIONS
from .features import N_FEATURE_ROWS
from .nn import Conv1d, FullyConnected, MaxPool1d, Model, ModelSpec, ReLU, softmax_xent

FD_STEP = 1e-5
TOLERANCE = 1e-4
_MARGIN = 20 * FD_STEP


@dataclass
class CheckRow:
    name: str
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < TOLERANCE


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def central_diff(loss_fn, tensor: np.ndarray) -> np.ndarray:
    """d loss / d tensor by elementwise central differences; mutates and restores.

    Each element is set through ``tensor`` itself, so a view (a conv's
    weight is one) moves the array it views."""
    grad = np.zeros(tensor.shape)
    for i in np.ndindex(tensor.shape):
        orig = tensor[i]
        tensor[i] = orig + FD_STEP
        plus = loss_fn()
        tensor[i] = orig - FD_STEP
        minus = loss_fn()
        tensor[i] = orig
        grad[i] = (plus - minus) / (2.0 * FD_STEP)
    return grad


def _projection_loss(layer, x: np.ndarray, u: np.ndarray):
    def loss():
        return float(np.sum(layer.forward(x) * u))
    return loss


def _check_layer(layer, x: np.ndarray, rng: np.random.Generator,
                 param_names=()) -> list:
    """Compare input/parameter gradients of sum(forward(x)*u) against FD."""
    y = layer.forward(x)
    u = rng.uniform(-1.0, 1.0, size=y.shape)
    grad_in = layer.backward(u)
    loss = _projection_loss(layer, x, u)
    rows = [("input", grad_in, x)]
    for pname in param_names:
        rows.append((pname, getattr(layer, "g" + pname), getattr(layer, pname)))
    out = []
    for label, analytic, tensor in rows:
        numeric = central_diff(loss, tensor)
        out.append(max_rel_error(analytic, numeric))
    return out


def check_conv(seed: int) -> float:
    rng = np.random.default_rng(seed)
    layer = Conv1d(3, 2, rng=rng, dtype=np.float64)
    x = rng.uniform(-1.0, 1.0, size=(2, 3, 10))
    return max(_check_layer(layer, x, rng, param_names=("w", "b")))


def check_pooled_conv(seed: int) -> float:
    """Conv1d -> ReLU -> MaxPool1d: the input, weight and bias gradients of a
    conv whose output gradient comes from a global max pool as (time step,
    value) pairs."""
    rng = np.random.default_rng(seed)
    conv, relu, pool = Conv1d(3, 4, rng=rng, dtype=np.float64), ReLU(), MaxPool1d()
    for _ in range(50):
        x = rng.uniform(-1.0, 1.0, size=(2, 3, 10))
        if _relu_margin([conv], x) > _MARGIN:
            break
    u = rng.uniform(-1.0, 1.0, size=(2, 4))

    def loss():
        return float(np.sum(pool.forward(relu.forward(conv.forward(x))) * u))

    loss()  # the forward the backward reads
    grad_in = conv.backward(relu.backward(pool.backward(u)))
    return max(max_rel_error(analytic, central_diff(loss, tensor))
               for analytic, tensor in ((grad_in, x), (conv.gw, conv.w), (conv.gb, conv.b)))


def check_relu(seed: int) -> float:
    rng = np.random.default_rng(seed)
    layer = ReLU()
    x = rng.uniform(-1.0, 1.0, size=(2, 4, 9))
    x[np.abs(x) < _MARGIN] = _MARGIN  # keep FD away from the kink
    return max(_check_layer(layer, x, rng))


def check_maxpool(seed: int) -> float:
    rng = np.random.default_rng(seed)
    layer = MaxPool1d()
    for _ in range(50):
        x = rng.uniform(-1.0, 1.0, size=(2, 3, 11))
        if _pool_margin(x) > _MARGIN:
            break
    return max(_check_layer(layer, x, rng))


def check_fc(seed: int) -> float:
    rng = np.random.default_rng(seed)
    layer = FullyConnected(3, 4, rng=rng, dtype=np.float64)
    x = rng.uniform(-1.0, 1.0, size=(5, 3))
    return max(_check_layer(layer, x, rng, param_names=("w", "b")))


def check_softmax(seed: int) -> float:
    rng = np.random.default_rng(seed)
    logits = rng.uniform(-2.0, 2.0, size=(3, 6))
    targets = rng.integers(0, 6, size=3)
    _, analytic = softmax_xent(logits, targets)

    def loss():
        losses, _ = softmax_xent(logits, targets)
        return float(losses.sum())

    numeric = central_diff(loss, logits)
    return max_rel_error(analytic, numeric)


def _pool_margin(x: np.ndarray) -> float:
    ordered = np.sort(x, axis=2)
    return float(np.min(ordered[..., -1] - ordered[..., -2]))


def _relu_margin(convs, x: np.ndarray) -> float:
    """The margin of a conv/ReLU stack's pre-activations and of its global max pool."""
    h = x
    margin = np.inf
    for conv in convs:
        z = conv.forward(h)
        margin = min(margin, float(np.min(np.abs(z))))
        h = np.maximum(z, 0)
    return min(margin, _pool_margin(h))


SMALL_SPEC = ModelSpec(conv_channels=(6, 6, 8, 8, 10, 10))
SMALL_FRAMES = 20


def check_full_model(seed: int) -> float:
    """FD check of the softmax loss against every parameter of a ``SMALL_SPEC`` model."""
    rng = np.random.default_rng(seed)
    model = Model(SMALL_SPEC, seed=seed, dtype=np.float64)
    targets = rng.integers(0, len(EMOTIONS), size=2)
    for _ in range(50):
        x = rng.uniform(-1.0, 1.0, size=(2, N_FEATURE_ROWS, SMALL_FRAMES))
        if _relu_margin(model.convs, x) > _MARGIN:
            break

    def loss():
        losses, _ = softmax_xent(model.forward(x), targets)
        return float(losses.sum())

    logits = model.forward(x)
    _, grad_logits = softmax_xent(logits, targets)
    grads = model.backward(grad_logits)
    worst = 0.0
    for name, tensor in model.parameters():
        numeric = central_diff(loss, tensor)
        worst = max(worst, max_rel_error(grads[name], numeric))
    return worst


_CHECKS = (
    ("conv1d", check_conv),
    ("pooled_conv", check_pooled_conv),
    ("relu", check_relu),
    ("maxpool1d", check_maxpool),
    ("fully_connected", check_fc),
    ("softmax_xent", check_softmax),
    ("full_model", check_full_model),
)


def run_gradcheck(seed: int, n_seeds: int) -> list:
    """Worst relative error per check over seeds ``seed`` .. ``seed + n_seeds - 1``."""
    rows = []
    for name, fn in _CHECKS:
        worst = max(fn(seed + i) for i in range(n_seeds))
        rows.append(CheckRow(name=name, max_rel_error=worst))
    return rows
