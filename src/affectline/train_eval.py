"""Dataset splitting, the training loop, metrics, and persistence glue.

Corpus records are (audio path, emotion label) pairs. Feature matrices
are extracted once per file (optionally disk-cached, keyed by content
and configuration hashes) and normalization statistics come from the
training split only.

Train, evaluate and session classification share one path to the model:
raw matrices from ``extract_features`` (or ``assemble_features``),
normalized only in ``_to_batch_array``, then ``predict_logits``;
``evaluate`` and ``session`` take it under a checkpoint, whose profile
and model ``predict_labels(ckpt, matrices)`` reads.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .audio_io import (EMOTION_INDEX, EMOTIONS, TRAIN_FRACTION, AudioDecodeError, read_chunks,
                       read_wav)
from .checkpoint import Checkpoint, FeatureSettings, write_replacing
from .errors import ConfigError, DataError, DivergenceError
from .features import (FEATURE_CODE_VERSION, N_FEATURE_ROWS, FeatureMatrix, assemble_features,
                       compute_normalization, matrix_samples)
from .nn import Model, ModelSpec, RmsProp, softmax_xent

__all__ = [
    "TrainConfig", "EpochStats", "Metrics", "split_dataset", "train", "evaluate",
    "extract_all", "metrics_to_csv", "confusion_to_csv", "default_cache_dir",
]


class SplitError(DataError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    batch_size: int = 25
    lr: float = 1e-4
    seed: int = 42
    early_stop_train_acc: float = 0.0  # stop once an epoch's train_acc reaches it; 0 disables

    def __post_init__(self):
        if not 0.0 <= self.lr < float("inf"):  # also refuses NaN
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not 0.0 <= self.early_stop_train_acc <= 1.0:  # also refuses NaN
            raise ConfigError(f"early_stop_train_acc must be in [0, 1], got "
                              f"{self.early_stop_train_acc}")


@dataclass
class EpochStats:
    epoch: int
    train_acc: float  # of each training row's logits in its step, before the update
    test_acc: float  # of the model as the epoch ends
    train_loss: float


@dataclass
class Metrics:
    epochs: list = field(default_factory=list)
    confusion: np.ndarray = None  # 6x6 int, rows = true class
    n_train: int = 0
    n_test: int = 0
    failures: list = field(default_factory=list)  # (path, reason) of undecodable records

    @property
    def accuracy(self) -> float:
        total = int(self.confusion.sum())
        return float(np.trace(self.confusion)) / total if total else 0.0


def _labels_array(records) -> np.ndarray:
    """Class indices of (path, label) records; DataError naming a label outside EMOTIONS."""
    try:
        return np.array([EMOTION_INDEX[label] for _, label in records], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"label {exc.args[0]!r} is not one of {', '.join(EMOTIONS)}") from None


def split_dataset(records, config: TrainConfig):
    """Stratified train/test split of (path, label) records.

    Per class, max(1, round((1 - TRAIN_FRACTION) * n)) records go to test,
    where ``audio_io.TRAIN_FRACTION`` is 0.8, so every class is tested. The
    split is a pure function of (records order, seed); both sides preserve
    the input's relative ordering. SplitError on no records or a class with
    fewer than 2; DataError naming a label outside ``EMOTIONS``.
    """
    records = list(records)
    if not records:
        raise SplitError("no records to split")
    rng = np.random.default_rng(config.seed)
    test_idx = set()
    by_class = {}
    for i, cls in enumerate(_labels_array(records)):
        by_class.setdefault(int(cls), []).append(i)
    for cls, idxs in by_class.items():
        if len(idxs) < 2:
            raise SplitError(f"class {EMOTIONS[cls]!r} has {len(idxs)} record(s); need >= 2")
    for cls in sorted(by_class):
        idxs = by_class[cls]
        n_test = max(1, round(len(idxs) * (1.0 - TRAIN_FRACTION)))
        perm = rng.permutation(len(idxs))
        test_idx.update(idxs[p] for p in perm[:n_test])
    train = [r for i, r in enumerate(records) if i not in test_idx]
    test = [r for i, r in enumerate(records) if i in test_idx]
    return train, test


# ---------------------------------------------------------------------------
# Feature extraction with content-addressed caching
# ---------------------------------------------------------------------------

def default_cache_dir() -> Path:
    env = os.environ.get("AFFECTLINE_CACHE_DIR")
    return Path(env) if env else Path.home() / ".cache" / "affectline"


@functools.lru_cache(maxsize=8)
def _settings_token(code_version: int, settings: FeatureSettings) -> str:
    key = {"code_version": code_version, **asdict(settings)}
    blob = json.dumps(key, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# A cache entry is one raw record: _ENTRY_HEADER (magic, CRC32 of every byte
# after the CRC field, t_fixed, n_valid_frames), then the (41, t_fixed) values
# as little-endian float32, row-major.
_ENTRY_MAGIC = b"AFM1"
_ENTRY_HEADER = struct.Struct("<4sIII")


def _read_entry(path: Path, t_fixed: int) -> FeatureMatrix | None:
    """The matrix stored at ``path``; None when the entry is missing or damaged."""
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    if len(raw) != _ENTRY_HEADER.size + N_FEATURE_ROWS * t_fixed * 4:
        return None
    magic, crc, t, n_valid = _ENTRY_HEADER.unpack_from(raw)
    if (magic != _ENTRY_MAGIC or t != t_fixed or n_valid > t
            or crc != zlib.crc32(memoryview(raw)[8:])):
        return None
    values = np.frombuffer(raw, dtype="<f4", offset=_ENTRY_HEADER.size)
    return FeatureMatrix(values=values.reshape(N_FEATURE_ROWS, t), n_valid_frames=n_valid)


def _write_entry(path: Path, fm: FeatureMatrix) -> None:
    t, n_valid = fm.values.shape[1], fm.n_valid_frames
    values = fm.values.astype("<f4", copy=False).tobytes()
    crc = zlib.crc32(values, zlib.crc32(struct.pack("<II", t, n_valid)))
    record = _ENTRY_HEADER.pack(_ENTRY_MAGIC, crc, t, n_valid) + values
    try:
        write_replacing(path, record)  # runs that share a cache never read half an entry
    except FileNotFoundError:  # the cache directory's first entry
        path.parent.mkdir(parents=True, exist_ok=True)
        write_replacing(path, record)


def extract_features(path, settings: FeatureSettings,
                     cache_dir: Path | None = None) -> FeatureMatrix:
    """Extract the raw (unnormalized) feature matrix for one file.

    Only the WAV's ``fmt `` chunk and the data frames that the matrix's
    ``matrix_samples(t_fixed)`` samples depend on are read. With
    ``cache_dir`` set, results are stored keyed by the sha256 of those
    bytes (the length-prefixed ``fmt `` body, then the data prefix) and a
    hash of the settings and feature code version; normalization always
    happens downstream so the cache is split-independent. The bytes are
    read once: the bytes hashed for the key are the bytes decoded. An entry
    that cannot be read back is a miss and gets overwritten. The values
    are read-only.
    """
    bound = matrix_samples(settings.t_fixed)
    if cache_dir is None:
        return assemble_features(read_wav(path, bound), settings.t_fixed)
    wav = read_chunks(path, bound)
    digest = hashlib.sha256(struct.pack("<I", len(wav.fmt)) + wav.fmt)
    digest.update(wav.data)
    token = _settings_token(FEATURE_CODE_VERSION, settings)
    cached = Path(cache_dir) / f"{digest.hexdigest()[:20]}-{token}.afm"
    fm = _read_entry(cached, settings.t_fixed)
    if fm is None:
        fm = assemble_features(read_wav(wav), settings.t_fixed)
        _write_entry(cached, fm)
    return fm


def extract_all(records, settings: FeatureSettings, cache_dir=None, jobs: int = 1):
    """Feature matrices for (path, label) records, extracted in the calling
    process in record order; ``jobs`` must be 1.

    Returns (kept records, matrices, failures); decode failures are
    collected rather than fatal.
    """
    if jobs != 1:
        raise ConfigError(f"jobs must be 1 (extraction runs in one process), got {jobs!r}")
    kept, matrices, failures = [], [], []
    for record in records:
        try:
            matrices.append(extract_features(record[0], settings, cache_dir))
        except AudioDecodeError as exc:
            failures.append((record[0], str(exc)))
        else:
            kept.append(record)
    return kept, matrices, failures


def _decode_failures_error(message: str, failures) -> DataError:
    """DataError ``message``, naming each failed path and its reason on a line of its own."""
    return DataError("\n  ".join([f"{message} ({len(failures)}):",
                                  *(reason for _, reason in failures)]))


def _to_batch_array(matrices, profile) -> np.ndarray:
    """(N, 41, T) float32 model input, the one place a profile is applied: each
    matrix's valid columns as ``(values - mean) / std`` in float64 (a zero std
    counts as 1), cast into its row of a zeroed batch; no float64 stack is held.

    DataError when a normalized value overflows float32, as with a
    normalization std far below the features' scale, instead of casting
    it to inf (whose logits would predict class 0 silently).
    """
    out = np.zeros((len(matrices), *matrices[0].values.shape), dtype=np.float32)
    mean, std = profile.mean[:, None], np.where(profile.std > 0, profile.std, 1.0)[:, None]
    with np.errstate(over="ignore"):  # an overflow is reported below
        for row, m in zip(out, matrices):
            values = (m.values[:, :m.n_valid_frames] - mean) / std
            row[:, :m.n_valid_frames] = values
            if not np.isfinite(row).all():
                raise DataError(f"normalized features overflow float32 (|value| up to "
                                f"{float(np.abs(values).max()):.4g}): the normalization mean "
                                "or std does not fit these features")
    return out


PREDICT_ROWS = 16  # rows per forward in predict_logits


def predict_logits(model: Model, x: np.ndarray) -> np.ndarray:
    """Logits of every row of ``x``, forwarded ``PREDICT_ROWS`` rows at a time.

    A row's logits do not depend on the rows forwarded with it wherever
    BLAS rounding does not (see ``Model``); ``PREDICT_ROWS`` bounds the
    model's activation arena, which keeps the largest batch it has seen:
    about 1.1 MB a row at the default spec, each layer's zero-padded input
    (a backward adds two gradient buffers, 0.46 MB a row).
    """
    chunks = [model.forward(x[i:i + PREDICT_ROWS]) for i in range(0, len(x), PREDICT_ROWS)]
    return np.concatenate(chunks) if chunks else np.zeros((0, len(EMOTIONS)))


def predict_labels(ckpt: Checkpoint, matrices) -> np.ndarray:
    """Class index of each raw matrix: ``_to_batch_array``, ``predict_logits``, argmax."""
    return predict_logits(ckpt.model, _to_batch_array(matrices, ckpt.normalization)).argmax(1)


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray,
                     n_classes: int = len(EMOTIONS)) -> np.ndarray:
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def train(records, model_spec: ModelSpec, config: TrainConfig,
          settings: FeatureSettings = FeatureSettings(),
          cache_dir=None, jobs: int = 1):
    """Train a model on (path, label) records; returns (Checkpoint, Metrics).

    Splits internally, extracts features, computes the normalization
    profile on the training split, then runs epochs x ceil(N/batch)
    RMSProp steps, forwarding each row once per epoch (see ``EpochStats``).
    A non-finite loss aborts with DivergenceError naming the epoch and batch,
    and a split that decode failures leave empty with DataError naming every
    failure. ``jobs`` must be 1, as in ``extract_all``.
    """
    train_recs, test_recs = split_dataset(records, config)
    train_recs, train_mats, train_fail = extract_all(train_recs, settings, cache_dir, jobs)
    test_recs, test_mats, test_fail = extract_all(test_recs, settings, cache_dir, jobs)
    for name, kept in (("training", train_recs), ("test", test_recs)):
        if not kept:
            raise _decode_failures_error(f"{name} split is empty after decode failures",
                                         train_fail + test_fail)

    profile = compute_normalization(train_mats)
    x_train = _to_batch_array(train_mats, profile)
    y_train = _labels_array(train_recs)
    x_test = _to_batch_array(test_mats, profile)
    y_test = _labels_array(test_recs)
    del train_mats, test_mats  # the epochs read only the float32 batches

    model = Model(model_spec, seed=np.random.SeedSequence([config.seed, 101]))
    optimizer = RmsProp(lr=config.lr)
    shuffle_rng = np.random.default_rng([config.seed, 202])

    metrics = Metrics(n_train=len(train_recs), n_test=len(test_recs),
                      failures=train_fail + test_fail)
    n = len(x_train)
    test_pred = None  # of the model as it ends the last epoch run
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum, correct = 0.0, 0
        for batch_idx, start in enumerate(range(0, n, config.batch_size)):
            sel = order[start:start + config.batch_size]
            logits = model.forward(x_train[sel])
            correct += int(np.count_nonzero(logits.argmax(axis=1) == y_train[sel]))
            losses, grad = softmax_xent(logits, y_train[sel])
            mean_loss = float(losses.mean())
            if not np.isfinite(mean_loss):
                raise DivergenceError(epoch, batch_idx, mean_loss)
            grads = model.backward((grad / len(sel)).astype(np.float32))
            optimizer.step(model.parameters(), grads)
            loss_sum += mean_loss * len(sel)
        train_acc = correct / n  # as Keras' fit reports it
        test_pred = predict_logits(model, x_test).argmax(axis=1)
        test_acc = float(np.mean(test_pred == y_test))
        metrics.epochs.append(EpochStats(epoch, train_acc, test_acc, loss_sum / n))
        if config.early_stop_train_acc and train_acc >= config.early_stop_train_acc:
            break

    if test_pred is None:  # no epoch ran
        test_pred = predict_logits(model, x_test).argmax(axis=1)
    metrics.confusion = confusion_matrix(y_test, test_pred)

    ckpt = Checkpoint(
        model_spec=model_spec,
        params={name: arr.copy() for name, arr in model.parameters()},
        opt_acc={name: acc.copy() for name, acc in optimizer.acc.items()},
        features=settings,
        normalization=profile,
        metadata={
            "seed": config.seed,
            "epochs_requested": config.epochs,
            "epochs_run": len(metrics.epochs),
            "batch_size": config.batch_size,
            "lr": config.lr,
            "n_train": len(train_recs),
            "n_test": len(test_recs),
            "decode_failures": len(train_fail) + len(test_fail),
            "final_train_acc": metrics.epochs[-1].train_acc if metrics.epochs else None,
            "final_test_acc": metrics.epochs[-1].test_acc if metrics.epochs else None,
        },
    )
    return ckpt, metrics


def evaluate(ckpt: Checkpoint, records, cache_dir=None, jobs: int = 1) -> Metrics:
    """Confusion matrix and accuracy of a checkpoint over (path, label) records.

    Features are extracted with the checkpoint's own settings. Records that
    fail to decode are left out and listed in ``failures``, so ``n_test``
    can be below the record count. An empty record list is an error rather
    than a NaN accuracy, and so is a label outside ``EMOTIONS`` or every
    record failing (the DataError names each failure).
    """
    records = list(records)
    if not records:
        raise DataError("no records to evaluate")
    _labels_array(records)  # a label outside EMOTIONS fails before any extraction
    kept, mats, failures = extract_all(records, ckpt.features, cache_dir, jobs)
    if not kept:
        raise _decode_failures_error("all records failed to decode", failures)
    y_pred = predict_labels(ckpt, mats)
    return Metrics(
        epochs=[],
        confusion=confusion_matrix(_labels_array(kept), y_pred),
        n_train=0,
        n_test=len(kept),
        failures=failures,
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def metrics_to_csv(metrics: Metrics) -> str:
    lines = ["epoch,train_acc,test_acc,train_loss"]
    for e in metrics.epochs:
        lines.append(f"{e.epoch},{e.train_acc:.6f},{e.test_acc:.6f},{e.train_loss:.6f}")
    return "\n".join(lines) + "\n"


def confusion_to_csv(cm: np.ndarray) -> str:
    lines = ["true_label," + ",".join(EMOTIONS)]
    for i, name in enumerate(EMOTIONS):
        lines.append(name + "," + ",".join(str(int(v)) for v in cm[i]))
    return "\n".join(lines) + "\n"
