"""Versioned binary model checkpoints.

Layout: magic ``AFL1``, little-endian uint32 header length, a UTF-8 JSON
header (architecture, feature settings, normalization profile, class
ordering, training metadata, tensor manifest), then every tensor as raw
little-endian float32 in manifest order: the model's parameters in
declaration order, then any RMSProp accumulators in the same order.
Save/load round-trips are bit-exact. Every checkpoint carries the
normalization profile of its training split; a ``null`` one is malformed.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .audio_io import EMOTIONS, PIPELINE_SAMPLE_RATE, TRAIN_FRACTION
from .errors import ConfigError, DataError
from .features import (DEFAULT_T_FIXED, DELTA_WINDOW, FRAME_LEN, HOP, LOG_FLOOR,
                       MAX_NORMALIZED, MAX_T_FIXED, N_FEATURE_ROWS, N_FFT, N_MELS, N_MFCC,
                       NormalizationProfile, check_sizes)
from .nn import KERNEL, PAD, RMSPROP_EPS, RMSPROP_RHO, Model, ModelSpec

MAGIC = b"AFL1"
FORMAT_VERSION = 1

# Keys that older checkpoint headers and config.txt files carry, each at
# the one value the pipeline now has fixed: stride-1 convolutions of one
# kernel size and padding, a global max pool, sinc resampling to 16 kHz,
# the feature front end of ``features`` (a Hamming window, 13 MFCCs; fmax
# 0 meant the Nyquist frequency), RMSProp's rho and eps, a stratified
# split and shuffled batches, and the training corpus and its split of
# ``audio_io`` (female actors, six emotions, speech and song), and the
# epoch count as the only stop: none on test accuracy (``patience``), none
# on train accuracy (``early_stop_train_acc``), as the paper fixes the
# epochs. Old headers also carry the model's input rows and class count.
# (Their ``in_frames`` must equal ``t_fixed``.) Old config.txt files carry
# ``jobs``, a count of extraction processes that never changed an output,
# so any integer >= 0 is dropped.
RETIRED_KEYS = {"stride": 1, "kernel": KERNEL, "pad": PAD, "pool_width": 0, "pool_stride": 0,
                "in_channels": N_FEATURE_ROWS, "n_classes": len(EMOTIONS),
                "resample_method": "sinc", "sample_rate_hz": PIPELINE_SAMPLE_RATE,
                "window": "hamming", "frame_len_samples": FRAME_LEN, "hop_samples": HOP,
                "n_fft": N_FFT, "n_mels": N_MELS, "fmin_hz": 0.0, "fmax_hz": 0.0,
                "log_floor": LOG_FLOOR, "n_coeffs": N_MFCC, "delta_window": DELTA_WINDOW,
                "rho": RMSPROP_RHO, "eps": RMSPROP_EPS,
                "stratified": True, "shuffle_each_epoch": True,
                "filter_sex": "female", "filter_emotions": ",".join(EMOTIONS),
                "vocal_channels": "speech,song", "split_ratio": TRAIN_FRACTION,
                "patience": 0, "early_stop_train_acc": 0.0, "jobs": 1}


def drop_retired(d: dict) -> dict:
    """``d`` without its retired keys; ConfigError naming a retired key that
    holds anything but its fixed value, of the same type (not 1.0 for 1),
    or a ``jobs`` that is not an integer >= 0."""
    for key, value in d.items():
        fixed = RETIRED_KEYS.get(key)
        if key == "jobs":
            if type(value) is not int or value < 0:
                raise ConfigError(f"jobs must be an integer >= 0, got {value!r}")
        elif key in RETIRED_KEYS and (type(value) is not type(fixed) or value != fixed):
            raise ConfigError(f"{key} is fixed at {fixed!r}, got {value!r}")
    return {k: v for k, v in d.items() if k not in RETIRED_KEYS}


@dataclass(frozen=True)
class FeatureSettings:
    """Everything needed to re-extract features exactly as at train time;
    the rest of the front end is fixed in ``features``."""

    t_fixed: int = DEFAULT_T_FIXED

    def __post_init__(self):
        check_sizes(t_fixed=self.t_fixed)
        if not 1 <= self.t_fixed <= MAX_T_FIXED:
            raise ConfigError(f"t_fixed must be 1..{MAX_T_FIXED}, got {self.t_fixed!r}")


@dataclass
class Checkpoint:
    model_spec: ModelSpec
    params: dict  # name -> float32 array, model declaration order
    opt_acc: dict  # RMSProp accumulators, same keys (may be empty)
    features: FeatureSettings
    normalization: NormalizationProfile  # of the training split; every checkpoint has one
    metadata: dict = None

    @functools.cached_property
    def model(self) -> Model:
        """The model holding ``params``, built on first use and kept, with its
        activation arena, for every later call. It only runs inference
        forwards, which keep no activation, so its arena is the one of a
        model that only infers (see ``nn._Arena``).
        Nothing in this package changes ``params`` after a checkpoint is made
        or loaded."""
        model = Model(self.model_spec)
        model.set_parameters(self.params)
        return model


def _tensor_items(ckpt: Checkpoint) -> list:
    items = list(ckpt.params.items())
    items += [(f"rmsprop.{k}", v) for k, v in ckpt.opt_acc.items()]
    return items


def write_replacing(path: Path, data: bytes) -> None:
    """Replace ``path`` by ``data`` through a temporary file; a failed write leaves it as it was."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_outputs(out_dir, texts: dict) -> list:
    """Write ``{name: text}`` as UTF-8 files in ``out_dir``, made if missing; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        write_replacing(out_dir / name, text.encode("utf-8"))
    return [out_dir / name for name in texts]


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    tensors = _tensor_items(ckpt)
    header = {
        "version": FORMAT_VERSION,
        "model_spec": asdict(ckpt.model_spec),
        "features": asdict(ckpt.features),
        "normalization": {"mean": ckpt.normalization.mean.tolist(),
                          "std": ckpt.normalization.std.tolist()},
        "class_order": list(EMOTIONS),
        "metadata": ckpt.metadata or {},
        "tensors": [{"name": n, "shape": list(v.shape)} for n, v in tensors],
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = b"".join(np.ascontiguousarray(v, dtype="<f4").tobytes() for _, v in tensors)
    write_replacing(Path(path), MAGIC + struct.pack("<I", len(head)) + head + body)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any unreadable, damaged or malformed file raises DataError."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise DataError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    if len(raw) < 8:
        raise DataError(f"{path}: header length field missing")
    (head_len,) = struct.unpack_from("<I", raw, 4)
    if len(raw) < 8 + head_len:
        raise DataError(f"{path}: expected {head_len} header bytes, got {len(raw) - 8}")
    try:
        header = json.loads(raw[8:8 + head_len].decode())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too many digits
        raise DataError(f"{path}: unreadable header: {exc}") from exc
    version = header.get("version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: format version {version!r}, expected {FORMAT_VERSION}")
    try:
        return _from_header(header, memoryview(raw)[8 + head_len:], path)
    except (LookupError, TypeError, ValueError, AttributeError, ArithmeticError,
            ConfigError) as exc:
        raise DataError(f"{path}: malformed header: {exc!r}") from exc


def _from_header(header: dict, body: memoryview, path) -> Checkpoint:
    if header["class_order"] != list(EMOTIONS):
        raise ConfigError(f"class_order must be {list(EMOTIONS)}, got {header['class_order']!r}")
    features = dict(header["features"])
    for section in ("frame", "mfcc"):  # nested sections of older headers
        features.update(features.pop(section, {}))
    settings = FeatureSettings(**drop_retired(features))
    spec = drop_retired(header["model_spec"])
    in_frames = spec.pop("in_frames", settings.t_fixed)  # in older headers
    if type(in_frames) is not int or in_frames != settings.t_fixed:
        raise ConfigError(f"in_frames must equal t_fixed {settings.t_fixed}, got {in_frames!r}")
    spec = ModelSpec(**{**spec, "conv_channels": tuple(spec["conv_channels"])})

    # the spec's parameters in model order, then optionally their accumulators
    entries = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
    shapes = spec.parameter_shapes()
    fits = list(shapes.items())
    if len(entries) > len(fits):
        fits += [("rmsprop." + name, shape) for name, shape in shapes.items()]
    for found, fit in itertools.zip_longest(entries, fits):
        if found != fit:
            raise DataError(f"{path}: tensors do not fit conv_channels "
                            f"{list(spec.conv_channels)}: found {found!r}, expected {fit!r}")
    counts = [int(np.prod(shape)) for _, shape in entries]
    if len(body) != 4 * sum(counts):
        raise DataError(f"{path}: expected {4 * sum(counts)} tensor bytes, got {len(body)}")
    starts = itertools.accumulate([0, *counts])
    arrays = [np.frombuffer(body, dtype="<f4", count=n, offset=4 * at).reshape(shape).copy()
              for (_, shape), n, at in zip(entries, counts, starts)]
    for (name, _), array in zip(entries, arrays):
        if not np.isfinite(array).all():
            raise DataError(f"{path}: tensor {name} holds a non-finite value")
    params, opt_acc = dict(zip(shapes, arrays)), dict(zip(shapes, arrays[len(shapes):]))

    norm = header["normalization"]
    if not isinstance(norm, dict):
        raise ConfigError(f"normalization must hold a mean and a std, got {norm!r}")
    stats = [np.asarray(norm[k], dtype=np.float64) for k in ("mean", "std")]
    if any(a.shape != (N_FEATURE_ROWS,) or not (np.abs(a) <= MAX_NORMALIZED).all()
           for a in stats):
        raise ConfigError(f"normalization mean and std must be {N_FEATURE_ROWS} finite numbers "
                          f"within float32's range (|x| <= {MAX_NORMALIZED:.4g})")
    return Checkpoint(model_spec=spec, params=params, opt_acc=opt_acc, features=settings,
                      normalization=NormalizationProfile(*stats),
                      metadata=header["metadata"])
