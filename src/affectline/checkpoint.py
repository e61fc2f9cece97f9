"""Versioned binary model checkpoints.

Layout: magic ``AFL1``, little-endian uint32 header length, a UTF-8 JSON
header (architecture, feature settings, normalization profile, class
ordering, training metadata, tensor manifest), then every tensor as raw
little-endian float32 in manifest order. Save/load round-trips are
bit-exact.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .audio_io import EMOTIONS, MAX_SAMPLE_RATE, MIN_SAMPLE_RATE, PIPELINE_SAMPLE_RATE
from .errors import ConfigError, DataError
from .features import (DEFAULT_T_FIXED, N_MFCC, FrameConfig, MfccConfig, NormalizationProfile,
                       check_sizes)
from .nn import Model, ModelSpec, ShapeError

MAGIC = b"AFL1"
FORMAT_VERSION = 1

# Keys that older checkpoint headers and config.txt files carry, each at
# the one value the pipeline now has fixed: stride-1 convolutions, a global
# max pool, sinc resampling, a Hamming window, 13 MFCCs, a stratified split
# and shuffled batches.
RETIRED_KEYS = {"stride": 1, "pool_width": 0, "pool_stride": 0,
                "resample_method": "sinc", "window": "hamming", "n_coeffs": N_MFCC,
                "stratified": True, "shuffle_each_epoch": True}


def drop_retired(d: dict) -> dict:
    """``d`` without its retired keys; ConfigError naming a retired key that
    holds anything but its fixed value, of the same type (not 1.0 for 1)."""
    for key, value in d.items():
        fixed = RETIRED_KEYS.get(key)
        if key in RETIRED_KEYS and (type(value) is not type(fixed) or value != fixed):
            raise ConfigError(f"{key} is fixed at {fixed!r}, got {value!r}")
    return {k: v for k, v in d.items() if k not in RETIRED_KEYS}


class CheckpointError(DataError):
    pass


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


@dataclass(frozen=True)
class FeatureSettings:
    """Everything needed to re-extract features exactly as at train time."""

    sample_rate_hz: int = PIPELINE_SAMPLE_RATE
    frame: FrameConfig = FrameConfig()
    mfcc: MfccConfig = MfccConfig()
    t_fixed: int = DEFAULT_T_FIXED

    def __post_init__(self):
        check_sizes(sample_rate_hz=self.sample_rate_hz, t_fixed=self.t_fixed)
        if not MIN_SAMPLE_RATE <= self.sample_rate_hz <= MAX_SAMPLE_RATE:
            raise ConfigError(f"sample_rate_hz must be within {MIN_SAMPLE_RATE}-"
                              f"{MAX_SAMPLE_RATE}, got {self.sample_rate_hz!r}")
        if self.t_fixed < 1:
            raise ConfigError(f"t_fixed must be >= 1, got {self.t_fixed!r}")


@dataclass
class Checkpoint:
    model_spec: ModelSpec
    params: dict  # name -> float32 array, model declaration order
    opt_acc: dict  # RMSProp accumulators, same keys (may be empty)
    features: FeatureSettings
    normalization: NormalizationProfile | None
    metadata: dict = None

    def build_model(self) -> Model:
        model = Model(self.model_spec)
        model.set_parameters(self.params)
        return model


def _tensor_items(ckpt: Checkpoint) -> list:
    items = list(ckpt.params.items())
    items += [(f"rmsprop.{k}", v) for k, v in ckpt.opt_acc.items()]
    return items


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    tensors = _tensor_items(ckpt)
    header = {
        "version": FORMAT_VERSION,
        "model_spec": asdict(ckpt.model_spec),
        "features": asdict(ckpt.features),
        "normalization": None if ckpt.normalization is None else {
            "mean": ckpt.normalization.mean.tolist(),
            "std": ckpt.normalization.std.tolist(),
        },
        "class_order": list(EMOTIONS),
        "metadata": ckpt.metadata or {},
        "tensors": [{"name": n, "shape": list(v.shape)} for n, v in tensors],
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = b"".join(np.ascontiguousarray(v, dtype="<f4").tobytes() for _, v in tensors)
    Path(path).write_bytes(MAGIC + struct.pack("<I", len(head)) + head + body)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any unreadable, damaged or malformed file raises CheckpointError."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    if len(raw) < 8:
        raise CheckpointTruncatedError(f"{path}: header length field missing")
    (head_len,) = struct.unpack_from("<I", raw, 4)
    if len(raw) < 8 + head_len:
        raise CheckpointTruncatedError(
            f"{path}: expected {head_len} header bytes, got {len(raw) - 8}"
        )
    try:
        header = json.loads(raw[8:8 + head_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    version = header.get("version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version!r}, expected {FORMAT_VERSION}"
        )
    try:
        return _from_header(header, memoryview(raw)[8 + head_len:], path)
    except (LookupError, TypeError, ValueError, AttributeError, ArithmeticError,
            ConfigError, ShapeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc!r}") from exc


def _from_header(header: dict, body: memoryview, path) -> Checkpoint:
    expected = sum(int(np.prod(t["shape"])) * 4 for t in header["tensors"])
    if len(body) != expected:
        raise CheckpointTruncatedError(
            f"{path}: expected {expected} tensor bytes, got {len(body)}"
        )

    params, opt_acc = {}, {}
    offset = 0
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape))
        arr = np.frombuffer(body, dtype="<f4", count=count, offset=offset)
        arr = arr.reshape(shape).copy()
        offset += count * 4
        name = entry["name"]
        if name.startswith("rmsprop."):
            opt_acc[name[len("rmsprop."):]] = arr
        else:
            params[name] = arr

    if header["class_order"] != list(EMOTIONS):
        raise ConfigError(f"class_order must be {list(EMOTIONS)}, got {header['class_order']!r}")
    norm = header["normalization"]
    profile = None if norm is None else NormalizationProfile(
        mean=np.asarray(norm["mean"], dtype=np.float64),
        std=np.asarray(norm["std"], dtype=np.float64),
    )
    spec = drop_retired(header["model_spec"])
    features = drop_retired(header["features"])
    return Checkpoint(
        model_spec=ModelSpec(**{**spec, "conv_channels": tuple(spec["conv_channels"])}),
        params=params,
        opt_acc=opt_acc,
        features=FeatureSettings(**{**features,
                                    "frame": FrameConfig(**drop_retired(features["frame"])),
                                    "mfcc": MfccConfig(**drop_retired(features["mfcc"]))}),
        normalization=profile,
        metadata=header["metadata"],
    )
