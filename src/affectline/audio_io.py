"""Audio decoding and corpus scanning.

Decodes RIFF/WAVE PCM files into a canonical representation (mono,
16 kHz, float amplitudes in [-1, 1]) and scans RAVDESS-style trees
into labeled records. Only uncompressed WAV is supported: 8/16/24-bit
integer and 32-bit float, one or two channels, any input rate.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

PIPELINE_SAMPLE_RATE = 16000
MIN_SAMPLE_RATE, MAX_SAMPLE_RATE = 1000, 384000  # accepted WAV header rates

# Canonical class set, index 0..5. All label arrays, logits, confusion
# matrices and report rows follow this ordering.
EMOTIONS = ("neutral", "calm", "happy", "sad", "angry", "fearful")
EMOTION_INDEX = {name: i for i, name in enumerate(EMOTIONS)}

# The training corpus is RAVDESS's female actors, a stand-in for the
# mothers' voices the model later classifies, in these six emotions, speech
# and song (``scan_corpus``); ``split_dataset`` trains on this share of each
# class and tests on the rest.
TRAIN_FRACTION = 0.8

# Dataset codes 07/08 exist but fall outside the 6-class task.
_OUT_OF_SCOPE_EMOTIONS = {"07": "disgust", "08": "surprised"}

_MODALITIES = {"01": "audio_video", "02": "video_only", "03": "audio_only"}
_VOCAL_CHANNELS = {"01": "speech", "02": "song"}
_INTENSITIES = {"01": "normal", "02": "strong"}


class AudioDecodeError(DataError):
    """Base class for per-file decode failures."""


class UnreadableFileError(AudioDecodeError):
    """File missing, unreadable, or not a RIFF/WAVE container."""


class UnsupportedEncodingError(AudioDecodeError):
    """WAV encoding outside the supported PCM subset."""


class EmptyAudioError(AudioDecodeError):
    """Decoded audio contains zero samples."""


class MalformedNameError(DataError):
    """Filename does not follow the 7-field hyphenated convention."""


class OutOfScopeEmotionError(DataError):
    """Valid dataset filename whose emotion code is outside the 6-class set."""


class CorpusEmptyError(DataError):
    """A corpus scan or decode produced no usable records."""


@dataclass(frozen=True)
class RavdessMeta:
    """Decoded fields of one RAVDESS filename."""

    modality: str
    vocal_channel: str
    emotion: str
    intensity: str
    statement: int
    repetition: int
    actor: int

    @property
    def sex(self) -> str:
        return "female" if self.actor % 2 == 0 else "male"


# ---------------------------------------------------------------------------
# WAV decoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WavChunks:
    """The ``fmt `` chunk body of one WAV file and the leading bytes of its
    ``data`` chunk, as ``read_chunks`` read them."""

    path: str | os.PathLike
    fmt: bytes
    data: bytes  # the whole chunk, or the frames the first max_samples outputs read
    max_samples: int | None


def _whole_frames(data: bytes, width: int) -> bytes:
    return data[: len(data) - len(data) % width]


def _parse_fmt(fmt: bytes, path: str):
    """(channels, rate, bits) of a ``fmt `` body, each checked before any
    sample is read; 32 bits are IEEE float, fewer integer PCM."""
    if len(fmt) < 16:
        raise UnreadableFileError(f"{path}: truncated fmt chunk")
    fmt_code, n_channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if fmt_code == 0xFFFE and len(fmt) >= 40:  # WAVE_FORMAT_EXTENSIBLE
        (fmt_code,) = struct.unpack_from("<H", fmt, 24)
    if n_channels not in (1, 2):
        raise UnsupportedEncodingError(f"{path}: {n_channels} channels (only 1-2 supported)")
    if not MIN_SAMPLE_RATE <= rate <= MAX_SAMPLE_RATE:
        # the resampler's filter grows with the rate: refuse a corrupt header
        # before it asks for gigabytes
        raise UnsupportedEncodingError(
            f"{path}: sample rate {rate} Hz outside {MIN_SAMPLE_RATE}-{MAX_SAMPLE_RATE}")
    if fmt_code == 1 and bits not in (8, 16, 24):
        raise UnsupportedEncodingError(f"{path}: {bits}-bit integer PCM is not supported")
    if fmt_code == 3 and bits != 32:
        raise UnsupportedEncodingError(f"{path}: {bits}-bit float PCM is not supported")
    if fmt_code not in (1, 3):
        raise UnsupportedEncodingError(f"{path}: WAV format code {fmt_code} is not supported")
    return n_channels, rate, bits


def _decode_pcm(data: bytes, bits: int, path: str) -> np.ndarray:
    """Float64 samples of little-endian PCM ``data``, decoded into one array scaled in place."""
    if bits == 8:
        x = np.frombuffer(data, dtype=np.uint8).astype(np.float64)
        x -= 128.0
    elif bits == 16:
        x = np.frombuffer(_whole_frames(data, 2), dtype="<i2").astype(np.float64)
    elif bits == 24:
        # each 3-byte sample in the top bytes of an int32, shifted back down with its sign
        word = np.zeros((len(data) // 3, 4), dtype=np.uint8)
        word[:, 1:] = np.frombuffer(_whole_frames(data, 3), dtype=np.uint8).reshape(-1, 3)
        x = (word.view("<i4")[:, 0] >> 8).astype(np.float64)
    else:
        x = np.frombuffer(_whole_frames(data, 4), dtype="<f4").astype(np.float64)  # IEEE float
        if not np.isfinite(x).all():
            raise UnsupportedEncodingError(f"{path}: NaN or infinite float samples")
        return np.clip(x, -1.0, 1.0, out=x)
    x /= float(1 << (bits - 1))
    return x


def _input_frames(n_out: int, sr_in: int) -> int:
    """Input frames that outputs 0..n_out-1 of ``resample`` read: output
    r*len(starts) + j reads input up to index r*chunk + starts[j] + pad."""
    if sr_in == PIPELINE_SAMPLE_RATE:
        return n_out
    pad, chunk, starts = _plan(sr_in)[:3]
    r, j = divmod(n_out - 1, len(starts))
    return r * chunk + int(starts[j]) + pad + 1


def read_chunks(path, max_samples: int | None = None, start: int = 0) -> WavChunks:
    """The ``fmt `` body and ``data`` bytes of the WAV file at ``path``.

    The reader seeks from chunk header to chunk header (the first ``fmt ``
    and the first ``data`` chunk win; a size past the end of the file
    keeps the bytes there are) and checks the format before it reads any
    sample. It skips ``start * rate // PIPELINE_SAMPLE_RATE`` whole input
    frames (``start`` counts samples at ``PIPELINE_SAMPLE_RATE``), then with
    ``max_samples`` reads only the input frames that the first
    ``max_samples`` samples at ``PIPELINE_SAMPLE_RATE`` depend on.
    Raises UnreadableFileError or UnsupportedEncodingError as ``read_wav``.
    """
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            head = f.read(12)
            if len(head) < 12 or head[:4] != b"RIFF" or head[8:] != b"WAVE":
                raise UnreadableFileError(f"{path}: not a RIFF/WAVE file")
            spans = {}  # chunk id -> (offset, size) of its body
            pos = 12
            while pos + 8 <= size and len(spans) < 2:
                f.seek(pos)
                cid, n = struct.unpack("<4sI", f.read(8))
                if cid in (b"fmt ", b"data") and cid not in spans:
                    spans[cid] = (pos + 8, min(n, size - pos - 8))
                pos += 8 + n + (n & 1)  # chunks are word-aligned
            if len(spans) < 2:
                raise UnreadableFileError(f"{path}: missing fmt or data chunk")
            f.seek(spans[b"fmt "][0])
            fmt = f.read(spans[b"fmt "][1])
            n_channels, rate, bits = _parse_fmt(fmt, path)
            offset, n = spans[b"data"]
            frame = n_channels * (bits // 8)
            skip = min(n, start * rate // PIPELINE_SAMPLE_RATE * frame)
            offset, n = offset + skip, n - skip
            if max_samples is not None and n:
                n = min(n, _input_frames(max_samples, rate) * frame)
            f.seek(offset)
            data = f.read(n)
    except (OSError, ValueError, struct.error) as exc:
        # ValueError: NUL byte in the path; struct.error: a file cut short as it is read
        raise UnreadableFileError(f"{path}: {exc}") from exc
    return WavChunks(path, fmt, data, max_samples)


def read_wav(path, max_samples: int | None = None, start: int = 0) -> np.ndarray:
    """Decode a PCM WAV file into mono float64 samples at ``PIPELINE_SAMPLE_RATE``,
    clipped to [-1, 1] and read-only.

    With ``start``, the file is decoded as if it were cut at input frame
    ``start * rate // PIPELINE_SAMPLE_RATE``. With ``max_samples``, only the
    input frames the first ``max_samples`` output samples depend on are
    read, and those samples are returned: bit-equal to the first
    ``max_samples`` samples of the whole decode. Samples outside that are
    not read, so they are not checked either. ``path`` may instead be the
    WavChunks that ``read_chunks`` read, which are decoded to the bound
    they were read with. Stereo input is downmixed by channel average.
    Rate conversion uses a windowed-sinc filter. Raises UnreadableFileError,
    UnsupportedEncodingError (also for NaN/Inf float samples read and header
    rates outside MIN_SAMPLE_RATE..MAX_SAMPLE_RATE) or EmptyAudioError.
    """
    wav = path if isinstance(path, WavChunks) else read_chunks(path, max_samples, start)
    n_channels, rate, bits = _parse_fmt(wav.fmt, wav.path)
    samples = _decode_pcm(wav.data, bits, wav.path)
    if n_channels == 2:
        samples = samples[: len(samples) - len(samples) % 2]
        samples = samples.reshape(-1, 2).mean(axis=1)
    if len(samples) == 0:
        raise EmptyAudioError(f"{wav.path}: zero-length audio")

    if rate != PIPELINE_SAMPLE_RATE:
        samples = resample(samples, rate)
        if len(samples) == 0:
            raise EmptyAudioError(f"{wav.path}: zero-length audio after resampling")
    samples = np.clip(samples[:wav.max_samples], -1.0, 1.0)
    samples.setflags(write=False)
    return samples


def write_wav(path, samples: np.ndarray) -> None:
    """Write mono float samples in [-1, 1] as 16-bit PCM at ``PIPELINE_SAMPLE_RATE``;
    ValueError on NaN or inf."""
    x = np.asarray(samples, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: cannot write non-finite samples")
    q = np.clip(np.rint(x * 32767.0), -32768, 32767)
    data = q.astype("<i2").tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, PIPELINE_SAMPLE_RATE,
                                 PIPELINE_SAMPLE_RATE * 2, 2, 16)
    hdr += b"data" + struct.pack("<I", len(data))
    Path(path).write_bytes(hdr + data)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

_SINC_ZEROS = 32
_KAISER_BETA = 8.6
# Most values in a cached phase matrix or column-tap table: a co-prime rate
# pair such as 95999 -> 16000 Hz has 16000 phases of 387 taps each.
_MAX_TAPS = 1 << 21
# Most values in one column block of the phase matrix: 8, 22.05, 24, 32, 44.1,
# 48, 96 and 384 kHz into 16 kHz each fit in one block.
_BLOCK_VALUES = 1 << 18
# Outputs of about one GEMM: each takes max(1, _BATCH_OUTPUTS // outputs per
# row) rows of one parity, 126 at 48 kHz and 51 at 44.1 kHz.
_BATCH_OUTPUTS = 1 << 13


def _tap_values(frac: np.ndarray, offsets: np.ndarray, scale: float,
                half_width: float) -> np.ndarray:
    """Kaiser-windowed sinc taps at distances frac[:, None] - offsets."""
    t = frac[:, None] - offsets[None, :]
    u = t / half_width
    inside = np.abs(u) < 1.0
    window = np.where(inside,
                      np.i0(_KAISER_BETA * np.sqrt(np.clip(1.0 - u * u, 0.0, 1.0))),
                      0.0) / np.i0(_KAISER_BETA)
    return scale * np.sinc(scale * t) * window


@functools.lru_cache(maxsize=8)
def _plan(sr_in: int):
    """(pad, chunk, starts, blocks, block, matrices) of the GEMM resampler.

    The rates give up = PIPELINE_SAMPLE_RATE/gcd phases. A row holds G*up
    outputs, G = ceil((taps-1)/down) input periods, and reads its own ``chunk =
    G*down`` input samples and the next chunk: its output j starts its
    window ``starts[j]`` samples into its chunk, with the taps of phase
    ``fracs[j] * up``. ``blocks`` splits the columns into (c0, c1) ranges whose
    phase-matrix block (the input samples the columns touch x the columns)
    holds about _BLOCK_VALUES values or fewer; ``block(c0, c1)`` builds
    one. ``matrices`` holds every block if they total _MAX_TAPS values or
    fewer; ``kept``, every column's taps if they fit in _MAX_TAPS values.
    """
    g = np.gcd(sr_in, PIPELINE_SAMPLE_RATE)
    up, down = PIPELINE_SAMPLE_RATE // g, sr_in // g
    scale = min(1.0, PIPELINE_SAMPLE_RATE / sr_in)  # anti-alias cutoff relative to input rate
    half_width = _SINC_ZEROS / scale
    pad = int(np.ceil(half_width)) + 1
    offsets = np.arange(-pad, pad + 1)
    n_taps = len(offsets)
    periods = -(-(n_taps - 1) // down)
    j = np.arange(periods * up)
    starts, fracs = (j * down) // up, (j * down) % up / up
    cols = len(j)
    while cols > 1 and (cols * down // up + n_taps) * cols > _BLOCK_VALUES:
        cols //= 2
    blocks = [(c0, min(c0 + cols, len(j))) for c0 in range(0, len(j), cols)]
    kept = _tap_values(fracs, offsets, scale, half_width) if len(j) * n_taps <= _MAX_TAPS else None

    def block(c0: int, c1: int) -> np.ndarray:
        """Column j holds the taps of fracs[j] from row starts[j] - starts[c0]."""
        taps = (kept[c0:c1] if kept is not None
                else _tap_values(fracs[c0:c1], offsets, scale, half_width))
        w = np.zeros((c1 - c0, starts[c1 - 1] - starts[c0] + n_taps))
        np.put_along_axis(w, (starts[c0:c1] - starts[c0])[:, None] + np.arange(n_taps), taps,
                          axis=1)
        return w.T

    size = sum((starts[c1 - 1] - starts[c0] + n_taps) * (c1 - c0) for c0, c1 in blocks)
    matrices = [block(c0, c1) for c0, c1 in blocks] if size <= _MAX_TAPS else None
    return pad, periods * down, starts, blocks, block, matrices


def resample(x: np.ndarray, sr_in: int) -> np.ndarray:
    """Convert ``x`` from ``sr_in`` to ``PIPELINE_SAMPLE_RATE`` with a
    Kaiser-windowed sinc filter (beta 8.6, 32 zero crossings per side at the
    lower of the two rates).

    The filter runs as BLAS GEMMs. The zero-padded input is cut into
    chunks of D = G*down samples, G = ceil((taps-1)/down) input periods,
    and output row r (G*up outputs) reads only chunks r and r+1, so rows
    0, 2, ... and rows 1, 3, ... are each one reshape of the input times W,
    the banded phase matrix (input sample by output column, each column
    holding its phase's taps from its window start). 48 -> 16 kHz: 65
    outputs of 195 taps per 195-sample chunk. Each GEMM takes one batch of
    rows of one parity, the last batch padded with zero rows, so every
    GEMM of a rate has the same shape: BLAS may round a row by the row
    count of its GEMM, and a fixed count makes an output independent of
    the length of the input past what it reads. Wide rows (16000 outputs at
    95999 Hz) run as column blocks of W over only the input samples their
    columns touch. _plan caches W, else every column's taps, else nothing
    for an input rate; each way gives the same output.
    """
    x = np.asarray(x, dtype=np.float64)
    if sr_in == PIPELINE_SAMPLE_RATE:
        return x.copy()
    n_out = int(round(len(x) * PIPELINE_SAMPLE_RATE / sr_in))
    if n_out == 0:
        return np.zeros(0)

    pad, chunk, starts, blocks, block, matrices = _plan(sr_in)
    batch = max(1, _BATCH_OUTPUTS // len(starts))  # rows of one parity per GEMM
    rows = -(-n_out // (2 * batch * len(starts))) * 2 * batch
    xp = np.zeros((rows + 2) * chunk)  # holds x: rows*chunk > len(x) - chunk, chunk >= 2*pad
    xp[pad:pad + len(x)] = x
    out = np.empty((rows, len(starts)))
    for i, (c0, c1) in enumerate(blocks):
        if c0 >= n_out:  # one short row: later columns hold no output
            break
        w = matrices[i] if matrices is not None else block(c0, c1)
        k = starts[c0]
        for r in range(0, rows, 2 * batch):
            for parity in (0, 1):  # rows r, r+2, ... and r+1, r+3, ...: disjoint 2-chunk spans
                src = xp[k + (r + parity) * chunk:k + (r + parity + 2 * batch) * chunk]
                np.matmul(src.reshape(batch, 2 * chunk)[:, :len(w)], w,
                          out=out[r + parity:r + 2 * batch:2, c0:c1])
    return out.reshape(-1)[:n_out]


# ---------------------------------------------------------------------------
# RAVDESS naming
# ---------------------------------------------------------------------------

def parse_ravdess_name(filename: str) -> RavdessMeta:
    """Decode the 7-field hyphenated RAVDESS basename.

    Field order: modality, vocal channel, emotion, intensity, statement,
    repetition, actor. Emotion codes 01..06 map onto the canonical class
    list; 07/08 (disgust, surprised) raise OutOfScopeEmotionError.
    """
    name = Path(filename).name
    if not name.endswith(".wav"):
        raise MalformedNameError(f"{name}: missing .wav suffix")
    fields = name[:-4].split("-")
    if len(fields) != 7 or any(len(f) != 2 or not f.isdigit() for f in fields):
        raise MalformedNameError(f"{name}: expected 7 two-digit hyphenated fields")
    mod, voc, emo, inten, stmt, rep, actor = fields
    if emo in _OUT_OF_SCOPE_EMOTIONS:
        raise OutOfScopeEmotionError(
            f"{name}: emotion {_OUT_OF_SCOPE_EMOTIONS[emo]!r} is outside the 6-class set"
        )
    if mod not in _MODALITIES:
        raise MalformedNameError(f"{name}: bad modality code {mod}")
    if voc not in _VOCAL_CHANNELS:
        raise MalformedNameError(f"{name}: bad vocal-channel code {voc}")
    if emo not in {"01", "02", "03", "04", "05", "06"}:
        raise MalformedNameError(f"{name}: bad emotion code {emo}")
    if inten not in _INTENSITIES:
        raise MalformedNameError(f"{name}: bad intensity code {inten}")
    if stmt not in {"01", "02"} or rep not in {"01", "02"}:
        raise MalformedNameError(f"{name}: bad statement/repetition code")
    actor_id = int(actor)
    if not 1 <= actor_id <= 24:
        raise MalformedNameError(f"{name}: actor id {actor} outside 01..24")
    return RavdessMeta(
        modality=_MODALITIES[mod],
        vocal_channel=_VOCAL_CHANNELS[voc],
        emotion=EMOTIONS[int(emo) - 1],
        intensity=_INTENSITIES[inten],
        statement=int(stmt),
        repetition=int(rep),
        actor=actor_id,
    )


# ---------------------------------------------------------------------------
# Corpus scanning
# ---------------------------------------------------------------------------

def scan_corpus(root) -> list:
    """Recursively collect the (path, RavdessMeta) records of the training
    corpus: the female actors' clips of the six emotions, speech and song.

    Files whose names do not parse (including out-of-scope emotion codes)
    are not corpus records and are skipped, and so are male actors' clips.
    Order is lexicographic by path so two scans of the same tree are
    identical.
    """
    root = Path(root)
    if not root.is_dir():
        raise CorpusEmptyError(f"corpus root {root} is not a directory")
    records = []
    for path in sorted(root.rglob("*.wav"), key=lambda p: str(p)):
        try:
            meta = parse_ravdess_name(path.name)
        except (MalformedNameError, OutOfScopeEmotionError):
            continue
        if meta.sex == "female":
            records.append((path, meta))
    return records

