"""Audio decoding and corpus scanning.

Decodes RIFF/WAVE PCM files into a canonical representation (mono,
16 kHz, float amplitudes in [-1, 1]) and scans RAVDESS-style trees
into labeled records. Only uncompressed WAV is supported: 8/16/24-bit
integer and 32-bit float, one or two channels, any input rate.
"""

from __future__ import annotations

import functools
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
class AudioClip:
    """Mono waveform at the pipeline sample rate, amplitudes in [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int
    source_path: str

    def __post_init__(self):
        self.samples.setflags(write=False)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


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


@dataclass(frozen=True)
class CorpusFilter:
    """Record filter for corpus scans.

    ``sex`` of None accepts both; ``emotions`` and ``vocal_channels`` are
    sets of accepted values.
    """

    sex: str | None = "female"
    emotions: frozenset = frozenset(EMOTIONS)
    vocal_channels: frozenset = frozenset(_VOCAL_CHANNELS.values())

    def accepts(self, meta: RavdessMeta) -> bool:
        if self.sex is not None and meta.sex != self.sex:
            return False
        return meta.emotion in self.emotions and meta.vocal_channel in self.vocal_channels


# ---------------------------------------------------------------------------
# WAV decoding
# ---------------------------------------------------------------------------

def _parse_riff_chunks(raw: bytes, path: str):
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise UnreadableFileError(f"{path}: not a RIFF/WAVE file")
    chunks = {}
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + size]
        if cid not in chunks:  # first occurrence wins
            chunks[cid] = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    return chunks


def _whole_frames(data: bytes, width: int) -> bytes:
    return data[: len(data) - len(data) % width]


def _decode_pcm(data: bytes, fmt_code: int, bits: int, path: str) -> np.ndarray:
    if fmt_code == 1:  # integer PCM
        if bits == 8:
            x = np.frombuffer(data, dtype=np.uint8).astype(np.float64)
            return (x - 128.0) / 128.0
        if bits == 16:
            x = np.frombuffer(_whole_frames(data, 2), dtype="<i2").astype(np.float64)
            return x / 32768.0
        if bits == 24:
            b = np.frombuffer(_whole_frames(data, 3), dtype=np.uint8)
            b = b.reshape(-1, 3).astype(np.int64)
            x = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
            x = np.where(x >= 1 << 23, x - (1 << 24), x)
            return x.astype(np.float64) / float(1 << 23)
        raise UnsupportedEncodingError(f"{path}: {bits}-bit integer PCM is not supported")
    if fmt_code == 3:  # IEEE float
        if bits == 32:
            x = np.frombuffer(_whole_frames(data, 4), dtype="<f4").astype(np.float64)
            if not np.isfinite(x).all():
                raise UnsupportedEncodingError(f"{path}: NaN or infinite float samples")
            return np.clip(x, -1.0, 1.0)
        raise UnsupportedEncodingError(f"{path}: {bits}-bit float PCM is not supported")
    raise UnsupportedEncodingError(f"{path}: WAV format code {fmt_code} is not supported")


def read_wav(path, target_rate: int = PIPELINE_SAMPLE_RATE) -> AudioClip:
    """Decode a PCM WAV file into a mono clip at ``target_rate``.

    Stereo input is downmixed by channel average. Rate conversion uses a
    windowed-sinc filter. Raises UnreadableFileError, UnsupportedEncodingError
    (also for NaN/Inf float samples and header rates outside
    MIN_SAMPLE_RATE..MAX_SAMPLE_RATE) or EmptyAudioError.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: NUL byte in the path
        raise UnreadableFileError(f"{path}: {exc}") from exc

    chunks = _parse_riff_chunks(raw, str(path))
    if b"fmt " not in chunks or b"data" not in chunks:
        raise UnreadableFileError(f"{path}: missing fmt or data chunk")
    fmt = chunks[b"fmt "]
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

    samples = _decode_pcm(chunks[b"data"], fmt_code, bits, str(path))
    if n_channels == 2:
        samples = samples[: len(samples) - len(samples) % 2]
        samples = samples.reshape(-1, 2).mean(axis=1)
    if len(samples) == 0:
        raise EmptyAudioError(f"{path}: zero-length audio")

    if rate != target_rate:
        samples = resample(samples, rate, target_rate)
        if len(samples) == 0:
            raise EmptyAudioError(f"{path}: zero-length audio after resampling")
    samples = np.clip(samples, -1.0, 1.0)
    return AudioClip(samples=samples, sample_rate_hz=target_rate, source_path=str(path))


def write_wav(path, samples: np.ndarray, sample_rate_hz: int) -> None:
    """Write mono float samples in [-1, 1] as 16-bit PCM; ValueError on NaN or inf."""
    x = np.asarray(samples, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: cannot write non-finite samples")
    q = np.clip(np.rint(x * 32767.0), -32768, 32767)
    data = q.astype("<i2").tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, sample_rate_hz,
                                 sample_rate_hz * 2, 2, 16)
    hdr += b"data" + struct.pack("<I", len(data))
    Path(path).write_bytes(hdr + data)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

_SINC_ZEROS = 32
_KAISER_BETA = 8.6
# Most taps held in a cached phase bank or phase matrix: a co-prime rate pair
# such as 95999 -> 16000 Hz has 16000 phases of 387 taps each.
_MAX_TAPS = 1 << 21
# Most values in one column block of the phase matrix: 8, 22.05, 24, 32, 44.1,
# 48, 96 and 384 kHz into 16 kHz each fit in one block.
_BLOCK_VALUES = 1 << 18


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
def _polyphase_bank(sr_in: int, sr_out: int):
    """Filter geometry and per-phase taps; integer rates give up = sr_out/gcd phases.

    The bank is None when its up x taps values would exceed _MAX_TAPS;
    ``resample`` then computes the taps of a block of phases at a time.
    """
    g = np.gcd(sr_in, sr_out)
    up, down = sr_out // g, sr_in // g
    scale = min(1.0, sr_out / sr_in)  # anti-alias cutoff relative to input rate
    half_width = _SINC_ZEROS / scale
    pad = int(np.ceil(half_width)) + 1
    offsets = np.arange(-pad, pad + 1)
    bank = None
    if up * len(offsets) <= _MAX_TAPS:
        fracs = np.arange(up) / up  # fractional input position per output phase
        bank = _tap_values(fracs, offsets, scale, half_width)
    return up, down, pad, offsets, scale, half_width, bank


@functools.lru_cache(maxsize=8)
def _row_layout(up: int, down: int, n_taps: int):
    """(chunk, starts, phases, blocks) of the GEMM resampler's rows.

    A row holds G*up outputs, G = ceil((n_taps-1)/down) input periods,
    and reads its own ``chunk = G*down`` input samples and the next chunk:
    its output j starts its window ``starts[j]`` samples into its chunk,
    with the taps of phase ``phases[j]``. ``blocks`` splits the columns
    into (c0, c1) ranges whose phase-matrix block (the input samples the
    columns touch x the columns) holds about _BLOCK_VALUES values or fewer.
    """
    periods = -(-(n_taps - 1) // down)
    j = np.arange(periods * up)
    starts, phases = (j * down) // up, (j * down) % up
    cols = len(j)
    while cols > 1 and (cols * down // up + n_taps) * cols > _BLOCK_VALUES:
        cols //= 2
    blocks = [(c0, min(c0 + cols, len(j))) for c0 in range(0, len(j), cols)]
    return periods * down, starts, phases, blocks


def _band(taps: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Phase-matrix block: column j holds taps[j] from row starts[j] - starts[0]."""
    n, n_taps = taps.shape
    w = np.zeros((n, starts[-1] - starts[0] + n_taps))
    np.put_along_axis(w, (starts - starts[0])[:, None] + np.arange(n_taps), taps, axis=1)
    return w.T


@functools.lru_cache(maxsize=8)
def _phase_matrix(sr_in: int, sr_out: int):
    """The phase-matrix blocks of a rate pair with a phase bank, built from
    its rows; None when all blocks together would exceed _MAX_TAPS values."""
    up, down, pad, offsets, scale, half_width, bank = _polyphase_bank(sr_in, sr_out)
    _, starts, phases, blocks = _row_layout(up, down, len(offsets))
    size = sum((starts[c1 - 1] - starts[c0] + len(offsets)) * (c1 - c0) for c0, c1 in blocks)
    if size > _MAX_TAPS:
        return None
    return [_band(bank[phases[c0:c1]], starts[c0:c1]) for c0, c1 in blocks]


def resample(x: np.ndarray, sr_in: int, sr_out: int) -> np.ndarray:
    """Convert ``x`` from ``sr_in`` to ``sr_out`` with a Kaiser-windowed sinc
    filter (beta 8.6, 32 zero crossings per side at the lower of the two rates).

    The filter runs as BLAS GEMMs. The zero-padded input is cut into
    chunks of D = G*down samples, G = ceil((taps-1)/down) input periods,
    and output row r (G*up outputs) reads only chunks r and r+1. Rows
    0, 2, 4, ... read disjoint 2D-sample spans, and so do rows 1, 3, ...;
    each set is one plain reshape of the input, and its outputs are that
    matrix times W, the banded phase matrix (input sample by output
    column, each column holding its phase's taps from its window start).
    48 -> 16 kHz: 65 outputs of 195 taps per 195-sample chunk; 44.1 -> 16
    kHz: 160 outputs of 181 taps per 441. Wide rows (co-prime rates: 16000
    outputs per row at 95999 Hz) run as column blocks of W, each over only
    the input samples its columns touch. W is built from the cached phase
    bank and cached itself up to _MAX_TAPS values; without a bank each
    block computes its taps when it runs, in the same layout, so the
    output is the same.
    """
    x = np.asarray(x, dtype=np.float64)
    if sr_in == sr_out:
        return x.copy()
    n_out = int(round(len(x) * sr_out / sr_in))
    if n_out == 0:
        return np.zeros(0)

    up, down, pad, offsets, scale, half_width, bank = _polyphase_bank(sr_in, sr_out)
    chunk, starts, phases, blocks = _row_layout(up, down, len(offsets))
    rows = -(-n_out // len(starts))
    xp = np.zeros((rows + 2) * chunk)  # holds x: rows*chunk > len(x) - chunk, chunk >= 2*pad
    xp[pad:pad + len(x)] = x
    matrices = _phase_matrix(sr_in, sr_out) if bank is not None else None
    out = np.empty((rows, len(starts)))
    for i, (c0, c1) in enumerate(blocks):
        if c0 >= n_out:  # one short row: later columns hold no output
            break
        if matrices is not None:
            w = matrices[i]
        else:
            taps = (bank[phases[c0:c1]] if bank is not None
                    else _tap_values(phases[c0:c1] / up, offsets, scale, half_width))
            w = _band(taps, starts[c0:c1])
        k = starts[c0]
        for parity in (0, 1):  # rows 0, 2, ... and 1, 3, ...: disjoint 2-chunk spans
            dst = out[parity::2, c0:c1]
            src = xp[k + parity * chunk:k + (parity + 2 * len(dst)) * chunk]
            np.matmul(src.reshape(len(dst), 2 * chunk)[:, :len(w)], w, out=dst)
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


def render_ravdess_name(meta: RavdessMeta) -> str:
    """Inverse of parse_ravdess_name."""
    rev = lambda table, value: next(k for k, v in table.items() if v == value)
    return "-".join([
        rev(_MODALITIES, meta.modality),
        rev(_VOCAL_CHANNELS, meta.vocal_channel),
        f"{EMOTION_INDEX[meta.emotion] + 1:02d}",
        rev(_INTENSITIES, meta.intensity),
        f"{meta.statement:02d}",
        f"{meta.repetition:02d}",
        f"{meta.actor:02d}",
    ]) + ".wav"


# ---------------------------------------------------------------------------
# Corpus scanning
# ---------------------------------------------------------------------------

def scan_corpus(root, filt: CorpusFilter = CorpusFilter()) -> list:
    """Recursively collect (path, RavdessMeta) records passing ``filt``.

    Files whose names do not parse (including out-of-scope emotion codes)
    are not corpus records and are skipped. Order is lexicographic by path
    so two scans of the same tree are identical.
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
        if filt.accepts(meta):
            records.append((path, meta))
    return records

