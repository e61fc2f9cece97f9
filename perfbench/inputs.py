"""Seeded input generator: RAVDESS-named corpora and session manifests.

Every file is written with this module's own WAV writer, so the program
under test receives only files. The seed picks signal content, format
assignment and ordering; the amount of work (clip count, total audio
length, format shares, segment-length grid) is the same for every seed,
so runs on different seeds measure the same load.
"""

from __future__ import annotations

import csv
import itertools
import struct
from pathlib import Path

import numpy as np

# RAVDESS emotion codes 01..06, in code order.
EMOTIONS = ("neutral", "calm", "happy", "sad", "angry", "fearful")

# (sample rate, bits, channels). Mostly 48 kHz 16-bit mono as in RAVDESS,
# with a 44.1 kHz minority so a resampler gain that only helps integer
# ratios shows, and some stereo and 24-bit files for the other decoders.
MIXED_FORMATS = ((48000, 16, 1),) * 8 + ((44100, 16, 1),) * 2 \
    + ((48000, 16, 2), (48000, 24, 1))
PIPELINE_FORMAT = ((16000, 16, 1),)


def wav_bytes(samples: np.ndarray, rate: int, bits: int = 16, channels: int = 1) -> bytes:
    """Integer PCM RIFF/WAVE bytes for float samples in [-1, 1]."""
    x = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    if channels == 2:
        x = np.stack([x, 0.9 * x], axis=1).reshape(-1)
    if bits == 16:
        data = np.rint(x * 32767.0).astype("<i2").tobytes()
    elif bits == 24:
        ints = np.rint(x * float((1 << 23) - 1)).astype("<i4")
        data = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        raise ValueError(f"unsupported bit depth {bits}")
    block = channels * bits // 8
    head = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    head += b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, rate, rate * block,
                                  block, bits)
    return head + b"data" + struct.pack("<I", len(data)) + data


def voice(f0: float, duration_s: float, rate: int, rng: np.random.Generator,
          level: float = 1.0) -> np.ndarray:
    """Harmonic tone with slight vibrato and a syllable-rate envelope."""
    t = np.arange(int(round(duration_s * rate))) / rate
    vibrato = 1.0 + 0.01 * np.sin(2 * np.pi * rng.uniform(4.0, 6.0) * t)
    phase = 2 * np.pi * np.cumsum(f0 * vibrato) / rate + rng.uniform(0, 2 * np.pi)
    envelope = 0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(2.5, 4.5) * t
                                  + rng.uniform(0, 2 * np.pi))
    x = 0.45 * np.sin(phase) + 0.2 * np.sin(2 * phase + rng.uniform(0, np.pi))
    x *= envelope * level
    return x + 0.01 * level * rng.standard_normal(len(t))


def emotion_f0(emotion_index: int) -> float:
    return 280.0 + 160.0 * emotion_index


def _name_fields():
    """Vocal channel, intensity, statement, repetition, female actor."""
    return list(itertools.product(("01", "02"), ("01", "02"), ("01", "02"), ("01", "02"),
                                  range(2, 25, 2)))


def write_corpus(root: Path, n_clips: int, seed: int, formats=MIXED_FORMATS) -> list:
    """RAVDESS-named tree of ``n_clips`` in-scope female clips of 3-5 s.

    Classes are balanced (``n_clips`` a multiple of 6) and the format
    shares follow ``formats``. A few extra files with male actors or the
    out-of-scope emotions 07/08 sit beside them; a corpus scan skips those.
    Returns (path, sample rate) of the in-scope clips.
    """
    if n_clips % 6:
        raise ValueError("n_clips must be a multiple of 6")
    rng = np.random.default_rng([seed, 1])
    root.mkdir(parents=True, exist_ok=True)
    fields = _name_fields()
    fmt = [formats[i % len(formats)] for i in range(n_clips)]
    fmt = [fmt[i] for i in rng.permutation(n_clips)]
    durations = rng.permutation(np.linspace(3.0, 5.0, n_clips))
    written = []
    for i in range(n_clips):
        emo = i % 6
        voc, inten, stmt, rep, actor = fields[i // 6]
        rate, bits, channels = fmt[i]
        name = f"03-{voc}-{emo + 1:02d}-{inten}-{stmt}-{rep}-{actor:02d}.wav"
        x = voice(emotion_f0(emo), durations[i], rate, rng)
        (root / name).write_bytes(wav_bytes(x, rate, bits, channels))
        written.append((root / name, rate))
    for j in range(max(1, n_clips // 12)):
        emo_code, actor = ("07", 2 * j + 2) if j % 2 else ("03", 2 * j + 1)
        name = f"03-01-{emo_code}-01-01-01-{actor:02d}.wav"
        (root / name).write_bytes(wav_bytes(voice(200.0, 1.0, 16000, rng), 16000))
    return written


# Non-FAN sources: far-field female (quiet), male adult, child.
_OTHER_SOURCES = (("FAF", 420.0, 0.15), ("MAN", 130.0, 1.0), ("CHN", 900.0, 1.0))


def write_sessions(root: Path, seed: int, n_sessions: int, fan_per_session: int,
                   other_per_session: int):
    """Multi-session manifest with 16 kHz segment WAVs and a truth sidecar.

    Per session, FAN segment lengths form a fixed 1-10 s grid (both sides
    of the 3.01 s feature window); FAF, MAN and CHN rows are 1-3 s.
    Returns (manifest path, {segment_id: emotion} for the FAN rows).
    """
    rng = np.random.default_rng([seed, 2])
    seg_dir = root / "segments"
    seg_dir.mkdir(parents=True, exist_ok=True)
    manifest = [("session_id", "segment_id", "source_label", "audio_path",
                 "start_s", "end_s")]
    truth = {}
    for s in range(n_sessions):
        session_id = f"session{s:02d}"
        rows = []
        lengths = rng.permutation(np.linspace(1.0, 10.0, fan_per_session))
        emotions = rng.permutation(np.arange(fan_per_session) % 6)
        for duration, emo in zip(lengths, emotions):
            rows.append(("FAN", float(duration), emotion_f0(int(emo)), 1.0, EMOTIONS[emo]))
        for k in range(other_per_session):
            label, f0, level = _OTHER_SOURCES[k % len(_OTHER_SOURCES)]
            rows.append((label, float(rng.uniform(1.0, 3.0)), f0, level, None))
        cursor = 0.0
        for j in rng.permutation(len(rows)):
            label, duration, f0, level, emotion = rows[j]
            segment_id = f"{session_id}-{len(manifest):04d}"
            x = voice(f0, duration, 16000, rng, level)
            (seg_dir / f"{segment_id}.wav").write_bytes(wav_bytes(x, 16000))
            manifest.append((session_id, segment_id, label, f"segments/{segment_id}.wav",
                             f"{cursor:.3f}", f"{cursor + duration:.3f}"))
            cursor += duration + 0.5
            if emotion is not None:
                truth[segment_id] = emotion
    manifest_path = root / "manifest.csv"
    with manifest_path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(manifest)
    with (root / "truth.csv").open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("segment_id", "emotion"), *sorted(truth.items())])
    return manifest_path, truth
