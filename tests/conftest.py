import csv
import itertools
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import affectline
from affectline import session
from affectline.audio_io import EMOTIONS, AudioDecodeError, read_wav
from affectline.features import N_FEATURE_ROWS, NormalizationProfile

# the normalization profile that leaves every value as it is, (value - 0) / 1
IDENTITY_PROFILE = NormalizationProfile(np.zeros(N_FEATURE_ROWS), np.ones(N_FEATURE_ROWS))


def make_wav_bytes(samples, sample_rate=16000, bits=16, channels=1, fmt_code=1):
    """Independent WAV writer used to craft decode-test inputs.

    ``samples`` is float in [-1, 1]; for stereo pass shape (n, 2).
    """
    x = np.asarray(samples, dtype=np.float64)
    if channels == 2 and x.ndim == 1:
        x = np.stack([x, x], axis=1)
    flat = x.reshape(-1)
    if fmt_code == 3:
        data = flat.astype("<f4").tobytes()
        bits = 32
    elif bits == 8:
        data = (np.clip(np.rint(flat * 128.0 + 128.0), 0, 255)).astype(np.uint8).tobytes()
    elif bits == 16:
        data = np.clip(np.rint(flat * 32768.0), -32768, 32767).astype("<i2").tobytes()
    elif bits == 24:
        ints = np.clip(np.rint(flat * (1 << 23)), -(1 << 23), (1 << 23) - 1).astype(np.int64)
        ints = np.where(ints < 0, ints + (1 << 24), ints)
        b = np.zeros((len(ints), 3), dtype=np.uint8)
        b[:, 0] = ints & 0xFF
        b[:, 1] = (ints >> 8) & 0xFF
        b[:, 2] = (ints >> 16) & 0xFF
        data = b.tobytes()
    else:
        raise ValueError(bits)
    block = channels * bits // 8
    hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, fmt_code, channels, sample_rate,
                                 sample_rate * block, block, bits)
    hdr += b"data" + struct.pack("<I", len(data))
    return hdr + data


def load_truth(path) -> dict:
    """segment_id -> emotion from a synthetic session's ground-truth CSV."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        return {row["segment_id"]: row["emotion"] for row in csv.DictReader(fh)}


def label_by_truth(monkeypatch, truth):
    """Make ``session.segment_labels`` give each record its true label from
    ``truth`` (segment_id -> emotion), after ``read_wav`` reads it, or the
    AudioDecodeError that read raised, as a checkpoint's labels fail."""
    def labels(ckpt, records, chunk_vote=False):
        out = []
        for record in records:
            try:
                read_wav(record.audio_path)
                out.append(truth[record.segment_id])
            except AudioDecodeError as exc:
                out.append(exc)
        return out
    monkeypatch.setattr(session, "segment_labels", labels)


def write_test_wav(path, samples, sample_rate=16000, bits=16, channels=1, fmt_code=1):
    path.write_bytes(make_wav_bytes(samples, sample_rate, bits, channels, fmt_code))
    return path


def sine(freq, duration_s=1.0, sample_rate=16000, amp=1.0, phase=0.0):
    t = np.arange(int(round(duration_s * sample_rate))) / sample_rate
    return amp * np.sin(2 * np.pi * freq * t + phase)


def class_tone(class_idx, rng, duration_s=1.0, sample_rate=16000):
    """Clearly separable per-class signal: distinct fundamental + harmonic mix."""
    f0 = 280.0 + 160.0 * class_idx
    phase = rng.uniform(0, 2 * np.pi)
    x = 0.45 * sine(f0, duration_s, sample_rate, phase=phase)
    x += (0.12 + 0.05 * class_idx) * sine(2 * f0, duration_s, sample_rate, phase=phase / 2)
    x += 0.01 * rng.standard_normal(len(x))
    return np.clip(x, -1.0, 1.0)


def build_synthetic_corpus(root, per_class=10, duration_s=1.0, seed=1234,
                           sex="female"):
    """RAVDESS-named tree of per-class tones; returns list of (path, emotion)."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    actors = (2, 4, 6, 8, 10) if sex == "female" else (1, 3, 5, 7, 9)
    combos = list(itertools.product(("01", "02"), ("01", "02"), ("01", "02"), actors))
    records = []
    for emo_idx, emotion in enumerate(EMOTIONS):
        for n in range(per_class):
            inten, stmt, rep, actor = combos[n]
            name = f"03-01-{emo_idx + 1:02d}-{inten}-{stmt}-{rep}-{actor:02d}.wav"
            path = root / name
            write_test_wav(path, class_tone(emo_idx, rng, duration_s))
            records.append((path, emotion))
    return records


@pytest.fixture
def synthetic_corpus(tmp_path):
    root = tmp_path / "corpus"
    return root, build_synthetic_corpus(root, per_class=10)


def header_section(header, section):
    """``header["features"]["frame"]`` for section "features.frame"; "" is the header.

    A missing section is added empty, like the nested "frame" and "mfcc"
    sections that headers written before their keys were retired carry.
    """
    for key in filter(None, section.split(".")):
        header = header.setdefault(key, {})
    return header


# checkpoint headers that json.loads refuses with neither a JSONDecodeError nor a
# UnicodeDecodeError: a RecursionError, and a ValueError past int's 4,300-digit limit
UNPARSABLE_HEADERS = {"nested-100000-deep": b"[" * 100_000,
                      "5000-digit-integer": b'{"version":' + b"9" * 5_000 + b"}"}


def edit_header(path, edit):
    """Rewrite a checkpoint's JSON header in place through ``edit(header)``."""
    raw = path.read_bytes()
    (head_len,) = struct.unpack_from("<I", raw, 4)
    header = json.loads(raw[8:8 + head_len])
    edit(header)
    head = json.dumps(header).encode()
    path.write_bytes(raw[:4] + struct.pack("<I", len(head)) + head + raw[8 + head_len:])


def run_at_blas_threads(threads: int, code: str, *args) -> str:
    """stdout of ``python -c code *args`` in a process whose OpenBLAS runs
    ``threads`` threads (it reads the count once, at load, so only a new
    process can change it), importing this affectline."""
    src = str(Path(affectline.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout
