"""Day-long session manifests: load, filter, classify, aggregate, report.

A session is described by a CSV manifest of labeled audio segments (one
file per segment). Only FAN segments (female adult, near) are treated
as approximations of the target speaker's speech and classified; the
far-field variant FAF is excluded because loudness skews the features.
A segment goes through the same path as a clip in ``train_eval.evaluate``:
its raw matrix from ``train_eval.extract_features`` (without a cache),
labelled by ``train_eval.predict_labels`` with the checkpoint's profile.
Also provides a synthetic-session generator used as the test stand-in
for unavailable in-the-wild recordings.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import train_eval
from .audio_io import (EMOTION_INDEX, EMOTIONS, PIPELINE_SAMPLE_RATE, AudioDecodeError,
                       read_wav, write_wav)
from .checkpoint import Checkpoint
from .config import is_utf8
from .errors import ConfigError, DataError
from .features import FRAME_LEN, HOP, assemble_features
from .svg import bar_chart

SOURCE_LABELS = ("FAN", "FAF", "MAN", "MAF", "CHN", "OTHER")

MANIFEST_COLUMNS = ("session_id", "segment_id", "source_label",
                    "audio_path", "start_s", "end_s")


class ManifestError(DataError):
    pass


class EmptySessionError(DataError):
    pass


@dataclass(frozen=True)
class SegmentRecord:
    session_id: str
    segment_id: str
    source_label: str
    audio_path: str
    start_s: float
    end_s: float


@dataclass
class ManifestLoadResult:
    records: list
    row_errors: list  # (line number, message)
    unknown_label_count: int


@dataclass
class SessionReport:
    """Emotion counts over the successfully classified FAN segments."""

    session_id: str
    counts: np.ndarray  # (6,) ints, canonical emotion order
    proportions: np.ndarray  # (6,) floats summing to 1
    n_segments_total: int
    n_segments_fan: int
    predictions: list = field(default_factory=list)  # (segment_id, label)
    failures: list = field(default_factory=list)  # (audio_path, reason) of unreadable FAN rows

    @property
    def n_failed(self) -> int:
        return len(self.failures)


def _plain_name(name: str) -> bool:
    """True when ``name`` is one non-empty path component without a NUL.
    Report and segment files are named after session ids, so a path there
    would write outside their directory."""
    return bool(name) and "\0" not in name and Path(name).name == name \
        and name not in (".", "..")


def check_session_id(session_id: str) -> None:
    """Raise ConfigError unless ``session_id`` is a plain file name that
    the UTF-8 manifest can hold (no lone surrogates from undecodable argv)."""
    if not is_utf8(session_id):
        raise ConfigError(f"session id {session_id!r} is not UTF-8 text")
    if not _plain_name(session_id):
        raise ConfigError(f"session id {session_id!r} is not a plain file name")


def load_manifest(path) -> ManifestLoadResult:
    """Parse a segment manifest CSV.

    Relative audio paths resolve against the manifest's directory.
    Unknown source labels map to OTHER (counted); rows that fail to parse
    are collected with their line numbers. Missing columns are fatal.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            return _parse_manifest(csv.DictReader(_refuse_nul(fh, path)), path)
    except OSError as exc:
        raise ManifestError(f"{path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ManifestError(f"{path}: not a UTF-8 CSV manifest: {exc}") from exc


def _refuse_nul(lines, path):
    """``lines``, or ManifestError at the first one holding a NUL: the csv
    module of Python 3.10 cannot read past one, later versions can."""
    for number, line in enumerate(lines, 1):
        if "\0" in line:
            raise ManifestError(f"{path}: line {number} holds a NUL character")
        yield line


def _parse_manifest(reader: csv.DictReader, path: Path) -> ManifestLoadResult:
    missing = [c for c in MANIFEST_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ManifestError(f"{path}: missing columns {', '.join(missing)}")
    records, row_errors, unknown = [], [], 0
    for row in reader:
        line = reader.line_num
        try:
            start_s = float(row["start_s"])
            end_s = float(row["end_s"])
        except (TypeError, ValueError):
            row_errors.append((line, "start_s/end_s not numeric"))
            continue
        if not end_s > start_s:  # also rejects NaN
            row_errors.append((line, f"end_s {end_s} <= start_s {start_s}"))
            continue
        if not row["segment_id"] or not row["session_id"] or not row["audio_path"]:
            row_errors.append((line, "empty session_id, segment_id or audio_path"))
            continue
        if not _plain_name(row["session_id"]):
            row_errors.append(
                (line, f"session_id {row['session_id']!r} is not a plain file name"))
            continue
        label = (row["source_label"] or "").strip().upper()
        if label not in SOURCE_LABELS:
            unknown += 1
            label = "OTHER"
        audio = Path(row["audio_path"])
        if not audio.is_absolute():
            audio = path.parent / audio
        records.append(SegmentRecord(
            session_id=row["session_id"],
            segment_id=row["segment_id"],
            source_label=label,
            audio_path=str(audio),
            start_s=start_s,
            end_s=end_s,
        ))
    return ManifestLoadResult(records=records, row_errors=row_errors,
                              unknown_label_count=unknown)


def filter_fan(records) -> list:
    """FAN segments only, original order preserved; idempotent."""
    return [r for r in records if r.source_label == "FAN"]


def checkpoint_predictor(ckpt: Checkpoint, chunk_vote: bool = False):
    """Build a record -> emotion callable from a trained checkpoint.

    The callable reads the segment itself; AudioDecodeError propagates. By
    default it labels the leading window, from the call ``evaluate`` makes on
    a clip: ``train_eval.extract_features(record.audio_path, ckpt.features)``.
    With ``chunk_vote`` it decodes the whole segment and cuts it into
    feature-window-sized chunks that vote by majority (ties to the lowest
    class index), all labelled by one ``train_eval.predict_labels`` call.
    """
    model = ckpt.build_model()
    t_fixed = ckpt.features.t_fixed
    window = (t_fixed - 1) * HOP + FRAME_LEN

    def predict(record) -> str:
        if chunk_vote:  # a tail shorter than one frame casts no vote unless it is all there is
            samples = read_wav(record.audio_path)
            matrices = [assemble_features(samples[start:start + window], t_fixed)
                        for start in range(0, max(len(samples) - FRAME_LEN, 0) + 1, window)]
        else:
            matrices = [train_eval.extract_features(record.audio_path, ckpt.features)]
        votes = np.bincount(train_eval.predict_labels(model, ckpt.normalization, matrices),
                            minlength=len(EMOTIONS))
        return EMOTIONS[int(np.argmax(votes))]

    return predict


def classify_session(ckpt: Checkpoint | None, records, *,
                     predict=None, chunk_vote: bool = False) -> SessionReport:
    """Classify every FAN segment of one session and aggregate counts.

    Each FAN record goes to ``predict(record) -> emotion``, which reads the
    segment itself: ``checkpoint_predictor(ckpt, chunk_vote)`` unless the
    caller passes its own (the synthetic-session harness does). A segment
    whose ``predict`` raises AudioDecodeError is listed in ``failures`` and
    excluded from the proportions; a session with zero classifiable FAN
    segments is an error.
    """
    records = list(records)
    session_ids = {r.session_id for r in records}
    if len(session_ids) > 1:
        raise DataError(f"records span multiple sessions: {sorted(session_ids)}")
    if predict is None:
        if ckpt is None:
            raise DataError("classify_session needs a checkpoint or a predict callable")
        predict = checkpoint_predictor(ckpt, chunk_vote=chunk_vote)

    fan = filter_fan(records)
    counts = np.zeros(len(EMOTIONS), dtype=np.int64)
    predictions, failures = [], []
    for record in fan:
        try:
            label = predict(record)
        except AudioDecodeError as exc:
            failures.append((record.audio_path, str(exc)))
            continue
        counts[EMOTION_INDEX[label]] += 1
        predictions.append((record.segment_id, label))
    total = int(counts.sum())
    if total == 0:
        raise EmptySessionError(
            f"session {next(iter(session_ids), '?')}: no classifiable FAN segments "
            f"({len(fan)} FAN rows, {len(failures)} unreadable)"
        )
    return SessionReport(
        session_id=next(iter(session_ids)),
        counts=counts,
        proportions=counts / total,
        n_segments_total=len(records),
        n_segments_fan=len(fan),
        predictions=predictions,
        failures=failures,
    )


def render_report(report: SessionReport, out_dir) -> list:
    """Write ``<session_id>.csv`` and ``<session_id>.svg``; returns the paths."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"{report.session_id}.csv"
        lines = ["emotion,count,proportion"]
        for i, name in enumerate(EMOTIONS):
            lines.append(f"{name},{int(report.counts[i])},{report.proportions[i]:.6f}")
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        svg_path = out_dir / f"{report.session_id}.svg"
        svg_path.write_text(
            bar_chart(EMOTIONS, report.proportions,
                      f"Session {report.session_id}: emotion distribution "
                      f"({int(report.counts.sum())} segments)",
                      "proportion"),
            encoding="utf-8",
        )
    except OSError as exc:
        raise DataError(f"cannot write report under {out_dir}: {exc}") from exc
    return [csv_path, svg_path]


@dataclass
class SynthesizedSession:
    manifest_path: Path
    truth_path: Path
    segment_paths: list


def synthesize_session(labeled_clips, out_dir, session_id: str = "synthetic",
                       snr_db: float | None = None, seed: int = 0) -> SynthesizedSession:
    """Emit a FAN-labeled session bundle from (samples, emotion) pairs, the
    samples at ``PIPELINE_SAMPLE_RATE`` as ``read_wav`` returns them.

    Writes one 16-bit WAV per clip (optionally with white noise mixed at
    ``snr_db``), a manifest CSV, and a ground-truth sidecar CSV. Output
    bytes are a pure function of (inputs, session_id, snr_db, seed).
    """
    labeled_clips = list(labeled_clips)
    if not labeled_clips:
        raise DataError("need at least one labeled clip")
    if snr_db is not None and not np.isfinite(snr_db):
        raise ConfigError(f"snr_db must be finite, got {snr_db}")
    check_session_id(session_id)
    out_dir = Path(out_dir)
    seg_dir = out_dir / "segments"
    seg_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    manifest = [MANIFEST_COLUMNS]
    truth = [("segment_id", "emotion")]
    segment_paths = []
    cursor = 0.0
    for i, (samples, label) in enumerate(labeled_clips):
        samples = np.asarray(samples, dtype=np.float64)
        if snr_db is not None:
            signal_rms = float(np.sqrt(np.mean(samples ** 2)))
            if signal_rms > 0:
                noise = rng.standard_normal(len(samples))
                noise *= (signal_rms / (10.0 ** (snr_db / 20.0))) \
                    / float(np.sqrt(np.mean(noise ** 2)))
                samples = np.clip(samples + noise, -1.0, 1.0)
        segment_id = f"{session_id}-{i:05d}"
        wav_path = seg_dir / f"{segment_id}.wav"
        write_wav(wav_path, samples)
        segment_paths.append(wav_path)
        duration = len(samples) / PIPELINE_SAMPLE_RATE
        manifest.append((session_id, segment_id, "FAN", f"segments/{segment_id}.wav",
                         f"{cursor:.6f}", f"{cursor + duration:.6f}"))
        truth.append((segment_id, label))
        cursor += duration

    manifest_path, truth_path = out_dir / "manifest.csv", out_dir / "truth.csv"
    for path, rows in ((manifest_path, manifest), (truth_path, truth)):
        with path.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)  # quotes any field holding "\r" or "\n"
    return SynthesizedSession(manifest_path=manifest_path, truth_path=truth_path,
                              segment_paths=segment_paths)


def load_truth(path) -> dict:
    """segment_id -> emotion from a ground-truth sidecar CSV."""
    out = {}
    with Path(path).open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out[row["segment_id"]] = row["emotion"]
    return out


def sample_for_audit(records, n: int, seed: int = 0) -> list:
    """Deterministic random sample of segments for manual listening."""
    records = list(records)
    rng = np.random.default_rng(seed)
    if n >= len(records):
        return records
    idx = rng.choice(len(records), size=n, replace=False)
    return [records[i] for i in sorted(int(i) for i in idx)]
