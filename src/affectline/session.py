"""Day-long session manifests: load, filter, classify, aggregate, report.

A session is described by a CSV manifest of labeled audio segments (one
file per segment). Only FAN segments (female adult, near) are treated
as approximations of the target speaker's speech and classified; the
far-field variant FAF is excluded because loudness skews the features.
One function, ``segment_labels``, labels the FAN segments in both modes,
through the same path as a corpus in ``train_eval.evaluate``: each
segment's raw matrix from ``train_eval.extract_features`` (without a
cache), in manifest order, labelled under the checkpoint by
``train_eval.predict_labels`` ``PREDICT_ROWS`` windows at a time as they
are read, so the labels equal ``evaluate``'s over the same files. The chunk
vote adds that matrix of the segment cut at each later window, and labels
each segment's windows apart and by majority.
Also provides a synthetic-session generator used as the test stand-in
for unavailable in-the-wild recordings.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import train_eval
from .audio_io import (EMOTION_INDEX, EMOTIONS, PIPELINE_SAMPLE_RATE, AudioDecodeError,
                       read_wav, wav_bytes)
from .checkpoint import Checkpoint, write_outputs, write_replacing
from .config import is_utf8
from .errors import ConfigError, DataError
from .features import FRAME_LEN, HOP, assemble_features, matrix_samples
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


def segment_labels(ckpt: Checkpoint, records, chunk_vote: bool = False) -> list:
    """The emotion of each record, or the AudioDecodeError reading it raised,
    in record order.

    Window 0 of a record is the call ``evaluate`` makes on a clip,
    ``train_eval.extract_features(record.audio_path, ckpt.features)``. With
    ``chunk_vote``, window k >= 1, read only after a full window k - 1, is
    that matrix of the segment cut at sample k * t_fixed * HOP; a tail
    shorter than one frame casts no vote. A segment any of whose windows
    raises AudioDecodeError is a failure; a window is passed on only once
    the next one's read succeeds, so the group a failing read ends is
    dropped, not forwarded. Windows are labelled ``PREDICT_ROWS`` at a time
    as they are read, in memory that does not grow with the session: the
    leading windows as one stream over the records, so the labels are those
    of one ``predict_labels`` call over all of them, and the chunk vote's
    windows one stream per record, so a group never spans two segments. A
    record's label takes the most votes, ties to the lowest class index.
    """
    t_fixed = ckpt.features.t_fixed
    bound, step = matrix_samples(t_fixed), t_fixed * HOP
    votes = np.zeros((len(records), len(EMOTIONS)), dtype=np.int64)
    failures = [None] * len(records)

    def windows(i, path):
        try:
            window, start = train_eval.extract_features(path, ckpt.features), step
            while chunk_vote and window.n_valid_frames == t_fixed:  # a full window
                samples = read_wav(path, bound, start)
                if len(samples) < FRAME_LEN:  # a tail shorter than one frame casts no vote
                    break
                yield i, window  # only once the next window's read has succeeded
                window, start = assemble_features(samples, t_fixed), start + step
            yield i, window
        except AudioDecodeError as exc:
            failures[i] = exc

    streams = (windows(i, record.audio_path) for i, record in enumerate(records))
    for stream in streams if chunk_vote else [itertools.chain.from_iterable(streams)]:
        while group := list(itertools.islice(stream, train_eval.PREDICT_ROWS)):
            indices, matrices = zip(*group)
            if failures[indices[-1]] is None:  # a chunk-vote segment that failed casts no vote
                labels = train_eval.predict_labels(ckpt, matrices)
                np.add.at(votes, (indices, labels), 1)
            del group, matrices  # the next group is read without this one
    return [failure or EMOTIONS[int(np.argmax(row))] for failure, row in zip(failures, votes)]


def classify_session(ckpt: Checkpoint, records, *, chunk_vote: bool = False) -> SessionReport:
    """Classify every FAN segment of one session and aggregate counts.

    ``segment_labels`` labels the FAN segments by their leading windows, as
    ``evaluate`` labels a corpus, or with ``chunk_vote`` by a vote over each
    segment's windows. A segment whose read raises AudioDecodeError is
    listed in ``failures`` and excluded from the proportions; a session with
    zero classifiable FAN segments is an error.
    """
    records = list(records)
    session_ids = {r.session_id for r in records}
    if len(session_ids) > 1:
        raise DataError(f"records span multiple sessions: {sorted(session_ids)}")

    fan = filter_fan(records)
    counts = np.zeros(len(EMOTIONS), dtype=np.int64)
    predictions, failures = [], []
    for record, label in zip(fan, segment_labels(ckpt, fan, chunk_vote)):
        if isinstance(label, AudioDecodeError):
            failures.append((record.audio_path, str(label)))
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
    lines = ["emotion,count,proportion"]
    for i, name in enumerate(EMOTIONS):
        lines.append(f"{name},{int(report.counts[i])},{report.proportions[i]:.6f}")
    svg = bar_chart(EMOTIONS, report.proportions,
                    f"Session {report.session_id}: emotion distribution "
                    f"({int(report.counts.sum())} segments)", "proportion")
    try:
        return write_outputs(out_dir, {f"{report.session_id}.csv": "\n".join(lines) + "\n",
                                       f"{report.session_id}.svg": svg})
    except OSError as exc:
        raise DataError(f"cannot write report under {out_dir}: {exc}") from exc


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
    ``snr_db``), a ground-truth sidecar CSV, then the manifest CSV, each by
    ``write_replacing``. Output bytes depend only on the arguments.
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

    manifest, truth = io.StringIO(), io.StringIO()  # CSV text with "\r\n" line ends
    manifest_row, truth_row = csv.writer(manifest).writerow, csv.writer(truth).writerow
    manifest_row(MANIFEST_COLUMNS)  # csv quotes any field holding "\r" or "\n"
    truth_row(("segment_id", "emotion"))
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
        segment_paths.append(seg_dir / f"{segment_id}.wav")
        write_replacing(segment_paths[-1], wav_bytes(samples))
        duration = len(samples) / PIPELINE_SAMPLE_RATE
        manifest_row((session_id, segment_id, "FAN", f"segments/{segment_id}.wav",
                      f"{cursor:.6f}", f"{cursor + duration:.6f}"))
        truth_row((segment_id, label))
        cursor += duration

    truth_path, manifest_path = write_outputs(out_dir, {"truth.csv": truth.getvalue(),
                                                        "manifest.csv": manifest.getvalue()})
    return SynthesizedSession(manifest_path=manifest_path, truth_path=truth_path,
                              segment_paths=segment_paths)


def sample_for_audit(records, n: int, seed: int = 0) -> list:
    """Deterministic random sample of segments for manual listening."""
    records = list(records)
    rng = np.random.default_rng(seed)
    if n >= len(records):
        return records
    idx = rng.choice(len(records), size=n, replace=False)
    return [records[i] for i in sorted(int(i) for i in idx)]
