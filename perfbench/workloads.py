"""The three benchmark workloads: extract, train and classify.

Each calls affectline's public functions in the order the ``affectline
train``, ``eval`` and ``classify`` commands call them, at ``jobs=1``,
with every cache in a private directory under the run's work dir.
Module attributes are looked up at call time (``train_eval.train(...)``)
so the traced run's wrappers see every call.

A workload has three end-to-end numbers per pass, reported under generic
names because every workload must report every metric (the rates as
``main_items_per_ref`` and ``second_items_per_ref``, see reference.py):

============  ============================  ==========================  =====================
workload      main                          second                      quality_share
============  ============================  ==========================  =====================
extract       extract_cold_clips_per_s      extract_warm_clips_per_s    warm == cold share
train         train_samples_per_s           eval_clips_per_s            exp(-train_final_loss)
classify      classify_segments_per_s       same, with chunk voting     classify_accuracy
============  ============================  ==========================  =====================
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from affectline import audio_io, checkpoint, features, session, train_eval
from affectline.checkpoint import FeatureSettings
from affectline.nn import ModelSpec
from affectline.train_eval import TrainConfig

import inputs

SETTINGS = FeatureSettings()
N_ROWS, T_FIXED = 41, 300


@dataclass
class Pass:
    """End-to-end numbers of one measured pass, also under per-workload names."""

    named: dict  # per-workload metric name -> (value, unit)
    main: float
    second: float
    quality: float


@dataclass
class Outcome:
    """Operations attempted and failed, plus digests of the outputs."""

    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool) -> bool:
        self.count(1, 0 if ok else 1)
        return ok

    def pin(self, key: str, digest: str) -> None:
        """Record a digest; a later pass that differs is a failed check."""
        self.check(self.digests.setdefault(key, digest) == digest)


def clear_lru_caches():
    """Empty the program's memoized filter banks so each set-up pays for them."""
    for mod in (audio_io, features):
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def matrix_ok(fm) -> bool:
    v = fm.values
    return (v.shape == (N_ROWS, T_FIXED) and bool(np.all(np.isfinite(v)))
            and not np.any(v[:, fm.n_valid_frames:]))


def digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def round_trip_exact(a, b) -> bool:
    same = lambda x, y: x.keys() == y.keys() and all(
        x[k].dtype == y[k].dtype and np.array_equal(x[k], y[k]) for k in x)
    na, nb = a.normalization, b.normalization
    return (same(a.params, b.params) and same(a.opt_acc, b.opt_acc)
            and a.model_spec == b.model_spec and a.features == b.features
            and np.array_equal(na.mean, nb.mean) and np.array_equal(na.std, nb.std))


def scan(root: Path):
    """Corpus records as the CLI builds them (default female filter)."""
    return [(path, meta.emotion) for path, meta in audio_io.scan_corpus(root)]


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int, smoke: bool, tracer):
        self.work, self.seed, self.smoke, self.tracer = work, seed, smoke, tracer
        self.outcome = Outcome()

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> Pass:
        raise NotImplementedError


class Extract(Workload):
    """Cold then warm ``extract_all`` over a fresh private cache."""

    name = "extract"

    def setup(self):
        clear_lru_caches()
        corpus = self.work / "corpus"
        written = inputs.write_corpus(corpus, 12 if self.smoke else 24, self.seed)
        self.records = scan(corpus)
        # first-call warm-up: the filter banks of every input rate
        for path in {rate: path for path, rate in written}.values():
            train_eval.extract_features(path, SETTINGS, cache_dir=None)

    def run_pass(self, index):
        n = len(self.records)
        cache = self.work / f"cache{index}"
        with self.tracer.phase("bench.extract.cold"):
            (_, cold, fails), t_cold = timed(train_eval.extract_all, self.records,
                                                SETTINGS, cache, jobs=1)
        self.outcome.count(n, len(fails) + sum(not matrix_ok(fm) for fm in cold))
        self.outcome.pin("features", digest_arrays(m.values for m in cold))
        warm_rates, same = [], 0
        for _ in range(1 if self.smoke else 5):
            with self.tracer.phase("bench.extract.warm"):
                (_, warm, fails), t_warm = timed(train_eval.extract_all, self.records,
                                                 SETTINGS, cache, jobs=1)
            warm_rates.append(n / t_warm)
            equal = sum(c.n_valid_frames == w.n_valid_frames
                        and np.array_equal(c.values, w.values) for c, w in zip(cold, warm))
            self.outcome.count(n, max(n - equal, len(fails)))
            same += equal
        shutil.rmtree(cache)
        warm_rate = float(np.median(warm_rates))
        return Pass(named={"extract_cold_clips_per_s": (n / t_cold, "clips/s"),
                           "extract_warm_clips_per_s": (warm_rate, "clips/s")},
                    main=n / t_cold, second=warm_rate,
                    quality=same / (len(warm_rates) * n))


class Train(Workload):
    """``train`` on a pre-warmed cache, then ``eval`` of the saved checkpoint."""

    name = "train"

    def setup(self):
        clear_lru_caches()
        corpus = self.work / "corpus"
        # 14 clips per class split 11/3: the 66-row train split gives full
        # batches of 25, and it and the 84-clip eval give batch-64 forwards
        inputs.write_corpus(corpus, 18 if self.smoke else 84, self.seed)
        self.cache = self.work / "cache"
        self.config = TrainConfig(epochs=1 if self.smoke else 2, batch_size=25, seed=42)
        records = scan(corpus)
        _, mats, fails = train_eval.extract_all(records, SETTINGS, self.cache, jobs=1)
        self.outcome.count(len(records), len(fails) + sum(not matrix_ok(fm) for fm in mats))
        self.corpus = corpus

    def run_pass(self, index):
        records = scan(self.corpus)
        (ckpt, metrics), t_train = timed(train_eval.train, records, ModelSpec(),
                                         self.config, SETTINGS, cache_dir=self.cache, jobs=1)
        loss = metrics.epochs[-1].train_loss
        self.outcome.check(math.isfinite(loss))
        self.outcome.pin("checkpoint", digest_arrays(ckpt.params.values()))
        path = self.work / f"checkpoint{index}.afl"
        checkpoint.save_checkpoint(path, ckpt)
        loaded = checkpoint.load_checkpoint(path)
        self.outcome.check(round_trip_exact(ckpt, loaded))
        # like the eval command: the whole corpus, in batches of 64
        result, t_eval = timed(train_eval.evaluate, loaded, records, cache_dir=self.cache,
                               jobs=1)
        self.outcome.check(result.n_test == len(records))
        self.outcome.pin("eval_confusion", digest_arrays([result.confusion]))
        path.unlink()
        samples = metrics.n_train * len(metrics.epochs)
        return Pass(named={"train_samples_per_s": (samples / t_train, "samples/s"),
                           "eval_clips_per_s": (len(records) / t_eval, "clips/s"),
                           "train_final_loss": (loss, "nats")},
                    main=samples / t_train, second=len(records) / t_eval,
                    quality=math.exp(-loss))


class Classify(Workload):
    """Every session of a manifest: ``classify_session`` and ``render_report``.

    The pass runs the manifest twice: with the leading feature window
    (the default) and with ``chunk_vote``, which classifies every window
    of a long segment instead of truncating it.
    """

    name = "classify"

    def setup(self):
        clear_lru_caches()
        corpus = self.work / "corpus"
        inputs.write_corpus(corpus, 12 if self.smoke else 36, self.seed,
                            formats=inputs.PIPELINE_FORMAT)
        config = TrainConfig(epochs=1 if self.smoke else 6, batch_size=25, lr=1e-3, seed=42)
        ckpt, _ = train_eval.train(scan(corpus), ModelSpec(), config, SETTINGS,
                                   cache_dir=self.work / "cache", jobs=1)
        path = self.work / "checkpoint.afl"
        checkpoint.save_checkpoint(path, ckpt)
        self.ckpt = checkpoint.load_checkpoint(path)
        self.outcome.check(round_trip_exact(ckpt, self.ckpt))
        self.outcome.digests["checkpoint"] = digest_arrays(self.ckpt.params.values())
        n_sessions, fan, other = (1, 6, 3) if self.smoke else (3, 16, 6)
        self.manifest, self.truth = inputs.write_sessions(
            self.work / "sessions", self.seed, n_sessions, fan, other)

    def _classify_all(self, out, chunk_vote):
        result = session.load_manifest(self.manifest)
        self.outcome.check(not result.row_errors and not result.unknown_label_count)
        by_session = {}
        for record in result.records:
            by_session.setdefault(record.session_id, []).append(record)
        predictions = []
        for records in by_session.values():
            report = session.classify_session(self.ckpt, records, chunk_vote=chunk_vote)
            session.render_report(report, out)
            fan = sum(r.source_label == "FAN" for r in records)
            consistent = int(report.counts.sum()) == fan - report.n_failed
            self.outcome.count(fan, fan if not consistent else report.n_failed)
            predictions += report.predictions
        return predictions

    def run_pass(self, index):
        rates = []
        for chunk_vote in (False, True):
            out = self.work / f"reports{index}"
            with self.tracer.phase(f"bench.classify.{'vote' if chunk_vote else 'lead'}"):
                predictions, seconds = timed(self._classify_all, out, chunk_vote)
            shutil.rmtree(out)
            rates.append(len(predictions) / seconds)
            self.outcome.pin(f"predictions.chunk_vote={chunk_vote}",
                             hashlib.sha256(repr(predictions).encode()).hexdigest()[:16])
            if not chunk_vote:
                accuracy = sum(self.truth.get(sid) == label
                               for sid, label in predictions) / len(self.truth)
        return Pass(named={"classify_segments_per_s": (rates[0], "segments/s"),
                           "classify_accuracy": (accuracy, "share")},
                    main=rates[0], second=rates[1], quality=accuracy)


WORKLOADS = {w.name: w for w in (Extract, Train, Classify)}

