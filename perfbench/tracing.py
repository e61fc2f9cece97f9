"""Span tracer for the benchmark's traced run.

Timing wrappers are installed on affectline's public functions and
methods at the names where callers look them up (``train_eval.read_wav``,
``session.assemble_features``, ``nn.Conv1d.forward``, ...) and removed
again after each traced pass, so untraced passes run the unmodified
program. Spans stay in memory and are written once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict

from affectline import audio_io, checkpoint, features, nn, session, train_eval

# span record fields
NAME, START, END, PARENT, RUN, ATTRS = range(6)


class Tracer:
    """In-memory spans: [name, start, end, parent index, run id, attrs]."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.run_id = None
        self._stack = []
        self._patches = []
        self._conv_index = {}

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name):
        """Benchmark-level span; a no-op while tracing is off."""
        if not self.active:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name, fn, before=None, describe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if describe is not None:
                span[NAME], span[ATTRS] = describe(name, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, name, before=None, describe=None):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, before, describe))

    # -- installation ------------------------------------------------------

    def install(self, run_id):
        """Wrap every traced name; spans recorded from now on carry ``run_id``."""
        self.run_id = run_id
        self.active = True
        self._conv_index.clear()
        p = self._patch
        p(audio_io, "resample", "audio_io.resample", describe=_describe_resample)
        for mod in (train_eval, session):
            p(mod, "read_wav", "audio_io.read_wav")
            p(mod, "assemble_features", "features.assemble_features",
              describe=lambda n, a, k, r: (n, {"kept": r.n_valid_frames}))
        p(features, "frame_signal", "features.frame_signal",
          describe=lambda n, a, k, r: (n, {"frames": r.shape[0]}))
        for fn in ("mfcc", "delta", "zcr", "rms"):
            p(features, fn, f"features.{fn}")
        p(train_eval, "extract_features", "train_eval.extract_features")
        p(train_eval, "predict_logits", "train_eval.predict_logits",
          describe=lambda n, a, k, r: (n, {"rows": len(r)}))
        p(train_eval, "softmax_xent", "nn.softmax_xent")
        p(nn.Model, "forward", "nn.model.forward", before=self._index_convs,
          describe=_describe_batch)
        p(nn.Model, "backward", "nn.model.backward", before=self._index_convs,
          describe=_describe_batch)
        p(nn.Conv1d, "forward", "nn.conv.forward", describe=self._describe_conv)
        p(nn.Conv1d, "backward", "nn.conv.backward", describe=self._describe_conv)
        for cls, short in ((nn.ReLU, "relu"), (nn.MaxPool1d, "pool"),
                           (nn.FullyConnected, "fc")):
            p(cls, "forward", f"nn.{short}.forward")
            p(cls, "backward", f"nn.{short}.backward")
        p(nn.RmsProp, "step", "nn.rmsprop.step")
        p(checkpoint, "save_checkpoint", "checkpoint.save_checkpoint")
        p(checkpoint, "load_checkpoint", "checkpoint.load_checkpoint")
        p(session, "load_manifest", "session.load_manifest", describe=_describe_manifest)
        p(session, "classify_session", "session.classify_session")
        p(session, "render_report", "session.render_report")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.active = False

    def _index_convs(self, args):
        for i, conv in enumerate(args[0].convs, start=1):
            self._conv_index[id(conv)] = i

    def _describe_conv(self, name, args, kwargs, result):
        conv = args[0]
        direction = name.rsplit(".", 1)[1]
        # forward is one GEMM over (B*T_out, C_in*K) columns; backward is two
        out = result if direction == "forward" else args[1]
        flops = 2 * out.shape[0] * out.shape[2] * conv.out_ch * conv.in_ch * conv.kernel
        if direction == "backward":
            flops *= 2
        index = self._conv_index.get(id(conv), 0)
        return f"nn.conv{index}.{direction}", {"flops": flops}

    def write(self, path):
        """Write all spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START] - t0,
                                     "end": s[END] - t0, "parent": s[PARENT],
                                     "run_id": s[RUN], **(s[ATTRS] or {})}) + "\n")


def _describe_resample(name, args, kwargs, result):
    sr_in = kwargs["sr_in"] if "sr_in" in kwargs else args[1]
    return name, {"sr_in": int(sr_in)}


def _describe_batch(name, args, kwargs, result):
    return name, {"batch": int(args[1].shape[0])}


def _describe_manifest(name, args, kwargs, result):
    fan = sum(1 for r in result.records if r.source_label == "FAN")
    return name, {"rows": len(result.records), "fan": fan}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

class _Index:
    """Span durations, self times, roots and per-run grouping."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.dur = [s[END] - s[START] for s in spans]
        child = [0.0] * n
        self.root = list(range(n))
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[NAME]].append(i)
            p = s[PARENT]
            if p >= 0:
                child[p] += self.dur[i]
                self.root[i] = self.root[p]
                self.children[p].append(i)
        # calls run one at a time, so child spans never overlap
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        self.runs = sorted({s[RUN] for s in spans if s[RUN] != "setup"}, key=str)

    def named(self, name, runs_only=True):
        return [i for i in self.by_name[name]
                if not runs_only or self.spans[i][RUN] != "setup"]

    def per_run(self, idx, value):
        """Median over measured runs of the per-run sum of ``value(i)``."""
        if not self.runs:
            return 0.0
        totals = dict.fromkeys(self.runs, 0.0)
        for i in idx:
            totals[self.spans[i][RUN]] += value(i)
        return statistics.median(totals.values())

    def attr(self, i, key):
        return (self.spans[i][ATTRS] or {}).get(key, 0)


def unit_of(metric: str) -> str:
    if metric.endswith((".calls", ".rows")):
        return "count"
    if metric.endswith("ms") or metric.endswith("ms_p50"):
        return "ms"
    if metric.endswith("_gflops"):
        return "GFLOP/s"
    return "share"


def _p50_ms(values):
    return statistics.median(values) * 1e3 if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_share: float) -> dict:
    """Per-layer numbers from the traced passes (and set-up, for checkpoints).

    ``.calls``, ``.rows``, ``.ms`` and ``.self_ms`` are per measured pass
    (median over traced passes); ``_ms_p50`` is the median per call;
    ratios and GFLOP/s are over all traced passes. A layer that did not
    run reads 0.
    """
    ix = _Index(tracer.spans)
    out = {}

    def calls(name):
        return ix.per_run(ix.named(name), lambda i: 1)

    def total_ms(name):
        return ix.per_run(ix.named(name), lambda i: ix.dur[i] * 1e3)

    def self_ms(name):
        return ix.per_run(ix.named(name), lambda i: ix.self_time[i] * 1e3)

    out["audio_io.read_wav.calls"] = calls("audio_io.read_wav")
    out["audio_io.read_wav.self_ms"] = self_ms("audio_io.read_wav")
    out["audio_io.resample.calls"] = calls("audio_io.resample")
    for rate in (48000, 44100):
        out[f"audio_io.resample.{rate}.ms_p50"] = _p50_ms(
            [ix.dur[i] for i in ix.named("audio_io.resample") if ix.attr(i, "sr_in") == rate])

    out["features.assemble_features.self_ms"] = self_ms("features.assemble_features")
    for fn in ("frame_signal", "mfcc", "delta", "zcr", "rms"):
        out[f"features.{fn}.ms"] = total_ms(f"features.{fn}")
    kept = sum(ix.attr(i, "kept") for i in ix.named("features.assemble_features"))
    framed = sum(ix.attr(i, "frames") for i in ix.named("features.frame_signal"))
    out["features.frames_kept_ratio"] = _ratio(kept, framed)

    extract = ix.named("train_eval.extract_features")
    out["train_eval.extract_features.calls"] = calls("train_eval.extract_features")
    out["train_eval.extract_features.self_ms"] = self_ms("train_eval.extract_features")

    def hit(i):  # a cache hit decodes nothing
        return not any(ix.spans[c][NAME] == "audio_io.read_wav" for c in ix.children[i])

    def hit_ratio(idx):
        return _ratio(sum(hit(i) for i in idx), len(idx))

    out["train_eval.extract_features.cache_hit_ratio"] = hit_ratio(extract)
    for phase in ("cold", "warm"):
        out[f"train_eval.extract_features.cache_hit_ratio.{phase}"] = hit_ratio(
            [i for i in extract if ix.spans[ix.root[i]][NAME] == f"bench.extract.{phase}"])
    predict = ix.named("train_eval.predict_logits")
    out["train_eval.predict_logits.ms"] = total_ms("train_eval.predict_logits")
    out["train_eval.predict_logits.rows"] = ix.per_run(predict, lambda i: ix.attr(i, "rows"))

    for direction in ("forward", "backward"):
        flops = seconds = 0.0
        for k in range(1, 7):
            name = f"nn.conv{k}.{direction}"
            out[f"{name}_ms"] = total_ms(name)
            idx = ix.named(name)
            flops += sum(ix.attr(i, "flops") for i in idx)
            seconds += sum(ix.dur[i] for i in idx)
        out[f"nn.conv.{direction}_gflops"] = _ratio(flops, seconds) / 1e9
        for short in ("relu", "pool", "fc"):
            out[f"nn.{short}.{direction}_ms"] = total_ms(f"nn.{short}.{direction}")
    out["nn.softmax_xent.ms"] = total_ms("nn.softmax_xent")
    out["nn.rmsprop.step_ms"] = total_ms("nn.rmsprop.step")
    for direction, batches in (("forward", (25, 64, 1)), ("backward", (25,))):
        idx = ix.named(f"nn.model.{direction}")
        for b in batches:
            out[f"nn.model.{direction}.b{b}_ms_p50"] = _p50_ms(
                [ix.dur[i] for i in idx if ix.attr(i, "batch") == b])

    for fn in ("save_checkpoint", "load_checkpoint"):
        out[f"checkpoint.{fn}.ms"] = _p50_ms(
            [ix.dur[i] for i in ix.named(f"checkpoint.{fn}", runs_only=False)])

    manifests = ix.named("session.load_manifest")
    out["session.load_manifest.ms"] = total_ms("session.load_manifest")
    out["session.classify_session.self_ms"] = self_ms("session.classify_session")
    out["session.render_report.ms"] = total_ms("session.render_report")
    out["session.fan_ratio"] = _ratio(sum(ix.attr(i, "fan") for i in manifests),
                                      sum(ix.attr(i, "rows") for i in manifests))
    out["trace.overhead_share"] = overhead_share
    return out
