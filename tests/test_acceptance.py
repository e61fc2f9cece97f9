"""Acceptance gate: one test per release criterion, at stated tolerances.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s``). The full-corpus reproduction criterion needs the real
female speech/song corpus on disk; point AFFECTLINE_RAVDESS_ROOT at it
to enable that test, otherwise it is skipped and reported as such.
"""

import os
import time

import numpy as np
import pytest

from affectline.audio_io import EMOTIONS, scan_corpus
from affectline.checkpoint import FeatureSettings, load_checkpoint, save_checkpoint
from affectline.features import delta, frame_signal, mfcc, rms, zcr
from affectline.gradcheck import run_gradcheck
from affectline.nn import ModelSpec
from affectline.session import classify_session, load_manifest, load_truth, synthesize_session
from affectline.train_eval import TrainConfig, metrics_to_csv, train
from conftest import build_synthetic_corpus, class_tone, sine

RAVDESS_ENV = "AFFECTLINE_RAVDESS_ROOT"

TINY_SPEC = ModelSpec(conv_channels=(8, 8, 12, 12, 16, 16))
TINY_SETTINGS = FeatureSettings(t_fixed=100)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def balanced_subset(tmp_path, per_class):
    """RAVDESS clips when available, synthetic class tones otherwise."""
    root = os.environ.get(RAVDESS_ENV)
    if root:
        scanned = scan_corpus(root)
        by_class = {e: [] for e in EMOTIONS}
        for path, meta in scanned:
            if len(by_class[meta.emotion]) < per_class:
                by_class[meta.emotion].append((path, meta.emotion))
        records = [r for label in EMOTIONS for r in by_class[label]]
        if len(records) == per_class * len(EMOTIONS):
            return records, "ravdess"
    corpus_root = tmp_path / "overfit_corpus"
    return build_synthetic_corpus(corpus_root, per_class=per_class), "synthetic"


def test_gradient_correctness():
    t0 = time.time()
    rows = run_gradcheck(seed=1000, n_seeds=10, tolerance=1e-4)
    elapsed = time.time() - t0
    worst = max(r.max_rel_error for r in rows)
    ok = all(r.passed for r in rows) and elapsed < 60.0
    report("gradient correctness", ok,
           f"worst rel err {worst:.2e} over 10 seeds x {len(rows)} checks "
           f"(tol 1e-4), {elapsed:.1f}s (< 60s)")


def test_overfit_sanity(tmp_path):
    records, source = balanced_subset(tmp_path, per_class=10)
    config = TrainConfig(epochs=500, batch_size=25, lr=1e-4, seed=42,
                         early_stop_train_acc=0.95)
    ckpt, metrics = train(records, ModelSpec(), config, FeatureSettings(),
                          cache_dir=tmp_path / "cache")
    final = metrics.epochs[-1].train_acc
    ok = final >= 0.95 and len(metrics.epochs) <= 500
    report("overfit sanity", ok,
           f"train acc {final:.3f} after {len(metrics.epochs)} epochs "
           f"(target >= 0.95 within 500) on 60-clip {source} subset")


@pytest.mark.skipif(RAVDESS_ENV not in os.environ,
                    reason=f"set {RAVDESS_ENV} to the corpus root to run the "
                           "full-corpus reproduction (hours of CPU)")
def test_full_corpus_reproduction():
    root = os.environ[RAVDESS_ENV]
    records = [(p, m.emotion) for p, m in scan_corpus(root)]
    print(f"female 6-class corpus size: {len(records)}")
    accs = []
    for seed in (42, 43, 44):
        config = TrainConfig(epochs=300, batch_size=25, lr=1e-4, seed=seed)
        _, metrics = train(records, ModelSpec(), config, FeatureSettings(), cache_dir=None)
        accs.append(metrics.epochs[-1].test_acc)
    mean_acc = float(np.mean(accs))
    report("full-corpus reproduction", mean_acc >= 0.55,
           f"mean test acc {mean_acc:.3f} over split seeds 42/43/44 "
           f"(target >= 0.55, chance 0.167)")


def test_dsp_fidelity():
    # mel-cepstrum chain against the naive-DFT oracle
    from test_features import oracle_mfcc
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(400, 1400))
        x = np.clip(rng.uniform(0.05, 0.8) * rng.standard_normal(n), -1, 1)
        got = mfcc(frame_signal(x))
        want = oracle_mfcc(x)
        scale = np.abs(want).max()
        worst = max(worst, float(np.max(np.abs(got - want)) / scale))
    mfcc_ok = worst < 1e-6

    tone = sine(440, 1.0)  # zcr and rms read the samples, one value per frame
    zcr_val = zcr(tone)[0]
    zcr_ok = abs(zcr_val - 22 / 399) <= (1 / 399) * (1 + 1e-9)

    rms_val = rms(tone)[0]  # 11 full cycles per 25 ms frame
    rms_ok = abs(rms_val - 1 / np.sqrt(2)) <= 1e-3

    ramp = 1.7 * np.arange(12.0)[None, :]
    d = delta(ramp, 2)
    delta_ok = bool(np.all(d[0, 2:-2] == 1.7))

    ok = mfcc_ok and zcr_ok and rms_ok and delta_ok
    report("DSP fidelity", ok,
           f"mfcc worst rel {worst:.2e} (<1e-6); zcr {zcr_val:.5f} "
           f"(22/399 +- 1/399); rms {rms_val:.6f} (1/sqrt2 +- 1e-3); "
           f"delta ramp exact: {delta_ok}")


def test_aggregation_correctness(tmp_path):
    rng = np.random.default_rng(5)
    # fixed construction distribution over 200 segments
    per_class = (60, 40, 35, 30, 20, 15)
    clips = []
    for idx, n in enumerate(per_class):
        for _ in range(n):
            clips.append((class_tone(idx, rng, 0.15), EMOTIONS[idx]))
    order = rng.permutation(len(clips))
    clips = [clips[i] for i in order]
    bundle = synthesize_session(clips, tmp_path / "session", session_id="agg",
                                seed=6)
    records = load_manifest(bundle.manifest_path).records
    truth = load_truth(bundle.truth_path)
    oracle = lambda record: truth[record.segment_id]

    rep = classify_session(None, records, predict=oracle)
    exact = bool(np.all(rep.counts == np.array(per_class)))
    sums_ok = abs(rep.proportions.sum() - 1.0) <= 1e-9

    shuffled = [records[i] for i in rng.permutation(len(records))]
    rep2 = classify_session(None, shuffled, predict=oracle)
    perm_ok = bool(np.all(rep.counts == rep2.counts)) and \
        bool(np.all(rep.proportions == rep2.proportions))

    ok = exact and sums_ok and perm_ok
    report("aggregation correctness", ok,
           f"200-segment distribution exact: {exact}; proportions sum "
           f"{rep.proportions.sum():.12f} (1 +- 1e-9); permutation-invariant: {perm_ok}")


def test_checkpoint_roundtrip(tmp_path):
    records = build_synthetic_corpus(tmp_path / "ckpt_corpus", per_class=3)
    config = TrainConfig(epochs=2, batch_size=8, seed=3)
    ckpt, _ = train(records, TINY_SPEC, config, TINY_SETTINGS)
    path = tmp_path / "model.afl"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)

    params_ok = all(np.array_equal(loaded.params[k], ckpt.params[k])
                    for k in ckpt.params)
    model_a, model_b = ckpt.build_model(), loaded.build_model()
    rng = np.random.default_rng(12)
    logits_ok = True
    for _ in range(5):
        x = rng.uniform(-1, 1, (1, 41, 100)).astype(np.float32)
        logits_ok = logits_ok and bool(
            np.array_equal(model_a.forward(x), model_b.forward(x)))
    ok = params_ok and logits_ok
    report("checkpoint round-trip", ok,
           f"bit-identical parameters: {params_ok}; bit-identical logits on "
           f"5 random inputs: {logits_ok}")


def test_determinism(tmp_path):
    records = build_synthetic_corpus(tmp_path / "det_corpus", per_class=4)
    config = TrainConfig(epochs=3, batch_size=10, seed=99)
    _, metrics_a = train(records, TINY_SPEC, config, TINY_SETTINGS)
    _, metrics_b = train(records, TINY_SPEC, config, TINY_SETTINGS)
    csv_a, csv_b = metrics_to_csv(metrics_a), metrics_to_csv(metrics_b)
    ok = csv_a.encode() == csv_b.encode()
    report("determinism", ok,
           f"metrics CSV byte-identical across reruns: {ok} "
           f"({len(csv_a.encode())} bytes)")
