import hashlib
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from affectline import features, train_eval
from affectline.audio_io import EMOTIONS
from affectline.checkpoint import (Checkpoint, CheckpointError, CheckpointMagicError,
                                   CheckpointTruncatedError,
                                   CheckpointVersionError, FeatureSettings, drop_retired,
                                   load_checkpoint, save_checkpoint)
from affectline.errors import ConfigError, DataError, DivergenceError
from affectline.features import (FEATURE_ROW_LABELS, MAX_T_FIXED, N_FEATURE_ROWS,
                                 compute_normalization, matrix_samples)
from affectline.nn import MAX_CONV_CHANNELS, Model, ModelSpec
from affectline.train_eval import (Metrics, SplitError, TrainConfig,
                                   confusion_to_csv, evaluate, extract_all,
                                   extract_features, metrics_to_csv,
                                   predict_logits, split_dataset, train)
from conftest import (IDENTITY_PROFILE, build_synthetic_corpus, edit_header, header_section,
                      make_wav_bytes, run_at_blas_threads)

TINY_SPEC = ModelSpec(conv_channels=(8, 8, 12, 12, 16, 16))
TINY_SETTINGS = FeatureSettings(t_fixed=100)
TINY_BOUND = matrix_samples(TINY_SETTINGS.t_fixed)  # 16,880 samples


def save_untrained(path, spec, t_fixed=100, **params):
    """An untrained checkpoint of ``spec``, with ``params`` in place of the model's."""
    ckpt = Checkpoint(model_spec=spec, params={**dict(Model(spec).parameters()), **params},
                      opt_acc={}, features=FeatureSettings(t_fixed=t_fixed),
                      normalization=IDENTITY_PROFILE)
    save_checkpoint(path, ckpt)
    return ckpt


def disk_full_halfway(monkeypatch):
    """Make ``Path.write_bytes`` write half its data, then fail as on a full disk."""
    write_bytes = Path.write_bytes

    def write_half(self, data):
        write_bytes(self, data[:len(data) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", write_half)


def fake_records(counts):
    """(path, label) records with the given per-class counts."""
    records = []
    for label, n in counts.items():
        for i in range(n):
            records.append((f"/fake/{label}/{i:03d}.wav", label))
    return records


class TestSplit:
    def test_per_class_test_count_rule(self):
        # round(0.2 n) records per class, but at least one: 2 records split 1/1
        counts = {"neutral": 20, "calm": 17, "happy": 16, "sad": 18,
                  "angry": 15, "fearful": 2}
        expected = {"neutral": 4, "calm": 3, "happy": 3, "sad": 4, "angry": 3, "fearful": 1}
        config = TrainConfig(seed=1)
        train_recs, test_recs = split_dataset(fake_records(counts), config)
        for label in counts:
            assert sum(1 for _, l in test_recs if l == label) == expected[label]
        assert len(train_recs) + len(test_recs) == sum(counts.values())

    def test_same_seed_identical_split(self):
        records = fake_records({e: 12 for e in EMOTIONS})
        a = split_dataset(records, TrainConfig(seed=9))
        b = split_dataset(records, TrainConfig(seed=9))
        assert a == b
        c = split_dataset(records, TrainConfig(seed=10))
        assert c != a

    def test_ten_per_class_split_eight_two(self):
        records = fake_records({e: 10 for e in EMOTIONS})
        train_recs, test_recs = split_dataset(records, TrainConfig(seed=3))
        for label in EMOTIONS:
            assert sum(1 for _, l in train_recs if l == label) == 8
            assert sum(1 for _, l in test_recs if l == label) == 2

    def test_disjoint_union(self):
        records = fake_records({e: 7 for e in EMOTIONS})
        train_recs, test_recs = split_dataset(records, TrainConfig(seed=5))
        assert set(train_recs) & set(test_recs) == set()
        assert sorted(train_recs + test_recs) == sorted(records)

    def test_small_class_rejected(self):
        records = fake_records({"neutral": 1, "calm": 5})
        with pytest.raises(SplitError):
            split_dataset(records, TrainConfig(seed=0))

    def test_no_records_refused(self, monkeypatch):
        with pytest.raises(SplitError, match="no records to split"):
            split_dataset([], TrainConfig(seed=0))
        monkeypatch.setattr(train_eval, "extract_all", None)  # any extraction would fail
        with pytest.raises(SplitError, match="no records to split"):
            train([], TINY_SPEC, TrainConfig(epochs=1), TINY_SETTINGS)

    def test_config_validation(self):
        for bad in ({"batch_size": 0}, {"epochs": -1}, {"seed": -1}, {"lr": -1e-4},
                    {"lr": float("nan")}, {"lr": float("inf")}):
            with pytest.raises(ConfigError, match=next(iter(bad))):
                TrainConfig(**bad)
        TrainConfig(lr=0.0, seed=0, epochs=0)  # the lowest accepted values


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    """Small fully-overfit training run shared between tests."""
    root = tmp_path_factory.mktemp("overfit_corpus")
    records = build_synthetic_corpus(root, per_class=5)
    config = TrainConfig(epochs=400, batch_size=25, lr=1e-3, seed=7,
                         early_stop_train_acc=1.0)
    ckpt, metrics = train(records, TINY_SPEC, config, TINY_SETTINGS)
    return records, config, ckpt, metrics


class TestTrain:
    def test_overfits_small_corpus(self, overfit_run):
        _, _, _, metrics = overfit_run
        assert metrics.epochs[-1].train_acc == 1.0
        assert metrics.n_train == 24 and metrics.n_test == 6

    def test_loss_decreases_smoothed(self, overfit_run):
        _, _, _, metrics = overfit_run
        losses = [e.train_loss for e in metrics.epochs[:20]]
        smoothed = np.convolve(losses, np.ones(5) / 5, mode="valid")
        assert np.all(np.diff(smoothed) <= 1e-3)

    def test_zero_epochs_is_initialization(self, synthetic_corpus):
        _, records = synthetic_corpus
        config = TrainConfig(epochs=0, seed=11)
        ckpt, metrics = train(records, TINY_SPEC, config, TINY_SETTINGS)
        assert metrics.epochs == []
        assert ckpt.opt_acc == {}
        expected = Model(TINY_SPEC, seed=np.random.SeedSequence([11, 101]))
        for name, arr in expected.parameters():
            np.testing.assert_array_equal(ckpt.params[name], arr)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_location(self, synthetic_corpus):
        _, records = synthetic_corpus
        config = TrainConfig(epochs=5, lr=1e30, seed=2)
        with pytest.raises(DivergenceError) as info:
            train(records, TINY_SPEC, config, TINY_SETTINGS)
        assert info.value.epoch >= 1
        assert "epoch" in str(info.value)

    def test_train_acc_scores_the_steps_logits(self, synthetic_corpus):
        # lr 0 keeps the weights, so every step and a forward over the train
        # split after training score the same model; at seed 2 it predicts
        # four classes, so a row scored against another row's label shows
        _, records = synthetic_corpus
        config = TrainConfig(epochs=3, lr=0.0, seed=2)
        ckpt, metrics = train(records, TINY_SPEC, config, TINY_SETTINGS)
        train_recs, _ = split_dataset(records, config)
        _, matrices, _ = extract_all(train_recs, TINY_SETTINGS)
        x = train_eval._to_batch_array(matrices, ckpt.normalization)
        y = train_eval._labels_array(train_recs)
        pred = predict_logits(ckpt.model, x).argmax(axis=1)
        assert [e.train_acc for e in metrics.epochs] == [np.count_nonzero(pred == y) / len(y)] * 3
        assert ckpt.metadata["final_train_acc"] == metrics.epochs[-1].train_acc

    def test_label_outside_emotions_fails_the_split(self, synthetic_corpus, monkeypatch):
        # split_dataset refuses it, before any extraction
        _, records = synthetic_corpus
        monkeypatch.setattr(train_eval, "extract_all", None)  # any extraction would fail
        disgust = [(path, "disgust") for path, _ in records[:2]]
        with pytest.raises(DataError, match="label 'disgust' is not one of neutral, calm"):
            train(records + disgust, TINY_SPEC, TrainConfig(epochs=1), TINY_SETTINGS)

    def test_normalization_uses_train_split_only(self, synthetic_corpus):
        _, records = synthetic_corpus
        config = TrainConfig(epochs=1, seed=13)
        ckpt, _ = train(records, TINY_SPEC, config, TINY_SETTINGS)
        train_recs, _ = split_dataset(records, config)
        expected = compute_normalization(extract_all(train_recs, TINY_SETTINGS)[1])
        every = compute_normalization(extract_all(records, TINY_SETTINGS)[1])
        for stat in ("mean", "std"):
            got = getattr(ckpt.normalization, stat)
            assert got.tobytes() == getattr(expected, stat).tobytes()
            assert not np.allclose(got, getattr(every, stat), rtol=1e-6, atol=0)

    def test_one_conv_spec_trains_and_evaluates(self, synthetic_corpus):
        # one conv leaves the arena's second gradient buffer empty
        _, records = synthetic_corpus
        ckpt, metrics = train(records, ModelSpec(conv_channels=(8,)),
                              TrainConfig(epochs=2, seed=3), TINY_SETTINGS)
        assert len(metrics.epochs) == 2 and np.isfinite(metrics.epochs[-1].train_loss)
        assert evaluate(ckpt, records).n_test == len(records)

    def test_peak_grows_by_no_more_than_the_batches_and_normalization_array(self, tmp_path):
        # 42 against 90 one-second clips at the default spec, T 300 and batch 16: the
        # arena (16 rows, the batch and predict_logits' chunk) and the other buffers
        # are the same in both runs, so the peak may grow by the float32 batches and
        # at most a (41, N) float64 array of the valid frames (compute_normalization
        # holds one of its rows at a time), but not also by the extracted matrices,
        # which are as large as the batches
        config = TrainConfig(epochs=1, batch_size=16, seed=5)
        peaks, bounds = [], []
        for per_class in (7, 15):
            records = build_synthetic_corpus(tmp_path / str(per_class), per_class=per_class)
            train_recs, _ = split_dataset(records, config)
            n_valid = sum(m.n_valid_frames for m in extract_all(train_recs, FeatureSettings())[1])
            bounds.append(len(records) * N_FEATURE_ROWS * 300 * 4 + N_FEATURE_ROWS * n_valid * 8)
            tracemalloc.start()
            try:
                train(records, ModelSpec(), config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 2.2 MB against a bound of 3.5 MB; 4.5 MB while train() kept the matrices
        assert peaks[1] - peaks[0] <= bounds[1] - bounds[0]

    def test_deterministic_metrics_and_params(self, synthetic_corpus):
        _, records = synthetic_corpus
        config = TrainConfig(epochs=3, seed=21)
        a_ckpt, a_metrics = train(records, TINY_SPEC, config, TINY_SETTINGS)
        b_ckpt, b_metrics = train(records, TINY_SPEC, config, TINY_SETTINGS)
        assert metrics_to_csv(a_metrics) == metrics_to_csv(b_metrics)
        for name in a_ckpt.params:
            np.testing.assert_array_equal(a_ckpt.params[name], b_ckpt.params[name])


TRAIN_COMMAND = "import sys\nfrom affectline.cli import main\nsys.exit(main(sys.argv[1:]))"


def test_cli_checkpoint_bit_equal_at_1_and_2_blas_threads(tmp_path):
    # full T 300 windows in one batch of 24 rows: each phase's weight-gradient
    # reduction runs over 2,416 rows
    corpus = tmp_path / "corpus"
    build_synthetic_corpus(corpus, per_class=5, duration_s=3.1)
    checkpoints = []
    for threads in (1, 2):
        out = tmp_path / f"run{threads}"
        run_at_blas_threads(threads, TRAIN_COMMAND, "train", "--corpus", str(corpus),
                            "--out", str(out), "--epochs", "2", "--seed", "3",
                            "--cache-dir", str(tmp_path / "cache"))
        checkpoints.append((out / "checkpoint.afl").read_bytes())
    assert checkpoints[0] == checkpoints[1]


class TestEvaluate:
    def test_overfit_model_perfect_on_train_records(self, overfit_run):
        records, config, ckpt, _ = overfit_run
        train_recs, _ = split_dataset(records, config)
        metrics = evaluate(ckpt, train_recs)
        assert metrics.accuracy == 1.0
        assert np.all(metrics.confusion == np.diag(np.diag(metrics.confusion)))
        assert metrics.confusion.sum() == len(train_recs)

    def test_confusion_row_sums_match_class_counts(self, overfit_run):
        records, config, ckpt, _ = overfit_run
        _, test_recs = split_dataset(records, config)
        metrics = evaluate(ckpt, test_recs)
        for i, label in enumerate(EMOTIONS):
            assert metrics.confusion[i].sum() == sum(
                1 for _, l in test_recs if l == label)

    def test_empty_records_is_error(self, overfit_run):
        *_, ckpt, _ = overfit_run
        with pytest.raises(DataError):
            evaluate(ckpt, [])

    def test_label_outside_emotions_fails_before_extraction(self, overfit_run, monkeypatch):
        records, _, ckpt, _ = overfit_run
        monkeypatch.setattr(train_eval, "extract_all", None)  # any extraction would fail
        with pytest.raises(DataError, match="'disgust'"):
            evaluate(ckpt, [*records[:3], (records[3][0], "disgust")])

    def test_zero_weight_model_predicts_class_zero(self, overfit_run):
        records, _, ckpt, _ = overfit_run
        zero = Checkpoint(model_spec=ckpt.model_spec,
                          params={k: np.zeros_like(v) for k, v in ckpt.params.items()},
                          opt_acc={}, features=ckpt.features,
                          normalization=ckpt.normalization)
        metrics = evaluate(zero, records[:12])
        assert metrics.confusion[:, 0].sum() == 12
        assert metrics.confusion[:, 1:].sum() == 0

    def test_decode_failures_listed(self, overfit_run, tmp_path):
        records, _, ckpt, _ = overfit_run
        broken = tmp_path / "03-01-01-01-01-01-02.wav"
        broken.write_bytes(b"garbage")
        metrics = evaluate(ckpt, [*records[:3], (broken, "neutral")])
        assert metrics.n_test == 3
        [(path, reason)] = metrics.failures
        assert path == broken and str(broken) in reason and "RIFF" in reason


class TestFeatureSettings:
    # as read from a checkpoint header, where the retired sample_rate_hz may
    # still appear: only its fixed value, 16000 as an int, loads
    @pytest.mark.parametrize("field", [{"sample_rate_hz": "16000"}, {"sample_rate_hz": 999},
                                       {"sample_rate_hz": 384001}, {"sample_rate_hz": 16000.0},
                                       {"t_fixed": 0}, {"t_fixed": 300.0},
                                       {"t_fixed": MAX_T_FIXED + 1}, {"t_fixed": 2 ** 70},
                                       {"sample_rate_hz": 1000}, {"sample_rate_hz": 384000}])
    def test_out_of_range_is_config_error(self, field):
        with pytest.raises(ConfigError, match=next(iter(field))):
            FeatureSettings(**drop_retired(field))

    def test_edge_values_accepted(self):
        assert FeatureSettings(**drop_retired({"sample_rate_hz": 16000, "t_fixed": 1})) \
            == FeatureSettings(t_fixed=1)
        assert FeatureSettings(t_fixed=MAX_T_FIXED).t_fixed == MAX_T_FIXED


class TestPredictLogits:
    def test_64_rows_peak_memory_bounded(self):
        # the model's arena holds ~1.4 MB a row at the default spec; before it,
        # one forward kept ~3 MB a row, and 64 rows in one forward peaked at ~143 MB
        model = Model(ModelSpec(), seed=3)
        x = np.random.default_rng(3).standard_normal((64, 41, 300)).astype(np.float32)
        tracemalloc.start()
        try:
            logits = predict_logits(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        np.testing.assert_array_equal(logits, model.forward(x))


    def test_normalized_value_beyond_float32_is_data_error(self):
        # a std that fits float32 but sits far below the features' scale
        fm = features.FeatureMatrix(values=np.full((41, 20), 3.0), n_valid_frames=20)
        tiny = features.NormalizationProfile(np.zeros(41), np.full(41, 1e-300))
        with pytest.raises(DataError, match="overflow float32"):
            train_eval._to_batch_array([fm], tiny)
        fits = features.NormalizationProfile(np.zeros(41), np.full(41, 1e-38))
        assert np.isfinite(train_eval._to_batch_array([fm], fits)).all()


def stacked_batch(matrices, profile):
    """The reference batch: each matrix copied whole to float64, its valid
    columns standardized in place, and the float64 stack cast once."""
    std = np.where(profile.std > 0, profile.std, 1.0)
    out = np.stack([m.values.astype(np.float64) for m in matrices])
    for x, m in zip(out, matrices):
        n = m.n_valid_frames
        x[:, :n] = (x[:, :n] - profile.mean[:, None]) / std[:, None]
    return out.astype(np.float32)


def random_corpus(seed):
    """1-8 matrices of one random width, their values at one scale from 1e-30
    to 1e30, some rows zero throughout, and a profile of a few of them with
    some stds zeroed: normalized values near 1 and near the scale."""
    rng = np.random.default_rng(seed)
    t_fixed, scale = int(rng.integers(1, 60)), 10.0 ** rng.uniform(-30, 30)
    zero_rows = rng.random(N_FEATURE_ROWS) < 0.2
    mats = []
    for _ in range(int(rng.integers(1, 9))):
        n_valid = int(rng.integers(1, t_fixed + 1))
        values = np.zeros((N_FEATURE_ROWS, t_fixed), dtype=np.float32)
        values[:, :n_valid] = scale * (rng.standard_normal((N_FEATURE_ROWS, n_valid))
                                       + rng.uniform(-3, 3, (N_FEATURE_ROWS, 1)))
        values[zero_rows] = 0.0
        mats.append(features.FeatureMatrix(values=values, n_valid_frames=n_valid))
    profile = compute_normalization(mats[:int(rng.integers(1, len(mats) + 1))])
    profile.std[rng.random(N_FEATURE_ROWS) < 0.1] = 0.0
    return mats, profile


def random_matrices(n_rows, t_fixed, seed):
    rng = np.random.default_rng(seed)
    mats = []
    for i in range(n_rows):
        values = rng.standard_normal((N_FEATURE_ROWS, t_fixed)).astype(np.float32) * 5 + 2
        n_valid = int(rng.integers(1, t_fixed + 1))
        values[:, n_valid:] = 0.0
        values.setflags(write=False)
        mats.append(features.FeatureMatrix(values=values, n_valid_frames=n_valid))
    return mats


class TestBatchArray:
    @pytest.mark.parametrize("with_profile", [True, False], ids=["profile", "identity"])
    def test_batch_bit_equal_to_stacked_form(self, with_profile):
        mats = random_matrices(40, 300, seed=1)
        profile = compute_normalization(mats[:10]) if with_profile else IDENTITY_PROFILE
        x = train_eval._to_batch_array(mats, profile)
        expected = stacked_batch(mats, profile)
        assert x.dtype == expected.dtype == np.float32
        assert x.shape == expected.shape == (40, N_FEATURE_ROWS, 300)
        assert x.tobytes() == expected.tobytes()
        if not with_profile:
            assert x.tobytes() == np.stack([m.values for m in mats]).tobytes()

    def test_batch_bit_equal_to_stacked_form_on_random_corpora(self):
        zero_std = 0
        for seed in range(300):
            mats, profile = random_corpus(seed)
            zero_std += np.count_nonzero(profile.std == 0)
            x = train_eval._to_batch_array(mats, profile)
            assert x.tobytes() == stacked_batch(mats, profile).tobytes(), seed
        assert zero_std > 300  # the zero-std rows, counted as 1, are exercised

    def test_peak_memory_near_the_batch(self):
        # a float64 stack and its np.abs copy peaked at 4x the float32 batch
        mats = random_matrices(200, 300, seed=2)
        profile = compute_normalization(mats[:10])
        tracemalloc.start()
        try:
            x = train_eval._to_batch_array(mats, profile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * x.nbytes

    def test_nan_value_is_data_error(self):
        mats = random_matrices(3, 20, seed=3)
        values = mats[1].values.copy()
        values[4, 0] = np.nan
        mats[1] = features.FeatureMatrix(values=values, n_valid_frames=mats[1].n_valid_frames)
        for profile in (IDENTITY_PROFILE, compute_normalization(mats[:1])):
            with pytest.raises(DataError, match="overflow float32"):
                train_eval._to_batch_array(mats, profile)


class TestCheckpointIO:
    def test_roundtrip_bit_identical_params_and_logits(self, overfit_run, tmp_path):
        records, _, ckpt, _ = overfit_run
        path = tmp_path / "model.afl"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        for name in ckpt.params:
            np.testing.assert_array_equal(loaded.params[name], ckpt.params[name])
        for name in ckpt.opt_acc:
            np.testing.assert_array_equal(loaded.opt_acc[name],
                                          ckpt.opt_acc[name].astype(np.float32))
        assert loaded.model_spec == ckpt.model_spec
        assert loaded.features == ckpt.features
        np.testing.assert_array_equal(loaded.normalization.mean,
                                      ckpt.normalization.mean)
        rng = np.random.default_rng(17)
        model_a = ckpt.model
        model_b = loaded.model
        for _ in range(5):
            x = rng.uniform(-1, 1, (1, 41, 100)).astype(np.float32)
            np.testing.assert_array_equal(model_a.forward(x), model_b.forward(x))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.afl"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(path)

    def test_version_mismatch(self, overfit_run, tmp_path):
        *_, ckpt, _ = overfit_run
        path = tmp_path / "v.afl"
        save_checkpoint(path, ckpt)
        raw = path.read_bytes()
        tampered = raw.replace(b'"version":1', b'"version":9', 1)
        path.write_bytes(tampered)
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    @pytest.mark.parametrize("section,key,value", [
        ("model_spec", "stride", 0), ("model_spec", "kernel", 0), ("model_spec", "kernel", 2.5),
        ("features", "t_fixed", -10), ("features", "resample_method", "zinc"),
        ("features", "sample_rate_hz", 16000.5), ("model_spec", "kernel", 500),
        ("model_spec", "conv_channels", [0]), ("model_spec", "pool_width", 3),
        ("model_spec", "pool_stride", 2), ("features", "resample_method", "linear"),
        ("features.frame", "window", "hann"), ("features.mfcc", "n_coeffs", 12),
        ("features.mfcc", "n_coeffs", 13.0), ("model_spec", "stratified", False),
        ("model_spec", "shuffle_each_epoch", 1), ("", "class_order", list(EMOTIONS[::-1])),
        ("features", "t_fixed", True), ("features", "sample_rate_hz", True),
        ("features.frame", "hop_samples", True), ("features.mfcc", "delta_window", True),
        ("features.mfcc", "n_fft", True), ("model_spec", "kernel", True),
        ("model_spec", "conv_channels", [8, 8, 12, 12, 16, True]),
        ("features.mfcc", "fmin_hz", 0), ("features.mfcc", "fmax_hz", 8000.0),
        ("features.mfcc", "log_floor", 1e-12), ("features.frame", "frame_len_samples", 512),
        ("features", "t_fixed", MAX_T_FIXED + 1), ("model_spec", "in_frames", 0),
        ("model_spec", "in_frames", 300.5), ("model_spec", "in_frames", 99),
        ("model_spec", "in_frames", True), ("model_spec", "pad", 0),
        ("model_spec", "in_channels", 40), ("model_spec", "n_classes", 5),
        ("model_spec", "conv_channels", [8, 8, 12, 12, 16, MAX_CONV_CHANNELS + 1]),
        ("normalization", "mean", [1.0, 2.0, 3.0]), ("normalization", "std", 5.0),
        ("normalization", "mean", [float("inf")] * 41), ("normalization", "std", None),
        ("normalization", "mean", [1e300] * 41), ("normalization", "std", [1.0] * 40 + [4e38]),
        ("", "normalization", None), ("", "normalization", [0.0] * 41)])
    def test_out_of_range_header_value_is_checkpoint_error(self, overfit_run, tmp_path,
                                                           section, key, value):
        *_, ckpt, _ = overfit_run
        path = tmp_path / "r.afl"
        save_checkpoint(path, ckpt)
        edit_header(path, lambda header: header_section(header, section).update({key: value}))
        with pytest.raises(CheckpointError, match="malformed header"):
            load_checkpoint(path)

    def test_header_with_retired_keys_at_fixed_values_loads(self, overfit_run, tmp_path):
        # as written before the retired keys were removed
        *_, ckpt, _ = overfit_run
        path = tmp_path / "old.afl"
        save_checkpoint(path, ckpt)

        def add_retired(header):
            header["model_spec"].update(stride=1, pool_width=0, pool_stride=0, kernel=3, pad=1,
                                        in_channels=41, in_frames=100, n_classes=6)
            header["features"].update(
                resample_method="sinc", sample_rate_hz=16000,
                frame={"frame_len_samples": 400, "hop_samples": 160, "window": "hamming"},
                mfcc={"n_fft": 512, "n_mels": 26, "fmin_hz": 0.0, "fmax_hz": 0.0,
                      "log_floor": 1e-10, "n_coeffs": 13, "delta_window": 2})

        edit_header(path, add_retired)
        old = load_checkpoint(path)
        assert old.model_spec == ckpt.model_spec and old.features == ckpt.features
        x = np.random.default_rng(18).uniform(-1, 1, (7, 41, 100)).astype(np.float32)
        assert old.model.forward(x).tobytes() == \
            ckpt.model.forward(x).tobytes()

    def test_in_frames_other_than_t_fixed_is_checkpoint_error(self, tmp_path):
        # headers written before in_frames was retired held t_fixed twice
        path = tmp_path / "frames.afl"
        save_untrained(path, ModelSpec(conv_channels=(4, 6)), t_fixed=30)
        edit_header(path, lambda header: header["model_spec"].update(in_frames=30))
        assert load_checkpoint(path).features.t_fixed == 30
        edit_header(path, lambda header: header["model_spec"].update(in_frames=20))
        with pytest.raises(CheckpointError, match="in_frames must equal t_fixed 30, got 20") \
                as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_seven_classes_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "seven.afl"
        save_untrained(path, ModelSpec(conv_channels=(4, 6)),
                       **{"fc.w": np.ones((7, 6), np.float32), "fc.b": np.zeros(7, np.float32)})
        with pytest.raises(CheckpointError, match="found .'fc.w', .7, 6.., expected"):
            load_checkpoint(path)
        edit_header(path, lambda header: header["model_spec"].update(n_classes=7))
        with pytest.raises(CheckpointError, match="n_classes is fixed at 6, got 7"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda header: header["model_spec"].update(conv_channels=[4, 7]),
        lambda header: header["model_spec"].update(conv_channels=[4, 6, 8]),
        lambda header: header["model_spec"].update(conv_channels=[MAX_CONV_CHANNELS] * 64),
        lambda header: header["tensors"].reverse(),
        lambda header: header["tensors"].pop(),
        lambda header: header["tensors"].append({"name": "rmsprop.conv1.w",
                                                 "shape": [4, 41, 3]}),
        lambda header: header["tensors"][0].update(shape=[4, 41, 5])],
        ids=["wider", "deeper", "widest", "reordered", "missing", "one accumulator",
             "kernel 5"])
    def test_tensors_that_do_not_fit_the_spec(self, tmp_path, edit):
        path = tmp_path / "fit.afl"
        save_untrained(path, ModelSpec(conv_channels=(4, 6)))
        edit_header(path, edit)
        with pytest.raises(CheckpointError, match="tensors do not fit conv_channels") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_truncated_names_byte_counts(self, overfit_run, tmp_path):
        *_, ckpt, _ = overfit_run
        path = tmp_path / "t.afl"
        save_checkpoint(path, ckpt)
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(CheckpointTruncatedError) as info:
            load_checkpoint(path)
        assert "expected" in str(info.value) and "got" in str(info.value)

    def test_failed_write_leaves_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "checkpoint.afl"
        save_untrained(path, ModelSpec(conv_channels=(4, 6)))
        before = path.read_bytes()
        disk_full_halfway(monkeypatch)
        with pytest.raises(OSError, match="No space left"):
            save_untrained(path, ModelSpec(conv_channels=(8, 8)))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.afl"]


def count_decodes(monkeypatch):
    """Paths decoded through ``train_eval.read_wav`` from now on: a cache miss each.
    A miss decodes the WavChunks it hashed, a call without a cache its path."""
    decoded = []
    read_wav = train_eval.read_wav
    monkeypatch.setattr(train_eval, "read_wav", lambda wav, *a, **k:
                        decoded.append(getattr(wav, "path", wav)) or read_wav(wav, *a, **k))
    return decoded


def canonical_key(raw):
    """Cache key digest of a 16 kHz 16-bit mono WAV with the 44-byte header
    ``make_wav_bytes`` writes: its length-prefixed fmt body, then the data
    bytes that a TINY_SETTINGS matrix reads."""
    data = raw[44:44 + 2 * TINY_BOUND]
    return hashlib.sha256(struct.pack("<I", 16) + raw[20:36] + data).hexdigest()[:20]


def flip_bit(raw, offset, bit):
    return raw[:offset] + bytes([raw[offset] ^ (1 << bit)]) + raw[offset + 1:]


def with_header(raw, **fields):
    """``raw`` with header fields replaced and its CRC recomputed: a valid checksum."""
    _, _, t, n_valid = struct.unpack_from("<4sIII", raw)
    fields = {"t": t, "n_valid": n_valid, **fields}
    body = struct.pack("<II", fields["t"], fields["n_valid"]) + raw[16:]
    return raw[:4] + struct.pack("<I", zlib.crc32(body)) + body


def lowest_set_bit(n):
    return (n & -n).bit_length() - 1


# Each damage defeats one check of the entry reader: the length, the magic,
# t_fixed, n_valid <= t_fixed, or the CRC (of everything after its field).
ENTRY_DAMAGE = {
    "truncated": lambda raw: raw[:-100],
    "garbage": lambda raw: b"not a feature entry\n" * 20,
    "longer": lambda raw: with_header(raw + bytes(4)),
    "empty": lambda raw: b"",
    "magic bit": lambda raw: flip_bit(raw, 0, 0),
    "crc bit": lambda raw: flip_bit(raw, 4, 3),
    # lowers n_valid, which stays <= t_fixed: only the CRC can tell
    "n_valid bit": lambda raw: flip_bit(raw, 12, lowest_set_bit(raw[12])),
    "values bit": lambda raw: flip_bit(raw, 16 + 4 * 57 + 3, 5),
    "other t_fixed": lambda raw: with_header(raw, t=99),
    "n_valid past t_fixed": lambda raw: with_header(raw, n_valid=101),
}


class TestFeatureCache:
    def test_cache_hit_is_bit_equal_to_fresh_extraction(self, synthetic_corpus, tmp_path,
                                                        monkeypatch):
        _, records = synthetic_corpus
        cache = tmp_path / "cache"
        path = records[0][0]
        first = extract_features(path, TINY_SETTINGS, cache)
        (entry,) = cache.iterdir()
        assert entry.suffix == ".afm"
        decoded = count_decodes(monkeypatch)
        second = extract_features(path, TINY_SETTINGS, cache)
        assert decoded == []  # a hit
        fresh = extract_features(path, TINY_SETTINGS, None)
        for fm in (first, second):
            assert fm.values.dtype == fresh.values.dtype == np.float32
            assert fm.values.shape == fresh.values.shape
            assert fm.values.tobytes() == fresh.values.tobytes()
            assert fm.n_valid_frames == fresh.n_valid_frames
            assert type(fm.n_valid_frames) is int

    def test_config_change_changes_key(self, synthetic_corpus, tmp_path):
        _, records = synthetic_corpus
        cache = tmp_path / "cache2"
        path = records[0][0]
        extract_features(path, TINY_SETTINGS, cache)
        n_before = len(list(cache.iterdir()))
        other = FeatureSettings(t_fixed=99)
        extract_features(path, other, cache)
        assert len(list(cache.iterdir())) == n_before + 1

    @pytest.mark.parametrize("damage", list(ENTRY_DAMAGE))
    def test_damaged_entry_is_a_miss(self, synthetic_corpus, tmp_path, monkeypatch, damage):
        _, records = synthetic_corpus
        cache = tmp_path / "cache"
        path = records[0][0]
        cold = extract_features(path, TINY_SETTINGS, cache)
        (entry,) = cache.iterdir()
        good = entry.read_bytes()
        assert good[12]  # "n_valid bit" flips a set bit of n_valid's low byte
        entry.write_bytes(ENTRY_DAMAGE[damage](good))
        decoded = count_decodes(monkeypatch)
        again = extract_features(path, TINY_SETTINGS, cache)
        assert decoded == [path]
        assert entry.read_bytes() == good  # rewritten in full
        assert again.n_valid_frames == cold.n_valid_frames
        assert again.values.dtype == cold.values.dtype
        assert again.values.tobytes() == cold.values.tobytes()

    def test_stale_npz_entry_is_never_opened(self, synthetic_corpus, tmp_path, monkeypatch):
        # an entry in the format written before the raw record: same key, .npz suffix
        _, records = synthetic_corpus
        cache = tmp_path / "cache"
        path = records[0][0]
        cold = extract_features(path, TINY_SETTINGS, cache)
        (entry,) = cache.iterdir()
        good = entry.read_bytes()
        entry.unlink()
        stale = entry.with_suffix(".npz")
        np.savez(stale, values=np.ones_like(cold.values), n_valid=1)
        stale_bytes = stale.read_bytes()
        decoded = count_decodes(monkeypatch)
        again = extract_features(path, TINY_SETTINGS, cache)
        assert decoded == [path]
        assert entry.read_bytes() == good
        assert stale.read_bytes() == stale_bytes  # left as it was
        assert again.n_valid_frames == cold.n_valid_frames
        assert again.values.tobytes() == cold.values.tobytes()

    def test_file_rewritten_after_its_read_caches_the_bytes_read(self, synthetic_corpus,
                                                                  tmp_path, monkeypatch):
        _, records = synthetic_corpus
        clip = tmp_path / records[0][0].name
        original = records[0][0].read_bytes()
        clip.write_bytes(original)
        read_chunks = train_eval.read_chunks

        def read_then_rewrite(p, max_samples):
            wav = read_chunks(p, max_samples)
            clip.write_bytes(records[1][0].read_bytes())  # another clip, same name
            return wav

        monkeypatch.setattr(train_eval, "read_chunks", read_then_rewrite)
        cache = tmp_path / "cache"
        fm = extract_features(clip, TINY_SETTINGS, cache)
        (entry,) = cache.iterdir()
        assert entry.name.startswith(canonical_key(original) + "-")
        monkeypatch.undo()
        expected = extract_features(records[0][0], TINY_SETTINGS, None)
        assert fm.values.tobytes() == expected.values.tobytes()
        clip.write_bytes(original)
        hit = extract_features(clip, TINY_SETTINGS, cache)
        assert hit.values.tobytes() == expected.values.tobytes()
        assert hit.n_valid_frames == expected.n_valid_frames

    def test_bytes_past_the_bound_are_a_hit(self, tmp_path, monkeypatch):
        raw = make_wav_bytes(0.3 * np.random.default_rng(1).standard_normal(2 * TINY_BOUND))
        clip, cache = tmp_path / "long.wav", tmp_path / "cache"
        clip.write_bytes(raw)
        first = extract_features(clip, TINY_SETTINGS, cache)
        (entry,) = cache.iterdir()
        assert entry.name.startswith(canonical_key(raw) + "-")
        decoded = count_decodes(monkeypatch)
        for edit in (lambda b: flip_bit(b, 44 + 2 * TINY_BOUND, 0),  # the first sample past it
                     lambda b: flip_bit(b, len(b) - 1, 7),
                     lambda b: b[:44 + 2 * TINY_BOUND]):  # cut at the bound
            clip.write_bytes(edit(raw))
            hit = extract_features(clip, TINY_SETTINGS, cache)
            assert hit.values.tobytes() == first.values.tobytes()
        assert decoded == [] and len(list(cache.iterdir())) == 1

    @pytest.mark.parametrize("offset", [24, 28, 32, 44, 44 + 2 * TINY_BOUND - 1],
                             ids=["rate", "byte rate", "block align", "first sample",
                                  "last sample read"])
    def test_one_flipped_byte_inside_what_is_read_is_a_miss(self, tmp_path, monkeypatch,
                                                             offset):
        # the byte rate and block align fields do not change the decode, but
        # they are part of the fmt body, which the key holds whole
        raw = make_wav_bytes(0.3 * np.random.default_rng(2).standard_normal(2 * TINY_BOUND))
        clip, cache = tmp_path / "clip.wav", tmp_path / "cache"
        clip.write_bytes(raw)
        extract_features(clip, TINY_SETTINGS, cache)
        decoded = count_decodes(monkeypatch)
        clip.write_bytes(flip_bit(raw, offset, 0))
        extract_features(clip, TINY_SETTINGS, cache)
        assert decoded == [clip]
        assert len(list(cache.iterdir())) == 2

    def test_clip_shorter_than_the_bound_is_keyed_on_all_its_data(self, tmp_path, monkeypatch):
        raw = make_wav_bytes(0.3 * np.random.default_rng(3).standard_normal(TINY_BOUND // 2))
        clip, cache = tmp_path / "short.wav", tmp_path / "cache"
        clip.write_bytes(raw)
        extract_features(clip, TINY_SETTINGS, cache)
        (entry,) = cache.iterdir()
        assert entry.name[:20] == hashlib.sha256(
            struct.pack("<I", 16) + raw[20:36] + raw[44:]).hexdigest()[:20]
        decoded = count_decodes(monkeypatch)
        clip.write_bytes(flip_bit(raw, len(raw) - 1, 0))  # its last sample
        extract_features(clip, TINY_SETTINGS, cache)
        assert decoded == [clip]

    def test_bytes_moved_between_fmt_and_data_change_the_key(self, tmp_path):
        # an 18-byte fmt body (cbSize 0) followed by data, and the same bytes
        # as a 16-byte body whose data starts with the cbSize field
        samples = make_wav_bytes(0.3 * np.random.default_rng(4).standard_normal(4000))[44:]
        fmt16 = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        cache = tmp_path / "cache"
        names = []
        for fmt, data in ((fmt16 + b"\0\0", samples), (fmt16, b"\0\0" + samples)):
            assert fmt + data == fmt16 + b"\0\0" + samples
            body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
                + b"data" + struct.pack("<I", len(data)) + data
            clip = tmp_path / f"fmt{len(fmt)}.wav"
            clip.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
            extract_features(clip, TINY_SETTINGS, cache)
            names.append(sorted(e.name for e in cache.iterdir()))
        assert len(names[0]) == 1 and len(names[1]) == 2  # the second clip missed

    def test_matrices_are_read_only(self, synthetic_corpus, tmp_path, monkeypatch):
        _, records = synthetic_corpus
        path = records[0][0]
        cache = tmp_path / "cache"
        decoded = count_decodes(monkeypatch)
        for cache_dir in (None, cache, cache):  # no cache, a miss, a hit
            values = extract_features(path, TINY_SETTINGS, cache_dir).values
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0, 0] = 1.0
        assert decoded == [path, path]

    def test_worker_matrices_are_read_only(self, synthetic_corpus, tmp_path):
        _, records = synthetic_corpus
        for cache_dir in (None, tmp_path / "cache", tmp_path / "cache"):  # no cache, a miss, a hit
            _, mats, _ = extract_all(records[:3], TINY_SETTINGS, cache_dir)
            assert len(mats) == 3
            assert not any(fm.values.flags.writeable for fm in mats)

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_jobs_other_than_one_is_config_error(self, synthetic_corpus, overfit_run, jobs):
        _, records = synthetic_corpus
        *_, ckpt, _ = overfit_run
        for call in (lambda: extract_all(records, TINY_SETTINGS, jobs=jobs),
                     lambda: train(records, TINY_SPEC, TrainConfig(epochs=0), TINY_SETTINGS,
                                   jobs=jobs),
                     lambda: evaluate(ckpt, records, jobs=jobs)):
            with pytest.raises(ConfigError, match=f"jobs must be 1 .*got {jobs}"):
                call()

    def test_settings_token_computed_once_per_settings(self, synthetic_corpus, tmp_path):
        _, records = synthetic_corpus
        train_eval._settings_token.cache_clear()
        for path, _ in records[:3]:
            extract_features(path, TINY_SETTINGS, tmp_path / "cache")
        info = train_eval._settings_token.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_feature_code_version_is_part_of_key(self, synthetic_corpus, tmp_path,
                                                  monkeypatch):
        _, records = synthetic_corpus
        cache = tmp_path / "cache"
        path = records[0][0]
        extract_features(path, TINY_SETTINGS, cache)
        decoded = count_decodes(monkeypatch)
        extract_features(path, TINY_SETTINGS, cache)
        assert decoded == []  # warm hit
        monkeypatch.setattr(train_eval, "FEATURE_CODE_VERSION",
                            features.FEATURE_CODE_VERSION + 1)
        extract_features(path, TINY_SETTINGS, cache)
        assert decoded == [path]

    def test_unreadable_paths_are_failures_with_a_cache(self, synthetic_corpus, tmp_path):
        root, records = synthetic_corpus
        folder = root / "03-01-01-01-02-01-02.wav"  # a directory named like a clip
        folder.mkdir()
        dangling = root / "03-01-02-01-02-01-02.wav"
        dangling.symlink_to(tmp_path / "gone.wav")
        subset = [records[0], (folder, "neutral"), (dangling, "calm")]
        kept, _, failures = extract_all(subset, TINY_SETTINGS, cache_dir=tmp_path / "cache")
        assert kept == subset[:1]
        assert [path for path, _ in failures] == [folder, dangling]
        assert all(reason.startswith(f"{path}: ") for path, reason in failures)

    def test_missing_nested_cache_dir_is_made_on_first_write(self, synthetic_corpus,
                                                             tmp_path):
        _, records = synthetic_corpus
        cache = tmp_path / "outer" / "inner"
        fm = extract_features(records[0][0], TINY_SETTINGS, cache)
        (entry,) = cache.iterdir()
        assert entry.suffix == ".afm"
        stored = train_eval._read_entry(entry, TINY_SETTINGS.t_fixed)
        assert stored.values.tobytes() == fm.values.tobytes()

    def test_failed_entry_write_leaves_no_temporary_file(self, synthetic_corpus, tmp_path,
                                                         monkeypatch):
        _, records = synthetic_corpus
        cache = tmp_path / "cache"
        cache.mkdir()
        disk_full_halfway(monkeypatch)
        with pytest.raises(OSError, match="No space left"):
            extract_features(records[0][0], TINY_SETTINGS, cache)
        assert list(cache.iterdir()) == []

    def test_entry_in_existing_cache_dir_makes_no_directory(self, synthetic_corpus, tmp_path,
                                                             monkeypatch):
        _, records = synthetic_corpus
        cache = tmp_path / "cache"
        extract_features(records[0][0], TINY_SETTINGS, cache)
        made = []
        mkdir = Path.mkdir

        def counting_mkdir(self, *args, **kwargs):
            made.append(self)
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        extract_features(records[1][0], TINY_SETTINGS, cache)
        assert made == []
        assert len(list(cache.iterdir())) == 2

    def test_one_row_per_label(self, overfit_run):
        records, *_ = overfit_run
        fm = extract_features(records[0][0], TINY_SETTINGS)
        assert fm.values.shape == (N_FEATURE_ROWS, TINY_SETTINGS.t_fixed)
        assert N_FEATURE_ROWS == len(FEATURE_ROW_LABELS) == Model(ModelSpec()).convs[0].in_ch

    def test_env_var_overrides_cache_location(self, tmp_path, monkeypatch):
        from affectline.train_eval import default_cache_dir
        monkeypatch.setenv("AFFECTLINE_CACHE_DIR", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"
        monkeypatch.delenv("AFFECTLINE_CACHE_DIR")
        assert default_cache_dir().name == "affectline"


class TestCsv:
    def test_metrics_csv_schema(self):
        metrics = Metrics(epochs=[], confusion=np.zeros((6, 6), dtype=np.int64))
        assert metrics_to_csv(metrics) == "epoch,train_acc,test_acc,train_loss\n"

    def test_confusion_csv_roundtrip(self):
        cm = np.arange(36).reshape(6, 6)
        text = confusion_to_csv(cm)
        lines = text.strip().split("\n")
        assert lines[0] == "true_label," + ",".join(EMOTIONS)
        parsed = np.array([[int(v) for v in line.split(",")[1:]] for line in lines[1:]])
        np.testing.assert_array_equal(parsed, cm)
