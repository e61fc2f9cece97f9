import io
import tracemalloc

import numpy as np
import pytest

from affectline import features, train_eval
from affectline.audio_io import EMOTIONS
from affectline.checkpoint import (Checkpoint, CheckpointError, CheckpointMagicError,
                                   CheckpointTruncatedError,
                                   CheckpointVersionError, FeatureSettings,
                                   load_checkpoint, save_checkpoint)
from affectline.errors import ConfigError, DataError, DivergenceError
from affectline.features import FEATURE_ROW_LABELS, N_FEATURE_ROWS, MfccConfig
from affectline.nn import Model, ModelSpec
from affectline.train_eval import (Metrics, SplitError, TrainConfig,
                                   confusion_to_csv, evaluate, extract_all,
                                   extract_features, metrics_to_csv,
                                   predict_logits, split_dataset, train)
from conftest import build_synthetic_corpus, edit_header, header_section

TINY_SPEC = ModelSpec(in_channels=41, in_frames=100,
                      conv_channels=(8, 8, 12, 12, 16, 16))
TINY_SETTINGS = FeatureSettings(t_fixed=100)


def fake_records(counts):
    """(path, label) records with the given per-class counts."""
    records = []
    for label, n in counts.items():
        for i in range(n):
            records.append((f"/fake/{label}/{i:03d}.wav", label))
    return records


class TestSplit:
    def test_per_class_test_count_rule(self):
        counts = {"neutral": 20, "calm": 17, "happy": 16, "sad": 18,
                  "angry": 15, "fearful": 14}
        config = TrainConfig(seed=1)
        train_recs, test_recs = split_dataset(fake_records(counts), config)
        for label, n in counts.items():
            n_test = sum(1 for _, l in test_recs if l == label)
            assert n_test == round(0.2 * n)
        assert len(train_recs) + len(test_recs) == sum(counts.values())

    def test_same_seed_identical_split(self):
        records = fake_records({e: 12 for e in EMOTIONS})
        a = split_dataset(records, TrainConfig(seed=9))
        b = split_dataset(records, TrainConfig(seed=9))
        assert a == b
        c = split_dataset(records, TrainConfig(seed=10))
        assert c != a

    def test_half_ratio_exact_five_five(self):
        records = fake_records({e: 10 for e in EMOTIONS})
        train_recs, test_recs = split_dataset(
            records, TrainConfig(seed=3, split_ratio=0.5))
        for label in EMOTIONS:
            assert sum(1 for _, l in train_recs if l == label) == 5
            assert sum(1 for _, l in test_recs if l == label) == 5

    def test_disjoint_union(self):
        records = fake_records({e: 7 for e in EMOTIONS})
        train_recs, test_recs = split_dataset(records, TrainConfig(seed=5))
        assert set(train_recs) & set(test_recs) == set()
        assert sorted(train_recs + test_recs) == sorted(records)

    def test_small_class_rejected(self):
        records = fake_records({"neutral": 1, "calm": 5})
        with pytest.raises(SplitError):
            split_dataset(records, TrainConfig(seed=0))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(split_ratio=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)


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

    def test_normalization_uses_train_split_only(self, synthetic_corpus):
        _, records = synthetic_corpus
        config = TrainConfig(epochs=1, seed=13)
        seen = []
        train(records, TINY_SPEC, config, TINY_SETTINGS,
              on_normalization=seen.append)
        train_recs, test_recs = split_dataset(records, config)
        assert seen[0] == [path for path, _ in train_recs]
        assert not set(seen[0]) & {path for path, _ in test_recs}

    def test_deterministic_metrics_and_params(self, synthetic_corpus):
        _, records = synthetic_corpus
        config = TrainConfig(epochs=3, seed=21)
        a_ckpt, a_metrics = train(records, TINY_SPEC, config, TINY_SETTINGS)
        b_ckpt, b_metrics = train(records, TINY_SPEC, config, TINY_SETTINGS)
        assert metrics_to_csv(a_metrics) == metrics_to_csv(b_metrics)
        for name in a_ckpt.params:
            np.testing.assert_array_equal(a_ckpt.params[name], b_ckpt.params[name])


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
    @pytest.mark.parametrize("field", [{"sample_rate_hz": "16000"}, {"sample_rate_hz": 999},
                                       {"sample_rate_hz": 384001}, {"sample_rate_hz": 16000.0},
                                       {"t_fixed": 0}, {"t_fixed": 300.0}])
    def test_out_of_range_is_config_error(self, field):
        with pytest.raises(ConfigError, match=next(iter(field))):
            FeatureSettings(**field)

    def test_edge_values_accepted(self):
        FeatureSettings(sample_rate_hz=1000, t_fixed=1)
        FeatureSettings(sample_rate_hz=384000)


class TestPredictLogits:
    def test_64_rows_peak_memory_bounded(self):
        # one forward keeps every layer's cache for its rows, ~3 MB a row at
        # the default spec: 64 rows in one forward peaked at ~143 MB
        model = Model(ModelSpec(), seed=3)
        x = np.random.default_rng(3).standard_normal((64, 41, 300)).astype(np.float32)
        tracemalloc.start()
        try:
            logits = predict_logits(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        np.testing.assert_array_equal(logits, predict_logits(model, x, batch=64))


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
        model_a = ckpt.build_model()
        model_b = loaded.build_model()
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
        ("model_spec", "conv_channels", [8, 8, 12, 12, 16, True])])
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
            header["model_spec"].update(stride=1, pool_width=0, pool_stride=0)
            header["features"]["resample_method"] = "sinc"
            header["features"]["frame"]["window"] = "hamming"
            header["features"]["mfcc"]["n_coeffs"] = 13

        edit_header(path, add_retired)
        old = load_checkpoint(path)
        assert old.model_spec == ckpt.model_spec and old.features == ckpt.features
        x = np.random.default_rng(18).uniform(-1, 1, (7, 41, 100)).astype(np.float32)
        assert old.build_model().forward(x).tobytes() == \
            ckpt.build_model().forward(x).tobytes()

    def test_truncated_names_byte_counts(self, overfit_run, tmp_path):
        *_, ckpt, _ = overfit_run
        path = tmp_path / "t.afl"
        save_checkpoint(path, ckpt)
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(CheckpointTruncatedError) as info:
            load_checkpoint(path)
        assert "expected" in str(info.value) and "got" in str(info.value)


class TestFeatureCache:
    def test_cache_hit_matches_fresh_extraction(self, synthetic_corpus, tmp_path):
        _, records = synthetic_corpus
        cache = tmp_path / "cache"
        path = records[0][0]
        first = extract_features(path, TINY_SETTINGS, cache)
        assert any(cache.iterdir())
        second = extract_features(path, TINY_SETTINGS, cache)
        fresh = extract_features(path, TINY_SETTINGS, None)
        np.testing.assert_array_equal(first.values, second.values)
        np.testing.assert_array_equal(first.values, fresh.values)

    def test_config_change_changes_key(self, synthetic_corpus, tmp_path):
        _, records = synthetic_corpus
        cache = tmp_path / "cache2"
        path = records[0][0]
        extract_features(path, TINY_SETTINGS, cache)
        n_before = len(list(cache.iterdir()))
        other = FeatureSettings(t_fixed=100, mfcc=MfccConfig(n_mels=24))
        extract_features(path, other, cache)
        assert len(list(cache.iterdir())) == n_before + 1

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "missing_array"])
    def test_damaged_entry_is_a_miss(self, synthetic_corpus, tmp_path, damage):
        _, records = synthetic_corpus
        cache = tmp_path / "cache"
        path = records[0][0]
        cold = extract_features(path, TINY_SETTINGS, cache)
        (entry,) = cache.iterdir()
        partial = io.BytesIO()
        np.savez(partial, values=cold.values)
        entry.write_bytes({"truncated": entry.read_bytes()[:-100],
                           "garbage": b"not an npz archive\n" * 20,
                           "empty": b"",
                           "missing_array": partial.getvalue()}[damage])
        again = extract_features(path, TINY_SETTINGS, cache)
        assert again.n_valid_frames == cold.n_valid_frames
        assert again.values.dtype == cold.values.dtype
        assert again.values.tobytes() == cold.values.tobytes()
        with np.load(entry) as z:  # rewritten in full
            assert z["values"].tobytes() == cold.values.tobytes()
            assert int(z["n_valid"]) == cold.n_valid_frames

    def test_feature_code_version_is_part_of_key(self, synthetic_corpus, tmp_path,
                                                  monkeypatch):
        _, records = synthetic_corpus
        cache = tmp_path / "cache"
        path = records[0][0]
        extract_features(path, TINY_SETTINGS, cache)
        decoded = []
        read_wav = train_eval.read_wav
        monkeypatch.setattr(train_eval, "read_wav",
                            lambda *a, **k: decoded.append(a[0]) or read_wav(*a, **k))
        extract_features(path, TINY_SETTINGS, cache)
        assert decoded == []  # warm hit
        monkeypatch.setattr(train_eval, "FEATURE_CODE_VERSION",
                            features.FEATURE_CODE_VERSION + 1)
        extract_features(path, TINY_SETTINGS, cache)
        assert decoded == [path]

    def test_parallel_extraction_matches_serial(self, synthetic_corpus):
        _, records = synthetic_corpus
        subset = records[:8]
        kept1, mats1, _ = extract_all(subset, TINY_SETTINGS, jobs=1)
        kept2, mats2, _ = extract_all(subset, TINY_SETTINGS, jobs=2)
        assert kept1 == kept2
        for a, b in zip(mats1, mats2):
            np.testing.assert_array_equal(a.values, b.values)

    def test_one_row_per_label(self, overfit_run):
        records, *_ = overfit_run
        fm = extract_features(records[0][0], TINY_SETTINGS)
        assert fm.values.shape == (N_FEATURE_ROWS, TINY_SETTINGS.t_fixed)
        assert N_FEATURE_ROWS == len(FEATURE_ROW_LABELS) == ModelSpec().in_channels

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
