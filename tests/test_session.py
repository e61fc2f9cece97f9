import struct
import tracemalloc

import numpy as np
import pytest

from affectline import session, train_eval
from affectline.audio_io import EMOTION_INDEX, EMOTIONS, AudioDecodeError, read_wav
from affectline.checkpoint import Checkpoint, FeatureSettings
from affectline.errors import ConfigError, DataError
from affectline.features import (FRAME_LEN, HOP, NormalizationProfile, assemble_features,
                                 compute_normalization)
from affectline.nn import Model, ModelSpec
from affectline.session import (EmptySessionError, ManifestError, SegmentRecord,
                                classify_session, filter_fan, load_manifest,
                                render_report, sample_for_audit, synthesize_session)
from affectline.train_eval import confusion_matrix, evaluate, extract_features
from conftest import (IDENTITY_PROFILE, class_tone, label_by_truth, load_truth, make_wav_bytes,
                      sine, write_test_wav)


def labeled_clips(n, seed=0):
    """n clips whose labels cycle through the 6 emotions."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = EMOTIONS[i % len(EMOTIONS)]
        out.append((class_tone(i % len(EMOTIONS), rng, 0.3), label))
    return out


def untrained_checkpoint(normalization=IDENTITY_PROFILE, t_fixed=100):
    spec = ModelSpec(conv_channels=(4, 4, 4, 4, 4, 4))
    return Checkpoint(model_spec=spec, params=dict(Model(spec, seed=0).parameters()),
                      opt_acc={}, features=FeatureSettings(t_fixed=t_fixed),
                      normalization=normalization)


class TestManifest:
    def test_valid_rows(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text(
            "session_id,segment_id,source_label,audio_path,start_s,end_s\n"
            "s1,a,FAN,seg/a.wav,0.0,1.5\n"
            "s1,b,CHN,seg/b.wav,1.5,2.0\n"
            "s1,c,fan,seg/c.wav,2.0,3.0\n")
        result = load_manifest(m)
        assert len(result.records) == 3
        assert result.row_errors == [] and result.unknown_label_count == 0
        # case-insensitive label normalization
        assert result.records[2].source_label == "FAN"
        # relative paths resolve against the manifest directory
        assert result.records[0].audio_path == str(tmp_path / "seg/a.wav")

    def test_bad_interval_reported_with_line_number(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text(
            "session_id,segment_id,source_label,audio_path,start_s,end_s\n"
            "s1,a,FAN,a.wav,0.0,1.0\n"
            "s1,b,FAN,b.wav,2.0,2.0\n")
        result = load_manifest(m)
        assert len(result.records) == 1
        assert result.row_errors == [(3, "end_s 2.0 <= start_s 2.0")]

    @pytest.mark.parametrize("sid", ["../escaped", "a/b", "/abs", ".", ".."])
    def test_session_id_not_a_file_name_is_row_error(self, tmp_path, sid):
        m = tmp_path / "m.csv"
        m.write_text(
            "session_id,segment_id,source_label,audio_path,start_s,end_s\n"
            "s1,a,FAN,a.wav,0.0,1.0\n"
            f"{sid},b,FAN,b.wav,1.0,2.0\n")
        result = load_manifest(m)
        assert [r.session_id for r in result.records] == ["s1"]
        assert result.row_errors == [(3, f"session_id {sid!r} is not a plain file name")]

    def test_nul_is_manifest_error_naming_the_line(self, tmp_path):
        # the same on every Python: the csv module of 3.10 stops at a NUL
        m = tmp_path / "m.csv"
        m.write_text(
            "session_id,segment_id,source_label,audio_path,start_s,end_s\n"
            "s1,a,FAN,a.wav,0.0,1.0\n"
            "a\x00b,b,FAN,b.wav,1.0,2.0\n")
        with pytest.raises(ManifestError, match="line 3 holds a NUL character"):
            load_manifest(m)

    def test_unknown_label_maps_to_other(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text(
            "session_id,segment_id,source_label,audio_path,start_s,end_s\n"
            "s1,a,XYZ,a.wav,0.0,1.0\n")
        result = load_manifest(m)
        assert result.records[0].source_label == "OTHER"
        assert result.unknown_label_count == 1

    def test_missing_columns_fatal(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text("session_id,segment_id,audio_path\na,b,c\n")
        with pytest.raises(ManifestError):
            load_manifest(m)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "absent.csv")


def seg(session, i, label):
    return SegmentRecord(session_id=session, segment_id=f"{session}-{i}",
                         source_label=label, audio_path=f"/x/{i}.wav",
                         start_s=float(i), end_s=float(i) + 1.0)


class TestFilterFan:
    def test_mixed_labels(self):
        records = [seg("s", 0, "FAN"), seg("s", 1, "FAF"), seg("s", 2, "CHN"),
                   seg("s", 3, "FAN"), seg("s", 4, "MAF")]
        kept = filter_fan(records)
        assert [r.segment_id for r in kept] == ["s-0", "s-3"]

    def test_empty_and_identity(self):
        assert filter_fan([seg("s", 0, "CHN")]) == []
        fans = [seg("s", i, "FAN") for i in range(3)]
        assert filter_fan(fans) == fans

    def test_idempotent(self):
        records = [seg("s", i, l) for i, l in enumerate(["FAN", "FAF", "FAN"])]
        once = filter_fan(records)
        assert filter_fan(once) == once


class TestSynthesize:
    def test_manifest_and_truth_shape(self, tmp_path):
        clips = labeled_clips(10)
        bundle = synthesize_session(clips, tmp_path / "s", session_id="p1", seed=4)
        result = load_manifest(bundle.manifest_path)
        assert len(result.records) == 10
        assert all(r.source_label == "FAN" for r in result.records)
        truth = load_truth(bundle.truth_path)
        assert [truth[f"p1-{i:05d}"] for i in range(10)] == \
            [label for _, label in clips]
        # timeline is contiguous and increasing
        for a, b in zip(result.records, result.records[1:]):
            assert b.start_s == pytest.approx(a.end_s)

    def test_same_seed_byte_identical(self, tmp_path):
        clips = labeled_clips(5)
        b1 = synthesize_session(clips, tmp_path / "a", snr_db=12.0, seed=9)
        b2 = synthesize_session(clips, tmp_path / "b", snr_db=12.0, seed=9)
        assert b1.manifest_path.read_bytes() == b2.manifest_path.read_bytes()
        assert b1.truth_path.read_bytes() == b2.truth_path.read_bytes()
        for p1, p2 in zip(b1.segment_paths, b2.segment_paths):
            assert p1.read_bytes() == p2.read_bytes()

    def test_snr_is_respected(self, tmp_path):
        x = 0.4 * sine(350, 1.0)
        bundle = synthesize_session([(x, "happy")], tmp_path / "snr",
                                    snr_db=10.0, seed=3)
        y = read_wav(bundle.segment_paths[0])
        noise = y - x  # quantization error is negligible next to the noise
        measured = 20 * np.log10(np.sqrt(np.mean(x ** 2)) / np.sqrt(np.mean(noise ** 2)))
        assert abs(measured - 10.0) <= 0.5

    def test_no_clips_is_error(self, tmp_path):
        with pytest.raises(DataError):
            synthesize_session([], tmp_path / "e")

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_snr_is_config_error_before_any_file(self, tmp_path, snr_db):
        with pytest.raises(ConfigError, match="snr_db"):
            synthesize_session(labeled_clips(2), tmp_path / "n", snr_db=snr_db)
        assert not (tmp_path / "n").exists()

    @pytest.mark.parametrize("sid", ["../x", "a/b", "..", "", "a\x00b", "a\udcffb"])
    def test_path_session_id_is_config_error_before_any_file(self, tmp_path, sid):
        with pytest.raises(ConfigError, match="session id"):
            synthesize_session(labeled_clips(2), tmp_path / "out" / "n", session_id=sid)
        assert list(tmp_path.iterdir()) == []


class TestClassifySession:
    def test_known_distribution_recovered_exactly(self, tmp_path, monkeypatch):
        # construct-then-recover: an oracle returning true labels must
        # reproduce the construction distribution
        counts = {"angry": 5, "sad": 3, "calm": 1, "happy": 1}
        clips = []
        rng = np.random.default_rng(0)
        for label, n in counts.items():
            for _ in range(n):
                clips.append((class_tone(EMOTION_INDEX[label], rng, 0.2), label))
        bundle = synthesize_session(clips, tmp_path / "s", seed=1)
        records = load_manifest(bundle.manifest_path).records
        truth = load_truth(bundle.truth_path)
        label_by_truth(monkeypatch, truth)
        report = classify_session(None, records)
        expected = np.array([0, 1, 1, 3, 5, 0])
        np.testing.assert_array_equal(report.counts, expected)
        np.testing.assert_allclose(report.proportions,
                                   np.array([0, 0.1, 0.1, 0.3, 0.5, 0]))
        assert report.n_segments_total == 10
        assert report.n_segments_fan == 10
        assert abs(report.proportions.sum() - 1.0) <= 1e-9

    def test_permutation_invariant(self, tmp_path, monkeypatch):
        clips = labeled_clips(12, seed=5)
        bundle = synthesize_session(clips, tmp_path / "s", seed=2)
        records = load_manifest(bundle.manifest_path).records
        truth = load_truth(bundle.truth_path)
        label_by_truth(monkeypatch, truth)
        report_a = classify_session(None, records)
        rng = np.random.default_rng(8)
        shuffled = [records[i] for i in rng.permutation(len(records))]
        report_b = classify_session(None, shuffled)
        np.testing.assert_array_equal(report_a.counts, report_b.counts)
        np.testing.assert_array_equal(report_a.proportions, report_b.proportions)

    def test_non_fan_segments_not_classified(self, tmp_path, monkeypatch):
        clips = labeled_clips(6, seed=6)
        bundle = synthesize_session(clips, tmp_path / "s", seed=3)
        records = load_manifest(bundle.manifest_path).records
        # relabel half the rows as CHN
        demoted = [r if i % 2 == 0 else
                   SegmentRecord(r.session_id, r.segment_id, "CHN", r.audio_path,
                                 r.start_s, r.end_s)
                   for i, r in enumerate(records)]
        truth = load_truth(bundle.truth_path)
        label_by_truth(monkeypatch, truth)
        report = classify_session(None, demoted)
        assert report.n_segments_total == 6
        assert report.n_segments_fan == 3
        assert report.counts.sum() == 3

    def test_unreadable_segment_excluded_from_proportions(self, tmp_path, monkeypatch):
        clips = labeled_clips(4, seed=7)
        bundle = synthesize_session(clips, tmp_path / "s", seed=4)
        bundle.segment_paths[1].write_bytes(b"ruined")
        records = load_manifest(bundle.manifest_path).records
        truth = load_truth(bundle.truth_path)
        label_by_truth(monkeypatch, truth)
        report = classify_session(None, records)
        assert report.n_failed == 1
        assert report.failures == [(str(bundle.segment_paths[1]),
                                    f"{bundle.segment_paths[1]}: not a RIFF/WAVE file")]
        assert report.counts.sum() == 3
        assert abs(report.proportions.sum() - 1.0) <= 1e-9

    def test_zero_classifiable_is_error(self, tmp_path, monkeypatch):
        clips = labeled_clips(2, seed=8)
        bundle = synthesize_session(clips, tmp_path / "s", seed=5)
        for p in bundle.segment_paths:
            p.write_bytes(b"ruined")
        records = load_manifest(bundle.manifest_path).records
        truth = load_truth(bundle.truth_path)
        label_by_truth(monkeypatch, truth)
        with pytest.raises(EmptySessionError):
            classify_session(None, records)

    def test_multiple_sessions_rejected(self):
        records = [seg("s1", 0, "FAN"), seg("s2", 1, "FAN")]
        with pytest.raises(DataError):
            classify_session(None, records)

    def test_chunk_vote_on_long_segment(self, tmp_path):
        # untrained checkpoint: the contract here is only that voting over
        # feature-window chunks runs and aggregates into a single label
        ckpt = untrained_checkpoint()
        long_clip = np.tile(sine(320, 1.0), 5)  # ~3 windows of 1.6 s
        bundle = synthesize_session([(long_clip, "calm")], tmp_path / "long", seed=0)
        records = load_manifest(bundle.manifest_path).records
        plain = classify_session(ckpt, records)
        voted = classify_session(ckpt, records, chunk_vote=True)
        assert plain.counts.sum() == 1 and voted.counts.sum() == 1

    def test_model_input_bit_equal_to_evaluate(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        ckpt = untrained_checkpoint(compute_normalization(
            [assemble_features(0.3 * rng.standard_normal(16000), t_fixed=100)
             for _ in range(3)]))
        short = class_tone(2, rng, 0.5)  # shorter than one feature window
        bundle = synthesize_session([(short, EMOTIONS[2])], tmp_path / "s", seed=0)
        records = load_manifest(bundle.manifest_path).records
        inputs = []
        forward = Model.forward
        monkeypatch.setattr(Model, "forward",
                            lambda self, x: inputs.append(x.copy()) or forward(self, x))
        classify_session(ckpt, records)
        evaluate(ckpt, [(records[0].audio_path, EMOTIONS[2])])
        classified, evaluated = inputs
        assert classified.shape == evaluated.shape == (1, 41, 100)
        assert classified.dtype == evaluated.dtype == np.float32
        assert classified.tobytes() == evaluated.tobytes()


    def test_eval_and_classify_agree_clip_for_clip(self, tmp_path):
        # 65 clips: evaluate forwards four batches of 16 and one of 1, classify
        # one batch per segment; each clip's prediction must not depend on that
        clips = labeled_clips(65, seed=11)
        bundle = synthesize_session(clips, tmp_path / "s", seed=6)
        records = load_manifest(bundle.manifest_path).records
        truth = load_truth(bundle.truth_path)
        settings = FeatureSettings()
        profile = compute_normalization(
            [assemble_features(samples, t_fixed=settings.t_fixed) for samples, _ in clips])
        spec = ModelSpec()
        ckpt = Checkpoint(model_spec=spec, params=dict(Model(spec, seed=2).parameters()),
                          opt_acc={}, features=settings, normalization=profile)
        predicted = dict(classify_session(ckpt, records).predictions)
        y_true = np.array([EMOTION_INDEX[truth[r.segment_id]] for r in records])
        y_pred = np.array([EMOTION_INDEX[predicted[r.segment_id]] for r in records])
        assert len(set(y_pred)) > 1  # the comparison is not between constant outputs
        metrics = evaluate(ckpt, [(r.audio_path, truth[r.segment_id]) for r in records])
        assert metrics.n_test == 65
        np.testing.assert_array_equal(metrics.confusion, confusion_matrix(y_true, y_pred))


class TestOnePath:
    """A segment is labelled through eval's clip path: the leading window is one
    ``train_eval.extract_features`` call, each later window of the chunk vote
    one bounded ``read_wav`` from its start, and only the predictor reads audio."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The arguments of each ``train_eval.extract_features`` and
        ``session.read_wav`` call, by name."""
        calls = {"extract_features": [], "read_wav": []}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args):
                calls[name].append(args)
                return original(*args)
            monkeypatch.setattr(module, name, counted)

        counting(train_eval, "extract_features")
        counting(session, "read_wav")
        return calls

    @pytest.fixture
    def records(self, tmp_path):
        """Three FAN segments and one CHN segment."""
        bundle = synthesize_session(labeled_clips(4, seed=12), tmp_path / "s", seed=7)
        records = load_manifest(bundle.manifest_path).records
        return records[:3] + [SegmentRecord(records[3].session_id, records[3].segment_id,
                                            "CHN", records[3].audio_path, 0.0, 1.0)]

    def test_leading_window_is_one_extract_features_call(self, calls, records):
        ckpt = untrained_checkpoint()
        report = classify_session(ckpt, records)
        assert report.counts.sum() == 3
        assert calls["extract_features"] == [(r.audio_path, ckpt.features) for r in records[:3]]
        assert calls["read_wav"] == []

    @pytest.mark.parametrize("channels", [ModelSpec().conv_channels, (4, 4, 4, 4, 4, 4)],
                             ids=["default", "small"])
    def test_leading_window_labels_bit_equal_to_one_call(self, tmp_path, monkeypatch,
                                                         channels):
        # at the default spec and t_fixed 17 a row's logits can depend on the rows
        # forwarded with it, so the groups gathered across segments must be
        # predict_logits' own chunks over the readable segments
        n, broken, settings = 2 * train_eval.PREDICT_ROWS + 6, 19, FeatureSettings(t_fixed=17)
        rng = np.random.default_rng(14)
        clips = [(class_tone(k % 6, rng, 0.3), EMOTIONS[k % 6]) for k in range(n)]
        bundle = synthesize_session(clips, tmp_path / "s", seed=9)
        records = load_manifest(bundle.manifest_path).records
        bundle.segment_paths[broken].write_bytes(b"RIFF")
        with pytest.raises(AudioDecodeError) as broken_read:
            extract_features(records[broken].audio_path, settings)
        readable = records[:broken] + records[broken + 1:]
        matrices = [extract_features(r.audio_path, settings) for r in readable]
        spec = ModelSpec(conv_channels=channels)
        ckpt = Checkpoint(model_spec=spec, params=dict(Model(spec, seed=2).parameters()),
                          opt_acc={}, features=settings,
                          normalization=compute_normalization(matrices))
        logits, predict_logits = [], train_eval.predict_logits

        def grouped(model, x):
            logits.append(predict_logits(model, x))
            return logits[-1]
        monkeypatch.setattr(train_eval, "predict_logits", grouped)
        report = classify_session(ckpt, records)
        assert [len(g) for g in logits] == [16, 16, 5]
        one_call = predict_logits(ckpt.model,
                                  train_eval._to_batch_array(matrices, ckpt.normalization))
        assert np.concatenate(logits).tobytes() == one_call.tobytes()
        labels = [EMOTIONS[k] for k in one_call.argmax(axis=1)]
        assert len(set(labels)) > 1  # not a constant output
        assert report.predictions == [(r.segment_id, label) for r, label in zip(readable, labels)]
        assert report.failures == [(records[broken].audio_path, str(broken_read.value))]

    def test_chunk_vote_reads_later_windows_bounded_from_their_start(self, calls, tmp_path):
        # t_fixed 100: a window steps 16,000 samples and reads 16,880; the
        # segments hold 1, 2 and 3 windows
        rng = np.random.default_rng(13)
        clips = [(class_tone(i, rng, seconds), EMOTIONS[i])
                 for i, seconds in enumerate((0.5, 1.5, 3.0))]
        records = load_manifest(synthesize_session(clips, tmp_path / "s", seed=8)
                                .manifest_path).records
        ckpt = untrained_checkpoint()
        report = classify_session(ckpt, records, chunk_vote=True)
        assert report.counts.sum() == 3
        assert calls["extract_features"] == [(r.audio_path, ckpt.features) for r in records]
        assert calls["read_wav"] == [(records[1].audio_path, 16880, 16000),
                                     (records[2].audio_path, 16880, 16000),
                                     (records[2].audio_path, 16880, 32000)]

    @pytest.mark.parametrize("chunk_vote", [False, True])
    def test_other_data_error_propagates(self, records, chunk_vote):
        # a std far below the features' scale: their normalized values overflow float32
        ckpt = untrained_checkpoint(NormalizationProfile(mean=np.zeros(41),
                                                         std=np.full(41, 1e-300)))
        with pytest.raises(DataError, match="overflow float32") as info:
            classify_session(ckpt, records, chunk_vote=chunk_vote)
        assert not isinstance(info.value, AudioDecodeError)

    def test_decode_error_past_window_0_fails_only_the_chunk_vote(self, tmp_path):
        # t_fixed 100: window 0 reads samples 0-16,879, window 1 16,000-32,879
        x = 0.3 * sine(440, 2.5)
        x[24000] = np.nan
        path = write_test_wav(tmp_path / "nan.wav", x, fmt_code=3)
        clean = write_test_wav(tmp_path / "clean.wav", 0.3 * sine(330, 0.5))
        nan_segment = SegmentRecord("s", "nan", "FAN", str(path), 0.0, 2.5)
        records = [nan_segment, SegmentRecord("s", "clean", "FAN", str(clean), 2.5, 3.0)]
        ckpt = untrained_checkpoint()
        leading = classify_session(ckpt, records)
        assert [s for s, _ in leading.predictions] == ["nan", "clean"]
        assert leading.failures == []
        voted = classify_session(ckpt, records, chunk_vote=True)
        assert voted.failures == [(str(path), f"{path}: NaN or infinite float samples")]
        assert voted.predictions == [("clean", dict(leading.predictions)["clean"])]
        assert voted.counts.sum() == 1
        with pytest.raises(EmptySessionError, match="1 unreadable"):  # window 0 casts no vote
            classify_session(ckpt, [nan_segment], chunk_vote=True)

    def test_failed_chunk_vote_segment_is_not_forwarded(self, tmp_path, monkeypatch):
        # t_fixed 100: the read of window 1 or of window 16 fails, while window 0
        # or the full group of windows 0-15 waits: the segment's group is dropped,
        # so the clean segment's one window is the only row
        clean = write_test_wav(tmp_path / "clean.wav", 0.3 * sine(330, 0.5))
        rows, predict_logits = [], train_eval.predict_logits

        def counted(model, x):
            rows.append(len(x))
            return predict_logits(model, x)
        monkeypatch.setattr(train_eval, "predict_logits", counted)
        for seconds, nan_at in ((2.5, 24000), (17.5, 257000)):
            x = 0.3 * sine(440, seconds)
            x[nan_at] = np.nan
            path = write_test_wav(tmp_path / "nan.wav", x, fmt_code=3)
            records = [SegmentRecord("s", "nan", "FAN", str(path), 0.0, seconds),
                       SegmentRecord("s", "clean", "FAN", str(clean), seconds, seconds + 0.5)]
            rows.clear()
            voted = classify_session(untrained_checkpoint(), records, chunk_vote=True)
            assert [s for s, _ in voted.predictions] == ["clean"], seconds
            assert len(voted.failures) == 1 and rows == [1], seconds


def voted_windows(ckpt, path):
    """The matrices the chunk vote labels for the segment at ``path``, in order."""
    windows = []
    predict_labels = train_eval.predict_labels

    def capture(ckpt, matrices):
        windows.extend(matrices)
        return predict_labels(ckpt, matrices)
    train_eval.predict_labels = capture
    try:
        classify_session(ckpt, [SegmentRecord("s", "seg", "FAN", str(path), 0.0, 1.0)],
                         chunk_vote=True)
    finally:
        train_eval.predict_labels = predict_labels
    return windows


class TestChunkVoteWindows:
    """Window k of the chunk vote is eval's matrix of the segment cut at input
    frame k * t_fixed * HOP * rate // 16000; window 0 is eval's matrix itself."""

    RATES = [8000, 11025, 11127, 16000, 22050, 44100, 48000]

    @pytest.fixture(params=[300, 17])
    def t_fixed(self, request):
        return request.param

    def segment(self, tmp_path, rate, t_fixed):
        """Noise at ``rate`` over 2.5 window steps: two full windows and a part."""
        n = (5 * t_fixed * HOP // 2 + FRAME_LEN) * rate // 16000
        x = 0.3 * np.random.default_rng(rate + t_fixed).standard_normal(n)
        return x, write_test_wav(tmp_path / "segment.wav", np.clip(x, -1.0, 1.0), rate)

    @pytest.mark.parametrize("rate", RATES)
    def test_chunk_vote_window0_bit_equal_to_extract_features(self, tmp_path, rate, t_fixed):
        ckpt = untrained_checkpoint(t_fixed=t_fixed)
        _, path = self.segment(tmp_path, rate, t_fixed)
        window0 = voted_windows(ckpt, path)[0]
        assert window0.values.tobytes() == \
            extract_features(path, ckpt.features).values.tobytes()

    @pytest.mark.parametrize("rate", RATES)
    def test_chunk_vote_window_k_bit_equal_to_cut_file(self, tmp_path, rate, t_fixed):
        ckpt = untrained_checkpoint(t_fixed=t_fixed)
        x, path = self.segment(tmp_path, rate, t_fixed)
        windows = voted_windows(ckpt, path)
        assert [w.n_valid_frames == t_fixed for w in windows] == [True, True, False]
        for k, window in enumerate(windows):
            cut = write_test_wav(tmp_path / f"cut{k}.wav",
                                 np.clip(x[k * t_fixed * HOP * rate // 16000:], -1.0, 1.0), rate)
            assert window.values.tobytes() == \
                extract_features(cut, ckpt.features).values.tobytes(), k

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_window_count_at_16khz(self, tmp_path, k):
        # window j exists iff j * step <= max(len - FRAME_LEN, 0)
        ckpt = untrained_checkpoint(t_fixed=17)
        step = 17 * HOP
        for extra, expected in ((FRAME_LEN - 1, max(k, 1)), (FRAME_LEN, k + 1)):
            path = write_test_wav(tmp_path / f"{extra}.wav",
                                  0.3 * sine(440, (k * step + extra) / 16000))
            assert len(voted_windows(ckpt, path)) == expected, (k, extra)

    def test_chunk_vote_labels_bit_equal_to_one_call(self, tmp_path, monkeypatch):
        # at the default spec and t_fixed 17 a row's logits can depend on the rows
        # forwarded with it, so the groups must be predict_logits' own chunks
        n, step = 2 * train_eval.PREDICT_ROWS + 5, 17 * HOP
        rng = np.random.default_rng(3)
        x = np.concatenate([class_tone(k % 6, rng, step / 16000) for k in range(n + 1)])
        path = write_test_wav(tmp_path / "segment.wav", x[:n * step])
        windows = voted_windows(untrained_checkpoint(t_fixed=17), path)
        assert len(windows) == n
        spec = ModelSpec()
        ckpt = Checkpoint(model_spec=spec, params=dict(Model(spec, seed=2).parameters()),
                          opt_acc={}, features=FeatureSettings(t_fixed=17),
                          normalization=compute_normalization(windows))
        logits, predict_logits = [], train_eval.predict_logits

        def grouped(model, x):
            logits.append(predict_logits(model, x))
            return logits[-1]
        monkeypatch.setattr(train_eval, "predict_logits", grouped)
        report = classify_session(
            ckpt, [SegmentRecord("s", "seg", "FAN", str(path), 0.0, 1.0)], chunk_vote=True)
        assert [len(g) for g in logits] == [16, 16, 5]
        one_call = predict_logits(ckpt.model,
                                  train_eval._to_batch_array(windows, ckpt.normalization))
        assert np.concatenate(logits).tobytes() == one_call.tobytes()
        votes = np.bincount(one_call.argmax(axis=1), minlength=len(EMOTIONS))
        assert np.count_nonzero(votes) > 1, votes  # not a constant output
        assert report.predictions == [("seg", EMOTIONS[int(np.argmax(votes))])]

    def test_one_window_segment_same_label_in_both_modes(self, tmp_path):
        # at t_fixed 100 the longest one-window segment holds step + FRAME_LEN - 1
        # = 16,399 samples
        rng = np.random.default_rng(5)
        clips = [(class_tone(i % 6, rng, seconds), EMOTIONS[i % 6])
                 for i, seconds in enumerate([0.3, 0.6, 1.0, 16399 / 16000] * 3)]
        spec, settings = ModelSpec(), FeatureSettings(t_fixed=100)
        profile = compute_normalization([assemble_features(x, t_fixed=100) for x, _ in clips])
        ckpt = Checkpoint(model_spec=spec, params=dict(Model(spec, seed=2).parameters()),
                          opt_acc={}, features=settings, normalization=profile)
        records = load_manifest(synthesize_session(clips, tmp_path / "s", seed=2)
                                .manifest_path).records
        plain = classify_session(ckpt, records).predictions
        assert len({label for _, label in plain}) > 1  # not a constant output
        assert classify_session(ckpt, records, chunk_vote=True).predictions == plain


def long_segment(path, minutes):
    """48 kHz 16-bit mono WAV of ``minutes``: one second of a tone, repeated."""
    one_second = make_wav_bytes(0.3 * sine(440, 1.0, 48000), sample_rate=48000)
    size = (len(one_second) - 44) * 60 * minutes
    with path.open("wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + size) + one_second[8:40]
                 + struct.pack("<I", size))
        for _ in range(60 * minutes):
            fh.write(one_second[44:])
    return path


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLongSegmentMemory:
    """A leading-window matrix reads ~3 s of a segment, so the peak memory of
    classifying or extracting it does not grow with the segment's length (a
    whole decode at 48 kHz holds ~57 MB a minute); the chunk vote reads one
    such window at a time and labels ``PREDICT_ROWS`` of them at once."""

    MARGIN = 1e6  # bytes

    @pytest.fixture(scope="class")
    def segments(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("long")
        return {minutes: long_segment(root / f"{minutes}min.wav", minutes)
                for minutes in (1, 4, 16)}

    def test_leading_window_classify_peak(self, segments):
        ckpt = untrained_checkpoint(t_fixed=FeatureSettings().t_fixed)
        records = {m: [SegmentRecord("s", f"{m}min", "FAN", str(path), 0.0, 60.0 * m)]
                   for m, path in segments.items()}
        classify_session(ckpt, records[1])  # builds the 48 kHz plan and the model's arena
        peaks = {m: traced_peak(lambda: classify_session(ckpt, records[m])) for m in records}
        assert peaks[4] < peaks[1] + self.MARGIN, peaks
        assert peaks[4] < 20e6, peaks

    def chunk_vote_peaks(self, segments, minutes):
        ckpt = untrained_checkpoint(t_fixed=FeatureSettings().t_fixed)
        records = {m: [SegmentRecord("s", f"{m}min", "FAN", str(segments[m]), 0.0, 60.0 * m)]
                   for m in minutes}
        classify_session(ckpt, records[minutes[0]], chunk_vote=True)
        return {m: traced_peak(lambda: classify_session(ckpt, records[m], chunk_vote=True))
                for m in minutes}

    def test_chunk_vote_classify_peak(self, segments):
        # a window is read at a time, 20 a minute, and labelled with at most
        # PREDICT_ROWS - 1 others
        peaks = self.chunk_vote_peaks(segments, (1, 4))
        assert peaks[4] - peaks[1] < 3 * 4e6, peaks  # a whole decode holds ~57 MB a minute
        assert peaks[4] < 20e6, peaks

    def test_chunk_vote_peak_does_not_grow_with_the_segment(self, segments):
        # 320 windows against 80: the 49 KB matrices of all of them would add 12 MB
        peaks = self.chunk_vote_peaks(segments, (4, 16))
        assert peaks[16] < peaks[4] + 2e6, peaks

    def test_leading_window_peak_does_not_grow_with_the_session(self, tmp_path):
        # 64 short segments against 16: PREDICT_ROWS windows are read and labelled
        # at a time, so the 49 KB matrices of 48 more segments are never held
        ckpt = untrained_checkpoint(t_fixed=FeatureSettings().t_fixed)
        records = load_manifest(synthesize_session(labeled_clips(64, seed=15), tmp_path / "s")
                                .manifest_path).records
        classify_session(ckpt, records[:16])
        peaks = {n: traced_peak(lambda: classify_session(ckpt, records[:n])) for n in (16, 64)}
        assert peaks[64] < peaks[16] + self.MARGIN, peaks

    def test_extract_features_peak(self, segments, tmp_path):
        settings = FeatureSettings()
        extract_features(segments[1], settings)
        for cache in (None, "cache"):  # the segments' prefixes are equal: one cache each
            peaks = {m: traced_peak(lambda: extract_features(
                path, settings, cache and tmp_path / f"{cache}{m}")) for m, path in segments.items()}
            assert peaks[4] < peaks[1] + self.MARGIN, (cache, peaks)
            assert peaks[4] < 20e6, (cache, peaks)
        assert len(list((tmp_path / "cache4").iterdir())) == 1  # its miss wrote an entry


class TestRenderReport:
    def test_csv_roundtrip_and_svg(self, tmp_path, monkeypatch):
        clips = labeled_clips(6, seed=9)
        bundle = synthesize_session(clips, tmp_path / "s", seed=6)
        records = load_manifest(bundle.manifest_path).records
        truth = load_truth(bundle.truth_path)
        label_by_truth(monkeypatch, truth)
        report = classify_session(None, records)
        paths = render_report(report, tmp_path / "out")
        csv_path, svg_path = paths
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "emotion,count,proportion"
        parsed = {row.split(",")[0]: int(row.split(",")[1]) for row in lines[1:]}
        for i, name in enumerate(EMOTIONS):
            assert parsed[name] == int(report.counts[i])
        assert svg_path.read_text().startswith("<svg")

def test_uniform_distribution_proportions(tmp_path, monkeypatch):
    clips = labeled_clips(6, seed=10)  # exactly one clip per emotion
    bundle = synthesize_session(clips, tmp_path / "s", seed=7)
    records = load_manifest(bundle.manifest_path).records
    truth = load_truth(bundle.truth_path)
    label_by_truth(monkeypatch, truth)
    report = classify_session(None, records)
    np.testing.assert_array_equal(report.counts, np.ones(6, dtype=np.int64))
    np.testing.assert_allclose(report.proportions, np.full(6, 1 / 6))


def test_sample_for_audit_deterministic():
    records = [seg("s", i, "FAN") for i in range(30)]
    a = sample_for_audit(records, 5, seed=3)
    b = sample_for_audit(records, 5, seed=3)
    assert a == b and len(a) == 5
    assert sample_for_audit(records, 50, seed=3) == records
