import numpy as np
import pytest

from affectline.audio_io import EMOTION_INDEX, EMOTIONS, read_wav
from affectline.checkpoint import Checkpoint, FeatureSettings
from affectline.errors import ConfigError, DataError
from affectline.features import assemble_features, compute_normalization
from affectline.nn import Model, ModelSpec
from affectline.session import (EmptySessionError, ManifestError, SegmentRecord,
                                classify_session, filter_fan, load_manifest,
                                load_truth, render_report, sample_for_audit,
                                synthesize_session)
from affectline.train_eval import confusion_matrix, evaluate
from conftest import class_tone, sine


def labeled_clips(n, seed=0):
    """n clips whose labels cycle through the 6 emotions."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = EMOTIONS[i % len(EMOTIONS)]
        out.append((class_tone(i % len(EMOTIONS), rng, 0.3), label))
    return out


def truth_predictor(truth):
    return lambda record, samples: truth[record.segment_id]


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
    def test_known_distribution_recovered_exactly(self, tmp_path):
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
        report = classify_session(None, records, predict=truth_predictor(truth))
        expected = np.array([0, 1, 1, 3, 5, 0])
        np.testing.assert_array_equal(report.counts, expected)
        np.testing.assert_allclose(report.proportions,
                                   np.array([0, 0.1, 0.1, 0.3, 0.5, 0]))
        assert report.n_segments_total == 10
        assert report.n_segments_fan == 10
        assert abs(report.proportions.sum() - 1.0) <= 1e-9

    def test_permutation_invariant(self, tmp_path):
        clips = labeled_clips(12, seed=5)
        bundle = synthesize_session(clips, tmp_path / "s", seed=2)
        records = load_manifest(bundle.manifest_path).records
        truth = load_truth(bundle.truth_path)
        report_a = classify_session(None, records, predict=truth_predictor(truth))
        rng = np.random.default_rng(8)
        shuffled = [records[i] for i in rng.permutation(len(records))]
        report_b = classify_session(None, shuffled, predict=truth_predictor(truth))
        np.testing.assert_array_equal(report_a.counts, report_b.counts)
        np.testing.assert_array_equal(report_a.proportions, report_b.proportions)

    def test_non_fan_segments_not_classified(self, tmp_path):
        clips = labeled_clips(6, seed=6)
        bundle = synthesize_session(clips, tmp_path / "s", seed=3)
        records = load_manifest(bundle.manifest_path).records
        # relabel half the rows as CHN
        demoted = [r if i % 2 == 0 else
                   SegmentRecord(r.session_id, r.segment_id, "CHN", r.audio_path,
                                 r.start_s, r.end_s)
                   for i, r in enumerate(records)]
        truth = load_truth(bundle.truth_path)
        report = classify_session(None, demoted, predict=truth_predictor(truth))
        assert report.n_segments_total == 6
        assert report.n_segments_fan == 3
        assert report.counts.sum() == 3

    def test_unreadable_segment_excluded_from_proportions(self, tmp_path):
        clips = labeled_clips(4, seed=7)
        bundle = synthesize_session(clips, tmp_path / "s", seed=4)
        bundle.segment_paths[1].write_bytes(b"ruined")
        records = load_manifest(bundle.manifest_path).records
        truth = load_truth(bundle.truth_path)
        report = classify_session(None, records, predict=truth_predictor(truth))
        assert report.n_failed == 1
        assert report.failures == [(str(bundle.segment_paths[1]),
                                    f"{bundle.segment_paths[1]}: not a RIFF/WAVE file")]
        assert report.counts.sum() == 3
        assert abs(report.proportions.sum() - 1.0) <= 1e-9

    def test_zero_classifiable_is_error(self, tmp_path):
        clips = labeled_clips(2, seed=8)
        bundle = synthesize_session(clips, tmp_path / "s", seed=5)
        for p in bundle.segment_paths:
            p.write_bytes(b"ruined")
        records = load_manifest(bundle.manifest_path).records
        truth = load_truth(bundle.truth_path)
        with pytest.raises(EmptySessionError):
            classify_session(None, records, predict=truth_predictor(truth))

    def test_multiple_sessions_rejected(self):
        records = [seg("s1", 0, "FAN"), seg("s2", 1, "FAN")]
        with pytest.raises(DataError):
            classify_session(None, records, predict=lambda r, samples: "sad")

    def test_chunk_vote_on_long_segment(self, tmp_path):
        # untrained checkpoint: the contract here is only that voting over
        # feature-window chunks runs and aggregates into a single label
        spec = ModelSpec(conv_channels=(4, 4, 4, 4, 4, 4))
        model = Model(spec, seed=0)
        ckpt = Checkpoint(model_spec=spec,
                          params=dict(model.parameters()),
                          opt_acc={}, features=FeatureSettings(t_fixed=100),
                          normalization=None)
        long_clip = np.tile(sine(320, 1.0), 5)  # ~3 windows of 1.6 s
        bundle = synthesize_session([(long_clip, "calm")], tmp_path / "long", seed=0)
        records = load_manifest(bundle.manifest_path).records
        plain = classify_session(ckpt, records)
        voted = classify_session(ckpt, records, chunk_vote=True)
        assert plain.counts.sum() == 1 and voted.counts.sum() == 1

    def test_model_input_matches_evaluate(self, tmp_path, monkeypatch):
        spec = ModelSpec(conv_channels=(4, 4, 4, 4, 4, 4))
        settings = FeatureSettings(t_fixed=100)
        rng = np.random.default_rng(4)
        profile = compute_normalization(
            [assemble_features(0.3 * rng.standard_normal(16000), t_fixed=100)
             for _ in range(3)])
        ckpt = Checkpoint(model_spec=spec, params=dict(Model(spec, seed=0).parameters()),
                          opt_acc={}, features=settings, normalization=profile)
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
        # 65 clips: evaluate forwards a batch of 64 and a batch of 1, classify
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


class TestRenderReport:
    def test_csv_roundtrip_and_svg(self, tmp_path):
        clips = labeled_clips(6, seed=9)
        bundle = synthesize_session(clips, tmp_path / "s", seed=6)
        records = load_manifest(bundle.manifest_path).records
        truth = load_truth(bundle.truth_path)
        report = classify_session(None, records, predict=truth_predictor(truth))
        paths = render_report(report, tmp_path / "out")
        csv_path, svg_path = paths
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "emotion,count,proportion"
        parsed = {row.split(",")[0]: int(row.split(",")[1]) for row in lines[1:]}
        for i, name in enumerate(EMOTIONS):
            assert parsed[name] == int(report.counts[i])
        assert svg_path.read_text().startswith("<svg")

def test_uniform_distribution_proportions(tmp_path):
    clips = labeled_clips(6, seed=10)  # exactly one clip per emotion
    bundle = synthesize_session(clips, tmp_path / "s", seed=7)
    records = load_manifest(bundle.manifest_path).records
    truth = load_truth(bundle.truth_path)
    report = classify_session(None, records, predict=truth_predictor(truth))
    np.testing.assert_array_equal(report.counts, np.ones(6, dtype=np.int64))
    np.testing.assert_allclose(report.proportions, np.full(6, 1 / 6))


def test_sample_for_audit_deterministic():
    records = [seg("s", i, "FAN") for i in range(30)]
    a = sample_for_audit(records, 5, seed=3)
    b = sample_for_audit(records, 5, seed=3)
    assert a == b and len(a) == 5
    assert sample_for_audit(records, 50, seed=3) == records
