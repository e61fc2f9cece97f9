import tracemalloc

import numpy as np
import pytest

from affectline import audio_io
from affectline.audio_io import (_MAX_TAPS, _polyphase_bank, _tap_values,  # oracle_resample
                                 CorpusFilter, CorpusEmptyError, EmptyAudioError,
                                 MalformedNameError, OutOfScopeEmotionError,
                                 UnreadableFileError, UnsupportedEncodingError,
                                 parse_ravdess_name, read_wav,
                                 render_ravdess_name, resample, scan_corpus,
                                 write_wav)
from affectline.cli import main
from conftest import make_wav_bytes, sine, write_test_wav


def naive_dft_magnitudes(x, n_bins, chunk=256):
    """Direct DFT |X_k| for k in 0..n_bins-1, built from the definition."""
    n = len(x)
    mags = np.empty(n_bins)
    for start in range(0, n_bins, chunk):
        k = np.arange(start, min(start + chunk, n_bins))
        basis = np.exp(-2j * np.pi * k[:, None] * np.arange(n)[None, :] / n)
        mags[start:start + len(k)] = np.abs(basis @ x)
    return mags


# The gather-based sinc resampler that preceded the per-residue and GEMM
# ones, kept verbatim as the reference: every output row gathers its input
# window by fancy indexing and sums window * taps.
_CHUNK = 8192


def oracle_resample(x: np.ndarray, sr_in: int, sr_out: int, method: str = "sinc") -> np.ndarray:
    """Convert ``x`` from ``sr_in`` to ``sr_out``.

    ``"sinc"`` is a Kaiser-windowed sinc filter (beta 8.6, 32 zero
    crossings per side at the lower of the two rates); ``"linear"`` trades
    stopband rejection for speed.
    """
    x = np.asarray(x, dtype=np.float64)
    if sr_in == sr_out:
        return x.copy()
    n_out = int(round(len(x) * sr_out / sr_in))
    if n_out == 0:
        return np.zeros(0)
    if method == "linear":
        t_out = np.arange(n_out) * (sr_in / sr_out)
        return np.interp(t_out, np.arange(len(x)), x)
    if method != "sinc":
        raise ValueError(f"unknown resample method {method!r}")

    up, down, pad, offsets, scale, half_width, bank = _polyphase_bank(sr_in, sr_out)
    rows = max(1, min(_CHUNK, _MAX_TAPS // len(offsets)))
    xp = np.pad(x, (pad, pad))
    out = np.empty(n_out)
    for start in range(0, n_out, rows):
        n = np.arange(start, min(start + rows, n_out), dtype=np.int64)
        k0 = (n * down) // up  # integer input position
        phase = (n * down) % up
        taps = (bank[phase] if bank is not None
                else _tap_values(phase / up, offsets, scale, half_width))
        seg = xp[(k0[:, None] + pad) + offsets[None, :]]
        out[n[0]:n[-1] + 1] = (seg * taps).sum(axis=1)
    return out


class TestReadWav:
    def test_silence_roundtrip(self, tmp_path):
        path = write_test_wav(tmp_path / "s.wav", np.zeros(16000))
        clip = read_wav(path)
        assert len(clip.samples) == 16000
        assert np.all(clip.samples == 0.0)
        assert clip.sample_rate_hz == 16000

    def test_stereo_identical_channels_downmix(self, tmp_path):
        mono = sine(300, 0.25)
        path = write_test_wav(tmp_path / "st.wav", mono, channels=2)
        clip = read_wav(path)
        ref = read_wav(write_test_wav(tmp_path / "mono.wav", mono))
        np.testing.assert_allclose(clip.samples, ref.samples, atol=1e-9)

    def test_resampled_sine_peak_within_one_bin(self, tmp_path):
        # independent oracle: direct-DFT magnitude spectrum of the output
        path = write_test_wav(tmp_path / "hi.wav", sine(440, 0.25, 48000, amp=0.8),
                              sample_rate=48000)
        clip = read_wav(path)
        assert clip.sample_rate_hz == 16000
        n = len(clip.samples)
        mags = naive_dft_magnitudes(clip.samples, n // 2 + 1)
        peak_hz = int(np.argmax(mags)) * 16000 / n
        assert abs(peak_hz - 440.0) <= 16000 / n + 1e-9

    @pytest.mark.parametrize("bits,fmt_code", [(8, 1), (24, 1), (32, 3)])
    def test_supported_encodings(self, tmp_path, bits, fmt_code):
        x = sine(500, 0.1, amp=0.5)
        path = write_test_wav(tmp_path / f"b{bits}_{fmt_code}.wav", x,
                              bits=bits, fmt_code=fmt_code)
        clip = read_wav(path)
        tol = 1.5 / 128 if bits == 8 else 1e-4
        np.testing.assert_allclose(clip.samples, x, atol=tol)

    def test_amplitudes_within_unit_range(self, tmp_path):
        x = np.clip(sine(440, 0.1) * 1.5, -1, 1)  # clipped square-ish, rings on resample
        path = write_test_wav(tmp_path / "loud.wav", x, sample_rate=48000)
        clip = read_wav(path)
        assert clip.samples.max() <= 1.0 and clip.samples.min() >= -1.0

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not RIFF data at all")
        with pytest.raises(UnreadableFileError):
            read_wav(path)
        with pytest.raises(UnreadableFileError):
            read_wav(tmp_path / "missing.wav")

    def test_unsupported_encoding(self, tmp_path):
        raw = bytearray(make_wav_bytes(np.zeros(100)))
        raw[20:22] = (85).to_bytes(2, "little")  # format code 85 = MP3-in-WAV
        path = tmp_path / "mp3ish.wav"
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedEncodingError):
            read_wav(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_samples_rejected(self, tmp_path, bad):
        x = sine(500, 0.1, amp=0.5)
        x[17] = bad
        path = write_test_wav(tmp_path / "nan.wav", x, fmt_code=3)
        with pytest.raises(UnsupportedEncodingError, match="NaN or infinite"):
            read_wav(path)

    @pytest.mark.parametrize("rate", [0, 999, 384001, 4_000_000_000])
    def test_out_of_range_rate_rejected_before_resampling(self, tmp_path, monkeypatch, rate):
        def refuse(*args, **kwargs):
            raise AssertionError("resample called")
        monkeypatch.setattr(audio_io, "resample", refuse)
        raw = bytearray(make_wav_bytes(np.zeros(100)))
        raw[24:28] = rate.to_bytes(4, "little")
        path = tmp_path / "rate.wav"
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedEncodingError, match=f"sample rate {rate} Hz"):
            read_wav(path)

    @pytest.mark.parametrize("rate", [1000, 384000])
    def test_edge_rates_accepted(self, tmp_path, rate):
        path = write_test_wav(tmp_path / "edge.wav", np.zeros(rate // 10), sample_rate=rate)
        assert len(read_wav(path).samples) == 1600

    def test_zero_length_audio(self, tmp_path):
        path = write_test_wav(tmp_path / "empty.wav", np.zeros(0))
        with pytest.raises(EmptyAudioError):
            read_wav(path)


class TestResample:
    def test_identity_rate(self):
        x = sine(100, 0.05)
        np.testing.assert_array_equal(resample(x, 16000, 16000), x)

    def test_output_length(self):
        assert len(resample(np.zeros(48000), 48000, 16000)) == 16000
        assert len(resample(np.zeros(44100), 44100, 16000)) == 16000

    def test_tone_amplitude_preserved(self):
        y = resample(sine(1000, 0.5, 48000), 48000, 16000)
        assert abs(np.abs(y[1000:-1000]).max() - 1.0) < 1e-3

    @pytest.mark.parametrize("sr_in", [1000, 8000, 11025, 22050, 32000, 44100, 48000, 96000,
                                       384000, 44099, 95999])
    def test_matches_gather_oracle(self, sr_in):
        up = _polyphase_bank(sr_in, 16000)[0]
        rng = np.random.default_rng(sr_in)
        # 44099 and 95999 Hz have no phase bank; 1000 to 11025 Hz upsample
        for n in sorted({1, 2, 2001, max(1, up - 1), sr_in // 10}):
            x = rng.uniform(-1, 1, n)
            expected = oracle_resample(x, sr_in, 16000)
            got = resample(x, sr_in, 16000)
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12, err_msg=f"n={n}")

    @pytest.mark.parametrize("sr_in", [44100, 48000, 22050])
    def test_taps_per_chunk_match_the_phase_bank(self, monkeypatch, sr_in):
        x = np.random.default_rng(5).uniform(-1, 1, sr_in // 20)
        banked = resample(x, sr_in, 16000)
        audio_io._polyphase_bank.cache_clear()
        monkeypatch.setattr(audio_io, "_MAX_TAPS", 100)  # no bank, one-phase blocks
        try:
            assert audio_io._polyphase_bank(sr_in, 16000)[-1] is None
            np.testing.assert_array_equal(resample(x, sr_in, 16000), banked)
        finally:
            audio_io._polyphase_bank.cache_clear()

    def test_co_prime_rate_memory_bounded(self, tmp_path):
        # 95999 -> 16000 Hz has 16000 phases of 387 taps: a full phase bank
        # would take ~500 MB to build for a 100-sample file
        path = write_test_wav(tmp_path / "odd.wav", sine(300, 100 / 95999, 95999),
                              sample_rate=95999)
        audio_io._polyphase_bank.cache_clear()
        tracemalloc.start()
        try:
            clip = read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            audio_io._polyphase_bank.cache_clear()
        assert len(clip.samples) == 17
        assert peak < 32e6


class TestRavdessNames:
    def test_documented_example_angry_female(self):
        meta = parse_ravdess_name("03-01-05-01-01-01-02.wav")
        assert meta.modality == "audio_only"
        assert meta.vocal_channel == "speech"
        assert meta.emotion == "angry"
        assert meta.intensity == "normal"
        assert (meta.statement, meta.repetition, meta.actor) == (1, 1, 2)
        assert meta.sex == "female"

    def test_documented_example_neutral_male(self):
        meta = parse_ravdess_name("03-01-01-01-01-01-01.wav")
        assert meta.emotion == "neutral"
        assert meta.actor == 1
        assert meta.sex == "male"

    def test_out_of_scope_emotion(self):
        with pytest.raises(OutOfScopeEmotionError):
            parse_ravdess_name("03-01-07-01-01-01-02.wav")
        with pytest.raises(OutOfScopeEmotionError):
            parse_ravdess_name("03-01-08-01-01-01-02.wav")

    @pytest.mark.parametrize("name", [
        "03-01-05-01-01-01.wav",        # six fields
        "03-01-05-01-01-01-02.mp3",     # wrong suffix
        "3-01-05-01-01-01-02.wav",      # one-digit field
        "03-01-00-01-01-01-02.wav",     # emotion code 00
        "03-01-05-01-01-01-25.wav",     # actor out of range
        "04-01-05-01-01-01-02.wav",     # bad modality
        "03-03-05-01-01-01-02.wav",     # bad vocal channel
    ])
    def test_malformed_names(self, name):
        with pytest.raises(MalformedNameError):
            parse_ravdess_name(name)

    def test_parse_render_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            name = "-".join([
                rng.choice(["01", "02", "03"]),
                rng.choice(["01", "02"]),
                f"{rng.integers(1, 7):02d}",
                rng.choice(["01", "02"]),
                f"{rng.integers(1, 3):02d}",
                f"{rng.integers(1, 3):02d}",
                f"{rng.integers(1, 25):02d}",
            ]) + ".wav"
            assert render_ravdess_name(parse_ravdess_name(name)) == name


class TestCorpus:
    def test_filtered_scan_counts(self, synthetic_corpus):
        root, records = synthetic_corpus
        scanned = scan_corpus(root, CorpusFilter(sex="female"))
        assert len(scanned) == len(records) == 60
        male = scan_corpus(root, CorpusFilter(sex="male"))
        assert male == []

    def test_scan_deterministic_and_sorted(self, synthetic_corpus):
        root, _ = synthetic_corpus
        a = scan_corpus(root)
        b = scan_corpus(root)
        assert a == b
        paths = [str(p) for p, _ in a]
        assert paths == sorted(paths)

    def test_decoded_clip_invariants(self, synthetic_corpus):
        root, _ = synthetic_corpus
        records = scan_corpus(root, CorpusFilter(emotions=frozenset({"angry"})))
        assert len(records) == 10
        for path, meta in records:
            clip = read_wav(path)
            assert meta.emotion == "angry"
            assert clip.sample_rate_hz == 16000
            assert len(clip.samples) > 0
            assert clip.samples.max() <= 1.0 and clip.samples.min() >= -1.0

    def test_vacuous_filter_is_error(self, synthetic_corpus, tmp_path, capsys):
        root, _ = synthetic_corpus
        code = main(["synth", "--corpus", str(root), "--out", str(tmp_path / "o"),
                     "--filter-sex", "female", "--set", "filter_emotions="])
        assert code == 3
        assert "no records" in capsys.readouterr().err

    def test_corrupt_file_collected_not_fatal(self, tmp_path, capsys):
        root = tmp_path / "mini"
        root.mkdir()
        write_test_wav(root / "03-01-01-01-01-01-02.wav", sine(300, 0.2))
        bad = root / "03-01-02-01-01-01-02.wav"
        bad.write_bytes(b"garbage")
        out = tmp_path / "synth"
        assert main(["synth", "--corpus", str(root), "--out", str(out),
                     "--n-segments", "3", "--seed", "1"]) == 0
        assert str(bad) in capsys.readouterr().err  # the one failure is named
        truth = (out / "truth.csv").read_text().splitlines()[1:]
        assert truth == ["synthetic-00000,neutral", "synthetic-00001,neutral",
                         "synthetic-00002,neutral"]  # only the decoded clip is used

    def test_every_file_corrupt_is_error(self, tmp_path, capsys):
        root = tmp_path / "mini"
        root.mkdir()
        (root / "03-01-02-01-01-01-02.wav").write_bytes(b"garbage")
        assert main(["synth", "--corpus", str(root), "--out", str(tmp_path / "o")]) == 3
        assert "failed to decode" in capsys.readouterr().err

    def test_missing_root(self, tmp_path):
        with pytest.raises(CorpusEmptyError):
            scan_corpus(tmp_path / "nope")

    def test_unparsable_names_skipped(self, tmp_path):
        root = tmp_path / "m2"
        root.mkdir()
        write_test_wav(root / "03-01-03-01-01-01-04.wav", sine(300, 0.2))
        write_test_wav(root / "notes.wav", sine(300, 0.2))
        write_test_wav(root / "03-01-07-01-01-01-04.wav", sine(300, 0.2))  # disgust
        assert len(scan_corpus(root)) == 1


def test_write_read_roundtrip(tmp_path):
    x = sine(700, 0.2, amp=0.6)
    path = tmp_path / "rt.wav"
    write_wav(path, x, 16000)
    clip = read_wav(path)
    np.testing.assert_allclose(clip.samples, x, atol=1e-4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_rejects_non_finite_samples(tmp_path, bad):
    x = sine(700, 0.01)
    x[5] = bad
    path = tmp_path / "bad.wav"
    with pytest.raises(ValueError, match="non-finite"):
        write_wav(path, x, 16000)
    assert not path.exists()
