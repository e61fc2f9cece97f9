import tracemalloc

import numpy as np
import pytest

from affectline import audio_io
from affectline.audio_io import (CorpusEmptyError, EmptyAudioError,
                                 MalformedNameError, OutOfScopeEmotionError,
                                 UnreadableFileError, UnsupportedEncodingError,
                                 parse_ravdess_name, read_wav, resample, scan_corpus,
                                 write_wav)
from affectline.checkpoint import FeatureSettings
from affectline.cli import main
from affectline.features import DEFAULT_T_FIXED, assemble_features, matrix_samples
from affectline.train_eval import extract_features
from conftest import build_synthetic_corpus, make_wav_bytes, sine, write_test_wav


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
# window by fancy indexing and sums window * taps. It carries its own filter
# geometry and tap formula so that it does not move with the module under test.
_CHUNK = 8192
_SINC_ZEROS = 32
_KAISER_BETA = 8.6
_MAX_TAPS = 1 << 21


def _tap_values(frac: np.ndarray, offsets: np.ndarray, scale: float,
                half_width: float) -> np.ndarray:
    """Kaiser-windowed sinc taps at distances frac[:, None] - offsets."""
    t = frac[:, None] - offsets[None, :]
    u = t / half_width
    inside = np.abs(u) < 1.0
    window = np.where(inside,
                      np.i0(_KAISER_BETA * np.sqrt(np.clip(1.0 - u * u, 0.0, 1.0))),
                      0.0) / np.i0(_KAISER_BETA)
    return scale * np.sinc(scale * t) * window


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

    g = np.gcd(sr_in, sr_out)
    up, down = sr_out // g, sr_in // g
    scale = min(1.0, sr_out / sr_in)  # anti-alias cutoff relative to input rate
    half_width = _SINC_ZEROS / scale
    pad = int(np.ceil(half_width)) + 1
    offsets = np.arange(-pad, pad + 1)
    rows = max(1, min(_CHUNK, _MAX_TAPS // len(offsets)))
    xp = np.pad(x, (pad, pad))
    out = np.empty(n_out)
    for start in range(0, n_out, rows):
        n = np.arange(start, min(start + rows, n_out), dtype=np.int64)
        k0 = (n * down) // up  # integer input position
        phase = (n * down) % up
        taps = _tap_values(phase / up, offsets, scale, half_width)
        seg = xp[(k0[:, None] + pad) + offsets[None, :]]
        out[n[0]:n[-1] + 1] = (seg * taps).sum(axis=1)
    return out


class TestReadWav:
    def test_silence_roundtrip(self, tmp_path):
        path = write_test_wav(tmp_path / "s.wav", np.zeros(16000))
        samples = read_wav(path)
        assert samples.shape == (16000,) and samples.dtype == np.float64
        assert np.all(samples == 0.0)

    def test_samples_are_read_only(self, tmp_path):
        samples = read_wav(write_test_wav(tmp_path / "s.wav", sine(300, 0.1)))
        with pytest.raises(ValueError, match="read-only"):
            samples[0] = 0.5

    def test_stereo_identical_channels_downmix(self, tmp_path):
        mono = sine(300, 0.25)
        path = write_test_wav(tmp_path / "st.wav", mono, channels=2)
        samples = read_wav(path)
        ref = read_wav(write_test_wav(tmp_path / "mono.wav", mono))
        np.testing.assert_allclose(samples, ref, atol=1e-9)

    def test_resampled_sine_peak_within_one_bin(self, tmp_path):
        # independent oracle: direct-DFT magnitude spectrum of the output
        path = write_test_wav(tmp_path / "hi.wav", sine(440, 0.25, 48000, amp=0.8),
                              sample_rate=48000)
        samples = read_wav(path)
        n = len(samples)
        assert n == 4000  # 0.25 s at 16 kHz
        mags = naive_dft_magnitudes(samples, n // 2 + 1)
        peak_hz = int(np.argmax(mags)) * 16000 / n
        assert abs(peak_hz - 440.0) <= 16000 / n + 1e-9

    @pytest.mark.parametrize("bits,fmt_code", [(8, 1), (24, 1), (32, 3)])
    def test_supported_encodings(self, tmp_path, bits, fmt_code):
        x = sine(500, 0.1, amp=0.5)
        path = write_test_wav(tmp_path / f"b{bits}_{fmt_code}.wav", x,
                              bits=bits, fmt_code=fmt_code)
        tol = 1.5 / 128 if bits == 8 else 1e-4
        np.testing.assert_allclose(read_wav(path), x, atol=tol)

    def test_amplitudes_within_unit_range(self, tmp_path):
        x = np.clip(sine(440, 0.1) * 1.5, -1, 1)  # clipped square-ish, rings on resample
        path = write_test_wav(tmp_path / "loud.wav", x, sample_rate=48000)
        samples = read_wav(path)
        assert samples.max() <= 1.0 and samples.min() >= -1.0

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
        assert len(read_wav(path)) == 1600

    def test_zero_length_audio(self, tmp_path):
        path = write_test_wav(tmp_path / "empty.wav", np.zeros(0))
        with pytest.raises(EmptyAudioError):
            read_wav(path)


def oracle_decode_pcm(data: bytes, bits: int) -> np.ndarray:
    """The integer-PCM decode that preceded the in-place one, kept verbatim
    as the reference: 24-bit samples are assembled from int64 byte columns."""
    if bits == 8:
        x = np.frombuffer(data, dtype=np.uint8).astype(np.float64)
        return (x - 128.0) / 128.0
    if bits == 16:
        x = np.frombuffer(data[: len(data) - len(data) % 2], dtype="<i2").astype(np.float64)
        return x / 32768.0
    b = np.frombuffer(data[: len(data) - len(data) % 3], dtype=np.uint8)
    b = b.reshape(-1, 3).astype(np.int64)
    x = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
    x = np.where(x >= 1 << 23, x - (1 << 24), x)
    return x.astype(np.float64) / float(1 << 23)


def pcm_codes(bits: int, start: int, stop: int) -> bytes:
    """Little-endian ``bits``-bit PCM bytes of the codes start..stop-1."""
    codes = np.arange(start, stop, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return codes[:, :bits // 8].tobytes()


class TestDecodePcm:
    @pytest.mark.parametrize("bits", [8, 16, 24])
    def test_every_code_bit_equal(self, bits):
        step = 1 << 20  # keeps the oracle's int64 columns small
        for start in range(0, 1 << bits, step):
            data = pcm_codes(bits, start, min(start + step, 1 << bits))
            for tail in (b"", b"\x7f", b"\x80\x01")[:bits // 8]:  # a cut last frame is dropped
                got = audio_io._decode_pcm(data + tail, bits, "x.wav")
                assert got.dtype == np.float64
                assert got.tobytes() == oracle_decode_pcm(data + tail, bits).tobytes()

    def test_float_bit_equal(self):
        x = np.array([0.0, -0.0, 0.5, -0.25, 1.0, -1.0, 1.5, -7.0, 1e-40, 3e38], dtype="<f4")
        got = audio_io._decode_pcm(x.tobytes() + b"\x01", 32, "x.wav")
        assert got.tobytes() == np.clip(x.astype(np.float64), -1.0, 1.0).tobytes()

    def test_24_bit_decode_peak_memory(self):
        # ten seconds at 48 kHz: int64 byte columns and their temporaries
        # would peak at about six times the float64 output
        data = np.random.default_rng(5).integers(0, 256, 480_000 * 3, dtype=np.uint8).tobytes()
        tracemalloc.start()
        try:
            samples = audio_io._decode_pcm(data, 24, "x.wav")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(samples) == 480_000
        assert peak < 2.5 * samples.nbytes


# (bits, channels, format code) of each encoding the bounded read must match
ENCODINGS = {"8-bit": (8, 1, 1), "16-bit": (16, 1, 1), "24-bit": (24, 1, 1),
             "float32": (32, 1, 3), "stereo": (16, 2, 1)}


def bounded_and_whole(tmp_path, rate, encoding, t_fixed):
    """For inputs of bound - 1, bound, bound + 1 and 2 * bound frames, where
    bound is the input frames a t_fixed matrix reads: (frames, bounded
    decode, whole decode, bounded matrix, whole matrix)."""
    bits, channels, fmt_code = ENCODINGS[encoding]
    keep = matrix_samples(t_fixed)
    bound = audio_io._input_frames(keep, rate)
    rng = np.random.default_rng([rate, bits, channels])
    x = np.clip(0.4 * rng.standard_normal((2 * bound, channels)), -1.0, 1.0)
    for n in (bound - 1, bound, bound + 1, 2 * bound):
        path = write_test_wav(tmp_path / f"{n}.wav", x[:n, 0] if channels == 1 else x[:n],
                              sample_rate=rate, bits=bits, channels=channels,
                              fmt_code=fmt_code)
        whole = read_wav(path)
        yield (n, read_wav(path, keep), whole,
               extract_features(path, FeatureSettings(t_fixed=t_fixed)),
               assemble_features(whole, t_fixed))


class TestBoundedRead:
    @pytest.mark.parametrize("rate", [8000, 11127, 16000, 16001, 22050, 44100, 48000, 96000])
    @pytest.mark.parametrize("encoding", list(ENCODINGS))
    def test_bounded_decode_bit_equal_to_whole_decode(self, tmp_path, rate, encoding):
        keep = matrix_samples(100)
        for n, part, whole, fm, expected in bounded_and_whole(tmp_path, rate, encoding, 100):
            assert len(part) == min(keep, len(whole)), n
            assert part.tobytes() == whole[:keep].tobytes(), n
            assert fm.values.tobytes() == expected.values.tobytes(), n
            assert fm.n_valid_frames == expected.n_valid_frames, n

    @pytest.mark.parametrize("rate", [44100, 48000])
    def test_default_window_matrix_bit_equal(self, tmp_path, rate):
        for n, part, whole, fm, expected in bounded_and_whole(tmp_path, rate, "16-bit",
                                                              DEFAULT_T_FIXED):
            assert part.tobytes() == whole[:matrix_samples(DEFAULT_T_FIXED)].tobytes(), n
            assert fm.values.tobytes() == expected.values.tobytes(), n

    # output n = r*len(starts) + j reads input up to r*chunk + starts[j] + pad:
    # 16879 is row 259, column 44 at 48 kHz (65 a row, chunk 195, starts[j]
    # 3j, pad 97) and row 127, column 115 at 8 kHz (132 a row, chunk 66,
    # starts[j] j//2, pad 33)
    @pytest.mark.parametrize("rate,bound", [(16000, 16880),
                                            (48000, 259 * 195 + 44 * 3 + 97 + 1),
                                            (8000, 127 * 66 + 115 // 2 + 33 + 1)])
    def test_only_the_frames_the_bound_needs_are_read(self, tmp_path, rate, bound):
        assert audio_io._input_frames(16880, rate) == bound
        path = write_test_wav(tmp_path / "s.wav", np.zeros((3 * bound, 2)),
                              sample_rate=rate, channels=2)
        assert len(audio_io.read_chunks(path, 16880).data) == 4 * bound
        assert len(audio_io.read_chunks(path).data) == 4 * 3 * bound


    @pytest.mark.parametrize("rate", [8000, 11127, 16000, 48000])
    @pytest.mark.parametrize("encoding", list(ENCODINGS))
    def test_read_from_start_bit_equal_to_cut_file(self, tmp_path, rate, encoding):
        # ``start`` counts 16 kHz samples: the reader skips start * rate // 16000 frames
        bits, channels, fmt_code = ENCODINGS[encoding]
        rng = np.random.default_rng([rate, bits, channels])
        x = np.clip(0.4 * rng.standard_normal((rate, channels)), -1.0, 1.0)  # one second

        def wav(name, frames):
            return write_test_wav(tmp_path / name, frames[:, 0] if channels == 1 else frames,
                                  sample_rate=rate, bits=bits, channels=channels,
                                  fmt_code=fmt_code)
        path = wav("s.wav", x)
        for start in (1, 4999, 5000, 15999):
            cut = wav(f"cut{start}.wav", x[start * rate // 16000:])
            for bound in (None, 3000):
                assert read_wav(path, bound, start).tobytes() == \
                    read_wav(cut, bound).tobytes(), (start, bound)
        with pytest.raises(EmptyAudioError):
            read_wav(path, 3000, 16000)

class TestResample:
    def test_identity_rate(self):
        x = sine(100, 0.05)
        np.testing.assert_array_equal(resample(x, 16000), x)

    def test_output_length(self):
        assert len(resample(np.zeros(48000), 48000)) == 16000
        assert len(resample(np.zeros(44100), 44100)) == 16000

    def test_tone_amplitude_preserved(self):
        y = resample(sine(1000, 0.5, 48000), 48000)
        assert abs(np.abs(y[1000:-1000]).max() - 1.0) < 1e-3

    @pytest.mark.parametrize("sr_in", [1000, 8000, 11025, 22050, 32000, 44100, 48000, 96000,
                                       384000, 44099, 95999])
    def test_matches_gather_oracle(self, sr_in):
        up = 16000 // np.gcd(sr_in, 16000)
        rng = np.random.default_rng(sr_in)
        # 44099 and 95999 Hz have no cached phase matrix; 1000 to 11025 Hz upsample
        for n in sorted({1, 2, 2001, max(1, up - 1), sr_in // 10}):
            x = rng.uniform(-1, 1, n)
            expected = oracle_resample(x, sr_in, 16000)
            got = resample(x, sr_in)
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12, err_msg=f"n={n}")

    @pytest.mark.parametrize("sr_in", [44100, 48000, 22050])
    @pytest.mark.parametrize("table", [True, False])
    def test_blocks_built_per_call_match_the_cached_matrix(self, monkeypatch, sr_in, table):
        # _BLOCK_VALUES stays: another block split sums the GEMMs in another
        # order and moves outputs by an ulp
        x = np.random.default_rng(5).uniform(-1, 1, sr_in // 20)
        audio_io._plan.cache_clear()
        pad, _, starts, _, _, matrices = audio_io._plan(sr_in)
        assert matrices is not None
        cached = resample(x, sr_in)
        audio_io._plan.cache_clear()
        # room for every column's taps (2*pad + 1 each) but not for the matrix
        max_taps = len(starts) * (2 * pad + 1) if table else 100
        monkeypatch.setattr(audio_io, "_MAX_TAPS", max_taps)
        try:
            assert audio_io._plan(sr_in)[-1] is None
            np.testing.assert_array_equal(resample(x, sr_in), cached)
        finally:
            audio_io._plan.cache_clear()

    @pytest.mark.parametrize("sr_in", [8000, 11025, 22050, 24000, 32000, 44100, 48000,
                                       88200, 96000, 176400, 192000, 384000])
    def test_standard_rates_cache_the_phase_matrix(self, sr_in):
        assert audio_io._plan(sr_in)[-1] is not None

    @pytest.mark.parametrize("sr_in", [11127, 22254, 16001])
    def test_odd_rates_compute_their_taps_once(self, monkeypatch, sr_in):
        # no cached matrix (up to 16000 columns per row), but every
        # column's taps fit in _MAX_TAPS values, so later calls reuse them
        x = np.random.default_rng(6).uniform(-1, 1, sr_in)
        audio_io._plan.cache_clear()
        try:
            with monkeypatch.context() as m:
                m.setattr(audio_io, "_MAX_TAPS", 100)  # each block computes its taps
                fresh = resample(x, sr_in)
            audio_io._plan.cache_clear()
            assert audio_io._plan(sr_in)[-1] is None
            resample(x, sr_in)
            calls = []
            tap_values = audio_io._tap_values
            monkeypatch.setattr(audio_io, "_tap_values",
                                lambda *a: calls.append(a) or tap_values(*a))
            np.testing.assert_array_equal(resample(x, sr_in), fresh)
            assert calls == []
        finally:
            audio_io._plan.cache_clear()

    def test_co_prime_rate_memory_bounded(self, tmp_path):
        # 95999 -> 16000 Hz has 16000 phases of 387 taps: building them all
        # at once would take ~500 MB for a 100-sample file
        path = write_test_wav(tmp_path / "odd.wav", sine(300, 100 / 95999, 95999),
                              sample_rate=95999)
        audio_io._plan.cache_clear()
        tracemalloc.start()
        try:
            samples = read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            audio_io._plan.cache_clear()
        assert len(samples) == 17
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


class TestCorpus:
    def test_filtered_scan_counts(self, synthetic_corpus):
        root, records = synthetic_corpus
        male_records = build_synthetic_corpus(root / "male", per_class=2, sex="male")
        scanned = scan_corpus(root)
        assert len(scanned) == len(records) == 60
        assert sorted(path for path, _ in scanned) == sorted(path for path, _ in records)
        assert len(male_records) == 12 and scan_corpus(root / "male") == []

    def test_scan_deterministic_and_sorted(self, synthetic_corpus):
        root, _ = synthetic_corpus
        a = scan_corpus(root)
        b = scan_corpus(root)
        assert a == b
        paths = [str(p) for p, _ in a]
        assert paths == sorted(paths)

    def test_decoded_clip_invariants(self, synthetic_corpus):
        root, _ = synthetic_corpus
        records = [(path, meta) for path, meta in scan_corpus(root) if meta.emotion == "angry"]
        assert len(records) == 10
        for path, meta in records:
            samples = read_wav(path)
            assert meta.emotion == "angry"
            assert samples.ndim == 1 and len(samples) > 0
            assert samples.max() <= 1.0 and samples.min() >= -1.0

    def test_vacuous_filter_is_error(self, tmp_path, capsys):
        root = tmp_path / "male"
        build_synthetic_corpus(root, per_class=1, sex="male")
        code = main(["synth", "--corpus", str(root), "--out", str(tmp_path / "o")])
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
        write_test_wav(root / "03-01-03-01-01-01-05.wav", sine(300, 0.2))  # a male actor
        assert len(scan_corpus(root)) == 1


def test_write_read_roundtrip(tmp_path):
    x = sine(700, 0.2, amp=0.6)
    path = tmp_path / "rt.wav"
    write_wav(path, x)
    np.testing.assert_allclose(read_wav(path), x, atol=1e-4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_rejects_non_finite_samples(tmp_path, bad):
    x = sine(700, 0.01)
    x[5] = bad
    path = tmp_path / "bad.wav"
    with pytest.raises(ValueError, match="non-finite"):
        write_wav(path, x)
    assert not path.exists()
