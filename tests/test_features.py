import tracemalloc

import numpy as np
import pytest

from affectline import features
from affectline.checkpoint import drop_retired
from affectline.errors import ConfigError
from affectline.features import (DEFAULT_T_FIXED, FEATURE_ROW_LABELS, FRAME_LEN, HOP, N_FFT,
                                 N_MELS, FeatureMatrix, assemble_features, compute_normalization,
                                 delta, frame_signal, matrix_samples, mfcc, rms, zcr)
from affectline.train_eval import _to_batch_array
from conftest import sine


# ---------------------------------------------------------------------------
# Independent oracle: direct O(n^2) DFT, hand-built filterbank and DCT sums.
# Written first; frozen reference for the production chain.
# ---------------------------------------------------------------------------

def oracle_mfcc(signal, sample_rate=16000, frame_len=400, hop=160, n_fft=512,
                n_mels=26, n_coeffs=13, fmin=0.0, fmax=None, log_floor=1e-10):
    if fmax is None:
        fmax = sample_rate / 2.0
    n = np.arange(frame_len)
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (frame_len - 1))

    def direct_power_spectrum(frame):
        padded = np.zeros(n_fft)
        padded[:frame_len] = frame * window
        k = np.arange(n_fft // 2 + 1)
        m = np.arange(n_fft)
        basis = np.exp(-2j * np.pi * np.outer(k, m) / n_fft)  # full DFT matrix
        spec = basis @ padded
        return spec.real ** 2 + spec.imag ** 2

    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    bin_hz = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    points = np.linspace(mel(fmin), mel(fmax), n_mels + 2)
    fbank = np.zeros((n_mels, n_fft // 2 + 1))
    for j in range(n_mels):
        for i, bm in enumerate(mel(bin_hz)):
            rising = (bm - points[j]) / (points[j + 1] - points[j])
            falling = (points[j + 2] - bm) / (points[j + 2] - points[j + 1])
            fbank[j, i] = max(0.0, min(rising, falling))

    def dct_ortho(vec):
        m = len(vec)
        out = np.zeros(n_coeffs)
        for k in range(n_coeffs):
            s = sum(vec[i] * np.cos(np.pi * (i + 0.5) * k / m) for i in range(m))
            out[k] = s * np.sqrt((1.0 if k == 0 else 2.0) / m)
        return out

    n_frames = (len(signal) - frame_len) // hop + 1
    coeffs = np.zeros((n_coeffs, n_frames))
    for t in range(n_frames):
        power = direct_power_spectrum(signal[t * hop:t * hop + frame_len])
        log_e = np.log(np.maximum(fbank @ power, log_floor))
        coeffs[:, t] = dct_ortho(log_e)
    return coeffs


class TestFraming:
    @pytest.mark.parametrize("n,expected", [(16000, 98), (300, 1), (400, 1), (560, 2)])
    def test_frame_counts(self, n, expected):
        frames = frame_signal(np.zeros(n))
        assert frames.shape == (expected, 400)

    def test_short_clip_zero_padded(self):
        frames = frame_signal(np.ones(300))
        assert frames.shape == (1, 400)
        assert np.all(frames[0, :300] == 1.0)
        assert np.all(frames[0, 300:] == 0.0)

    def test_no_window_applied(self):
        frames = frame_signal(np.ones(400))
        np.testing.assert_array_equal(frames[0], np.ones(400))


class TestMfcc:
    def test_silence_matches_constant_dct(self):
        frames = frame_signal(np.zeros(16000))
        coeffs = mfcc(frames)
        # every column identical; c0 is the DCT of a constant log-floor vector
        assert np.allclose(coeffs, coeffs[:, :1])
        assert coeffs[0, 0] == pytest.approx(np.sqrt(26) * np.log(1e-10), rel=1e-12)
        assert np.allclose(coeffs[1:, 0], 0.0, atol=1e-10)

    def test_matches_naive_dft_oracle_on_sine(self):
        x = sine(440, 0.12)
        coeffs = mfcc(frame_signal(x))
        expected = oracle_mfcc(x)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(coeffs, expected, rtol=1e-6, atol=1e-6 * scale)

    def test_matches_oracle_on_randomized_signals(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(400, 1400))
            x = np.clip(rng.uniform(0.05, 0.8) * rng.standard_normal(n), -1, 1)
            coeffs = mfcc(frame_signal(x))
            expected = oracle_mfcc(x)
            scale = np.abs(expected).max()
            np.testing.assert_allclose(coeffs, expected, rtol=1e-6, atol=1e-6 * scale)

    def test_amplitude_scaling_shifts_only_c0(self):
        # doubling amplitude lifts every log mel energy by log(4): the DCT
        # maps that constant onto coefficient 0 alone
        rng = np.random.default_rng(3)
        x = np.clip(0.3 * rng.standard_normal(1200), -0.45, 0.45)
        base = mfcc(frame_signal(x))
        scaled = mfcc(frame_signal(2 * x))
        np.testing.assert_allclose(scaled[0] - base[0],
                                   np.sqrt(26) * np.log(4.0), rtol=1e-9)
        np.testing.assert_allclose(scaled[1:], base[1:], atol=1e-9)

    def test_config_validation(self):
        # n_fft and n_mels are retired keys, loadable only at the module constants
        assert drop_retired({"n_fft": N_FFT, "n_mels": N_MELS}) == {}
        with pytest.raises(ConfigError, match="n_fft"):
            drop_retired({"n_fft": 500})
        with pytest.raises(ConfigError, match="n_mels"):
            drop_retired({"n_mels": 12})
        with pytest.raises(ConfigError, match="n_mels"):
            drop_retired({"n_mels": 26.0})
        with pytest.raises(ConfigError, match="frame length 600"):
            mfcc(np.zeros((1, 600)))


class TestDelta:
    def test_constant_rows_zero(self):
        np.testing.assert_array_equal(delta(np.full((3, 8), 2.5)), np.zeros((3, 8)))

    def test_ramp_slope_recovered_exactly(self):
        a = 1.7
        ramp = a * np.arange(12.0)[None, :]
        d = delta(ramp)
        np.testing.assert_array_equal(d[0, 2:-2], np.full(8, a))

    def test_single_frame_zeros(self):
        np.testing.assert_array_equal(delta(np.ones((4, 1))), np.zeros((4, 1)))

    def test_linearity(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 20))
        b = rng.standard_normal((5, 20))
        lhs = delta(2.0 * a + 3.0 * b)
        rhs = 2.0 * delta(a) + 3.0 * delta(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestZcrRms:
    # zcr and rms take the samples frame_signal frames, one value per frame
    def test_zcr_constant_positive(self):
        assert zcr(np.full(400, 0.3))[0] == 0.0

    def test_zcr_alternating_is_one(self):
        frame = np.tile([1.0, -1.0], 200)
        assert zcr(frame)[0] == 1.0

    def test_zcr_440hz_sine(self):
        # analytic crossing count 2*440*0.025 = 22 over a 25 ms frame
        assert abs(zcr(sine(440, 1.0))[0] - 22 / 399) <= (1 / 399) * (1 + 1e-9)

    def test_zeros_counted_positive(self):
        # 0, 1, 0, -1 repeated: only 0 -> -1 and -1 -> 0 change sign, which
        # makes 199 of the frame's 399 pairs (200 if zeros counted negative)
        for zero in (0.0, -0.0):
            frame = np.tile([zero, 1.0, zero, -1.0], 100)
            assert zcr(frame)[0] == pytest.approx(199 / 399)

    def test_rms_cases(self):
        assert rms(np.zeros(400))[0] == 0.0
        assert rms(np.full(400, 0.5))[0] == pytest.approx(0.5)
        x = sine(440, 1.0)  # 11 cycles per frame
        assert abs(rms(x)[0] - 1 / np.sqrt(2)) < 1e-3

    @pytest.mark.parametrize("n", [0, 1, 399, 400, 559, 560, 16000])
    def test_one_value_per_frame_of_frame_signal(self, n):
        x = np.full(n, 0.5)
        assert zcr(x).shape == rms(x).shape == (len(frame_signal(x)),)

    def test_short_signal_zero_padded_to_one_frame(self):
        # frame_signal's rule: 300 samples of 1.0 then 100 zeros
        assert rms(np.ones(300))[0] == np.sqrt(300 / 400)
        assert zcr(np.ones(300))[0] == 0.0  # zeros count as positive
        assert zcr(-np.ones(300))[0] == 1 / 399


class TestAssemble:
    def test_three_second_clip_shape(self):
        fm = assemble_features(np.random.default_rng(0).standard_normal(48000) * 0.1)
        assert fm.values.shape == (41, 300)
        assert fm.n_valid_frames == 298
        assert np.all(fm.values[:, 298:] == 0.0)

    def test_six_second_clip_truncated(self):
        fm = assemble_features(np.random.default_rng(1).standard_normal(96000) * 0.1)
        assert fm.values.shape == (41, 300)
        assert fm.n_valid_frames == 300

    def test_silence_zcr_rms_rows_zero(self):
        fm = assemble_features(np.zeros(16000))
        assert np.all(fm.values[39] == 0.0)  # zcr row
        assert np.all(fm.values[40] == 0.0)  # rms row

    def test_row_label_layout(self):
        assert len(FEATURE_ROW_LABELS) == 41
        assert FEATURE_ROW_LABELS[0] == "mfcc_00"
        assert FEATURE_ROW_LABELS[13] == "delta_00"
        assert FEATURE_ROW_LABELS[26] == "delta2_00"
        assert FEATURE_ROW_LABELS[39:] == ("zcr", "rms")

    @pytest.mark.parametrize("n_samples", [150, 4000, 48000, 96000, 120000])
    def test_shape_fixed_for_any_length(self, n_samples):
        fm = assemble_features(np.ones(n_samples) * 0.1)
        assert fm.values.shape == (41, DEFAULT_T_FIXED)

    def test_time_shift_by_one_hop_shifts_columns(self):
        rng = np.random.default_rng(5)
        x = 0.4 * rng.standard_normal(8000)
        full = assemble_features(x)
        shifted = assemble_features(x[160:])
        t2 = shifted.n_valid_frames
        # interior columns: away from delta edge replication on both sides
        np.testing.assert_allclose(shifted.values[:, 4:t2 - 4],
                                   full.values[:, 5:t2 + 1 - 4], atol=1e-9)

    def test_normalization_applies_to_valid_columns_only(self):
        rng = np.random.default_rng(9)
        mats = [assemble_features(0.3 * rng.standard_normal(16000))
                for _ in range(4)]
        profile = compute_normalization(mats)
        fm = assemble_features(0.3 * rng.standard_normal(16000))
        x = _to_batch_array([fm], profile)[0]
        assert fm.n_valid_frames == 98
        assert np.all(x[:, 98:] == 0.0)
        assert not np.allclose(x[:, :98].mean(), 10.0)  # sanity: standardized

    def test_profile_zero_std_rows_safe(self):
        mats = [assemble_features(np.zeros(16000)) for _ in range(2)]
        profile = compute_normalization(mats)
        x = _to_batch_array([assemble_features(np.zeros(16000))], profile)
        assert np.all(np.isfinite(x))


# ---------------------------------------------------------------------------
# Oracle: the front end written the direct way, frame by frame. Each stage
# uses numpy's own padding and temporaries: a fresh Hamming window times the
# frames, rfft(n=N_FFT) padding them, real**2 + imag**2, np.pad(mode="edge")
# for the deltas, and ZCR and RMS over every frame's copy of its samples.
# assemble_features frames the whole clip (a copy), deltas it, truncates,
# stacks the rows in float64 and casts once. The production stages must
# equal these bit for bit.
# ---------------------------------------------------------------------------

def oracle_frame_signal(samples, flen=400, hop=160):
    x = np.asarray(samples, dtype=np.float64)
    if len(x) < flen:
        x = np.pad(x, (0, flen - len(x)))
    n_frames = (len(x) - flen) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(x, flen)[::hop][:n_frames]
    return frames.copy()


def oracle_stage_mfcc(frames):
    frames = np.asarray(frames, dtype=np.float64)
    window = np.hamming(frames.shape[1])
    spectrum = np.fft.rfft(frames * window, n=N_FFT, axis=1)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    energies = power @ features._mel_filterbank().T
    log_energies = np.log(np.maximum(energies, features.LOG_FLOOR))
    return (log_energies @ features._dct_ortho_matrix(N_MELS)[:features.N_MFCC].T).T


def oracle_delta(matrix, n):
    matrix = np.asarray(matrix, dtype=np.float64)
    padded = np.pad(matrix, ((0, 0), (n, n)), mode="edge")
    t = matrix.shape[1]
    num = np.zeros_like(matrix)
    for k in range(1, n + 1):
        num += k * (padded[:, n + k:n + k + t] - padded[:, n - k:n - k + t])
    return num / (2.0 * sum(k * k for k in range(1, n + 1)))


def oracle_zcr(frames):
    frames = np.asarray(frames)
    signs = np.where(frames >= 0, 1, -1)
    changes = np.count_nonzero(signs[:, 1:] != signs[:, :-1], axis=1)
    return changes / (frames.shape[1] - 1)


def oracle_rms(frames):
    frames = np.asarray(frames, dtype=np.float64)
    return np.sqrt(np.mean(frames * frames, axis=1))


def oracle_assemble_features(samples, delta_window=2, t_fixed=DEFAULT_T_FIXED):
    frames = oracle_frame_signal(samples)
    coeffs = oracle_stage_mfcc(frames)
    d1 = oracle_delta(coeffs, delta_window)
    d2 = oracle_delta(d1, delta_window)
    stacked = np.vstack([coeffs, d1, d2, oracle_zcr(frames)[None, :],
                         oracle_rms(frames)[None, :]])

    n_valid = min(stacked.shape[1], t_fixed)
    values = np.zeros((stacked.shape[0], t_fixed), dtype=np.float64)
    values[:, :n_valid] = stacked[:, :n_valid]
    return values.astype(np.float32), n_valid


def assert_bit_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_stages_bit_equal(x):
    """Every stage of x and the matrix at the default t_fixed equal the oracle's."""
    frames = oracle_frame_signal(x)
    assert_bit_equal(frame_signal(x), frames)
    coeffs = oracle_stage_mfcc(frames)
    assert_bit_equal(mfcc(frame_signal(x)), coeffs)
    assert_bit_equal(delta(coeffs), oracle_delta(coeffs, 2))
    assert_bit_equal(zcr(x), oracle_zcr(frames))
    assert_bit_equal(rms(x), oracle_rms(frames))
    fm = assemble_features(x)
    values, n_valid = oracle_assemble_features(x)
    assert fm.n_valid_frames == n_valid
    assert_bit_equal(fm.values, values)


def noise(n, seed):
    x = 0.3 * np.random.default_rng(seed).standard_normal(n)
    x[::37] = 0.0  # exact zeros count as positive in the zcr row
    return x


# every length from no sample to three frames and two past it, and the frame
# boundaries of 3 s and 10 s signals
SHORT_LENGTHS = range(FRAME_LEN + 3 * HOP + 2)
LONG_LENGTHS = [n + d for n in (48000, 160000) for d in (-HOP - 1, -HOP, -1, 0, 1)]
# full-scale signals: runs of exact zeros and -0.0, silence, clipping at +-1
SPECIAL_SIGNALS = {
    "zeros": lambda n: np.where(np.arange(n) % 5 < 2, 0.0, noise(n, 1)),
    "negative-zeros": lambda n: np.where(np.arange(n) % 3 == 0, -0.0, noise(n, 2)),
    "signed-zeros-only": lambda n: np.where(np.arange(n) % 2 == 0, 0.0, -0.0),
    "silence": lambda n: np.zeros(n),
    "clipped": lambda n: np.clip(8.0 * noise(n, 3), -1.0, 1.0),
    "full-scale-square": lambda n: np.where(np.arange(n) // 7 % 2 == 0, 1.0, -1.0),
}


class TestFeatureWindowOracle:
    @pytest.mark.parametrize("t_fixed", [1, 5, 17, 300])
    @pytest.mark.parametrize("delta_window", [1, 2, 3])
    @pytest.mark.parametrize("length", ["keep-1", "keep", "keep+1", "sub-frame", "10s"])
    def test_bit_equal_to_framing_the_whole_clip(self, monkeypatch, length, delta_window,
                                                 t_fixed):
        # the window is fixed at 2; 1 and 3 check the cut follows the constant
        monkeypatch.setattr(features, "DELTA_WINDOW", delta_window)
        keep = (t_fixed + 2 * delta_window - 1) * HOP + FRAME_LEN
        n = {"keep-1": keep - 1, "keep": keep, "keep+1": keep + 1,
             "sub-frame": FRAME_LEN - 1, "10s": 160000}[length]
        rng = np.random.default_rng(n + 7 * delta_window + t_fixed)
        x = 0.3 * rng.standard_normal(n)
        x[::37] = 0.0  # exact zeros count as positive in the zcr row
        fm = assemble_features(x, t_fixed)
        values, n_valid = oracle_assemble_features(x, delta_window, t_fixed)
        assert fm.n_valid_frames == n_valid
        assert fm.values.dtype == values.dtype
        assert fm.values.tobytes() == values.tobytes()
        assert fm.values.flags.c_contiguous and not fm.values.flags.writeable

    def test_stages_bit_equal_at_every_short_length(self):
        for n in SHORT_LENGTHS:
            assert_stages_bit_equal(noise(n, n))

    @pytest.mark.parametrize("n", LONG_LENGTHS)
    def test_stages_bit_equal_around_long_frame_boundaries(self, n):
        assert_stages_bit_equal(noise(n, n))

    @pytest.mark.parametrize("signal", list(SPECIAL_SIGNALS))
    @pytest.mark.parametrize("n", [0, 1, FRAME_LEN - 1, FRAME_LEN, FRAME_LEN + HOP + 1, 48000])
    def test_stages_bit_equal_on_special_signals(self, signal, n):
        x = SPECIAL_SIGNALS[signal](n)
        assert_stages_bit_equal(x)

    @pytest.mark.parametrize("delta_window", [1, 2, 3])
    def test_delta_bit_equal_to_edge_padding(self, monkeypatch, delta_window):
        monkeypatch.setattr(features, "DELTA_WINDOW", delta_window)
        rng = np.random.default_rng(delta_window)
        for t in (1, 2, delta_window, 2 * delta_window + 1, 300):
            matrix = rng.standard_normal((13, t))
            assert_bit_equal(delta(matrix), oracle_delta(matrix, delta_window))
            fortran = np.asfortranarray(matrix)  # mfcc's coefficients are a transpose
            assert_bit_equal(delta(fortran), oracle_delta(matrix, delta_window))
            # -0.0 - 0.0 is -0.0, and the oracle's zero start turns its sum into +0.0
            signed_zeros = np.where(rng.random((13, t)) < 0.5, 0.0, -0.0)
            assert_bit_equal(delta(signed_zeros), oracle_delta(signed_zeros, delta_window))

    @pytest.mark.parametrize("t_fixed", [1, 17, 300])
    @pytest.mark.parametrize("signal", list(SPECIAL_SIGNALS))
    def test_assemble_bit_equal_on_special_signals(self, signal, t_fixed):
        x = SPECIAL_SIGNALS[signal](matrix_samples(t_fixed) + HOP)
        fm = assemble_features(x, t_fixed)
        values, n_valid = oracle_assemble_features(x, t_fixed=t_fixed)
        assert fm.n_valid_frames == n_valid
        assert_bit_equal(fm.values, values)

    def test_frames_are_a_read_only_view(self):
        x = np.random.default_rng(3).standard_normal(4000)
        frames = frame_signal(x)
        assert not frames.flags.writeable
        assert np.shares_memory(frames, x)
        np.testing.assert_array_equal(frames, oracle_frame_signal(x))


def concatenated_normalization(matrices):
    """The former ``compute_normalization``, kept as its oracle: every matrix's
    valid columns as float64, concatenated, then numpy's mean and std."""
    cols = np.concatenate(
        [np.asarray(m.values[:, :m.n_valid_frames], dtype=np.float64) for m in matrices], axis=1)
    return cols.mean(axis=1), cols.std(axis=1)


def mixed_scale_matrices(n_valid, seed, t_fixed=DEFAULT_T_FIXED):
    """float32 matrices whose rows range over 1e-4 to 1e5 in scale around
    offsets of up to 50, with a constant row; zero past each ``n_valid``."""
    rng = np.random.default_rng(seed)
    matrices = []
    for n in n_valid:
        values = np.zeros((41, t_fixed), dtype=np.float32)
        scale = 10.0 ** rng.uniform(-4, 5, (41, 1))
        values[:, :n] = rng.uniform(-50, 50, (41, 1)) + scale * rng.standard_normal((41, n))
        values[7, :n] = 3.25
        matrices.append(FeatureMatrix(values=values, n_valid_frames=int(n)))
    return matrices


class TestComputeNormalization:
    @pytest.mark.parametrize("n_valid", [[1], [DEFAULT_T_FIXED], [1, DEFAULT_T_FIXED], [1] * 9,
                                         list(range(1, 301, 7)), [DEFAULT_T_FIXED] * 60],
                             ids=["one-column", "one-full", "1-and-full", "nine-columns",
                                  "ramp", "60-full"])
    def test_bit_equal_to_concatenated_std(self, n_valid):
        matrices = mixed_scale_matrices(n_valid, seed=len(n_valid))
        profile = compute_normalization(matrices)
        mean, std = concatenated_normalization(matrices)
        assert profile.mean.tobytes() == mean.tobytes()
        assert profile.std.tobytes() == std.tobytes()

    def test_bit_equal_to_concatenated_std_on_random_corpora(self):
        rng = np.random.default_rng(11)
        for seed in range(20):
            matrices = mixed_scale_matrices(rng.integers(1, 301, rng.integers(1, 121)), seed)
            profile = compute_normalization(matrices)
            mean, std = concatenated_normalization(matrices)
            assert profile.mean.tobytes() == mean.tobytes(), seed
            assert profile.std.tobytes() == std.tobytes(), seed

    def test_peak_is_about_one_float64_row_of_the_columns(self):
        matrices = mixed_scale_matrices([DEFAULT_T_FIXED] * 40, seed=3)
        row_bytes = 40 * DEFAULT_T_FIXED * 8  # 96 KB; all 41 rows are 3.9 MB
        tracemalloc.start()
        try:
            compute_normalization(matrices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1.07x; 82x (2.00x all 41 rows) with per-matrix float64 copies, their
        # concatenation, then np.std's full-size deviation array
        assert peak < 1.3 * row_bytes


def test_frame_config_validation():
    # framing is fixed: its retired keys load only at FRAME_LEN and HOP
    assert drop_retired({"frame_len_samples": FRAME_LEN, "hop_samples": HOP}) == {}
    with pytest.raises(ConfigError, match="frame_len_samples"):
        drop_retired({"frame_len_samples": 100, "hop_samples": 200})
    with pytest.raises(ConfigError, match="hop_samples"):
        drop_retired({"hop_samples": 160.0})
