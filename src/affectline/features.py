"""Per-frame acoustic features and the fixed-shape matrix fed to the network.

Five features per frame: 13 cepstral coefficients from a mel filterbank,
their first and second temporal derivatives, zero-crossing rate, and RMS
energy. Stacked in that order the matrix has 41 rows; the time axis is
truncated or zero-padded to a fixed number of columns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .audio_io import PIPELINE_SAMPLE_RATE
from .errors import ConfigError

N_MFCC = 13  # cepstral coefficients per frame
DEFAULT_T_FIXED = 300
MAX_T_FIXED = 360_000  # one hour of 10 ms frames
# The paper's front end at the 16 kHz pipeline rate: 25 ms frames every
# 10 ms, a 512-point FFT, 26 mel bands from 0 Hz to the 8 kHz Nyquist
# frequency, and regression deltas over +-2 frames.
FRAME_LEN, HOP = 400, 160  # samples
N_FFT = 512
N_MELS = 26
LOG_FLOOR = 1e-10
DELTA_WINDOW = 2
# Part of every feature-cache key: bump it whenever a change to decoding,
# resampling or this module alters the matrices extract_features returns, so
# no cached matrix from older code is served.
FEATURE_CODE_VERSION = 5

FEATURE_ROW_LABELS = tuple(
    [f"mfcc_{i:02d}" for i in range(N_MFCC)]
    + [f"delta_{i:02d}" for i in range(N_MFCC)]
    + [f"delta2_{i:02d}" for i in range(N_MFCC)]
    + ["zcr", "rms"]
)
N_FEATURE_ROWS = len(FEATURE_ROW_LABELS)
MAX_NORMALIZED = float(np.finfo(np.float32).max)  # the model input is float32


def check_sizes(**sizes) -> None:
    """ConfigError naming every value that is not an int; a bool is no size."""
    bad = [f"{k}={v!r}" for k, v in sizes.items()
           if not isinstance(v, int) or isinstance(v, bool)]
    if bad:
        raise ConfigError(f"sizes must be integers, got {', '.join(bad)}")


@dataclass
class NormalizationProfile:
    """Per-feature-row z-score statistics, computed on a training split."""

    mean: np.ndarray  # (41,)
    std: np.ndarray  # (41,), zero entries treated as 1

    def apply(self, values: np.ndarray, n_valid: int) -> np.ndarray:
        """Standardized copy of ``values``: valid columns only, padding stays zero."""
        out = values.copy()
        std = np.where(self.std > 0, self.std, 1.0)
        out[:, :n_valid] = (out[:, :n_valid] - self.mean[:, None]) / std[:, None]
        return out


@dataclass
class FeatureMatrix:
    """41 x T_fixed feature matrix; columns past ``n_valid_frames`` are zero."""

    values: np.ndarray
    n_valid_frames: int


def frame_signal(samples: np.ndarray) -> np.ndarray:
    """Slice 16 kHz samples into overlapping frames, shape (T, FRAME_LEN).

    Signals shorter than one frame are zero-padded to a single full frame.
    No window is applied here; windowing belongs to the spectral ops. The
    result is a read-only strided view of the samples, not a copy.
    """
    x = np.asarray(samples, dtype=np.float64)
    if len(x) < FRAME_LEN:
        x = np.pad(x, (0, FRAME_LEN - len(x)))
    n_frames = (len(x) - FRAME_LEN) // HOP + 1
    return np.lib.stride_tricks.sliding_window_view(x, FRAME_LEN)[::HOP][:n_frames]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


@functools.lru_cache(maxsize=1)
def _mel_filterbank() -> np.ndarray:
    """Triangular filters, unit peak, spaced evenly on the mel scale from
    0 Hz to the Nyquist frequency of ``PIPELINE_SAMPLE_RATE``.

    Shape (N_MELS, N_FFT//2 + 1); triangles are evaluated in mel space at
    the FFT bin center frequencies.
    """
    bin_mels = hz_to_mel(np.arange(N_FFT // 2 + 1) * (PIPELINE_SAMPLE_RATE / N_FFT))
    points = np.linspace(hz_to_mel(0.0), hz_to_mel(PIPELINE_SAMPLE_RATE / 2.0), N_MELS + 2)
    lower = (bin_mels[None, :] - points[:-2, None]) / (points[1:-1] - points[:-2])[:, None]
    upper = (points[2:, None] - bin_mels[None, :]) / (points[2:] - points[1:-1])[:, None]
    return np.clip(np.minimum(lower, upper), 0.0, None)


@functools.lru_cache(maxsize=8)
def _dct_ortho_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis, rows are coefficients 0..n-1."""
    m = np.arange(n)
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * (m[None, :] + 0.5) * m[:, None] / n)
    basis[0] *= np.sqrt(0.5)
    return basis


def mfcc(frames: np.ndarray) -> np.ndarray:
    """Mel-frequency cepstral coefficients of 16 kHz frames, shape (N_MFCC, T).

    Per frame: Hamming window, magnitude-squared FFT spectrum, triangular
    mel filterbank, natural log with a floor, orthonormal DCT-II keeping
    the lowest coefficients.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if N_FFT < frames.shape[1]:
        raise ConfigError(f"n_fft {N_FFT} smaller than frame length {frames.shape[1]}")
    window = np.hamming(frames.shape[1])
    spectrum = np.fft.rfft(frames * window, n=N_FFT, axis=1)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    energies = power @ _mel_filterbank().T
    log_energies = np.log(np.maximum(energies, LOG_FLOOR))
    coeffs = log_energies @ _dct_ortho_matrix(N_MELS)[:N_MFCC].T
    return coeffs.T


def delta(matrix: np.ndarray, n: int = DELTA_WINDOW) -> np.ndarray:
    """Regression-slope temporal derivative along columns, edge-replicated.

    d_t = sum_{k=1..n} k (c_{t+k} - c_{t-k}) / (2 sum k^2); applying it
    twice gives the second derivative.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    padded = np.pad(matrix, ((0, 0), (n, n)), mode="edge")
    t = matrix.shape[1]
    num = np.zeros_like(matrix)
    for k in range(1, n + 1):
        num += k * (padded[:, n + k:n + k + t] - padded[:, n - k:n - k + t])
    return num / (2.0 * sum(k * k for k in range(1, n + 1)))


def zcr(frames: np.ndarray) -> np.ndarray:
    """Fraction of adjacent-sample sign changes per frame; zeros count as positive."""
    nonneg = np.asarray(frames) >= 0
    changes = np.count_nonzero(nonneg[:, 1:] != nonneg[:, :-1], axis=1)
    return changes / (nonneg.shape[1] - 1)


def rms(frames: np.ndarray) -> np.ndarray:
    """Root-mean-square amplitude per frame."""
    frames = np.asarray(frames, dtype=np.float64)
    return np.sqrt(np.mean(frames * frames, axis=1))


def compute_normalization(matrices: list) -> NormalizationProfile:
    """Row statistics over the valid frames of the given feature matrices."""
    cols = np.concatenate(
        [np.asarray(m.values[:, : m.n_valid_frames], dtype=np.float64) for m in matrices],
        axis=1,
    )
    return NormalizationProfile(mean=cols.mean(axis=1), std=cols.std(axis=1))


def matrix_samples(t_fixed: int) -> int:
    """Leading samples a t_fixed-column matrix reads: delta-delta column
    t_fixed - 1 reaches frame t_fixed - 1 + 2*DELTA_WINDOW, so later samples
    cannot change a kept value."""
    return (t_fixed + 2 * DELTA_WINDOW - 1) * HOP + FRAME_LEN


def assemble_features(samples: np.ndarray, t_fixed: int = DEFAULT_T_FIXED) -> FeatureMatrix:
    """Stack [mfcc; delta; delta-delta; zcr; rms] into a raw 41 x t_fixed matrix.

    ``samples`` are at ``PIPELINE_SAMPLE_RATE``, as ``read_wav`` returns them.
    Longer clips are truncated after the deltas are taken, shorter ones
    zero-padded on the right; only the first ``matrix_samples(t_fixed)``
    samples are framed. Normalization is applied later, when matrices are
    batched for the model. The values are read-only, as ``read_wav``'s
    samples are.
    """
    frames = frame_signal(samples[:matrix_samples(t_fixed)])
    coeffs = mfcc(frames)
    d1 = delta(coeffs, DELTA_WINDOW)
    d2 = delta(d1, DELTA_WINDOW)
    stacked = np.vstack([coeffs, d1, d2, zcr(frames)[None, :], rms(frames)[None, :]])

    n_valid = min(stacked.shape[1], t_fixed)
    values = np.zeros((stacked.shape[0], t_fixed), dtype=np.float64)
    values[:, :n_valid] = stacked[:, :n_valid]
    values = values.astype(np.float32)
    values.setflags(write=False)
    return FeatureMatrix(values=values, n_valid_frames=n_valid)
