"""Per-frame acoustic features and the fixed-shape matrix fed to the network.

Five features per frame: 13 cepstral coefficients from a mel filterbank,
their first and second temporal derivatives, zero-crossing rate, and RMS
energy. Stacked in that order the matrix has 41 rows; the time axis is
truncated or zero-padded to a fixed number of columns.
"""

from __future__ import annotations

import functools
import math
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
    """Per-feature-row z-score statistics, computed on a training split;
    ``train_eval._to_batch_array`` alone applies them."""

    mean: np.ndarray  # (41,)
    std: np.ndarray  # (41,), zero entries treated as 1


@dataclass
class FeatureMatrix:
    """41 x T_fixed feature matrix; columns past ``n_valid_frames`` are zero."""

    values: np.ndarray
    n_valid_frames: int


def _padded(samples) -> np.ndarray:
    """The float64 signal every stage frames: ``samples``, zero-padded to one
    full frame when shorter than ``FRAME_LEN``."""
    x = np.asarray(samples, dtype=np.float64)
    return np.pad(x, (0, FRAME_LEN - len(x))) if len(x) < FRAME_LEN else x


def _n_frames(n_samples: int) -> int:
    """Frames of a padded signal of ``n_samples``: one every HOP that fits whole."""
    return (n_samples - FRAME_LEN) // HOP + 1


def _frame_view(x: np.ndarray) -> np.ndarray:
    """(T, FRAME_LEN) read-only strided view of a padded signal's frames."""
    step = x.strides[0]
    return np.lib.stride_tricks.as_strided(x, (_n_frames(len(x)), FRAME_LEN), (HOP * step, step),
                                           writeable=False)


def frame_signal(samples: np.ndarray) -> np.ndarray:
    """Slice 16 kHz samples into overlapping frames, shape (T, FRAME_LEN).

    Signals shorter than one frame are zero-padded to a single full frame.
    No window is applied here; windowing belongs to the spectral ops. The
    result is a read-only strided view of the samples, not a copy.
    ``zcr`` and ``rms`` follow the same framing rule on the samples.
    """
    return _frame_view(_padded(samples))


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


@functools.lru_cache(maxsize=8)
def _hamming_window(n: int) -> np.ndarray:
    return np.hamming(n)


def mfcc(frames: np.ndarray) -> np.ndarray:
    """Mel-frequency cepstral coefficients of 16 kHz frames, shape (N_MFCC, T).

    Per frame: Hamming window, magnitude-squared FFT spectrum, triangular
    mel filterbank, natural log with a floor, orthonormal DCT-II keeping
    the lowest coefficients. The windowed frames are written once, into a
    zero-padded (T, N_FFT) buffer, and the spectrum is squared in place;
    the result is bit-equal to ``rfft(frames * window, n=N_FFT)`` squared
    as ``real**2 + imag**2``.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if N_FFT < frames.shape[1]:
        raise ConfigError(f"n_fft {N_FFT} smaller than frame length {frames.shape[1]}")
    padded = np.zeros((frames.shape[0], N_FFT))
    np.multiply(frames, _hamming_window(frames.shape[1]), out=padded[:, :frames.shape[1]])
    spectrum = np.fft.rfft(padded, axis=1)
    parts = spectrum.view(np.float64).reshape(*spectrum.shape, 2)  # (re, im) pairs
    np.square(parts, out=parts)
    power = parts[..., 0] + parts[..., 1]
    energies = power @ _mel_filterbank().T
    log_energies = np.log(np.maximum(energies, LOG_FLOOR))
    coeffs = log_energies @ _dct_ortho_matrix(N_MELS)[:N_MFCC].T
    return coeffs.T


def delta(matrix: np.ndarray, n: int = DELTA_WINDOW) -> np.ndarray:
    """Regression-slope temporal derivative along columns, edge-replicated.

    d_t = sum_{k=1..n} k (c_{t+k} - c_{t-k}) / (2 sum k^2); applying it
    twice gives the second derivative. Columns past either edge repeat the
    edge column.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    t = matrix.shape[1]
    padded = np.empty((matrix.shape[0], t + 2 * n))
    padded[:, n:n + t] = matrix
    padded[:, :n] = matrix[:, :1]
    padded[:, n + t:] = matrix[:, -1:]
    num = np.zeros((matrix.shape[0], t))
    for k in range(1, n + 1):
        num += k * (padded[:, n + k:n + k + t] - padded[:, n - k:n - k + t])
    return num / (2.0 * sum(k * k for k in range(1, n + 1)))


# Zero-crossing counts are summed over blocks of _BLOCK sign comparisons:
# every frame start and frame length is a whole number of blocks.
_BLOCK = math.gcd(HOP, FRAME_LEN)


def zcr(samples: np.ndarray) -> np.ndarray:
    """Fraction of adjacent-sample sign changes in each frame of ``samples``.

    ``samples`` are the 16 kHz samples ``frame_signal`` frames, under the
    same framing rule (shorter than one frame: zero-padded to one); the
    result has one value per frame. Zeros, ``-0.0`` included, count as
    positive. Each adjacent pair is compared once: the changes are summed
    over blocks of gcd(HOP, FRAME_LEN) = 80 comparisons, and a frame's
    count is its five blocks minus the comparison that leaves the frame,
    in exact integers.
    """
    nonneg = _padded(samples) >= 0
    n_frames = _n_frames(len(nonneg))
    span = (n_frames - 1) * HOP + FRAME_LEN  # samples the frames cover
    changes = np.empty(span, dtype=bool)  # changes[i]: sample i vs i + 1
    np.not_equal(nonneg[1:span], nonneg[:span - 1], out=changes[:-1])
    changes[-1] = False  # the pair past the last frame belongs to none
    blocks = changes.reshape(-1, _BLOCK).sum(axis=1, dtype=np.intp)
    step = HOP // _BLOCK
    counts = sum(blocks[j:j + step * n_frames:step] for j in range(FRAME_LEN // _BLOCK))
    counts -= changes[FRAME_LEN - 1::HOP]
    return counts / (FRAME_LEN - 1)


def rms(samples: np.ndarray) -> np.ndarray:
    """Root-mean-square amplitude of each frame of ``samples``.

    ``samples`` and the result follow ``zcr``'s contract: one value per
    frame of ``frame_signal``'s framing. Each sample is squared once; the
    mean runs over the frames of the squares.
    """
    x = _padded(samples)
    return np.sqrt(np.mean(_frame_view(x * x), axis=1))


def compute_normalization(matrices: list) -> NormalizationProfile:
    """Row statistics over the valid frames of the given feature matrices.

    One feature row at a time: its valid values fill one float64 array of
    N values, whose sum gives the mean and whose own deviations the std, so
    the peak is one row's N values. The statistics are bit-equal to numpy's
    ``mean(axis=1)`` and ``std(axis=1)`` over the (41, N) array of every
    valid column, which sums each row the same way.
    """
    n = sum(m.n_valid_frames for m in matrices)
    mean, std, row = np.empty(N_FEATURE_ROWS), np.empty(N_FEATURE_ROWS), np.empty(n)
    for i in range(N_FEATURE_ROWS):
        np.concatenate([m.values[i, :m.n_valid_frames] for m in matrices], out=row)
        mean[i] = row.sum() / n
        row -= mean[i]
        std[i] = np.sqrt(np.multiply(row, row, out=row).sum() / n)
    return NormalizationProfile(mean=mean, std=std)


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
    samples are framed. ``mfcc`` reads ``frame_signal``'s frames of them,
    ``zcr`` and ``rms`` read the samples themselves under the same framing
    rule, and every stage's rows are written straight into the float32
    matrix. Normalization is applied later, when matrices are batched for
    the model. The values are read-only, as ``read_wav``'s samples are.
    """
    x = samples[:matrix_samples(t_fixed)]
    coeffs = mfcc(frame_signal(x))
    d1 = delta(coeffs, DELTA_WINDOW)
    d2 = delta(d1, DELTA_WINDOW)
    n_valid = min(coeffs.shape[1], t_fixed)
    values = np.zeros((N_FEATURE_ROWS, t_fixed), dtype=np.float32)
    for row, block in enumerate((coeffs, d1, d2)):
        values[row * N_MFCC:(row + 1) * N_MFCC, :n_valid] = block[:, :n_valid]
    values[3 * N_MFCC, :n_valid] = zcr(x)[:n_valid]
    values[3 * N_MFCC + 1, :n_valid] = rms(x)[:n_valid]
    values.setflags(write=False)
    return FeatureMatrix(values=values, n_valid_frames=n_valid)
