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

from .audio_io import AudioClip
from .errors import ConfigError

N_MFCC = 13  # cepstral coefficients per frame
DEFAULT_T_FIXED = 300
# Part of every feature-cache key: bump it whenever a change to decoding,
# resampling or this module alters the matrices extract_features returns, so
# no cached matrix from older code is served.
FEATURE_CODE_VERSION = 3

FEATURE_ROW_LABELS = tuple(
    [f"mfcc_{i:02d}" for i in range(N_MFCC)]
    + [f"delta_{i:02d}" for i in range(N_MFCC)]
    + [f"delta2_{i:02d}" for i in range(N_MFCC)]
    + ["zcr", "rms"]
)
N_FEATURE_ROWS = len(FEATURE_ROW_LABELS)


@dataclass(frozen=True)
class FrameConfig:
    """Analysis framing: 25 ms frames, 10 ms hop at 16 kHz by default."""

    frame_len_samples: int = 400
    hop_samples: int = 160

    def __post_init__(self):
        if self.frame_len_samples <= 0 or self.hop_samples <= 0:
            raise ConfigError("frame length and hop must be positive")
        if self.hop_samples > self.frame_len_samples:
            raise ConfigError("hop must not exceed frame length")


@dataclass(frozen=True)
class MfccConfig:
    """Mel-cepstrum chain parameters.

    ``fmax_hz`` of 0 means the Nyquist frequency of the clip being
    analyzed. ``delta_window`` is the regression half-width used for the
    temporal derivatives.
    """

    n_fft: int = 512
    n_mels: int = 26
    fmin_hz: float = 0.0
    fmax_hz: float = 0.0
    log_floor: float = 1e-10
    delta_window: int = 2

    def __post_init__(self):
        if self.n_fft < 1 or (self.n_fft & (self.n_fft - 1)) != 0:
            raise ConfigError(f"n_fft must be a power of two, got {self.n_fft}")
        if self.n_mels < N_MFCC:
            raise ConfigError(f"n_mels must be >= {N_MFCC}, got {self.n_mels}")
        if self.log_floor <= 0:
            raise ConfigError("log_floor must be positive")
        if self.delta_window < 1:
            raise ConfigError("delta_window must be >= 1")

    def resolve_fmax(self, sample_rate_hz: int) -> float:
        fmax = self.fmax_hz if self.fmax_hz > 0 else sample_rate_hz / 2.0
        if not self.fmin_hz < fmax <= sample_rate_hz / 2.0:
            raise ConfigError(
                f"need fmin < fmax <= Nyquist, got fmin={self.fmin_hz}, fmax={fmax}"
            )
        return fmax


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


def frame_signal(clip: AudioClip, cfg: FrameConfig = FrameConfig()) -> np.ndarray:
    """Slice a clip into overlapping frames, shape (T, frame_len).

    Clips shorter than one frame are zero-padded to a single full frame.
    No window is applied here; windowing belongs to the spectral ops. The
    result is a read-only strided view of the samples, not a copy.
    """
    x = np.asarray(clip.samples, dtype=np.float64)
    flen, hop = cfg.frame_len_samples, cfg.hop_samples
    if len(x) < flen:
        x = np.pad(x, (0, flen - len(x)))
    n_frames = (len(x) - flen) // hop + 1
    return np.lib.stride_tricks.sliding_window_view(x, flen)[::hop][:n_frames]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


@functools.lru_cache(maxsize=8)
def _mel_filterbank(n_mels: int, n_fft: int, sample_rate_hz: int,
                    fmin_hz: float, fmax_hz: float) -> np.ndarray:
    """Triangular filters, unit peak, spaced evenly on the mel scale.

    Shape (n_mels, n_fft//2 + 1); triangles are evaluated in mel space at
    the FFT bin center frequencies.
    """
    bin_mels = hz_to_mel(np.arange(n_fft // 2 + 1) * (sample_rate_hz / n_fft))
    points = np.linspace(hz_to_mel(fmin_hz), hz_to_mel(fmax_hz), n_mels + 2)
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


def mfcc(frames: np.ndarray, sample_rate_hz: int,
         cfg: MfccConfig = MfccConfig()) -> np.ndarray:
    """Mel-frequency cepstral coefficients, shape (N_MFCC, T).

    Per frame: Hamming window, magnitude-squared FFT spectrum, triangular
    mel filterbank, natural log with a floor, orthonormal DCT-II keeping
    the lowest coefficients.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if cfg.n_fft < frames.shape[1]:
        raise ConfigError(f"n_fft {cfg.n_fft} smaller than frame length {frames.shape[1]}")
    fmax = cfg.resolve_fmax(sample_rate_hz)
    window = np.hamming(frames.shape[1])
    spectrum = np.fft.rfft(frames * window, n=cfg.n_fft, axis=1)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    fb = _mel_filterbank(cfg.n_mels, cfg.n_fft, sample_rate_hz, cfg.fmin_hz, fmax)
    energies = power @ fb.T
    log_energies = np.log(np.maximum(energies, cfg.log_floor))
    coeffs = log_energies @ _dct_ortho_matrix(cfg.n_mels)[:N_MFCC].T
    return coeffs.T


def delta(matrix: np.ndarray, n: int = 2) -> np.ndarray:
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


def assemble_features(clip: AudioClip,
                      frame_cfg: FrameConfig = FrameConfig(),
                      mfcc_cfg: MfccConfig = MfccConfig(),
                      t_fixed: int = DEFAULT_T_FIXED) -> FeatureMatrix:
    """Stack [mfcc; delta; delta-delta; zcr; rms] into a raw 41 x t_fixed matrix.

    Longer clips are truncated after the deltas are taken, shorter ones
    zero-padded on the right. Delta-delta column t_fixed - 1 reaches frame
    t_fixed - 1 + 2*delta_window, so only the samples up to that frame are
    framed: later ones cannot change a kept value. Normalization is applied
    later, when matrices are batched for the model.
    """
    keep = (t_fixed + 2 * mfcc_cfg.delta_window - 1) * frame_cfg.hop_samples \
        + frame_cfg.frame_len_samples
    if len(clip.samples) > keep:
        clip = AudioClip(clip.samples[:keep], clip.sample_rate_hz, clip.source_path)
    frames = frame_signal(clip, frame_cfg)
    coeffs = mfcc(frames, clip.sample_rate_hz, mfcc_cfg)
    d1 = delta(coeffs, mfcc_cfg.delta_window)
    d2 = delta(d1, mfcc_cfg.delta_window)
    stacked = np.vstack([coeffs, d1, d2, zcr(frames)[None, :], rms(frames)[None, :]])

    n_valid = min(stacked.shape[1], t_fixed)
    values = np.zeros((stacked.shape[0], t_fixed), dtype=np.float64)
    values[:, :n_valid] = stacked[:, :n_valid]
    return FeatureMatrix(values=values.astype(np.float32), n_valid_frames=n_valid)
