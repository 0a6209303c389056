"""Mel-frequency cepstral coefficient extraction.

Chain per frame: Hamming window -> one-sided power spectrum (a real FFT,
numpy's pocketfft, over all frames of the utterance at once) ->
triangular mel filterbank -> natural log -> cosine transform, dropping
the zeroth coefficient (it carries frame energy, not speaker identity).
Each step is a public function that takes a matrix of frame columns, and
`extract` is their composition.

The Hamming window, the filterbank weights and the cosine-transform
matrix depend only on the configuration and the sample rate, so each is
built once per distinct frame length or (config, sample rate) and then
shared, read-only, by every utterance.

An utterance is summarized by the per-coefficient mean and standard
deviation across frames, giving a fixed-length vector for LDA/SVM.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError, ResolutionError, TooShortError
from .ingest import AudioRecord

ENERGY_FLOOR = 1e-10
TABLE_CACHE_SIZE = 16  # distinct configurations whose tables stay built


def mel(f):
    """Mel scale: 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_inv(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


class _Params(NamedTuple):
    frame_len: int
    hop: int
    fft_size: int
    fmin: float
    fmax: float


@dataclass(frozen=True)
class MfccConfig:
    """Analysis parameters; fft_size and fmax_hz default from the sample rate."""

    frame_ms: float = 25.0
    shift_ms: float = 10.0
    fft_size: int | None = None
    num_filters: int = 20
    num_ceps: int = 12
    fmin_hz: float = 0.0
    fmax_hz: float | None = None

    def resolve(self, sample_rate: int) -> _Params:
        if self.frame_ms <= 0 or self.shift_ms <= 0:
            raise DomainError("frame_ms and shift_ms must be positive")
        frame_len = int(round(self.frame_ms * sample_rate / 1000.0))
        hop = int(round(self.shift_ms * sample_rate / 1000.0))
        if frame_len < 2 or hop < 1:
            raise DomainError("frame geometry too small for this sample rate")
        fft_size = self.fft_size
        if fft_size is None:
            fft_size = 1
            while fft_size < frame_len:
                fft_size *= 2
        if fft_size < frame_len or fft_size & (fft_size - 1) != 0:
            raise DomainError(
                f"fft_size must be a power of two >= frame length {frame_len}"
            )
        fmax = self.fmax_hz if self.fmax_hz is not None else sample_rate / 2.0
        if not self.fmin_hz < fmax <= sample_rate / 2.0:
            raise DomainError(
                f"need fmin < fmax <= sample_rate/2, got [{self.fmin_hz}, {fmax}]"
            )
        if not 1 <= self.num_ceps < self.num_filters:
            raise DomainError("num_ceps must satisfy 1 <= num_ceps < num_filters")
        return _Params(frame_len, hop, fft_size, self.fmin_hz, fmax)


@dataclass(frozen=True, eq=False)
class MfccFeatures:
    """Per-frame cepstra (num_ceps x frames) and the utterance summary.

    summary = per-coefficient mean across frames followed by the
    per-coefficient standard deviation (length 2*num_ceps).
    """

    frames: np.ndarray
    summary: np.ndarray


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def hamming_window(length: int) -> np.ndarray:
    """Hamming window 0.54 - 0.46*cos(2*pi*n/(N-1)) for n = 0..N-1.

    Built once per length; every later call returns the same read-only
    array.
    """
    if length < 2:
        raise DomainError("window length must be >= 2")
    n = np.arange(length)
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (length - 1))
    window.flags.writeable = False
    return window


def frame_and_window(audio: AudioRecord, cfg: MfccConfig) -> np.ndarray:
    """Slice audio into hop-spaced Hamming-windowed frames, zero-padded.

    Returns a matrix with one frame per column (fft_size rows); the last
    partial frame is dropped.
    """
    params = cfg.resolve(audio.sample_rate)
    n = audio.samples.size
    if n < params.frame_len:
        raise TooShortError(
            f"audio has {n} samples, need at least one {params.frame_len}-sample frame"
        )
    windows = np.lib.stride_tricks.sliding_window_view(audio.samples, params.frame_len)
    frames = windows[:: params.hop].T
    out = np.zeros((params.fft_size, frames.shape[1]))
    np.multiply(frames, hamming_window(params.frame_len)[:, None], out=out[: params.frame_len])
    return out


def power_spectrum(frames) -> np.ndarray:
    """One-sided power spectrum of a real frame, or of every column of a matrix.

    Returns |X_k|^2 for k = 0..N/2, where X_k = sum_n x_n exp(-2j*pi*k*n/N)
    is the plain DFT of length N (the frame length, or the row count of a
    matrix), which must be a power of two. The bins above N/2 mirror these
    for real input and are not computed: numpy's real FFT yields only
    X_0..X_{N/2}.
    """
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim not in (1, 2) or x.size < 1:
        raise DimensionError("frames must be a non-empty 1-D or 2-D array")
    n = x.shape[0]
    if n & (n - 1) != 0:
        raise DimensionError(f"frame length {n} is not a power of two")
    spectrum = np.fft.rfft(x, axis=0)
    # square in place: the sum is the only array allocated besides the transform
    re, im = spectrum.real, spectrum.imag
    np.square(re, out=re)
    np.square(im, out=im)
    return re + im


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def filter_weights(cfg: MfccConfig, sample_rate: int) -> np.ndarray:
    """Triangular mel filterbank weights, one filter per row (read-only).

    Filter centers are equally spaced on the mel scale between fmin and
    fmax; filter i rises from center i-1 to peak 1 at center i and falls
    to center i+1 (fmin/fmax act as the outermost edges). Built once per
    (cfg, sample_rate); every later call returns the same array.
    """
    params = cfg.resolve(sample_rate)
    n_bins = params.fft_size // 2 + 1
    bin_freqs = np.arange(n_bins) * sample_rate / params.fft_size
    grid = mel_inv(np.linspace(mel(params.fmin), mel(params.fmax), cfg.num_filters + 2))
    weights = np.zeros((cfg.num_filters, n_bins))
    for i in range(cfg.num_filters):
        left, center, right = grid[i], grid[i + 1], grid[i + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        weights[i] = np.clip(np.minimum(rising, falling), 0.0, None)
        if not np.any(weights[i] > 0.0):
            raise ResolutionError(
                f"filter {i} covers no FFT bin; lower num_filters or raise fft_size"
            )
    weights.flags.writeable = False
    return weights


def mel_filterbank(power_spectrum, cfg: MfccConfig, sample_rate: int) -> np.ndarray:
    """Apply the triangular filterbank; energies are floored at 1e-10."""
    spectrum = np.asarray(power_spectrum, dtype=np.float64)
    weights = filter_weights(cfg, sample_rate)
    if spectrum.shape[0] != weights.shape[1]:
        raise DimensionError(
            f"power spectrum length {spectrum.shape[0]} != fft_size/2+1 = {weights.shape[1]}"
        )
    if spectrum.min() < 0:
        raise DomainError("power spectrum entries must be >= 0")
    return np.maximum(weights @ spectrum, ENERGY_FLOOR)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _dct_matrix(num_ceps: int, num_filters: int) -> np.ndarray:
    n = np.arange(1, num_ceps + 1)[:, None]
    k = np.arange(1, num_filters + 1)[None, :]
    table = np.cos(n * (k - 0.5) * np.pi / num_filters)
    table.flags.writeable = False
    return table


def dct_cepstra(log_energies, num_ceps: int) -> np.ndarray:
    """Cepstra c_1..c_num_ceps from log filterbank energies.

    c_n = sum_k logS_k * cos[n (k - 1/2) pi / K]; c_0 (the mean log
    energy) is excluded.
    """
    log_s = np.asarray(log_energies, dtype=np.float64)
    k = log_s.shape[0]
    if not 1 <= num_ceps <= k - 1:
        raise DomainError(f"num_ceps must lie in [1, K-1] = [1, {k - 1}]")
    return _dct_matrix(num_ceps, k) @ log_s


def extract(audio: AudioRecord, cfg: MfccConfig | None = None) -> MfccFeatures:
    """Run the full MFCC chain on one utterance."""
    cfg = cfg or MfccConfig()
    power = power_spectrum(frame_and_window(audio, cfg))
    log_e = np.log(mel_filterbank(power, cfg, audio.sample_rate))
    cepstra = dct_cepstra(log_e, cfg.num_ceps)
    summary = np.concatenate([cepstra.mean(axis=1), cepstra.std(axis=1)])
    return MfccFeatures(cepstra, summary)
