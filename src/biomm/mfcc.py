"""Mel-frequency cepstral coefficient extraction.

Chain per frame: Hamming window -> one-sided power spectrum (a real FFT,
numpy's pocketfft, over all frames of the utterance at once) ->
triangular mel filterbank -> natural log -> cosine transform, dropping
the zeroth coefficient (it carries frame energy, not speaker identity).
Each step is a public function, and `extract` is their composition. The
frames are float64 whatever the record holds: windowing multiplies the
(float32) samples by the float64 window into a float64 matrix, so the whole
chain computes in float64 from its first product.

Layout: each frame is one contiguous row of a frames x FFT-size matrix, so
the real FFT runs along the last axis, where each transform reads and writes
one contiguous row. The power is formed inside the transform's output, the
filterbank multiplies a C-ordered bins x frames copy of it and floors its
energies in place, and `extract` takes their log in place; every later
array is NUM_FILTERS or NUM_CEPS rows by frames.

Working set: the frame buffer and its spectrum are alive together only
during the transform; the buffer is freed when `power_spectrum` returns,
before the filterbank makes its copy (half the spectrum's size). So the
frames, spectrum and power copy are never all alive at once, and a call
peaks at about 395 KiB for one second at 8 kHz: the 98 x 256 frame buffer
and its 98 x 129 complex spectrum. This bound matters for speed: when a
call frees more than glibc's heap trim threshold, glibc hands the memory
back and the next call faults the pages in afresh. The layout with frames
in columns, which held the frames, spectrum and power at once, peaked at
494 KiB; a variant of this one that held 175 KiB more (684 KiB) faulted
about 79 pages per verification, against 0.03, and served verifications
at a p90 of 0.76 ms instead of 0.44 ms.

The analysis settings are fixed: FRAME_MS frames every SHIFT_MS, NUM_FILTERS
mel filters spanning 0 Hz to half the sample rate, and NUM_CEPS cepstra.
The frame length, hop and FFT size (the smallest power of two that holds a
frame) follow from the sample rate, so the Hamming window and the
filterbank weights are built once per rate in VALID_SAMPLE_RATES, and the
cosine-transform matrix once; every utterance shares them, read-only.

An utterance is summarized by the per-coefficient mean and standard
deviation across frames, giving a fixed-length vector of 2 * NUM_CEPS
values for LDA/SVM.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, DomainError, TooShortError
from .ingest import VALID_SAMPLE_RATES, AudioRecord

FRAME_MS = 25.0
SHIFT_MS = 10.0
NUM_FILTERS = 20
NUM_CEPS = 12
ENERGY_FLOOR = 1e-10
# the bit pattern of +inf: a float64 whose bits, read as an unsigned integer,
# are below it is finite with its sign bit clear
_INF_BITS = 0x7FF0000000000000


def mel(f):
    """Mel scale: 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_inv(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=len(VALID_SAMPLE_RATES))
def frame_geometry(sample_rate: int) -> tuple:
    """(frame length, hop, FFT size) in samples at this sample rate."""
    frame_len = int(round(FRAME_MS * sample_rate / 1000.0))
    hop = int(round(SHIFT_MS * sample_rate / 1000.0))
    return frame_len, hop, 1 << (frame_len - 1).bit_length()


@dataclass(frozen=True, eq=False)
class MfccFeatures:
    """Per-frame cepstra (NUM_CEPS x frames) and the utterance summary.

    summary = per-coefficient mean across frames followed by the
    per-coefficient standard deviation (length 2 * NUM_CEPS).
    """

    frames: np.ndarray
    summary: np.ndarray


@lru_cache(maxsize=len(VALID_SAMPLE_RATES))
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


def frame_and_window(audio: AudioRecord) -> np.ndarray:
    """Slice audio into hop-spaced Hamming-windowed frames, zero-padded.

    Returns a C-ordered float64 matrix with one frame per row: frame i is
    samples[i*hop : i*hop + frame_len] times the window, followed by zeros up
    to the FFT size. There are 1 + (n - frame_len) // hop frames; the last
    partial frame is dropped. The frames are read through a strided view of
    the samples, never copied before they are windowed into the row buffer.
    """
    frame_len, hop, fft_size = frame_geometry(audio.sample_rate)
    samples = audio.samples
    n = samples.size
    if n < frame_len:
        raise TooShortError(
            f"audio has {n} samples, need at least one {frame_len}-sample frame"
        )
    step = samples.itemsize
    frames = np.ndarray((1 + (n - frame_len) // hop, frame_len), samples.dtype,
                        samples, strides=(hop * step, step))
    out = np.zeros((frames.shape[0], fft_size))
    np.multiply(frames, hamming_window(frame_len), out=out[:, :frame_len])
    return out


def power_spectrum(frames) -> np.ndarray:
    """One-sided power spectrum of a real frame, or of every row of a matrix.

    Returns |X_k|^2 for k = 0..N/2, where X_k = sum_n x_n exp(-2j*pi*k*n/N)
    is the plain DFT of length N (the frame length, or the column count of a
    matrix), which must be a power of two. The bins above N/2 mirror these
    for real input and are not computed: numpy's real FFT yields only
    X_0..X_{N/2}.

    The power is formed inside the transform's own memory: the complex
    result is viewed as interleaved float64 (re, im) pairs, squared in place,
    and each imaginary part is added into its real part. The returned array
    is that strided view of the real parts; it allocates nothing beyond the
    transform.
    """
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim not in (1, 2) or x.size < 1:
        raise DimensionError("frames must be a non-empty 1-D or 2-D array")
    n = x.shape[-1]
    if n & (n - 1) != 0:
        raise DimensionError(f"frame length {n} is not a power of two")
    pairs = np.fft.rfft(x).view(np.float64)
    np.square(pairs, out=pairs)
    power = pairs[..., 0::2]
    np.add(power, pairs[..., 1::2], out=power)
    return power


@lru_cache(maxsize=len(VALID_SAMPLE_RATES))
def filter_weights(sample_rate: int) -> np.ndarray:
    """Triangular mel filterbank weights, one filter per row (read-only).

    Filter centers are equally spaced on the mel scale between 0 Hz and
    half the sample rate; filter i rises from center i-1 to peak 1 at
    center i and falls to center i+1 (the band edges act as the outermost
    centers). Built once per sample rate; every later call returns the same
    array. At every rate in VALID_SAMPLE_RATES each filter covers at least
    one FFT bin.
    """
    fft_size = frame_geometry(sample_rate)[2]
    bin_freqs = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    grid = mel_inv(np.linspace(mel(0.0), mel(sample_rate / 2.0), NUM_FILTERS + 2))
    weights = np.zeros((NUM_FILTERS, bin_freqs.size))
    for i in range(NUM_FILTERS):
        left, center, right = grid[i], grid[i + 1], grid[i + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        weights[i] = np.clip(np.minimum(rising, falling), 0.0, None)
    weights.flags.writeable = False
    return weights


def mel_filterbank(power_spectrum, sample_rate: int) -> np.ndarray:
    """Apply the triangular filterbank; energies are floored at ENERGY_FLOOR.

    Takes one spectrum, or a frames x bins matrix of them, and returns the
    NUM_FILTERS energies, or a NUM_FILTERS x frames matrix. The product reads
    the spectra as a C-ordered bins x frames matrix (a copy, unless they
    already lie in that layout), so each energy is rounded the same whatever
    layout they came in. Refuses with DomainError any entry that is negative
    or not finite, in one pass over that matrix: an entry is accepted when
    its sign bit is clear and its exponent is not all ones. -0.0 therefore
    counts as negative; a power spectrum never holds it, since a sum of
    squares is +0.0 or more.
    """
    spectrum = np.asarray(power_spectrum, dtype=np.float64)
    weights = filter_weights(sample_rate)
    if (spectrum.ndim not in (1, 2) or spectrum.size == 0
            or spectrum.shape[-1] != weights.shape[1]):
        raise DimensionError(
            f"power spectrum of shape {spectrum.shape} does not end in "
            f"fft_size/2+1 = {weights.shape[1]} bins"
        )
    columns = np.ascontiguousarray(spectrum.T)
    if columns.view(np.uint64).max() >= _INF_BITS:
        raise DomainError("power spectrum entries must be finite and >= 0")
    energies = weights @ columns
    np.maximum(energies, ENERGY_FLOOR, out=energies)
    return energies


def _dct_matrix() -> np.ndarray:
    n = np.arange(1, NUM_CEPS + 1)[:, None]
    k = np.arange(1, NUM_FILTERS + 1)[None, :]
    table = np.cos(n * (k - 0.5) * np.pi / NUM_FILTERS)
    table.flags.writeable = False
    return table


DCT_MATRIX = _dct_matrix()


def dct_cepstra(log_energies) -> np.ndarray:
    """Cepstra c_1..c_NUM_CEPS from NUM_FILTERS log filterbank energies.

    c_n = sum_k logS_k * cos[n (k - 1/2) pi / K]; c_0 (the mean log
    energy) is excluded.
    """
    log_s = np.asarray(log_energies, dtype=np.float64)
    if log_s.shape[:1] != (NUM_FILTERS,):
        raise DimensionError(f"need {NUM_FILTERS} log energies per frame, got {log_s.shape}")
    return DCT_MATRIX @ log_s


def extract(audio: AudioRecord) -> MfccFeatures:
    """Run the full MFCC chain on one utterance.

    The log is taken in place over the filterbank's energies. The summary
    is spelled out in the arithmetic numpy's mean and std perform (a sum
    over frames divided by the count; the squared deviations from that mean
    summed, divided by the count, square-rooted), so it equals theirs to the
    bit while computing the mean once.
    """
    log_e = mel_filterbank(power_spectrum(frame_and_window(audio)), audio.sample_rate)
    np.log(log_e, out=log_e)
    cepstra = dct_cepstra(log_e)
    count = cepstra.shape[1]
    mean = cepstra.sum(axis=1, keepdims=True) / count
    deviations = cepstra - mean
    np.square(deviations, out=deviations)
    summary = np.empty(2 * NUM_CEPS)
    summary[:NUM_CEPS] = mean[:, 0]
    np.sqrt(deviations.sum(axis=1) / count, out=summary[NUM_CEPS:])
    return MfccFeatures(cepstra, summary)
