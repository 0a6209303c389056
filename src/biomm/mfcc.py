"""Mel-frequency cepstral coefficient extraction.

Chain per frame: Hamming window -> one-sided power spectrum (a real FFT,
numpy's pocketfft, over all frames of the utterance at once) ->
triangular mel filterbank -> natural log -> cosine transform, dropping
the zeroth coefficient (it carries frame energy, not speaker identity).
Each step but the log is a public function (`mel_energies` takes the
spectrum and the filterbank together), and `extract` is their composition.
The frames are float64 whatever the record holds: windowing multiplies the
(float32) samples by the float64 window into a float64 matrix, so the whole
chain computes in float64 from its first product.

Layout: each frame is one contiguous row of a frames x FFT-size matrix, so
the real FFT runs along the last axis, where each transform reads and writes
one contiguous row. A filter's energy is sum_k w_k (Re_k^2 + Im_k^2), so
`mel_energies` squares the transform's output in place, read as interleaved
float64 (re, im) pairs, and multiplies those frames x (2 * bins) squares by
a (2 * bins) x NUM_FILTERS table that gives each bin's weight once for its
real and once for its imaginary part. The power spectrum is never formed as
an array of its own. The product is frames x NUM_FILTERS; `extract` takes
its log in place and hands its transpose, a view, to `dct_cepstra`, so every
later array is NUM_CEPS rows by frames.

Working set: the frame buffer, its complex spectrum and the small energies
matrix are all that a call allocates, and the first two are alive together
only while `mel_energies` runs. A call peaks at about 412 KiB for one second
at 8 kHz: the 98 x 256 frame buffer, its 98 x 129 complex spectrum and the
98 x 20 energies. This bound matters for speed: when a call frees more than
glibc's heap trim threshold, glibc hands the memory back and the next call
faults the pages in afresh. The layout with frames in columns, which held
the frames, spectrum and power at once, peaked at 494 KiB; a variant that
held 684 KiB faulted about 79 pages per verification, against 0.03, and
served verifications at a p90 of 0.76 ms instead of 0.44 ms.

The analysis settings are fixed: FRAME_MS frames every SHIFT_MS, NUM_FILTERS
mel filters spanning 0 Hz to half the sample rate, and NUM_CEPS cepstra.
The frame length, hop and FFT size (the smallest power of two that holds a
frame) follow from the sample rate, so the Hamming window, the filterbank
weights and their (re, im) pair table are built once per rate in
VALID_SAMPLE_RATES, and the cosine-transform matrix once; every utterance
shares them, read-only.

`extract` summarizes an utterance by the per-coefficient mean and then
standard deviation across frames: a float64 vector of 2 * NUM_CEPS values
for LDA/SVM. It keeps no per-frame cepstra; the public stages give them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionError, DomainError, TooShortError
from .ingest import VALID_SAMPLE_RATES, AudioRecord

FRAME_MS = 25.0
SHIFT_MS = 10.0
NUM_FILTERS = 20
NUM_CEPS = 12
ENERGY_FLOOR = 1e-10


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
    out = np.empty((frames.shape[0], fft_size))
    np.multiply(frames, hamming_window(frame_len), out=out[:, :frame_len])
    out[:, frame_len:] = 0.0
    return out


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


@lru_cache(maxsize=len(VALID_SAMPLE_RATES))
def _pair_weights(sample_rate: int) -> np.ndarray:
    """filter_weights(sample_rate).T with each bin's row given twice, once
    for its real and once for its imaginary part (read-only): a (2 * bins) x
    NUM_FILTERS table that weighs the squared (re, im) pairs of a real FFT."""
    table = np.repeat(filter_weights(sample_rate).T, 2, axis=0)
    table.flags.writeable = False
    return table


def mel_energies(frames, sample_rate: int) -> np.ndarray:
    """Mel filterbank energies of every row of a frames x FFT-size matrix.

    Returns the frames x NUM_FILTERS matrix of sum_k w_ik |X_k|^2, floored at
    ENERGY_FLOOR, where X_k = sum_n x_n exp(-2j*pi*k*n/N) is the plain DFT of
    the row, k = 0..N/2, and w = filter_weights(sample_rate). The bins above
    N/2 mirror these for real input and are not computed: numpy's real FFT
    yields only X_0..X_{N/2}. Anything but a non-empty 2-D matrix whose rows
    are this rate's FFT size, a single 1-D frame included, raises
    DimensionError; a frame whose spectrum is not finite or whose power
    overflows (a NaN or infinite sample, say) raises DomainError.

    The power spectrum is never formed: |X_k|^2 = Re^2 + Im^2, so the
    transform's complex result is viewed as interleaved float64 (re, im)
    pairs, squared in place, and multiplied by a table that repeats each
    bin's weights for both parts of the pair. The call allocates the
    transform and the energies only.
    """
    x = np.asarray(frames, dtype=np.float64)
    fft_size = frame_geometry(sample_rate)[2]
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] != fft_size:
        raise DimensionError(
            f"frames of shape {x.shape} are not a frames x (fft_size = {fft_size}) matrix"
        )
    # a non-finite or overflowing pair reaches every filter's sum as inf or
    # NaN (0 * inf is NaN), so the small energies matrix is the one checked
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = np.fft.rfft(x).view(np.float64)
        np.square(pairs, out=pairs)
        energies = pairs @ _pair_weights(sample_rate)
    if not np.isfinite(energies).all():
        raise DomainError("frames must have a finite power spectrum")
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
    """Cepstra c_1..c_NUM_CEPS of each column of a non-empty NUM_FILTERS x
    frames matrix of log filterbank energies, as a NUM_CEPS x frames matrix;
    anything else, a single 1-D frame included, raises DimensionError.

    c_n = sum_k logS_k * cos[n (k - 1/2) pi / K]; c_0 (the mean log
    energy) is excluded.
    """
    log_s = np.asarray(log_energies, dtype=np.float64)
    if log_s.ndim != 2 or log_s.shape[0] != NUM_FILTERS or log_s.size == 0:
        raise DimensionError(f"log energies of shape {log_s.shape} are not {NUM_FILTERS} x frames")
    return DCT_MATRIX @ log_s


def extract(audio: AudioRecord) -> np.ndarray:
    """Run the full MFCC chain on one utterance and return its summary.

    The log is taken in place over the frames x NUM_FILTERS energies, and
    the cosine transform reads them through their transposed view. The summary
    is spelled out in the arithmetic numpy's mean and std perform (a sum
    over frames divided by the count; the squared deviations from that mean
    summed, divided by the count, square-rooted), so it equals theirs to the
    bit while computing the mean once.
    """
    log_e = mel_energies(frame_and_window(audio), audio.sample_rate)
    np.log(log_e, out=log_e)
    cepstra = dct_cepstra(log_e.T)
    count = cepstra.shape[1]
    mean = cepstra.sum(axis=1, keepdims=True) / count
    deviations = cepstra - mean
    np.square(deviations, out=deviations)
    summary = np.empty(2 * NUM_CEPS)
    summary[:NUM_CEPS] = mean[:, 0]
    np.sqrt(deviations.sum(axis=1) / count, out=summary[NUM_CEPS:])
    return summary
