import tracemalloc

import numpy as np
import pytest

from biomm import mfcc
from biomm.errors import DimensionError, DomainError, TooShortError
from biomm.ingest import VALID_SAMPLE_RATES, AudioRecord


def naive_dft(x):
    """O(N^2) DFT oracle: X_k = sum_n x_n exp(-2j pi k n / N)."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ x


def stage_cepstra(audio):
    """Per-frame cepstra (NUM_CEPS x frames), composed of the public stages."""
    energies = mfcc.mel_filterbank(
        mfcc.power_spectrum(mfcc.frame_and_window(audio)), audio.sample_rate
    )
    return mfcc.dct_cepstra(np.log(energies))


def test_naive_oracle_self_check():
    # the oracle itself, spelled as an explicit double loop, on one case
    rng = np.random.RandomState(0)
    x = rng.standard_normal(8)
    loops = np.zeros(8, dtype=np.complex128)
    for k in range(8):
        for n in range(8):
            loops[k] += x[n] * np.exp(-2j * np.pi * k * n / 8)
    np.testing.assert_allclose(naive_dft(x), loops, atol=1e-12)


class TestHamming:
    def test_endpoints(self):
        window = mfcc.hamming_window(100)
        assert abs(window[0] - 0.08) < 1e-12
        assert abs(window[99] - 0.08) < 1e-12

    def test_midpoint_odd(self):
        assert abs(mfcc.hamming_window(101)[50] - 1.0) < 1e-12

    def test_symmetry(self):
        window = mfcc.hamming_window(64)
        assert np.abs(window - window[::-1]).max() < 1e-12

    def test_built_once_and_read_only(self):
        window = mfcc.hamming_window(200)
        assert mfcc.hamming_window(200) is window
        with pytest.raises(ValueError):
            window[0] = 1.0
        np.testing.assert_array_equal(window, mfcc.hamming_window.__wrapped__(200))


class TestFraming:
    def test_frame_count_8khz(self):
        audio = AudioRecord(8000, np.random.RandomState(0).uniform(-0.5, 0.5, 8000))
        frames = mfcc.frame_and_window(audio)
        assert frames.shape == (98, 256)  # 1 + (8000 - 200) // 80 frames of the FFT size

    def test_constant_signal_gives_window(self):
        audio = AudioRecord(8000, np.full(400, 1.0))
        frames = mfcc.frame_and_window(audio)
        frame_len = mfcc.frame_geometry(8000)[0]
        np.testing.assert_allclose(frames[0, :frame_len], mfcc.hamming_window(frame_len))
        np.testing.assert_array_equal(frames[0, frame_len:], 0.0)

    def test_matches_loop_oracle(self):
        record = AudioRecord(8000, np.random.RandomState(7).uniform(-0.5, 0.5, 1000))
        # the oracle frames the values the record holds, in float64
        samples = record.samples.astype(np.float64)
        frame_len, hop, fft_size = mfcc.frame_geometry(8000)
        frames = mfcc.frame_and_window(record)
        assert frames.dtype == np.float64 and frames.flags.c_contiguous
        assert frames.shape == (1 + (1000 - frame_len) // hop, fft_size)
        window = mfcc.hamming_window(frame_len)
        for i in range(frames.shape[0]):
            start = i * hop
            expected = np.zeros(fft_size)
            expected[:frame_len] = samples[start : start + frame_len] * window
            np.testing.assert_array_equal(frames[i], expected)

    def test_zero_audio_zero_frames(self):
        audio = AudioRecord(8000, np.zeros(1000))
        frames = mfcc.frame_and_window(audio)
        assert np.all(frames == 0.0)

    def test_too_short(self):
        audio = AudioRecord(8000, np.zeros(100))
        with pytest.raises(TooShortError):
            mfcc.frame_and_window(audio)

    def test_hop_shift_drops_one_frame(self):
        rng = np.random.RandomState(1)
        samples = rng.uniform(-0.5, 0.5, 4000)
        hop = mfcc.frame_geometry(8000)[1]
        full = stage_cepstra(AudioRecord(8000, samples))
        shifted = stage_cepstra(AudioRecord(8000, samples[hop:]))
        assert shifted.shape[1] == full.shape[1] - 1
        np.testing.assert_array_equal(shifted, full[:, 1:])


def naive_power(x):
    """One-sided power spectrum from the oracle: |X_k|^2 for k = 0..N/2."""
    return np.abs(naive_dft(x)[: len(x) // 2 + 1]) ** 2


class TestDft:
    """power_spectrum against the naive DFT oracle; a single frame is given
    as a 1-row matrix."""

    def test_constant_is_dc_only(self):
        np.testing.assert_allclose(
            mfcc.power_spectrum([[1.0, 1.0, 1.0, 1.0]]), [[16.0, 0.0, 0.0]], atol=1e-12
        )

    def test_impulse_is_flat(self):
        x = np.zeros((1, 8))
        x[0, 0] = 1.0
        np.testing.assert_allclose(mfcc.power_spectrum(x), np.ones((1, 5)), atol=1e-12)

    def test_matches_naive_length_64(self):
        rng = np.random.RandomState(2)
        x = rng.standard_normal(64)
        expected = naive_power(x)
        got = mfcc.power_spectrum(x[None, :])[0]
        rel = np.abs(got - expected).max() / np.abs(expected).max()
        assert rel <= 1e-9

    def test_matches_naive_many_sizes(self):
        rng = np.random.RandomState(3)
        for size in (64, 128, 256, 512, 1024):
            for _ in range(5):
                x = rng.standard_normal(size)
                expected = naive_power(x)
                got = mfcc.power_spectrum(x[None, :])[0]
                rel = np.abs(got - expected).max() / np.abs(expected).max()
                assert rel <= 1e-9

    def test_parseval(self):
        # one-sided: the bins strictly between DC and Nyquist stand for two
        rng = np.random.RandomState(4)
        for size in (64, 256, 1024):
            x = rng.standard_normal(size)
            power = mfcc.power_spectrum(x[None, :])[0]
            time_energy = (x * x).sum()
            freq_energy = (power[0] + 2.0 * power[1:-1].sum() + power[-1]) / size
            assert abs(time_energy - freq_energy) <= 1e-9 * time_energy

    def test_matrix_transforms_each_row(self):
        rng = np.random.RandomState(5)
        x = rng.standard_normal((6, 128))
        expected = np.vstack([naive_power(x[i]) for i in range(6)])
        rel = np.abs(mfcc.power_spectrum(x) - expected).max() / np.abs(expected).max()
        assert rel <= 1e-9

    def test_non_power_of_two_rejected(self):
        for shape in ((1, 12), (16, 12)):
            with pytest.raises(DimensionError, match="power of two"):
                mfcc.power_spectrum(np.zeros(shape))

    def test_only_a_non_empty_frame_matrix_accepted(self):
        for shape in ((16,), (0, 16), (2, 3, 16)):
            with pytest.raises(DimensionError, match="frames x N matrix"):
                mfcc.power_spectrum(np.zeros(shape))


class TestFilterbank:
    def test_zero_spectrum_floored(self):
        n_bins = mfcc.frame_geometry(8000)[2] // 2 + 1
        out = mfcc.mel_filterbank(np.zeros((1, n_bins)), 8000)
        np.testing.assert_array_equal(out, np.full((mfcc.NUM_FILTERS, 1), 1e-10))

    def test_flat_spectrum_positive(self):
        n_bins = mfcc.frame_geometry(8000)[2] // 2 + 1
        out = mfcc.mel_filterbank(np.ones((1, n_bins)), 8000)
        assert np.all(out > 1e-10)

    def test_spectrum_length_and_sign_checked(self):
        n_bins = mfcc.frame_geometry(8000)[2] // 2 + 1
        # a single spectrum must come as a 1-row matrix
        for shape in ((1, n_bins - 1), (n_bins,), (0, n_bins), (2, 3, n_bins)):
            with pytest.raises(DimensionError):
                mfcc.mel_filterbank(np.ones(shape), 8000)
        with pytest.raises(DomainError):
            mfcc.mel_filterbank(-np.ones((1, n_bins)), 8000)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300],
                             ids=["nan", "inf", "minus-inf", "negative"])
    def test_non_finite_or_negative_entry_refused(self, bad):
        n_bins = mfcc.frame_geometry(8000)[2] // 2 + 1
        spectrum = np.ones((1, n_bins))
        spectrum[0, 7] = bad
        with pytest.raises(DomainError):
            mfcc.mel_filterbank(spectrum, 8000)
        frames = np.ones((3, n_bins))
        frames[1, 7] = bad
        with pytest.raises(DomainError):
            mfcc.mel_filterbank(frames, 8000)

    def test_frames_in_rows_give_energies_in_columns(self):
        n_bins = mfcc.frame_geometry(8000)[2] // 2 + 1
        spectra = np.random.RandomState(10).uniform(0.0, 2.0, (4, n_bins))
        energies = mfcc.mel_filterbank(spectra, 8000)
        assert energies.shape == (mfcc.NUM_FILTERS, 4)
        for i in range(4):
            np.testing.assert_allclose(
                energies[:, i], mfcc.mel_filterbank(spectra[i : i + 1], 8000)[:, 0], rtol=1e-14
            )

    def test_mel_of_1khz(self):
        assert abs(mfcc.mel(1000.0) - 999.9855371396244) < 1e-9

    def test_partition_bound_and_coverage(self):
        fft_size = mfcc.frame_geometry(16000)[2]
        weights = mfcc.filter_weights(16000)
        bin_freqs = np.arange(fft_size // 2 + 1) * 16000 / fft_size
        interior = (bin_freqs > 0.0) & (bin_freqs < 8000.0)
        sums = weights.sum(axis=0)
        assert np.all(sums[interior] <= 1.0 + 1e-9)
        assert np.all(weights[:, interior].max(axis=0) >= 0.0)
        assert np.all((weights[:, interior] > 0.0).any(axis=0))


class TestTableCache:
    def test_tables_are_shared_and_read_only(self):
        weights = mfcc.filter_weights(8000)
        assert mfcc.filter_weights(8000) is weights
        for table in (weights, mfcc.DCT_MATRIX):
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
            with pytest.raises(ValueError):
                table *= 2.0
        np.testing.assert_array_equal(weights, mfcc.filter_weights.__wrapped__(8000))
        np.testing.assert_array_equal(mfcc.DCT_MATRIX, mfcc._dct_matrix())

    def test_distinct_rates_get_their_own_tables(self):
        tables = [mfcc.filter_weights(rate) for rate in VALID_SAMPLE_RATES]
        for rate, table in zip(VALID_SAMPLE_RATES, tables):
            np.testing.assert_array_equal(table, mfcc.filter_weights.__wrapped__(rate))
        for a in range(len(tables)):
            for b in range(a + 1, len(tables)):
                assert tables[a].shape != tables[b].shape or not np.array_equal(
                    tables[a], tables[b]
                )


class TestDctCepstra:
    """A single frame's energies are given as a 1-column matrix."""

    def test_constant_input_vanishes(self):
        out = mfcc.dct_cepstra(np.full((20, 1), 3.7))
        np.testing.assert_allclose(out, np.zeros((12, 1)), atol=1e-12)

    def test_matches_loop_oracle(self):
        # c_n = sum_k logS_k cos[n (k - 1/2) pi / K], k = 1..K, for n = 1..12
        log_s = np.random.RandomState(9).uniform(-5.0, 5.0, (20, 3))
        expected = np.zeros((12, 3))
        for j in range(3):
            for n in range(1, 13):
                for k in range(1, 21):
                    expected[n - 1, j] += log_s[k - 1, j] * np.cos(n * (k - 0.5) * np.pi / 20)
        np.testing.assert_allclose(mfcc.dct_cepstra(log_s), expected, atol=1e-12)
        np.testing.assert_allclose(mfcc.dct_cepstra(log_s[:, :1]), expected[:, :1], atol=1e-12)

    def test_output_length(self):
        for frames in (1, 7):
            assert mfcc.dct_cepstra(np.ones((20, frames))).shape == (12, frames)

    def test_filter_count_checked(self):
        for rows in (19, 21):
            with pytest.raises(DimensionError):
                mfcc.dct_cepstra(np.zeros((rows, 1)))

    def test_only_a_filters_x_frames_matrix_accepted(self):
        for shape in ((20,), (20, 0), (20, 2, 3)):
            with pytest.raises(DimensionError, match="are not 20 x frames"):
                mfcc.dct_cepstra(np.zeros(shape))


class TestExtract:
    def test_sine_dominates_matching_filter(self):
        fs = 8000
        t = np.arange(fs) / fs
        audio = AudioRecord(fs, 0.5 * np.sin(2 * np.pi * 1000.0 * t))
        grid = mfcc.mel_inv(
            np.linspace(mfcc.mel(0.0), mfcc.mel(fs / 2.0), mfcc.NUM_FILTERS + 2)
        )
        centers = grid[1:-1]
        expected_filter = int(np.argmin(np.abs(centers - 1000.0)))

        frames = mfcc.frame_and_window(audio)
        spectrum = np.fft.rfft(frames)
        power = spectrum.real**2 + spectrum.imag**2
        np.testing.assert_array_equal(mfcc.power_spectrum(frames), power)
        weights = mfcc.filter_weights(fs)
        energies = weights @ np.ascontiguousarray(power.T)
        dominant = np.argmax(energies, axis=0)
        assert np.all(np.abs(dominant - expected_filter) <= 1)

    def test_peak_memory_of_one_second(self):
        # A 1 s, 8 kHz utterance peaks at about 395 KiB: the 98 x 256 frame
        # buffer and its 98 x 129 complex spectrum during the transform. The
        # layout with frames in columns, which also held the power copy,
        # peaked at 494 KiB. Page faults start well below 1 MB: when a call
        # frees more than glibc's heap trim threshold, the next call faults
        # its pages in afresh, and a 684 KiB variant already faulted about 79
        # pages per operation of the verification loop.
        audio = AudioRecord(8000, np.random.RandomState(8).uniform(-0.5, 0.5, 8000))
        mfcc.extract(audio)  # tables built outside the measurement
        tracemalloc.start()
        try:
            mfcc.extract(audio)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 448 * 1024

    def test_deterministic(self):
        rng = np.random.RandomState(5)
        samples = rng.uniform(-0.9, 0.9, 8000)
        audio = AudioRecord(8000, samples)
        np.testing.assert_array_equal(
            mfcc.extract(audio), mfcc.extract(AudioRecord(8000, samples.copy()))
        )

    def test_silence_summary_std_zero(self):
        audio = AudioRecord(8000, np.zeros(8000))
        summary = mfcc.extract(audio)
        np.testing.assert_allclose(summary[mfcc.NUM_CEPS :], 0.0, atol=1e-12)

    def test_summary_layout(self):
        rng = np.random.RandomState(6)
        audio = AudioRecord(8000, rng.uniform(-0.5, 0.5, 4000))
        summary = mfcc.extract(audio)
        cepstra = stage_cepstra(audio)
        n = mfcc.NUM_CEPS
        assert cepstra.shape[0] == n
        assert summary.dtype == np.float64 and summary.shape == (2 * n,)
        np.testing.assert_allclose(summary[:n], cepstra.mean(axis=1))
        np.testing.assert_allclose(summary[n:], cepstra.std(axis=1))

    def test_matches_uncached_composition(self):
        rng = np.random.RandomState(7)
        audio = AudioRecord(8000, rng.uniform(-0.8, 0.8, 6000))
        frames = mfcc.frame_and_window(audio)
        spectrum = np.fft.rfft(frames)
        power = spectrum.real**2 + spectrum.imag**2
        weights = mfcc.filter_weights.__wrapped__(audio.sample_rate)
        # the filterbank reads a C-ordered bins x frames matrix; the product
        # with a Fortran-ordered one (power.T itself) rounds differently
        log_e = np.log(np.maximum(weights @ np.ascontiguousarray(power.T), mfcc.ENERGY_FLOOR))
        cepstra = mfcc._dct_matrix() @ log_e
        for _ in range(2):  # the first call may build the tables, the second reuses them
            np.testing.assert_array_equal(stage_cepstra(audio), cepstra)
            np.testing.assert_array_equal(
                mfcc.extract(audio), np.concatenate([cepstra.mean(axis=1), cepstra.std(axis=1)])
            )


def spelled_out_chain(audio):
    """extract's steps written out: frames in rows, one windowed frame per
    slice, the transform along rows, the filterbank on a C-ordered bins x
    frames copy, and numpy's own mean and std."""
    frame_len, hop, fft_size = mfcc.frame_geometry(audio.sample_rate)
    count = 1 + (audio.samples.size - frame_len) // hop
    frames = np.zeros((count, fft_size))
    for i in range(count):
        frames[i, :frame_len] = (
            audio.samples[i * hop : i * hop + frame_len] * mfcc.hamming_window(frame_len)
        )
    spectrum = np.fft.rfft(frames)
    power = spectrum.real**2 + spectrum.imag**2
    energies = mfcc.filter_weights(audio.sample_rate) @ np.ascontiguousarray(power.T)
    cepstra = mfcc.DCT_MATRIX @ np.log(np.maximum(energies, mfcc.ENERGY_FLOOR))
    return cepstra, np.concatenate([cepstra.mean(axis=1), cepstra.std(axis=1)])


def edge_length(rate, edge):
    frame_len, hop, _ = mfcc.frame_geometry(rate)
    return {
        "one-frame": frame_len,
        "one-short-of-two": frame_len + hop - 1,
        "two-frames": frame_len + hop,
        "odd": 2 * frame_len + 1,
    }[edge]


class TestRowLayout:
    """Frame counting is 1 + (n - frame_len) // hop; the frames, spectra and
    summaries it leads to are checked at every rate and at the lengths where
    the count steps."""

    @pytest.mark.parametrize("edge", ["one-frame", "one-short-of-two", "two-frames", "odd"])
    @pytest.mark.parametrize("rate", VALID_SAMPLE_RATES)
    def test_extract_equals_the_spelled_out_chain(self, rate, edge):
        n = edge_length(rate, edge)
        frame_len, hop, _ = mfcc.frame_geometry(rate)
        audio = AudioRecord(rate, np.random.RandomState(n).uniform(-0.9, 0.9, n))
        cepstra, summary = spelled_out_chain(audio)
        assert cepstra.shape == (mfcc.NUM_CEPS, 1 + (n - frame_len) // hop)
        np.testing.assert_array_equal(stage_cepstra(audio), cepstra)
        np.testing.assert_array_equal(mfcc.extract(audio), summary)

    @pytest.mark.parametrize("rate", VALID_SAMPLE_RATES)
    def test_matches_per_frame_loop_oracle(self, rate):
        frame_len, hop, fft_size = mfcc.frame_geometry(rate)
        n = edge_length(rate, "odd") + 3 * hop
        samples = np.random.RandomState(rate).uniform(-0.9, 0.9, n)
        audio = AudioRecord(rate, samples)
        held = audio.samples.astype(np.float64)
        window = mfcc.hamming_window(frame_len)
        weights = mfcc.filter_weights(rate)
        cepstra = stage_cepstra(audio)
        assert cepstra.shape[1] == 1 + (n - frame_len) // hop
        for i in range(cepstra.shape[1]):
            frame = np.zeros(fft_size)
            frame[:frame_len] = held[i * hop : i * hop + frame_len] * window
            power = np.abs(np.fft.rfft(frame)) ** 2
            log_e = np.log(np.maximum(weights @ power, mfcc.ENERGY_FLOOR))
            np.testing.assert_allclose(cepstra[:, i], mfcc.DCT_MATRIX @ log_e, rtol=1e-12)

