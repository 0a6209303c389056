import warnings

import numpy as np
import pytest

from biomm import ingest
from biomm.errors import (
    DatasetError,
    DimensionError,
    DomainError,
    FormatError,
    ManifestError,
    UnsupportedFormatError,
)
from biomm.ingest import AudioRecord, ImageRecord, LabeledDataset


class TestPgm:
    def test_direct_byte_copy(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = ingest.load_pgm(p)
        assert (img.width, img.height) == (2, 2)
        np.testing.assert_array_equal(img.gray, [0, 255, 128, 64])

    def test_ascii_p2_rejected(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(FormatError, match="magic"):
            ingest.load_pgm(p)

    def test_comments_between_tokens(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n# made by hand\n2 # width\n1\n# maxval next\n255\n" + bytes([7, 9]))
        img = ingest.load_pgm(p)
        assert (img.width, img.height) == (2, 1)
        np.testing.assert_array_equal(img.gray, [7, 9])

    @pytest.mark.parametrize("comment", [b"#x\n", b"# made by hand\r", b"#\n"],
                             ids=["lf", "cr", "empty"])
    def test_comment_after_maxval(self, tmp_path, comment):
        # the comment runs through the next CR or LF, and that byte is the
        # one whitespace byte that delimits the raster
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n255" + comment + bytes([1, 2, 3, 4]))
        np.testing.assert_array_equal(ingest.load_pgm(p).gray, [1, 2, 3, 4])

    def test_maxval_over_255_rejected(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError, match="maxval"):
            ingest.load_pgm(p)

    def test_gray_above_maxval_rejected(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n15\n" + bytes([0, 200, 15, 255]))
        with pytest.raises(FormatError, match="maxval"):
            ingest.load_pgm(p)

    def test_gray_scaled_to_255_by_maxval(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n15\n" + bytes([0, 5, 10, 15]))
        np.testing.assert_array_equal(ingest.load_pgm(p).gray, [0, 85, 170, 255])

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(FormatError, match="payload"):
            ingest.load_pgm(p)

    def test_round_trip(self, tmp_path):
        img = ImageRecord(3, 2, np.array([0, 10, 20, 30, 40, 255], dtype=np.uint8))
        p = tmp_path / "rt.pgm"
        ingest.write_pgm(p, img)
        back = ingest.load_pgm(p)
        assert (back.width, back.height) == (3, 2)
        np.testing.assert_array_equal(back.gray, img.gray)


class TestWav:
    def test_int16_scaling(self, tmp_path):
        p = tmp_path / "a.wav"
        ingest.write_wav(p, np.array([0.0, 0.5, -1.0]), 8000)
        rec = ingest.load_wav(p)
        assert rec.sample_rate == 8000
        np.testing.assert_allclose(rec.samples, [0.0, 0.5, -1.0], atol=1e-12)

    def test_silence_second(self, tmp_path):
        p = tmp_path / "s.wav"
        ingest.write_wav(p, np.zeros(8000), 8000)
        rec = ingest.load_wav(p)
        assert rec.samples.size == 8000
        assert np.all(rec.samples == 0.0)

    def test_stereo_rejected(self, tmp_path):
        import struct

        body = np.zeros(4, dtype="<i2").tobytes()
        fmt = struct.pack("<HHIIHH", 1, 2, 8000, 32000, 4, 16)
        chunks = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        chunks += b"data" + struct.pack("<I", len(body)) + body
        p = tmp_path / "st.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", len(chunks)) + chunks)
        with pytest.raises(UnsupportedFormatError, match="mono"):
            ingest.load_wav(p)

    @staticmethod
    def write_mono(path, body, block_align=2, byte_rate=16000):
        import struct

        fmt = struct.pack("<HHIIHH", 1, 1, 8000, byte_rate, block_align, 16)
        chunks = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        chunks += b"data" + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)
        path.write_bytes(b"RIFF" + struct.pack("<I", len(chunks)) + chunks)

    def test_odd_length_data_rejected(self, tmp_path):
        # three bytes are one and a half 16-bit samples
        p = tmp_path / "odd.wav"
        self.write_mono(p, b"\x01\x00\x02")
        with pytest.raises(FormatError, match="whole number of samples"):
            ingest.load_wav(p)

    def test_block_align_must_match_16_bit_mono(self, tmp_path):
        p = tmp_path / "align.wav"
        self.write_mono(p, np.zeros(4, dtype="<i2").tobytes(), block_align=7)
        with pytest.raises(FormatError, match="block_align"):
            ingest.load_wav(p)

    def test_byte_rate_must_match_rate_times_block_align(self, tmp_path):
        p = tmp_path / "rate.wav"
        self.write_mono(p, np.zeros(4, dtype="<i2").tobytes(), byte_rate=12345)
        with pytest.raises(FormatError, match="byte_rate"):
            ingest.load_wav(p)

    def test_missing_data_chunk(self, tmp_path):
        import struct

        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        chunks = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        p = tmp_path / "nd.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", len(chunks)) + chunks)
        with pytest.raises(FormatError, match="data"):
            ingest.load_wav(p)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.RandomState(0)
        # every 16-bit code too: each scaled code is exact in the record's float32
        ints = np.concatenate([rng.randint(-32768, 32768, size=500), np.arange(-32768, 32768)])
        samples = ints / 32768.0
        p = tmp_path / "rt.wav"
        ingest.write_wav(p, samples, 16000)
        back = ingest.load_wav(p)
        assert back.samples.dtype == np.float32
        np.testing.assert_array_equal(back.samples, samples)


class TestManifest:
    def test_first_appearance_ids(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("a.pgm\talice\nb.pgm\tbob\n")
        records = ingest.load_manifest(p)
        labels, names = ingest.manifest_class_ids(records)
        assert names == ("alice", "bob")
        np.testing.assert_array_equal(labels, [0, 1])

    def test_comments_only_is_empty(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("# nothing\n\n# here\n")
        with pytest.raises(ManifestError):
            ingest.load_manifest(p)

    def test_missing_tab_reports_line(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("a.pgm\talice\nbroken line\n")
        with pytest.raises(FormatError, match="line 2"):
            ingest.load_manifest(p)

    def test_duplicate_paths(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("a.pgm\talice\na.pgm\tbob\n")
        with pytest.raises(ManifestError, match="duplicate"):
            ingest.load_manifest(p)

    def test_five_clients_four_samples(self, tmp_path):
        lines = [
            f"c{c}_{i}.pgm\tclient{c}" for c in range(5) for i in range(4)
        ]
        p = tmp_path / "m.tsv"
        p.write_text("\n".join(lines) + "\n")
        records = ingest.load_manifest(p)
        labels, names = ingest.manifest_class_ids(records)
        assert len(records) == 20
        assert len(names) == 5
        assert np.bincount(labels).tolist() == [4] * 5


    def test_ids_by_first_appearance_on_a_shuffled_manifest(self, tmp_path):
        rng = np.random.RandomState(4)
        rows = [(f"c{c}_{i}.pgm", f"client{c}") for c in range(300) for i in range(3)]
        rows = [rows[j] for j in rng.permutation(len(rows))]
        p = tmp_path / "m.tsv"
        p.write_text("".join(f"{path}\t{name}\n" for path, name in rows))
        labels, names = ingest.manifest_class_ids(ingest.load_manifest(p))
        reference = []  # each class name at its first appearance
        for _, name in rows:
            if name not in reference:
                reference.append(name)
        assert names == tuple(reference)
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, [reference.index(name) for _, name in rows])


class TestRecordInvariants:
    def test_audio_rejects_weird_rate(self):
        with pytest.raises(DomainError):
            AudioRecord(12345, np.zeros(10))

    @pytest.mark.parametrize("rate", [8000.0, np.float64(16000.0)], ids=["float", "numpy-float"])
    def test_audio_rate_must_be_an_integer(self, rate):
        # 8000.0 == 8000, but a model file stores the rate as an integer
        # and a float one would be written as "8000.0", which no loader reads
        with pytest.raises(DomainError, match="integer"):
            AudioRecord(rate, np.zeros(10))

    @pytest.mark.parametrize("size", [(16.0, 16), (16, 16.0)], ids=["width", "height"])
    def test_image_size_must_be_integers(self, size):
        with pytest.raises(DimensionError, match="integer"):
            ImageRecord(*size, np.zeros(256, dtype=np.uint8))

    # the checks run on the values as given: a cast to uint8 would wrap,
    # truncate or zero them, and raises OverflowError on a large Python int
    @pytest.mark.parametrize(
        "gray",
        [
            np.array([300, -1, 5, 6]),
            np.array([1.7, 2.2, 3.9, 255.9]),
            np.array([np.nan, 1.0, 2.0, 3.0]),
            [300, 1, 2, 3],
            np.array([np.inf, 1.0, 2.0, 3.0]),
            np.array([-np.inf, 1.0, 2.0, 3.0]),
        ],
        ids=["int-out-of-range", "fractional", "nan", "list-out-of-range", "inf", "minus-inf"],
    )
    def test_image_values_checked_before_cast(self, gray):
        with pytest.raises(DomainError, match="0..255"):
            ImageRecord(2, 2, gray)

    def test_image_pixels_of_other_types_stored_as_uint8(self):
        for gray in ([0, 255, 7, 8], np.array([0.0, 255.0, 7.0, 8.0]), np.array([0, 255, 7, 8])):
            image = ImageRecord(2, 2, gray)
            assert image.gray.dtype == np.uint8 and image.gray.tolist() == [0, 255, 7, 8]
        given = np.array([0, 255, 7, 8], dtype=np.uint8)
        assert ImageRecord(2, 2, given).gray is given

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_audio_is_held_as_a_float32_copy(self, dtype):
        given = np.zeros(8000, dtype=dtype)
        samples = AudioRecord(8000, given).samples
        assert samples.dtype == np.float32 and samples.nbytes == 32_000
        assert not np.shares_memory(samples, given)

    # the checks run on the values as given: just above 1 in magnitude
    # rounds to 1.0 in float32, yet is refused
    @pytest.mark.parametrize(
        "value, match",
        [
            (np.nextafter(1.0, 2.0), r"\[-1, 1\]"),
            (-np.nextafter(1.0, 2.0), r"\[-1, 1\]"),
            (np.nan, "NaN"),
            (np.inf, "Inf"),
            (-np.inf, "Inf"),
        ],
        ids=["above-one", "below-minus-one", "nan", "inf", "minus-inf"],
    )
    def test_audio_values_checked_before_rounding(self, value, match):
        samples = np.zeros(10)
        samples[3] = value
        with pytest.raises(DomainError, match=match):
            AudioRecord(8000, samples)

    # a cast to float would keep only the real part, with no more than a
    # ComplexWarning, or parse the text as numbers, also text held as Python
    # objects: the type is refused before any cast
    @pytest.mark.parametrize(
        "samples",
        [np.full(300, 0.1 + 0.9j), np.full(300, 0.1 + 0j), ["0.1"] * 300, [b"0.1"] * 300,
         np.array(["0.1"] * 300, dtype=object), np.array([0.1] * 300, dtype=object)],
        ids=["complex", "complex-real-valued", "str", "bytes", "object-text", "object-numbers"],
    )
    def test_audio_refuses_complex_and_text(self, samples):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="real numbers"):
                AudioRecord(8000, samples)

    @pytest.mark.parametrize(
        "gray",
        [[1 + 1j, 2, 3, 4], np.array([1, 2, 3, 4], dtype=complex), ["1", "2", "3", "4"],
         np.array([b"1", b"2", b"3", b"4"]), np.array(["1", "2", "3", "4"], dtype=object),
         np.array([1, 2, 3, 4], dtype=object)],
        ids=["complex", "complex-real-valued", "str", "bytes", "object-text", "object-numbers"],
    )
    def test_image_refuses_complex_and_text(self, gray):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="real numbers"):
                ImageRecord(2, 2, gray)

    def test_numpy_integers_are_stored_as_int(self):
        audio = AudioRecord(np.int64(16000), np.zeros(10))
        image = ImageRecord(np.int32(4), np.uint8(3), np.zeros(12, dtype=np.uint8))
        assert type(audio.sample_rate) is int and audio.sample_rate == 16000
        assert (type(image.width), type(image.height)) == (int, int)
        assert (image.width, image.height) == (4, 3)

    def test_dataset_requires_contiguous_labels(self):
        with pytest.raises(DatasetError):
            LabeledDataset(np.ones((2, 2)), [0, 2], ("a", "b", "c"))

    def test_dataset_every_class_present(self):
        with pytest.raises(DatasetError):
            LabeledDataset(np.ones((2, 2)), [0, 0], ("a", "b"))
