"""Biometric records, the labeled dataset container, and the file codecs.

`ImageRecord` and `AudioRecord` are the raw inputs that enrollment and
probes take; `LabeledDataset` is the feature matrix the subspace fits read.
An enrollment holds its records until the batch fit, so they are kept
compact: pixels as uint8 and audio as float32, which holds every 16-bit PCM
sample exactly.

Supported carriers are deliberately minimal: binary PGM (P5, maxval <= 255)
for images, 16-bit mono PCM WAV for audio, and TAB-separated UTF-8
manifests mapping sample paths to class names. The codecs return single
records and (path, class name) rows, not feature matrices: `fit_system`
takes raw records per client and checks their image size and sample rate
itself, so a command-line front end reads a manifest, loads each sample
and enrolls it. Matching writers exist so tests and demos can synthesize
fixtures.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DatasetError,
    DimensionError,
    DomainError,
    FormatError,
    ManifestError,
    UnsupportedFormatError,
)

VALID_SAMPLE_RATES = (8000, 16000, 22050, 44100)


def _integer(value, error, what: str) -> int:
    """value as a Python int: NumPy integers qualify, floats do not."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def _real(values, what: str) -> np.ndarray:
    """values as an array of real numbers: a complex or text array is
    refused before any cast, which would keep only its real part or parse
    the text."""
    array = np.asarray(values)
    if array.dtype.kind in "cSU":
        raise DomainError(f"{what} must be real numbers, got dtype {array.dtype}")
    return array


@dataclass(frozen=True, eq=False)
class ImageRecord:
    """Grayscale image; `gray` is row-major uint8, length width*height.

    uint8 pixels are stored as given. Pixels of another type are stored as
    uint8 only if every value is an integer in 0..255; any other value,
    NaN and infinities among them, is refused before the cast, which would
    otherwise wrap, truncate or zero it, and so is a complex or text (str or
    bytes) array, whatever its values.
    """

    width: int
    height: int
    gray: np.ndarray

    def __post_init__(self):
        width = _integer(self.width, DimensionError, "image width")
        height = _integer(self.height, DimensionError, "image height")
        gray = _real(self.gray, "pixel values")
        if gray.dtype != np.uint8:
            values = gray.astype(np.float64)
            # NaN fails every comparison, so it is refused with the rest
            if not ((values >= 0) & (values <= 255) & (values == np.floor(values))).all():
                raise DomainError("pixel values must be integers in 0..255")
            gray = gray.astype(np.uint8)
        if width < 1 or height < 1:
            raise DimensionError("image dimensions must be >= 1")
        if gray.ndim != 1 or gray.size != width * height:
            raise DimensionError(f"gray length {gray.size} != width*height {width * height}")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "gray", gray)


@dataclass(frozen=True, eq=False)
class AudioRecord:
    """Mono audio at one of VALID_SAMPLE_RATES; samples lie in [-1, 1].

    The given samples, which may not be complex or text (str or bytes), are
    checked as float64 values (finite, within [-1, 1]) and stored as a
    float32 copy, which halves the memory an enrollment holds until its
    fit. A 16-bit PCM value scaled by 1/32768, as `load_wav` gives, is
    exact in float32; other float64 audio is rounded once to the nearest
    float32 (a relative error of at most 2**-24 for magnitudes of 2**-126
    and more).
    """

    sample_rate: int
    samples: np.ndarray

    def __post_init__(self):
        rate = _integer(self.sample_rate, DomainError, "sample rate")
        if rate not in VALID_SAMPLE_RATES:
            raise DomainError(f"unsupported sample rate {rate}")
        samples = np.asarray(_real(self.samples, "samples"), dtype=np.float64)
        if samples.ndim != 1 or samples.size < 1:
            raise DimensionError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(samples)):
            raise DomainError("samples contain NaN or Inf")
        if np.abs(samples).max() > 1.0:
            raise DomainError("samples must lie in [-1, 1]")
        object.__setattr__(self, "sample_rate", rate)
        object.__setattr__(self, "samples", samples.astype(np.float32))


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix (one column per sample) with contiguous integer labels."""

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise DimensionError("features must be a 2-D matrix")
        if not np.all(np.isfinite(features)):
            raise DomainError("features contain NaN or Inf")
        if labels.ndim != 1 or labels.size != features.shape[1]:
            raise DatasetError("labels length must equal the number of columns")
        c = len(self.class_names)
        if c < 1:
            raise DatasetError("at least one class is required")
        present = np.unique(labels)
        if present.min(initial=0) < 0 or present.max(initial=0) >= c:
            raise DatasetError("labels must lie in [0, num_classes)")
        if present.size != c:
            raise DatasetError("every class id must appear at least once")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def num_samples(self) -> int:
        return self.features.shape[1]

    @property
    def dim(self) -> int:
        return self.features.shape[0]


def _pgm_tokens(data: bytes, count: int, start: int):
    """Read `count` whitespace-separated header tokens, honoring '#' comments."""
    tokens = []
    i = start
    while len(tokens) < count:
        if i >= len(data):
            raise FormatError("truncated PGM header")
        b = data[i]
        if b in b" \t\r\n":
            i += 1
        elif b == ord("#"):
            while i < len(data) and data[i] not in b"\r\n":
                i += 1
        else:
            j = i
            while j < len(data) and data[j] not in b" \t\r\n#":
                j += 1
            tokens.append(data[i:j])
            i = j
    return tokens, i


def load_pgm(path) -> ImageRecord:
    """Load a binary PGM ("P5") image with maxval <= 255."""
    data = Path(path).read_bytes()
    if data[:2] != b"P5":
        raise FormatError(f"bad PGM magic {data[:2]!r} (only binary P5 is supported)")
    tokens, pos = _pgm_tokens(data, 3, 2)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise FormatError(f"non-numeric PGM header fields {tokens}") from None
    if width < 1 or height < 1:
        raise FormatError(f"bad PGM dimensions {width}x{height}")
    if maxval > 255 or maxval < 1:
        raise FormatError(f"unsupported PGM maxval {maxval} (must be 1..255)")
    pos += 1  # exactly one whitespace byte separates maxval from the payload
    payload = data[pos : pos + width * height]
    if len(payload) < width * height:
        raise FormatError(
            f"truncated PGM payload: {len(payload)} of {width * height} bytes"
        )
    return ImageRecord(width, height, np.frombuffer(payload, dtype=np.uint8).copy())


def write_pgm(path, img: ImageRecord) -> None:
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.gray.tobytes())


def load_wav(path) -> AudioRecord:
    """Load a 16-bit mono PCM RIFF/WAVE file; samples scaled by 1/32768.

    Every scaled value is a float32 value, so the record holds the file's
    samples exactly.
    """
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError("not a RIFF/WAVE file")
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (size,) = struct.unpack("<I", data[pos + 4 : pos + 8])
        body = data[pos + 8 : pos + 8 + size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise FormatError("truncated fmt chunk")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif chunk_id == b"data":
            if len(body) < size:
                raise FormatError("truncated data chunk")
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word aligned
    if fmt is None:
        raise FormatError("missing fmt chunk")
    if payload is None:
        raise FormatError("missing data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise UnsupportedFormatError(f"only PCM supported, got format code {audio_format}")
    if channels != 1:
        raise UnsupportedFormatError(f"only mono supported, got {channels} channels")
    if bits != 16:
        raise UnsupportedFormatError(f"only 16-bit supported, got {bits}")
    raw = np.frombuffer(payload[: len(payload) - (len(payload) % 2)], dtype="<i2")
    return AudioRecord(sample_rate, raw.astype(np.float64) / 32768.0)


def write_wav(path, samples, sample_rate: int) -> None:
    """Write float samples in [-1, 1] as 16-bit mono PCM."""
    samples = np.asarray(samples, dtype=np.float64)
    ints = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    body = ints.tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, sample_rate, sample_rate * 2, 2, 16)
    chunks = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(body)) + body
    Path(path).write_bytes(b"RIFF" + struct.pack("<I", len(chunks)) + chunks)


def load_manifest(path):
    """Parse "relative/path<TAB>class_name" lines; returns list of tuples.

    Blank lines and '#' comments are skipped; class ids follow first
    appearance order of the class names.
    """
    text = Path(path).read_text(encoding="utf-8")
    records = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "\t" not in line:
            raise FormatError(f"manifest line {lineno} has no TAB separator")
        sample_path, class_name = line.split("\t", 1)
        sample_path = sample_path.strip()
        class_name = class_name.strip()
        if not sample_path or not class_name:
            raise FormatError(f"manifest line {lineno} has an empty field")
        if sample_path in seen:
            raise ManifestError(f"duplicate sample path {sample_path!r}")
        seen.add(sample_path)
        records.append((sample_path, class_name))
    if not records:
        raise ManifestError(f"manifest {path} lists no samples")
    return records


def manifest_class_ids(records):
    """Assign contiguous class ids by first appearance; returns (labels, names)."""
    names = []
    labels = []
    for _, class_name in records:
        if class_name not in names:
            names.append(class_name)
        labels.append(names.index(class_name))
    return np.asarray(labels, dtype=np.int64), tuple(names)


def image_to_vector(img: ImageRecord) -> np.ndarray:
    """Row-major flattening of pixel intensities, cast to float (not rescaled)."""
    return img.gray.astype(np.float64)
