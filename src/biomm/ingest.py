"""Biometric records, the labeled dataset container, and the file loaders.

`ImageRecord` and `AudioRecord` are the raw inputs that enrollment and
probes take; `LabeledDataset` is the feature matrix the subspace fits read.
Records take values of a boolean, integer or floating-point dtype only and
keep them compact: pixels as uint8 and audio as float32, which holds every
16-bit PCM sample exactly.

Supported carriers are deliberately minimal: binary PGM (P5, maxval <= 255)
for images, 16-bit mono PCM WAV for audio, and TAB-separated UTF-8
manifests, one LF-ended line per sample path and class name. A PGM header
is "P5", then width, height and maxval in ASCII decimal, each after a run of
whitespace and '#' comments (which may be empty after the magic), then one
whitespace byte or comment before the raster. The loaders return single
records and (path, class name) rows, not feature matrices: `Enrollment.add`
takes raw records per client, checks their image size and sample rate and
keeps only their features, so a command-line front end reads a manifest,
loads each client's samples and enrolls them.
"""

from __future__ import annotations

import operator
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BiommError,
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
    """values as an array of a boolean, integer or floating-point dtype; any
    other dtype is refused before a cast, which would keep a complex array's
    real part, parse text, call float() on objects, read a timedelta or
    datetime as its count or a structured array as zeros."""
    array = np.asarray(values)
    if array.dtype.kind not in "biuf":
        raise DomainError(f"{what} must be real numbers, got dtype {array.dtype}")
    return array


@dataclass(frozen=True, eq=False)
class ImageRecord:
    """Grayscale image; `gray` is row-major uint8, length width*height.

    uint8 pixels are stored as given. Pixels of another type are stored as
    uint8 only if every value is an integer in 0..255; any other value,
    NaN and infinities among them, is refused before the cast, which would
    otherwise wrap, truncate or zero it, and so is an array of any dtype
    but boolean, integer or floating-point, whatever its values.
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

    The given samples, of a boolean, integer or floating-point dtype, are
    checked as float64 values (finite, within [-1, 1]) and
    stored as a float32 copy, which halves the memory a record holds. A
    16-bit PCM value scaled by 1/32768, as `load_wav` gives, is
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


# load_pgm's header grammar; each %s is one separator: a whitespace byte, or
# a comment and the CR or LF that ends it
_PGM_HEADER = re.compile(
    rb"P5%s*(\d+)%s+(\d+)%s+(\d+)%s" % ((rb"(?:[ \t\r\n]|#[^\r\n]*[\r\n])",) * 4)
)


def load_pgm(path) -> ImageRecord:
    """Load a binary PGM ("P5") image with maxval <= 255 and no gray value above it.

    The header is "P5", then width, height and maxval as ASCII decimal
    numbers (digits only, no sign or underscore), each after a run of
    whitespace (space, TAB, CR, LF; not VT or FF) or '#' comments that end
    at the next CR or LF; the run after the magic may be empty. One
    whitespace byte, or a comment and the CR or LF that ends it, precedes
    the raster.

    Gray g becomes round(g * 255 / maxval), ties to even, so maxval 255 loads as is.
    """
    data = Path(path).read_bytes()
    if data[:2] != b"P5":
        raise FormatError(f"bad PGM magic {data[:2]!r} (only binary P5 is supported)")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise FormatError("PGM header is not width, height and maxval in decimal")
    try:
        width, height, maxval = map(int, header.groups())
    except ValueError:  # more digits than int() converts
        raise FormatError("PGM header number has too many digits") from None
    if width < 1 or height < 1:
        raise FormatError(f"bad PGM dimensions {width}x{height}")
    if maxval > 255 or maxval < 1:
        raise FormatError(f"unsupported PGM maxval {maxval} (must be 1..255)")
    payload = data[header.end() : header.end() + width * height]
    if len(payload) < width * height:
        raise FormatError(
            f"truncated PGM payload: {len(payload)} of {width * height} bytes"
        )
    gray = np.frombuffer(payload, dtype=np.uint8)
    if gray.max() > maxval:
        raise FormatError(f"PGM gray value {gray.max()} above maxval {maxval}")
    # g * 255 is exact, so the one division gives a tie as exactly k + 1/2
    return ImageRecord(width, height, np.rint(gray * 255.0 / maxval).astype(np.uint8))


def load_wav(path) -> AudioRecord:
    """Load a 16-bit mono PCM RIFF/WAVE file; samples scaled by 1/32768.

    The fmt chunk's block_align must be 2, its byte_rate twice the sample
    rate, and the data chunk must hold a whole number of samples, which
    make a valid AudioRecord; FormatError otherwise.

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
    audio_format, channels, sample_rate, byte_rate, block_align, bits = fmt
    if audio_format != 1:
        raise UnsupportedFormatError(f"only PCM supported, got format code {audio_format}")
    if channels != 1:
        raise UnsupportedFormatError(f"only mono supported, got {channels} channels")
    if bits != 16:
        raise UnsupportedFormatError(f"only 16-bit supported, got {bits}")
    if block_align != 2:
        raise FormatError(f"block_align {block_align} contradicts 16-bit mono (must be 2)")
    if byte_rate != sample_rate * block_align:
        raise FormatError(f"byte_rate {byte_rate} contradicts {sample_rate} Hz 16-bit mono")
    if len(payload) % 2:
        raise FormatError(f"data chunk of {len(payload)} bytes holds no whole number of samples")
    raw = np.frombuffer(payload, dtype="<i2")
    try:
        return AudioRecord(sample_rate, raw.astype(np.float64) / 32768.0)
    except BiommError as exc:  # a rate AudioRecord refuses, or no samples
        raise FormatError(f"WAV file describes an invalid recording: {exc}") from exc


def load_manifest(path):
    """Parse "relative/path<TAB>class_name" lines; returns the list of
    (path, class name) pairs in file order.

    A line ends at LF, CR or CRLF only. Blank lines and '#' comments are
    skipped.
    """
    text = Path(path).read_text(encoding="utf-8")
    records = []
    seen = set()
    for lineno, line in enumerate(text.split("\n"), start=1):
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
