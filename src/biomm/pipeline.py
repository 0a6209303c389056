"""End-to-end multimodal system: enrollment, identification, verification,
score-level fusion, and model persistence.

Face chain: pixels -> PCA -> LDA -> gallery rows, with PCA and LDA kept as
one pixel -> Fisher-space map, their product (the Fisherface W_opt); a face
takes its nearest row's class, at the mean distance of its two nearest rows
when both are of that class, else at the nearest one's (knn.vote). Voice
chain: MFCC summary -> LDA -> one-vs-one SVM. Scores from both chains are
mapped to [0, 1] (1/(1+distance) for faces, vote fractions for voices) and
fused by a convex combination. identify rejects a probe as unknown when its
face distance exceeds tau_dist AND its fused score falls below tau_fused,
the fused score of a face at tau_dist with a unanimous voice vote. As a
voice score is at most 1, for w_face > 0 the face distance alone rejects
(up to rounding), and at w_face = 0 a unanimous vote accepts any face.
tau_dist is calibrated from the enrollment data; tau_fused is computed
where it is used.

The fit settings are module constants (VOICE_KERNEL, SVM_C, SVM_TOL, the
gallery's knn.K and the MFCC analysis constants of the mfcc module); PCA and
LDA fix their widths from the data. The one setting a caller chooses is the
fusion weight w_face.

An Enrollment keeps features, not records, each image and recording checked
against the first client's image size and sample rate; a probe is refused
by the same two checks.

save_model and load_model both walk LAYOUT, the model file's one list of
its sections and records, and both take each record kind from _KINDS: its
writer is the file's one spelling of that kind, and the loader accepts a
header line only if the writer spells the value parsed from it back to the
same bytes. The comment above LAYOUT gives the encoding.

Both modes gather a probe's evidence in one step, _evidence (the records
checked, both features projected, the voice SVM's one-vs-one vote), and map
it to scores by one rule, _scores. Identification votes over the whole face
gallery. Verification is 1:1, with no gallery built per claim: the face
against the claimed client's slice of gallery rows, the voice by the claimed
client's count in the vote identification reads.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import knn as knn_mod
from . import lda as lda_mod
from . import mfcc as mfcc_mod
from . import pca as pca_mod
from . import svm as svm_mod
from .errors import (
    BiommError,
    ClassError,
    DatasetError,
    DimensionError,
    DomainError,
    EnrollmentError,
    FormatError,
    IdentityError,
)
from .ingest import VALID_SAMPLE_RATES, AudioRecord, ImageRecord, LabeledDataset
from .ingest import _integer

MAGIC = "BIOMM 9"
DIST_HEADROOM = 6.0

# The fit settings. A model file records none of them: the loader rebuilds
# the SVM kernel from VOICE_KERNEL, and serves probes with knn.K and the mfcc
# module's fixed front end, so changing VOICE_KERNEL (or knn.K, or an mfcc
# constant) is a format change and bumps MAGIC. SVM_C and SVM_TOL act only
# while a model is fitted.
VOICE_KERNEL = svm_mod.KernelSpec("rbf", 2.0)
SVM_C = 10.0
SVM_TOL = 1e-3

MODE_IDENTIFY = "identification"
MODE_VERIFY = "verification"
VERDICT_ACCEPT = "accept"
VERDICT_REJECT = "reject"


@dataclass(frozen=True)
class Decision:
    mode: str
    claimed_id: str | None
    face_score: float
    voice_score: float
    fused_score: float
    verdict: str
    client_id: str | None
    face_id: str | None = None
    voice_id: str | None = None

    @property
    def accepted(self) -> bool:
        return self.verdict == VERDICT_ACCEPT


def _valid_client_id(client_id: str) -> bool:
    """A non-empty str, without whitespace, and encodable in UTF-8 as a model
    file stores it: no lone surrogate, such as a "surrogateescape" decoding makes."""
    return isinstance(client_id, str) and bool(client_id) and not any(
        ch.isspace() or "\ud800" <= ch <= "\udfff" for ch in client_id
    )


def _check_weight(w_face: float) -> None:
    if not 0.0 <= w_face <= 1.0:  # a NaN weight fails this test too
        raise DomainError(f"w_face must lie in [0, 1], got {w_face}")


@dataclass(frozen=True, eq=False)
class SystemModel:
    """A fitted or loaded system. Its parts must fit together: a fusion
    weight w_face in [0, 1], one distinct client name per voice class (class
    c is class_names[c]), non-decreasing gallery labels that cover exactly
    those classes (so a claimed client's points are one non-empty slice of
    rows), a gallery voting among min(knn.K, points) neighbours and an SVM
    with VOICE_KERNEL (what loading rebuilds), and each stage's output
    dimension equal to the next stage's input dimension, starting from the
    face_size = (width, height) pixels of an enrolled image. The sample rate
    and face_size are integers, as the records hold them and the file stores
    them; NumPy integers are kept as int, and w_face as float, so every
    score a Decision holds is a plain float."""

    face: pca_mod.Subspace
    face_gallery: knn_mod.KnnModel
    voice_lda: pca_mod.Subspace
    voice_svm: svm_mod.SvmModel
    class_names: tuple
    tau_dist: float
    w_face: float
    sample_rate: int
    face_size: tuple

    def __post_init__(self):
        _check_weight(self.w_face)
        rate = _integer(self.sample_rate, DomainError, "enrollment sample rate")
        if rate not in VALID_SAMPLE_RATES:
            raise DomainError(f"unsupported enrollment sample rate {rate}")
        try:
            width, height = self.face_size
        except (TypeError, ValueError):
            raise DimensionError(f"face_size must be (width, height), got {self.face_size!r}") from None
        width = _integer(width, DimensionError, "enrolled image width")
        height = _integer(height, DimensionError, "enrolled image height")
        if width < 1 or height < 1:
            raise DimensionError(f"enrolled image size {width}x{height} is empty")
        classes = self.voice_svm.num_classes
        if len(self.class_names) != classes:
            raise DimensionError(f"{len(self.class_names)} client names for {classes} classes")
        if not all(map(_valid_client_id, self.class_names)) or len(set(self.class_names)) != classes:
            raise DomainError("client names must be distinct, non-empty UTF-8 strings without whitespace")
        labels = self.face_gallery.labels
        if labels.min() < 0 or labels.max() >= classes:
            raise DomainError(f"gallery labels must lie in 0..{classes - 1}")
        if (np.diff(labels) < 0).any():
            raise DomainError("gallery rows must be grouped by client, in class order")
        if np.unique(labels).size != classes:
            raise DomainError("every client needs at least one gallery point")
        if self.voice_svm.kernel != VOICE_KERNEL:
            raise DomainError(f"SVM kernel {self.voice_svm.kernel} is not VOICE_KERNEL")
        for link, produced, consumed in (
            ("image -> face", width * height, self.face.ambient_dim),
            ("face -> gallery", self.face.retained, self.face_gallery.points.shape[1]),
            ("MFCC summary -> voice LDA", 2 * mfcc_mod.NUM_CEPS, self.voice_lda.ambient_dim),
            ("voice LDA -> SVM", self.voice_lda.retained, self.voice_svm.points.shape[0]),
        ):
            if produced != consumed:
                raise DimensionError(f"{link}: {produced} dimensions feed {consumed}")
        object.__setattr__(self, "w_face", float(self.w_face))
        object.__setattr__(self, "sample_rate", rate)
        object.__setattr__(self, "face_size", (width, height))

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def tau_fused(self) -> float:
        """The distance gate mapped into score space under a unanimous voice
        vote: a probe farther than tau_dist scores below it."""
        return _scores(self, self.tau_dist, self.num_classes - 1)[2]


class Enrollment:
    """Accumulates per-client features until the batch fit: `add` keeps a
    client's face pixels as one uint8 block and its recordings' MFCC
    summaries as one float64 block, a row per sample, and no record
    (1,792 bytes for 4 16x16 faces and 4 recordings of any length)."""

    def __init__(self):
        self._clients: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._inputs = None  # (face_size, sample_rate) of the first client

    def add(self, client_id: str, face_images, voice_recordings) -> "Enrollment":
        """Enroll one client, or raise and leave the enrollment as it was."""
        if not _valid_client_id(client_id):
            raise EnrollmentError(
                f"client id {client_id!r} must be a non-empty UTF-8 string without whitespace"
            )
        whose = f"client {client_id!r}"
        if client_id in self._clients:
            raise EnrollmentError(f"{whose} is already enrolled")
        faces = list(face_images)
        voices = list(voice_recordings)
        if len(faces) < 2 or len(voices) < 2:
            raise EnrollmentError(f"{whose} needs >= 2 face images and >= 2 recordings")
        _require_records(EnrollmentError, whose, faces, voices)
        size, rate = self._inputs or ((faces[0].width, faces[0].height), voices[0].sample_rate)
        for image in faces:
            _check_size(whose, image, size)
        for recording in voices:
            _check_rate(whose, recording, rate)
        pixels = np.array([image.gray for image in faces])
        summaries = np.array([mfcc_mod.extract(recording) for recording in voices])
        self._inputs = size, rate
        self._clients[client_id] = (pixels, summaries)
        return self

    @property
    def client_ids(self) -> tuple:
        return tuple(self._clients)


def _require_records(error: type, whose: str, faces, voices) -> None:
    """Refuse a face or recording that is not an ImageRecord or AudioRecord, before any work."""
    for records, kind, what in ((faces, ImageRecord, "face"), (voices, AudioRecord, "recording")):
        for record in records:
            if not isinstance(record, kind):
                raise error(f"{whose} {what} must be an {kind.__name__}, got {type(record).__name__}")


def _check_size(whose: str, image: ImageRecord, size: tuple) -> None:
    if (image.width, image.height) != size:
        raise DatasetError(
            f"{whose} image is {image.width}x{image.height}, expected {size[0]}x{size[1]}"
        )


def _check_rate(whose: str, recording: AudioRecord, rate: int) -> None:
    if recording.sample_rate != rate:
        raise DatasetError(
            f"{whose} recording is at {recording.sample_rate} Hz, expected {rate} Hz"
        )


def _stacked(blocks, class_names: tuple) -> LabeledDataset:
    """The clients' feature blocks, a row per sample, as the columns of one
    matrix in enrollment order."""
    labels = np.repeat(np.arange(len(blocks)), [len(block) for block in blocks])
    return LabeledDataset(np.concatenate(blocks).T, labels, class_names)


def _require_within_class_variation(ds: LabeledDataset, what: str) -> None:
    """Refuse a dataset in which every class repeats one sample: its
    within-class scatter is zero, so no discriminant can be fitted."""
    _, first = np.unique(ds.labels, return_index=True)  # each class's first column
    if (ds.features == ds.features[:, first[ds.labels]]).all():
        raise DatasetError(
            f"no client enrolled two different {what}, so there is no within-class "
            f"variation to fit a discriminant against"
        )


def fit_system(enrollment: Enrollment, w_face: float = 0.5) -> SystemModel:
    """Batch fit of both chains over everything enrolled so far, fusing
    them with weight w_face on the face score.

    Refits from scratch (PCA/LDA/SVM are batch learners) and calibrates the
    rejection threshold tau_dist from the genuine enrollment scores: the
    99th percentile of leave-one-out gallery distances (every gallery point
    against the rest, by `knn.leave_one_out` in blocks of points, through
    the `knn.distances` and `knn.vote` that identify and verify use),
    times DIST_HEADROOM.

    The face PCA and the LDA fitted in its coordinates are kept only as their
    product W_opt^T = W_fld^T W_pca^T, the Fisherface map from pixels; the
    gallery is projected with that map, so fitted and reloaded models agree.

    Raises DomainError before any work when w_face lies outside [0, 1], by
    the check SystemModel makes, and DatasetError when no client enrolled
    two different faces, or two different recordings: that modality has no
    within-class variation.
    """
    _check_weight(w_face)
    if len(enrollment.client_ids) < 2:
        raise ClassError("at least two enrolled clients are required to fit")
    pixels, summaries = zip(*enrollment._clients.values())
    face_size, sample_rate = enrollment._inputs

    face_ds = _stacked(pixels, enrollment.client_ids)
    _require_within_class_variation(face_ds, "faces")
    face_pca = pca_mod.fit_pca(face_ds)
    pca_coords = pca_mod.project(face_pca, face_ds.features)
    pca_ds = LabeledDataset(pca_coords, face_ds.labels, face_ds.class_names)
    face_lda = lda_mod.fit_lda(pca_ds)
    # W_lda^T (W_pca^T (x - m_pca) - m_lda) = (W_pca W_lda)^T (x - m_pca - W_pca m_lda),
    # as W_pca^T W_pca = I; its columns keep the unit norm of the LDA basis
    face = pca_mod.Subspace(
        face_pca.mean + face_pca.basis @ face_lda.mean,
        face_pca.basis @ face_lda.basis,
    )
    # one row per enrolled face, in enrollment order: grouped by client
    face_gallery = knn_mod.KnnModel(pca_mod.project(face, face_ds.features).T, face_ds.labels)

    voice_ds = _stacked(summaries, enrollment.client_ids)
    _require_within_class_variation(voice_ds, "recordings")
    voice_lda = lda_mod.fit_lda(voice_ds)
    voice_coords = pca_mod.project(voice_lda, voice_ds.features)
    voice_proj_ds = LabeledDataset(voice_coords, voice_ds.labels, voice_ds.class_names)
    voice_svm = svm_mod.train_multiclass(voice_proj_ds, VOICE_KERNEL, SVM_C, SVM_TOL)

    # Threshold calibration from genuine enrollment data. The leave-one-out
    # distances are measured in a subspace fit on the full gallery, which
    # understates held-out genuine distances; the headroom factor compensates
    # (impostor distances sit more than an order of magnitude higher).
    loo = [result.mean_distance for result in knn_mod.leave_one_out(face_gallery)]
    tau_dist = DIST_HEADROOM * float(np.percentile(loo, 99.0))

    return SystemModel(
        face=face,
        face_gallery=face_gallery,
        voice_lda=voice_lda,
        voice_svm=voice_svm,
        class_names=face_ds.class_names,
        tau_dist=tau_dist,
        w_face=w_face,
        sample_rate=sample_rate,
        face_size=face_size,
    )


def enroll_and_fit(gallery: dict, w_face: float = 0.5) -> SystemModel:
    """Convenience: enroll {client_id: (faces, voices)} in dict order and
    fit. An invalid w_face is refused before any client is enrolled."""
    _check_weight(w_face)
    enrollment = Enrollment()
    for client_id, (faces, voices) in gallery.items():
        enrollment.add(client_id, faces, voices)
    return fit_system(enrollment, w_face)


def _face_probe(m: SystemModel, face_image: ImageRecord):
    _check_size("probe", face_image, m.face_size)
    return pca_mod.project(m.face, face_image.gray)


def _voice_probe(m: SystemModel, voice_recording: AudioRecord):
    _check_rate("probe", voice_recording, m.sample_rate)
    return pca_mod.project(m.voice_lda, mfcc_mod.extract(voice_recording))


def _evidence(m: SystemModel, face_image: ImageRecord, voice_recording: AudioRecord):
    """A probe's evidence, which both modes decide from: (q_face, (voice_label,
    votes)), its face in Fisher space and the voice SVM's one-vs-one vote.
    The records are checked first, and each against the enrolled image size
    or sample rate before its feature is computed."""
    _require_records(DatasetError, "probe", [face_image], [voice_recording])
    q_face = _face_probe(m, face_image)
    return q_face, svm_mod.predict_multiclass(m.voice_svm, _voice_probe(m, voice_recording))


def _scores(m: SystemModel, distance: float, votes) -> tuple:
    """(face, voice, fused): the face score 1/(1+distance), the voice score
    votes/(C-1), the share of its C-1 machines a class won, and their convex
    fusion under w_face."""
    face = 1.0 / (1.0 + distance)
    voice = int(votes) / (m.num_classes - 1)
    w = m.w_face
    return face, voice, w * face + (1.0 - w) * voice


def identify(m: SystemModel, face_image: ImageRecord, voice_recording: AudioRecord) -> Decision:
    """1-of-N identification with fraud rejection.

    Face and voice verdicts that agree name that client; on disagreement
    the modality with the larger weighted score wins (so w_face of 0 or 1
    reduces exactly to a single-modality system). The probe is rejected as
    unknown when the face distance exceeds tau_dist AND the fused score
    falls below tau_fused. For w_face > 0 a face beyond tau_dist scores
    below tau_fused whatever the voice, up to rounding, so the distance
    alone rejects; at w_face = 0 a unanimous voice vote accepts any face.
    """
    q_face, (voice_label, votes) = _evidence(m, face_image, voice_recording)
    face_result = knn_mod.classify(m.face_gallery, q_face)
    face_score, voice_score, fused = _scores(m, face_result.mean_distance, votes[voice_label])
    w = m.w_face
    candidate = face_result.label if w * face_score >= (1.0 - w) * voice_score else voice_label
    rejected = face_result.mean_distance > m.tau_dist and fused < m.tau_fused
    names = m.class_names
    return Decision(
        mode=MODE_IDENTIFY,
        claimed_id=None,
        face_score=face_score,
        voice_score=voice_score,
        fused_score=fused,
        verdict=VERDICT_REJECT if rejected else VERDICT_ACCEPT,
        client_id=None if rejected else names[candidate],
        face_id=names[face_result.label],
        voice_id=names[voice_label],
    )


def verify(
    m: SystemModel,
    face_image: ImageRecord,
    voice_recording: AudioRecord,
    claimed_id: str,
) -> Decision:
    """Accept or reject a claimed identity: fused score against tau_fused.

    The face score uses only the claimed client's gallery rows, one slice
    of the gallery since its labels are grouped by client, voted on by the
    gallery's rule, and no gallery is built for the claim; the voice score
    is the claimed client's count in the one-vs-one vote identify reads.
    An unenrolled claimed_id raises IdentityError before any feature is
    computed.
    """
    names = m.class_names
    if claimed_id not in names:
        raise IdentityError(f"claimed id {claimed_id!r} is not enrolled")
    cid = names.index(claimed_id)
    q_face, (_, votes) = _evidence(m, face_image, voice_recording)
    gallery = m.face_gallery
    lo, hi = np.searchsorted(gallery.labels, (cid, cid + 1))
    dists = knn_mod.distances(gallery.points[lo:hi], q_face)
    nearest = knn_mod.vote(gallery.labels[lo:hi], dists, min(knn_mod.K, hi - lo))
    face_score, voice_score, fused = _scores(m, nearest.mean_distance, votes[cid])
    accepted = fused >= m.tau_fused
    return Decision(
        mode=MODE_VERIFY,
        claimed_id=claimed_id,
        face_score=face_score,
        voice_score=voice_score,
        fused_score=fused,
        verdict=VERDICT_ACCEPT if accepted else VERDICT_REJECT,
        client_id=claimed_id if accepted else None,
    )


# ---------------------------------------------------------------------------
# Model file: the line MAGIC, then for each section of LAYOUT a line
# "SECTION <name>" and its records, then a 15-byte trailer "CRC32 <8 lowercase
# hex digits>\n" over all prior bytes. A record is one UTF-8 header line, its
# keyword and values joined by single spaces: integers as str() writes them,
# floats in 17 significant digits. A row or matrix header gives its shape,
# "KEYWORD rows cols" (rows is 1 for a row), and is followed by exactly
# 8 * rows * cols bytes, the row-major little-endian float64 values, then
# "\n"; the loader finds a payload's end from that shape, never by searching.
# The writers of _KINDS are the one spelling of the records: the loader parses
# each header line and re-spells it with its kind's writer, so a file loads
# only as save_model writes it. Any other spelling of a header line, a NaN or
# infinite value, or an integer beyond int64 is refused. Gallery rows are
# grouped by client in class order, with at least one point per client.
# VOICE_SVM is svm's dense layout: each point's class, the points, one
# coefficient per (machine, point of its two classes), 0.0 where the point is
# not a support vector, and one bias per machine. No index is stored, as the
# labels give each coefficient's machine and point, and a 0.0 coefficient adds
# a zero to its machine's sum, so decisions are those of the support vectors
# alone.
# knn.K, VOICE_KERNEL and the mfcc module's FRAME_MS, SHIFT_MS, NUM_FILTERS,
# NUM_CEPS and ENERGY_FLOOR (the floor under every filterbank energy, so it
# sets every summary the voice LDA and SVM were fitted to), with its Hamming
# window and mel scale formulas, belong to the format, as no record holds
# them; nor does anything the loader computes (tau_fused). A change to any of
# these, to LAYOUT or to a writer of _KINDS bumps MAGIC; files of other
# versions are refused.
# ---------------------------------------------------------------------------

# The sections in file order: each one's name, the SystemModel field whose
# parts it stores (None: fields of the model itself) and its records, each
# (keyword, kind, attribute of that part). save_model writes each record from
# its attribute, and load_model hands each value it reads to the part's
# constructor under that attribute's name, so neither depends on a record's
# position.
_SUBSPACE = (("MEAN", "row", "mean"), ("BASIS", "matrix", "basis"))
LAYOUT = (
    ("INPUTS", None, (("SAMPLE_RATE", "int", "sample_rate"), ("FACE_SIZE", "ints", "face_size"))),
    ("FACE", "face", _SUBSPACE),
    ("GALLERY", "face_gallery", (("POINTS", "matrix", "points"), ("LABELS", "ints", "labels"))),
    ("VOICE_LDA", "voice_lda", _SUBSPACE),
    ("VOICE_SVM", "voice_svm", (
        ("CLASSES", "int", "num_classes"),
        ("LABELS", "ints", "labels"),
        ("POINTS", "matrix", "points"),
        ("COEFS", "row", "dual_coefs"),
        ("BIASES", "row", "biases"),
    )),
    ("CLIENTS", None, (("NAMES", "names", "class_names"),)),
    ("THRESHOLDS", None, (("W_FACE", "float", "w_face"), ("TAU_DIST", "float", "tau_dist"))),
)

def _line(text: str) -> bytes:
    return text.encode("utf-8") + b"\n"


def _ints(keyword: str, values) -> bytes:
    return _line(" ".join([keyword, *map(str, np.ravel(values).tolist())]))


def _matrix(keyword: str, matrix) -> bytes:
    matrix = np.atleast_2d(matrix)
    payload = np.ascontiguousarray(matrix, dtype="<f8").tobytes()
    return b"".join((_ints(keyword, matrix.shape), payload, b"\n"))


def _trailer(body) -> bytes:
    return b"CRC32 %08x\n" % zlib.crc32(body)


TRAILER_BYTES = len(_trailer(b""))


def _int64s(fields) -> np.ndarray:
    return np.array([int(field) for field in fields], dtype=np.int64)


def _finite(fields) -> float:
    (field,) = fields
    value = float(field)
    if not np.isfinite(value):  # float() reads "nan" and "inf", and the writer spells them back
        raise ValueError(f"non-finite value {value}")
    return value


def _shape(fields) -> tuple:
    rows, cols = _int64s(fields).tolist()
    if rows < 0 or cols < 0:
        raise ValueError(f"negative shape {rows} x {cols}")
    return rows, cols


# Each record kind's writer, (keyword, value) -> the record's bytes, and its
# parser, the header's fields after the keyword -> the value. The parser of a
# row or a matrix gives its shape, which _ints writes before the payload.
_KINDS = {
    "int": (_ints, lambda fields: _int64s(fields).item()),  # item() refuses all counts but one
    "ints": (_ints, _int64s),
    "float": (lambda keyword, value: _line(f"{keyword} {float(value):.17g}"), _finite),
    "names": (lambda keyword, names: _line(" ".join([keyword, *names])), tuple),
    "row": (_matrix, lambda fields: (1, _shape(fields)[1])),  # spells back only 1 row
    "matrix": (_matrix, _shape),
}


def save_model(m: SystemModel, path) -> None:
    """Write m as LAYOUT lays it out. The bytes go to a new file beside path,
    which then replaces path, so a save that fails part-way leaves the file
    that was at path as it was. That file's name is of fixed length, so any
    name the directory takes for path will do."""
    out = [_line(MAGIC)]
    for section, part, records in LAYOUT:
        owner = m if part is None else getattr(m, part)
        out.append(_line(f"SECTION {section}"))
        out += [_KINDS[kind][0](keyword, getattr(owner, name)) for keyword, kind, name in records]
    body = b"".join(out)
    path = Path(path)
    partial = path.with_name(f"biomm-{os.urandom(8).hex()}.partial")
    try:
        with open(partial, "xb") as f:  # bytes, so no platform turns "\n" into "\r\n"
            f.write(body)
            f.write(_trailer(body))
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


class _Reader:
    """A byte cursor over a model file body, data[:end]. A header line is
    decoded on its own and accepted only if its kind's writer spells the
    value parsed from it back to the same bytes; a payload is read only
    after its stated size is checked against the bytes left."""

    def __init__(self, data: bytes, end: int):
        self.data = data
        self.end = end
        self.pos = 0
        self.where = "the magic line"

    def line(self) -> str:
        stop = self.data.find(b"\n", self.pos, self.end)
        if stop < 0:
            raise FormatError(f"truncated model file in {self.where}")
        try:
            line = self.data[self.pos:stop].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"header line in {self.where} is not UTF-8") from exc
        self.pos = stop + 1
        return line

    def section(self, name: str) -> None:
        line = self.line()
        if line != f"SECTION {name}":
            raise FormatError(f"expected section {name}, found {line[:40]!r}")
        self.where = f"section {name}"

    def record(self, keyword: str, kind: str):
        """The value of the next record, a `kind` record under `keyword`. The
        kind's parser reads the header's fields after the keyword, and the
        header is accepted only if the kind's writer spells that value back
        to its bytes. For a row or a matrix the parsed value is the shape,
        which _ints spells, and the value returned is the payload after it."""
        start = self.pos
        line = self.line()
        write, parse = _KINDS[kind]
        shaped = kind in ("row", "matrix")
        try:
            value = parse(line.split(" ")[1:])
        except (ValueError, OverflowError) as exc:
            raise FormatError(
                f"expected {keyword} values in {self.where}, found {line[:40]!r}"
            ) from exc
        if (_ints if shaped else write)(keyword, value) != self.data[start:self.pos]:
            raise FormatError(
                f"expected {keyword} in {self.where} as save_model writes it, found {line[:40]!r}"
            )
        if not shaped:
            return value
        matrix = self.payload(keyword, *value)
        return matrix[0] if kind == "row" else matrix

    def payload(self, keyword: str, rows: int, cols: int) -> np.ndarray:
        start, stop = self.pos, self.pos + 8 * rows * cols
        if stop >= self.end:  # the payload and its "\n" must both fit
            raise FormatError(
                f"matrix {keyword} states {stop - start} payload bytes, more than the file holds"
            )
        if self.data[stop] != ord("\n"):
            raise FormatError(f"matrix {keyword} payload is not followed by a newline")
        self.pos = stop + 1
        values = np.frombuffer(self.data, dtype="<f8", count=rows * cols, offset=start)
        try:
            matrix = values.astype(np.float64).reshape(rows, cols)
        except ValueError as exc:  # an empty matrix of more rows than any array holds
            raise FormatError(f"matrix {keyword} shape {rows} x {cols} is too large") from exc
        if not np.isfinite(matrix).all():
            raise FormatError(f"non-finite {keyword} value in {self.where}")
        return matrix


def load_model(path) -> SystemModel:
    """Parse a model file as LAYOUT lays it out; the CRC is verified before
    any section parsing.

    Any defect of the file, including a body that passes the CRC but does
    not describe a valid model, raises FormatError.
    """
    raw = Path(path).read_bytes()
    end = max(len(raw) - TRAILER_BYTES, 0)
    if raw[end:] != _trailer(memoryview(raw)[:end]):
        raise FormatError(
            f"trailer {raw[end:]!r} is not the CRC32 line of the body "
            f"(file truncated or altered?)"
        )
    reader = _Reader(raw, end)
    if reader.line() != MAGIC:
        raise FormatError(f"bad magic line (expected {MAGIC!r})")
    parts = {}
    for section, part, records in LAYOUT:
        reader.section(section)
        fields = parts.setdefault(part, {})
        for keyword, kind, name in records:
            fields[name] = reader.record(keyword, kind)
    if reader.pos != reader.end:
        raise FormatError(f"unexpected bytes after the last record of {reader.where}")
    try:
        return SystemModel(
            face=pca_mod.Subspace(**parts["face"]),
            face_gallery=knn_mod.KnnModel(**parts["face_gallery"]),
            voice_lda=pca_mod.Subspace(**parts["voice_lda"]),
            voice_svm=svm_mod.SvmModel(**parts["voice_svm"], kernel=VOICE_KERNEL),
            **parts[None],
        )
    except BiommError as exc:  # a model invariant checked when a part is built
        raise FormatError(f"model file describes an invalid model: {exc}") from exc
