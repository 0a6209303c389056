"""End-to-end multimodal system: enrollment, identification, verification,
score-level fusion, and model persistence.

Face chain: pixels -> PCA -> LDA -> KNN gallery, with PCA and LDA kept as
one pixel -> Fisher-space map, their product (the Fisherface W_opt). Voice
chain: MFCC summary -> LDA -> one-vs-one SVM. Scores from both chains are
mapped to [0, 1] (1/(1+distance) for faces, vote fractions for voices) and
fused by a convex combination. A probe is rejected as unknown when its face
distance exceeds tau_dist AND its fused score falls below tau_fused.
tau_dist is calibrated from the enrollment data; tau_fused is its image in
score space under w_face, computed where it is used.

The fit settings are module constants (KNN_K, VOICE_KERNEL, SVM_C, SVM_TOL,
and the MFCC analysis constants of the mfcc module); PCA and LDA fix their
widths from the data. The one setting a caller chooses is the fusion weight
w_face.

The model file (magic "BIOMM 8", CRC32-checked) stores the enrollment
sample rate and image size, the Fisherface map and the gallery points (n x d,
one row per point, grouped by client), the voice LDA, the packed one-vs-one
SVM with each support vector once, the client names, w_face and tau_dist.
Names, integers and scalars are text lines; each float matrix is a text
header line followed by its raw row-major little-endian float64 bytes, so it
reloads bit-exact; see the format comment further down. It holds no value the
loader can compute from the others: the gallery's k and tau_fused follow from
the constants, w_face and the gallery size. A probe whose rate or image size
differs from enrollment is refused.

Verification is 1:1, with no gallery built per claim: the face against the
claimed client's slice of gallery rows, the voice by the claimed client's
share of the machines' decision values, from the row-major support vectors
the SVM derives once when it is built.
"""

from __future__ import annotations

import re
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
from .ingest import _integer, image_to_vector

MAGIC = "BIOMM 8"
DIST_HEADROOM = 6.0

# The fit settings. A model file records none of them: the loader rebuilds
# the gallery's k and the SVM kernel from KNN_K and VOICE_KERNEL, and serves
# probes with the mfcc module's fixed front end, so changing one of those
# (or an mfcc constant) is a format change and bumps MAGIC. SVM_C and SVM_TOL
# act only while a model is fitted.
KNN_K = 2
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

    def __post_init__(self):
        # scores derived from numpy votes and distances arrive as numpy
        # scalars; a Decision holds plain floats whichever mode made it
        for name in ("face_score", "voice_score", "fused_score"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def accepted(self) -> bool:
        return self.verdict == VERDICT_ACCEPT


def _valid_client_id(client_id: str) -> bool:
    return bool(client_id) and not any(ch.isspace() for ch in client_id)


@dataclass(frozen=True, eq=False)
class SystemModel:
    """A fitted or loaded system. Its parts must fit together: a fusion
    weight w_face in [0, 1], one distinct client name per voice class (class
    c is class_names[c]), non-decreasing gallery labels that cover exactly
    those classes (so a claimed client's points are one non-empty slice of
    rows), a gallery voting among min(KNN_K, points) neighbours and an SVM
    with VOICE_KERNEL (what loading rebuilds), and each stage's output
    dimension equal to the next stage's input dimension, starting from the
    face_size = (width, height) pixels of an enrolled image. The sample rate
    and face_size are integers, as the records hold them and the file stores
    them; NumPy integers are kept as int."""

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
        if not 0.0 <= self.w_face <= 1.0:  # a NaN weight fails this test too
            raise DomainError(f"w_face must lie in [0, 1], got {self.w_face}")
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
        if len(set(self.class_names)) != classes or not all(
            map(_valid_client_id, self.class_names)
        ):
            raise DomainError(
                "client names must be distinct, non-empty and without whitespace"
            )
        labels = self.face_gallery.labels
        if labels.min() < 0 or labels.max() >= classes:
            raise DomainError(f"gallery labels must lie in 0..{classes - 1}")
        if (np.diff(labels) < 0).any():
            raise DomainError("gallery rows must be grouped by client, in class order")
        if np.unique(labels).size != classes:
            raise DomainError("every client needs at least one gallery point")
        if self.face_gallery.k != min(KNN_K, labels.size):
            raise DomainError(f"gallery k {self.face_gallery.k} disagrees with KNN_K {KNN_K}")
        if self.voice_svm.kernel != VOICE_KERNEL:
            raise DomainError(f"SVM kernel {self.voice_svm.kernel} is not VOICE_KERNEL")
        for link, produced, consumed in (
            ("image -> face", width * height, self.face.ambient_dim),
            ("face -> gallery", self.face.retained, self.face_gallery.points.shape[1]),
            ("MFCC summary -> voice LDA", 2 * mfcc_mod.NUM_CEPS, self.voice_lda.ambient_dim),
            ("voice LDA -> SVM", self.voice_lda.retained,
             self.voice_svm.support_vectors.shape[0]),
        ):
            if produced != consumed:
                raise DimensionError(f"{link}: {produced} dimensions feed {consumed}")
        object.__setattr__(self, "sample_rate", rate)
        object.__setattr__(self, "face_size", (width, height))

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def tau_fused(self) -> float:
        """The distance gate mapped into score space under a unanimous voice
        vote: a probe farther than tau_dist scores below it."""
        w = self.w_face
        return w * _distance_score(self.tau_dist) + (1.0 - w)


class Enrollment:
    """Accumulates per-client raw biometrics until the batch fit.

    It holds every record it is given, not features, until `fit_system`
    reads them, so an enrollment's memory is that of its records: a
    second of 8 kHz audio is 32 KB as an AudioRecord keeps it (float32).
    """

    def __init__(self):
        self._clients: dict[str, tuple[list, list]] = {}

    def add(self, client_id: str, face_images, voice_recordings) -> "Enrollment":
        if not _valid_client_id(client_id):
            raise EnrollmentError(f"client id {client_id!r} must be non-empty without whitespace")
        if client_id in self._clients:
            raise EnrollmentError(f"client {client_id!r} is already enrolled")
        faces = list(face_images)
        voices = list(voice_recordings)
        if len(faces) < 2 or len(voices) < 2:
            raise EnrollmentError(
                f"client {client_id!r} needs >= 2 face images and >= 2 recordings"
            )
        _require_records(EnrollmentError, f"client {client_id!r}", faces, voices)
        self._clients[client_id] = (faces, voices)
        return self

    @property
    def client_ids(self) -> tuple:
        return tuple(self._clients)

    def items(self):
        return self._clients.items()


def _require_records(error: type, whose: str, faces, voices) -> None:
    """Refuse a face or recording that is not an ImageRecord or AudioRecord, before any work."""
    for records, kind, what in ((faces, ImageRecord, "face"), (voices, AudioRecord, "recording")):
        for record in records:
            if not isinstance(record, kind):
                raise error(f"{whose} {what} must be an {kind.__name__}, got {type(record).__name__}")


def _face_dataset(enrollment: Enrollment) -> tuple:
    """The face columns and the (width, height) that every image shares."""
    columns, labels = [], []
    shape = None
    for label, (client_id, (faces, _)) in enumerate(enrollment.items()):
        for img in faces:
            if shape is None:
                shape = (img.width, img.height)
            elif (img.width, img.height) != shape:
                raise DatasetError(
                    f"client {client_id!r} image is {img.width}x{img.height}, "
                    f"expected {shape[0]}x{shape[1]}"
                )
            columns.append(image_to_vector(img))
            labels.append(label)
    return LabeledDataset(np.column_stack(columns), labels, enrollment.client_ids), shape


def _voice_dataset(enrollment: Enrollment) -> tuple:
    """The MFCC summary columns and the sample rate that every recording shares."""
    columns, labels = [], []
    rate = None
    for label, (client_id, (_, voices)) in enumerate(enrollment.items()):
        for rec in voices:
            if rate is None:
                rate = rec.sample_rate
            elif rec.sample_rate != rate:
                raise DatasetError(
                    f"client {client_id!r} recording is at {rec.sample_rate} Hz, "
                    f"expected {rate} Hz"
                )
            columns.append(mfcc_mod.extract(rec).summary)
            labels.append(label)
    return LabeledDataset(np.column_stack(columns), labels, enrollment.client_ids), rate


def _require_within_class_variation(ds: LabeledDataset, what: str) -> None:
    """Refuse a dataset in which every class repeats one sample: its
    within-class scatter is zero, so no discriminant can be fitted."""
    for c in range(ds.num_classes):
        block = ds.features[:, ds.labels == c]
        if (block != block[:, :1]).any():
            return
    raise DatasetError(
        f"no client enrolled two different {what}, so there is no within-class "
        f"variation to fit a discriminant against"
    )


def _distance_score(distance: float) -> float:
    return 1.0 / (1.0 + distance)


def _gallery(rows: np.ndarray, labels) -> knn_mod.KnnModel:
    """A kNN gallery of rows voting among KNN_K neighbours, or all its points if fewer."""
    return knn_mod.KnnModel(rows, labels, k=min(KNN_K, rows.shape[0]))


def fit_system(enrollment: Enrollment, w_face: float = 0.5) -> SystemModel:
    """Batch fit of both chains over everything enrolled so far, fusing
    them with weight w_face on the face score.

    Refits from scratch (PCA/LDA/SVM are batch learners) and calibrates the
    rejection threshold tau_dist from the genuine enrollment scores: the
    99th percentile of leave-one-out gallery distances (every gallery point
    against the rest, in one pass of `knn.leave_one_out`), times
    DIST_HEADROOM.

    The face PCA and the LDA fitted in its coordinates are kept only as their
    product W_opt^T = W_fld^T W_pca^T, the Fisherface map from pixels; the
    gallery is projected with that map, so fitted and reloaded models agree.

    Raises DatasetError when no client enrolled two different faces, or two
    different recordings: that modality has no within-class variation.
    """
    if len(enrollment.client_ids) < 2:
        raise ClassError("at least two enrolled clients are required to fit")

    face_ds, face_size = _face_dataset(enrollment)
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
    face_gallery = _gallery(pca_mod.project(face, face_ds.features).T, face_ds.labels)

    voice_ds, sample_rate = _voice_dataset(enrollment)
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
    """Convenience: enroll {client_id: (faces, voices)} in dict order and fit."""
    enrollment = Enrollment()
    for client_id, (faces, voices) in gallery.items():
        enrollment.add(client_id, faces, voices)
    return fit_system(enrollment, w_face)


def _face_probe(m: SystemModel, face_image: ImageRecord):
    size = (face_image.width, face_image.height)
    if size != m.face_size:
        raise DatasetError("probe image is %dx%d, enrolled ones %dx%d" % (*size, *m.face_size))
    return pca_mod.project(m.face, image_to_vector(face_image))


def _voice_probe(m: SystemModel, voice_recording: AudioRecord):
    rate = voice_recording.sample_rate
    if rate != m.sample_rate:
        raise DatasetError(f"probe voice is at {rate} Hz, enrolled ones at {m.sample_rate} Hz")
    summary = mfcc_mod.extract(voice_recording).summary
    return pca_mod.project(m.voice_lda, summary)


def identify(m: SystemModel, face_image: ImageRecord, voice_recording: AudioRecord) -> Decision:
    """1-of-N identification with fraud rejection.

    Face and voice verdicts that agree name that client; on disagreement
    the modality with the larger weighted score wins (so w_face of 0 or 1
    reduces exactly to a single-modality system). The probe is rejected as
    unknown when the face distance exceeds tau_dist AND the fused score
    falls below tau_fused.
    """
    _require_records(DatasetError, "probe", [face_image], [voice_recording])
    q_face = _face_probe(m, face_image)
    face_result = knn_mod.classify(m.face_gallery, q_face)
    face_score = _distance_score(face_result.mean_distance)

    q_voice = _voice_probe(m, voice_recording)
    voice_label, votes = svm_mod.predict_multiclass(m.voice_svm, q_voice)
    voice_score = votes[voice_label] / (m.num_classes - 1)

    w = m.w_face
    fused = w * face_score + (1.0 - w) * voice_score
    if w * face_score >= (1.0 - w) * voice_score:
        candidate = face_result.label
    else:
        candidate = voice_label

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
    gallery's rule; the voice score is the fraction of the claimed client's
    pairwise machines that vote for it, counted from every machine's
    decision value. Neither builds a gallery or runs the one-vs-one vote.
    """
    names = m.class_names
    if claimed_id not in names:
        raise IdentityError(f"claimed id {claimed_id!r} is not enrolled")
    cid = names.index(claimed_id)
    _require_records(DatasetError, "probe", [face_image], [voice_recording])

    gallery = m.face_gallery
    lo, hi = np.searchsorted(gallery.labels, (cid, cid + 1))
    dists = knn_mod.distances(gallery.points[lo:hi], _face_probe(m, face_image))
    nearest = knn_mod.vote(gallery.labels[lo:hi], dists, min(KNN_K, hi - lo))
    face_score = _distance_score(nearest.mean_distance)

    q_voice = _voice_probe(m, voice_recording)
    # a class can win only the C-1 machines it takes part in, so its vote
    # count is the number of those that vote for it
    scores = svm_mod.decision_values(m.voice_svm, q_voice)
    won = np.count_nonzero(svm_mod.machine_winners(m.voice_svm, scores) == cid)
    voice_score = int(won) / (m.voice_svm.num_classes - 1)

    w = m.w_face
    fused = w * face_score + (1.0 - w) * voice_score
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
# model file format: magic "BIOMM 8", then the sections INPUTS, FACE, GALLERY,
# VOICE_LDA, VOICE_SVM, CLIENTS and THRESHOLDS, and a trailer of exactly 15
# bytes, "CRC32 <8 lowercase hex digits>\n", over all prior bytes. The
# constants KNN_K and VOICE_KERNEL and the mfcc module's FRAME_MS, SHIFT_MS,
# NUM_FILTERS and NUM_CEPS are part of the format: no line records them.
# Every record starts with one UTF-8 header line ending in "\n". A matrix is
# the header "NAME rows cols", then exactly 8 * rows * cols bytes, its
# row-major little-endian float64 values, then "\n"; a payload may hold any
# byte, so the loader finds its end from the stated shape, never by searching.
# Integer lists sit on their keyword's line, and other floats are 17-digit
# decimals. INPUTS is the enrollment SAMPLE_RATE and FACE_SIZE (width height).
# FACE is the Fisherface map: a 1 x pixels MEAN and a pixels x (C-1) BASIS;
# VOICE_LDA is a MEAN and BASIS too. GALLERY is the n x d POINTS matrix, one
# row per point, and their LABELS, non-decreasing (rows grouped by client, in
# class order), at least one point per client; its k is min(KNN_K, points),
# as at fit time. VOICE_SVM holds the packed one-vs-one model as it is in
# memory: CLASSES, the PAIRS flattened, the d x n SVS matrix of distinct
# support vectors, then per entry SV_INDEX (column in SVS), MACHINE (index
# into PAIRS) and COEFS, and one BIASES row with a bias per pair. CLIENTS is
# one NAMES line, the client of class c in position c. THRESHOLDS is a W_FACE
# line and a TAU_DIST line, the last of the body; tau_fused is computed from
# the two. Files of other versions (BIOMM 1 to 7) are refused.
# ---------------------------------------------------------------------------

TRAILER_BYTES = len("CRC32 00000000\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit_line(out: list, text: str) -> None:
    out.append(text.encode("utf-8") + b"\n")


def _emit_matrix(out: list, name: str, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(matrix)
    rows, cols = matrix.shape
    _emit_line(out, f"{name} {rows} {cols}")
    out.append(np.ascontiguousarray(matrix, dtype="<f8").tobytes())
    out.append(b"\n")


def _emit_ints(out: list, name: str, values) -> None:
    _emit_line(out, " ".join([name, *map(str, np.ravel(values).tolist())]))


def _emit_subspace(out: list, section: str, s: pca_mod.Subspace) -> None:
    _emit_line(out, f"SECTION {section}")
    _emit_matrix(out, "MEAN", s.mean[None, :])
    _emit_matrix(out, "BASIS", s.basis)


def save_model(m: SystemModel, path) -> None:
    out = []
    _emit_line(out, MAGIC)
    _emit_line(out, "SECTION INPUTS")
    _emit_line(out, f"SAMPLE_RATE {m.sample_rate}")
    _emit_ints(out, "FACE_SIZE", m.face_size)

    _emit_subspace(out, "FACE", m.face)

    _emit_line(out, "SECTION GALLERY")
    _emit_matrix(out, "POINTS", m.face_gallery.points)
    _emit_ints(out, "LABELS", m.face_gallery.labels)

    _emit_subspace(out, "VOICE_LDA", m.voice_lda)

    svm = m.voice_svm
    _emit_line(out, "SECTION VOICE_SVM")
    _emit_line(out, f"CLASSES {svm.num_classes}")
    _emit_ints(out, "PAIRS", svm.class_pairs)
    _emit_matrix(out, "SVS", svm.support_vectors)
    _emit_ints(out, "SV_INDEX", svm.sv_index)
    _emit_ints(out, "MACHINE", svm.machine)
    _emit_matrix(out, "COEFS", svm.dual_coefs[None, :])
    _emit_matrix(out, "BIASES", svm.biases[None, :])

    _emit_line(out, "SECTION CLIENTS")
    _emit_line(out, " ".join(["NAMES", *m.class_names]))

    _emit_line(out, "SECTION THRESHOLDS")
    _emit_line(out, f"W_FACE {_fmt(m.w_face)}")
    _emit_line(out, f"TAU_DIST {_fmt(m.tau_dist)}")

    body = b"".join(out)
    with open(path, "wb") as f:  # bytes, so no platform turns "\n" into "\r\n"
        f.write(body)
        f.write(b"CRC32 %08x\n" % zlib.crc32(body))


class _Reader:
    """A byte cursor over a model file body, data[:end]: header lines are
    decoded one at a time, and a payload is read only after its stated size
    is checked against the bytes left."""

    def __init__(self, data: bytes, end: int):
        self.data = data
        self.end = end
        self.pos = 0
        self.section = "header"

    def at_end(self) -> bool:
        return self.pos == self.end

    def next(self) -> str:
        stop = self.data.find(b"\n", self.pos, self.end)
        if stop < 0:
            raise FormatError(f"truncated model file in section {self.section}")
        try:
            line = self.data[self.pos:stop].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"header line in section {self.section} is not UTF-8") from exc
        self.pos = stop + 1
        return line

    def expect_section(self, name: str) -> None:
        line = self.next()
        if line != f"SECTION {name}":
            raise FormatError(f"expected section {name}, found {line!r}")
        self.section = name

    def keyword(self, name: str) -> list:
        parts = self.next().split()
        if not parts or parts[0] != name:
            raise FormatError(f"expected {name} in section {self.section}")
        return parts[1:]

    def parse(self, casts, tokens, what: str) -> list:
        try:
            values = [cast(token) for cast, token in zip(casts, tokens)]
        except ValueError as exc:
            raise FormatError(f"bad {what} value in section {self.section}") from exc
        self.finite([v for v in values if isinstance(v, float)], what)
        return values

    def finite(self, values, what: str) -> None:
        """float() accepts "nan" and "inf"; no value of a model may be either."""
        if not np.isfinite(values).all():
            raise FormatError(f"non-finite {what} value in section {self.section}")

    def fields(self, name: str, *casts) -> list:
        """The values after keyword `name`: exactly one per cast."""
        tokens = self.keyword(name)
        if len(tokens) != len(casts):
            raise FormatError(
                f"{name} in section {self.section} needs {len(casts)} values, "
                f"found {len(tokens)}"
            )
        return self.parse(casts, tokens, name)

    def ints(self, name: str) -> np.ndarray:
        tokens = self.keyword(name)
        try:
            return np.array(tokens, dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"bad {name} value in section {self.section}") from exc

    def matrix(self, name: str) -> np.ndarray:
        rows, cols = self.fields(name, int, int)
        if rows < 0 or cols < 0:
            raise FormatError(f"matrix {name} has negative shape {rows} x {cols}")
        start, stop = self.pos, self.pos + 8 * rows * cols
        if stop >= self.end:  # the payload and its "\n" must both fit
            raise FormatError(
                f"matrix {name} states {stop - start} payload bytes, more than the file holds"
            )
        if self.data[stop] != ord("\n"):
            raise FormatError(f"matrix {name} payload is not followed by a newline")
        self.pos = stop + 1
        values = np.frombuffer(self.data, dtype="<f8", count=rows * cols, offset=start)
        values = values.astype(np.float64)
        try:
            matrix = values.reshape(rows, cols)
        except ValueError as exc:  # an empty matrix of more rows than any array holds
            raise FormatError(f"matrix {name} shape {rows} x {cols} is too large") from exc
        self.finite(matrix, name)
        return matrix

    def vector(self, name: str) -> np.ndarray:
        matrix = self.matrix(name)
        if matrix.shape[0] != 1:
            raise FormatError(f"{name} must be a single row, found {matrix.shape[0]}")
        return matrix[0]


def _read_subspace(reader: _Reader, section: str) -> pca_mod.Subspace:
    reader.expect_section(section)
    mean = reader.vector("MEAN")
    basis = reader.matrix("BASIS")
    return pca_mod.Subspace(mean, basis)


def _body_length(raw: bytes) -> int:
    """The number of body bytes of a model file: all but its last
    TRAILER_BYTES, which must be exactly "CRC32 <8 lowercase hex digits>\n"
    stating the checksum of the body."""
    trailer = re.fullmatch(rb"CRC32 ([0-9a-f]{8})\n", raw[-TRAILER_BYTES:])
    if trailer is None:
        raise FormatError("missing or malformed CRC32 trailer (file truncated?)")
    cut = len(raw) - TRAILER_BYTES
    stated = trailer[1].decode("ascii")
    actual = f"{zlib.crc32(memoryview(raw)[:cut]):08x}"
    if stated != actual:
        raise FormatError(f"checksum mismatch: stated {stated}, computed {actual}")
    return cut


def load_model(path) -> SystemModel:
    """Parse a model file; the CRC is verified before any section parsing.

    Any defect of the file, including a body that passes the CRC but does
    not describe a valid model, raises FormatError.
    """
    raw = Path(path).read_bytes()
    try:
        return _read_model(_Reader(raw, _body_length(raw)))
    except FormatError:
        raise
    except BiommError as exc:  # a model invariant checked when a part is built
        raise FormatError(f"model file describes an invalid model: {exc}") from exc


def _read_model(reader: _Reader) -> SystemModel:
    if reader.next() != MAGIC:
        raise FormatError(f"bad magic line (expected {MAGIC!r})")

    reader.expect_section("INPUTS")
    (sample_rate,) = reader.fields("SAMPLE_RATE", int)
    face_size = tuple(reader.fields("FACE_SIZE", int, int))

    face = _read_subspace(reader, "FACE")

    reader.expect_section("GALLERY")
    face_gallery = _gallery(reader.matrix("POINTS"), reader.ints("LABELS"))

    voice_lda = _read_subspace(reader, "VOICE_LDA")

    reader.expect_section("VOICE_SVM")
    (num_classes,) = reader.fields("CLASSES", int)
    pairs = reader.ints("PAIRS")
    if pairs.size % 2:
        raise FormatError("PAIRS must list two classes per machine")
    voice_svm = svm_mod.SvmModel(
        num_classes=num_classes,
        class_pairs=pairs.reshape(-1, 2),
        support_vectors=reader.matrix("SVS"),
        sv_index=reader.ints("SV_INDEX"),
        machine=reader.ints("MACHINE"),
        dual_coefs=reader.vector("COEFS"),
        biases=reader.vector("BIASES"),
        kernel=VOICE_KERNEL,
    )

    reader.expect_section("CLIENTS")
    class_names = tuple(reader.keyword("NAMES"))

    reader.expect_section("THRESHOLDS")
    (w_face,) = reader.fields("W_FACE", float)
    (tau_dist,) = reader.fields("TAU_DIST", float)
    if not reader.at_end():
        raise FormatError(f"unexpected line after TAU_DIST: {reader.next()!r}")

    return SystemModel(
        face=face,
        face_gallery=face_gallery,
        voice_lda=voice_lda,
        voice_svm=voice_svm,
        class_names=class_names,
        tau_dist=tau_dist,
        w_face=w_face,
        sample_rate=sample_rate,
        face_size=face_size,
    )
