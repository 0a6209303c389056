"""End-to-end multimodal system: enrollment, identification, verification,
score-level fusion, and model persistence.

Face chain: pixels -> PCA -> LDA -> KNN gallery. Voice chain: MFCC summary
-> LDA -> one-vs-one SVM. Scores from both chains are mapped to [0, 1]
(1/(1+distance) for faces, vote fractions for voices) and fused by a convex
combination. A probe is rejected as unknown when its face distance exceeds
tau_dist AND its fused score falls below tau_fused; both thresholds are
calibrated from the enrollment data and stored in the model file.

The model file (magic "BIOMM 2", CRC32-checked text) stores the config,
both face subspaces and the gallery, the voice LDA, the packed one-vs-one
SVM with each support vector once, the client names and the thresholds;
see the format comment further down.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from operator import attrgetter
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
from .ingest import AudioRecord, ImageRecord, LabeledDataset, image_to_vector

MAGIC = "BIOMM 2"
DIST_HEADROOM = 6.0

MODE_IDENTIFY = "identification"
MODE_VERIFY = "verification"
VERDICT_ACCEPT = "accept"
VERDICT_REJECT = "reject"


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of both chains, with the module defaults."""

    pca_retained: int | None = None     # default: samples - classes
    lda_retained: int | None = None     # default: classes - 1
    reg: float | None = None            # default: 1e-6 * trace(S_W)/d
    knn_k: int = 2
    mfcc: mfcc_mod.MfccConfig = mfcc_mod.MfccConfig()
    svm_kernel: str = "rbf"
    svm_gamma: float = 2.0
    svm_c: float = 10.0
    svm_tol: float = 1e-3
    w_face: float = 0.5

    def kernel(self) -> svm_mod.KernelSpec:
        gamma = self.svm_gamma if self.svm_kernel == "rbf" else None
        return svm_mod.KernelSpec(self.svm_kernel, gamma)


@dataclass(frozen=True)
class Thresholds:
    tau_dist: float
    tau_fused: float


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
    return bool(client_id) and not any(ch.isspace() for ch in client_id)


@dataclass(frozen=True)
class SystemModel:
    """A fitted or loaded system. Its parts must fit together: one distinct
    client name per voice class (class c is class_names[c]), gallery labels
    among those classes, and each stage's output dimension equal to the next
    stage's input dimension."""

    face_pca: pca_mod.Subspace
    face_lda: pca_mod.Subspace
    face_gallery: knn_mod.KnnModel
    voice_lda: pca_mod.Subspace
    voice_svm: svm_mod.SvmModel
    class_names: tuple
    thresholds: Thresholds
    config: PipelineConfig

    def __post_init__(self):
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
        for link, produced, consumed in (
            ("face PCA -> face LDA", self.face_pca.retained, self.face_lda.ambient_dim),
            ("face LDA -> gallery", self.face_lda.retained, self.face_gallery.points.shape[0]),
            ("voice LDA -> SVM", self.voice_lda.retained,
             self.voice_svm.support_vectors.shape[0]),
        ):
            if produced != consumed:
                raise DimensionError(f"{link}: {produced} dimensions feed {consumed}")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


class Enrollment:
    """Accumulates per-client raw biometrics until the batch fit."""

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
        self._clients[client_id] = (faces, voices)
        return self

    @property
    def client_ids(self) -> tuple:
        return tuple(self._clients)

    def items(self):
        return self._clients.items()


def _face_dataset(enrollment: Enrollment) -> LabeledDataset:
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
    return LabeledDataset(
        np.column_stack(columns), labels, enrollment.client_ids
    )


def _voice_dataset(enrollment: Enrollment, cfg: mfcc_mod.MfccConfig) -> LabeledDataset:
    columns, labels = [], []
    for label, (_, (_, voices)) in enumerate(enrollment.items()):
        for rec in voices:
            columns.append(mfcc_mod.extract(rec, cfg).summary)
            labels.append(label)
    return LabeledDataset(
        np.column_stack(columns), labels, enrollment.client_ids
    )


def _distance_score(distance: float) -> float:
    return 1.0 / (1.0 + distance)


def _loo_face_distances(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Leave-one-out mean distance of each gallery point vs the rest."""
    n = points.shape[1]
    out = np.zeros(n)
    for i in range(n):
        keep = np.arange(n) != i
        model = knn_mod.KnnModel(points[:, keep], labels[keep], k=min(k, n - 1))
        out[i] = knn_mod.classify(model, points[:, i]).mean_distance
    return out


def fit_system(enrollment: Enrollment, config: PipelineConfig | None = None) -> SystemModel:
    """Batch fit of both chains over everything enrolled so far.

    Refits from scratch (PCA/LDA/SVM are batch learners) and calibrates the
    rejection thresholds from the genuine enrollment scores: tau_dist is the
    99th percentile of leave-one-out gallery distances, tau_fused the 1st
    percentile of genuine fused scores.
    """
    config = config or PipelineConfig()
    if len(enrollment.client_ids) < 2:
        raise ClassError("at least two enrolled clients are required to fit")

    face_ds = _face_dataset(enrollment)
    face_pca = pca_mod.fit_pca(face_ds, config.pca_retained)
    pca_coords = pca_mod.project(face_pca, face_ds.features)
    pca_ds = LabeledDataset(pca_coords, face_ds.labels, face_ds.class_names)
    face_lda = lda_mod.fit_lda(pca_ds, config.lda_retained, config.reg)
    gallery_coords = pca_mod.project(face_lda, pca_coords)
    face_gallery = knn_mod.KnnModel(
        gallery_coords,
        face_ds.labels,
        k=min(config.knn_k, face_ds.num_samples),
    )

    voice_ds = _voice_dataset(enrollment, config.mfcc)
    voice_lda = lda_mod.fit_lda(voice_ds, config.lda_retained, config.reg)
    voice_coords = pca_mod.project(voice_lda, voice_ds.features)
    voice_proj_ds = LabeledDataset(voice_coords, voice_ds.labels, voice_ds.class_names)
    voice_svm = svm_mod.train_multiclass(
        voice_proj_ds, config.kernel(), config.svm_c, config.svm_tol
    )

    # Threshold calibration from genuine enrollment data. The leave-one-out
    # distances are measured in a subspace fit on the full gallery, which
    # understates held-out genuine distances; the headroom factor compensates
    # (impostor distances sit more than an order of magnitude higher).
    loo = _loo_face_distances(gallery_coords, face_ds.labels, config.knn_k)
    tau_dist = DIST_HEADROOM * float(np.percentile(loo, 99.0))
    # the fused gate is the distance gate mapped into score space under a
    # unanimous voice vote: anything farther than tau_dist scores below it
    tau_fused = (
        config.w_face * _distance_score(tau_dist) + (1.0 - config.w_face) * 1.0
    )

    return SystemModel(
        face_pca=face_pca,
        face_lda=face_lda,
        face_gallery=face_gallery,
        voice_lda=voice_lda,
        voice_svm=voice_svm,
        class_names=face_ds.class_names,
        thresholds=Thresholds(tau_dist, tau_fused),
        config=config,
    )


def enroll_and_fit(gallery: dict, config: PipelineConfig | None = None) -> SystemModel:
    """Convenience: enroll {client_id: (faces, voices)} in dict order and fit."""
    enrollment = Enrollment()
    for client_id, (faces, voices) in gallery.items():
        enrollment.add(client_id, faces, voices)
    return fit_system(enrollment, config)


def _face_probe(m: SystemModel, face_image: ImageRecord):
    x = image_to_vector(face_image)
    return pca_mod.project(m.face_lda, pca_mod.project(m.face_pca, x))


def _voice_probe(m: SystemModel, voice_recording: AudioRecord):
    summary = mfcc_mod.extract(voice_recording, m.config.mfcc).summary
    return pca_mod.project(m.voice_lda, summary)


def identify(m: SystemModel, face_image: ImageRecord, voice_recording: AudioRecord) -> Decision:
    """1-of-N identification with fraud rejection.

    Face and voice verdicts that agree name that client; on disagreement
    the modality with the larger weighted score wins (so w_face of 0 or 1
    reduces exactly to a single-modality system). The probe is rejected as
    unknown when the face distance exceeds tau_dist AND the fused score
    falls below tau_fused.
    """
    q_face = _face_probe(m, face_image)
    face_result = knn_mod.classify(m.face_gallery, q_face)
    face_score = _distance_score(face_result.mean_distance)

    q_voice = _voice_probe(m, voice_recording)
    voice_label, votes = svm_mod.predict_multiclass(m.voice_svm, q_voice)
    voice_score = votes[voice_label] / (m.num_classes - 1)

    w = m.config.w_face
    fused = w * face_score + (1.0 - w) * voice_score
    if face_result.label == voice_label:
        candidate = face_result.label
    elif w * face_score >= (1.0 - w) * voice_score:
        candidate = face_result.label
    else:
        candidate = voice_label

    rejected = (
        face_result.mean_distance > m.thresholds.tau_dist
        and fused < m.thresholds.tau_fused
    )
    names = m.class_names
    return Decision(
        mode=MODE_IDENTIFY,
        claimed_id=None,
        face_score=face_score,
        voice_score=float(voice_score),
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

    The face score uses only the claimed client's gallery points; the voice
    score is the fraction of the claimed client's pairwise machines that
    vote for it.
    """
    names = m.class_names
    if claimed_id not in names:
        raise IdentityError(f"claimed id {claimed_id!r} is not enrolled")
    cid = names.index(claimed_id)

    mask = m.face_gallery.labels == cid
    client_points = m.face_gallery.points[:, mask]
    client_model = knn_mod.KnnModel(
        client_points,
        np.zeros(client_points.shape[1], dtype=np.int64),
        k=min(m.config.knn_k, client_points.shape[1]),
    )
    q_face = _face_probe(m, face_image)
    face_score = _distance_score(knn_mod.classify(client_model, q_face).mean_distance)

    q_voice = _voice_probe(m, voice_recording)
    # a class can win only the C-1 machines it takes part in, so its vote
    # count is the number of those that vote for it
    _, votes = svm_mod.predict_multiclass(m.voice_svm, q_voice)
    voice_score = int(votes[cid]) / (m.voice_svm.num_classes - 1)

    w = m.config.w_face
    fused = w * face_score + (1.0 - w) * voice_score
    accepted = fused >= m.thresholds.tau_fused
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
# model file format: UTF-8 text, magic "BIOMM 2", then the sections CONFIG,
# FACE_PCA, FACE_LDA, GALLERY, VOICE_LDA, VOICE_SVM, CLIENTS and THRESHOLDS,
# and a trailing CRC32 line over all prior bytes. Matrices have a
# "NAME rows cols" header and one line of 17-significant-digit decimals per
# row; integer lists sit on their keyword's line. VOICE_SVM holds the packed
# one-vs-one model as it is in memory: CLASSES, the PAIRS flattened, the
# d x n SVS matrix of distinct support vectors, then per entry SV_INDEX
# (column in SVS), MACHINE (index into PAIRS) and COEFS, and one BIASES row
# with a bias per pair. CLIENTS is one NAMES line, the client of class c in
# position c. Files of other versions (BIOMM 1) are refused.
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _optional(cast):
    return lambda token: None if token == "-" else cast(token)


def _emit_matrix(lines: list, name: str, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(matrix)
    lines.append(f"{name} {matrix.shape[0]} {matrix.shape[1]}")
    for row in matrix:
        lines.append(" ".join(_fmt(v) for v in row))


def _emit_ints(lines: list, name: str, values) -> None:
    lines.append(" ".join([name, *(str(int(v)) for v in np.ravel(values))]))


def _emit_subspace(lines: list, section: str, s: pca_mod.Subspace) -> None:
    lines.append(f"SECTION {section}")
    lines.append(f"KIND {s.kind}")
    _emit_matrix(lines, "MEAN", s.mean[None, :])
    _emit_matrix(lines, "BASIS", s.basis)


# The CONFIG section in file order: (attribute path in PipelineConfig,
# parser). The file key is the last segment of the path.
_CONFIG_FIELDS = (
    ("mfcc.frame_ms", float),
    ("mfcc.shift_ms", float),
    ("mfcc.fft_size", _optional(int)),
    ("mfcc.num_filters", int),
    ("mfcc.num_ceps", int),
    ("mfcc.fmin_hz", float),
    ("mfcc.fmax_hz", _optional(float)),
    ("pca_retained", _optional(int)),
    ("lda_retained", _optional(int)),
    ("reg", _optional(float)),
    ("knn_k", int),
    ("svm_kernel", str),
    ("svm_gamma", float),
    ("svm_c", float),
    ("svm_tol", float),
    ("w_face", float),
)


def _fmt_field(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt(value)


def save_model(m: SystemModel, path) -> None:
    lines = [MAGIC, "SECTION CONFIG"]
    for attr, _ in _CONFIG_FIELDS:
        value = attrgetter(attr)(m.config)
        lines.append(f"{attr.rpartition('.')[2]} {_fmt_field(value)}")

    _emit_subspace(lines, "FACE_PCA", m.face_pca)
    _emit_subspace(lines, "FACE_LDA", m.face_lda)

    lines.append("SECTION GALLERY")
    lines.append(f"K {m.face_gallery.k}")
    _emit_matrix(lines, "POINTS", m.face_gallery.points)
    _emit_ints(lines, "LABELS", m.face_gallery.labels)

    _emit_subspace(lines, "VOICE_LDA", m.voice_lda)

    svm = m.voice_svm
    lines.append("SECTION VOICE_SVM")
    lines.append(f"CLASSES {svm.num_classes}")
    _emit_ints(lines, "PAIRS", svm.class_pairs)
    _emit_matrix(lines, "SVS", svm.support_vectors)
    _emit_ints(lines, "SV_INDEX", svm.sv_index)
    _emit_ints(lines, "MACHINE", svm.machine)
    _emit_matrix(lines, "COEFS", svm.dual_coefs[None, :])
    _emit_matrix(lines, "BIASES", svm.biases[None, :])

    lines.append("SECTION CLIENTS")
    lines.append(" ".join(["NAMES", *m.class_names]))

    lines.append("SECTION THRESHOLDS")
    lines.append(f"TAU_DIST {_fmt(m.thresholds.tau_dist)}")
    lines.append(f"TAU_FUSED {_fmt(m.thresholds.tau_fused)}")

    body = "\n".join(lines) + "\n"
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    Path(path).write_text(body + f"CRC32 {crc:08x}\n", encoding="utf-8")


class _Reader:
    def __init__(self, lines, section="header"):
        self.lines = lines
        self.pos = 0
        self.section = section

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise FormatError(f"truncated model file in section {self.section}")
        line = self.lines[self.pos]
        self.pos += 1
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
            return [cast(token) for cast, token in zip(casts, tokens)]
        except ValueError as exc:
            raise FormatError(f"bad {what} value in section {self.section}") from exc

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
        return np.array(self.parse([int] * len(tokens), tokens, name), dtype=np.int64)

    def matrix(self, name: str) -> np.ndarray:
        rows, cols = self.fields(name, int, int)
        if rows < 0 or cols < 0:
            raise FormatError(f"matrix {name} has negative shape {rows} x {cols}")
        data = []
        try:
            for r in range(rows):
                values = self.next().split()
                if len(values) != cols:
                    raise FormatError(
                        f"matrix {name} row {r} has {len(values)} values, expected {cols}"
                    )
                data.append([float(v) for v in values])
        except ValueError as exc:
            raise FormatError(f"bad {name} value in section {self.section}") from exc
        return np.array(data, dtype=np.float64).reshape(rows, cols)

    def vector(self, name: str) -> np.ndarray:
        matrix = self.matrix(name)
        if matrix.shape[0] != 1:
            raise FormatError(f"{name} must be a single row, found {matrix.shape[0]}")
        return matrix[0]


def _read_subspace(reader: _Reader, section: str) -> pca_mod.Subspace:
    reader.expect_section(section)
    (kind,) = reader.fields("KIND", str)
    mean = reader.vector("MEAN")
    basis = reader.matrix("BASIS")
    return pca_mod.Subspace(kind, mean, basis)


def _read_config(reader: _Reader) -> PipelineConfig:
    reader.expect_section("CONFIG")
    top, mfcc = {}, {}
    for attr, parse in _CONFIG_FIELDS:
        owner, _, key = attr.rpartition(".")
        (mfcc if owner else top)[key] = reader.fields(key, parse)[0]
    return PipelineConfig(mfcc=mfcc_mod.MfccConfig(**mfcc), **top)


def load_model(path) -> SystemModel:
    """Parse a model file; the CRC is verified before any section parsing.

    The file must end in exactly "CRC32 <8 lowercase hex digits>\n", and
    the checksum covers the raw bytes before that line. Any defect of the
    file, including a body that passes the CRC but does not describe a
    valid model, raises FormatError.
    """
    raw = Path(path).read_bytes()
    cut = raw.rfind(b"\n", 0, len(raw) - 1) + 1
    trailer = re.fullmatch(rb"CRC32 ([0-9a-f]{8})\n", raw[cut:])
    if trailer is None:
        raise FormatError("missing or malformed CRC32 trailer (file truncated?)")
    stated = trailer[1].decode("ascii")
    actual = f"{zlib.crc32(raw[:cut]) & 0xFFFFFFFF:08x}"
    if stated != actual:
        raise FormatError(f"checksum mismatch: stated {stated}, computed {actual}")
    try:
        lines = raw[:cut].decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError as exc:
        raise FormatError("model file is not UTF-8 text") from exc
    try:
        return _read_model(_Reader(lines))
    except FormatError:
        raise
    except BiommError as exc:  # a model invariant checked when a part is built
        raise FormatError(f"model file describes an invalid model: {exc}") from exc


def _read_model(reader: _Reader) -> SystemModel:
    if reader.next() != MAGIC:
        raise FormatError(f"bad magic line (expected {MAGIC!r})")
    config = _read_config(reader)

    face_pca = _read_subspace(reader, "FACE_PCA")
    face_lda = _read_subspace(reader, "FACE_LDA")

    reader.expect_section("GALLERY")
    (k,) = reader.fields("K", int)
    points = reader.matrix("POINTS")
    labels = reader.ints("LABELS")
    face_gallery = knn_mod.KnnModel(points, labels, k=k)

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
        kernel=config.kernel(),
    )

    reader.expect_section("CLIENTS")
    class_names = tuple(reader.keyword("NAMES"))

    reader.expect_section("THRESHOLDS")
    (tau_dist,) = reader.fields("TAU_DIST", float)
    (tau_fused,) = reader.fields("TAU_FUSED", float)

    return SystemModel(
        face_pca=face_pca,
        face_lda=face_lda,
        face_gallery=face_gallery,
        voice_lda=voice_lda,
        voice_svm=voice_svm,
        class_names=class_names,
        thresholds=Thresholds(tau_dist, tau_fused),
        config=config,
    )
