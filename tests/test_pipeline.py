"""End-to-end tests of the fused system on a small seeded synthetic gallery."""

import zlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from biomm import mfcc, pipeline, synth
from biomm.errors import DimensionError, DomainError, FormatError

NUM_CLIENTS = 5


@pytest.fixture(scope="module")
def world():
    gallery, prototypes, profiles, rng = synth.make_enrollment_data(
        num_clients=NUM_CLIENTS, seed=3
    )
    names = list(gallery)

    def probe(c):
        return synth.render_face(prototypes[c], rng), synth.synth_utterance(profiles[c], rng)

    unknown_faces = synth.make_face_prototypes(3, rng)
    unknown_voices = synth.make_voice_profiles(3, rng)
    return SimpleNamespace(
        gallery=gallery,
        names=names,
        model=pipeline.enroll_and_fit(gallery),
        genuine=[(names[c], *probe(c)) for c in range(NUM_CLIENTS) for _ in range(2)],
        unknown=[
            (synth.render_face(f, rng), synth.synth_utterance(v, rng))
            for f, v in zip(unknown_faces, unknown_voices)
        ],
        # face of client c with the voice of client c+1
        mixed=[
            (probe(c)[0], probe((c + 1) % NUM_CLIENTS)[1]) for c in range(NUM_CLIENTS)
        ],
    )


@pytest.fixture(scope="module")
def model_file(world, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "system.biomm"
    pipeline.save_model(world.model, path)
    return path


def damaged(tmp_path, data: bytes):
    path = tmp_path / "damaged.biomm"
    path.write_bytes(data)
    return path


class TestServing:
    def test_identify_genuine(self, world):
        for name, face, voice in world.genuine:
            d = pipeline.identify(world.model, face, voice)
            assert d.accepted and d.client_id == name
            assert d.mode == pipeline.MODE_IDENTIFY

    def test_verify_genuine_and_impostor(self, world):
        for name, face, voice in world.genuine:
            assert pipeline.verify(world.model, face, voice, name).accepted
            other = world.names[(world.names.index(name) + 1) % NUM_CLIENTS]
            d = pipeline.verify(world.model, face, voice, other)
            assert not d.accepted and d.client_id is None

    def test_unknown_probes_rejected(self, world):
        for face, voice in world.unknown:
            d = pipeline.identify(world.model, face, voice)
            assert not d.accepted and d.client_id is None


class TestSingleModality:
    def test_w_face_one_is_face_only(self, world):
        model = pipeline.enroll_and_fit(world.gallery, pipeline.PipelineConfig(w_face=1.0))
        for face, voice in world.mixed:
            d = pipeline.identify(model, face, voice)
            assert d.face_id != d.voice_id
            assert d.client_id == d.face_id
            assert d.fused_score == d.face_score

    def test_w_face_zero_is_voice_only(self, world):
        model = pipeline.enroll_and_fit(world.gallery, pipeline.PipelineConfig(w_face=0.0))
        for face, voice in world.mixed:
            d = pipeline.identify(model, face, voice)
            assert d.face_id != d.voice_id
            assert d.client_id == d.voice_id
            assert d.fused_score == d.voice_score


class TestModelFile:
    def test_reload_gives_equal_decisions(self, world, model_file):
        loaded = pipeline.load_model(model_file)
        for name, face, voice in world.genuine + [(world.names[0], *p) for p in world.unknown]:
            assert pipeline.identify(loaded, face, voice) == pipeline.identify(
                world.model, face, voice
            )
            assert pipeline.verify(loaded, face, voice, name) == pipeline.verify(
                world.model, face, voice, name
            )

    def test_save_load_save_is_byte_identical(self, model_file, tmp_path):
        again = tmp_path / "again.biomm"
        pipeline.save_model(pipeline.load_model(model_file), again)
        assert again.read_bytes() == model_file.read_bytes()

    def test_config_round_trip_every_field(self, world, tmp_path):
        config = pipeline.PipelineConfig(
            pca_retained=7,
            lda_retained=3,
            reg=2.5e-4,
            knn_k=3,
            mfcc=mfcc.MfccConfig(
                frame_ms=20.0,
                shift_ms=12.5,
                fft_size=512,
                num_filters=24,
                num_ceps=10,
                fmin_hz=60.0,
                fmax_hz=3600.0,
            ),
            svm_kernel="linear",
            svm_gamma=0.75,
            svm_c=3.0,
            svm_tol=5e-4,
            w_face=0.3,
        )
        for field in ("pca_retained", "lda_retained", "reg", "knn_k", "mfcc",
                      "svm_kernel", "svm_gamma", "svm_c", "svm_tol", "w_face"):
            assert getattr(config, field) != getattr(pipeline.PipelineConfig(), field)
        path = tmp_path / "config.biomm"
        pipeline.save_model(replace(world.model, config=config), path)
        assert pipeline.load_model(path).config == config

    def test_loaded_machines_equal_fitted(self, world, model_file):
        fitted = world.model.voice_svm
        loaded = pipeline.load_model(model_file).voice_svm
        assert loaded.class_pairs.tolist() == fitted.class_pairs.tolist()
        assert len(loaded.machines) == len(fitted.machines) == NUM_CLIENTS * (NUM_CLIENTS - 1) // 2
        for a, b in zip(loaded.machines, fitted.machines):
            np.testing.assert_array_equal(a.support_vectors, b.support_vectors)
            np.testing.assert_array_equal(a.dual_coefs, b.dual_coefs)
            assert a.bias == b.bias and a.kernel == b.kernel

    def test_support_vectors_stored_once(self, world, model_file):
        lines = model_file.read_text().split("\n")
        (svs,) = [line for line in lines if line.startswith("SVS ")]
        _, rows, cols = svs.split()
        utterances = sum(len(voices) for _, voices in world.gallery.values())
        assert int(rows) == world.model.voice_lda.retained
        assert int(cols) <= utterances
        per_machine = sum(m.support_vectors.shape[1] for m in world.model.voice_svm.machines)
        assert int(cols) < per_machine

    def test_flipped_byte(self, model_file, tmp_path):
        data = bytearray(model_file.read_bytes())
        data[len(data) // 2] ^= 0x01
        with pytest.raises(FormatError):
            pipeline.load_model(damaged(tmp_path, bytes(data)))

    def test_truncated(self, model_file, tmp_path):
        data = model_file.read_bytes()
        for cut in (len(data) // 2, len(data) - 1, len(data) - 5):
            with pytest.raises(FormatError):
                pipeline.load_model(damaged(tmp_path, data[:cut]))

    @pytest.mark.parametrize(
        "tail",
        [b"\x0b", b" \n", b"\t\n", b"\n\n", b""],
        ids=["final-newline-flipped", "space-before-newline", "tab-before-newline",
             "extra-newline", "no-newline"],
    )
    def test_trailer_must_be_exact(self, model_file, tmp_path, tail):
        data = model_file.read_bytes()
        assert data.endswith(b"\n")
        with pytest.raises(FormatError):
            pipeline.load_model(damaged(tmp_path, data[:-1] + tail))

    def test_carriage_return_for_newline_rejected(self, model_file, tmp_path):
        data = model_file.read_bytes()
        pos = data.index(b"\n", len(data) // 2)
        with pytest.raises(FormatError):
            pipeline.load_model(damaged(tmp_path, data[:pos] + b"\r" + data[pos + 1:]))

    def test_invalid_utf8_is_format_error(self, model_file, tmp_path):
        data = bytearray(model_file.read_bytes())
        data[len(data) // 2] = 0xFF
        with pytest.raises(FormatError):
            pipeline.load_model(damaged(tmp_path, bytes(data)))


def _line_index(lines, prefix):
    return next(n for n, line in enumerate(lines) if line.startswith(prefix))


def _set_line(prefix, text):
    def edit(lines):
        lines[_line_index(lines, prefix)] = text
    return edit


def _drop_sv_row(lines):
    """The support vectors lose their last coordinate row."""
    i = _line_index(lines, "SVS ")
    _, rows, cols = lines[i].split()
    lines[i] = f"SVS {int(rows) - 1} {cols}"
    del lines[i + int(rows)]


def _drop_last_value(name):
    """The one-row matrix `name` loses its last value."""
    def edit(lines):
        i = _line_index(lines, name + " ")
        lines[i] = f"{name} 1 {int(lines[i].split()[2]) - 1}"
        lines[i + 1] = " ".join(lines[i + 1].split()[:-1])
    return edit


def _edit_tokens(prefix, change):
    """The line starting with `prefix` gets its value tokens replaced by change(tokens)."""
    def edit(lines):
        i = _line_index(lines, prefix)
        tokens = lines[i].split()
        lines[i] = " ".join(tokens[:1] + change(tokens[1:]))
    return edit


def _replaced(position, value):
    return lambda tokens: tokens[:position] + [value] + tokens[position + 1:]


def rewritten(model_file, tmp_path, edit):
    """A copy of the model file whose body lines went through edit(lines),
    with its CRC recomputed so that only the body is malformed."""
    data = model_file.read_bytes()
    cut = data.rfind(b"\n", 0, len(data) - 1) + 1
    lines = data[:cut].decode("utf-8").split("\n")[:-1]
    edit(lines)
    body = ("\n".join(lines) + "\n").encode("utf-8")
    return damaged(tmp_path, body + b"CRC32 %08x\n" % (zlib.crc32(body) & 0xFFFFFFFF))


MALFORMED_BODIES = {
    "magic-version-1": _set_line("BIOMM ", "BIOMM 1"),
    "points-rows-not-int": _set_line("POINTS ", "POINTS x2 20"),
    "points-negative-rows": _set_line("POINTS ", "POINTS -4 20"),
    "points-missing-cols": _set_line("POINTS ", "POINTS 4"),
    "k-beyond-gallery": _set_line("K ", "K 9992"),
    "k-missing": _set_line("K ", "K"),
    "kind-missing": _set_line("KIND ", "KIND"),
    "kind-unknown": _set_line("KIND ", "KIND ica"),
    "labels-too-few": _set_line("LABELS ", "LABELS 0 1"),
    "label-not-int": _set_line("LABELS ", "LABELS " + " ".join(["0.5"] * 20)),
    "classes-not-int": _set_line("CLASSES ", "CLASSES 5x"),
    "names-line-missing": lambda lines: lines.pop(_line_index(lines, "NAMES")),
    "fewer-names-than-classes": _edit_tokens("NAMES", lambda names: names[:-1]),
    "name-repeated": _edit_tokens("NAMES", _replaced(1, "client0")),
    "label-beyond-classes": _set_line("LABELS ", "LABELS " + " ".join(["0"] * 19 + ["5"])),
    "tau-not-float": _set_line("TAU_DIST ", "TAU_DIST abc"),
    "svs-rows-differ": _drop_sv_row,
    "coefs-shorter-than-svs": _drop_last_value("COEFS"),
    "pair-out-of-range": _edit_tokens("PAIRS ", _replaced(19, "5")),
    "pair-repeated": _edit_tokens("PAIRS ", _replaced(3, "1")),
    "pair-reversed": _edit_tokens("PAIRS ", lambda t: [t[1], t[0]] + t[2:]),
    "pairs-odd-count": _edit_tokens("PAIRS ", lambda t: t[:-1]),
    "biases-fewer-than-pairs": _drop_last_value("BIASES"),
    "sv-index-past-end": _edit_tokens("SV_INDEX ", _replaced(0, "9999")),
    "sv-index-negative": _edit_tokens("SV_INDEX ", _replaced(0, "-1")),
    "sv-index-fewer-than-coefs": _edit_tokens("SV_INDEX ", lambda t: t[:-1]),
    "machine-fewer-than-coefs": _edit_tokens("MACHINE ", lambda t: t[:-1]),
    "machine-past-end": _edit_tokens("MACHINE ", _replaced(0, "10")),
}


class TestMalformedBody:
    """A body that passes the CRC but breaks the format raises only FormatError."""

    def test_rewrite_without_edit_still_loads(self, world, model_file, tmp_path):
        loaded = pipeline.load_model(rewritten(model_file, tmp_path, lambda lines: None))
        name, face, voice = world.genuine[0]
        assert pipeline.identify(loaded, face, voice) == pipeline.identify(world.model, face, voice)

    def test_chain_dimensions_must_agree(self, world):
        # the voice SVM works in the voice LDA space, not in the face PCA space
        with pytest.raises(DimensionError):
            replace(world.model, voice_lda=world.model.face_pca)
        with pytest.raises(DimensionError):
            replace(world.model, face_lda=world.model.voice_lda)

    @pytest.mark.parametrize(
        "names",
        [("client0", "client0", "client2", "client3", "client4"),
         ("client0", "", "client2", "client3", "client4"),
         ("client0", "client 1", "client2", "client3", "client4")],
        ids=["repeated", "empty", "whitespace"],
    )
    def test_client_names_checked(self, world, names):
        with pytest.raises(DomainError):
            replace(world.model, class_names=names)

    @pytest.mark.parametrize("edit", MALFORMED_BODIES.values(), ids=MALFORMED_BODIES.keys())
    def test_raises_format_error(self, model_file, tmp_path, edit):
        with pytest.raises(FormatError):
            pipeline.load_model(rewritten(model_file, tmp_path, edit))
