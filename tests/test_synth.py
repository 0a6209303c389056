"""Seeded synthetic clients: reproducible, seed-sensitive and of the promised shapes."""

import numpy as np
import pytest

from biomm import synth


def gallery_arrays(gallery):
    """Every face and utterance of a gallery, in client order, as raw arrays."""
    return [
        (name, [f.gray for f in faces], [v.samples for v in voices])
        for name, (faces, voices) in gallery.items()
    ]


def assert_same_gallery(a, b):
    assert list(a) == list(b)
    for (name_a, faces_a, voices_a), (name_b, faces_b, voices_b) in zip(
        gallery_arrays(a), gallery_arrays(b)
    ):
        assert name_a == name_b
        for x, y in zip(faces_a + voices_a, faces_b + voices_b):
            np.testing.assert_array_equal(x, y)


@pytest.fixture(scope="module")
def data():
    return synth.make_enrollment_data(num_clients=3, faces_per_client=2,
                                      utterances_per_client=2, seed=11)


class TestEnrollmentData:
    def test_same_seed_same_data(self, data):
        gallery, prototypes, profiles, rng = data
        again, prototypes2, profiles2, rng2 = synth.make_enrollment_data(
            num_clients=3, faces_per_client=2, utterances_per_client=2, seed=11
        )
        assert_same_gallery(gallery, again)
        for a, b in zip(prototypes, prototypes2):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(profiles, profiles2):
            for field in ("peaks_hz", "widths_hz", "gains"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        # the returned generators continue in step, so later probes agree too
        assert rng.bit_generator.state == rng2.bit_generator.state

    def test_different_seed_different_data(self, data):
        gallery = data[0]
        other = synth.make_enrollment_data(
            num_clients=3, faces_per_client=2, utterances_per_client=2, seed=12
        )[0]
        assert list(other) == list(gallery)
        for (_, faces_a, voices_a), (_, faces_b, voices_b) in zip(
            gallery_arrays(gallery), gallery_arrays(other)
        ):
            for x, y in zip(faces_a + voices_a, faces_b + voices_b):
                assert not np.array_equal(x, y)

    def test_one_prototype_and_profile_per_client(self, data):
        gallery, prototypes, profiles, _ = data
        assert list(gallery) == ["client0", "client1", "client2"]
        assert len(prototypes) == len(profiles) == len(gallery)
        for faces, voices in gallery.values():
            assert len(faces) == 2 and len(voices) == 2

    def test_shapes(self, data):
        gallery, prototypes, _, _ = data
        for proto in prototypes:
            assert proto.shape == (16, 16)
        for faces, voices in gallery.values():
            for face in faces:
                assert (face.width, face.height) == (16, 16)
                assert face.gray.shape == (256,) and face.gray.dtype == np.uint8
            for voice in voices:
                assert voice.sample_rate == 8000
                assert voice.samples.shape == (8000,)
                assert np.abs(voice.samples).max() <= 1.0


class TestProbes:
    def test_same_generator_state_same_probe(self, data):
        _, prototypes, profiles, _ = data
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        np.testing.assert_array_equal(
            synth.render_face(prototypes[0], a).gray, synth.render_face(prototypes[0], b).gray
        )
        np.testing.assert_array_equal(
            synth.synth_utterance(profiles[0], a).samples,
            synth.synth_utterance(profiles[0], b).samples,
        )

    def test_different_seed_different_probe(self, data):
        _, prototypes, profiles, _ = data
        a, b = np.random.default_rng(5), np.random.default_rng(6)
        assert not np.array_equal(
            synth.render_face(prototypes[0], a).gray, synth.render_face(prototypes[0], b).gray
        )
        assert not np.array_equal(
            synth.synth_utterance(profiles[0], a).samples,
            synth.synth_utterance(profiles[0], b).samples,
        )

    def test_generators_return_one_per_client(self):
        rng = np.random.default_rng(0)
        assert len(synth.make_face_prototypes(4, rng)) == 4
        profiles = synth.make_voice_profiles(4, rng)
        assert len(profiles) == 4
        assert all(p.peaks_hz.shape == (synth.NUM_PEAKS,) for p in profiles)

    def test_utterance_length_follows_rate_and_duration(self, data):
        profile = data[2][0]
        rec = synth.synth_utterance(profile, np.random.default_rng(1),
                                    sample_rate=16000, duration_s=0.5)
        assert rec.sample_rate == 16000 and rec.samples.shape == (8000,)


class TestVoiceNoise:
    def test_no_snr_draws_nothing_more(self, data):
        # the default adds no noise and leaves the generator where it was,
        # so every gallery and probe drawn after it is as before
        profile = data[2][0]
        plain, none = np.random.default_rng(7), np.random.default_rng(7)
        np.testing.assert_array_equal(synth.synth_utterance(profile, plain).samples,
                                      synth.synth_utterance(profile, none, snr_db=None).samples)
        assert plain.bit_generator.state == none.bit_generator.state
        np.testing.assert_array_equal(synth.render_face(data[1][0], plain).gray,
                                      synth.render_face(data[1][0], none).gray)

    @pytest.mark.parametrize("snr_db", [20.0, 10.0, 0.0])
    def test_noise_power_follows_the_snr(self, data, snr_db):
        profile = data[2][0]
        clean = synth.synth_utterance(profile, np.random.default_rng(8)).samples.astype(np.float64)
        noisy = synth.synth_utterance(profile, np.random.default_rng(8), snr_db=snr_db).samples
        noise = noisy.astype(np.float64) - clean
        measured = 10.0 * np.log10(np.mean(clean * clean) / np.mean(noise * noise))
        assert abs(measured - snr_db) < 0.2  # 8000 draws of the noise power

    def test_loud_noise_is_clipped(self, data):
        rec = synth.synth_utterance(data[2][0], np.random.default_rng(9), snr_db=-40.0)
        assert np.abs(rec.samples).max() == 1.0
