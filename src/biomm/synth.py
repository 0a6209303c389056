"""Synthetic client generators for demos and self-contained evaluation.

Faces are smooth random prototype patterns plus per-sample pixel noise.
Voices are filtered noise: each client owns a spectral envelope with a few
resonant peaks, and every utterance passes fresh white noise through it.
Per-utterance spectral tilt and ripple act as nuisance variation shared by
no client, which is exactly the variation a discriminant projection should
cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import AudioRecord, ImageRecord

FACE_SIZE = 16  # side of the square faces, in pixels
FACE_NOISE_SIGMA = 5.0  # per-pixel noise, in gray levels
NUM_PEAKS = 3  # resonances per voice
TILT_SIGMA = 0.6  # spread of an utterance's log spectral tilt
RIPPLE_SIGMA = 0.35  # spread of each of its four ripple terms


@dataclass(frozen=True)
class VoiceProfile:
    """Resonance layout defining one client's spectral envelope."""

    peaks_hz: np.ndarray
    widths_hz: np.ndarray
    gains: np.ndarray

    def envelope(self, freqs_hz: np.ndarray) -> np.ndarray:
        env = np.ones_like(freqs_hz)
        for peak, width, gain in zip(self.peaks_hz, self.widths_hz, self.gains):
            env = env + gain * np.exp(-0.5 * ((freqs_hz - peak) / width) ** 2)
        return env


def make_voice_profiles(num_clients: int, rng) -> list:
    profiles = []
    for _ in range(num_clients):
        profiles.append(
            VoiceProfile(
                peaks_hz=rng.uniform(300.0, 3200.0, size=NUM_PEAKS),
                widths_hz=rng.uniform(100.0, 250.0, size=NUM_PEAKS),
                gains=rng.uniform(3.0, 8.0, size=NUM_PEAKS),
            )
        )
    return profiles


def synth_utterance(
    profile: VoiceProfile,
    rng,
    sample_rate: int = 8000,
    duration_s: float = 1.0,
    snr_db: float | None = None,
) -> AudioRecord:
    """One filtered-noise utterance with random tilt/ripple nuisance.

    With snr_db, white Gaussian noise whose power is the utterance's mean
    power over 10^(snr_db / 10) is added, and the sum clipped to [-1, 1];
    without it nothing more is drawn from rng.
    """
    n = int(round(sample_rate * duration_s))
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    env = profile.envelope(freqs)

    tilt = ((freqs + 100.0) / 1000.0) ** rng.normal(0.0, TILT_SIGMA)
    phases = np.linspace(0.0, np.pi, freqs.size)
    ripple = np.exp(
        sum(
            rng.normal(0.0, RIPPLE_SIGMA) * np.cos((j + 1) * phases)
            for j in range(4)
        )
    )

    spectrum = np.fft.rfft(rng.standard_normal(n)) * env * tilt * ripple
    x = np.fft.irfft(spectrum, n)
    x = 0.3 * x / np.abs(x).max()
    if snr_db is not None:
        noise_power = np.mean(x * x) / 10.0 ** (snr_db / 10.0)
        x = np.clip(x + rng.standard_normal(n) * np.sqrt(noise_power), -1.0, 1.0)
    return AudioRecord(sample_rate, x)


def make_face_prototypes(num_clients: int, rng) -> list:
    """Smooth random FACE_SIZE x FACE_SIZE patterns in [30, 225], one per client."""
    axis = np.linspace(0.0, 1.0, FACE_SIZE)
    yy, xx = np.meshgrid(axis, axis, indexing="ij")
    prototypes = []
    for _ in range(num_clients):
        pattern = np.zeros((FACE_SIZE, FACE_SIZE))
        for _ in range(6):
            fy, fx = rng.uniform(0.5, 3.0, size=2)
            phase_y, phase_x = rng.uniform(0.0, 2.0 * np.pi, size=2)
            pattern += rng.standard_normal() * np.cos(
                2.0 * np.pi * fy * yy + phase_y
            ) * np.cos(2.0 * np.pi * fx * xx + phase_x)
        lo, hi = pattern.min(), pattern.max()
        pattern = 30.0 + 195.0 * (pattern - lo) / (hi - lo)
        prototypes.append(pattern)
    return prototypes


def render_face(prototype: np.ndarray, rng) -> ImageRecord:
    """Prototype plus pixel noise, quantized to 8 bits."""
    noisy = prototype + rng.normal(0.0, FACE_NOISE_SIGMA, size=prototype.shape)
    gray = np.clip(np.round(noisy), 0, 255).astype(np.uint8)
    height, width = prototype.shape
    return ImageRecord(width, height, gray.ravel())


def make_enrollment_data(
    num_clients: int = 5,
    faces_per_client: int = 4,
    utterances_per_client: int = 4,
    seed: int = 42,
    sample_rate: int = 8000,
):
    """Full synthetic gallery: {client_id: (faces, utterances)} plus the
    generating prototypes/profiles so callers can mint extra probes."""
    rng = np.random.default_rng(seed)
    prototypes = make_face_prototypes(num_clients, rng)
    profiles = make_voice_profiles(num_clients, rng)
    gallery = {}
    for c in range(num_clients):
        faces = [render_face(prototypes[c], rng) for _ in range(faces_per_client)]
        voices = [
            synth_utterance(profiles[c], rng, sample_rate)
            for _ in range(utterances_per_client)
        ]
        gallery[f"client{c}"] = (faces, voices)
    return gallery, prototypes, profiles, rng
