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


def make_voice_profiles(num_clients: int, rng, num_peaks: int = 3) -> list:
    profiles = []
    for _ in range(num_clients):
        profiles.append(
            VoiceProfile(
                peaks_hz=rng.uniform(300.0, 3200.0, size=num_peaks),
                widths_hz=rng.uniform(100.0, 250.0, size=num_peaks),
                gains=rng.uniform(3.0, 8.0, size=num_peaks),
            )
        )
    return profiles


def synth_utterance(
    profile: VoiceProfile,
    rng,
    sample_rate: int = 8000,
    duration_s: float = 1.0,
    tilt_sigma: float = 0.6,
    ripple_sigma: float = 0.35,
) -> AudioRecord:
    """One filtered-noise utterance with random tilt/ripple nuisance."""
    n = int(round(sample_rate * duration_s))
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    env = profile.envelope(freqs)

    tilt = ((freqs + 100.0) / 1000.0) ** rng.normal(0.0, tilt_sigma)
    phases = np.linspace(0.0, np.pi, freqs.size)
    ripple = np.exp(
        sum(
            rng.normal(0.0, ripple_sigma) * np.cos((j + 1) * phases)
            for j in range(4)
        )
    )

    spectrum = np.fft.rfft(rng.standard_normal(n)) * env * tilt * ripple
    x = np.fft.irfft(spectrum, n)
    x = 0.3 * x / np.abs(x).max()
    return AudioRecord(sample_rate, x)


def make_face_prototypes(
    num_clients: int, rng, width: int = 16, height: int = 16
) -> list:
    """Smooth random patterns in [30, 225], one per client."""
    yy, xx = np.meshgrid(
        np.linspace(0.0, 1.0, height), np.linspace(0.0, 1.0, width), indexing="ij"
    )
    prototypes = []
    for _ in range(num_clients):
        pattern = np.zeros((height, width))
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


def render_face(prototype: np.ndarray, rng, noise_sigma: float = 5.0) -> ImageRecord:
    """Prototype plus pixel noise, quantized to 8 bits."""
    noisy = prototype + rng.normal(0.0, noise_sigma, size=prototype.shape)
    gray = np.clip(np.round(noisy), 0, 255).astype(np.uint8)
    height, width = prototype.shape
    return ImageRecord(width, height, gray.ravel())


def make_enrollment_data(
    num_clients: int = 5,
    faces_per_client: int = 4,
    utterances_per_client: int = 4,
    seed: int = 42,
    image_size: int = 16,
    noise_sigma: float = 5.0,
    sample_rate: int = 8000,
):
    """Full synthetic gallery: {client_id: (faces, utterances)} plus the
    generating prototypes/profiles so callers can mint extra probes."""
    rng = np.random.default_rng(seed)
    prototypes = make_face_prototypes(num_clients, rng, image_size, image_size)
    profiles = make_voice_profiles(num_clients, rng)
    gallery = {}
    for c in range(num_clients):
        faces = [
            render_face(prototypes[c], rng, noise_sigma)
            for _ in range(faces_per_client)
        ]
        voices = [
            synth_utterance(profiles[c], rng, sample_rate)
            for _ in range(utterances_per_client)
        ]
        gallery[f"client{c}"] = (faces, voices)
    return gallery, prototypes, profiles, rng
