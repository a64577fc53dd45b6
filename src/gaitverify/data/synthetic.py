"""Seeded synthetic gait generator: a desk-scale stand-in for real datasets.

Each subject walks at a fundamental step frequency drawn from
[1.6, 2.4] Hz with three harmonics per channel (decreasing amplitude
ranges so the fundamental stays the dominant spectral peak). Walking is
not metronomic: the instantaneous tempo and the per-channel amplitude
envelope wander slowly within a recording, mimicking stride-to-stride
variability (without it, raw frames verify perfectly and the
raw-vs-learned comparison degenerates). Every recording applies a random
time offset so frames start at arbitrary gait phases, plus fresh
Gaussian noise at 10% of the clean RMS. Session 2 perturbs each
amplitude and phase by the cross-day drift factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from ..signal import MAX_SAMPLES, N_CHANNELS, SAMPLE_HZ, RawRecording

FUNDAMENTAL_RANGE = (1.6, 2.4)
# One (low, high) amplitude range per harmonic; fundamental dominates.
HARMONIC_AMPLITUDE_RANGES = ((0.8, 1.2), (0.25, 0.6), (0.1, 0.35))
NOISE_RMS_FRACTION = 0.1
# Stride-to-stride variability. Slow wander: fractional instantaneous
# tempo, per-channel amplitude envelope, per-harmonic phase (radians),
# band-limited well below the gait fundamental. Per-cycle jitter: every
# gait cycle independently perturbs each harmonic's amplitude (fraction)
# and phase (radians), so no two strides are identical.
TEMPO_MODULATION = 0.06
AMPLITUDE_MODULATION = 0.25
PHASE_MODULATION = 0.8
MODULATION_BAND_HZ = (0.05, 0.3)
CYCLE_AMPLITUDE_JITTER = 0.3
CYCLE_PHASE_JITTER = 0.7


def recording_seconds_fit(seconds: float) -> bool:
    """Whether a recording of ``seconds`` has 1 to MAX_SAMPLES samples, rounded, at SAMPLE_HZ."""
    return 0.5 < seconds * SAMPLE_HZ < MAX_SAMPLES  # false for nan


@dataclass(frozen=True)
class SyntheticConfig:
    num_subjects: int
    recording_seconds: float
    sessions: int = 2
    recordings_per_subject_per_session: int = 1
    seed: int = 0
    cross_day_drift: float = 0.0

    def __post_init__(self):
        if self.num_subjects < 1:
            raise InvalidInputError(f"num_subjects must be >= 1, got {self.num_subjects}")
        if self.recordings_per_subject_per_session < 1:
            raise InvalidInputError("recordings_per_subject_per_session must be >= 1")
        if not recording_seconds_fit(self.recording_seconds):
            raise InvalidInputError(f"recording_seconds must give 1 to {MAX_SAMPLES} samples "
                                    f"at {SAMPLE_HZ:g} Hz, got {self.recording_seconds}")
        if self.sessions not in (1, 2):
            raise InvalidInputError(f"sessions must be 1 or 2, got {self.sessions}")
        if not 0.0 <= self.cross_day_drift <= 1.0:
            raise InvalidInputError(f"cross_day_drift must be in [0,1], got {self.cross_day_drift}")


@dataclass(frozen=True)
class _SubjectParams:
    fundamental_hz: float
    amplitudes: np.ndarray  # (channels, harmonics)
    phases: np.ndarray      # (channels, harmonics)


def _draw_subject(rng: np.random.Generator) -> _SubjectParams:
    f0 = rng.uniform(*FUNDAMENTAL_RANGE)
    n_harm = len(HARMONIC_AMPLITUDE_RANGES)
    amps = np.empty((N_CHANNELS, n_harm))
    for h, (lo, hi) in enumerate(HARMONIC_AMPLITUDE_RANGES):
        amps[:, h] = rng.uniform(lo, hi, size=N_CHANNELS)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(N_CHANNELS, n_harm))
    return _SubjectParams(f0, amps, phases)


def _drifted(params: _SubjectParams, drift: float, rng: np.random.Generator) -> _SubjectParams:
    shape = params.amplitudes.shape
    amp_jitter = rng.uniform(-1.0, 1.0, size=shape)
    phase_jitter = rng.uniform(-1.0, 1.0, size=shape)
    return _SubjectParams(
        params.fundamental_hz,
        params.amplitudes * (1.0 + drift * amp_jitter),
        params.phases + drift * np.pi * phase_jitter,
    )


def _slow_wave(t: np.ndarray, rng: np.random.Generator, components: int = 3) -> np.ndarray:
    """Smooth random process in [-1, 1], band-limited to MODULATION_BAND_HZ."""
    freqs = rng.uniform(*MODULATION_BAND_HZ, size=components)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=components)
    wave = np.zeros_like(t)
    for f, p in zip(freqs, phases):
        wave += np.sin(2.0 * np.pi * f * t + p)
    return wave / components


def _render(params: _SubjectParams, t: np.ndarray, offset: float,
            rng: np.random.Generator) -> np.ndarray:
    tempo = 1.0 + TEMPO_MODULATION * _slow_wave(t, rng)
    # instantaneous gait phase advances at the wandering tempo
    theta = 2.0 * np.pi * params.fundamental_hz * (offset + np.cumsum(tempo) / SAMPLE_HZ)
    cycle = np.floor(theta / (2.0 * np.pi)).astype(int)
    cycle -= cycle.min()
    n_cycles = cycle.max() + 1
    n_harm = params.amplitudes.shape[1]
    amp_jitter = 1.0 + CYCLE_AMPLITUDE_JITTER * rng.uniform(
        -1.0, 1.0, size=(n_cycles, N_CHANNELS, n_harm))
    phase_jitter = CYCLE_PHASE_JITTER * rng.uniform(
        -1.0, 1.0, size=(n_cycles, N_CHANNELS, n_harm))
    clean = np.zeros((t.size, N_CHANNELS))
    for c in range(N_CHANNELS):
        envelope = 1.0 + AMPLITUDE_MODULATION * _slow_wave(t, rng)
        for h in range(n_harm):
            wobble = PHASE_MODULATION * _slow_wave(t, rng)
            clean[:, c] += (params.amplitudes[c, h] * envelope * amp_jitter[cycle, c, h]
                            * np.sin((h + 1) * theta + params.phases[c, h]
                                     + phase_jitter[cycle, c, h] + wobble))
    rms = np.sqrt(np.mean(clean ** 2, axis=0))
    noise = rng.standard_normal(clean.shape) * (NOISE_RMS_FRACTION * rms)
    return clean + noise


def generate_synthetic(config: SyntheticConfig) -> list[RawRecording]:
    rng = np.random.default_rng(config.seed)
    n = int(round(config.recording_seconds * SAMPLE_HZ))
    t = np.arange(n, dtype=np.float64) / SAMPLE_HZ
    width = max(2, len(str(config.num_subjects)))
    recordings = []
    for s in range(1, config.num_subjects + 1):
        base = _draw_subject(rng)
        per_session = {1: base}
        if config.sessions == 2:
            per_session[2] = _drifted(base, config.cross_day_drift, rng)
        subject_id = f"s{s:0{width}d}"
        for session in range(1, config.sessions + 1):
            params = per_session[session]
            for r in range(1, config.recordings_per_subject_per_session + 1):
                offset = rng.uniform(0.0, 1.0 / params.fundamental_hz)
                samples = _render(params, t, offset, rng)
                recordings.append(RawRecording(
                    subject_id, str(session), f"r{r}", t.copy(), samples))
    return recordings
