"""Raw recordings to normalized fixed-length frames.

The pipeline order is segment_frames -> zscore. segment_frames resamples
each recording to SAMPLE_HZ (resample_linear) and cuts it with a
reshape; all frames travel as one ``Frames`` batch: a (N, 128, 3) array
plus a table of (subject, session, recording, frame_index) sources, one
per row. zscore normalizes a whole batch in one call. All functions are
pure: they never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

SAMPLE_HZ = 100.0  # every recording is resampled to this rate before framing
FRAME_LEN = 128
N_CHANNELS = 3
# The most samples an (n, 3) float64 array can hold: numpy refuses an
# array of more bytes than the largest np.intp.
MAX_SAMPLES = np.iinfo(np.intp).max // (N_CHANNELS * 8)

# Channel stdev below this is treated as a sensor dropout: the channel is
# zeroed instead of dividing by ~0.
DEGENERATE_STDEV = 1e-8


@dataclass(frozen=True)
class RawRecording:
    """One continuous tri-axial recording of a subject in a session."""

    subject_id: str
    session_id: str
    recording_id: str
    timestamps: np.ndarray  # seconds, strictly increasing, shape (n,)
    samples: np.ndarray     # shape (n, 3): ax, ay, az

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float64)
        xs = np.asarray(self.samples, dtype=np.float64)
        if ts.ndim != 1 or ts.size == 0:
            raise InvalidInputError("recording must contain at least one sample")
        if xs.shape != (ts.size, N_CHANNELS):
            raise InvalidInputError(
                f"samples shape {xs.shape} does not match {ts.size} timestamps x {N_CHANNELS} channels"
            )
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(xs))):
            raise InvalidInputError("recording contains non-finite values")
        if not np.all(ts[1:] > ts[:-1]):  # compared, not subtracted: a difference can overflow
            raise InvalidInputError(
                f"timestamps must be strictly increasing (recording {self.recording_id!r})"
            )
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "samples", xs)

    def __len__(self):
        return self.timestamps.size

    @property
    def key(self):
        return (self.subject_id, self.session_id, self.recording_id)


@dataclass(frozen=True)
class Frames:
    """A batch of 128x3 windows: ``values`` (N, 128, 3) and one source per row.

    ``sources[i]`` is (subject_id, session_id, recording_id, frame_index) of
    row i. Values are raw after segment_frames and normalized after zscore.
    Finiteness is checked where input enters (RawRecording, the CSV
    loaders), not here.
    """

    values: np.ndarray
    sources: list[tuple[str, str, str, int]]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3 or v.shape[1:] != (FRAME_LEN, N_CHANNELS):
            raise InvalidInputError(f"frames must be (N, {FRAME_LEN}, {N_CHANNELS}), got {v.shape}")
        if len(self.sources) != v.shape[0]:
            raise InvalidInputError(f"{len(self.sources)} sources for {v.shape[0]} frames")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.shape[0]


def resample_linear(rec: RawRecording) -> np.ndarray:
    """The (n, 3) samples of a recording on a uniform SAMPLE_HZ grid, by linear interpolation.

    The grid starts at the first timestamp and steps by 1/SAMPLE_HZ; the
    output has floor((t_last - t_first) * SAMPLE_HZ) + 1 samples. Already
    uniform input at SAMPLE_HZ is returned unchanged up to 1e-9.
    """
    if len(rec) < 2:
        raise InvalidInputError(f"recording ({', '.join(rec.key)}) has {len(rec)} sample; "
                                "resampling needs at least 2")
    t = rec.timestamps
    seconds = float(t[-1]) - float(t[0])  # Python floats overflow to inf without a warning
    # The 1e-9 guard keeps n stable when (t_last - t_first) * hz lands a few
    # ulps below an integer, which is what makes resampling idempotent.
    span = seconds * SAMPLE_HZ + 1e-9
    if not span < MAX_SAMPLES:
        raise InvalidInputError(f"recording ({', '.join(rec.key)}) spans {seconds:g} s, "
                                f"more samples at {SAMPLE_HZ:g} Hz than an array can hold")
    n_out = int(np.floor(span)) + 1
    grid = t[0] + np.arange(n_out, dtype=np.float64) / SAMPLE_HZ
    out = np.empty((n_out, N_CHANNELS), dtype=np.float64)
    for c in range(N_CHANNELS):
        out[:, c] = np.interp(grid, t, rec.samples[:, c])
    return out


def segment_frames(recordings: list[RawRecording]) -> Frames:
    """Resample each recording and cut it into consecutive non-overlapping frames.

    The frames of all recordings form one batch, in recording order. Each
    recording's trailing remainder shorter than FRAME_LEN is discarded; a
    recording shorter than one frame yields no frames.
    """
    values, sources = [np.empty((0, FRAME_LEN, N_CHANNELS))], []
    for rec in recordings:
        samples = resample_linear(rec)
        n = len(samples) // FRAME_LEN
        values.append(samples[:n * FRAME_LEN].reshape(n, FRAME_LEN, N_CHANNELS))
        sources += [(*rec.key, i) for i in range(n)]
    return Frames(np.concatenate(values), sources)


def zscore(frames: Frames) -> Frames:
    """Normalize each channel of each frame to zero mean / unit stdev.

    Uses the population stdev (divide by n). A channel with stdev below
    DEGENERATE_STDEV is set to all zeros rather than erroring, so sensor
    dropouts do not abort a pipeline. One whose variance overflows (values
    beyond about 1e154) fails naming the first such frame.
    """
    v = frames.values
    with np.errstate(over="ignore", invalid="ignore"):
        mean = v.mean(axis=1, keepdims=True)
        std = v.std(axis=1, keepdims=True)
    finite = np.isfinite(std).all(axis=(1, 2))
    if not finite.all():
        subject, session, recording, index = frames.sources[np.argmin(finite)]
        raise InvalidInputError(f"recording ({subject}, {session}, {recording}) frame {index}: "
                                f"values too large to normalize")
    live = std >= DEGENERATE_STDEV
    out = np.where(live, (v - mean) / np.where(live, std, 1.0), 0.0)
    return Frames(out, frames.sources)
