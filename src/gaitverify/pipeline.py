"""Shared preprocessing: recordings -> one ``Frames`` batch, resampled, framed, z-scored.

Each recording is resampled to 100 Hz and framed on its own; all frames,
in recording order, are then z-scored in one call.
"""

from __future__ import annotations

from .data.canonical import load_canonical_csv
from .errors import InvalidInputError
from .signal import Frames, RawRecording, resample_linear, segment_frames, zscore

TARGET_HZ = 100.0


def frames_from_recordings(recordings: list[RawRecording]) -> Frames:
    return zscore(Frames.concat([segment_frames(resample_linear(rec, TARGET_HZ))
                                 for rec in recordings]))


def load_normalized_frames(path) -> Frames:
    """Frames of a canonical CSV; a recording that cannot be framed fails naming the file."""
    recordings = load_canonical_csv(path)
    try:
        return frames_from_recordings(recordings)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
