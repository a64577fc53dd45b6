"""Shared preprocessing: recordings -> one z-scored ``Frames`` batch.

segment_frames resamples every recording to 100 Hz and cuts all of them
into one batch, in recording order; zscore then normalizes it in one call.
"""

from __future__ import annotations

from .data.canonical import load_canonical_csv
from .errors import InvalidInputError
from .signal import Frames, RawRecording, segment_frames, zscore


def frames_from_recordings(recordings: list[RawRecording]) -> Frames:
    return zscore(segment_frames(recordings))


def load_normalized_frames(path) -> Frames:
    """Frames of a canonical CSV; a recording that cannot be framed fails naming the file."""
    recordings = load_canonical_csv(path)
    try:
        return frames_from_recordings(recordings)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
