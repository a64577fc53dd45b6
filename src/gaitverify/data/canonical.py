"""Canonical CSV formats: gait recordings, cycle annotations, feature exports.

The recording format has header ``subject,session,recording,t,ax,ay,az``
with rows grouped by (subject, session, recording) and t in seconds,
strictly increasing within a recording. Floats are written with
shortest-round-trip formatting, so load(write(x)) is lossless. The
loaders fail at ``path:line`` on a malformed or nan/inf field.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from ..errors import FormatError, InvalidInputError
from ..signal import CycleAnnotation, RawRecording

RECORDING_HEADER = ["subject", "session", "recording", "t", "ax", "ay", "az"]
ANNOTATION_HEADER = ["subject", "session", "recording", "boundary"]


def _fmt(x: float) -> str:
    return repr(float(x))


def load_canonical_csv(path) -> list[RawRecording]:
    """One RawRecording per (subject, session, recording) group, file order."""
    groups: dict[tuple[str, str, str], tuple[list, list]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RECORDING_HEADER:
            raise FormatError(f"{path}: expected header {','.join(RECORDING_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 7:
                raise FormatError(f"{path}:{lineno}: expected 7 fields, got {len(row)}")
            try:
                t = float(row[3])
                acc = (float(row[4]), float(row[5]), float(row[6]))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            key = (row[0], row[1], row[2])
            ts, xs = groups.setdefault(key, ([], []))
            ts.append(t)
            xs.append(acc)
    recordings = []
    for (subject, session, recording), (ts, xs) in groups.items():
        t_arr, x_arr = np.asarray(ts), np.asarray(xs)
        if not (np.isfinite(t_arr).all() and np.isfinite(x_arr).all()):
            raise FormatError(f"{path}:{_first_non_finite_line(path, 3)}: non-finite value")
        if t_arr.size > 1 and not np.all(np.diff(t_arr) > 0):
            raise InvalidInputError(
                f"{path}: non-monotonic timestamps in recording "
                f"({subject}, {session}, {recording})")
        recordings.append(RawRecording(subject, session, recording, t_arr, x_arr))
    return recordings


def _first_non_finite_line(path, first_float: int) -> int:
    """Line number of the first data row with a nan/inf among its float fields."""
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if lineno > 1 and row and not all(math.isfinite(float(v)) for v in row[first_float:]):
                return lineno
    raise AssertionError(f"{path}: no non-finite field")


def write_canonical_csv(recordings: list[RawRecording], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORDING_HEADER)
        for rec in recordings:
            for t, (ax, ay, az) in zip(rec.timestamps, rec.samples):
                writer.writerow([rec.subject_id, rec.session_id, rec.recording_id,
                                 _fmt(t), _fmt(ax), _fmt(ay), _fmt(az)])


def load_annotations_csv(path) -> list[CycleAnnotation]:
    """Cycle boundaries, header ``subject,session,recording,boundary``."""
    groups: dict[tuple[str, str, str], list[int]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ANNOTATION_HEADER:
            raise FormatError(f"{path}: expected header {','.join(ANNOTATION_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                boundary = int(row[3])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            groups.setdefault((row[0], row[1], row[2]), []).append(boundary)
    return [CycleAnnotation(s, sess, rec, np.asarray(b))
            for (s, sess, rec), b in groups.items()]


def export_features_csv(path, sources, vectors: np.ndarray) -> None:
    """Header ``subject,session,recording,frame,f0..f{D-1}``, one row per vector."""
    vectors = np.asarray(vectors)
    if vectors.ndim != 2 or len(sources) != vectors.shape[0]:
        raise InvalidInputError(
            f"need one source per vector: {len(sources)} sources, {vectors.shape} vectors")
    dim = vectors.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject", "session", "recording", "frame"]
                        + [f"f{i}" for i in range(dim)])
        for (subject, session, recording, frame), vec in zip(sources, vectors):
            writer.writerow([subject, session, recording, frame]
                            + [_fmt(v) for v in vec])


def load_features_csv(path):
    """Returns (sources, vectors): source tuples and an (N, D) float array."""
    sources: list[tuple[str, str, str, int]] = []
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if (header is None or len(header) < 5
                or header[:4] != ["subject", "session", "recording", "frame"]
                or any(h != f"f{i}" for i, h in enumerate(header[4:]))):
            raise FormatError(f"{path}: not a feature CSV")
        dim = len(header) - 4
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 4:
                raise FormatError(f"{path}:{lineno}: expected {dim + 4} fields, got {len(row)}")
            try:
                sources.append((row[0], row[1], row[2], int(row[3])))
                rows.append([float(v) for v in row[4:]])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    vectors = np.asarray(rows, dtype=np.float64).reshape(len(rows), dim)
    if not np.isfinite(vectors).all():
        raise FormatError(f"{path}:{_first_non_finite_line(path, 4)}: non-finite value")
    return sources, vectors
