"""Canonical CSV formats: gait recordings and feature exports.

The recording format has header ``subject,session,recording,t,ax,ay,az``
with rows grouped by (subject, session, recording) and t in seconds,
strictly increasing within a recording. The feature format has header
``subject,session,recording,frame,f0..f{D-1}``, one row per vector.
Floats are written with shortest-round-trip formatting, so
load(write(x)) is lossless; a writer builds the text of a whole
recording, or of a whole feature file, and writes it at once.

Files are UTF-8 whatever the locale; a loader given other bytes fails at
``path:line`` of the first byte that does not decode. The loaders read a
plain file (exact header, LF line ends, no quotes, CRs or blank lines)
in one pass over its text: field counts are checked from the comma
count and the floats are parsed by one ``np.loadtxt``.
A file that pass does not accept is parsed again by a per-row csv
scanner. It reads the unusual but valid files (CRLF ends, quoted fields,
blank lines, no final newline) and fails at ``path:line`` on every
error: a bad field count, float or frame number, nan/inf, and
non-increasing timestamps. Only a wrong header names the file alone.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import groupby

import numpy as np

from ..errors import FormatError, InvalidInputError
from ..signal import RawRecording

RECORDING_HEADER = ["subject", "session", "recording", "t", "ax", "ay", "az"]
FEATURE_KEY = ["subject", "session", "recording", "frame"]


def _csv_line(fields) -> str:
    """``fields`` as csv.writer writes them, without the line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()[:-1]


def _float_rows(values: np.ndarray) -> list[str]:
    """Each row of a 2-D float array as comma-separated shortest-round-trip floats."""
    return [",".join(map(repr, row)) for row in values.tolist()]


def _read_text(path) -> str:
    """The UTF-8 text of a file, line ends untranslated."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{line}: not UTF-8 text") from None


def _read_plain(text: str, first_float: int):
    """(header fields, data lines, floats) of a file text that needs no csv parsing.

    ``floats`` holds fields ``first_float`` onwards of every data line,
    (N, header fields - first_float). None when the file has CR or quote
    characters, blank lines or no final newline, when a line has another
    field count than the header (np.loadtxt rejects short lines; then the
    total comma count rules out long ones), or when a float is bad or not
    finite.
    """
    if not text.endswith("\n") or "\r" in text or '"' in text or "\n\n" in text:
        return None
    header, *lines = text[:-1].split("\n")
    header = header.split(",")
    if text.count(",") != (len(header) - 1) * (len(lines) + 1):
        return None
    if not lines:
        return header, lines, np.empty((0, len(header) - first_float))
    try:
        values = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None,
                            usecols=range(first_float, len(header)), ndmin=2)
    except ValueError:
        return None
    if values.shape[0] != len(lines) or not np.isfinite(values).all():
        return None
    return header, lines, values


def load_canonical_csv(path) -> list[RawRecording]:
    """One RawRecording per (subject, session, recording) group, first-appearance order."""
    text = _read_text(path)
    recordings = _load_plain_canonical(text)
    return _scan_canonical(path, text) if recordings is None else recordings


def _load_plain_canonical(text: str) -> list[RawRecording] | None:
    plain = _read_plain(text, 3)
    if plain is None or plain[0] != RECORDING_HEADER:
        return None
    _, lines, values = plain
    # runs of consecutive rows with one key, then each key's runs in file order
    runs: dict[str, list[np.ndarray]] = {}
    start = 0
    for key, rows in groupby(line.rsplit(",", 4)[0] for line in lines):
        stop = start + len(list(rows))
        runs.setdefault(key, []).append(np.arange(start, stop))
        start = stop
    recordings = []
    for key, parts in runs.items():
        rows = np.concatenate(parts)
        try:
            recordings.append(RawRecording(*key.split(","), values[rows, 0], values[rows, 1:]))
        except InvalidInputError:
            return None  # non-increasing timestamps: the scanner names the line
    return recordings


def _scan_canonical(path, text: str) -> list[RawRecording]:
    groups: dict[tuple[str, str, str], tuple[list, list, list]] = {}
    non_finite_line = None
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != RECORDING_HEADER:
            raise FormatError(f"{path}: expected header {','.join(RECORDING_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 7:
                raise FormatError(f"{path}:{lineno}: expected 7 fields, got {len(row)}")
            try:
                floats = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            if non_finite_line is None and not all(map(math.isfinite, floats)):
                non_finite_line = lineno
            linenos, ts, xs = groups.setdefault((row[0], row[1], row[2]), ([], [], []))
            linenos.append(lineno)
            ts.append(floats[0])
            xs.append(floats[1:])
    recordings = []
    for (subject, session, recording), (linenos, ts, xs) in groups.items():
        t_arr, x_arr = np.asarray(ts), np.asarray(xs)
        if not (np.isfinite(t_arr).all() and np.isfinite(x_arr).all()):
            raise FormatError(f"{path}:{non_finite_line}: non-finite value")
        increasing = np.diff(t_arr) > 0
        if not increasing.all():
            raise InvalidInputError(
                f"{path}:{linenos[int(np.argmin(increasing)) + 1]}: non-monotonic "
                f"timestamps in recording ({subject}, {session}, {recording})")
        recordings.append(RawRecording(subject, session, recording, t_arr, x_arr))
    return recordings


def write_canonical_csv(recordings: list[RawRecording], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(RECORDING_HEADER) + "\n")
        for rec in recordings:
            prefix = _csv_line(rec.key) + ","
            rows = _float_rows(np.column_stack([rec.timestamps, rec.samples]))
            fh.write(prefix + ("\n" + prefix).join(rows) + "\n")


def export_features_csv(path, sources, vectors: np.ndarray) -> None:
    """Header ``subject,session,recording,frame,f0..f{D-1}``, one row per vector."""
    vectors = np.asarray(vectors)
    if vectors.ndim != 2 or len(sources) != vectors.shape[0]:
        raise InvalidInputError(
            f"need one source per vector: {len(sources)} sources, {vectors.shape} vectors")
    dim = vectors.shape[1]
    sep = "," if dim else ""
    rows = _float_rows(vectors.astype(np.float64, copy=False))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join([",".join(FEATURE_KEY + [f"f{i}" for i in range(dim)]) + "\n"]
                         + [_csv_line(source) + sep + row + "\n"
                            for source, row in zip(sources, rows)]))


def load_features_csv(path):
    """Returns (sources, vectors): source tuples and an (N, D) float array."""
    text = _read_text(path)
    features = _load_plain_features(text)
    return _scan_features(path, text) if features is None else features


def _feature_dim(header) -> int | None:
    """D of a feature header given as a field list; None if it is not one."""
    if (header is None or len(header) < 5 or header[:4] != FEATURE_KEY
            or any(h != f"f{i}" for i, h in enumerate(header[4:]))):
        return None
    return len(header) - 4


def _load_plain_features(text: str):
    plain = _read_plain(text, 4)
    if plain is None or _feature_dim(plain[0]) is None:
        return None
    _, lines, vectors = plain
    try:
        sources = [(s, sess, rec, int(frame))
                   for s, sess, rec, frame, _ in (line.split(",", 4) for line in lines)]
    except ValueError:
        return None
    return sources, vectors


def _scan_features(path, text: str):
    sources: list[tuple[str, str, str, int]] = []
    rows: list[list[float]] = []
    non_finite_line = None
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        dim = _feature_dim(next(reader, None))
        if dim is None:
            raise FormatError(f"{path}: not a feature CSV")
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
            if non_finite_line is None and not all(map(math.isfinite, rows[-1])):
                non_finite_line = lineno
    if non_finite_line is not None:
        raise FormatError(f"{path}:{non_finite_line}: non-finite value")
    return sources, np.asarray(rows, dtype=np.float64).reshape(len(rows), dim)
