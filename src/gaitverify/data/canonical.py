"""Canonical CSV formats: gait recordings and feature exports.

The recording format has header ``subject,session,recording,t,ax,ay,az``
with rows grouped by (subject, session, recording) and t in seconds,
strictly increasing within a recording. The feature format has header
``subject,session,recording,frame,f0..f{D-1}``, one row per vector and
no key on two rows. Floats are written with shortest-round-trip
formatting, so load(write(x)) is lossless; a writer builds the text of a
whole recording, or of a whole feature file, and writes it at once.

Files are UTF-8 whatever the locale; a loader given other bytes fails at
``path:line`` of the first byte that does not decode, and one that starts
with a byte-order mark fails at ``path:1``. Both loaders call one
tokenizer, which gives a key per data row, a float64 array of the other
fields and each row's line number. A plain file (LF line ends, no quotes,
CRs or blank lines) is read in chunks of ``CHUNK_BYTES``, each cut after
a line end and parsed by one ``np.loadtxt`` call, so besides the arrays
it returns the tokenizer holds a few chunks of text, not the file. Any
other file (CRLF ends, quoted fields, blank lines, no final newline), or
one with a wrong header, a bad key or a float ``np.loadtxt`` rejects, is
read again whole by ``csv.reader`` with Python's ``float`` and ``int``,
which alone raises: the first bad field count, key or float fails at
``path:line``, and a wrong header names the file alone. The nan/inf and
increasing-timestamp checks then run once on the arrays, at the kept
line numbers.
"""

from __future__ import annotations

import csv
import io
from itertools import groupby
from operator import itemgetter

import numpy as np

from ..errors import FormatError, InvalidInputError
from ..signal import RawRecording

RECORDING_HEADER = ["subject", "session", "recording", "t", "ax", "ay", "az"]
FEATURE_KEY = ["subject", "session", "recording", "frame"]
# bytes of a plain CSV file read and parsed at a time (plus the rest of a line)
CHUNK_BYTES = 1 << 20


def csv_line(fields) -> str:
    """``fields`` as csv.writer writes them, without the line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()[:-1]


def _float_rows(values: np.ndarray) -> list[str]:
    """Each row of a 2-D float array as comma-separated shortest-round-trip floats."""
    return [",".join(map(repr, row)) for row in values.tolist()]


def _read_text(path) -> str:
    """The UTF-8 text of a file, line ends untranslated; a byte-order mark fails at line 1."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{line}: not UTF-8 text") from None
    if text.startswith("\ufeff"):
        raise FormatError(f"{path}:1: starts with a UTF-8 byte-order mark")
    return text


def _csv_rows(path, text: str):
    """(line, row) of each csv.reader row of ``text``, ``line`` the one the row starts on.

    A quoted field may span lines, so a row's number is one past the last
    line of the row before it. A csv.Error (an over-long field) fails at
    path:line.
    """
    rows = csv.reader(io.StringIO(text, newline=""))
    try:
        start = 1
        for row in rows:
            yield start, row
            start = rows.line_num + 1
    except csv.Error as exc:
        raise FormatError(f"{path}:{rows.line_num}: {exc}") from None


def _line_chunks(fh):
    """The bytes of a binary file in pieces of about CHUNK_BYTES, each cut after a line end.

    A piece holds CHUNK_BYTES and the rest of the line they end in, so a
    line longer than CHUNK_BYTES is one piece; only the file's last piece
    can lack a final newline.
    """
    while data := fh.read(CHUNK_BYTES):
        if not data.endswith(b"\n"):
            data += fh.readline()
        yield data


def _plain_rows(path, header_error, n_key: int, key):
    """(keys, values, lines) of a plain file read in chunks, or None if it is not plain.

    Plain: UTF-8, LF line ends including the last, no quotes, CRs or blank
    lines, a good header, its field count on every line, keys that ``key``
    reads and floats that ``np.loadtxt`` reads. This only parses or
    defers: it raises nothing, and on anything else it returns None for
    ``_tokenize`` to read the whole file with csv.reader, which locates
    the error.
    """
    keys, blocks, width = [], [], None
    # a line that starts with the previous key's text has that key: runs of
    # rows share one key object and split no further
    prefix = "\n"
    with open(path, "rb") as fh:
        for data in _line_chunks(fh):
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError:
                return None
            del data
            if (not text.endswith("\n") or text[0] == "\n"
                    or "\r" in text or '"' in text or "\n\n" in text):
                return None
            lines = text.split("\n")
            lines.pop()
            first = width is None
            if first:
                header = lines[0].split(",")
                if header_error(header) is not None:
                    return None
                width = len(header)
            # the header's field count on every line: np.loadtxt rejects
            # short lines, and the comma count then rules out long ones
            if text.count(",") != (width - 1) * len(lines):
                return None
            del text
            if first:
                del lines[0]
                if not lines:
                    continue
            try:
                blocks.append(np.loadtxt(lines, dtype=np.float64, delimiter=",",
                                         comments=None, usecols=range(n_key, width), ndmin=2))
            except ValueError:
                return None  # a float only Python reads, or a bad one: csv.reader locates it
            for line in lines:
                if not line.startswith(prefix):
                    fields = line.split(",", n_key)
                    try:
                        row_key = key(fields)
                    except ValueError:
                        return None
                    prefix = line[:len(line) - len(fields[-1])]
                keys.append(row_key)
            del lines  # before the next piece is split
    if width is None:
        return None  # an empty file
    values = np.concatenate(blocks) if blocks else np.empty((0, width - n_key))
    del blocks  # before the line numbers are made
    return keys, values, np.arange(2, len(keys) + 2)


def _tokenize(path, header_error, n_key: int, key):
    """(keys, values, lines) of the data rows of a CSV file.

    ``header_error(fields)`` is None for a good header and the reason for a
    bad one. Each data row gives ``key(fields)``, which reads the first
    ``n_key`` fields, a row of ``values`` (N, header fields - n_key) from
    the float fields, and its line number; blank rows are skipped. A byte
    that is not UTF-8 fails first, at its line, wherever it is in the
    file; then a wrong header names the file, and the first bad field
    count, key or float fails at ``path:line``.
    """
    plain = _plain_rows(path, header_error, n_key, key)
    if plain is not None:
        return plain
    rows = _csv_rows(path, _read_text(path))
    header = next(rows, (1, None))[1]
    error = header_error(header)
    if error is not None:
        raise FormatError(f"{path}: {error}")
    width = len(header)
    keys, floats, lines = [], [], []
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != width:
            raise FormatError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        try:
            keys.append(key(row))
            floats.append([float(v) for v in row[n_key:]])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        lines.append(lineno)
    values = np.array(floats, dtype=np.float64).reshape(len(floats), width - n_key)
    return keys, values, np.array(lines, dtype=np.intp)


def _check_finite(path, values: np.ndarray, lines: np.ndarray, rows=slice(None)) -> None:
    """Fail at the file's first line with nan/inf if ``values[rows]`` holds one."""
    if not np.isfinite(values[rows]).all():
        first = np.argmin(np.isfinite(values).all(axis=1))
        raise FormatError(f"{path}:{lines[first]}: non-finite value")


def _recording_header_error(header) -> str | None:
    return None if header == RECORDING_HEADER else f"expected header {','.join(RECORDING_HEADER)}"


def load_canonical_csv(path) -> list[RawRecording]:
    """One RawRecording per (subject, session, recording) group, first-appearance order.

    A recording whose rows are one run of the file holds slices of the
    float table; only one split over several runs is copied out of it.
    """
    keys, values, lines = _tokenize(path, _recording_header_error, 3, itemgetter(0, 1, 2))
    # runs of consecutive rows with one key, then each key's runs in file order
    runs: dict[tuple[str, str, str], list[tuple[int, int]]] = {}
    start = 0
    for key, run in groupby(keys):
        stop = start + len(list(run))
        runs.setdefault(key, []).append((start, stop))
        start = stop
    recordings = []
    for key, parts in runs.items():
        rows = (slice(*parts[0]) if len(parts) == 1
                else np.concatenate([np.arange(*part) for part in parts]))
        _check_finite(path, values, lines, rows)
        timestamps = values[rows, 0]
        increasing = timestamps[1:] > timestamps[:-1]
        if not increasing.all():
            raise InvalidInputError(
                f"{path}:{lines[rows][np.argmin(increasing) + 1]}: non-monotonic "
                f"timestamps in recording ({', '.join(key)})")
        recordings.append(RawRecording(*key, timestamps, values[rows, 1:]))
    return recordings


def write_canonical_csv(recordings: list[RawRecording], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(RECORDING_HEADER) + "\n")
        for rec in recordings:
            prefix = csv_line(rec.key) + ","
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
        fh.write("".join([",".join(_feature_header(dim)) + "\n"]
                         + [csv_line(source) + sep + row + "\n"
                            for source, row in zip(sources, rows)]))


def _feature_header(dim: int) -> list[str]:
    return FEATURE_KEY + [f"f{i}" for i in range(dim)]


def _feature_header_error(header) -> str | None:
    if header is None or len(header) < 5 or header != _feature_header(len(header) - 4):
        return "not a feature CSV"
    return None


def load_features_csv(path):
    """Returns (sources, vectors): source tuples and an (N, D) float array.

    A row whose (subject, session, recording, frame) an earlier row has
    fails at its line, after the nan/inf check.
    """
    sources, vectors, lines = _tokenize(path, _feature_header_error, 4,
                                        lambda row: (row[0], row[1], row[2], int(row[3])))
    _check_finite(path, vectors, lines)
    first = {}
    for source, line in zip(sources, lines.tolist()):
        if first.setdefault(source, line) != line:
            raise FormatError(f"{path}:{line}: repeats the subject, session, recording "
                              f"and frame of line {first[source]}")
    return sources, vectors
