import csv
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from gaitverify.data import canonical
from gaitverify.data.canonical import (
    RECORDING_HEADER,
    export_features_csv,
    load_canonical_csv,
    load_features_csv,
    write_canonical_csv,
)
from gaitverify.data.container import MAGIC, ModelContainer, load_model, save_model
from gaitverify.data.synthetic import (
    SyntheticConfig,
    _draw_subject,
    _drifted,
    generate_synthetic,
)
from gaitverify.errors import FormatError, InvalidInputError
from gaitverify.signal import RawRecording, segment_frames


class TestCanonicalCsv:
    def test_minimal_two_row_file(self, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text("subject,session,recording,t,ax,ay,az\n"
                        "s01,1,r1,0.0,1.0,2.0,3.0\n"
                        "s01,1,r1,0.01,4.0,5.0,6.0\n")
        recs = load_canonical_csv(path)
        assert len(recs) == 1
        assert len(recs[0]) == 2
        npt.assert_array_equal(recs[0].samples[1], [4.0, 5.0, 6.0])

    def test_two_subjects_stable_order(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("subject,session,recording,t,ax,ay,az\n"
                        "s02,1,r1,0.0,1,1,1\n"
                        "s01,1,r1,0.0,2,2,2\n"
                        "s02,1,r1,0.01,1,1,1\n")
        recs = load_canonical_csv(path)
        assert [r.subject_id for r in recs] == ["s02", "s01"]

    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        recs = [RawRecording("s01", "1", "r1", np.arange(50) / 100.0,
                             rng.standard_normal((50, 3))),
                RawRecording("s01", "2", "r1", np.arange(30) / 100.0,
                             rng.standard_normal((30, 3)))]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_canonical_csv(recs, first)
        write_canonical_csv(load_canonical_csv(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject,session,recording,t,ax,ay,az\n"
                        "s01,1,r1,0.0,1.0,2.0,3.0\n"
                        "s01,1,r1,oops,1.0,2.0,3.0\n")
        with pytest.raises(FormatError, match=":3"):
            load_canonical_csv(path)

    def test_non_monotonic_names_recording(self, tmp_path):
        path = tmp_path / "nm.csv"
        path.write_text("subject,session,recording,t,ax,ay,az\n"
                        "s01,1,r9,0.02,1,1,1\n"
                        "s01,1,r9,0.03,1,1,1\n"
                        "s01,1,r9,0.01,1,1,1\n")
        with pytest.raises(InvalidInputError) as err:
            load_canonical_csv(path)
        assert str(err.value) == f"{path}:4: non-monotonic timestamps in recording (s01, 1, r9)"

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(FormatError):
            load_canonical_csv(path)


class TestSyntheticGenerator:
    def test_same_seed_identical(self):
        config = SyntheticConfig(num_subjects=3, recording_seconds=5.0, seed=11,
                                 cross_day_drift=0.2)
        a = generate_synthetic(config)
        b = generate_synthetic(config)
        assert len(a) == len(b) == 3 * 2
        for ra, rb in zip(a, b):
            assert ra.key == rb.key
            npt.assert_array_equal(ra.samples, rb.samples)

    def test_zero_drift_keeps_subject_parameters(self):
        rng = np.random.default_rng(0)
        base = _draw_subject(rng)
        same = _drifted(base, 0.0, rng)
        npt.assert_array_equal(same.amplitudes, base.amplitudes)
        npt.assert_array_equal(same.phases, base.phases)
        moved = _drifted(base, 0.3, np.random.default_rng(1))
        assert np.any(moved.amplitudes != base.amplitudes)

    def test_sixty_seconds_gives_46_frames(self):
        config = SyntheticConfig(num_subjects=10, recording_seconds=60.0, sessions=1, seed=7)
        recs = generate_synthetic(config)
        assert len(recs) == 10
        for rec in recs:
            assert len(rec) == 6000
            assert len(segment_frames(rec)) == 46  # floor(6000/128)

    def test_subjects_separable_by_dominant_peak(self):
        config = SyntheticConfig(num_subjects=8, recording_seconds=40.0, sessions=1, seed=3)
        recs = generate_synthetic(config)
        freqs = np.fft.rfftfreq(4000, d=0.01)

        def dominant(rec):
            spectrum = np.abs(np.fft.rfft(rec.samples[:, 0]))
            spectrum[0] = 0.0
            return freqs[np.argmax(spectrum)]

        peaks = [dominant(r) for r in recs]
        resolution = freqs[1] - freqs[0]
        for i in range(len(peaks)):
            for j in range(i + 1, len(peaks)):
                # subjects whose fundamentals are resolvable must disagree
                if abs(peaks[i] - peaks[j]) > 2 * resolution:
                    assert peaks[i] != peaks[j]
        assert len({round(p, 3) for p in peaks}) >= 5

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SyntheticConfig(num_subjects=0, recording_seconds=10.0)
        with pytest.raises(InvalidInputError):
            SyntheticConfig(num_subjects=1, recording_seconds=10.0, sessions=3)
        with pytest.raises(InvalidInputError):
            SyntheticConfig(num_subjects=1, recording_seconds=10.0, cross_day_drift=1.5)


class TestModelContainer:
    def test_empty_round_trip(self, tmp_path):
        c = ModelContainer(metadata={"arch": "test"})
        path = tmp_path / "empty.gvf"
        save_model(c, path)
        assert load_model(path) == c

    def test_tensor_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        c = ModelContainer(metadata={"arch": "x", "note": "abc"})
        c.add("w", rng.standard_normal((4, 5, 6)).astype(np.float32))
        c.add("b", rng.standard_normal(7).astype(np.float32))
        path = tmp_path / "t.gvf"
        save_model(c, path)
        loaded = load_model(path)
        assert loaded == c
        assert loaded.get("w").tobytes() == c.get("w").tobytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.gvf"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_model(path)

    def test_version_mismatch_explicit(self, tmp_path):
        path = tmp_path / "v9.gvf"
        path.write_bytes(MAGIC + (9).to_bytes(4, "little") + b"\x00" * 8)
        with pytest.raises(FormatError, match="version 9"):
            load_model(path)

    def test_truncated_payload(self, tmp_path):
        c = ModelContainer()
        c.add("w", np.ones((8, 8), dtype=np.float32))
        path = tmp_path / "trunc.gvf"
        save_model(c, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError, match="trunc.gvf: container truncated"):
            load_model(path)

    def test_invalid_utf8_metadata_key(self, tmp_path):
        path = tmp_path / "key.gvf"
        save_model(ModelContainer(metadata={"arch": "x"}), path)
        raw = path.read_bytes()
        # magic, version, n_meta, key_len, then the key "arch" at byte 16
        path.write_bytes(raw[:16] + b"\xff\xfe" + raw[18:])
        with pytest.raises(FormatError, match="key.gvf: string at byte 12 is not valid UTF-8"):
            load_model(path)

    def test_duplicate_name_rejected(self):
        c = ModelContainer()
        c.add("w", np.ones(2, dtype=np.float32))
        with pytest.raises(InvalidInputError):
            c.add("w", np.ones(2, dtype=np.float32))


class TestFeaturesCsv:
    def test_single_vector_two_lines(self, tmp_path):
        path = tmp_path / "f.csv"
        export_features_csv(path, [("s01", "1", "r1", 0)], np.zeros((1, 128)))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].split(",")[:4] == ["subject", "session", "recording", "frame"]
        assert len(lines[0].split(",")) == 4 + 128

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        vectors = rng.standard_normal((5, 16)).astype(np.float32).astype(np.float64)
        sources = [("s01", "1", "r1", i) for i in range(5)]
        path = tmp_path / "f.csv"
        export_features_csv(path, sources, vectors)
        loaded_sources, loaded = load_features_csv(path)
        assert loaded_sources == sources
        npt.assert_array_equal(loaded, vectors)

    def test_raw_dimension_384(self, tmp_path):
        path = tmp_path / "raw.csv"
        export_features_csv(path, [("s", "1", "r", 0)], np.zeros((1, 384)))
        header = path.read_text().splitlines()[0]
        assert len(header.split(",")) == 4 + 384


# --- per-row oracles ----------------------------------------------------
# The csv-module reader and writer that canonical.py's whole-array paths
# replaced, kept as the reference: for every file the loaders must return
# what these return or raise what these raise, and the writers must write
# the same bytes. Ordering errors name their line, as the loaders do.

def _fmt(x):
    return repr(float(x))


def _first_non_finite_line(path, first_float):
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if lineno > 1 and row and not all(math.isfinite(float(v)) for v in row[first_float:]):
                return lineno
    raise AssertionError(f"{path}: no non-finite field")


def oracle_load_canonical(path):
    groups = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != RECORDING_HEADER:
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
            lines, ts, xs = groups.setdefault((row[0], row[1], row[2]), ([], [], []))
            lines.append(lineno)
            ts.append(t)
            xs.append(acc)
    recordings = []
    for (subject, session, recording), (lines, ts, xs) in groups.items():
        t_arr, x_arr = np.asarray(ts), np.asarray(xs)
        if not (np.isfinite(t_arr).all() and np.isfinite(x_arr).all()):
            raise FormatError(f"{path}:{_first_non_finite_line(path, 3)}: non-finite value")
        steps = np.diff(t_arr)
        if np.any(steps <= 0):
            line = lines[np.flatnonzero(steps <= 0)[0] + 1]
            raise InvalidInputError(f"{path}:{line}: non-monotonic timestamps in recording "
                                    f"({subject}, {session}, {recording})")
        recordings.append(RawRecording(subject, session, recording, t_arr, x_arr))
    return recordings


def oracle_write_canonical(recordings, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORDING_HEADER)
        for rec in recordings:
            for t, (ax, ay, az) in zip(rec.timestamps, rec.samples):
                writer.writerow([rec.subject_id, rec.session_id, rec.recording_id,
                                 _fmt(t), _fmt(ax), _fmt(ay), _fmt(az)])


def oracle_export_features(path, sources, vectors):
    dim = vectors.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject", "session", "recording", "frame"]
                        + [f"f{i}" for i in range(dim)])
        for (subject, session, recording, frame), vec in zip(sources, vectors):
            writer.writerow([subject, session, recording, frame] + [_fmt(v) for v in vec])


def oracle_load_features(path):
    sources, rows = [], []
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


def outcome(load, path):
    """What a loader returns, as comparable values, or the type and text of its error."""
    try:
        result = load(path)
    except Exception as exc:  # the oracle and the loader must fail alike
        return type(exc), str(exc)
    if isinstance(result, list):
        return [(r.key, r.timestamps.dtype, r.timestamps.tobytes(), r.samples.shape,
                 r.samples.tobytes()) for r in result]
    sources, vectors = result
    return sources, vectors.dtype, vectors.shape, vectors.tobytes()


CANONICAL_HEADER = "subject,session,recording,t,ax,ay,az\n"
GOOD_ROWS = ["s01,1,r1,0.0,1.5,-2.0,3.0", "s01,1,r1,0.01,4.0,5e-07,6.0",
             "s02,2,r1,0.0,7.0,8.0,9.0", "s02,2,r1,0.01,1.0,1.0,1.0"]


def rows_text(rows, end="\n"):
    return "".join(row + end for row in rows)


CANONICAL_CASES = {
    "plain": CANONICAL_HEADER + rows_text(GOOD_ROWS),
    "crlf": rows_text([CANONICAL_HEADER.strip()] + GOOD_ROWS, "\r\n"),
    "blank_lines": CANONICAL_HEADER + "\n" + rows_text(GOOD_ROWS[:2]) + "\n\n"
    + rows_text(GOOD_ROWS[2:]) + "\n",
    "no_final_newline": CANONICAL_HEADER + rows_text(GOOD_ROWS)[:-1],
    "quoted": CANONICAL_HEADER + '"s,01",1,r1,0.0,1,2,3\n"s,01","1",r1,"0.5",1,2,3\n',
    "non_contiguous": CANONICAL_HEADER + rows_text(
        [GOOD_ROWS[0], GOOD_ROWS[2], GOOD_ROWS[1], GOOD_ROWS[3], "s01,1,r1,0.02,0,0,0"]),
    "short_row": CANONICAL_HEADER + rows_text(GOOD_ROWS[:3] + ["s02,2,r1,0.01,1.0,1.0"]),
    "long_row": CANONICAL_HEADER + rows_text(GOOD_ROWS[:3] + ["s02,2,r1,0.01,1,1,1,1"]),
    "long_and_short_row": CANONICAL_HEADER + rows_text(
        ["s01,1,r1,0.0,1,1,1,1", "s01,1,r1,0.01,1,1"]),
    "bad_float": CANONICAL_HEADER + rows_text(GOOD_ROWS[:3] + ["s02,2,r1,oops,1,1,1"]),
    "empty_float": CANONICAL_HEADER + rows_text(GOOD_ROWS[:3] + ["s02,2,r1,0.5,,1,1"]),
    "python_only_floats": CANONICAL_HEADER + rows_text(["s01,1,r1,0.0,1_0, 2 ,+3",
                                                        "s01,1,r1,1e-2,٣,2,3"]),
    "nan": CANONICAL_HEADER + rows_text(GOOD_ROWS[:3] + ["s02,2,r1,0.01,nan,1,1"]),
    "inf": CANONICAL_HEADER + rows_text(GOOD_ROWS[:1] + ["s01,1,r1,inf,1,1,1"] + GOOD_ROWS[2:]),
    "-inf": CANONICAL_HEADER + rows_text(GOOD_ROWS[:3] + ["s02,2,r1,0.01,1,-inf,1"]),
    "non_monotonic_group_before_nan_group": CANONICAL_HEADER + rows_text(
        ["s01,1,r1,0.0,1,1,1", "s02,1,r1,0.0,1,1,nan", "s01,1,r1,0.0,1,1,1"]),
    "non_monotonic": CANONICAL_HEADER + rows_text(
        GOOD_ROWS + ["s02,2,r1,0.03,1,1,1", "s02,2,r1,0.02,1,1,1"]),
    "repeated_t_non_contiguous": CANONICAL_HEADER + rows_text(
        GOOD_ROWS + ["s01,1,r1,0.01,0,0,0"]),
    "header_only": CANONICAL_HEADER,
    "wrong_header": "subject,session,recording,time,ax,ay,az\n" + rows_text(GOOD_ROWS),
    "empty_file": "",
    "whitespace_line": CANONICAL_HEADER + rows_text(GOOD_ROWS[:2] + ["   "] + GOOD_ROWS[2:]),
    # the long row's extra commas make up for the blank line's missing ones
    "blank_line_and_long_row": CANONICAL_HEADER + rows_text(
        GOOD_ROWS[:2] + ["", "s02,2,r1,0.0,1,1,1,1,1,1,1,1,1"] + GOOD_ROWS[3:]),
}

FEATURE_HEADER = "subject,session,recording,frame,f0,f1,f2\n"
GOOD_FEATURES = ["s01,1,r1,0,0.5,-1.25,3e-08", "s01,1,r1,1,0.1,0.2,0.30000000000000004",
                 "s02,2,r1,0,1.0,2.0,3.0"]

FEATURE_CASES = {
    "plain": FEATURE_HEADER + rows_text(GOOD_FEATURES),
    "crlf": rows_text([FEATURE_HEADER.strip()] + GOOD_FEATURES, "\r\n"),
    "blank_lines": FEATURE_HEADER + rows_text(GOOD_FEATURES[:1]) + "\n" + rows_text(
        GOOD_FEATURES[1:]) + "\n",
    "no_final_newline": FEATURE_HEADER + rows_text(GOOD_FEATURES)[:-1],
    "quoted": FEATURE_HEADER + '"s,01",1,r1,0,1,2,3\n"s01","1",r1,"7","4",5,6\n',
    "non_contiguous": FEATURE_HEADER + rows_text(
        [GOOD_FEATURES[0], GOOD_FEATURES[2], GOOD_FEATURES[1]]),
    "short_row": FEATURE_HEADER + rows_text(GOOD_FEATURES + ["s02,2,r1,1,1.0,2.0"]),
    "long_row": FEATURE_HEADER + rows_text(GOOD_FEATURES + ["s02,2,r1,1,1.0,2.0,3.0,4.0"]),
    "bad_float": FEATURE_HEADER + rows_text(GOOD_FEATURES + ["s02,2,r1,1,1.0,x,3.0"]),
    "nan": FEATURE_HEADER + rows_text(GOOD_FEATURES[:1] + ["s01,1,r1,1,nan,1,1"]),
    "inf": FEATURE_HEADER + rows_text(GOOD_FEATURES + ["s02,2,r1,1,1,1,inf"]),
    "-inf": FEATURE_HEADER + rows_text(["s01,1,r1,1,-inf,1,1"] + GOOD_FEATURES),
    "frame_not_integer": FEATURE_HEADER + rows_text(GOOD_FEATURES + ["s02,2,r1,1.5,1,1,1"]),
    "frame_python_int": FEATURE_HEADER + rows_text(GOOD_FEATURES + ["s02,2,r1, +1_0 ,1,1,1"]),
    "bad_frame_before_non_finite": FEATURE_HEADER + rows_text(
        ["s01,1,r1,0,nan,1,1", "s01,1,r1,x,1,1,1"]),
    "header_only": FEATURE_HEADER,
    "wrong_header": "subject,session,recording,frame,f1,f2\n" + rows_text(GOOD_FEATURES),
    "key_only_header": "subject,session,recording,frame\ns01,1,r1,0\n",
    "empty_file": "",
}


BAD_FLOATS = ["oops", "", "1.0.0", "1e", "--1", " 2 ", "1_0", "\u0663", "0x10", "1,5", "1e400",
              "+.5", "5.", "infinity", "1d3", "0b1"]
BAD_FRAMES = ["1.5", "x", "", " +1_0 ", "-3", "1e3", "\u0663", "0x1", "00", "9" * 30]
NON_FINITE = ["nan", "inf", "-inf", "NaN", "-Infinity", "+nan"]


def mutate(rng, text, n_key):
    """``text`` with one to three seeded changes to its fields or line ends."""
    header, *rows = [line.split(",") for line in text.splitlines()]
    end, blank_at, final_newline = "\n", None, True
    for kind in rng.choice(["crlf", "quote_key", "blank_line", "no_final_newline",
                            "corrupt_float", "corrupt_frame", "non_finite", "swap_t"],
                           size=rng.integers(1, 4)):
        row = rows[rng.integers(len(rows))]
        if kind == "crlf":
            end = "\r\n"
        elif kind == "quote_key":
            i = rng.integers(n_key)
            row[i] = '"' + row[i] + (',x"' if rng.random() < 0.3 else '"')
        elif kind == "blank_line":
            blank_at = rng.integers(len(rows) + 1)
        elif kind == "no_final_newline":
            final_newline = False
        elif kind == "corrupt_float":
            row[rng.integers(n_key, len(row))] = str(rng.choice(BAD_FLOATS))
        elif kind == "corrupt_frame" and n_key == 4:
            row[3] = str(rng.choice(BAD_FRAMES))
        elif kind == "non_finite":
            row[rng.integers(n_key, len(row))] = str(rng.choice(NON_FINITE))
        elif kind == "swap_t":
            other = rows[rng.integers(len(rows))]
            row[n_key], other[n_key] = other[n_key], row[n_key]
    lines = [",".join(fields) for fields in [header] + rows]
    if blank_at is not None:
        lines.insert(blank_at + 1, "")
    return end.join(lines) + (end if final_newline else "")


class TestFastPathParity:
    @pytest.mark.parametrize("case", sorted(CANONICAL_CASES))
    def test_canonical_load_matches_oracle(self, tmp_path, case):
        path = tmp_path / "gait.csv"
        path.write_bytes(CANONICAL_CASES[case].encode())
        assert outcome(load_canonical_csv, path) == outcome(oracle_load_canonical, path)

    @pytest.mark.parametrize("case", sorted(FEATURE_CASES))
    def test_features_load_matches_oracle(self, tmp_path, case):
        path = tmp_path / "features.csv"
        path.write_bytes(FEATURE_CASES[case].encode())
        assert outcome(load_features_csv, path) == outcome(oracle_load_features, path)

    def test_plain_files_never_reach_the_scanner(self, tmp_path, monkeypatch):
        # nan/inf, ordering and frame errors are located on the arrays of
        # the one np.loadtxt pass, without parsing the file again
        cases = [(CANONICAL_CASES, name, load_canonical_csv, oracle_load_canonical)
                 for name in ("plain", "header_only", "wrong_header", "non_contiguous", "nan",
                              "inf", "-inf", "non_monotonic", "repeated_t_non_contiguous",
                              "non_monotonic_group_before_nan_group")]
        cases += [(FEATURE_CASES, name, load_features_csv, oracle_load_features)
                  for name in ("plain", "header_only", "wrong_header", "key_only_header",
                               "non_contiguous", "nan", "inf", "-inf", "frame_not_integer",
                               "frame_python_int", "bad_frame_before_non_finite")]
        expected = []
        for i, (texts, name, _, oracle) in enumerate(cases):
            path = tmp_path / f"{i}.csv"
            path.write_bytes(texts[name].encode())
            expected.append(outcome(oracle, path))

        def reader(*args, **kwargs):
            raise AssertionError("a plain file reached csv.reader")

        monkeypatch.setattr(canonical.csv, "reader", reader)
        for i, (_, name, load, _) in enumerate(cases):
            assert outcome(load, tmp_path / f"{i}.csv") == expected[i], name

    def test_quoted_features_name_a_bad_frame_before_a_later_bad_float(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text(FEATURE_HEADER + '"s01",1,r1,0,1,2,3\n"s01",1,r1,x,1,2,3\n'
                        '"s01",1,r1,2,1,oops,3\n')
        assert outcome(load_features_csv, path) == outcome(oracle_load_features, path)
        with pytest.raises(FormatError, match=r"features\.csv:3: invalid literal for int"):
            load_features_csv(path)

    @pytest.mark.parametrize("load, oracle, base, n_key", [
        (load_canonical_csv, oracle_load_canonical, CANONICAL_CASES["plain"], 3),
        (load_features_csv, oracle_load_features, FEATURE_CASES["plain"], 4),
    ], ids=["canonical", "features"])
    def test_mutated_files_match_oracle(self, tmp_path, load, oracle, base, n_key):
        # seeded mutations of the plain case, one to three per file: each
        # loader must accept, return and reject exactly what the oracle does
        rng = np.random.default_rng(0)
        path = tmp_path / "mutated.csv"
        for _ in range(200):
            text = mutate(rng, base, n_key)
            path.write_bytes(text.encode())
            assert outcome(load, path) == outcome(oracle, path), repr(text)

    # the evaluation populations of the benchmark's fcn-cd, ae-sd and
    # raw-matrix workloads, and their shared training population
    @pytest.mark.parametrize("subjects, seconds, sessions, drift", [
        (8, 30.0, 1, 0.0), (30, 20.0, 2, 0.3), (30, 40.0, 1, 0.0), (40, 20.0, 2, 0.3)])
    def test_canonical_write_matches_oracle_bytes(self, tmp_path, subjects, seconds,
                                                  sessions, drift):
        recs = generate_synthetic(SyntheticConfig(
            num_subjects=subjects, recording_seconds=seconds, sessions=sessions,
            cross_day_drift=drift, seed=subjects))
        ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
        write_canonical_csv(recs, ours)
        oracle_write_canonical(recs, oracle)
        assert ours.read_bytes() == oracle.read_bytes()
        assert outcome(load_canonical_csv, ours) == outcome(oracle_load_canonical, oracle)

    def test_canonical_write_quotes_keys_like_csv(self, tmp_path):
        recs = [RawRecording('s,"1"', "1", "r 1", [0.0, 0.01], np.ones((2, 3))),
                RawRecording("s2", "", "r\n2", [1e-300, 2.5e300], -np.ones((2, 3)) / 3)]
        ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
        write_canonical_csv(recs, ours)
        oracle_write_canonical(recs, oracle)
        assert ours.read_bytes() == oracle.read_bytes()
        assert outcome(load_canonical_csv, ours) == outcome(oracle_load_canonical, oracle)

    @pytest.mark.parametrize("dtype, dim", [(np.float32, 128), (np.float64, 128),
                                            (np.float64, 384), (np.int64, 3)])
    def test_features_write_matches_oracle_bytes(self, tmp_path, dtype, dim):
        rng = np.random.default_rng(dim)
        vectors = (rng.standard_normal((930, dim)) * 10.0 ** rng.integers(-8, 8, (930, dim)))
        vectors = vectors.astype(dtype)
        sources = [(f"s{i % 31:02d}", "1", "r,1" if i % 7 == 0 else "r1", i)
                   for i in range(930)]
        ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
        export_features_csv(ours, sources, vectors)
        oracle_export_features(oracle, sources, vectors)
        assert ours.read_bytes() == oracle.read_bytes()
        assert outcome(load_features_csv, ours) == outcome(oracle_load_features, oracle)

    def test_features_write_with_no_rows(self, tmp_path):
        ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
        export_features_csv(ours, [], np.empty((0, 5)))
        oracle_export_features(oracle, [], np.empty((0, 5)))
        assert ours.read_bytes() == oracle.read_bytes()


@pytest.fixture(params=[1, 7, 64], ids=lambda n: f"chunk{n}")
def small_chunks(request, monkeypatch):
    monkeypatch.setattr(canonical, "CHUNK_BYTES", request.param)


@pytest.mark.usefixtures("small_chunks")
class TestCanonicalCsvInSmallChunks(TestCanonicalCsv):
    pass


@pytest.mark.usefixtures("small_chunks")
class TestFeaturesCsvInSmallChunks(TestFeaturesCsv):
    pass


@pytest.mark.usefixtures("small_chunks")
class TestFastPathParityInSmallChunks(TestFastPathParity):
    # lines of 60-75 bytes make one np.loadtxt call per row: the smallest
    # population covers what the larger ones would at 24,000 rows
    @pytest.mark.parametrize("subjects, seconds, sessions, drift", [(8, 30.0, 1, 0.0)])
    def test_canonical_write_matches_oracle_bytes(self, tmp_path, subjects, seconds,
                                                  sessions, drift):
        super().test_canonical_write_matches_oracle_bytes(tmp_path, subjects, seconds,
                                                          sessions, drift)


def line_chunks(path):
    with open(path, "rb") as fh:
        return list(canonical._line_chunks(fh))


class TestChunkedLoad:
    @pytest.mark.parametrize("chunk_bytes", [1, 7, 64, 1 << 20])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_pieces_are_the_file_cut_after_line_ends(self, tmp_path, monkeypatch,
                                                     chunk_bytes, final_newline):
        monkeypatch.setattr(canonical, "CHUNK_BYTES", chunk_bytes)
        text = FEATURE_CASES["plain"].encode()
        path = tmp_path / "f.csv"
        path.write_bytes(text if final_newline else text[:-1])
        pieces = line_chunks(path)
        assert b"".join(pieces) == path.read_bytes()
        assert all(piece.endswith(b"\n") for piece in pieces[:-1])
        assert pieces[-1].endswith(b"\n") == final_newline
        longest = max(len(line) + 1 for line in text.split(b"\n"))
        assert all(len(piece) < chunk_bytes + longest for piece in pieces)

    # the read ends one byte before, at, or one byte after the blank line's
    # "\n": the next piece starts with it, or this one ends with two. The
    # long row's extra commas make up for the blank line's missing ones
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @pytest.mark.parametrize("tail", [
        GOOD_ROWS[2:], ["s02,2,r1,0.0,1,1,1", "s02,2,r1,oops,1,1,1"],
        ["s02,2,r1,0.0,1,1,1,1,1,1,1,1,1", "s02,2,r1,0.01,1,1,1"],
    ], ids=["good", "bad_float", "long_row"])
    def test_blank_line_on_a_chunk_boundary(self, tmp_path, monkeypatch, shift, tail):
        head = CANONICAL_HEADER + rows_text(GOOD_ROWS[:2])
        path = tmp_path / "gait.csv"
        path.write_bytes((head + "\n" + rows_text(tail)).encode())
        monkeypatch.setattr(canonical, "CHUNK_BYTES", len(head) + shift)
        first, second = line_chunks(path)[:2]
        if shift < 1:
            assert first == head.encode() and second.startswith(b"\n")
        else:
            assert first == (head + "\n").encode()
        assert outcome(load_canonical_csv, path) == outcome(oracle_load_canonical, path)

    def test_line_longer_than_a_chunk_is_one_piece(self, tmp_path, monkeypatch):
        long_float = "0." + "0" * 200 + "1"
        path = tmp_path / "gait.csv"
        path.write_bytes((CANONICAL_HEADER + rows_text(
            GOOD_ROWS[:1] + [f"s01,1,r1,0.01,{long_float},1,1"] + GOOD_ROWS[2:])).encode())
        monkeypatch.setattr(canonical, "CHUNK_BYTES", 16)
        assert any(len(piece) > 200 for piece in line_chunks(path))
        expected = outcome(oracle_load_canonical, path)

        def reader(*args, **kwargs):
            raise AssertionError("a plain file reached csv.reader")

        monkeypatch.setattr(canonical.csv, "reader", reader)
        assert outcome(load_canonical_csv, path) == expected
        assert load_canonical_csv(path)[0].samples[1, 0] == 1e-201

    @pytest.mark.parametrize("text, load", [
        (CANONICAL_CASES["wrong_header"], load_canonical_csv),
        (FEATURE_CASES["frame_not_integer"], load_features_csv),
    ], ids=["wrong_header", "bad_frame"])
    def test_a_later_byte_that_is_not_utf8_fails_first(self, tmp_path, monkeypatch, text, load):
        # as when the file was decoded whole before any field was read
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode() + b"s09,1,r\xff,0,1,1,1\n")
        monkeypatch.setattr(canonical, "CHUNK_BYTES", 1)
        line = text.count("\n") + 1
        with pytest.raises(FormatError) as exc:
            load(path)
        assert str(exc.value) == f"{path}:{line}: not UTF-8 text"

    @pytest.mark.parametrize("chunk_bytes", [1 << 16, None], ids=["64KiB", "default"])
    def test_load_holds_the_text_a_chunk_at_a_time(self, tmp_path, monkeypatch, chunk_bytes):
        # 120,000 rows, 8.9 MB: the whole-file read peaked at about 8.7
        # times the result. The float64 table the rows parse into, its keys,
        # line numbers and row indices hold about 1.75 times the result and
        # the recordings cut from it are the result, so besides those only
        # a few chunks of text may be live at once
        rng = np.random.default_rng(5)
        recs = [RawRecording(f"s{i:02d}", "1", "r1", np.arange(12_000) / 100.0,
                             rng.standard_normal((12_000, 3))) for i in range(10)]
        path = tmp_path / "gait.csv"
        write_canonical_csv(recs, path)
        if chunk_bytes is not None:
            monkeypatch.setattr(canonical, "CHUNK_BYTES", chunk_bytes)
        tracemalloc.start()
        try:
            loaded = load_canonical_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = sum(r.timestamps.nbytes + r.samples.nbytes for r in loaded)
        assert peak < 3 * result + 4 * canonical.CHUNK_BYTES
        got = outcome(load_canonical_csv, path)
        monkeypatch.setattr(canonical, "CHUNK_BYTES", path.stat().st_size + 1)
        assert got == outcome(load_canonical_csv, path)
