import numpy as np
import numpy.testing as npt
import pytest

from gaitverify.data.canonical import (
    export_features_csv,
    load_annotations_csv,
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
                        "s01,1,r9,0.01,1,1,1\n")
        with pytest.raises(InvalidInputError, match="r9"):
            load_canonical_csv(path)

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


class TestAnnotationsCsv:
    def test_load_groups_boundaries(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("subject,session,recording,boundary\n"
                        "s01,1,r1,0\ns01,1,r1,100\ns01,1,r1,210\n"
                        "s02,1,r1,5\ns02,1,r1,115\n")
        anns = load_annotations_csv(path)
        assert len(anns) == 2
        npt.assert_array_equal(anns[0].cycle_lengths, [100, 110])
        npt.assert_array_equal(anns[1].cycle_lengths, [110])
