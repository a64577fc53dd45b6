import numpy as np
import numpy.testing as npt
import pytest

from gaitverify import models, ocsvm
from gaitverify.data.synthetic import SyntheticConfig, generate_synthetic
from gaitverify.errors import InvalidInputError
from gaitverify.evaluate import TRAIN_FRACTION, ProtocolSpec, eer, roc_auc, run_protocol
from gaitverify.nn.training import TrainConfig, train
from gaitverify.pipeline import frames_from_recordings


def clustered_features(users, frames_per_user, separation, seed=0, session="1",
                       dim=8, recordings=1):
    """Per-user Gaussian clusters: separation 0 makes users indistinguishable."""
    rng = np.random.default_rng(seed)
    sources, rows = [], []
    for u in range(users):
        center = rng.standard_normal(dim) * separation
        per_rec = frames_per_user // recordings
        for r in range(recordings):
            for i in range(per_rec):
                sources.append((f"u{u}", session, f"r{r + 1}", i))
                rows.append(center + 0.3 * rng.standard_normal(dim))
    return sources, np.asarray(rows)


class TestSameDayProtocol:
    def test_separable_users_score_high(self):
        sources, vectors = clustered_features(4, 12, separation=4.0, seed=1)
        [report] = run_protocol(sources, vectors, ProtocolSpec("sd1"), feature_kind="test")
        assert report.mean_auc > 0.95
        assert report.mean_eer < 0.1
        assert len(report.users) == 4

    def test_indistinguishable_users_near_chance(self):
        sources, vectors = clustered_features(2, 60, separation=0.0, seed=2)
        [report] = run_protocol(sources, vectors, ProtocolSpec("sd1"))
        for user in report.users:
            assert abs(user.auc - 0.5) <= 0.1

    def test_split_counts_first_two_thirds_train(self):
        sources, vectors = clustered_features(3, 12, separation=2.0, seed=3)
        [report] = run_protocol(sources, vectors, ProtocolSpec("sd1"))
        for user in report.users:
            assert user.n_genuine == 4    # 12 - floor(12 * 2/3)
            assert user.n_impostor == 24  # both other users contribute all 12

    # (recordings, window, n_genuine, n_impostor) per user, for 3 users of 12
    # frames split into equal recordings; training takes the first 8 frames,
    # so the last 4 are genuine.
    AGGREGATION_CASES = (
        # 2 recordings of 6: genuine = last 4 of r2 -> floor(4/3) = 1; each
        # of the 2 other users gives floor(6/3) * 2 recordings = 4 -> 8
        (2, 3, 1, 8),
        # genuine floor(4/4) = 1; impostors 2 users * floor(6/4) * 2 = 4,
        # where windows across the whole session would give 2 * floor(12/4) = 6
        (2, 4, 1, 4),
        # 4 recordings of 3: genuine = last 1 of r3 + r4 -> 0 + floor(3/2) = 1,
        # where one window stream over those 4 frames would give 2;
        # impostors 2 users * floor(3/2) * 4 = 8 (whole session: 12)
        (4, 2, 1, 8),
    )

    def test_aggregation_window_counts_per_recording(self):
        # a window never crosses a recording boundary, for genuine or impostor
        for recordings, window, n_genuine, n_impostor in self.AGGREGATION_CASES:
            case = f"{recordings} recordings, window {window}"
            sources, vectors = clustered_features(3, 12, separation=2.0, seed=4,
                                                  recordings=recordings)
            [report] = run_protocol(sources, vectors,
                                  ProtocolSpec("sd1", windows=(window,)))
            assert len(report.users) == 3, case
            for user in report.users:
                assert user.n_genuine == n_genuine, case
                assert user.n_impostor == n_impostor, case

    def test_deterministic(self):
        sources, vectors = clustered_features(3, 9, separation=1.0, seed=5)
        [a] = run_protocol(sources, vectors, ProtocolSpec("sd1"))
        [b] = run_protocol(sources, vectors, ProtocolSpec("sd1"))
        assert [(u.user_id, u.auc, u.eer) for u in a.users] == \
               [(u.user_id, u.auc, u.eer) for u in b.users]

    def test_short_user_skipped_with_warning(self):
        sources, vectors = clustered_features(3, 9, separation=1.0, seed=6)
        sources += [("tiny", "1", "r1", 0), ("tiny", "1", "r1", 1)]
        vectors = np.vstack([vectors, np.zeros((2, vectors.shape[1]))])
        [report] = run_protocol(sources, vectors, ProtocolSpec("sd1"))
        assert len(report.users) == 3
        assert any("tiny" in w for w in report.warnings)

    def test_sd2_uses_session_two(self):
        s1 = clustered_features(3, 9, separation=2.0, seed=7, session="1")
        s2 = clustered_features(3, 9, separation=2.0, seed=8, session="2")
        sources = s1[0] + s2[0]
        vectors = np.vstack([s1[1], s2[1]])
        [report] = run_protocol(sources, vectors, ProtocolSpec("sd2"))
        assert report.protocol == "same_day_s2"
        assert len(report.users) == 3

    def test_no_session_data_rejected(self):
        sources, vectors = clustered_features(2, 6, separation=1.0, seed=9, session="1")
        with pytest.raises(InvalidInputError):
            run_protocol(sources, vectors, ProtocolSpec("sd2"))


class TestCrossDayProtocol:
    def build(self, drift, seed=10):
        rng = np.random.default_rng(seed)
        sources, rows = [], []
        for u in range(3):
            center = rng.standard_normal(6) * 3.0
            for session in ("1", "2"):
                shifted = center + (drift if session == "2" else 0.0)
                for i in range(9):
                    sources.append((f"u{u}", session, "r1", i))
                    rows.append(shifted + 0.3 * rng.standard_normal(6))
        return sources, np.asarray(rows)

    def test_trains_on_session_one_tests_on_two(self):
        sources, vectors = self.build(drift=0.0)
        [report] = run_protocol(sources, vectors, ProtocolSpec("cd"))
        assert report.protocol == "cross_day"
        for user in report.users:
            assert user.n_genuine == 9
            assert user.n_impostor == 18

    def test_drift_degrades_cross_day(self):
        sources, vectors = self.build(drift=0.0, seed=11)
        [clean] = run_protocol(sources, vectors, ProtocolSpec("cd"))
        sources, vectors = self.build(drift=4.0, seed=11)
        [drifted] = run_protocol(sources, vectors, ProtocolSpec("cd"))
        assert drifted.mean_auc < clean.mean_auc

    def test_user_missing_session_one_skipped(self):
        sources, vectors = self.build(drift=0.0, seed=12)
        sources += [("new", "2", "r1", i) for i in range(4)]
        vectors = np.vstack([vectors, np.zeros((4, vectors.shape[1]))])
        [report] = run_protocol(sources, vectors, ProtocolSpec("cd"))
        assert {u.user_id for u in report.users} == {"u0", "u1", "u2"}
        assert any("new" in w for w in report.warnings)

    def test_single_session_rejected(self):
        sources, vectors = clustered_features(2, 6, separation=1.0, session="1")
        with pytest.raises(InvalidInputError):
            run_protocol(sources, vectors, ProtocolSpec("cd"))


class TestLearnedVersusRawTrend:
    def test_learned_features_beat_raw_on_disjoint_frequencies(self):
        # three users with well-separated gaits; a small supervised extractor
        # must order them better than raw concatenated frames
        config = SyntheticConfig(num_subjects=3, recording_seconds=45.0,
                                 sessions=1, seed=21)
        frames = frames_from_recordings(generate_synthetic(config))
        sources = frames.sources
        raw = models.raw_features(frames.values)

        x = models.frames_to_array(frames.values)
        labels = np.array([int(s[0][1:]) - 1 for s in sources])
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(frames))
        n_train = int(len(frames) * 0.6)
        fcn = models.FCNClassifier(3, seed=0, filters=(16, 24, 16), kernels=(8, 5, 3))
        fcn, _ = train(fcn, (x[perm[:n_train]], labels[perm[:n_train]]),
                       (x[perm[n_train:]], labels[perm[n_train:]]),
                       TrainConfig(epochs=20, batch_size=16, seed=0))
        learned = models.strip_classifier(fcn).transform(x)

        spec = ProtocolSpec("sd1")
        auc_raw = run_protocol(sources, raw, spec, feature_kind="raw")[0].mean_auc
        auc_learned = run_protocol(sources, learned, spec, feature_kind="ee")[0].mean_auc
        assert auc_learned > auc_raw


class TestProtocolSpec:
    def test_windows_default_to_one(self):
        assert ProtocolSpec("sd1").windows == (1,)

    def test_windows_become_a_tuple(self):
        assert ProtocolSpec("cd", windows=[3, 1]).windows == (3, 1)

    def test_bad_windows_rejected(self):
        for windows in ((), (0,), (6,), (1, 1), (2, 3, 2)):
            with pytest.raises(InvalidInputError):
                ProtocolSpec("sd1", windows=windows)


def reference_protocol(sources, vectors, kind, window):
    """Per-user, per-recording engine: one fit and one scoring call per stream.

    Returns ([(user_id, auc, eer, n_genuine, n_impostor)], warnings); the
    result list is empty when the session data the protocol needs is absent.
    """
    index = {}
    for subject, session, recording, _ in sources:
        index.setdefault(subject, {}).setdefault(session, {}).setdefault(recording, [])
    for r in sorted(range(len(sources)), key=lambda r: sources[r][3]):
        subject, session, recording, _ = sources[r]
        index[subject][session][recording].append(r)

    def session_rows(user, session):
        return [r for rows in index[user].get(session, {}).values() for r in rows]

    def stream(model, recordings):
        out = []
        for rows in recordings.values():
            if rows:
                values = [float(v) for v in ocsvm.scores(model, vectors[rows])]
                out.extend(float(np.mean(values[k * window:(k + 1) * window]))
                           for k in range(len(values) // window))
        return out

    train_session, test_session = {"sd1": ("1", "1"), "sd2": ("2", "2"),
                                   "cd": ("1", "2")}[kind]
    users = [u for u in index if session_rows(u, test_session)]
    if not any(session_rows(u, train_session) for u in index):
        users = []
    results, warnings = [], []
    for user in users:
        if kind == "cd":
            train_rows = session_rows(user, train_session)
            if len(train_rows) < 2:
                warnings.append(f"user {user}: fewer than 2 session-1 frames, skipped")
                continue
            genuine_recs = index[user][test_session]
        else:
            all_rows = session_rows(user, test_session)
            if len(all_rows) < 3:
                warnings.append(f"user {user}: fewer than 3 session-{test_session} "
                                "frames, skipped")
                continue
            n_train = int(len(all_rows) * TRAIN_FRACTION)
            train_rows = all_rows[:n_train]
            test_set = set(all_rows[n_train:])
            genuine_recs = {rec: [r for r in rows if r in test_set]
                            for rec, rows in index[user][test_session].items()}
        model = ocsvm.train_ocsvm(vectors[train_rows])
        genuine = stream(model, genuine_recs)
        impostor = [v for other in users if other != user
                    for v in stream(model, index[other][test_session])]
        if not genuine or not impostor:
            warnings.append(f"user {user}: empty genuine or impostor stream after "
                            f"aggregation window {window}, skipped")
            continue
        results.append((user, roc_auc(genuine, impostor), eer(genuine, impostor),
                        len(genuine), len(impostor)))
    return results, warnings


def random_population(seed, dim):
    """2-6 users, 1-3 recordings of 0-14 frames per session, rows shuffled."""
    rng = np.random.default_rng(seed)
    sources, rows = [], []
    for u in range(int(rng.integers(2, 7))):
        center = rng.standard_normal(dim) * rng.uniform(0.0, 3.0)
        for session in ("1", "2"):
            for rec in range(int(rng.integers(1, 4))):
                for i in range(int(rng.integers(0, 15))):
                    sources.append((f"u{u}", session, f"r{rec}", i))
                    rows.append(center + rng.standard_normal(dim))
    perm = rng.permutation(len(sources))
    return [sources[p] for p in perm], np.asarray(rows).reshape(-1, dim)[perm]


class TestOnePassEngineMatchesReference:
    WINDOWS = (1, 2, 3, 4, 5)

    @pytest.mark.parametrize("kind", ["sd1", "sd2", "cd"])
    def test_random_populations(self, kind):
        compared = 0
        for seed in range(36):
            dim = (3, 8, 64)[seed % 3]
            sources, vectors = random_population(seed, dim)
            expected = {w: reference_protocol(sources, vectors, kind, w)
                        for w in self.WINDOWS}
            spec = ProtocolSpec(kind, windows=self.WINDOWS)
            if not all(results for results, _ in expected.values()):
                with pytest.raises(InvalidInputError):
                    run_protocol(sources, vectors, spec)
                continue
            reports = run_protocol(sources, vectors, spec)
            assert [r.window for r in reports] == list(self.WINDOWS)
            for report in reports:
                results, warnings = expected[report.window]
                case = f"seed {seed}, window {report.window}"
                assert [(u.user_id, u.auc, u.eer, u.n_genuine, u.n_impostor)
                        for u in report.users] == results, case
                assert report.warnings == warnings, case
                compared += 1
        assert compared >= 100
