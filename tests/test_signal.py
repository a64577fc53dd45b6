import numpy as np
import numpy.testing as npt
import pytest

from gaitverify.errors import InvalidInputError
from gaitverify.signal import (
    MAX_SAMPLES,
    Frames,
    RawRecording,
    resample_linear,
    segment_frames,
    zscore,
)


def make_recording(timestamps, channel, subject="s01", session="1", recording="r1"):
    samples = np.stack([np.asarray(channel)] * 3, axis=1)
    return RawRecording(subject, session, recording, np.asarray(timestamps), samples)


def uniform_recording(n, hz=100.0, seed=0, recording="r1"):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / hz
    return RawRecording("s01", "1", recording, t, rng.standard_normal((n, 3)))


def jittered_recording(n, seed, recording):
    """n samples at irregular steps of 4 to 30 ms."""
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.004, 0.03, n))
    return RawRecording("s02", "2", recording, t, rng.standard_normal((n, 3)))


def on_grid(rec, samples):
    """``resample_linear(rec)``'s samples as a recording on its 100 Hz grid."""
    grid = rec.timestamps[0] + np.arange(len(samples), dtype=np.float64) / 100.0
    return RawRecording(*rec.key, grid, samples)


def reference_frames(recordings):
    """Framing one recording at a time: resample to a RawRecording, check it, cut, concatenate."""
    batches = []
    for rec in recordings:
        t = rec.timestamps
        n_out = int(np.floor((t[-1] - t[0]) * 100.0 + 1e-9)) + 1
        grid = t[0] + np.arange(n_out, dtype=np.float64) / 100.0
        uniform = RawRecording(*rec.key, grid, np.stack(
            [np.interp(grid, t, rec.samples[:, c]) for c in range(3)], axis=1))
        assert np.max(np.abs(np.diff(uniform.timestamps) - 0.01), initial=0.0) <= 1e-6
        n = len(uniform) // 128
        batches.append(Frames(uniform.samples[:n * 128].reshape(n, 128, 3).copy(),
                              [(*rec.key, i) for i in range(n)]))
    if not batches:
        return Frames(np.empty((0, 128, 3)), [])
    return Frames(np.concatenate([b.values for b in batches]),
                  [src for b in batches for src in b.sources])


class TestResampleLinear:
    def test_midpoints_50hz_to_100hz(self):
        rec = make_recording([0.0, 0.02, 0.04], [0.0, 1.0, 2.0])
        out = resample_linear(rec)
        assert out.shape == (5, 3)
        npt.assert_allclose(out[:, 0], [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_identity_on_uniform_100hz(self):
        rec = uniform_recording(500)
        out = resample_linear(rec)
        assert out.shape == rec.samples.shape
        npt.assert_allclose(out, rec.samples, atol=1e-9)

    def test_nonuniform_against_scalar_oracle(self):
        ts = [0.0, 0.013, 0.031]
        vals = [1.0, 4.0, 2.0]
        rec = make_recording(ts, vals)
        out = resample_linear(rec)

        def interp_oracle(t):
            # plain piecewise-linear interpolation, one point at a time
            for a in range(len(ts) - 1):
                if ts[a] <= t <= ts[a + 1]:
                    w = (t - ts[a]) / (ts[a + 1] - ts[a])
                    return vals[a] + w * (vals[a + 1] - vals[a])
            raise AssertionError(t)

        assert len(out) == 4
        expected = [interp_oracle(t) for t in [0.0, 0.01, 0.02, 0.03]]
        npt.assert_allclose(out[:, 1], expected, rtol=1e-12)
        # frozen values from the oracle above
        npt.assert_allclose(expected, [1.0, 3.3076923076923075, 3.2222222222222223,
                                       2.111111111111111], rtol=1e-12)

    def test_idempotent_within_1e9(self):
        rec = make_recording([0.0, 0.007, 0.02, 0.05], [1.0, -2.0, 0.5, 3.0])
        once = resample_linear(rec)
        twice = resample_linear(on_grid(rec, once))
        assert len(once) == len(twice)
        npt.assert_allclose(once, twice, atol=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(InvalidInputError, match=r"recording \(s01, 1, r1\) has 1 sample"):
            resample_linear(make_recording([0.0], [1.0]))

    @pytest.mark.parametrize("ts", [[0.0, 1e300], [0.0, 1e17], [-1e308, 1e308]])
    def test_span_no_array_can_hold_rejected_before_allocating(self, ts):
        assert (ts[1] - ts[0]) * 100.0 > MAX_SAMPLES
        with pytest.raises(InvalidInputError,
                           match=r"recording \(s01, 1, r1\) spans .* than an array can hold"):
            resample_linear(make_recording(ts, [1.0, 2.0]))

    def test_nonmonotonic_timestamps_rejected_at_construction(self):
        with pytest.raises(InvalidInputError):
            make_recording([0.0, 0.02, 0.01], [1.0, 2.0, 3.0])


class TestSegmentFrames:
    @pytest.mark.parametrize("n,expected", [(384, 3), (383, 2), (127, 0), (128, 1), (0o1000, 4)])
    def test_frame_counts(self, n, expected):
        frames = segment_frames([uniform_recording(n)])
        assert len(frames) == expected
        assert len(frames) == n // 128

    def test_windows_cover_consecutive_samples(self):
        rec = uniform_recording(384)
        frames = segment_frames([rec])
        for i in range(3):
            npt.assert_array_equal(frames.values[i], rec.samples[i * 128:(i + 1) * 128])
            assert frames.sources[i] == ("s01", "1", "r1", i)

    def test_trailing_remainder_dropped(self):
        rec = uniform_recording(383)
        frames = segment_frames([rec])
        npt.assert_array_equal(frames.values[-1], rec.samples[128:256])

    @pytest.mark.parametrize("recordings", [
        pytest.param([uniform_recording(383, seed=1, recording="r1"),
                      uniform_recording(700, seed=2, recording="r2"),
                      uniform_recording(300, seed=3, recording="r3")], id="remainders"),
        pytest.param([uniform_recording(100, seed=4)], id="shorter_than_a_frame"),
        pytest.param([uniform_recording(256, seed=5, recording="r1"),
                      uniform_recording(100, seed=6, recording="r2"),
                      jittered_recording(500, seed=7, recording="r3")], id="mixed"),
        pytest.param([jittered_recording(900, seed=8, recording="r1")], id="non_uniform"),
        pytest.param([], id="empty"),
    ])
    def test_matches_one_recording_at_a_time_bit_for_bit(self, recordings):
        frames = segment_frames(recordings)
        expected = reference_frames(recordings)
        assert frames.values.shape == expected.values.shape
        npt.assert_array_equal(frames.values, expected.values)
        assert frames.sources == expected.sources


def one_frame(values):
    return Frames(np.asarray(values)[None], [("s01", "1", "r1", 0)])


def frame_from_channels(ax, ay, az):
    return one_frame(np.stack([ax, ay, az], axis=1))


class TestZscore:
    def test_constant_channel_zeroed(self):
        f = frame_from_channels(np.full(128, 5.0), np.arange(128.0), np.arange(128.0))
        out = zscore(f)
        npt.assert_array_equal(out.values[0, :, 0], np.zeros(128))
        assert out.values[0, :, 1].std() > 0

    def test_unit_pattern_is_fixed_point(self):
        pattern = np.tile([-1.0, 1.0], 64)
        f = frame_from_channels(pattern, pattern, pattern)
        npt.assert_allclose(zscore(f).values[0, :, 0], pattern, atol=1e-12)

    def test_ramp_against_direct_statistics_oracle(self):
        ramp = np.arange(128.0)
        f = frame_from_channels(ramp, ramp, ramp)
        out = zscore(f)
        mean = 63.5
        stdev = np.sqrt(np.sum((ramp - mean) ** 2) / 128.0)  # population stdev
        npt.assert_allclose(out.values[0, :, 0], (ramp - mean) / stdev, rtol=1e-12)

    def test_normalized_statistics(self):
        rng = np.random.default_rng(7)
        f = one_frame(rng.standard_normal((128, 3)) * 9.0 + 4.0)
        out = zscore(f)
        assert np.all(np.abs(out.values.mean(axis=1)) < 1e-5)
        assert np.all(np.abs(out.values.std(axis=1) - 1.0) < 1e-3)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        f = one_frame(rng.standard_normal((128, 3)) * 3.0 - 1.0)
        once = zscore(f)
        npt.assert_allclose(zscore(once).values, once.values, atol=1e-5)

    def test_preserves_ordering_per_channel(self):
        rng = np.random.default_rng(9)
        f = one_frame(rng.standard_normal((128, 3)))
        out = zscore(f)
        for c in range(3):
            npt.assert_array_equal(np.argsort(out.values[0, :, c]),
                                   np.argsort(f.values[0, :, c]))

    def test_non_finite_rejected(self):
        # frames come only from recordings, which reject nan/inf on construction
        samples = np.zeros((128, 3))
        samples[5, 1] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            RawRecording("s", "1", "r", np.arange(128) / 100.0, samples)

    @pytest.mark.parametrize("value", [1e155, 1e300, -1.7976931348623157e308])
    def test_variance_overflow_rejected_naming_the_frame(self, value):
        values = np.random.default_rng(11).standard_normal((3, 128, 3))
        values[1, 7, 2] = value
        frames = Frames(values, [("s02", "1", "r4", i) for i in range(3)])
        with pytest.raises(InvalidInputError,
                           match=r"^recording \(s02, 1, r4\) frame 1: values too large"):
            zscore(frames)

    def test_batch_matches_frame_by_frame(self):
        rng = np.random.default_rng(10)
        values = rng.standard_normal((6, 128, 3)) * rng.uniform(0.5, 9.0, (6, 1, 3)) + 2.0
        # one dead channel inside the batch: stdev 1e-10, below DEGENERATE_STDEV
        values[2, :, 1] = 4.0 + 1e-10 * np.tile([-1.0, 1.0], 64)
        sources = [("s", "1", "r", i) for i in range(6)]
        batch = zscore(Frames(values, sources))
        assert batch.sources == sources
        for i, v in enumerate(values):
            # one frame at a time, live channels only
            mean, std = v.mean(axis=0), v.std(axis=0)
            live = std >= 1e-8
            expected = np.zeros_like(v)
            expected[:, live] = (v[:, live] - mean[live]) / std[live]
            npt.assert_array_equal(batch.values[i], expected)
        npt.assert_array_equal(batch.values[2, :, 1], np.zeros(128))
        assert not np.signbit(batch.values[2, :, 1]).any()


class TestFrames:
    def test_shape_and_sources_checked(self):
        with pytest.raises(InvalidInputError, match="frames must be"):
            Frames(np.zeros((2, 127, 3)), [("s", "1", "r", 0), ("s", "1", "r", 1)])
        with pytest.raises(InvalidInputError, match="1 sources for 2 frames"):
            Frames(np.zeros((2, 128, 3)), [("s", "1", "r", 0)])
