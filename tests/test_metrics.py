import numpy as np
import pytest

from gaitverify.errors import InvalidInputError
from gaitverify.evaluate import (
    UserResult,
    aggregate_scores,
    eer,
    roc_auc,
    summarize,
)


def pair_counting_auc(genuine, impostor):
    """Exhaustive O(n*m) oracle: wins + half-ties over all pairs."""
    wins = 0.0
    for g in genuine:
        for i in impostor:
            if g > i:
                wins += 1.0
            elif g == i:
                wins += 0.5
    return wins / (len(genuine) * len(impostor))


def sweep_eer(genuine, impostor):
    """Brute-force threshold sweep oracle following the same contract."""
    g = np.asarray(genuine, dtype=float)
    im = np.asarray(impostor, dtype=float)
    thresholds = sorted(set(g) | set(im))
    far = [np.mean(im >= t) for t in thresholds]
    frr = [np.mean(g < t) for t in thresholds]
    diff = [a - b for a, b in zip(far, frr)]
    for k in range(len(diff) - 1):
        if diff[k] > 0 and diff[k + 1] < 0:
            lam = diff[k] / (diff[k] - diff[k + 1])
            lo = (far[k] + frr[k]) / 2
            hi = (far[k + 1] + frr[k + 1]) / 2
            return (1 - lam) * lo + lam * hi
    k = int(np.argmin(np.abs(diff)))
    return (far[k] + frr[k]) / 2


class TestRocAuc:
    @pytest.mark.parametrize("scores", [
        [2.0, 1.0], [1.0, 1.0, 1.0], [3.0, 1.0, 2.0, 1.0, 3.0, 3.0],
        [-0.0, 0.0, 1e-300, -1e-300], [0.0, -0.0, -0.0, 0.0, 5e-324]])
    def test_every_split_of_tied_and_signed_zero_scores_matches_the_oracles(self, scores):
        for cut in range(1, len(scores)):
            g, i = scores[:cut], scores[cut:]
            assert roc_auc(g, i) == pair_counting_auc(g, i), cut
            assert eer(g, i) == sweep_eer(g, i), cut

    def test_tie_heavy_and_float32_scores_match_the_oracles(self):
        rng = np.random.default_rng(5)
        for trial in range(300):
            x = np.round(rng.standard_normal(int(rng.integers(2, 120))), trial % 3)
            if trial % 2:
                x = (x + rng.standard_normal(x.size) * 1e-9).astype(np.float32).astype(np.float64)
            g, i = np.split(x, [int(rng.integers(1, x.size))])
            assert roc_auc(g, i) == pair_counting_auc(g, i), trial
            assert eer(g, i) == sweep_eer(g, i), trial

    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8], [0.1, 0.2]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.5], [0.5]) == 0.5

    def test_three_of_four_pairs(self):
        assert roc_auc([3, 1], [2, 0]) == 0.75

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal(37)
        i = rng.standard_normal(21)
        assert roc_auc(g, i) == pytest.approx(1.0 - roc_auc(i, g), abs=1e-15)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal(30)
        i = rng.standard_normal(40)
        base = roc_auc(g, i)
        for f in (np.tanh, np.exp, lambda v: 3 * v + 7):
            assert roc_auc(f(g), f(i)) == pytest.approx(base, abs=1e-12)

    def test_matches_pair_counting_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n_g = int(rng.integers(1, 50))
            n_i = int(rng.integers(1, 50))
            # quantized scores force plenty of ties
            g = np.round(rng.standard_normal(n_g), 1)
            i = np.round(rng.standard_normal(n_i), 1)
            assert roc_auc(g, i) == pytest.approx(pair_counting_auc(g, i), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            roc_auc([], [0.1])
        with pytest.raises(InvalidInputError):
            roc_auc([0.1], [])


class TestEer:
    def test_perfect_separation(self):
        assert eer([0.9, 0.8], [0.1, 0.2]) == 0.0

    def test_fully_interleaved_symmetric(self):
        assert eer([1, 3], [2, 4]) == pytest.approx(0.5)

    def test_frozen_regression_case(self):
        # value computed with the sweep oracle: FAR=FRR=1/3 at threshold 0.8
        value = eer([0.9, 0.8, 0.2], [0.1, 0.3, 0.85])
        assert value == pytest.approx(1 / 3, abs=1e-12)
        assert value == pytest.approx(sweep_eer([0.9, 0.8, 0.2], [0.1, 0.3, 0.85]))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal(25) + 0.8
        i = rng.standard_normal(25)
        base = eer(g, i)
        assert eer(np.tanh(g), np.tanh(i)) == pytest.approx(base, abs=1e-12)
        assert eer(5 * g + 2, 5 * i + 2) == pytest.approx(base, abs=1e-12)

    def test_matches_sweep_oracle_randomized(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = rng.standard_normal(int(rng.integers(1, 60))) + rng.uniform(0, 2)
            i = rng.standard_normal(int(rng.integers(1, 60)))
            assert eer(g, i) == pytest.approx(sweep_eer(g, i), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            eer([], [1.0])


class TestAggregateScores:
    def test_window_one_is_identity(self):
        scores = [0.3, -0.2, 0.9]
        assert aggregate_scores(scores, [(0, 3)], 1).tolist() == scores

    def test_pairwise_means(self):
        assert aggregate_scores([1, 2, 3, 4, 5], [(0, 5)], 2).tolist() == [1.5, 3.5]

    def test_constant_scores(self):
        for w in range(1, 6):
            out = aggregate_scores([2.5] * 10, [(0, 10)], w)
            assert out.tolist() == [2.5] * (10 // w)

    def test_count_is_floor_n_over_w(self):
        rng = np.random.default_rng(5)
        for n in (0, 1, 4, 9, 17):
            scores = list(rng.standard_normal(n))
            for w in range(1, 6):
                assert len(aggregate_scores(scores, [(0, n)], w)) == n // w

    def test_windows_stay_inside_segments(self):
        scores = np.arange(10, dtype=float)
        # segments [0..2], [3..6], [8..9]; row 7 belongs to none
        out = aggregate_scores(scores, [(0, 3), (3, 4), (8, 2)], 2)
        assert out.tolist() == [0.5, 3.5, 5.5, 8.5]

    def test_segments_keep_their_given_order(self):
        scores = np.arange(6, dtype=float)
        assert aggregate_scores(scores, [(4, 2), (0, 2)], 2).tolist() == [4.5, 0.5]

    def test_matches_per_segment_mean(self):
        rng = np.random.default_rng(6)
        scores = rng.standard_normal(40)
        segments = [(0, 7), (7, 0), (7, 13), (20, 1), (21, 19)]
        for w in range(1, 6):
            expected = [float(np.mean(scores[s + k * w:s + (k + 1) * w]))
                        for s, n in segments for k in range(n // w)]
            assert aggregate_scores(scores, segments, w).tolist() == expected

    def test_no_segments_gives_empty(self):
        assert aggregate_scores([1.0, 2.0], [], 3).size == 0

    def test_window_below_one_rejected(self):
        with pytest.raises(InvalidInputError):
            aggregate_scores([1.0], [(0, 1)], 0)


class TestSummarize:
    def test_single_user(self):
        s = summarize([UserResult("u", 0.9, 0.1, 1, 1)])
        assert s["mean_auc"] == 0.9
        assert s["stdev_auc"] == 0.0

    def test_two_users_population_stdev(self):
        s = summarize([UserResult("a", 1.0, 0.0, 1, 1), UserResult("b", 0.5, 0.3, 1, 1)])
        assert s["mean_auc"] == pytest.approx(0.75)
        assert s["stdev_auc"] == pytest.approx(0.25)
        assert s["mean_eer"] == pytest.approx(0.15)
        assert s["stdev_eer"] == pytest.approx(0.15)

    def test_against_hand_computation(self):
        aucs = [0.81, 0.93, 0.99]
        eers = [0.21, 0.08, 0.02]
        users = [UserResult(str(i), a, e, 1, 1) for i, (a, e) in enumerate(zip(aucs, eers))]
        s = summarize(users)
        assert s["mean_auc"] == pytest.approx(sum(aucs) / 3)
        assert s["stdev_auc"] == pytest.approx(np.sqrt(np.mean((np.array(aucs) - np.mean(aucs)) ** 2)))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            summarize([])
