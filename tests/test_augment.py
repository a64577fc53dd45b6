import numpy as np
import numpy.testing as npt
import pytest

from gaitverify.augment import add_uniform_noise, augment_dataset, circular_shift
from gaitverify.errors import InvalidInputError


def random_frame(seed=0):
    """One (1, 128, 3) frame array."""
    return np.random.default_rng(seed).standard_normal((1, 128, 3))


def zero_frame():
    return np.zeros((1, 128, 3))


def shift(values, k):
    """circular_shift with the same k for every frame."""
    return circular_shift(values, np.full(len(values), k))


class TestAddUniformNoise:
    def test_small_amplitude_limit(self):
        f = random_frame()
        out = add_uniform_noise(f, amplitude=1e-12, rng=np.random.default_rng(1))
        npt.assert_allclose(out, f, atol=1e-11)

    def test_deterministic_under_fixed_seed(self):
        a = add_uniform_noise(zero_frame(), rng=np.random.default_rng(42))
        b = add_uniform_noise(zero_frame(), rng=np.random.default_rng(42))
        npt.assert_array_equal(a, b)
        assert np.any(a != 0)

    def test_law_of_large_numbers(self):
        # 10k+ draws from Uniform(-0.2, 0.2): max |delta| <= 0.2, mean |delta| ~ 0.1
        rng = np.random.default_rng(3)
        deltas = []
        for _ in range(30):  # 30 * 384 = 11520 draws
            f = zero_frame()
            deltas.append(add_uniform_noise(f, amplitude=0.2, rng=rng))
        deltas = np.abs(np.concatenate([d.ravel() for d in deltas]))
        assert deltas.max() <= 0.2
        assert abs(deltas.mean() - 0.1) <= 0.01

    def test_mean_shift_bounded_by_amplitude(self):
        f = random_frame(5)
        out = add_uniform_noise(f, amplitude=0.2, rng=np.random.default_rng(6))
        moved = np.abs(out.mean(axis=1) - f.mean(axis=1))
        assert np.all(moved <= 0.2)

    def test_non_positive_amplitude(self):
        with pytest.raises(InvalidInputError):
            add_uniform_noise(random_frame(), np.random.default_rng(0), amplitude=0.0)


class TestCircularShift:
    def test_paper_formula_on_short_pattern(self):
        # channel [1,2,3,4,5] with k=3 -> [3,4,5,1,2]; embed in a 128 frame
        base = np.arange(1.0, 129.0)
        f = np.stack([base] * 3, axis=1)[None]
        out = shift(f, 3)
        npt.assert_array_equal(out[0, :3, 0], [3.0, 4.0, 5.0])
        npt.assert_array_equal(out[0, -2:, 0], [1.0, 2.0])

    def test_shift_composition_adds_offsets(self):
        f = random_frame(1)
        # k=2 twice shifts by 1+1 positions, same as k=3 once
        twice = shift(shift(f, 2), 2)
        npt.assert_array_equal(twice, shift(f, 3))

    def test_multiset_and_moments_preserved(self):
        f = random_frame(2)
        out = shift(f, 57)
        for c in range(3):
            npt.assert_array_equal(np.sort(out[0, :, c]), np.sort(f[0, :, c]))
        npt.assert_allclose(out.mean(axis=1), f.mean(axis=1), rtol=1e-12)
        npt.assert_allclose(out.std(axis=1), f.std(axis=1), rtol=1e-12)

    def test_same_k_for_all_channels(self):
        f = random_frame(3)
        out = shift(f, 10)
        npt.assert_array_equal(out, np.roll(f, -9, axis=1))

    @pytest.mark.parametrize("k", range(2, 128))
    def test_never_identity_for_valid_k(self, k):
        f = random_frame(4)
        assert np.any(shift(f, k) != f)

    @pytest.mark.parametrize("k", [0, 1, 128, 129, -3])
    def test_invalid_k(self, k):
        with pytest.raises(InvalidInputError, match=f"k={k} outside 2..127"):
            shift(random_frame(), k)

    def test_one_k_per_frame(self):
        values = np.random.default_rng(5).standard_normal((4, 128, 3))
        ks = np.array([2, 127, 64, 2])
        out = circular_shift(values, ks)
        for v, k, o in zip(values, ks, out):
            npt.assert_array_equal(o, np.roll(v, -(k - 1), axis=0))
        with pytest.raises(InvalidInputError, match="k=1 outside"):
            circular_shift(values, np.array([2, 3, 1, 4]))
        with pytest.raises(InvalidInputError, match="one shift position per frame"):
            circular_shift(values, np.array([2, 3]))


class TestAugmentDataset:
    def test_doubles_and_keeps_originals_first(self):
        values = np.concatenate([random_frame(i) for i in range(100)])
        out = augment_dataset(values, "cshift", np.random.default_rng(0))
        assert out.shape == (200, 128, 3)
        npt.assert_array_equal(out[:100], values)
        for orig, aug in zip(values, out[100:]):
            assert np.any(aug != orig)

    def test_empty_input(self):
        out = augment_dataset(np.empty((0, 128, 3)), "rnd", np.random.default_rng(0))
        assert out.shape == (0, 128, 3)

    def test_deterministic_under_seed(self):
        values = np.concatenate([random_frame(i) for i in range(10)])
        a = augment_dataset(values, "rnd", np.random.default_rng(5))
        b = augment_dataset(values, "rnd", np.random.default_rng(5))
        npt.assert_array_equal(a, b)

    def test_noise_kind_draws_fresh_field_per_frame(self):
        values = np.concatenate([zero_frame(), zero_frame()])
        out = augment_dataset(values, "random_noise", np.random.default_rng(9))
        assert np.any(out[2] != out[3])

    def test_kind_none_rejected(self):
        with pytest.raises(InvalidInputError):
            augment_dataset(random_frame(), "none", np.random.default_rng(0))

    def test_matches_frame_by_frame_draws(self):
        # one batched draw gives the same stream as one draw per frame
        values = np.random.default_rng(11).standard_normal((7, 128, 3))
        rng = np.random.default_rng(12)
        shifted = [np.roll(v, -(int(rng.integers(2, 128)) - 1), axis=0) for v in values]
        out = augment_dataset(values, "cshift", np.random.default_rng(12))
        npt.assert_array_equal(out[7:], np.stack(shifted))
        rng = np.random.default_rng(13)
        noisy = [v + rng.uniform(-0.2, 0.2, size=(128, 3)) for v in values]
        out = augment_dataset(values, "rnd", np.random.default_rng(13))
        npt.assert_array_equal(out[7:], np.stack(noisy))
