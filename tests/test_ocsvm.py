import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from gaitverify import ocsvm
from gaitverify.errors import ConvergenceError, InvalidInputError


def dual_objective(x, alphas, gamma):
    q = ocsvm.rbf_kernel(x, x, gamma)
    return 0.5 * alphas @ q @ alphas


def brute_force_objective(x, nu, gamma, step=0.01):
    """Dense grid search over the constrained simplex (oracle for n=4)."""
    n = x.shape[0]
    assert n == 4
    cap = 1.0 / (nu * n)
    grid = np.arange(0.0, cap + step / 2, step)
    a1, a2, a3 = np.meshgrid(grid, grid, grid, indexing="ij")
    a4 = 1.0 - a1 - a2 - a3
    feasible = (a4 >= -1e-12) & (a4 <= cap + 1e-12)
    q = ocsvm.rbf_kernel(x, x, gamma)
    alphas = np.stack([a.ravel() for a in (a1, a2, a3, a4)], axis=1)[feasible.ravel()]
    objectives = 0.5 * np.einsum("ni,ij,nj->n", alphas, q, alphas)
    best = np.argmin(objectives)
    return objectives[best], alphas[best]


class TestTrainOcsvm:
    @pytest.mark.parametrize("gamma", [np.nan, np.inf, 0.0, -1.0])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        x = np.random.default_rng(0).standard_normal((6, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError,
                               match=re.escape(f"gamma must be positive and finite, got {gamma}")):
                ocsvm.train_ocsvm(x, gamma=gamma)

    def test_iteration_cap_raises_with_the_residual(self):
        x = np.random.default_rng(0).standard_normal((40, 3))
        with pytest.raises(ConvergenceError, match="did not converge in 1 iterations") as exc:
            ocsvm.train_ocsvm(x, max_iter=1)
        assert exc.value.residual > ocsvm.KKT_TOL

    def test_two_identical_points_capped_equal_shares(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        model = ocsvm.train_ocsvm(x, nu=1.0, gamma=1.0)
        npt.assert_allclose(model.alphas, [0.5, 0.5])
        assert ocsvm.scores(model, x[0])[0] == pytest.approx(0.0, abs=1e-12)

    def test_nu_property_on_gaussian_cloud(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((100, 5))
        model = ocsvm.train_ocsvm(x, nu=0.1)
        train_scores = ocsvm.scores(model, x)
        outlier_fraction = np.mean(train_scores < 0)
        sv_fraction = model.n_support / 100
        assert outlier_fraction <= 0.1 + 2 / 10
        assert sv_fraction >= 0.1 - 2 / 10

    def test_matches_brute_force_qp_on_fixed_instance(self):
        x = np.array([
            [0.0, 0.0],
            [1.0, 0.2],
            [0.1, 0.9],
            [0.8, 1.1],
        ])
        model = ocsvm.train_ocsvm(x, nu=0.5, gamma=1.0)
        solver_obj = dual_objective(model.support_vectors, model.alphas, 1.0)
        grid_obj, _ = brute_force_objective(x, nu=0.5, gamma=1.0)
        # the grid can only be worse than the converged solver
        assert solver_obj <= grid_obj + 1e-9
        assert grid_obj - solver_obj <= 1e-3

    def test_dual_feasibility(self):
        rng = np.random.default_rng(1)
        for nu in (0.05, 0.3, 0.7):
            x = rng.standard_normal((60, 4))
            model = ocsvm.train_ocsvm(x, nu=nu)
            cap = 1.0 / (nu * 60)
            assert np.all(model.alphas > 0)
            assert np.all(model.alphas <= cap + 1e-12)
            # prune never drops mass: the kept alphas still sum to one
            assert abs(model.alphas.sum() - 1.0) < 1e-8

    def test_kkt_residual_below_tolerance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((80, 6))
        model = ocsvm.train_ocsvm(x, nu=0.2, tol=1e-4)
        assert model.residual < 1e-4

    def test_scores_invariant_to_training_order(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 3))
        probe = rng.standard_normal((10, 3))
        base = ocsvm.scores(ocsvm.train_ocsvm(x, nu=0.15, gamma=0.5), probe)
        for seed in range(3):
            shuffled = x[np.random.default_rng(seed).permutation(40)]
            shuf = ocsvm.scores(ocsvm.train_ocsvm(shuffled, nu=0.15, gamma=0.5), probe)
            npt.assert_array_equal(shuf, base)

    def test_auto_gamma_formula(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 8)) * 2.0
        model = ocsvm.train_ocsvm(x, nu=0.5)
        expected = 1.0 / (8 * x.var(axis=0).mean())
        assert model.gamma == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("value", [1e155, 1e300, -1.7e308])
    @pytest.mark.parametrize("gamma", ["auto", 0.5])
    def test_values_whose_squares_overflow_rejected(self, value, gamma):
        x = np.random.default_rng(6).standard_normal((10, 4))
        x[3, 1] = value
        with pytest.raises(InvalidInputError, match="too large"):
            ocsvm.train_ocsvm(x, gamma=gamma)

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            ocsvm.train_ocsvm(np.zeros((1, 3)))
        with pytest.raises(InvalidInputError):
            ocsvm.train_ocsvm(np.zeros((5, 3)), nu=0.0)
        with pytest.raises(InvalidInputError):
            ocsvm.train_ocsvm(np.zeros((5, 3)), nu=1.5)


class TestDecisionScore:
    def build(self, seed=5, n=60):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 4)) * 0.5 + 2.0
        return x, ocsvm.train_ocsvm(x, nu=0.1)

    def test_centroid_scores_positive(self):
        x, model = self.build()
        assert ocsvm.scores(model, x.mean(axis=0))[0] > 0

    def test_far_point_approaches_minus_rho(self):
        x, model = self.build()
        far = np.full(4, 1e6)
        score = ocsvm.scores(model, far)[0]
        assert score == pytest.approx(-model.rho, abs=1e-12)
        assert score < 0

    def test_continuity_in_small_neighborhood(self):
        x, model = self.build()
        point = x.mean(axis=0)
        base = ocsvm.scores(model, point)[0]
        for delta in (1e-3, 1e-5, 1e-7):
            moved = ocsvm.scores(model, point + delta)[0]
            assert abs(moved - base) < 10 * delta * np.sqrt(4)

    def test_probe_whose_square_overflows_rejected(self):
        _, model = self.build()
        with pytest.raises(InvalidInputError, match="too large for the RBF kernel"):
            ocsvm.scores(model, np.array([0.0, 1e200, 0.0, 0.0]))

    def test_kernel_underflow_of_a_huge_gamma_is_zero(self):
        x, model = self.build()
        assert not ocsvm.rbf_kernel(x[:3], x[3:6], 1e308).any()

    def test_dimension_mismatch(self):
        _, model = self.build()
        with pytest.raises(InvalidInputError):
            ocsvm.scores(model, np.zeros(7))
