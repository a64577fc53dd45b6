import numpy as np
import numpy.testing as npt
import pytest

from gaitverify.errors import InvalidInputError
from gaitverify.nn.layers import Parameter
from gaitverify.nn.optim import Adam, PlateauScheduler


def params_with_grads(values, grads):
    params = []
    for i, (value, grad) in enumerate(zip(values, grads)):
        p = Parameter(f"p{i}", np.array(value, dtype=float))
        p.grad[...] = grad
        params.append(p)
    return params


def reference_adam(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Out-of-place Adam with bias correction: the oracle for the in-place one."""
    t += 1
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    m = [beta1 * mi + (1.0 - beta1) * g for mi, g in zip(m, grads)]
    v = [beta2 * vi + (1.0 - beta2) * (g * g) for vi, g in zip(v, grads)]
    params = [p - (lr / bc1) * mi / (np.sqrt(vi / bc2) + eps)
              for p, mi, vi in zip(params, m, v)]
    return params, m, v, t


class TestAdamStep:
    def test_zero_gradient_leaves_params(self):
        params = params_with_grads([[1.0, -2.0], [[3.0]]], [np.zeros(2), np.zeros((1, 1))])
        opt = Adam(params, lr=0.01)
        opt.step()
        npt.assert_array_equal(params[0].value, [1.0, -2.0])
        npt.assert_array_equal(params[1].value, [[3.0]])
        assert opt.t == 1

    def test_first_step_magnitude_is_lr(self):
        # closed form: m_hat = g, v_hat = g^2 -> update = lr * g/(|g| + eps)
        [p] = params_with_grads([[1.0]], [[1.0]])
        Adam([p], lr=0.001).step()
        assert p.value[0] == pytest.approx(1.0 - 0.001, abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        value = rng.standard_normal((3, 4))
        grad = rng.standard_normal((3, 4))
        a = params_with_grads([value], [grad])
        b = params_with_grads([value], [grad])
        Adam(a, lr=0.1).step()
        Adam(b, lr=0.1).step()
        npt.assert_array_equal(a[0].value, b[0].value)

    def test_bias_correction_across_steps(self):
        # two steps with the same gradient keep the update magnitude at ~lr
        [p] = params_with_grads([[0.0]], [[2.0]])
        opt = Adam([p], lr=0.001)
        opt.step()
        opt.step()
        assert p.value[0] == pytest.approx(-0.002, rel=1e-6)
        assert opt.t == 2

    def test_shape_mismatch(self):
        p = Parameter("p", np.zeros(3))
        p.grad = np.zeros(4)
        with pytest.raises(InvalidInputError):
            Adam([p], lr=0.1).step()

    def test_class_wrapper_matches_function(self):
        # in place, same operation order: bit-identical to the out-of-place formula
        for dtype in (np.float32, np.float64):
            rng = np.random.default_rng(1)
            values = [rng.standard_normal((16, 8)).astype(dtype),
                      rng.standard_normal(3).astype(dtype)]
            params = [Parameter(f"p{i}", v.copy()) for i, v in enumerate(values)]
            storage = [p.value for p in params]
            opt = Adam(params, lr=0.05)
            m = [np.zeros_like(v) for v in values]
            v2 = [np.zeros_like(v) for v in values]
            t = 0
            for _ in range(4):
                grads = [rng.standard_normal(v.shape).astype(dtype) for v in values]
                for p, g in zip(params, grads):
                    p.grad[...] = g
                opt.step()
                values, m, v2, t = reference_adam(values, grads, m, v2, t, lr=0.05)
                for p, expected in zip(params, values):
                    assert p.value.dtype == dtype
                    npt.assert_array_equal(p.value, expected)
                for got, expected in zip(opt.m + opt.v, m + v2):
                    npt.assert_array_equal(got, expected)
            assert all(p.value is s for p, s in zip(params, storage))


def final_lr(loss_history, lr, **kwargs):
    """Learning rate after replaying a whole loss history through the scheduler."""
    sched = PlateauScheduler(lr, **kwargs)
    for loss in loss_history:
        sched.step(float(loss))
    return sched.lr


class TestReduceLrOnPlateau:
    def test_strictly_decreasing_history_keeps_lr(self):
        history = list(np.linspace(1.0, 0.1, 120))
        assert final_lr(history, 0.001) == 0.001

    def test_flat_51_epochs_halves(self):
        assert final_lr([0.5] * 51, 0.001) == pytest.approx(0.0005)

    def test_flat_50_epochs_not_yet(self):
        assert final_lr([0.5] * 50, 0.001) == 0.001

    def test_floors_at_min_lr(self):
        lr = final_lr([0.5] * 400, 0.001)
        assert lr == pytest.approx(0.0001)
        # never goes below regardless of how long the plateau lasts
        assert final_lr([0.5] * 4000, 0.001) >= 0.0001

    def test_never_increases(self):
        rng = np.random.default_rng(2)
        history = list(rng.uniform(0.1, 1.0, size=300))
        lrs = [final_lr(history[:n], 0.001) for n in range(1, 301)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_improvement_resets_counter(self):
        history = [0.5] * 50 + [0.4] + [0.4] * 49
        # counter reset at epoch 50 (improvement); 49 stale epochs after -> no cut
        assert final_lr(history, 0.001) == 0.001

    def test_matches_incremental_scheduler(self):
        # step() returns the rate after each epoch: the replay of that prefix
        rng = np.random.default_rng(3)
        history = list(rng.uniform(0.1, 1.0, size=500))
        sched = PlateauScheduler(0.001, patience=50, factor=0.5, min_lr=1e-4)
        for i, loss in enumerate(history, start=1):
            assert sched.step(loss) == final_lr(history[:i], 0.001)
            assert sched.lr == final_lr(history[:i], 0.001)

    def test_bad_factor(self):
        for kwargs in ({"factor": 1.5}, {"factor": 0.0}, {"min_lr": 0.0}, {"patience": 0}):
            with pytest.raises(InvalidInputError):
                PlateauScheduler(0.001, **kwargs)
