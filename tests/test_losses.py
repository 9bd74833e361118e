import numpy as np
import pytest

from voxcorr.losses import NCC_EPS, grad_l2_loss, ncc_loss, total_loss
from voxcorr.volume import VolumeError, window_sums

from .test_layers import fd_check


class TestNccLoss:
    def test_self_similarity_near_minus_one(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 1, size=(12, 12, 12))
        loss, _ = ncc_loss(a, a.copy(), window=5)
        assert loss == pytest.approx(-1.0, abs=1e-3)

    def test_constant_target_near_zero(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, size=(10, 10, 10))
        b = np.full_like(a, 0.5)
        loss, _ = ncc_loss(a, b, window=5)
        assert abs(loss) <= 1e-3

    def test_loss_range(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            a = np.random.default_rng(seed).uniform(0, 1, (8, 8, 8))
            b = np.random.default_rng(seed + 100).uniform(0, 1, (8, 8, 8))
            loss, _ = ncc_loss(a, b, window=3)
            assert -1.0 <= loss <= 0.0

    def test_even_window_rejected(self):
        with pytest.raises(VolumeError):
            ncc_loss(np.zeros((4, 4, 4)), np.zeros((4, 4, 4)), window=4)

    def test_window_larger_than_patch_rejected(self):
        with pytest.raises(VolumeError):
            ncc_loss(np.zeros((4, 4, 4)), np.zeros((4, 4, 4)), window=5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, size=(8, 8, 8))
        b = rng.uniform(0, 1, size=(8, 8, 8))

        def loss():
            return ncc_loss(a, b, window=3)[0]

        _, g = ncc_loss(a, b, window=3)
        fd_check(loss, a, g, rng, n_samples=30, rel=1e-3)

    def test_intensity_shift_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 1, size=(9, 9, 9))
        b = rng.uniform(0, 1, size=(9, 9, 9))
        l1, _ = ncc_loss(a, b, window=3)
        l2, _ = ncc_loss(a, 0.5 * b + 0.2, window=3)
        # local 0.5x scaling changes variances identically in num and denom
        assert l1 == pytest.approx(l2, abs=2e-3)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, window", [((12, 12, 12), 5), ((7, 9, 11), 3), ((2, 8, 8, 8), 3)])
    def test_same_bits_as_whole_expression(self, dtype, shape, window):
        # ncc_loss frees each intermediate after its last reader; this oracle
        # holds every term to the end and sums the gradient as one expression
        rng = np.random.default_rng(9)
        a, b = rng.uniform(0, 1, (2, *shape)).astype(dtype)
        r = window // 2

        def box(x):
            return window_sums(np.pad(x, [(0, 0)] * (x.ndim - 3) + [(r, r)] * 3), window)

        af, bf = a.astype(np.float64), b.astype(np.float64)
        n = box(np.ones(shape[-3:]))
        sa, sb = box(af), box(bf)
        sab, saa, sbb = box(af * bf), box(af * af), box(bf * bf)
        cross = sab - sa * sb / n
        var_a = saa - sa * sa / n
        var_b = sbb - sb * sb / n
        den = var_a * var_b + NCC_EPS
        cc = cross * cross / den
        alpha = 2.0 * cross / den
        beta = cc * var_b / den
        grad = -(
            bf * box(alpha) - box(alpha * (sb / n)) - 2.0 * af * box(beta) + 2.0 * box(beta * (sa / n))
        ) / cc.size
        loss, g = ncc_loss(a, b, window)
        assert loss == -float(cc.mean())
        assert g.dtype == dtype
        assert g.tobytes() == grad.astype(dtype).tobytes()


class TestGradL2Loss:
    def test_constant_field_zero(self):
        loss, g = grad_l2_loss(np.full((3, 5, 5, 5), 2.5))
        assert loss == 0.0
        assert np.all(g == 0.0)

    def test_unit_ramp_closed_form(self):
        u = np.zeros((3, 4, 4, 4))
        u[0] = np.arange(4, dtype=np.float64)[None, None, :]  # ux = x
        loss, _ = grad_l2_loss(u)
        # 48 unit x-differences of ux among 432 difference samples (3 axes x
        # 3 channels x 48 each), zero terms included in the mean
        assert loss == pytest.approx(48 / 432)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((3, 5, 5, 5))

        def loss():
            return grad_l2_loss(u)[0]

        _, g = grad_l2_loss(u)
        fd_check(loss, u, g, rng, rel=1e-3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 6, 7, 8), (3, 1, 4, 5), (2, 2, 2, 2)])
    def test_same_bits_as_all_differences_at_once(self, dtype, shape):
        # grad_l2_loss holds one axis's difference at a time; this oracle makes
        # all three first and adds them in the same order
        u = np.random.default_rng(10).standard_normal(shape).astype(dtype)
        d = u.astype(np.float64)
        views = [((slice(None),) * axis + (slice(1, None),), (slice(None),) * axis + (slice(None, -1),))
                 for axis in (1, 2, 3)]
        diffs = [d[hi] - d[lo] for hi, lo in views]
        count = sum(delta.size for delta in diffs)
        grad = np.zeros_like(d)
        for (hi, lo), delta in zip(views, diffs):
            grad[hi] += 2.0 * delta / count
            grad[lo] -= 2.0 * delta / count
        loss, g = grad_l2_loss(u)
        assert loss == sum(float((delta * delta).sum()) for delta in diffs) / count
        assert g.dtype == dtype
        assert g.tobytes() == grad.astype(dtype).tobytes()


class TestTotalLoss:
    def test_lambda_zero_is_pure_similarity(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 1, (8, 8, 8))
        b = rng.uniform(0, 1, (8, 8, 8))
        disp = rng.standard_normal((3, 8, 8, 8))
        loss, _, d_disp = total_loss(a, b, disp, lam=0.0, window=3)
        assert loss == ncc_loss(a, b, 3)[0]
        assert np.all(d_disp == 0.0)

    def test_perfect_alignment_zero_disp(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 1, (10, 10, 10))
        loss, _, _ = total_loss(a, a.copy(), np.zeros((3, 10, 10, 10)), lam=0.05, window=5)
        assert loss == pytest.approx(-1.0, abs=1e-3)

    def test_doubling_lambda_doubles_smoothness_term(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 1, (8, 8, 8))
        b = rng.uniform(0, 1, (8, 8, 8))
        disp = rng.standard_normal((3, 8, 8, 8))
        sim = ncc_loss(a, b, 3)[0]
        l1, _, _ = total_loss(a, b, disp, lam=0.05, window=3)
        l2, _, _ = total_loss(a, b, disp, lam=0.10, window=3)
        assert l2 - sim == pytest.approx(2 * (l1 - sim), rel=1e-12)
