import numpy as np
import pytest

from voxcorr.layers import (
    conv3d_backward,
    conv3d_forward,
    conv3d_param_grads,
    leaky_relu_backward,
    leaky_relu_forward,
    maxpool3d_backward,
    maxpool3d_forward,
    upsample3d_backward,
    upsample3d_forward,
)
from voxcorr.volume import VolumeError


def fd_check(loss_fn, x, analytic, rng, n_samples=24, h=1e-5, rel=1e-3):
    """Central finite differences on sampled entries of x against analytic."""
    flat = x.ravel()
    g = analytic.ravel()
    idxs = rng.choice(flat.size, size=min(n_samples, flat.size), replace=False)
    for i in idxs:
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        dn = loss_fn()
        flat[i] = orig
        fd = (up - dn) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=rel, abs=1e-8)


class TestConv3d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 4, 4, 4))
        k = np.ones((1, 1, 1, 1, 1))
        out, _ = conv3d_forward(x, k, np.zeros(1))
        np.testing.assert_allclose(out, x)

    def test_all_ones_center(self):
        x = np.ones((1, 3, 3, 3))
        k = np.ones((1, 1, 3, 3, 3))
        out, _ = conv3d_forward(x, k, np.array([0.5]))
        assert out[0, 1, 1, 1] == pytest.approx(27.5)

    def test_shape_contract(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 5, 6, 7))
        k = rng.standard_normal((4, 2, 3, 3, 3))
        out, _ = conv3d_forward(x, k, np.zeros(4))
        assert out.shape == (4, 5, 6, 7)

    def test_even_kernel_rejected(self):
        with pytest.raises(VolumeError):
            conv3d_forward(np.zeros((1, 4, 4, 4)), np.zeros((1, 1, 2, 2, 2)), np.zeros(1))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(VolumeError):
            conv3d_forward(np.zeros((3, 4, 4, 4)), np.zeros((1, 2, 3, 3, 3)), np.zeros(1))

    @pytest.mark.parametrize("k", [1, 3, 5], ids=["k1", "k3", "k5"])
    def test_matches_direct_sum_over_taps(self, k):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 5, 6, 7))
        kern = rng.standard_normal((3, 2, k, k, k))
        b = rng.standard_normal(3)
        p = k // 2
        xpad = np.pad(x, ((0, 0), (p, p), (p, p), (p, p)))
        ref = np.zeros((3, 5, 6, 7)) + b[:, None, None, None]
        for a, bb, c in np.ndindex(k, k, k):
            ref += np.einsum("oi,izyx->ozyx", kern[:, :, a, bb, c], xpad[:, a:a + 5, bb:bb + 6, c:c + 7])
        out, _ = conv3d_forward(x, kern, b)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    def test_ctx_is_no_larger_than_padded_input(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 8, 9, 10)).astype(np.float32)
        k = rng.standard_normal((4, 4, 3, 3, 3)).astype(np.float32)
        _, ctx = conv3d_forward(x, k, np.zeros(4, np.float32))
        padded = 4 * 10 * 11 * 12 * x.itemsize
        assert all(a.nbytes <= padded for a in ctx)

    @pytest.mark.parametrize("k", [1, 3, 5], ids=["k1", "k3", "k5"])
    @pytest.mark.parametrize("cin, cout, dims", [(1, 2, (6, 6, 6)), (2, 3, (5, 6, 7))], ids=["cube", "unequal"])
    def test_gradients_match_finite_differences(self, k, cin, cout, dims):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((cin,) + dims)
        kern = rng.standard_normal((cout, cin, k, k, k))
        b = rng.standard_normal(cout)
        proj = rng.standard_normal((cout,) + dims)

        def loss():
            out, _ = conv3d_forward(x, kern, b)
            return float((out * proj).sum())

        out, ctx = conv3d_forward(x, kern, b)
        dx, dk, db = conv3d_backward(proj, ctx)
        fd_check(loss, x, dx, rng)
        fd_check(loss, kern, dk, rng)
        fd_check(loss, b, db, rng, n_samples=2)

    @pytest.mark.parametrize("k", [1, 3, 5], ids=["k1", "k3", "k5"])
    @pytest.mark.parametrize("dims", [(6, 6, 6), (5, 6, 7)], ids=["cube", "unequal"])
    def test_param_grads_equal_full_backward(self, k, dims):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2,) + dims).astype(np.float32)
        kern = rng.standard_normal((3, 2, k, k, k)).astype(np.float32)
        _, ctx = conv3d_forward(x, kern, np.zeros(3, np.float32))
        gout = rng.standard_normal((3,) + dims).astype(np.float32)
        _, dk, db = conv3d_backward(gout, ctx)
        dk2, db2 = conv3d_param_grads(gout, ctx)
        assert dk2.tobytes() == dk.tobytes()
        assert db2.tobytes() == db.tobytes()


class TestLeakyRelu:
    def test_values(self):
        y, _ = leaky_relu_forward(np.array([2.0, -2.0, 0.0]), 0.2)
        np.testing.assert_allclose(y, [2.0, -0.4, 0.0])

    def test_gradient_at_zero_is_one(self):
        x = np.array([0.0])
        _, neg = leaky_relu_forward(x, 0.2)
        g = leaky_relu_backward(np.array([1.0]), neg, 0.2)
        assert g[0] == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 4, 4)) + 0.05  # keep entries off zero
        x[np.abs(x) < 1e-3] = 0.5
        proj = rng.standard_normal(x.shape)

        def loss():
            y, _ = leaky_relu_forward(x, 0.2)
            return float((y * proj).sum())

        _, neg = leaky_relu_forward(x, 0.2)
        g = leaky_relu_backward(proj, neg, 0.2)
        fd_check(loss, x, g, rng, rel=1e-6)


class TestMaxpool:
    def test_block_max(self):
        x = np.arange(1.0, 9.0).reshape(1, 2, 2, 2)
        out, _ = maxpool3d_forward(x, 2)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 8.0

    def test_tie_routes_to_first_voxel(self):
        x = np.ones((1, 2, 2, 2))
        out, ctx = maxpool3d_forward(x, 2)
        g = maxpool3d_backward(np.array([[[[5.0]]]]), ctx)
        assert g[0, 0, 0, 0] == 5.0
        assert g.sum() == 5.0

    def test_indivisible_rejected(self):
        with pytest.raises(VolumeError):
            maxpool3d_forward(np.zeros((1, 3, 4, 4)), 2)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 4, 4, 4))
        proj = rng.standard_normal((2, 2, 2, 2))

        def loss():
            out, _ = maxpool3d_forward(x, 2)
            return float((out * proj).sum())

        _, ctx = maxpool3d_forward(x, 2)
        g = maxpool3d_backward(proj, ctx)
        fd_check(loss, x, g, rng, rel=1e-6)


class TestUpsample:
    def test_replication(self):
        out = upsample3d_forward(np.full((1, 1, 1, 1), 5.0), 2)
        assert out.shape == (1, 2, 2, 2)
        assert np.all(out == 5.0)

    def test_upsample_of_pooled_constant_is_identity(self):
        x = np.full((1, 4, 4, 4), 3.0)
        pooled, _ = maxpool3d_forward(x, 2)
        np.testing.assert_array_equal(upsample3d_forward(pooled, 2), x)

    def test_backward_sums_blocks(self):
        g = np.ones((1, 2, 2, 2))
        back = upsample3d_backward(g, 2)
        assert back.shape == (1, 1, 1, 1)
        assert back[0, 0, 0, 0] == 8.0

    def test_adjoint_identity(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 3, 3))
        y = rng.standard_normal((2, 6, 6, 6))
        lhs = float((upsample3d_forward(x, 2) * y).sum())
        rhs = float((x * upsample3d_backward(y, 2)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)
