import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from voxcorr import layers, volume
from voxcorr.layers import (
    conv3d_backward,
    conv3d_forward,
    conv3d_param_grads,
    leaky_relu_backward,
    leaky_relu_forward,
    maxpool3d_backward,
    maxpool3d_forward,
    upconv3d_backward,
    upconv3d_forward,
    upsample3d_backward,
    upsample3d_forward,
)
from voxcorr.volume import VolumeError


# The earlier implementations of LeakyReLU and max pooling, kept as oracles.

def reference_leaky_relu_forward(x, slope):
    neg = x < 0
    return np.where(neg, slope * x, x), neg


def reference_leaky_relu_backward(gout, neg, slope):
    return np.where(neg, slope * gout, gout)


def to_blocks(x, f):
    """[c, D, H, W] -> [c, D/f, H/f, W/f, f^3], each block's voxels in (dz, dy, dx) order."""
    c, d, h, w = x.shape
    return x.reshape(c, d // f, f, h // f, f, w // f, f).transpose(0, 1, 3, 5, 2, 4, 6).reshape(
        c, d // f, h // f, w // f, f ** 3
    )


def from_blocks(blocks, f):
    """Inverse of to_blocks."""
    c, d, h, w, _ = blocks.shape
    return blocks.reshape(c, d, h, w, f, f, f).transpose(0, 1, 4, 2, 5, 3, 6).reshape(c, d * f, h * f, w * f)


def reference_maxpool3d_forward(x, f):
    blocks = to_blocks(x, f)
    idx = blocks.argmax(axis=-1)
    return np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0], idx


def reference_maxpool3d_backward(gout, idx, f):
    g = np.zeros(gout.shape + (f ** 3,), dtype=gout.dtype)
    np.put_along_axis(g, idx[..., None], gout[..., None], axis=-1)
    return from_blocks(g, f)


def special_values(dtype, n=1001, seed=0):
    """Random normals with signed zeros, subnormals, extremes and infinities
    spread through them; an odd length exercises the non-vector tail."""
    info = np.finfo(dtype)
    specials = [0.0, -0.0, np.inf, -np.inf, info.smallest_subnormal, -info.smallest_subnormal,
                info.tiny, -info.tiny, info.max, -info.max, 1.0, -1.0]
    x = np.random.default_rng(seed).standard_normal(n).astype(dtype)
    x[:: n // len(specials)][: len(specials)] = specials
    return x


def bits(a):
    return a.view(f"u{a.itemsize}")


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


# depths of two slabs of layers.SLAB (3) z-planes, and of two and three slabs
# per range when two workers split them, the last slab partial
SLAB_DIMS = [(5, 6, 7), (11, 6, 7), (17, 5, 9)]
SLAB_IDS = ["unequal", "2slabs", "3slabs"]
# kernel sizes with their pads: same padding for odd k, both pads of the 2-tap parity kernels
K_PADS = [(1, 0), (3, 1), (5, 2), (2, 0), (2, 1)]
K_PAD_IDS = ["k1", "k3", "k5", "k2-pad0", "k2-pad1"]


def direct_sum(x, kern, b, pad):
    """Cross-correlation as a sum over taps of per-tap channel products, and
    the same sum of |terms| (for rounding bounds)."""
    cout, _, k = kern.shape[:3]
    out_dims = tuple(n + 2 * pad - k + 1 for n in x.shape[1:])
    xpad = np.pad(x.astype(np.float64), ((0, 0),) + ((pad, pad),) * 3)
    ref = np.zeros((cout,) + out_dims) + b[:, None, None, None]
    mag = np.zeros((cout,) + out_dims) + np.abs(b)[:, None, None, None]
    d, h, w = out_dims
    for a, bb, c in np.ndindex(k, k, k):
        wt = kern[:, :, a, bb, c].astype(np.float64)
        win = xpad[:, a:a + d, bb:bb + h, c:c + w]
        ref += np.einsum("oi,izyx->ozyx", wt, win)
        mag += np.einsum("oi,izyx->ozyx", np.abs(wt), np.abs(win))
    return ref, mag


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

    def test_even_kernel_needs_explicit_pad(self):
        with pytest.raises(VolumeError, match="explicit pad"):
            conv3d_forward(np.zeros((1, 4, 4, 4)), np.zeros((1, 1, 2, 2, 2)), np.zeros(1))
        out, _ = conv3d_forward(np.zeros((1, 4, 4, 4)), np.zeros((1, 1, 2, 2, 2)), np.zeros(1), pad=1)
        assert out.shape == (1, 5, 5, 5)

    @pytest.mark.parametrize("k, pad", [(3, -1), (3, 3), (2, 2)])
    def test_pad_outside_kernel_rejected(self, k, pad):
        with pytest.raises(VolumeError, match="pad"):
            conv3d_forward(np.zeros((1, 4, 4, 4)), np.zeros((1, 1, k, k, k)), np.zeros(1), pad=pad)

    def test_bias_none_is_zero_bias(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 5, 6, 7))
        k = rng.standard_normal((3, 2, 3, 3, 3))
        out, _ = conv3d_forward(x, k)
        assert out.tobytes() == conv3d_forward(x, k, np.zeros(3))[0].tobytes()

    def test_channel_mismatch_rejected(self):
        with pytest.raises(VolumeError):
            conv3d_forward(np.zeros((3, 4, 4, 4)), np.zeros((1, 2, 3, 3, 3)), np.zeros(1))

    @pytest.mark.parametrize("k, pad", K_PADS, ids=K_PAD_IDS)
    # all k^3 taps in one operand when k*cin <= cout: (2, 8) for k <= 3, (3, 4) for k = 1
    @pytest.mark.parametrize("cin, cout", [(2, 8), (3, 4)], ids=["cin2", "cin3"])
    @pytest.mark.parametrize("dims", SLAB_DIMS, ids=SLAB_IDS)
    def test_matches_direct_sum_over_taps(self, k, pad, cin, cout, dims):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((cin,) + dims)
        kern = rng.standard_normal((cout, cin, k, k, k))
        b = rng.standard_normal(cout)
        ref, _ = direct_sum(x, kern, b, pad)
        out, _ = conv3d_forward(x, kern, b, pad)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("cin, cout", [(2, 8), (3, 4)], ids=["folded", "x-fold"])  # k*cin vs cout
    def test_float32_matches_float64_direct_sum(self, cin, cout):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((cin, 6, 7, 8)).astype(np.float32)
        kern = rng.standard_normal((cout, cin, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(cout).astype(np.float32)
        ref, mag = direct_sum(x, kern, b, 1)
        out, _ = conv3d_forward(x, kern, b)
        assert out.dtype == np.float32
        # float32 summation of cin*27 + 1 terms: error within n*eps of the sum of |terms|
        assert np.all(np.abs(out - ref) <= (cin * 27 + 1) * np.finfo(np.float32).eps * mag)

    def test_ctx_holds_the_input_itself(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 8, 9, 10)).astype(np.float32)
        k = rng.standard_normal((4, 4, 3, 3, 3)).astype(np.float32)
        _, ctx = conv3d_forward(x, k, np.zeros(4, np.float32))
        assert ctx[0] is x and ctx[1] is k and ctx[2] == 1

    def test_backward_memory(self, monkeypatch):
        # a 64-channel conv at patch 32: dx alone is x.nbytes (8 MiB) and the
        # slab buffers of two workers add 11.5 MiB; the full-volume padded
        # copies and per-tap GEMM temporaries of the earlier conv path peaked
        # at 23.3 MiB. Two workers whatever the CPU count, so that the bound
        # means the same on every machine
        monkeypatch.setattr(volume, "WORKERS", 2)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((64, 32, 32, 32)).astype(np.float32)
        k = (0.1 * rng.standard_normal((32, 64, 3, 3, 3))).astype(np.float32)
        _, ctx = conv3d_forward(x, k, np.zeros(32, np.float32))
        gout = rng.standard_normal((32, 32, 32, 32)).astype(np.float32)
        conv3d_backward(gout, ctx)  # warm-up
        tracemalloc.start()
        try:
            conv3d_backward(gout, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the warm-up leaves no buffer behind: the trace sees every buffer, dx among them
        assert x.nbytes < peak < 2.5 * x.nbytes

    @pytest.mark.parametrize("k, pad", K_PADS, ids=K_PAD_IDS)
    @pytest.mark.parametrize(
        "cin, cout, dims",
        [(1, 2, (6, 6, 6)), (2, 3, (5, 6, 7)), (2, 3, (11, 6, 7)), (3, 2, (17, 5, 9))],
        ids=["cube", "unequal", "2slabs", "3slabs"],
    )
    def test_gradients_match_finite_differences(self, k, pad, cin, cout, dims):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((cin,) + dims)
        kern = rng.standard_normal((cout, cin, k, k, k))
        b = rng.standard_normal(cout)
        proj = rng.standard_normal((cout,) + tuple(n + 2 * pad - k + 1 for n in dims))

        def loss():
            out, _ = conv3d_forward(x, kern, b, pad)
            return float((out * proj).sum())

        out, ctx = conv3d_forward(x, kern, b, pad)
        dx, dk, db = conv3d_backward(proj, ctx)
        fd_check(loss, x, dx, rng)
        fd_check(loss, kern, dk, rng)
        fd_check(loss, b, db, rng, n_samples=2)

    @pytest.mark.parametrize("k, pad", K_PADS, ids=K_PAD_IDS)
    @pytest.mark.parametrize("cin, cout", [(2, 8), (3, 4)], ids=["cin2", "cin3"])
    @pytest.mark.parametrize("dims", [(6, 6, 6)] + SLAB_DIMS, ids=["cube"] + SLAB_IDS)
    def test_param_grads_equal_full_backward(self, k, pad, cin, cout, dims):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((cin,) + dims).astype(np.float32)
        kern = rng.standard_normal((cout, cin, k, k, k)).astype(np.float32)
        out, ctx = conv3d_forward(x, kern, np.zeros(cout, np.float32), pad)
        gout = rng.standard_normal(out.shape).astype(np.float32)
        _, dk, db = conv3d_backward(gout, ctx)
        dk2, db2 = conv3d_param_grads(gout, ctx)
        assert dk2.tobytes() == dk.tobytes()
        assert db2.tobytes() == db.tobytes()


@pytest.fixture
def workers(monkeypatch):
    """Sets volume.WORKERS to n, with a pool of n - 1 threads, whatever the CPU count."""
    pools = []

    def pin(n):
        pool = ThreadPoolExecutor(n - 1) if n > 1 else None
        pools.append(pool)
        monkeypatch.setattr(volume, "WORKERS", n)
        monkeypatch.setattr(volume, "_POOL", pool)

    yield pin
    for pool in filter(None, pools):
        pool.shutdown()


class TestConvWorkers:
    @pytest.mark.parametrize("od", [1, 3, 4, 5, 6, 7, 12, 13, 32, 64])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_ranges_are_whole_slabs(self, monkeypatch, od, n):
        monkeypatch.setattr(volume, "WORKERS", n)
        ranges = layers._slab_ranges(od)
        slabs = -(-od // layers.SLAB)
        assert len(ranges) == max(1, min(n, slabs // 2))
        assert ranges[0][0] == 0 and ranges[-1][1] == od
        assert all(hi == lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))
        assert all(lo % layers.SLAB == 0 for lo, _ in ranges)
        assert len(ranges) == 1 or all(hi - lo > layers.SLAB for lo, hi in ranges)

    @pytest.mark.parametrize("k, pad", K_PADS, ids=K_PAD_IDS)
    @pytest.mark.parametrize("cin, cout", [(2, 8), (3, 4)], ids=["folded", "x-fold"])
    @pytest.mark.parametrize("dims", SLAB_DIMS[1:], ids=SLAB_IDS[1:])
    def test_same_bytes_on_1_2_and_8_workers(self, workers, k, pad, cin, cout, dims):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((cin,) + dims).astype(np.float32)
        kern = rng.standard_normal((cout, cin, k, k, k)).astype(np.float32)
        b = rng.standard_normal(cout).astype(np.float32)
        gout = rng.standard_normal((cout,) + tuple(n + 2 * pad - k + 1 for n in dims)).astype(np.float32)
        runs = []
        for n in (1, 2, 8):
            workers(n)
            out, ctx = conv3d_forward(x, kern, b, pad)
            runs.append([a.tobytes() for a in (out, *conv3d_backward(gout, ctx))])
        assert runs[1] == runs[0] and runs[2] == runs[0]


def upconv_oracle(coarse, skip, kern, b):
    """The decoder block as it reads: conv of the upsampled coarse grid concatenated with the skip."""
    return conv3d_forward(np.concatenate([upsample3d_forward(coarse, 2), skip]), kern, b)


# coarse dims whose fine grid runs in two slabs of 3 z-planes, or in two or
# three slabs per range at two workers
UP_DIMS = [(3, 3, 3), (2, 3, 4), (5, 3, 2), (9, 2, 3)]
UP_IDS = ["cube", "unequal", "2slabs", "3slabs"]
UP_CHANNELS = [(1, 1, 1), (2, 3, 2), (3, 1, 3), (1, 2, 3)]  # coarse, skip and output channels


def upconv_inputs(c, s, cout, k, dims, rng, dtype=np.float64):
    coarse = rng.standard_normal((c,) + dims).astype(dtype)
    skip = rng.standard_normal((s,) + tuple(2 * n for n in dims)).astype(dtype)
    kern = rng.standard_normal((cout, c + s, k, k, k)).astype(dtype)
    return coarse, skip, kern, rng.standard_normal(cout).astype(dtype)


class TestUpconv3d:
    @pytest.mark.parametrize("k", [1, 3, 5], ids=["k1", "k3", "k5"])
    @pytest.mark.parametrize("c, s, cout", UP_CHANNELS)
    @pytest.mark.parametrize("dims", UP_DIMS, ids=UP_IDS)
    def test_matches_upsample_concat_conv(self, k, c, s, cout, dims):
        rng = np.random.default_rng(10)
        args = upconv_inputs(c, s, cout, k, dims, rng)
        ref, _ = upconv_oracle(*args)
        out, _ = upconv3d_forward(*args)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    # both convs fold all taps into one operand when 2c <= 8*cout and 3s <= cout
    @pytest.mark.parametrize("c, s, cout", [(9, 3, 2), (3, 2, 24)], ids=["x-fold", "folded"])
    def test_float32_matches_float64_direct_sum(self, c, s, cout):
        rng = np.random.default_rng(11)
        coarse, skip, kern, b = upconv_inputs(c, s, cout, 3, (3, 4, 5), rng, np.float32)
        x = np.concatenate([upsample3d_forward(coarse, 2), skip])
        ref, mag = direct_sum(x, kern, b, 1)
        out, _ = upconv3d_forward(coarse, skip, kern, b)
        assert out.dtype == np.float32
        # the parity taps re-associate the same sum: the bound of the conv it replaces holds
        assert np.all(np.abs(out - ref) <= ((c + s) * 27 + 1) * np.finfo(np.float32).eps * mag)

    @pytest.mark.parametrize("k", [1, 3, 5], ids=["k1", "k3", "k5"])
    @pytest.mark.parametrize("c, s, cout", UP_CHANNELS)
    @pytest.mark.parametrize("dims", UP_DIMS, ids=UP_IDS)
    def test_backward_matches_upsample_concat_conv(self, k, c, s, cout, dims):
        rng = np.random.default_rng(12)
        args = upconv_inputs(c, s, cout, k, dims, rng)
        ref, rctx = upconv_oracle(*args)
        gout = rng.standard_normal(ref.shape)
        dcat, dk_ref, db_ref = conv3d_backward(gout, rctx)
        _, ctx = upconv3d_forward(*args)
        dcoarse, dskip, dk, db = upconv3d_backward(gout, ctx)
        for got, want in [(dcoarse, upsample3d_backward(dcat[:c], 2)), (dskip, dcat[c:]), (dk, dk_ref), (db, db_ref)]:
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("dims", UP_DIMS, ids=UP_IDS)
    def test_gradients_match_finite_differences(self, dims):
        rng = np.random.default_rng(13)
        coarse, skip, kern, b = upconv_inputs(2, 3, 2, 3, dims, rng)
        proj = rng.standard_normal((2,) + skip.shape[1:])

        def loss():
            out, _ = upconv3d_forward(coarse, skip, kern, b)
            return float((out * proj).sum())

        _, ctx = upconv3d_forward(coarse, skip, kern, b)
        dcoarse, dskip, dk, db = upconv3d_backward(proj, ctx)
        fd_check(loss, coarse, dcoarse, rng)
        fd_check(loss, skip, dskip, rng)
        fd_check(loss, kern, dk, rng)
        fd_check(loss, b, db, rng, n_samples=2)

    @pytest.mark.parametrize("skip_shape, kern_cin, k", [((2, 8, 8, 6), 4, 3), ((2, 8, 8, 8), 5, 3),
                                                         ((2, 8, 8, 8), 4, 2)],
                             ids=["skip-not-twice-coarse", "kernel-channels", "even-kernel"])
    def test_incompatible_shapes_rejected(self, skip_shape, kern_cin, k):
        with pytest.raises(VolumeError):
            upconv3d_forward(np.zeros((2, 4, 4, 4)), np.zeros(skip_shape), np.zeros((3, kern_cin, k, k, k)),
                             np.zeros(3))


class TestLeakyRelu:
    def test_values(self):
        y = leaky_relu_forward(np.array([2.0, -2.0, 0.0]), 0.2)
        np.testing.assert_allclose(y, [2.0, -0.4, 0.0])

    def test_gradient_at_zero_is_one(self):
        g = leaky_relu_backward(np.array([1.0]), np.array([0.0]) < 0, 0.2)
        assert g[0] == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 4, 4)) + 0.05  # keep entries off zero
        x[np.abs(x) < 1e-3] = 0.5
        proj = rng.standard_normal(x.shape)

        def loss():
            return float((leaky_relu_forward(x.copy(), 0.2) * proj).sum())

        g = leaky_relu_backward(proj, x < 0, 0.2)
        fd_check(loss, x, g, rng, rel=1e-6)


class TestLeakyReluMatchesReference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [-0.5, 0.0, 0.2, 1.0])
    def test_forward_bitwise(self, slope, dtype):
        x = special_values(dtype)
        y = x.copy()
        with np.errstate(invalid="ignore"):  # 0 * inf at slope 0
            got = leaky_relu_forward(y, slope)
            ref, _ = reference_leaky_relu_forward(x, slope)
        assert got is y and y.dtype == ref.dtype
        # the documented corner cases of slope <= 0 (see leaky_relu_forward)
        zero_tie = (x == 0) & (slope < 0)
        inf_at_0 = (x == np.inf) & (slope == 0)
        exact = ~(zero_tie | inf_at_0)
        assert np.array_equal(bits(y[exact]), bits(ref[exact]))
        assert np.all(y[zero_tie] == 0) and np.all(np.isnan(y[inf_at_0]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [-0.5, 0.0, 0.2, 1.0])
    def test_backward_bitwise(self, slope, dtype):
        neg = special_values(dtype, seed=1) < 0
        gout = special_values(dtype, seed=2)
        with np.errstate(invalid="ignore"):  # 0 * inf at slope 0
            got = leaky_relu_backward(gout, neg, slope)
            want = reference_leaky_relu_backward(gout, neg, slope)
        assert got.dtype == want.dtype
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [1e-3, 0.2, 0.5, 1.0])
    def test_output_sign_is_input_sign(self, slope, dtype):
        # model_backward reads the mask off the output; only where slope*x
        # underflows to -0 does the output's sign differ
        x = special_values(dtype)
        underflow = (x < 0) & (slope * x == 0)
        assert underflow.any() == (slope < 1)  # the smallest negative subnormal is among them
        y = leaky_relu_forward(x.copy(), slope)
        np.testing.assert_array_equal((y < 0)[~underflow], (x < 0)[~underflow])
        assert not (y < 0)[underflow].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [-0.5, 0.0, 0.2, 1.0])
    def test_forward_on_a_view_writes_only_the_view(self, slope, dtype):
        x = special_values(dtype)
        buf = x.copy()
        view = buf[1::2]
        with np.errstate(invalid="ignore"):  # 0 * inf at slope 0
            got = leaky_relu_forward(view, slope)
            want = leaky_relu_forward(x[1::2].copy(), slope)
        assert got is view
        assert np.array_equal(bits(buf[1::2]), bits(want))
        assert np.array_equal(bits(buf[::2]), bits(x[::2]))


def tied_blocks(dtype, f=2, seed=0):
    """Input whose channel c has, in every block, its first maximum at block
    position c (in (dz, dy, dx) order) and copies of it at random later positions."""
    rng = np.random.default_rng(seed)
    c = f ** 3
    blocks = rng.standard_normal((c, 3, 2, 4, c)) - 10.0
    peak = rng.standard_normal((c, 3, 2, 4))
    for first in range(c):
        blocks[first, ..., first] = peak[first]
        after = blocks[first, ..., first + 1:]
        after[...] = np.where(rng.random(after.shape) < 0.5, peak[first][..., None], after)
    return from_blocks(blocks.astype(dtype), f)


class TestMaxpoolMatchesReference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("make", ["random", "ties"])
    def test_forward_values(self, make, dtype):
        if make == "random":
            x = np.random.default_rng(3).standard_normal((5, 6, 8, 4)).astype(dtype)
        else:
            x = tied_blocks(dtype)
        out, _ = maxpool3d_forward(x, 2)
        ref, _ = reference_maxpool3d_forward(x, 2)
        assert out.dtype == ref.dtype and np.array_equal(out, ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_routes_ties_to_first_maximum(self, dtype):
        x = tied_blocks(dtype)
        out, ctx = maxpool3d_forward(x, 2)
        gout = np.random.default_rng(4).standard_normal(out.shape).astype(dtype)
        _, idx = reference_maxpool3d_forward(x, 2)
        assert set(np.unique(idx)) == set(range(8))  # every block position wins somewhere
        got = maxpool3d_backward(gout, ctx)
        want = reference_maxpool3d_backward(gout, idx, 2)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zero_ties(self, dtype):
        # a block of zeros of either sign: the value may carry either sign,
        # the gradient still goes to the first zero
        rng = np.random.default_rng(5)
        x = np.where(rng.random((3, 4, 4, 6)) < 0.5, -0.0, 0.0).astype(dtype)
        x[rng.random(x.shape) < 0.3] = -1.0
        out, ctx = maxpool3d_forward(x, 2)
        ref, idx = reference_maxpool3d_forward(x, 2)
        assert np.array_equal(out, ref)
        gout = rng.standard_normal(out.shape).astype(dtype)
        assert maxpool3d_backward(gout, ctx).tobytes() == reference_maxpool3d_backward(gout, idx, 2).tobytes()

    def test_backward_memory(self):
        # the gradient itself is as large as the input; a transposed copy of
        # the input (or of the gradient) would double that
        rng = np.random.default_rng(6)
        x = rng.standard_normal((32, 32, 32, 32)).astype(np.float32)
        out, ctx = maxpool3d_forward(x, 2)
        gout = rng.standard_normal(out.shape).astype(np.float32)
        maxpool3d_backward(gout, ctx)  # warm-up
        tracemalloc.start()
        try:
            maxpool3d_backward(gout, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes


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



def _conv_case(cin, cout, k, pad, dims, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((cin,) + dims).astype(np.float32)
    kern = rng.standard_normal((cout, cin, k, k, k)).astype(np.float32)
    return x, kern, rng.standard_normal(cout).astype(np.float32), pad


def _conv_op(*case):
    return lambda: conv3d_forward(*_conv_case(*case))[:1]


def _conv_backward_op(*case):
    def op():
        out, ctx = conv3d_forward(*_conv_case(*case))
        return conv3d_backward(np.random.default_rng(1).standard_normal(out.shape).astype(np.float32), ctx)
    return op


def _upconv_args():
    return upconv_inputs(3, 2, 4, 3, (3, 4, 3), np.random.default_rng(11), np.float32)


def _upconv_backward_op():
    out, ctx = upconv3d_forward(*_upconv_args())
    return upconv3d_backward(np.random.default_rng(2).standard_normal(out.shape).astype(np.float32), ctx)


def _pool_input():
    return np.random.default_rng(12).standard_normal((3, 6, 8, 4)).astype(np.float32)


def _pool_backward_op():
    out, ctx = maxpool3d_forward(_pool_input(), 2)
    return [maxpool3d_backward(np.random.default_rng(3).standard_normal(out.shape).astype(np.float32), ctx)]


# each op returns its output arrays; the conv shapes cover both tap groupings
DIRTY_OPS = {
    "conv-xfold": _conv_op(3, 4, 3, 1, (11, 9, 10), 7),    # k*cin > cout: x-tap groups, row-stacked GEMMs
    "conv-alltaps": _conv_op(2, 8, 3, 1, (7, 6, 8), 8),    # k*cin <= cout: one GEMM per slab
    "conv-even": _conv_op(3, 5, 2, 1, (5, 7, 6), 9),
    "conv-xfold-backward": _conv_backward_op(3, 4, 3, 1, (11, 9, 10), 7),
    "conv-alltaps-backward": _conv_backward_op(2, 8, 3, 1, (7, 6, 8), 8),
    "upconv": lambda: upconv3d_forward(*_upconv_args())[:1],
    "upconv-backward": _upconv_backward_op,
    "pool": lambda: maxpool3d_forward(_pool_input(), 2)[:1],
    "pool-backward": _pool_backward_op,
}


class TestDirtyMemory:
    # the CLI's malloc policy keeps freed blocks in the heap, so np.empty hands
    # a patch the bytes an earlier patch left there: no op may read them
    @pytest.mark.parametrize("op", DIRTY_OPS.values(), ids=DIRTY_OPS.keys())
    def test_uninitialised_buffers_give_the_bits_of_clean_ones(self, monkeypatch, op):
        clean = [a.tobytes() for a in op()]

        def dirty(make):
            def wrapped(*args, **kwargs):
                a = make(*args, **kwargs)
                a.fill(np.nan if a.dtype.kind == "f" else 1)
                return a
            return wrapped

        monkeypatch.setattr(np, "empty", dirty(np.empty))
        monkeypatch.setattr(np, "empty_like", dirty(np.empty_like))
        assert [a.tobytes() for a in op()] == clean
