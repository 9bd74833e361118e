import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxcorr import volume
from voxcorr.jsonable import to_json
from voxcorr.metrics import EvalReport, bdm, endpoint_error, evaluate_pair, squared_norm
from voxcorr.preprocess import otsu_threshold
from voxcorr.volume import BinaryVolume, DisplacementField, ScalarVolume, VolumeError


def mask_of(arr):
    return BinaryVolume(np.asarray(arr, dtype=bool))


def random_mask_pair(seed, shape=(6, 6, 6), p=0.4):
    rng = np.random.default_rng(seed)
    a = rng.random(shape) < p
    b = rng.random(shape) < p
    if not (a | b).any():
        a[0, 0, 0] = True
    return mask_of(a), mask_of(b)


def dice_of(a, b):
    return bdm(a, b)[1]


def set_count_dice(a, b):
    """Dice in percent from the two masks' own counts."""
    return 100.0 * 2.0 * np.count_nonzero(a.mask & b.mask) / (np.count_nonzero(a.mask) + np.count_nonzero(b.mask))


class TestDice:
    def test_identical_masks(self):
        a, _ = random_mask_pair(0)
        assert dice_of(a, a) == 100.0

    def test_disjoint_masks(self):
        a = np.zeros((4, 4, 4), bool)
        b = np.zeros((4, 4, 4), bool)
        a[0, 0, 0] = True
        b[3, 3, 3] = True
        assert dice_of(mask_of(a), mask_of(b)) == 0.0

    def test_hand_arithmetic(self):
        a = np.zeros((4, 4, 4), bool)
        b = np.zeros((4, 4, 4), bool)
        a.ravel()[:8] = True
        b.ravel()[4:12] = True
        assert dice_of(mask_of(a), mask_of(b)) == pytest.approx(50.0)

    def test_symmetry(self):
        a, b = random_mask_pair(1)
        assert dice_of(a, b) == dice_of(b, a)

    def test_dims_mismatch(self):
        with pytest.raises(VolumeError):
            bdm(mask_of(np.zeros((3, 3, 3), bool)), mask_of(np.zeros((4, 4, 4), bool)))

    def test_equals_the_set_count(self):
        # exact: the BDM counts add up to the same integers as |A| + |B|
        for seed in range(100):
            a, b = random_mask_pair(seed, shape=(5, 7, 6), p=0.1 + 0.8 * (seed % 5) / 4)
            assert dice_of(a, b) == set_count_dice(a, b)
            assert dice_of(b, a) == set_count_dice(b, a)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31), p=st.floats(0.01, 0.99))
def test_dice_equals_the_set_count_property(seed, p):
    a, b = random_mask_pair(seed, p=p)
    assert dice_of(a, b) == set_count_dice(a, b)


class TestBdm:
    def test_identical_masks(self):
        a, _ = random_mask_pair(2)
        shares, _ = bdm(a, a)
        assert shares == {"minus1": 0.0, "zero": 100.0, "plus1": 0.0}

    def test_hand_arithmetic(self):
        cad = np.zeros((4, 4, 4), bool)
        cad.ravel()[:8] = True
        xct = cad.copy()
        xct.ravel()[8:10] = True
        shares, _ = bdm(mask_of(xct), mask_of(cad))
        assert shares == pytest.approx({"minus1": 0.0, "zero": 80.0, "plus1": 20.0})

    def test_percentages_partition_union(self):
        for seed in range(50):
            a, b = random_mask_pair(seed)
            shares, _ = bdm(a, b)
            assert abs(sum(shares.values()) - 100.0) <= 1e-9

    def test_antisymmetry(self):
        a, b = random_mask_pair(3)
        shares1, _ = bdm(a, b)
        shares2, _ = bdm(b, a)
        assert shares1["plus1"] == shares2["minus1"]
        assert shares1["minus1"] == shares2["plus1"]

    def test_empty_union_rejected(self):
        e = mask_of(np.zeros((3, 3, 3), bool))
        with pytest.raises(VolumeError):
            bdm(e, e)

    def test_dice_jaccard_identity(self):
        # oracle: Dice% = 200*J/(1+J) with J the BDM match fraction,
        # verified against brute-force set counts
        for seed in range(200):
            a, b = random_mask_pair(seed, p=0.3 + 0.4 * (seed % 3) / 2)
            inter = int((a.mask & b.mask).sum())
            union = int((a.mask | b.mask).sum())
            shares, _ = bdm(a, b)
            assert shares["zero"] == pytest.approx(100.0 * inter / union, abs=1e-12)
            j = shares["zero"] / 100.0
            assert dice_of(a, b) == pytest.approx(200.0 * j / (1.0 + j), abs=1e-9)


class TestEndpointError:
    def test_identical_fields(self):
        u = DisplacementField(np.random.default_rng(0).standard_normal((3, 4, 4, 4)))
        m = mask_of(np.ones((4, 4, 4), bool))
        assert endpoint_error(u, u, m) == (0.0, 0.0)

    def test_constant_offset(self):
        rng = np.random.default_rng(1)
        gt = DisplacementField(rng.standard_normal((3, 4, 4, 4)))
        pred = DisplacementField(gt.data + np.array([1.0, 0, 0])[:, None, None, None])
        m = mask_of(np.ones((4, 4, 4), bool))
        mean, mx = endpoint_error(pred, gt, m)
        assert mean == pytest.approx(1.0)
        assert mx == pytest.approx(1.0)

    def test_mean_bounded_by_max(self):
        rng = np.random.default_rng(2)
        a = DisplacementField(rng.standard_normal((3, 5, 5, 5)))
        b = DisplacementField(rng.standard_normal((3, 5, 5, 5)))
        m = mask_of(rng.random((5, 5, 5)) > 0.5)
        mean, mx = endpoint_error(a, b, m)
        assert mean <= mx

    def test_empty_mask_rejected(self):
        u = DisplacementField(np.zeros((3, 3, 3, 3)))
        with pytest.raises(VolumeError):
            endpoint_error(u, u, mask_of(np.zeros((3, 3, 3), bool)))

    @pytest.mark.parametrize("block", [None, 100], ids=["one-chunk", "chunk-per-plane"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_as_the_three_channel_formula(self, monkeypatch, dtype, block):
        # the per-channel sum, chunk by chunk, against the float64 3-channel
        # arrays it replaced
        if block:
            monkeypatch.setattr(volume, "BLOCK", block)
        rng = np.random.default_rng(3)
        pred = DisplacementField(rng.uniform(-4, 4, (3, 9, 10, 11)).astype(dtype))
        gt = DisplacementField(rng.uniform(-4, 4, (3, 9, 10, 11)).astype(dtype))
        m = mask_of(rng.random((9, 10, 11)) > 0.3)
        d = pred.data.astype(np.float64) - gt.data.astype(np.float64)
        epe = np.sqrt((d * d).sum(axis=0))[m.mask]
        assert endpoint_error(pred, gt, m) == (float(epe.mean()), float(epe.max()))


class TestSquaredNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_as_the_sum_over_channels(self, dtype):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 5, 6, 7)).astype(dtype)
        b = rng.standard_normal((3, 5, 6, 7)).astype(dtype)
        got = squared_norm(a, b)
        d = a.astype(np.float64) - b.astype(np.float64)
        assert got.dtype == np.float64 and got.tobytes() == (d * d).sum(axis=0).tobytes()
        assert squared_norm(a).tobytes() == (a.astype(np.float64) ** 2).sum(axis=0).tobytes()


class TestEvaluatePair:
    def _pair(self, seed=0):
        """Otsu masks of a nominal cube and of a shifted, noisy scan of it."""
        rng = np.random.default_rng(seed)
        cad = np.zeros((12, 12, 12), dtype=np.float32)
        cad[3:9, 3:9, 3:9] = 1.0
        xct = np.roll(cad, 2, axis=2) * 0.8 + rng.normal(0, 0.01, cad.shape).astype(np.float32)
        return otsu_threshold(ScalarVolume(cad))[1], otsu_threshold(ScalarVolume(xct.astype(np.float32)))[1]

    def test_perfect_registration(self):
        cad, xct = self._pair()
        disp = DisplacementField(np.zeros((3, 12, 12, 12), dtype=np.float32))
        report = evaluate_pair(cad, xct, cad, disp, sample_id="t", method="learned")
        assert report.dice_after_pct == 100.0
        assert report.bdm_after["zero"] == 100.0
        assert report.mean_epe_vox is None

    def test_noop_registration_keeps_before_metrics(self):
        cad, xct = self._pair()
        disp = DisplacementField(np.zeros((3, 12, 12, 12), dtype=np.float32))
        report = evaluate_pair(cad, xct, xct, disp)
        assert report.dice_after_pct == pytest.approx(report.dice_before_pct)
        assert report.bdm_after == pytest.approx(report.bdm_before)

    def test_epe_reported_with_ground_truth(self):
        cad, xct = self._pair()
        disp = DisplacementField(np.zeros((3, 12, 12, 12), dtype=np.float32))
        gt = DisplacementField(np.ones((3, 12, 12, 12), dtype=np.float32))
        report = evaluate_pair(cad, xct, xct, disp, gt_disp=gt)
        assert report.mean_epe_vox == pytest.approx(np.sqrt(3.0))
        assert report.max_epe_vox == pytest.approx(np.sqrt(3.0))

    def test_report_json_schema(self):
        cad, xct = self._pair()
        disp = DisplacementField(np.zeros((3, 12, 12, 12), dtype=np.float32))
        report = evaluate_pair(cad, xct, cad, disp, sample_id="s", method="learned", runtime_sec=1.5)
        assert isinstance(report, EvalReport)
        d = to_json(report)
        assert set(d) == {
            "sample_id", "method", "dice_before_pct", "dice_after_pct",
            "bdm_before", "bdm_after", "mean_epe_vox", "max_epe_vox", "runtime_sec",
        }
        assert set(d["bdm_before"]) == {"minus1", "zero", "plus1"}
        assert d["runtime_sec"] == 1.5


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31), p=st.floats(0.1, 0.9))
def test_metric_identities_property(seed, p):
    a, b = random_mask_pair(seed, p=p)
    shares, _ = bdm(a, b)
    assert abs(sum(shares.values()) - 100.0) <= 1e-9
    j = shares["zero"] / 100.0
    assert dice_of(a, b) == pytest.approx(200.0 * j / (1.0 + j), abs=1e-9)
