import sys
from dataclasses import replace

import numpy as np
import pytest

from voxcorr.jsonable import to_json
from voxcorr.model import ModelConfig, init_params, param_shapes
from voxcorr.preprocess import DatasetManifest, SampleEntry
from voxcorr.training import (
    PlateauScheduler,
    TrainConfig,
    TrainingError,
    TrainHistory,
    adam_step,
    sample_training_batch,
    train,
)
from voxcorr.volume import ScalarVolume, VolumeError, warp_array
from voxcorr.vvol import vvol_write

TOY = ModelConfig(enc_features=(2, 2, 2, 2), dec_features=(2, 2, 2, 2, 2, 2), patch_size=16)


class TestAdam:
    def test_first_step_magnitude_near_lr(self):
        p = {"w": np.array([1.0, -2.0])}
        g = {"w": np.array([0.3, -0.7])}
        adam_step(p, g, {}, lr=1e-3, t=1)
        np.testing.assert_allclose(np.abs(p["w"] - [1.0, -2.0]), 1e-3, rtol=1e-4)

    def test_zero_gradient_no_change(self):
        p = {"w": np.array([1.0, 2.0])}
        state = {}
        for t in range(1, 5):
            adam_step(p, {"w": np.zeros(2)}, state, lr=1e-3, t=t)
        np.testing.assert_array_equal(p["w"], [1.0, 2.0])

    def test_two_steps_match_hand_recursion(self):
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        g = 0.5
        # scalar recursion by hand
        m = v = 0.0
        theta = 1.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            theta -= lr * mh / (np.sqrt(vh) + eps)
        p = {"w": np.array([1.0])}
        state = {}
        for t in (1, 2):
            adam_step(p, {"w": np.array([g])}, state, lr=lr, t=t)
        assert p["w"][0] == pytest.approx(theta, rel=1e-12)

    def test_nonfinite_gradient_fails_fast(self):
        with pytest.raises(TrainingError):
            adam_step({"w": np.array([1.0])}, {"w": np.array([np.nan])}, {}, lr=1e-3, t=1)

    def test_overflowing_update_rejected(self):
        # a finite gradient whose step overflows float32
        with np.errstate(over="ignore"), pytest.raises(TrainingError, match="non-finite weights in 'w'"):
            adam_step({"w": np.ones(2, dtype=np.float32)}, {"w": np.ones(2)}, {}, lr=1e39, t=1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_moments_take_the_weights_dtype(self, dtype):
        state = {}
        adam_step({"w": np.ones(3, dtype=dtype)}, {"w": np.full(3, 0.5, dtype=dtype)}, state, lr=1e-3, t=1)
        assert [m.dtype for m in state["w"]] == [dtype, dtype]

    def test_float32_moments_track_a_float64_reference(self):
        # 20 steps on the gradient of a quadratic: float32 weights and moments
        # stay within 1e-5 relative of the same run in float64
        rng = np.random.default_rng(11)
        w0 = rng.uniform(0.5, 1.5, 64)
        target = rng.uniform(-1.0, 1.0, 64)
        scales = rng.uniform(0.5, 2.0, 20)
        runs = {}
        for dtype in (np.float32, np.float64):
            p = {"w": w0.astype(dtype)}
            state = {}
            for t, scale in enumerate(scales, 1):
                adam_step(p, {"w": (p["w"] - target.astype(dtype)) * scale}, state, lr=1e-2, t=t)
            runs[dtype] = p["w"]
        assert runs[np.float32].dtype == np.float32
        np.testing.assert_allclose(runs[np.float32], runs[np.float64], rtol=1e-5)


class TestPlateauScheduler:
    def test_never_improving_sequence(self):
        epochs, patience = 50, 10
        sched = PlateauScheduler(TrainConfig(lr=1e-3, plateau_patience=patience, min_lr=1e-5), baseline=1.0)
        lrs = [sched.step(1.0) for _ in range(epochs)]
        # a cut after every `patience` epochs without improvement, the last at epoch 50
        assert lrs == pytest.approx([1e-3 * 0.5 ** (e // patience) for e in range(1, epochs + 1)])

    def test_floored_at_min_lr(self):
        sched = PlateauScheduler(TrainConfig(lr=2e-5, plateau_patience=1, min_lr=1e-5), baseline=1.0)
        for _ in range(10):
            sched.step(1.0)
        assert sched.lr == 1e-5

    def test_improvement_resets_counter(self):
        sched = PlateauScheduler(TrainConfig(lr=1e-3, plateau_patience=3, min_lr=1e-5), baseline=1.0)
        losses = [0.9, 0.95, 0.95, 0.8, 0.85, 0.85, 0.85]
        lrs = [sched.step(v) for v in losses]
        assert lrs == [1e-3] * 6 + [5e-4]  # only the trailing three non-improvements cut


def make_manifest(tmp_path, dims=32, n=1, seed=0):
    """Tiny synthetic dataset in tmp_path: same pair under train/val/test ids."""
    from voxcorr.tpms import DeformSpec, DegradeSpec, TpmsSpec, synthesize_sample

    spec = TpmsSpec(part_extent=dims * 0.08, voxel_size=80.0, band_halfwidth=0.69)
    cad, xct, gt = synthesize_sample(spec, -0.3, DeformSpec(0.99, 1.5, 8.0), DegradeSpec(), seed)
    cad_vol = ScalarVolume(cad.mask.astype(np.float32), cad.voxel_size)
    entries = []
    for i, split in enumerate(["train", "val", "test"][: max(3, n)]):
        d = tmp_path / f"s{i}"
        d.mkdir()
        vvol_write(d / "cad.vvol", cad_vol)
        vvol_write(d / "xct.vvol", xct)
        vvol_write(d / "gt_disp.vvol", gt)
        entries.append(SampleEntry(f"s{i}", -0.3, split))
    return DatasetManifest(entries, (dims, dims, dims), created_at="x")


class TestSampling:
    def test_batch_shapes_and_bounds(self, tmp_path):
        manifest = make_manifest(tmp_path)
        rng = np.random.default_rng(0)
        batch = sample_training_batch(manifest, tmp_path, "train", 4, 16, rng)
        assert len(batch) == 4
        for moving, fixed in batch:
            assert moving.shape == (16, 16, 16)
            assert fixed.shape == (16, 16, 16)

    def test_deterministic_given_seed(self, tmp_path):
        manifest = make_manifest(tmp_path)
        b1 = sample_training_batch(manifest, tmp_path, "train", 3, 16, np.random.default_rng(7))
        b2 = sample_training_batch(manifest, tmp_path, "train", 3, 16, np.random.default_rng(7))
        for (m1, f1), (m2, f2) in zip(b1, b2):
            np.testing.assert_array_equal(m1, m2)
            np.testing.assert_array_equal(f1, f2)

    def test_patch_larger_than_volume_rejected(self, tmp_path):
        manifest = make_manifest(tmp_path)
        with pytest.raises(VolumeError):
            sample_training_batch(manifest, tmp_path, "train", 1, 64, np.random.default_rng(0))

    def test_empty_split_rejected(self, tmp_path):
        manifest = make_manifest(tmp_path)
        manifest.samples = [s for s in manifest.samples if s.split != "val"]
        with pytest.raises(VolumeError):
            sample_training_batch(manifest, tmp_path, "val", 1, 16, np.random.default_rng(0))


class TestTrain:
    def test_loss_decreases_on_tiny_run(self, tmp_path):
        manifest = make_manifest(tmp_path)
        cfg = TrainConfig(
            lr=1e-3, epochs=6, steps_per_epoch=4, batch_size=2, val_batch_size=2,
            ncc_window=5,
        )
        model_cfg = ModelConfig(
            enc_features=(4, 4, 4, 4), dec_features=(4, 4, 4, 4, 4, 4), patch_size=16
        )
        params, history = train(manifest, tmp_path, model_cfg, cfg, seed=1)
        assert len(history.train_loss) == 6
        assert len(history.val_loss) == 6
        assert len(history.lr) == 6
        # val patches are fixed, so the val trajectory is the stable signal
        assert history.val_loss[-1] < history.val_loss[0]

    def test_history_deterministic(self, tmp_path):
        manifest = make_manifest(tmp_path)
        cfg = TrainConfig(lr=1e-3, epochs=2, steps_per_epoch=2, batch_size=2, val_batch_size=1, ncc_window=5)
        model_cfg = ModelConfig(enc_features=(2, 2, 2, 2), dec_features=(2, 2, 2, 2, 2, 2), patch_size=16)
        p1, h1 = train(manifest, tmp_path, model_cfg, cfg, seed=3)
        p2, h2 = train(manifest, tmp_path, model_cfg, cfg, seed=3)
        assert to_json(h1) == {**to_json(h2), "wall_time": h1.wall_time}
        for name in p1:
            assert p1[name].tobytes() == p2[name].tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_schedule_baseline_is_the_untrained_networks_val_loss(self, tmp_path, monkeypatch, seed):
        # train takes the baseline from the zero field, without a forward pass;
        # it must be the value _batch_eval gives the initial weights
        import voxcorr.training

        baselines = []

        class Recording(PlateauScheduler):
            def __init__(self, cfg, baseline):
                baselines.append(baseline)
                super().__init__(cfg, baseline)

        monkeypatch.setattr(voxcorr.training, "PlateauScheduler", Recording)
        manifest = make_manifest(tmp_path)
        cfg = TrainConfig(epochs=1, steps_per_epoch=1, batch_size=1, val_batch_size=3, ncc_window=5)
        train(manifest, tmp_path, TOY, cfg, seed=seed)
        val = sample_training_batch(manifest, tmp_path, "val", 3, TOY.patch_size, np.random.default_rng(seed + 1))
        params = init_params(TOY, np.random.default_rng(seed), dtype=np.float32)
        assert baselines == [voxcorr.training._batch_eval(params, TOY, val, cfg.lambda_smooth, cfg.ncc_window)]

    def test_nonfinite_validation_loss_rejected(self, tmp_path, monkeypatch):
        import voxcorr.training

        manifest = make_manifest(tmp_path)
        # the baseline is the zero field's loss; _batch_eval runs first at epoch 1
        monkeypatch.setattr(voxcorr.training, "_batch_eval", lambda *args: float("nan"))
        cfg = TrainConfig(epochs=2, steps_per_epoch=2, batch_size=1, val_batch_size=1, ncc_window=5)
        with pytest.raises(TrainingError, match="non-finite validation loss at epoch 1, step 2"):
            train(manifest, tmp_path, TOY, cfg, seed=0)

    def test_requires_nonempty_splits(self, tmp_path):
        manifest = make_manifest(tmp_path)
        manifest.samples = [s for s in manifest.samples if s.split == "train"]
        with pytest.raises(VolumeError):
            train(manifest, tmp_path, TOY, TrainConfig(epochs=1), seed=0)


class TestSlidingRegister:
    def test_zero_params_identity(self, tmp_path):
        from voxcorr.inference import sliding_register

        manifest = make_manifest(tmp_path)
        from voxcorr.vvol import vvol_read

        moving = vvol_read(tmp_path / "s0" / "xct.vvol")
        fixed = vvol_read(tmp_path / "s0" / "cad.vvol")
        params = {k: np.zeros(s, dtype=np.float32) for k, s in param_shapes(TOY).items()}
        moved, disp = sliding_register(params, TOY, moving, fixed, stride=8)
        assert np.abs(disp.data).max() == 0.0
        np.testing.assert_array_equal(moved.data, moving.data)
        # standard-normal values make b - a inexact in the sampler's lerps
        rng = np.random.default_rng(6)
        for dtype in (np.float32, np.float64):
            moving, fixed = (ScalarVolume(rng.standard_normal((24, 20, 16)).astype(dtype)) for _ in range(2))
            moved, _ = sliding_register(params, TOY, moving, fixed, stride=8)
            assert moved.data.dtype == dtype and moved.data.tobytes() == moving.data.tobytes()

    def test_single_patch_equals_direct_forward(self, tmp_path):
        from voxcorr.inference import sliding_register
        from voxcorr.model import model_forward
        from voxcorr.vvol import vvol_read

        manifest = make_manifest(tmp_path, dims=32)
        moving = vvol_read(tmp_path / "s0" / "xct.vvol")
        fixed = vvol_read(tmp_path / "s0" / "cad.vvol")
        rng = np.random.default_rng(5)
        params = init_params(TOY, rng, dtype=np.float32)
        params["head.b"] = np.array([0.5, -0.25, 0.1], dtype=np.float32)
        cfg = replace(TOY, patch_size=32)
        moved, disp = sliding_register(params, cfg, moving, fixed, stride=32)
        mdata = moving.data.astype(np.float32)
        d2, _, _ = model_forward(params, cfg, mdata, fixed.data.astype(np.float32), want_tape=False)
        np.testing.assert_allclose(moved.data, warp_array(mdata, d2), atol=1e-6)
        np.testing.assert_allclose(disp.data, d2, atol=1e-6)

    def test_one_warp_per_call(self, tmp_path, monkeypatch):
        from voxcorr.inference import sliding_register
        from voxcorr.vvol import vvol_read

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return warp_array(*args, **kwargs)

        manifest = make_manifest(tmp_path, dims=32)
        moving = vvol_read(tmp_path / "s0" / "xct.vvol")
        fixed = vvol_read(tmp_path / "s0" / "cad.vvol")
        params = init_params(TOY, np.random.default_rng(6), dtype=np.float32)
        for mod in [m for name, m in sys.modules.items() if name.startswith("voxcorr")]:
            if getattr(mod, "warp_array", None) is warp_array:
                monkeypatch.setattr(mod, "warp_array", counting)
        # 27 patches of 16^3; the field is blended once, then the scan is warped once
        sliding_register(params, TOY, moving, fixed, stride=8)
        assert len(calls) == 1
