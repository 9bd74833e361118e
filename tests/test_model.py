import math
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

import voxcorr.model
from voxcorr.layers import conv3d_forward, upconv3d_forward, upsample3d_forward
from voxcorr.losses import total_loss
from voxcorr.model import (
    CheckpointError,
    ModelConfig,
    checkpoint_load,
    checkpoint_save,
    init_params,
    model_backward,
    model_forward,
    param_shapes,
)
from voxcorr.volume import VolumeError, warp_array
from voxcorr.vvol import read_raw, write_raw

TOY = ModelConfig(enc_features=(2, 2, 2, 2), dec_features=(2, 2, 2, 2, 2, 2), patch_size=16)


def toy_params(seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    params = init_params(TOY, rng, dtype=dtype)
    # small nonzero head so the warp operates away from lattice kinks
    params["head.w"] = 0.02 * rng.standard_normal(params["head.w"].shape).astype(dtype)
    params["head.b"] = rng.uniform(0.01, 0.03, size=3).astype(dtype)
    return params


def tape_arrays(tape) -> list[np.ndarray]:
    """Every array reachable from a tape through its dicts, lists and tuples."""
    arrays, todo = [], [tape]
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, (dict, list, tuple)):
            todo.extend(obj.values() if isinstance(obj, dict) else obj)
    return arrays


class TestModelConfig:
    def test_defaults_match_architecture(self):
        cfg = ModelConfig()
        assert cfg.enc_features == (32, 32, 32, 32)
        assert cfg.dec_features == (32, 32, 32, 32, 32, 16)
        assert cfg.pool_factor == 16

    def test_patch_divisibility_enforced(self):
        with pytest.raises(VolumeError):
            ModelConfig(patch_size=24)

    @pytest.mark.parametrize("slope", [1.5, float("nan"), float("inf"), float("-inf"), 0.0, -0.5])
    def test_leaky_slope_must_be_finite_and_at_most_1(self, slope):
        # at slope <= 0 the output's sign is not the input's, which model_backward reads the mask from
        with pytest.raises(VolumeError, match="leaky_slope"):
            ModelConfig(leaky_slope=slope)

    @pytest.mark.parametrize("slope", [1, 0.2, 1e-3])
    def test_leaky_slope_accepted(self, slope):
        assert ModelConfig(leaky_slope=slope).leaky_slope == float(slope)

    def test_param_count(self):
        shapes = param_shapes(ModelConfig())
        assert len(shapes) == 2 * (4 + 6 + 1)
        assert shapes["head.w"] == (3, 16, 3, 3, 3)
        assert shapes["dec0.w"][1] == 64  # upsampled bottleneck + skip

    def test_json_roundtrip(self):
        cfg = ModelConfig(enc_features=(4, 4, 4, 4), dec_features=(4, 4, 4, 4, 4, 2), patch_size=32)
        assert ModelConfig.from_json(cfg.to_json()) == cfg


class TestModelForward:
    def test_zero_params_identity(self):
        rng = np.random.default_rng(1)
        params = {k: np.zeros(s, dtype=np.float64) for k, s in param_shapes(TOY).items()}
        moving = rng.uniform(0, 1, (16, 16, 16))
        fixed = rng.uniform(0, 1, (16, 16, 16))
        disp, moved, _ = model_forward(params, TOY, moving, fixed)
        assert np.all(disp == 0.0)
        np.testing.assert_array_equal(moved, moving)

    def test_output_shapes(self):
        rng = np.random.default_rng(2)
        params = toy_params()
        moving = rng.uniform(0, 1, (16, 16, 16))
        fixed = rng.uniform(0, 1, (16, 16, 16))
        disp, moved, tape = model_forward(params, TOY, moving, fixed)
        assert disp.shape == (3, 16, 16, 16)
        assert moved.shape == (16, 16, 16)
        assert tape is not None

    def test_indivisible_patch_rejected(self):
        params = toy_params()
        with pytest.raises(VolumeError):
            model_forward(params, TOY, np.zeros((12, 12, 12)), np.zeros((12, 12, 12)))

    def test_inference_path_matches_training_path(self):
        rng = np.random.default_rng(3)
        params = toy_params(seed=4)
        moving = rng.uniform(0, 1, (16, 16, 16))
        fixed = rng.uniform(0, 1, (16, 16, 16))
        d1, m1, _ = model_forward(params, TOY, moving, fixed, want_tape=True)
        d2, m2, tape = model_forward(params, TOY, moving, fixed, want_tape=False)
        assert m2 is None and tape is None
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(m1, warp_array(moving, d2))

    @pytest.mark.parametrize("kernel_size", [1, 3, 5])
    def test_matches_upsample_concat_decoder(self, monkeypatch, kernel_size):
        cfg = replace(TOY, kernel_size=kernel_size)
        rng = np.random.default_rng(14)
        params = init_params(cfg, rng, dtype=np.float64)
        params["head.w"] = rng.standard_normal(params["head.w"].shape)
        moving = rng.uniform(0, 1, (16, 16, 16))
        fixed = rng.uniform(0, 1, (16, 16, 16))
        disp, _, _ = model_forward(params, cfg, moving, fixed, want_tape=False)

        def upsample_concat_conv(coarse, skip, kernel, bias, slope):
            return conv3d_forward(np.concatenate([upsample3d_forward(coarse, 2), skip]), kernel, bias, slope=slope)

        monkeypatch.setattr(voxcorr.model, "upconv3d_forward", upsample_concat_conv)
        ref, _, _ = model_forward(params, cfg, moving, fixed, want_tape=False)
        np.testing.assert_allclose(disp, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_tape_holds_no_concatenated_decoder_input(self):
        # patch 32 at the default widths: dec3's input would be 32 upsampled + 32 skip channels
        cfg = ModelConfig(patch_size=32)
        rng = np.random.default_rng(15)
        params = init_params(cfg, rng)
        patch = rng.uniform(0, 1, (32, 32, 32)).astype(np.float32)
        _, _, tape = model_forward(params, cfg, patch, patch)
        shapes = [a.shape for a in tape_arrays(tape)]
        assert (32, 32, 32, 32) in shapes  # the walk reaches the full-resolution activations
        assert not [s for s in shapes if s[0] == 64 and s[1:] == (32, 32, 32)]

    def test_tape_holds_no_boolean_array(self):
        # the activation masks are read off the activated outputs, which the tape holds anyway
        params = toy_params(seed=17, dtype=np.float32)
        patch = np.random.default_rng(17).uniform(0, 1, (16, 16, 16)).astype(np.float32)
        _, _, tape = model_forward(params, TOY, patch, patch)
        dtypes = {a.dtype for a in tape_arrays(tape)}
        assert np.dtype(np.float32) in dtypes and np.dtype(bool) not in dtypes

    def test_float32_forward_and_loss_stay_float32(self):
        # the warp, its gradients on the tape and the loss's gradients keep the model's precision
        params = toy_params(seed=18, dtype=np.float32)
        moving, fixed = np.random.default_rng(18).uniform(0, 1, (2, 16, 16, 16)).astype(np.float32)
        disp, moved, tape = model_forward(params, TOY, moving, fixed)
        _, d_moved, d_disp = total_loss(moved, fixed, disp, 0.05, 5)
        arrays = tape_arrays(tape)
        assert len(arrays) > 3  # the walk reaches past the warp's three gradients
        assert {a.dtype for a in [*arrays, disp, moved, d_moved, d_disp]} == {np.dtype(np.float32)}

    def test_inference_forward_keeps_no_tape(self, monkeypatch):
        # without a tape no block's input (nor an upconv's skip) is alive once the head runs
        params = toy_params(seed=16, dtype=np.float32)
        patch = np.random.default_rng(16).uniform(0, 1, (16, 16, 16)).astype(np.float32)
        inputs, alive_at_head = [], []

        def conv(x, kernel, bias, slope=None):
            if kernel is params["head.w"]:
                alive_at_head.append(sum(any(r() is not None for r in refs) for refs in inputs))
            else:
                inputs.append([weakref.ref(x)])
            return conv3d_forward(x, kernel, bias, slope=slope)

        def upconv(coarse, skip, kernel, bias, slope):
            inputs.append([weakref.ref(coarse), weakref.ref(skip)])
            return upconv3d_forward(coarse, skip, kernel, bias, slope)

        monkeypatch.setattr(voxcorr.model, "conv3d_forward", conv)
        monkeypatch.setattr(voxcorr.model, "upconv3d_forward", upconv)
        for want_tape in (False, True):
            inputs.clear()
            model_forward(params, TOY, patch, patch, want_tape=want_tape)
        assert len(inputs) == 10
        assert alive_at_head == [0, 10]  # the taped run shows the probe sees live inputs

    def test_returned_fields_stay_the_callers(self):
        params = toy_params(seed=19, dtype=np.float32)
        a, b, c, d = np.random.default_rng(19).uniform(0, 1, (4, 16, 16, 16)).astype(np.float32)
        first, _, _ = model_forward(params, TOY, a, b, want_tape=False)
        kept = first.copy()
        second, _, _ = model_forward(params, TOY, c, d, want_tape=False)
        assert not np.array_equal(second, kept)  # other data, another field
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, second)

    def test_threads_match_serial(self):
        # the forward keeps no module state: concurrent calls on two models
        # give the bits of serial ones
        models = [(TOY, toy_params(seed=20, dtype=np.float32))]
        wide = replace(TOY, dec_features=(4, 2, 2, 2, 2, 2))
        models.append((wide, init_params(wide, np.random.default_rng(23), dtype=np.float32)))
        rng = np.random.default_rng(21)
        pairs = [rng.uniform(0, 1, (2, 16, 16, 16)).astype(np.float32) for _ in range(4)]
        serial = [[model_forward(p, cfg, m, f, want_tape=False)[0].tobytes() for m, f in pairs] for cfg, p in models]
        results = {}

        def work(t):
            cfg, params = models[t % 2]
            out = [model_forward(params, cfg, m, f, want_tape=False)[0].tobytes() for m, f in pairs for _ in range(2)]
            results[t] = out[::2] if out[::2] == out[1::2] else None

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert results == {t: serial[t % 2] for t in range(6)}


class TestFullModelGradients:
    def test_end_to_end_gradient_check(self):
        rng = np.random.default_rng(5)
        params = toy_params(seed=6)
        moving = rng.uniform(0, 1, (16, 16, 16))
        fixed = rng.uniform(0, 1, (16, 16, 16))
        lam, window = 0.05, 3

        def run_loss():
            disp, _, _ = model_forward(params, TOY, moving, fixed, want_tape=False)
            return total_loss(warp_array(moving, disp), fixed, disp, lam, window)[0]

        disp, moved, tape = model_forward(params, TOY, moving, fixed)
        base, d_moved, d_disp = total_loss(moved, fixed, disp, lam, window)
        grads = model_backward(tape, d_moved, d_disp)

        # small step: the composed loss has strong curvature, so larger
        # perturbations are dominated by O(h^2) truncation, not gradient error
        h = 3e-6
        checked = 0
        for name in param_shapes(TOY):
            flat = params[name].ravel()
            g = grads[name].ravel()
            idxs = rng.choice(flat.size, size=min(3, flat.size), replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + h
                up = run_loss()
                flat[i] = orig - h
                dn = run_loss()
                flat[i] = orig
                fd = (up - dn) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-3, abs=1e-8), name
                checked += 1
        assert checked >= 50  # every tensor sampled (biases have few entries)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        params = init_params(TOY, rng, dtype=np.float32)
        p = tmp_path / "m.vmck"
        checkpoint_save(params, TOY, p)
        loaded, cfg = checkpoint_load(p)
        assert cfg == TOY
        for name in params:
            assert loaded[name].tobytes() == params[name].tobytes()
        data, _, meta = read_raw(p)  # one row of every tensor, the config as metadata
        assert data.shape == (1, 1, 1, sum(math.prod(s) for s in param_shapes(TOY).values()))
        assert meta == TOY.to_json()

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(8)
        params = init_params(TOY, rng)
        p = tmp_path / "m.vmck"
        checkpoint_save(params, TOY, p)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(CheckpointError):
            checkpoint_load(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "m.vmck"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            checkpoint_load(p)

    def test_wrong_version_rejected(self, tmp_path):
        p = tmp_path / "m.vmck"
        checkpoint_save(init_params(TOY, np.random.default_rng(8)), TOY, p)
        blob = bytearray(p.read_bytes())
        blob[4] = 2
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="unsupported version 2"):
            checkpoint_load(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "m.vmck"
        checkpoint_save(init_params(TOY, np.random.default_rng(8)), TOY, p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            checkpoint_load(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_weights_rejected(self, tmp_path, bad):
        params = init_params(TOY, np.random.default_rng(8), dtype=np.float32)
        params["dec2.w"].flat[5] = bad
        p = tmp_path / "m.vmck"
        checkpoint_save(params, TOY, p)
        with pytest.raises(CheckpointError, match="dec2.w"):
            checkpoint_load(p)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.pop("kernel_size"),
            lambda d: d.update(kernel_sise=3),
            lambda d: d.update(patch_size="16"),
            lambda d: d.update(kernel_size=2),
            lambda d: d.update(leaky_slope=1.5),
            lambda d: d.update(leaky_slope=float("nan")),
            lambda d: d.update(leaky_slope=0.0),
            lambda d: d.update(leaky_slope=-0.5),
            lambda d: d.update(enc_features=[2, 0, 2, 2]),
        ],
        ids=["missing-key", "unknown-key", "wrong-type", "invalid-value", "slope-above-1", "slope-nan",
             "slope-0", "slope-negative", "zero-features"],
    )
    def test_invalid_embedded_config_rejected(self, tmp_path, edit):
        cfg = TOY.to_json()
        edit(cfg)
        p = tmp_path / "m.vmck"
        write_raw(p, np.zeros((1, 1, 1), dtype=np.float32), meta=cfg)
        with pytest.raises(CheckpointError, match="invalid model config"):
            checkpoint_load(p)

    def test_payload_length_mismatch_rejected(self, tmp_path):
        p = tmp_path / "m.vmck"
        checkpoint_save(init_params(TOY, np.random.default_rng(9)), TOY, p)
        data, _, _ = read_raw(p)
        other = replace(TOY, dec_features=(2, 2, 2, 2, 2, 4))  # the same payload, another architecture
        write_raw(p, data, meta=other.to_json())
        with pytest.raises(CheckpointError, match=f"payload has {data.size} values"):
            checkpoint_load(p)
