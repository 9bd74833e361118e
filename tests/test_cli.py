import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

import voxcorr.cli
import voxcorr.training
from voxcorr.cli import FLAGS, METHODS, _build_parser, _resolve_config, main
from voxcorr.config import RunConfig
from voxcorr.jsonable import read_json, to_json
from voxcorr.model import ModelConfig, checkpoint_save, init_params
from voxcorr.preprocess import assign_splits, otsu_threshold
from voxcorr.volume import DisplacementField, warp
from voxcorr.vvol import read_raw, vvol_read, vvol_write, write_raw


def file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small end-to-end workspace: 3 samples at 32^3, tiny training run."""
    ws = tmp_path_factory.mktemp("ws")
    rc = main(
        [
            "generate", "--workspace", str(ws), "--seed", "3",
            "--c-values", "0,-0.3,-0.6", "--voxel-um", "160", "--extent-mm", "5.12",
        ]
    )
    assert rc == 0
    rc = main(["preprocess", "--workspace", str(ws)])
    assert rc == 0
    rc = main(
        [
            "train", "--workspace", str(ws), "--seed", "3", "--epochs", "2",
            "--steps-per-epoch", "2", "--batch-size", "2", "--patch-size", "16",
            "--ncc-window", "5",
        ]
    )
    assert rc == 0
    return ws


class TestGenerate:
    def test_default_sweep_has_seven_samples(self, tmp_path):
        rc = main(
            ["generate", "--workspace", str(tmp_path), "--voxel-um", "320", "--extent-mm", "5.12"]
        )
        assert rc == 0
        assert len(list((tmp_path / "raw").glob("*/sample.json"))) == 7

    def test_single_c_value(self, tmp_path):
        rc = main(
            ["generate", "--workspace", str(tmp_path), "--c-values", "0",
             "--voxel-um", "320", "--extent-mm", "5.12"]
        )
        assert rc == 0
        assert len(list((tmp_path / "raw").glob("*/sample.json"))) == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["generate", "--seed", "11", "--c-values", "0,-0.2",
                "--voxel-um", "320", "--extent-mm", "5.12"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--workspace", str(a)]) == 0
        assert main(args + ["--workspace", str(b)]) == 0
        for rel in ("raw/c0/cad.vvol", "raw/c0/xct.vvol", "raw/c0/gt_disp.vvol",
                    "raw/c-0.2/xct.vvol", "raw/c-0.2/gt_disp.vvol"):
            assert file_hash(a / rel) == file_hash(b / rel), rel


    def test_colliding_sample_ids_exit_2(self, tmp_path, capsys):
        # both values print as c-0.3, so one sample would silently replace the other
        assert main(["generate", "--workspace", str(tmp_path / "w"), "--c-values", "0,-0.3,-0.3000001",
                     "--extent-mm", "2.56"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "-0.3 and -0.3000001" in err[0]
        assert not (tmp_path / "w").exists()


class TestPreprocess:
    def test_builds_manifest_with_splits(self, workspace):
        manifest = json.loads((workspace / "dataset" / "manifest.json").read_text())
        splits = {s["id"]: s["split"] for s in manifest["samples"]}
        assert all(set(s) == {"id", "c_param", "split"} for s in manifest["samples"])  # no paths
        assert set(splits.values()) == {"train", "val", "test"}
        assert splits["c-0.6"] == "test"

    def test_paper_split_assignment(self):
        sweep = [0.0, -0.1, -0.2, -0.3, -0.4, -0.5, -0.6]
        by_c = assign_splits(sweep)
        assert [by_c[c] for c in sweep] == [
            "train", "val", "train", "train", "val", "train", "test",
        ]

    @pytest.mark.parametrize("n", range(3, 11))
    def test_every_split_non_empty(self, n):
        sweep = [-0.1 * i for i in range(n)]
        by_c = assign_splits(sweep)
        assert sorted(by_c) == sorted(sweep)
        assert sorted(set(by_c.values())) == ["test", "train", "val"]
        assert by_c[min(sweep)] == "test"

    def test_writes_the_configured_manifest(self, tmp_path, monkeypatch, capsys):
        # the sample folders go beside the manifest that every later stage reads
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text(json.dumps({"workspace": "ws", "manifest": "elsewhere/m.json"}))
        cfg = ["--config", "run.json"]
        assert main(["generate", *cfg, "--c-values", "0,-0.3,-0.6", "--extent-mm", "2.56"]) == 0
        assert main(["preprocess", *cfg]) == 0
        assert "manifest: elsewhere/m.json" in capsys.readouterr().out
        assert (tmp_path / "elsewhere" / "m.json").is_file()
        assert (tmp_path / "elsewhere" / "c-0.6" / "cad.vvol").is_file()
        assert not (tmp_path / "ws" / "dataset").exists()
        assert main(["baseline", *cfg, "--node-spacing", "8", "--window-halfsize", "5", "--search-radius", "3"]) == 0
        assert main(["evaluate", *cfg, "--method", "baseline"]) == 0
        assert (tmp_path / "ws" / "reports" / "c-0.6" / "baseline" / "report.json").is_file()

    def test_volumes_normalized(self, workspace):
        manifest = json.loads((workspace / "dataset" / "manifest.json").read_text())
        vol = vvol_read(workspace / "dataset" / manifest["samples"][0]["id"] / "xct.vvol")
        assert vol.data.min() == 0.0
        assert vol.data.max() == 1.0


class TestTrain:
    def test_writes_checkpoint_and_history(self, workspace):
        assert (workspace / "checkpoint.vmck").exists()
        hist = json.loads((workspace / "history.json").read_text())
        assert len(hist["train_loss"]) == 2
        assert len(hist["val_loss"]) == 2

    def test_diverged_training_exits_1_with_one_error_line(self, workspace, tmp_path, capsys):
        # at learning rate 1e30 the second step's gradient is not finite; it used to end in a traceback
        argv = ["train", "--workspace", str(tmp_path), "--manifest", str(workspace / "dataset" / "manifest.json"),
                "--lr", "1e30", "--patch-size", "16", "--epochs", "1", "--steps-per-epoch", "2"]
        assert "non-finite" in exit_1_error(argv, capsys)
        assert not any(tmp_path.iterdir())

    def test_overflowing_update_exits_1_at_the_step(self, workspace, tmp_path, capsys):
        # at learning rate 1e39 the first update overflows the float32 weights; the run used to log
        # val +nan and then fail at checkpoint_save with a message about the file
        argv = ["train", "--workspace", str(tmp_path), "--manifest", str(workspace / "dataset" / "manifest.json"),
                "--lr", "1e39", "--patch-size", "16", "--epochs", "1", "--steps-per-epoch", "1"]
        err = exit_1_error(argv, capsys)
        assert "epoch 1, step 1" in err and "non-finite weights" in err
        assert not any(tmp_path.iterdir())

    def test_missing_manifest_exits_2(self, tmp_path):
        assert main(["train", "--workspace", str(tmp_path)]) == 2

    def test_run_log_tells_two_smoothness_weights_apart(self, workspace, tmp_path):
        argv = ["train", "--workspace", str(tmp_path), "--manifest", str(workspace / "dataset" / "manifest.json"),
                "--epochs", "1", "--steps-per-epoch", "1", "--batch-size", "1", "--patch-size", "16",
                "--ncc-window", "5"]
        for lam in ("0.05", "0.5"):
            assert main([*argv, "--lambda-smooth", lam]) == 0
        records = [json.loads(line) for line in (tmp_path / "run_log.jsonl").read_text().splitlines()]
        assert [r["config"]["train"]["lambda_smooth"] for r in records] == [0.05, 0.5]
        assert all(r["stage"] == "train" and r["args"] == {} and r["params"] == {} for r in records)


class TestRegister:
    def test_without_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        rc = main(
            ["register", "--workspace", str(workspace), "--checkpoint", str(tmp_path / "none.vmck")]
        )
        assert rc == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_register_test_sample(self, workspace):
        rc = main(["register", "--workspace", str(workspace), "--stride", "8"])
        assert rc == 0
        out = workspace / "registered" / "c-0.6"
        assert (out / "moved.vvol").exists()
        assert (out / "disp.vvol").exists()
        meta = json.loads((out / "register.json").read_text())
        assert meta["runtime_sec"] > 0

    def test_moved_is_scan_warped_by_field(self, workspace):
        assert main(["register", "--workspace", str(workspace), "--sample", "c-0.6"]) == 0
        out = workspace / "registered" / "c-0.6"
        moved = vvol_read(out / "moved.vvol")
        ref = warp(vvol_read(workspace / "dataset" / "c-0.6" / "xct.vvol"), vvol_read(out / "disp.vvol"))
        assert moved.data.dtype == ref.data.dtype
        assert moved.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("flag, value", [("--stride", "0"), ("--stride", "-3"), ("--stride", "17")])
    def test_bad_blend_value_exits_nonzero(self, workspace, tmp_path, capsys, flag, value):
        # the checkpoint's patch is 16: the stride is checked before any sample is read
        manifest = workspace / "dataset" / "manifest.json"
        rc = main(["register", "--workspace", str(tmp_path), "--manifest", str(manifest),
                   "--checkpoint", str(workspace / "checkpoint.vmck"), flag, value])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and flag[2:] in err[0]
        assert not (tmp_path / "registered").exists()

    def test_unknown_sample_exits_2(self, workspace):
        rc = main(["register", "--workspace", str(workspace), "--sample", "nope"])
        assert rc == 2

    @pytest.mark.parametrize(
        "damage, needle",
        [
            (lambda b: b[:-16], "truncated"),
            (lambda b: b"VMCK" + b[4:], "bad magic"),
            (lambda b: b[:4] + b"\x02" + b[5:], "unsupported version 2"),
            (lambda b: b + b"\x00", "trailing"),
            (lambda b: b[:-4] + np.float32(np.nan).tobytes(), "'head.b' contains non-finite"),
        ],
        ids=["truncated", "bad-magic", "wrong-version", "trailing-bytes", "nan-weight"],
    )
    def test_damaged_checkpoint_exits_2_with_one_error_line(self, workspace, tmp_path, capsys, damage, needle):
        ckpt = tmp_path / "damaged.vmck"
        ckpt.write_bytes(damage((workspace / "checkpoint.vmck").read_bytes()))
        assert main(["register", "--workspace", str(workspace), "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]


    @pytest.mark.parametrize("slope", [0.0, -0.5])
    def test_checkpoint_with_slope_at_most_0_exits_2(self, workspace, tmp_path, capsys, slope):
        # model_backward reads the activation masks off the outputs, which needs a positive slope
        data, _, meta = read_raw(workspace / "checkpoint.vmck")
        ckpt = tmp_path / "slope.vmck"
        write_raw(ckpt, data, meta={**meta, "leaky_slope": slope})
        assert main(["register", "--workspace", str(workspace), "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "leaky_slope" in err[0]


class TestBaseline:
    def test_baseline_runs_on_test_sample(self, workspace):
        rc = main(
            ["baseline", "--workspace", str(workspace),
             "--node-spacing", "8", "--window-halfsize", "5", "--search-radius", "3",
             "--levels", "1"]
        )
        assert rc == 0
        out = workspace / "baseline" / "c-0.6"
        assert (out / "moved.vvol").exists()
        nodes = json.loads((out / "nodes.json").read_text())
        assert nodes["lattice_dims"][0] >= 1

    def test_run_log_records_node_statistics(self, workspace):
        argv = ["baseline", "--workspace", str(workspace), "--node-spacing", "8",
                "--window-halfsize", "5", "--search-radius", "3", "--levels", "1"]
        assert main(argv) == 0
        log = (workspace / "run_log.jsonl").read_text().strip().splitlines()
        record = json.loads(log[-1])
        assert record["stage"] == "baseline"
        (stats,) = record["params"]["samples"]
        nodes = json.loads((workspace / "baseline" / "c-0.6" / "nodes.json").read_text())
        corr = np.array(nodes["correlations"])
        assert stats["sample"] == "c-0.6"
        assert stats["nodes"] == len(corr) > 1
        assert stats["valid_node_pct"] == pytest.approx(100.0 * np.mean(nodes["valid"]))
        assert stats["min_peak_ncc"] == pytest.approx(corr.min())
        assert stats["median_peak_ncc"] == pytest.approx(np.median(corr))
        assert 0 < stats["runtime_sec"] <= record["duration_sec"]


@pytest.fixture(scope="module")
def small_workspace(tmp_path_factory):
    """3 samples at 24^3, under the default DVC margin (2 * 14 + 1) and patch 32,
    with a patch-32 checkpoint beside them."""
    ws = tmp_path_factory.mktemp("ws24")
    assert main(["generate", "--workspace", str(ws), "--c-values", "0,-0.3,-0.6", "--extent-mm", "1.92"]) == 0
    assert main(["preprocess", "--workspace", str(ws)]) == 0
    cfg = ModelConfig(patch_size=32)
    checkpoint_save(init_params(cfg, np.random.default_rng(0), dtype=np.float32), cfg, ws / "p32.vmck")
    return ws


class TestDimsCheckedBeforeReading:
    """A stage whose patch or node grid cannot fit the manifest's target_dims
    exits 2 with one error line before it reads a volume, and writes nothing."""

    @staticmethod
    def check(ws, argv, needle, monkeypatch, capsys):
        def no_read(path):
            raise AssertionError(f"read {path}")

        for mod in (voxcorr.cli, voxcorr.training):
            monkeypatch.setattr(mod, "vvol_read", no_read)
        before = {p: p.stat().st_mtime_ns for p in ws.rglob("*")}
        assert main([*argv, "--workspace", str(ws)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and needle in err[0], err
        assert {p: p.stat().st_mtime_ns for p in ws.rglob("*")} == before

    def test_baseline(self, small_workspace, monkeypatch, capsys):
        self.check(small_workspace, ["baseline"], "(24, 24, 24)", monkeypatch, capsys)

    def test_train(self, small_workspace, monkeypatch, capsys):
        self.check(small_workspace, ["train", "--patch-size", "32"], "patch size 32", monkeypatch, capsys)

    def test_register(self, small_workspace, monkeypatch, capsys):
        argv = ["register", "--checkpoint", str(small_workspace / "p32.vmck")]
        self.check(small_workspace, argv, "patch size 32", monkeypatch, capsys)


class TestEvaluate:
    def test_evaluate_learned(self, workspace):
        rc = main(["evaluate", "--workspace", str(workspace), "--method", "learned"])
        assert rc == 0
        report = json.loads(
            (workspace / "reports" / "c-0.6" / "learned" / "report.json").read_text()
        )
        assert 0 <= report["dice_before_pct"] <= 100
        assert report["mean_epe_vox"] is not None
        rdir = workspace / "reports" / "c-0.6" / "learned"
        assert (rdir / "overlay_before_xy.ppm").exists()
        assert (rdir / "bdm_after_xz.ppm").exists()
        assert (rdir / "dispmag_yz.pgm").exists()

    def test_perfect_registration_fixture(self, workspace):
        manifest = json.loads((workspace / "dataset" / "manifest.json").read_text())
        entry = next(s for s in manifest["samples"] if s["split"] == "test")
        cad = vvol_read(workspace / "dataset" / entry["id"] / "cad.vvol")
        odir = workspace / "registered" / entry["id"]
        vvol_write(odir / "moved.vvol", cad)  # pretend the net was perfect
        rc = main(["evaluate", "--workspace", str(workspace), "--method", "learned"])
        assert rc == 0
        report = json.loads(
            (workspace / "reports" / entry["id"] / "learned" / "report.json").read_text()
        )
        assert report["dice_after_pct"] == 100.0
        assert report["bdm_after"]["zero"] == 100.0

    @pytest.mark.parametrize("method, calls", [("learned", 3), ("baseline", 3), ("both", 4)])
    def test_one_otsu_per_volume(self, workspace, monkeypatch, method, calls):
        # nominal and scan once per sample, each moved scan once per method
        counted = []

        def counting(*args, **kwargs):
            counted.append(1)
            return otsu_threshold(*args, **kwargs)

        for mod in [m for name, m in sys.modules.items() if name.startswith("voxcorr")]:
            if getattr(mod, "otsu_threshold", None) is otsu_threshold:
                monkeypatch.setattr(mod, "otsu_threshold", counting)
        assert voxcorr.cli.otsu_threshold is counting
        rc = main(["evaluate", "--workspace", str(workspace), "--sample", "c-0.6", "--method", method])
        assert rc == 0
        assert len(counted) == calls

    @pytest.mark.parametrize("damaged", ["disp.vvol", "register.json"])
    def test_unreadable_side_file_exits_1_with_one_error_line(self, workspace, tmp_path, capsys, damaged):
        manifest = workspace / "dataset" / "manifest.json"
        odir = tmp_path / "registered" / "c-0.6"
        odir.mkdir(parents=True)
        xct = vvol_read(workspace / "dataset" / "c-0.6" / "xct.vvol")
        vvol_write(odir / "moved.vvol", xct)
        vvol_write(odir / "disp.vvol", DisplacementField(np.zeros((3,) + xct.data.shape, np.float32)))
        (odir / "register.json").write_text('{"sample_id": "c-0.6", "runtime_sec": 1.0}')
        blob = bytearray((odir / damaged).read_bytes())
        if damaged == "disp.vvol":
            assert blob[44:46] == b"{}"  # the metadata follows the 44-byte header
            blob[45] = 0xFF  # no longer UTF-8
        else:
            del blob[-5:]  # truncated JSON
        (odir / damaged).write_bytes(bytes(blob))
        rc = main(["evaluate", "--workspace", str(tmp_path), "--manifest", str(manifest), "--sample", "c-0.6"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and damaged in err[0]

    def test_missing_method_output_exits_2(self, workspace, tmp_path):
        rc = main(["evaluate", "--workspace", str(workspace), "--sample", "c0",
                   "--method", "baseline"])
        assert rc == 2


def exit_1_error(argv, capsys) -> str:
    """Run argv, require exit code 1 and one error line; return that line."""
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


class TestCorruptSideFiles:
    @pytest.mark.parametrize("blob", [
        b'{"id": "c0", "c_param": ',          # truncated
        b'{"id": "c\xff0", "c_param": 0.0}',  # not UTF-8
        b'["c0", 0.0]',                       # not an object
        b'{"id": "c0"}',                      # no c_param
        b'{"id": "c0", "c_param": "0"}',      # c_param not a number
        b'{"id": "c0", "c_param": NaN}',      # used to reach the manifest and reshuffle the splits
    ], ids=["truncated", "not-utf8", "not-object", "no-c_param", "c_param-string", "c_param-nan"])
    def test_sample_json(self, tmp_path, capsys, blob):
        sdir = tmp_path / "raw" / "c0"
        sdir.mkdir(parents=True)
        (sdir / "sample.json").write_bytes(blob)
        assert "raw/c0/sample.json" in exit_1_error(["preprocess", "--workspace", str(tmp_path)], capsys)

    def test_nonfinite_voxel_in_raw_scan(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert main(["generate", "--workspace", str(ws), "--c-values", "0,-0.3,-0.6", "--extent-mm", "1.92"]) == 0
        xct = ws / "raw" / "c-0.3" / "xct.vvol"  # the first sample preprocess reads
        blob = bytearray(xct.read_bytes())
        blob[-4000:-3996] = np.float32(np.nan).tobytes()
        xct.write_bytes(bytes(blob))
        err = exit_1_error(["preprocess", "--workspace", str(ws)], capsys)
        assert str(xct) in err and "non-finite" in err
        assert not (ws / "dataset" / "manifest.json").exists()

    @pytest.mark.parametrize("text, needle", [
        ('{"samples": [{"id": "c0", ', "unreadable JSON"),
        # written before the manifest held only ids, c values and splits: re-run preprocess
        ('{"samples": [{"id": "c0", "c_param": 0.0, "cad_path": "ws/dataset/c0/cad.vvol", '
         '"xct_path": "ws/dataset/c0/xct.vvol", "split": "test", "gt_disp_path": null}], '
         '"target_dims": [32, 32, 32], "created_at": ""}', "unknown key 'cad_path'"),
        ('{"samples": [{"id": "c0", "c_param": NaN, "split": "test"}], "target_dims": [32, 32, 32], '
         '"created_at": ""}', "c_param: expected a finite number"),
    ], ids=["truncated", "path-keys", "c_param-nan"])
    @pytest.mark.parametrize("cmd", ["train", "baseline"])
    def test_manifest(self, tmp_path, capsys, text, needle, cmd):
        mpath = tmp_path / "dataset" / "manifest.json"
        mpath.parent.mkdir()
        mpath.write_text(text)
        err = exit_1_error([cmd, "--workspace", str(tmp_path)], capsys)
        assert str(mpath) in err and needle in err

    @pytest.mark.parametrize("runtime", ['"x"', "NaN"])
    @pytest.mark.parametrize("method", list(METHODS))
    def test_runtime_not_a_number(self, workspace, tmp_path, capsys, method, runtime):
        folder, record = METHODS[method]
        odir = tmp_path / folder / "c-0.6"
        odir.mkdir(parents=True)
        xct = vvol_read(workspace / "dataset" / "c-0.6" / "xct.vvol")
        vvol_write(odir / "moved.vvol", xct)
        vvol_write(odir / "disp.vvol", DisplacementField(np.zeros((3,) + xct.data.shape, np.float32)))
        (odir / record).write_text(f'{{"sample_id": "c-0.6", "runtime_sec": {runtime}}}')
        manifest = workspace / "dataset" / "manifest.json"
        err = exit_1_error(["evaluate", "--workspace", str(tmp_path), "--manifest", str(manifest),
                            "--sample", "c-0.6", "--method", method], capsys)
        assert str(odir / record) in err and "runtime_sec" in err
        assert not (tmp_path / "reports").exists()


class TestMovedWorkspace:
    def test_stages_run_after_move_from_another_directory(self, tmp_path, monkeypatch):
        # the workspace is made under a relative path, moved, then used through another one
        (tmp_path / "a").mkdir()
        monkeypatch.chdir(tmp_path / "a")
        assert main(["generate", "--workspace", "ws", "--c-values", "0,-0.3,-0.6", "--extent-mm", "2.56"]) == 0
        assert main(["preprocess", "--workspace", "ws"]) == 0
        (tmp_path / "b" / "c").mkdir(parents=True)
        shutil.move(tmp_path / "a" / "ws", tmp_path / "b" / "moved")
        monkeypatch.chdir(tmp_path / "b" / "c")
        ws = ["--workspace", "../moved"]
        assert main(["train", *ws, "--epochs", "1", "--steps-per-epoch", "1", "--batch-size", "1",
                     "--patch-size", "16", "--ncc-window", "5"]) == 0
        assert main(["register", *ws]) == 0
        assert main(["baseline", *ws, "--node-spacing", "8", "--window-halfsize", "5", "--search-radius", "3"]) == 0
        assert main(["evaluate", *ws, "--method", "both"]) == 0
        for method in ("learned", "baseline"):
            assert (tmp_path / "b" / "moved" / "reports" / "c-0.6" / method / "report.json").exists()


class TestJsonSideFiles:
    def test_every_side_file_has_the_one_format(self, workspace, tmp_path):
        # generate, preprocess and train ran in the fixture; the copy runs the rest
        ws = tmp_path / "ws"
        shutil.copytree(workspace, ws)
        assert main(["register", "--workspace", str(ws)]) == 0
        assert main(["baseline", "--workspace", str(ws), "--node-spacing", "8", "--window-halfsize", "5",
                     "--search-radius", "3", "--levels", "1"]) == 0
        assert main(["evaluate", "--workspace", str(ws), "--method", "both"]) == 0
        RunConfig(workspace=str(ws), seed=3).save(ws / "run.json")
        paths = sorted(ws.rglob("*.json"))
        assert {p.name for p in paths} == {
            "sample.json", "preprocess.json", "manifest.json", "history.json", "register.json",
            "baseline.json", "nodes.json", "report.json", "run.json",
        }
        for p in paths:
            assert p.read_text() == json.dumps(read_json(p), indent=2, sort_keys=True), p


class TestCliSurface:
    @pytest.mark.parametrize(
        "cmd", ["generate", "preprocess", "train", "register", "baseline", "evaluate", "info"]
    )
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as e:
            main([cmd, "--help"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        assert "--workspace" in out

    def test_unknown_flag_exits_2(self):
        # --threads and --sigma were removed
        for argv in (["generate", "--bogus"], ["train", "--threads", "2"], ["register", "--sigma", "4"]):
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == 2

    @pytest.mark.parametrize("cmd", ["preprocess", "baseline", "evaluate", "info"])
    def test_seed_rejected_where_nothing_reads_it(self, cmd):
        with pytest.raises(SystemExit) as e:
            main([cmd, "--seed", "1"])
        assert e.value.code == 2

    def test_info_prints_config(self, workspace, capsys):
        rc = main(["info", "--workspace", str(workspace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"artifacts"' in out

    def test_run_log_appended(self, workspace):
        log = (workspace / "run_log.jsonl").read_text().strip().splitlines()
        stages = [json.loads(line)["stage"] for line in log]
        assert "generate" in stages
        assert "train" in stages

    def test_every_run_log_record_holds_the_resolved_config(self, workspace):
        records = [json.loads(line) for line in (workspace / "run_log.jsonl").read_text().splitlines()]
        assert records
        for record in records:
            assert set(record) == {"timestamp", "stage", "config", "args", "params", "duration_sec", "peak_rss_mib",
                                   "versions"}
            cfg = RunConfig.from_json(record["config"])
            assert to_json(cfg) == record["config"] and cfg.workspace == str(workspace)
        generate = next(r for r in records if r["stage"] == "generate")
        assert generate["config"]["seed"] == 3 and generate["config"]["c_values"] == [0.0, -0.3, -0.6]
        train = next(r for r in records if r["stage"] == "train")
        assert train["config"]["model"]["patch_size"] == 16 and train["config"]["train"]["epochs"] == 2

    def test_every_run_log_record_holds_the_peak_rss(self, workspace):
        records = [json.loads(line) for line in (workspace / "run_log.jsonl").read_text().splitlines()]
        assert {r["stage"] for r in records} >= {"generate", "preprocess", "train"}
        for record in records:
            peak = record["peak_rss_mib"]
            assert isinstance(peak, float) and peak > 0
        # the process's peak so far: one process ran every stage, so it never falls
        peaks = [r["peak_rss_mib"] for r in records]
        assert peaks == sorted(peaks)

    def test_every_run_log_record_holds_the_versions(self, workspace):
        records = [json.loads(line) for line in (workspace / "run_log.jsonl").read_text().splitlines()]
        assert records
        want = {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}
        for record in records:
            assert record["versions"] == want

    def test_run_log_records_the_handler_arguments(self, workspace, tmp_path):
        manifest = workspace / "dataset" / "manifest.json"
        assert main(["register", "--workspace", str(tmp_path), "--manifest", str(manifest),
                     "--checkpoint", str(workspace / "checkpoint.vmck"), "--sample", "c-0.6", "--stride", "8"]) == 0
        (record,) = [json.loads(line) for line in (tmp_path / "run_log.jsonl").read_text().splitlines()]
        assert record["args"] == {"sample": "c-0.6", "stride": 8} and record["params"] == {}

    def test_config_file_roundtrip(self, tmp_path):
        cfg = RunConfig(workspace=str(tmp_path / "w"), seed=9)
        cpath = tmp_path / "cfg.json"
        cfg.save(cpath)
        loaded = _resolve_config(_build_parser().parse_args(["info", "--config", str(cpath)]))
        assert loaded.seed == 9
        assert to_json(loaded) == to_json(cfg)

    @pytest.mark.parametrize(
        "section, partial",
        [("train", {"val_batch_size": 1}), ("tpms", {"cell_size": 3.0}), ("model", {"patch_size": 48})],
    )
    def test_partial_section_keeps_run_defaults(self, tmp_path, section, partial):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps({section: partial}))
        default = RunConfig()
        expected = replace(default, **{section: replace(getattr(default, section), **partial)})
        assert _resolve_config(_build_parser().parse_args(["info", "--config", str(cpath)])) == expected

    @pytest.mark.parametrize(
        "doc, needle",
        [
            ({"threads": 2}, "'threads'"),
            ({"train": {"ncc_windw": 5}}, "'ncc_windw'"),
            ({"tpms": {"wall_thickness": 0.5}}, "'wall_thickness'"),
            ({"model": {"patch_sise": 32}}, "'patch_sise'"),
            ({"seed": "3"}, "seed"),
            ({"train": {"ncc_window": 4}}, "ncc_window"),
            ({"dvc": {"min_correlation": 0.0}}, "min_correlation"),
            ({"dvc": {"min_correlation": -0.2}}, "min_correlation"),
            ({"model": {"leaky_slope": 1.5}}, "leaky_slope"),
            ("[1, 2", "Expecting"),
            # c and the seeds are per-sample arguments of synthesis, not config fields
            ({"tpms": {"c_param": -0.5}}, "tpms: unknown key 'c_param'"),
            ({"deform": {"seed": 99}}, "deform: unknown key 'seed'"),
            ({"train": {"seed": 1}}, "train: unknown key 'seed'"),  # the run's one seed is `seed`
            ({"degrade": {"seed": 98}}, "degrade: unknown key 'seed'"),
            ({"train": {"ncc_window": -1}}, "ncc_window"),
            ({"train": {"epochs": 0}}, "epochs"),
            ({"train": {"steps_per_epoch": 0}}, "steps_per_epoch"),
            ({"c_values": []}, "c_values"),  # used to create raw/, write no sample and log a run
            # each used to fail in synthesis, after raw/ was made
            ({"plate_voxels": 99}, "plate thickness 99 outside [0, 64]"),
            ({"plate_voxels": -1}, "plate thickness -1"),
            ({"marker_spheres": [[100, 1, 1, 2]]}, "sphere centre"),
            # used to exit 0 and stamp no sphere
            ({"marker_spheres": [[4, 4, 4, -3]]}, "sphere radius -3 is negative"),
            ({"tpms": {"cell_size": 0}}, "cell_size"),
            ({"tpms": {"band_halfwidth": 0}}, "band_halfwidth"),
            ({"train": {"plateau_factor": 2.0}}, "plateau_factor"),
            ({"train": {"plateau_factor": 0}}, "plateau_factor"),
            ({"train": {"plateau_patience": 0}}, "plateau_patience"),
            ({"train": {"min_lr": -1}}, "min_lr"),
            ({"train": {"plateau_min_improvement": -1e-4}}, "plateau_min_improvement"),
            # json writes these as NaN and Infinity, which Python's parser reads back; they used to
            # give an undeformed phantom, a noiseless scan and a 100%-solid part
            ({"deform": {"warp_amplitude": float("nan")}}, "deform.warp_amplitude: expected a finite number"),
            ({"degrade": {"noise_sigma": float("nan")}}, "degrade.noise_sigma: expected a finite number"),
            ({"tpms": {"cell_size": float("inf")}}, "tpms.cell_size: expected a finite number"),
        ],
    )
    def test_bad_config_exits_2_with_one_error_line(self, tmp_path, monkeypatch, capsys, doc, needle):
        monkeypatch.chdir(tmp_path)
        cpath = tmp_path / "cfg.json"
        cpath.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert main(["generate", "--config", str(cpath)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]
        assert list(tmp_path.iterdir()) == [cpath]  # rejected before anything is written

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["info", "--config", "missing.json"], "missing.json"),
            (["train", "--ncc-window", "4"], "ncc_window"),
            (["train", "--patch-size", "24"], "patch_size"),
            (["generate", "--c-values", "0,2"], "c value"),
            (["preprocess", "--target-dims", "0,32,32"], "target_dims"),
            (["train", "--steps-per-epoch", "0"], "steps_per_epoch"),
            (["generate", "--c-values", "0", "--extent-mm", "1.28", "--plate-voxels", "99"],
             "plate thickness 99 outside [0, 16]"),
            (["generate", "--c-values", "0", "--extent-mm", "1.28", "--plate-voxels", "-1"], "plate thickness -1"),
            # grids of 0^3 and 1^3 voxels used to fail in synthesis, after raw/ was made
            (["generate", "--c-values", "0", "--extent-mm", "0.01"], "grid (0, 0, 0)"),
            (["generate", "--c-values", "0", "--extent-mm", "0.1"], "grid (1, 1, 1)"),
            # grids of 2^3 and 3^3 voxels were generated, then failed preprocessing
            (["generate", "--c-values", "0", "--extent-mm", "0.16"], "grid (2, 2, 2) must have at least 4"),
            (["generate", "--c-values", "0", "--extent-mm", "0.24"], "grid (3, 3, 3) must have at least 4"),
            (["preprocess", "--target-dims", "1,1,1"], "target_dims must have at least 4"),
            (["preprocess", "--target-dims", "32,3,32"], "target_dims must have at least 4"),
            # used to train an all-NaN checkpoint, which register then rejected
            (["train", "--lr", "nan"], "train.lr: expected a finite number"),
            # used to end in a traceback
            (["generate", "--extent-mm", "nan"], "tpms.part_extent: expected a finite number"),
            (["generate", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["train", "--seed", "-1"], "seed must be >= 0, got -1"),
        ],
    )
    def test_rejected_value_exits_2_with_one_error_line(self, tmp_path, monkeypatch, capsys, argv, needle):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]
        assert not any(tmp_path.iterdir())  # rejected before anything is written

    def test_markers_checked_against_the_resolved_grid(self, tmp_path):
        # --extent-mm shrinks the grid below the file's plate before --plate-voxels thins it
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps({"plate_voxels": 40}))
        args = _build_parser().parse_args(
            ["generate", "--config", str(cpath), "--extent-mm", "1.28", "--plate-voxels", "2"]
        )
        cfg = _resolve_config(args)
        assert cfg.tpms.grid_dims() == (16, 16, 16) and cfg.plate_voxels == 2

    def test_flag_grid_admits_the_file_plate(self, tmp_path):
        # file and flags decode together: the flag's 128^3 grid holds the file's 99-voxel plate,
        # which the default 64^3 grid rejects (test_bad_config_exits_2_with_one_error_line)
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps({"plate_voxels": 99}))
        args = _build_parser().parse_args(["generate", "--config", str(cpath), "--extent-mm", "10.24"])
        cfg = _resolve_config(args)
        assert cfg.tpms.grid_dims() == (128, 128, 128) and cfg.plate_voxels == 99

    def test_flag_into_a_section_that_is_not_an_object_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps({"tpms": 3}))
        assert main(["generate", "--config", str(cpath), "--extent-mm", "1.28"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "tpms: expected an object" in err[0]
        assert list(tmp_path.iterdir()) == [cpath]


# applies main's malloc policy, then registers one 32^3 pair with patch 16 (27
# patches) four times; prints the minor faults of each call, or null where
# libc has no mallopt
MALLOC_SCRIPT = """
import json, sys
import numpy as np
from voxcorr.cli import apply_malloc_policy
from voxcorr.inference import sliding_register
from voxcorr.model import ModelConfig, init_params
from voxcorr.volume import ScalarVolume

if not apply_malloc_policy():
    print("null")
    sys.exit()
import resource

rng = np.random.default_rng(0)
cfg = ModelConfig(patch_size=16)
params = init_params(cfg, rng)
moving, fixed = (ScalarVolume(rng.uniform(0, 1, (32, 32, 32)).astype(np.float32)) for _ in range(2))
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sliding_register(params, cfg, moving, fixed)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def test_malloc_policy_keeps_the_patch_loop_fault_free():
    # without the policy glibc hands the freed patch buffers back to the
    # system and every call after the first faults about 36k pages back in
    path = os.pathsep.join(filter(None, [str(Path(voxcorr.cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    p = subprocess.run([sys.executable, "-c", MALLOC_SCRIPT], capture_output=True, text=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": path})
    assert p.returncode == 0, p.stderr
    faults = json.loads(p.stdout)
    if faults is None:
        pytest.skip("libc has no mallopt")
    assert all(f < 1000 for f in faults[1:]), faults


def test_cli_import_loads_no_scipy():
    # only the stages that filter or label import scipy, inside the functions that do
    path = os.pathsep.join(filter(None, [str(Path(voxcorr.cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    script = "import sys, voxcorr.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    p = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": path})
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "[]"


def test_blas_pin_leaves_openblas_one_thread():
    try:
        with open("/proc/self/maps") as f:
            mapped = any("openblas" in line for line in f)
    except OSError:
        mapped = False
    if not mapped:
        pytest.skip("no OpenBLAS loaded")
    gets = voxcorr.cli._openblas_functions("get_num_threads")
    sets = voxcorr.cli._openblas_functions("set_num_threads")
    for fn in gets:
        fn.argtypes, fn.restype = [], ctypes.c_int
    for fn in sets:
        fn.argtypes, fn.restype = [ctypes.c_int], None
    before = [fn() for fn in gets]
    try:
        for fn in sets:  # an earlier main() may have pinned them already
            fn(2)
        assert voxcorr.cli.pin_blas_threads() == len(gets) >= 1
        assert [fn() for fn in gets] == [1] * len(gets)
    finally:
        for fn, n in zip(sets, before):
            fn(n)


# one valid value per flag, different from the RunConfig() default it overrides
FLAG_VALUES = {
    "--workspace": "w2", "--seed": "7", "--c-values": "0,-0.5", "--voxel-um": "40",
    "--extent-mm": "2.56", "--plate-voxels": "2", "--target-dims": "8,8,8",
    "--manifest": "m.json", "--checkpoint": "c.vmck", "--epochs": "3",
    "--steps-per-epoch": "2", "--batch-size": "3", "--patch-size": "48", "--ncc-window": "7",
    "--lr": "0.01", "--lambda-smooth": "0.5", "--node-spacing": "8", "--window-halfsize": "4",
    "--search-radius": "2", "--levels": "1",
    "--sample": "c0", "--stride": "8", "--method": "both",
}


def _flatten(d, prefix=""):
    out = {}
    for k, v in d.items():
        if isinstance(v, dict):
            out.update(_flatten(v, f"{prefix}{k}."))
        else:
            out[f"{prefix}{k}"] = v
    return out


@pytest.mark.parametrize(
    "flag, cmd", [(f, c) for f in FLAGS for c in f.commands], ids=lambda x: getattr(x, "name", x)
)
def test_flag_sets_exactly_its_config_paths(flag, cmd):
    args = _build_parser().parse_args([cmd, flag.name, FLAG_VALUES[flag.name]])
    assert getattr(args, flag.dest) is not None
    before = _flatten(to_json(RunConfig()))
    after = _flatten(to_json(_resolve_config(args)))
    assert {k for k in before if before[k] != after[k]} == {flag.path} - {None}
