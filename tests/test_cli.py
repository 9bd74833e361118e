import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from voxcorr.cli import FLAGS, _build_parser, _resolve_config, main
from voxcorr.config import RunConfig, assign_splits
from voxcorr.vvol import vvol_read, vvol_write


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


    @pytest.mark.parametrize(
        "doc, key, flag",
        [
            ({"tpms": {"c_param": -0.5}}, "tpms.c_param", "--c-values"),
            ({"deform": {"seed": 99}}, "deform.seed", "--seed"),
            ({"degrade": {"seed": 98}}, "degrade.seed", "--seed"),
        ],
    )
    def test_per_sample_config_key_exits_2(self, tmp_path, capsys, doc, key, flag):
        # generate derives these from --c-values and --seed; a config value used to be dropped
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(doc))
        assert main(["generate", "--workspace", str(tmp_path / "w"), "--c-values", "0",
                     "--config", str(cpath)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0] and flag in err[0]
        assert not (tmp_path / "w").exists()


class TestPreprocess:
    def test_builds_manifest_with_splits(self, workspace):
        manifest = json.loads((workspace / "dataset" / "manifest.json").read_text())
        splits = {s["id"]: s["split"] for s in manifest["samples"]}
        assert set(splits.values()) == {"train", "val", "test"}
        assert splits["c-0.6"] == "test"

    def test_paper_split_assignment(self):
        sweep = [0.0, -0.1, -0.2, -0.3, -0.4, -0.5, -0.6]
        by_c = assign_splits(sweep)
        assert [by_c[c] for c in sweep] == [
            "train", "val", "train", "train", "val", "train", "test",
        ]

    def test_volumes_normalized(self, workspace):
        manifest = json.loads((workspace / "dataset" / "manifest.json").read_text())
        vol = vvol_read(manifest["samples"][0]["xct_path"])
        assert vol.data.min() == 0.0
        assert vol.data.max() == 1.0


class TestTrain:
    def test_writes_checkpoint_and_history(self, workspace):
        assert (workspace / "checkpoint.vmck").exists()
        hist = json.loads((workspace / "history.json").read_text())
        assert len(hist["train_loss"]) == 2
        assert len(hist["val_loss"]) == 2

    def test_missing_manifest_exits_2(self, tmp_path):
        assert main(["train", "--workspace", str(tmp_path)]) == 2


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

    def test_unknown_sample_exits_2(self, workspace):
        rc = main(["register", "--workspace", str(workspace), "--sample", "nope"])
        assert rc == 2


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
        cad = vvol_read(entry["cad_path"])
        odir = workspace / "registered" / entry["id"]
        vvol_write(odir / "moved.vvol", cad)  # pretend the net was perfect
        rc = main(["evaluate", "--workspace", str(workspace), "--method", "learned"])
        assert rc == 0
        report = json.loads(
            (workspace / "reports" / entry["id"] / "learned" / "report.json").read_text()
        )
        assert report["dice_after_pct"] == 100.0
        assert report["bdm_after"]["zero"] == 100.0

    def test_missing_method_output_exits_2(self, workspace, tmp_path):
        rc = main(["evaluate", "--workspace", str(workspace), "--sample", "c0",
                   "--method", "baseline"])
        assert rc == 2


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
        for argv in (["generate", "--bogus"], ["train", "--threads", "2"]):  # --threads was removed
            with pytest.raises(SystemExit) as e:
                main(argv)
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

    def test_config_file_roundtrip(self, tmp_path):
        cfg = RunConfig(workspace=str(tmp_path / "w"), seed=9)
        cpath = tmp_path / "cfg.json"
        cfg.save(cpath)
        loaded = RunConfig.load(cpath)
        assert loaded.seed == 9
        assert loaded.to_json() == cfg.to_json()

    @pytest.mark.parametrize(
        "section, partial",
        [("train", {"val_batch_size": 1}), ("tpms", {"c_param": -0.2}), ("model", {"patch_size": 48})],
    )
    def test_partial_section_keeps_run_defaults(self, tmp_path, section, partial):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps({section: partial}))
        default = RunConfig()
        expected = replace(default, **{section: replace(getattr(default, section), **partial)})
        assert RunConfig.load(cpath) == expected

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
            ("[1, 2", "Expecting"),
        ],
    )
    def test_bad_config_exits_2_with_one_error_line(self, tmp_path, capsys, doc, needle):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert main(["info", "--config", str(cpath)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["info", "--config", "missing.json"], "missing.json"),
            (["train", "--ncc-window", "4"], "ncc_window"),
            (["train", "--patch-size", "24"], "patch_size"),
            (["generate", "--c-values", "0,2"], "c value"),
        ],
    )
    def test_rejected_value_exits_2_with_one_error_line(self, tmp_path, monkeypatch, capsys, argv, needle):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]


# one valid value per flag, different from the RunConfig() default it overrides
FLAG_VALUES = {
    "--workspace": "w2", "--seed": "7", "--c-values": "0,-0.5", "--voxel-um": "40",
    "--extent-mm": "2.56", "--plate-voxels": "2", "--target-dims": "8,8,8",
    "--manifest": "m.json", "--checkpoint": "c.vmck", "--epochs": "3",
    "--steps-per-epoch": "2", "--batch-size": "3", "--patch-size": "48", "--ncc-window": "7",
    "--lr": "0.01", "--lambda-smooth": "0.5", "--node-spacing": "8", "--window-halfsize": "4",
    "--search-radius": "2", "--levels": "1",
    "--sample": "c0", "--stride": "8", "--sigma": "4", "--method": "both",
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
    before = _flatten(RunConfig().to_json())
    after = _flatten(_resolve_config(args).to_json())
    assert {k for k in before if before[k] != after[k]} == set(flag.paths)
