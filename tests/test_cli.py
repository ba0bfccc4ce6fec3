"""End-to-end tests for the command-line interface."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mamba_fusion.bench import model_macs
from mamba_fusion.cli import load_config, main
from mamba_fusion.model import PRESETS


def _hash_dir(directory):
    h = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def test_load_config_defaults_to_preset():
    model_cfg, train_cfg = load_config(None, "mosi")
    assert model_cfg == PRESETS["mosi"]
    assert train_cfg.lr == 1e-4
    assert train_cfg.epochs == 200
    assert train_cfg.batch_size == 64


def test_load_config_reads_ini_sections(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[model]\npreset = sims\ntq_depth = 3\n"
                   "[train]\nepochs = 7\nlr = 0.002\n")
    model_cfg, train_cfg = load_config(cfg)
    assert model_cfg.length == PRESETS["sims"].length
    assert model_cfg.tq_depth == 3
    assert train_cfg.epochs == 7
    assert train_cfg.lr == 0.002


def test_overrides_beat_config_file(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[train]\nepochs = 7\n")
    _, train_cfg = load_config(cfg, "desk", ["train.epochs=9",
                                             "model.tau=0.1"])
    assert train_cfg.epochs == 9


def test_unknown_key_lists_valid_keys(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[model]\nnum_layers = 3\n")
    with pytest.raises(Exception, match="valid keys.*tc_depth"):
        load_config(cfg)


def test_unknown_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[model]\nnum_layers = 3\n")
    code = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "valid keys" in capsys.readouterr().err


@pytest.mark.parametrize("setting,word", [
    ("model.enhancement=flase", "flase"),
    ("model.scan_mode=paralel", "paralel"),
])
def test_bad_config_value_is_a_usage_error(tmp_path, capsys, setting, word):
    code = main(["bench", "--set", setting, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert word in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("word,value", [("OFF", False), ("0", False),
                                        ("No", False), ("TRUE", True),
                                        ("on", True), ("1", True)])
def test_boolean_words_in_any_case(word, value):
    model_cfg, _ = load_config(None, "desk", [f"model.enhancement={word}"])
    assert model_cfg.enhancement is value


def test_missing_config_file_is_io_error(tmp_path):
    code = main(["bench", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")])
    assert code == 3


def test_missing_dataset_is_io_error(tmp_path):
    code = main(["sweep", "--data", str(tmp_path / "absent"),
                 "--out", str(tmp_path / "o")])
    assert code == 3


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["generate", "--n", "24", "--seed", "3",
                 "--out", str(root / "data")]) == 0
    return root


def test_generate_writes_dataset_and_labels(workspace):
    data = workspace / "data"
    assert (data / "manifest.txt").exists()
    assert (data / "tensors.bin").exists()
    assert (data / "labels.csv").exists()
    assert (data / "resolved_config.ini").exists() is False  # data dir only


def test_train_writes_checkpoint_and_curve(workspace):
    code = main(["train", "--data", str(workspace / "data"),
                 "--epochs", "2", "--seed", "7",
                 "--set", "train.batch_size=8", "--set", "train.lr=0.001",
                 "--out", str(workspace / "run")])
    assert code == 0
    out = workspace / "run"
    assert (out / "checkpoint" / "tensors.bin").exists()
    assert (out / "loss.csv").read_text().startswith("step,loss")
    assert "seed = 7" in (out / "resolved_config.ini").read_text()


def test_train_same_seed_twice_is_hash_identical(workspace):
    hashes = []
    for name in ("rep1", "rep2"):
        code = main(["train", "--data", str(workspace / "data"),
                     "--epochs", "2", "--seed", "7",
                     "--set", "train.batch_size=8",
                     "--out", str(workspace / name)])
        assert code == 0
        hashes.append(_hash_dir(workspace / name / "checkpoint"))
    assert hashes[0] == hashes[1]


def test_sweep_emits_ten_rows_plus_average(workspace):
    code = main(["sweep", "--data", str(workspace / "data"),
                 "--checkpoint", str(workspace / "run" / "checkpoint"),
                 "--out", str(workspace / "sweep")])
    assert code == 0
    lines = (workspace / "sweep" / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 12
    rates = [line.split(",")[0] for line in lines[1:-1]]
    assert rates == ["0.0", "0.1", "0.2", "0.3", "0.4",
                     "0.5", "0.6", "0.7", "0.8", "0.9"]
    assert lines[-1].startswith("avg")
    parsed = json.loads((workspace / "sweep" / "sweep.json").read_text())
    for key, value in parsed["averaged"].items():
        if key != "r":
            mean = np.mean([row[key] for row in parsed["rows"]])
            assert abs(value - mean) <= 1e-12


def test_eval_writes_metrics(workspace):
    code = main(["eval", "--data", str(workspace / "data"),
                 "--checkpoint", str(workspace / "run" / "checkpoint"),
                 "--rate", "0.2", "--out", str(workspace / "eval")])
    assert code == 0
    row = json.loads((workspace / "eval" / "metrics.json").read_text())
    assert {"mae", "corr", "acc7"} <= set(row)


def test_bench_reports_convention_and_totals(workspace, capsys):
    code = main(["bench", "--time", "--reps", "5",
                 "--out", str(workspace / "bench")])
    assert code == 0
    text = capsys.readouterr().out
    assert "multiply-accumulates" in text
    report = json.loads((workspace / "bench" / "cost_report.json").read_text())
    assert report["macs"]["total"] == sum(
        v for k, v in report["macs"].items() if k != "total")
    assert report["wallclock"]["reps"] == 5


@pytest.mark.parametrize("scan_mode", ["parallel", "recurrent"])
def test_bench_counts_the_configured_scan_mode(tmp_path, scan_mode):
    code = main(["bench", "--set", f"model.scan_mode={scan_mode}",
                 "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "cost_report.json").read_text())
    cfg, _ = load_config(None, "desk", [f"model.scan_mode={scan_mode}"])
    assert report["macs"] == model_macs(cfg, mode=cfg.scan_mode)


def test_gradcheck_passes_on_default_model(workspace, capsys):
    code = main(["gradcheck", "--per-coordinate", "2", "--seed", "1"])
    assert code == 0
    assert "passed" in capsys.readouterr().out


def test_checkpoint_round_trip_preserves_predictions(workspace):
    from mamba_fusion import datagen
    from mamba_fusion.cli import load_checkpoint
    model = load_checkpoint(workspace / "run" / "checkpoint")
    ds = datagen.load(workspace / "data")
    s = ds.samples[0]
    p1 = model.predict(s.x_t, s.x_v, s.x_a)
    p2 = load_checkpoint(workspace / "run" / "checkpoint").predict(
        s.x_t, s.x_v, s.x_a)
    assert p1 == p2


def _edit_manifest(directory, old, new):
    manifest = Path(directory) / "manifest.txt"
    text = manifest.read_text()
    assert old in text
    manifest.write_text(text.replace(old, new))


@pytest.mark.parametrize("old,new,key", [
    ("tensor_count ", "# tensor_count ", "tensor_count"),
    ("config_d_model 32", "config_d_model 3x2", "config_d_model"),
    ("config_enhancement True", "config_enhancement Ture",
     "config_enhancement"),
    ("config_scan_mode parallel", "config_scan_mode paralel", "scan_mode"),
])
def test_bad_checkpoint_manifest_is_io_error(tmp_path, capsys, old, new, key):
    from mamba_fusion.cli import save_checkpoint
    from mamba_fusion.model import build_model
    save_checkpoint(build_model("desk", seed=0), tmp_path / "ckpt")
    _edit_manifest(tmp_path / "ckpt", old, new)
    code = main(["eval", "--checkpoint", str(tmp_path / "ckpt"),
                 "--n", "8", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert key in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("old,new,key", [
    ("shape_text 16x32", "shape_text 16", "shape_text"),
    ("n_samples 24", "n_samples 25", "n_samples"),
])
def test_bad_dataset_manifest_is_io_error(workspace, tmp_path, capsys, old,
                                          new, key):
    import shutil
    shutil.copytree(workspace / "data", tmp_path / "data")
    _edit_manifest(tmp_path / "data", old, new)
    code = main(["eval", "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert key in err and len(err.strip().splitlines()) == 1


def test_checkpoint_with_renamed_tensor_is_rejected(tmp_path):
    from mamba_fusion.cli import load_checkpoint, save_checkpoint
    from mamba_fusion.model import build_model
    save_checkpoint(build_model("desk", seed=0), tmp_path / "ckpt")
    _edit_manifest(tmp_path / "ckpt", "tensor_0 align_t.w:",
                   "tensor_0 align_v.w:")
    with pytest.raises(ValueError, match="name mismatch.*align_v.w"):
        load_checkpoint(tmp_path / "ckpt")
