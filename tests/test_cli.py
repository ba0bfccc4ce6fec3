"""End-to-end tests for the command-line interface."""

import hashlib
import json
import warnings
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


@pytest.mark.parametrize("config,section", [
    ("[modle]\nd_model = 64\n", "modle"),
    ("[model]\nd_model = 64\n[corruption]\nmode = missing\n", "corruption"),
], ids=["misspelled", "corruption"])
def test_unknown_config_section_is_a_usage_error(tmp_path, capsys, config,
                                                 section):
    cfg = tmp_path / "run.ini"
    cfg.write_text(config)
    code = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"[{section}]" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_resolved_config_of_a_run_feeds_back_as_config(tmp_path, capsys):
    settings = ["model.tq_depth=2", "model.scan_mode=parallel",
                "model.enhancement=false", "train.lr=0.002",
                "train.seed=5", "train.epochs=1"]
    flags = [word for s in settings for word in ("--set", s)]
    assert main(["train", "--n", "8", *flags,
                 "--out", str(tmp_path / "run")]) == 0
    resolved = tmp_path / "run" / "resolved_config.ini"
    assert "[run]" in resolved.read_text()
    configs = load_config(resolved)
    assert configs == load_config(None, "desk", settings)
    assert main(["bench", "--config", str(resolved),
                 "--out", str(tmp_path / "bench")]) == 0
    assert "error" not in capsys.readouterr().err
    assert load_config(tmp_path / "bench" / "resolved_config.ini") == configs


@pytest.mark.parametrize("setting,word", [
    ("model.enhancement=flase", "flase"),
    ("model.scan_mode=paralel", "paralel"),
    ("model.length=8", "'length'"),   # follows t_text; not a key
])
def test_bad_config_value_is_a_usage_error(tmp_path, capsys, setting, word):
    code = main(["bench", "--set", setting, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert word in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_text_length_alone_sets_the_aligned_length(tmp_path):
    model_cfg, _ = load_config(None, "desk", ["model.t_text=8"])
    assert model_cfg.length == 8
    assert main(["bench", "--set", "model.t_text=8",
                 "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("word,value", [("OFF", False), ("0", False),
                                        ("No", False), ("TRUE", True),
                                        ("on", True), ("1", True)])
def test_boolean_words_in_any_case(word, value):
    model_cfg, _ = load_config(None, "desk", [f"model.enhancement={word}"])
    assert model_cfg.enhancement is value


@pytest.mark.parametrize("config,argv", [
    ("epochs = 3\n", ["bench"]),
    ("[train]\nepochs = 3\nepochs = 4\n", ["bench"]),
    (None, ["bench", "--time", "--reps", "0"]),
    (None, ["bench", "--reps", "0"]),
    (None, ["gradcheck", "--per-coordinate", "0"]),
    (None, ["bench", "--preset", "foo"]),
    (None, ["bench", "--seed", "abc"]),
    (None, ["bench", "--bogus"]),
    (None, ["bogus"]),
    (None, []),
], ids=["no-section-header", "repeated-key", "zero-reps",
        "zero-reps-untimed", "zero-coordinates", "unknown-preset",
        "non-integer-seed", "unknown-flag", "unknown-subcommand",
        "no-subcommand"])
def test_bad_input_is_a_one_line_usage_error(tmp_path, capsys, config, argv):
    if config is not None:
        (tmp_path / "run.ini").write_text(config)
        argv = argv + ["--config", str(tmp_path / "run.ini")]
    code = main(argv + ["--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.err.strip().splitlines()) == 1
    assert "passed" not in captured.out


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


@pytest.mark.parametrize("argv,word", [
    (["bench", "--set", "model.heads=0"], "heads"),
    (["bench", "--set", "model.d_model=0"], "d_model"),
    (["bench", "--set", "model.conv_width=0"], "conv_width"),
    (["bench", "--set", "model.state_dim=0"], "state_dim"),
    (["bench", "--set", "model.tau=0"], "tau"),
    (["bench", "--length", "0"], "--length"),
    (["train", "--set", "train.batch_size=0"], "batch_size"),
    (["train", "--set", "train.epochs=0"], "epochs"),
    (["train", "--epochs", "0"], "epochs"),
    (["train", "--set", "train.val_every=0"], "val_every"),
    (["train", "--set", "train.lr=-1"], "lr"),
    (["train", "--set", "train.lr=nan"], "lr"),
    (["train", "--set", "train.eps=0"], "eps"),
    (["train", "--set", "train.beta1=1"], "beta1"),
    (["train", "--set", "train.beta2=-0.1"], "beta2"),
    (["train", "--set", "train.weight_decay=-5"], "weight_decay"),
    (["train", "--set", "train.warmup_frac=-1"], "warmup_frac"),
    (["train", "--set", "train.warmup_frac=1.5"], "warmup_frac"),
    (["train", "--set", "model.label_low=3"], "label_low"),
    (["bench", "--set", "model.label_low=nan"], "label_low"),
    (["train", "--set", "model.label_high=inf"], "label_high"),
    (["train", "--set", "model.label_low=-1e308",
      "--set", "model.label_high=1e308"], "finite distance"),
    (["bench", "--set", "model.tau=inf"], "tau"),
    (["train", "--set", "train.lr=inf"], "lr"),
    (["train", "--set", "train.eps=inf"], "eps"),
    (["train", "--set", "train.weight_decay=inf"], "weight_decay"),
    (["train", "--set", "train.lambda_rec=inf"], "lambda_rec"),
    (["train", "--set", "train.epochs=1.5"], "train.epochs: expected int"),
    (["bench", "--set", "model.tau=warm"], "model.tau: expected float"),
], ids=["heads", "d_model", "conv_width", "state_dim", "tau", "length",
        "batch_size", "epochs", "epochs-flag", "val_every", "lr", "lr-nan",
        "eps", "beta1", "beta2", "weight_decay", "warmup_frac-low",
        "warmup_frac-high", "label_low", "label_low-nan", "label_high-inf",
        "label-span-overflows", "tau-inf", "lr-inf", "eps-inf",
        "weight_decay-inf", "lambda_rec-inf", "epochs-not-int",
        "tau-not-float"])
def test_out_of_range_setting_is_a_one_line_usage_error(tmp_path, capsys,
                                                        argv, word):
    code = main(argv + ["--n", "8"] * (argv[0] == "train")
                + ["--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert word in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_numeric_failure_is_exit_2_in_one_line(tmp_path, capsys):
    # a huge finite learning rate passes the config checks and then
    # overflows the weights; numpy's own warnings are errors here, so none
    # may escape the CLI either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["train", "--n", "8", "--epochs", "2",
                     "--set", "train.lr=1e300", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("numeric failure:")
    assert "Traceback" not in err


@pytest.mark.parametrize("settings,message", [
    # weights of about 1e300 overflow in the next forward pass
    (["train.lr=1e300"], "training aborted at validation after step 0: "
                         "matmul: non-finite"),
    # the decay term overflows inside the optimizer step itself
    (["train.lr=1e300", "train.weight_decay=1e10"],
     "training aborted at step 0: optimizer step made align_t.w non-finite"),
    # the model's own step size and state matrix leave the ZOH domain: a
    # softplus underflows to 0, and -exp(a_log) rounds to -0.0
    (["train.lr=1"], "training aborted at validation after step 1: "
                     "discretize: step size must be strictly positive"),
    (["train.lr=1000"], "training aborted at validation after step 0: "
                        "discretize: state matrix must be strictly negative"),
], ids=["validation", "optimizer", "zoh-step-size", "zoh-state-matrix"])
def test_numeric_failure_in_training_names_the_step(tmp_path, capsys,
                                                     settings, message):
    argv = ["train", "--n", "8", "--epochs", "2", "--out", str(tmp_path / "o")]
    for setting in settings:
        argv += ["--set", setting]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"numeric failure: {message}")


def test_vanishing_temperature_fails_in_the_softmax(tmp_path, capsys):
    # a positive tau passes the config check; the scores over it overflow
    code = main(["eval", "--n", "8", "--set", "model.tau=1e-310",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip().splitlines() == [
        "numeric failure: softmax_lastdim: non-finite values encountered"]


def test_train_with_an_empty_split_is_a_usage_error(tmp_path, capsys):
    # 2 samples split 1 / 0 / 1: nothing to select the best epoch on
    code = main(["train", "--n", "2", "--epochs", "1",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert "1 train and 0 validation" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_empty_test_split_is_a_usage_error(tmp_path, capsys, command):
    # 1 sample splits 1 / 0 / 0: nothing to evaluate
    code = main([command, "--n", "1", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{command} needs samples in the test split; got 0 test of 1" \
        in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


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


def test_train_seed_from_config_equals_seed_flag(tmp_path):
    hashes = []
    for name, flags in (("set", ["--set", "train.seed=5"]),
                        ("flag", ["--seed", "5"])):
        code = main(["train", "--epochs", "1", "--n", "8", *flags,
                     "--out", str(tmp_path / name)])
        assert code == 0
        assert "seed = 5" in (tmp_path / name / "resolved_config.ini").read_text()
        hashes.append(_hash_dir(tmp_path / name / "checkpoint"))
    assert hashes[0] == hashes[1]


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
    ("config_scan_mode recurrent", "config_scan_mode recurent", "scan_mode"),
    ("config_heads 4", "config_heads 0", "heads"),
    ("config_tau 0.07", "config_tau 0.0", "tau"),
    ("config_label_low -3.0", "config_label_low 3.0", "label_low"),
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
    (" labels:", " label:", "labels"),
    (" sample0.x_t:", " sample0.xt:", "sample0.x_t"),
    (" unknown_text_vector:", " unknown:", "unknown_text_vector"),
    ("split_train 17", "split_train 30", "split_train"),
    ("split_valid 4", "split_valid -1", "split_valid"),
    ("split_test 3", "split_test 4", "split_test"),
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


@pytest.mark.parametrize("name", ["labels", "unknown_text_vector"])
def test_dataset_tensor_of_wrong_length_is_io_error(workspace, tmp_path,
                                                    capsys, name):
    from mamba_fusion import container
    manifest, named = container.load_named(workspace / "data")
    extra = [(k, v) for k, v in manifest.items()
             if not k.startswith("tensor_")]
    named = [(n, a[:-1] if n == name else a) for n, a in named]
    container.save_named(tmp_path / "data", named, extra)
    code = main(["eval", "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert f"tensor {name}: expected" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_dataset_with_a_non_finite_tensor_is_io_error(workspace, tmp_path,
                                                       capsys, command):
    from mamba_fusion import container
    manifest, named = container.load_named(workspace / "data")
    extra = [(k, v) for k, v in manifest.items()
             if not k.startswith("tensor_")]
    dict(named)["sample19.x_v"][3, 2] = np.inf
    container.save_named(tmp_path / "data", named, extra)
    code = main([command, "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert "'sample19.x_v' holds non-finite values" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["train", "--epochs", "1"],
    ["eval", "--checkpoint", "CKPT"],
])
def test_dataset_that_does_not_fit_the_model_is_a_usage_error(
        tmp_path, capsys, argv):
    from mamba_fusion.cli import save_checkpoint
    from mamba_fusion.model import build_model
    assert main(["generate", "--preset", "sims", "--n", "4",
                 "--out", str(tmp_path / "sims")]) == 0
    save_checkpoint(build_model("desk", seed=0), tmp_path / "ckpt")
    argv = [str(tmp_path / "ckpt") if a == "CKPT" else a for a in argv]
    capsys.readouterr()
    code = main(argv + ["--data", str(tmp_path / "sims"),
                        "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert "t_text 39 vs 16" in err and "d_audio 33 vs 8" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_checkpoint_with_renamed_tensor_is_rejected(tmp_path):
    from mamba_fusion.cli import load_checkpoint, save_checkpoint
    from mamba_fusion.model import build_model
    save_checkpoint(build_model("desk", seed=0), tmp_path / "ckpt")
    _edit_manifest(tmp_path / "ckpt", "tensor_0 align_t.w:",
                   "tensor_0 align_v.w:")
    with pytest.raises(ValueError, match="name mismatch.*align_v.w"):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("checkpoint", ["renamed-tensor", "dataset-dir"])
def test_checkpoint_that_disagrees_with_its_config_is_io_error(
        workspace, tmp_path, capsys, checkpoint):
    from mamba_fusion.cli import save_checkpoint
    from mamba_fusion.model import build_model
    if checkpoint == "renamed-tensor":
        ckpt = tmp_path / "ckpt"
        save_checkpoint(build_model("desk", seed=0), ckpt)
        _edit_manifest(ckpt, "tensor_0 align_t.w:", "tensor_0 align_v.w:")
    else:
        ckpt = workspace / "data"
    code = main(["eval", "--checkpoint", str(ckpt), "--n", "8",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert "I/O error: checkpoint" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_no_reconstruction_checkpoint_with_a_reconstructor_is_io_error(
        tmp_path, capsys):
    # the layout of this ablation's checkpoints when the model still built
    # the unused reconstructor: every tensor of the full model
    from mamba_fusion.cli import save_checkpoint
    from mamba_fusion.model import build_model
    ckpt = tmp_path / "ckpt"
    save_checkpoint(build_model("desk", seed=0), ckpt)
    _edit_manifest(ckpt, "config_reconstruction True",
                   "config_reconstruction False")
    code = main(["eval", "--checkpoint", str(ckpt), "--n", "8",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert "checkpoint has 115 tensors, model has 111" in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_load_checkpoint_draws_no_random_numbers(tmp_path, monkeypatch):
    from mamba_fusion import model as model_module
    from mamba_fusion.cli import load_checkpoint, save_checkpoint
    model = model_module.build_model("sims", seed=2)
    save_checkpoint(model, tmp_path / "ckpt")

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    with monkeypatch.context() as m:
        m.setattr(model_module.np.random, "default_rng", no_draws)
        loaded = load_checkpoint(tmp_path / "ckpt")
    got = dict(loaded.state_arrays())
    assert len(got) == len(model.state_arrays())
    for name, arr in model.state_arrays():
        np.testing.assert_array_equal(got[name], arr)
    rng = np.random.default_rng(0)
    c = model.config
    x = [rng.standard_normal(shape) for shape in
         [(c.t_text, c.d_text), (c.t_visual, c.d_visual),
          (c.t_audio, c.d_audio)]]
    assert loaded.predict(*x) == model.predict(*x)


def test_load_checkpoint_keeps_the_arrays_it_reads(tmp_path, monkeypatch):
    from mamba_fusion import container
    from mamba_fusion.cli import load_checkpoint, save_checkpoint
    from mamba_fusion.model import build_model
    save_checkpoint(build_model("desk", seed=3), tmp_path / "ckpt")
    read = []

    def recording_read_tensor(fh, _read=container.read_tensor):
        read.append(_read(fh))
        return read[-1]

    monkeypatch.setattr(container, "read_tensor", recording_read_tensor)
    loaded = load_checkpoint(tmp_path / "ckpt")
    arrays = [arr for _, arr in loaded.state_arrays()]
    assert len(read) == len(arrays)
    # each parameter is one of the arrays the reader made, not a copy
    for arr in arrays:
        assert sum(np.shares_memory(arr, r) for r in read) == 1


def test_loaded_checkpoint_holds_one_copy_of_its_parameters(tmp_path):
    # no gradient buffer and no second copy of the weights survives a load
    import tracemalloc
    from mamba_fusion.cli import load_checkpoint, save_checkpoint
    from mamba_fusion.model import build_model
    save_checkpoint(build_model("sims", seed=2), tmp_path / "ckpt")
    tracemalloc.start()
    try:
        loaded = load_checkpoint(tmp_path / "ckpt")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_bytes = sum(p.data.nbytes for p in loaded.parameters())
    assert held < 1.2 * n_bytes
    assert peak < 1.3 * n_bytes
    # every placeholder the model was built on was replaced
    for p in loaded.parameters():
        assert p.data.flags.writeable and 0 not in p.data.strides, p.name


def test_checkpoint_with_retired_config_key_still_loads(tmp_path):
    # checkpoints written before threshold_scale was removed, or before the
    # aligned length followed t_text, carry those keys
    from mamba_fusion.cli import load_checkpoint, save_checkpoint
    from mamba_fusion.model import build_model
    model = build_model("desk", seed=0)
    x_t, x_v, x_a = (np.random.default_rng(i).standard_normal(shape)
                     for i, shape in enumerate([(16, 32), (24, 16), (32, 8)]))
    for retired in ("config_threshold_scale 1.0", "config_length 16"):
        ckpt = tmp_path / retired.split()[0]
        save_checkpoint(model, ckpt)
        _edit_manifest(ckpt, "config_tau ", f"{retired}\nconfig_tau ")
        assert load_checkpoint(ckpt).predict(x_t, x_v, x_a) == \
            model.predict(x_t, x_v, x_a)


def _corrupted_test_samples(cfg, n, seed):
    from mamba_fusion import datagen, harness
    from mamba_fusion.cli import _shapes
    ds = datagen.generate(n, shapes=_shapes(cfg), seed=seed,
                          label_range=(cfg.label_low, cfg.label_high),
                          split_fracs=(0.0, 0.0, 1.0))
    corruption = harness.CorruptionConfig(mode="test_fixed", rate=0.5,
                                          seed=seed)
    return harness.corrupt_batch(ds.split("test"), corruption,
                                 ds.unknown_text_vector)


def test_loaded_sims_model_agrees_with_its_other_scan_order(tmp_path):
    # a loaded paper-scale model against a twin that runs the order the
    # loaded model does not run, with the same weights
    from mamba_fusion.cli import load_checkpoint, save_checkpoint
    from mamba_fusion.model import build_model
    from mamba_fusion.ssm import SCAN_MODES
    save_checkpoint(build_model("sims", seed=3), tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.config.scan_mode == "recurrent"
    other, = (m for m in SCAN_MODES if m != loaded.config.scan_mode)
    twin = build_model("sims", seed=4, scan_mode=other)
    twin.load_state_arrays(loaded.state_arrays())
    for s in _corrupted_test_samples(loaded.config, 2, seed=3):
        a = loaded.predict(s.x_t, s.x_v, s.x_a)
        b = twin.predict(s.x_t, s.x_v, s.x_a)
        assert np.isfinite(a)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=0.0)


def test_parallel_order_checkpoint_loads_and_predicts_in_that_order(
        tmp_path):
    from mamba_fusion.cli import load_checkpoint, save_checkpoint
    from mamba_fusion.model import build_model
    model = build_model("desk", seed=1, scan_mode="parallel")
    save_checkpoint(model, tmp_path / "ckpt")
    manifest = (tmp_path / "ckpt" / "manifest.txt").read_text()
    assert "config_scan_mode parallel\n" in manifest
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.config.scan_mode == "parallel"
    assert loaded.latent.blocks[0].scan_mode == "parallel"
    for s in _corrupted_test_samples(model.config, 2, seed=1):
        assert loaded.predict(s.x_t, s.x_v, s.x_a) == \
            model.predict(s.x_t, s.x_v, s.x_a)


def test_failed_checkpoint_overwrite_keeps_the_old_checkpoint(
        tmp_path, monkeypatch):
    from mamba_fusion import container
    from mamba_fusion.cli import load_checkpoint, save_checkpoint
    from mamba_fusion.model import build_model
    save_checkpoint(build_model("desk", seed=0), tmp_path / "ckpt")
    samples = _corrupted_test_samples(PRESETS["desk"], 2, seed=0)
    before = [load_checkpoint(tmp_path / "ckpt").predict(s.x_t, s.x_v, s.x_a)
              for s in samples]
    write_tensor = container.write_tensor
    written = []

    def fail_halfway(fh, array):
        if len(written) == 20:
            raise OSError("disk full")
        written.append(1)
        write_tensor(fh, array)

    monkeypatch.setattr(container, "write_tensor", fail_halfway)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(build_model("desk", seed=5), tmp_path / "ckpt")
    monkeypatch.undo()
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == \
        ["manifest.txt", "tensors.bin"]
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert [loaded.predict(s.x_t, s.x_v, s.x_a) for s in samples] == before
