"""Command-line entry point.

Subcommands: generate, train, eval, sweep, bench, gradcheck. Options come
from an INI-style config file with [model] and [train] sections;
command-line flags override config keys. Every run writes a resolved-config
snapshot next to its artifacts, with a [run] section that records the
command; a config file may carry that section, which is ignored, so a
snapshot can be fed back as --config. Any other section is a usage error.

Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import bench, container, datagen, harness, training
from .autodiff import finite_difference_check
from .model import PRESETS, ModelConfig, TextFusionModel
from .training import TrainConfig


class UsageError(ValueError):
    pass


class CheckpointMismatchError(container.ContainerError, ValueError):
    """Checkpoint tensors that disagree with the checkpoint's own config:
    an I/O error (exit 3) like any other bad container."""


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as one-line usage errors (exit 1) instead of
    argparse's usage dump and exit 2, which the exit codes reserve for
    numeric failures."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


_MODEL_FIELDS = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
_TRAIN_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _coerce(name, value, fields, section):
    if name not in fields:
        raise UsageError(
            f"unknown key {name!r} in [{section}]; valid keys: "
            f"{', '.join(sorted(fields))}")
    current = fields[name]
    if current in ("bool", bool):
        word = value.lower()
        if word not in _BOOL_WORDS:
            raise UsageError(
                f"{section}.{name}: {value!r} is not a boolean; use one of "
                f"{', '.join(_BOOL_WORDS)}")
        return _BOOL_WORDS[word]
    for kind in (int, float):
        if current in (kind.__name__, kind):
            try:
                return kind(value)
            except ValueError:
                raise UsageError(f"{section}.{name}: expected "
                                 f"{kind.__name__}, got {value!r}") from None
    return value


def load_config(path, preset="desk", overrides=()):
    """Build (ModelConfig, TrainConfig) from preset, INI file, and overrides.

    Overrides are section.key=value strings.
    """
    model_kw = {}
    train_kw = {}
    if path:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path)
            if not read:
                raise FileNotFoundError(f"config file {path} not found")
            # [run] is what write_resolved_config records about the run
            unknown = [s for s in parser.sections()
                       if s not in ("model", "train", "run")]
            if unknown:
                raise UsageError(
                    f"config file {path}: unknown section [{unknown[0]}]; "
                    "valid sections: [model], [train]")
            if parser.has_option("model", "preset"):
                preset = parser.get("model", "preset")
            for section, kw, fields in (("model", model_kw, _MODEL_FIELDS),
                                        ("train", train_kw, _TRAIN_FIELDS)):
                if parser.has_section(section):
                    for k, v in parser.items(section):
                        if section == "model" and k == "preset":
                            continue
                        kw[k] = _coerce(k, v, fields, section)
        except configparser.Error as e:
            # configparser messages span lines; the CLI prints one
            raise UsageError(f"config file {path}: "
                             f"{' '.join(str(e).split())}") from None
    for ov in overrides:
        key, _, value = ov.partition("=")
        if not value:
            raise UsageError(f"override {ov!r} is not section.key=value")
        section, _, name = key.partition(".")
        if section == "model":
            model_kw[name] = _coerce(name, value, _MODEL_FIELDS, section)
        elif section == "train":
            train_kw[name] = _coerce(name, value, _TRAIN_FIELDS, section)
        else:
            raise UsageError(f"unknown config section {section!r}")
    if preset not in PRESETS:
        raise UsageError(f"unknown preset {preset!r}; "
                         f"choose from {', '.join(sorted(PRESETS))}")
    model_cfg = dataclasses.replace(PRESETS[preset], **model_kw)
    train_cfg = TrainConfig(**train_kw)
    return model_cfg, train_cfg


def write_resolved_config(outdir, model_cfg, train_cfg, extra=()):
    parser = configparser.ConfigParser()
    parser["model"] = {k: str(v) for k, v in
                       dataclasses.asdict(model_cfg).items()}
    parser["train"] = {k: str(v) for k, v in
                       dataclasses.asdict(train_cfg).items()}
    if extra:
        parser["run"] = {k: str(v) for k, v in extra}
    with container.atomic_open(Path(outdir) / "resolved_config.ini") as fh:
        parser.write(fh)


def save_checkpoint(model, outdir):
    extra = [(f"config_{k}", v)
             for k, v in dataclasses.asdict(model.config).items()]
    container.save_named(outdir, model.state_arrays(), extra)


def load_checkpoint(directory):
    manifest, named = container.load_named(directory)
    kw = {name: container.manifest_value(
              manifest, f"config_{name}",
              lambda v: _coerce(name, v, _MODEL_FIELDS, "model"))
          for name in _MODEL_FIELDS if f"config_{name}" in manifest}
    try:
        config = ModelConfig(**kw)
    except ValueError as e:
        raise container.ContainerError(f"checkpoint config: {e}") from None
    try:
        return TextFusionModel.from_state_arrays(config, named)
    except ValueError as e:
        raise CheckpointMismatchError(f"checkpoint {directory}: {e}") \
            from None


def _shapes(model_cfg):
    return datagen.ShapeSpec(
        model_cfg.t_text, model_cfg.d_text, model_cfg.t_visual,
        model_cfg.d_visual, model_cfg.t_audio, model_cfg.d_audio)


def _synthetic(model_cfg, n, seed):
    return datagen.generate(n, shapes=_shapes(model_cfg), seed=seed,
                            label_range=(model_cfg.label_low,
                                         model_cfg.label_high))


def _dataset_for(args, model_cfg, seed):
    if not args.data:
        return _synthetic(model_cfg, args.n, seed)
    ds = datagen.load(args.data)
    got = dataclasses.asdict(ds.shapes)
    want = dataclasses.asdict(_shapes(model_cfg))
    diff = [f"{k} {got[k]} vs {want[k]}" for k in want if got[k] != want[k]]
    if diff:
        raise UsageError(f"dataset {args.data} does not fit the model "
                         f"config (dataset vs config): {', '.join(diff)}")
    return ds


def _test_split(args, model_cfg):
    ds = _dataset_for(args, model_cfg, args.seed)
    test = ds.split("test")
    if not test:
        raise UsageError(f"{args.command} needs samples in the test split; "
                         f"got 0 test of {len(ds.samples)}")
    return test, ds.unknown_text_vector


def cmd_generate(args):
    model_cfg, _ = load_config(args.config, args.preset, args.set)
    ds = _synthetic(model_cfg, args.n, args.seed)
    datagen.save(ds, args.out)
    datagen.export_labels_csv(ds, Path(args.out) / "labels.csv")
    print(f"wrote {args.n} samples to {args.out}")
    return 0


def cmd_train(args):
    model_cfg, train_cfg = load_config(args.config, args.preset, args.set)
    if args.seed is not None:
        train_cfg = dataclasses.replace(train_cfg, seed=args.seed)
    if args.epochs is not None:
        train_cfg = dataclasses.replace(train_cfg, epochs=args.epochs)
    ds = _dataset_for(args, model_cfg, train_cfg.seed)
    train_set, valid_set = ds.split("train"), ds.split("valid")
    if not train_set or not valid_set:
        raise UsageError(
            f"train needs samples in both splits; got {len(train_set)} "
            f"train and {len(valid_set)} validation of {len(ds.samples)}")
    model = TextFusionModel(model_cfg, seed=train_cfg.seed)
    history = training.train(model, train_set, train_cfg,
                             ds.unknown_text_vector, valid_samples=valid_set)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "checkpoint")
    container.write_text(out / "loss.csv", training.loss_curve_csv(history))
    write_resolved_config(out, model_cfg, train_cfg,
                          [("command", "train"), ("seed", train_cfg.seed)])
    print(f"trained {train_cfg.epochs} epochs; "
          f"best val MAE {history['best_val_mae']:.4f}")
    return 0


def _scheme(model_cfg):
    return "sims" if model_cfg.label_high <= 1.0 else "mosi"


def cmd_eval(args):
    model_cfg, train_cfg = load_config(args.config, args.preset, args.set)
    model = load_checkpoint(args.checkpoint) if args.checkpoint \
        else TextFusionModel(model_cfg, seed=args.seed)
    test, unk = _test_split(args, model.config)
    row = harness.evaluate_fixed(model, test, unk, args.rate, seed=args.seed,
                                 scheme=_scheme(model.config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    container.write_text(out / "metrics.json",
                         json.dumps(row, indent=2, sort_keys=True))
    write_resolved_config(out, model.config, train_cfg,
                          [("command", "eval"), ("rate", args.rate)])
    print(f"r={args.rate}: MAE {row['mae']:.4f} Corr {row['corr']:.4f}")
    return 0


def cmd_sweep(args):
    model_cfg, train_cfg = load_config(args.config, args.preset, args.set)
    model = load_checkpoint(args.checkpoint) if args.checkpoint \
        else TextFusionModel(model_cfg, seed=args.seed)
    test, unk = _test_split(args, model.config)
    report = harness.evaluate_sweep(model, test, unk, seed=args.seed,
                                    scheme=_scheme(model.config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    container.write_text(out / "sweep.csv", report.to_csv())
    container.write_text(out / "sweep.json", report.to_json())
    write_resolved_config(out, model.config, train_cfg,
                          [("command", "sweep")])
    print(report.to_csv())
    return 0


def cmd_bench(args):
    model_cfg, train_cfg = load_config(args.config, args.preset, args.set)
    if args.length is not None and args.length < 1:
        raise UsageError(f"--length must be >= 1, got {args.length}")
    if args.reps < 1:
        raise UsageError(f"--reps must be >= 1, got {args.reps}")
    model = TextFusionModel(model_cfg, seed=args.seed)
    timing = None
    if args.time:
        rng = np.random.default_rng(args.seed)
        x_t = rng.standard_normal((model_cfg.t_text, model_cfg.d_text))
        x_v = rng.standard_normal((model_cfg.t_visual, model_cfg.d_visual))
        x_a = rng.standard_normal((model_cfg.t_audio, model_cfg.d_audio))
        timing = bench.wallclock(lambda: model.predict(x_t, x_v, x_a),
                                 reps=args.reps)
    report = bench.cost_report(model, length=args.length, timing=timing)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    container.write_text(out / "cost_report.json", bench.report_json(report))
    write_resolved_config(out, model_cfg, train_cfg, [("command", "bench")])
    print(bench.report_table(report))
    return 0


def cmd_gradcheck(args):
    model_cfg, _ = load_config(args.config, args.preset, args.set)
    model = TextFusionModel(model_cfg, seed=args.seed)
    ds = _synthetic(model_cfg, 2, args.seed)
    cfg = harness.CorruptionConfig(mode="test_fixed", rate=0.3, seed=args.seed)
    batch = harness.corrupt_batch(ds.samples, cfg, ds.unknown_text_vector)
    err = finite_difference_check(
        lambda: training.batch_loss(model, batch, 0.7)[0], model.parameters(),
        per_coordinate=args.per_coordinate)
    print(f"max relative gradient error: {err:.3e} (tolerance 1e-4)")
    if err >= 1e-4:
        print("gradient check FAILED")
        return 2
    print("gradient check passed")
    return 0


def build_parser():
    parser = _Parser(
        prog="mamba-fusion",
        description="Text-enhanced bidirectional-scan multimodal fusion "
                    "with a missing-modality robustness harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--preset", default="desk",
                       choices=sorted(PRESETS))
        p.add_argument("--set", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override a config key")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out")

    p = sub.add_parser("generate", help="write a synthetic dataset")
    common(p)
    p.add_argument("--n", type=int, default=256)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--data", default=None)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(fn=cmd_train, seed=None)

    p = sub.add_parser("eval", help="metrics at one missing rate")
    common(p)
    p.add_argument("--data", default=None)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--rate", type=float, default=0.0)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="missing-rate sweep 0.0..0.9")
    common(p)
    p.add_argument("--data", default=None)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("bench", help="parameter/FLOPs cost report")
    common(p)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--time", action="store_true")
    p.add_argument("--reps", type=int, default=30)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    common(p)
    p.add_argument("--per-coordinate", type=int, default=8,
                   dest="per_coordinate",
                   help="coordinates checked per parameter")
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # the package's finiteness checks report a numeric fault in one
        # line, so numpy's own overflow warnings would only add noise
        with np.errstate(all="ignore"):
            return args.fn(args)
    # before ValueError: a CheckpointMismatchError is both
    except (OSError, container.ContainerError) as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FloatingPointError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
