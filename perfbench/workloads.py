"""The benchmark's three workloads, each a single-process closed loop.

One caller runs one operation at a time: a training step on the ``*-train``
workloads, the corruption and prediction of one test sample on
``sims-sweep``. The package is driven only through its public API, and the
traced run times each layer from outside through ``spans``.
"""

from __future__ import annotations

import contextlib
import math
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mamba_fusion.harness as harness_module
from mamba_fusion import Tape, backward, bench, build_model, cli, datagen, \
    harness
from mamba_fusion.autodiff import MacCounter
from mamba_fusion.training import AdamW, TrainConfig

import spans

_clock = time.perf_counter

SETUP_FIRST = 3        # set-ups before the timed loop
SETUP_SPREAD = 24      # more set-ups, spread evenly over the timed loop
TAIL_BEYOND = 10       # the tail percentile leaves this many samples above it
RTOL_SCAN_ORDER = 1e-9
MIN_COVERAGE = 0.95    # the traced median share of an op its spans cover
SCAN_CHECK_SAMPLES = 2
MIB = 2.0 ** 20
YARDSTICK_MS = 8.0     # the yardstick time the result line's figures assume
YARDSTICK_PER_SWEEP = 5  # yardstick timings between sweep repetitions


@dataclass(frozen=True)
class Spec:
    preset: str
    kind: str          # "train" or "sweep"
    n_samples: int     # training set size, or test split size for a sweep
    batch: int = 1     # samples per operation


WORKLOADS = {
    "desk-train": Spec("desk", "train", n_samples=32, batch=8),
    "mosi-train": Spec("mosi", "train", n_samples=8, batch=2),
    "sims-sweep": Spec("sims", "sweep", n_samples=4),
}

# The result line's end-to-end metrics per kind, by the names every workload
# shares: the measured metric each comes from, its unit and unit scale, and
# the power of the host-speed adjustment (1 for a time, -1 for a rate).
E2E = {
    "train": {"setup_s": ("setup_wall_s", "s", 1.0, 1),
              "op_ms_p50": ("train_step_s_p50", "ms", 1e3, 1),
              "op_ms_tail": ("train_step_s_tail", "ms", 1e3, 1),
              "samples_per_s": ("train_samples_per_s", "1/s", 1.0, -1),
              "peak_mib": ("train_peak_mib", "MiB", 1.0, 0)},
    "sweep": {"setup_s": ("setup_wall_s", "s", 1.0, 1),
              "op_ms_p50": ("predict_ms_p50", "ms", 1.0, 1),
              "op_ms_tail": ("predict_ms_tail", "ms", 1.0, 1),
              "samples_per_s": ("sweep_samples_per_s", "1/s", 1.0, -1),
              "peak_mib": ("predict_peak_mib", "MiB", 1.0, 0)},
}

# Forward layers with an analytic MAC count: span layer -> model_macs key.
MAC_LAYERS = {"tme.align": "align", "tme.enhance": "enhance",
              "tme.reconstruct": "reconstruct",
              "tc_mamba.context": "context",
              "tq_mamba.cross_attention": "cross_attention",
              "tq_mamba.latent": "latent", "tq_mamba.head": "head"}
# Top-level layers of a training step, for the per-module tape-node split.
NODE_LAYERS = tuple(MAC_LAYERS) + ("tme.recon_loss", "harness.loss")


class Yardstick:
    """A fixed numpy computation that does not use the package, timed between
    a run's operations and set-ups.

    The shared host's speed drifts by tens of percent over minutes, and the
    package's operations slow down with it. The yardstick's median time over
    a run tells how fast the host ran during it; the result line scales each
    time by YARDSTICK_MS over that median, and each rate by its inverse.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((64, 128))
        self._w = 0.05 * rng.standard_normal((128, 128))
        self._v = rng.standard_normal((50, 32, 16))
        self.times = []

    def tick(self, repeat=1):
        for _ in range(repeat):
            t0 = _clock()
            h = self._x
            for _ in range(30):
                h = np.tanh(h @ self._w)
                h = h + 0.1 * np.exp(-np.abs(h)) * h
                np.cumsum(0.5 * self._v, axis=0).sum()
            self.times.append(_clock() - t0)

    def median_ms(self):
        return 1e3 * statistics.median(self.times)


class Run:
    """Counts, checks and metrics of one run; ``metrics`` maps a name to
    ``(value, unit)``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.metrics = {}
        self.notes = {}
        self.tracer = spans.Tracer()
        self.yardstick = Yardstick()

    def check(self, name, ok, detail=""):
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def op_failed(self, what):
        self.failed += 1
        print(f"failed operation: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def put(self, name, value, unit):
        self.metrics[name] = (value, unit)


def tail(values):
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it, but never below the median; the maximum
    when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    i = max(n - TAIL_BEYOND - 1, n // 2)
    return ordered[i], 100.0 * (i + 1) / n


def shapes_of(cfg):
    return datagen.ShapeSpec(cfg.t_text, cfg.d_text, cfg.t_visual,
                             cfg.d_visual, cfg.t_audio, cfg.d_audio)


class SetupSampler:
    """Times the workload's set-up, the median of which is ``setup_wall_s``.

    The host's speed drifts over seconds, so a run sets up SETUP_FIRST
    times before its timed loop and SETUP_SPREAD more times between
    operations, spread evenly over the loop. The run uses the objects of
    the last set-up before the loop and discards the later ones. The
    yardstick is timed after each set-up.
    """

    def __init__(self, yardstick, setup, *args):
        self._yardstick = yardstick
        self._setup = setup
        self._args = args
        self.times = []
        self.parts = []

    def _one(self):
        t0 = _clock()
        objects, timed = self._setup(*self._args)
        self.times.append(_clock() - t0)
        self.parts.append(timed)
        self._yardstick.tick()
        return objects

    def first(self):
        for _ in range(SETUP_FIRST):
            objects = self._one()
        return objects

    def between_ops(self, done_frac):
        """Set up until the spread set-ups keep pace with ``done_frac`` of
        the timed loop."""
        due = min(SETUP_SPREAD, math.ceil(SETUP_SPREAD * done_frac))
        while len(self.times) - SETUP_FIRST < due:
            self._one()

    def median(self):
        return statistics.median(self.times)

    def median_parts(self):
        return {k: statistics.median(p[k] for p in self.parts)
                for k in self.parts[0]}


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def check_macs(model, sample, run):
    """Gate each BiMamba's instrumented MACs on ``bench.macs_bimamba`` and
    record the whole prediction forward against ``bench.model_macs``."""
    cfg = model.config
    expected = bench.macs_bimamba(cfg.length, cfg.d_model, cfg.expansion,
                                  cfg.state_dim, cfg.conv_width,
                                  mode=cfg.scan_mode)
    counted = []
    with MacCounter() as counter:
        def probe(name, fn, args, kwargs):
            before = counter.macs
            out = fn(*args, **kwargs)
            counted.append((name, counter.macs - before))
            return out

        blocks = [t for t in spans.targets(model)
                  if spans.layer(t[2]) == "ssm.bimamba"]
        with spans.proxied(blocks, probe):
            model.forward(sample.x_t, sample.x_v, sample.x_a)
    n_blocks = 4 * cfg.tc_depth + cfg.tq_depth
    run.check("bimamba calls counted", len(counted) == n_blocks,
              f"{len(counted)} of {n_blocks}")
    for name, macs in counted:
        run.check(f"macs {name}", macs == expected, f"{macs} vs {expected}")
    analytic = bench.model_macs(cfg, mode=cfg.scan_mode)
    for key, value in analytic.items():
        run.put(f"bench.macs.{key}", value, "count")
    # A prediction runs no reconstructor. The instrumented count exceeds the
    # analytic one by L*D per context block, a multiply the cost model omits.
    run.put("bench.instrumented_macs", counter.macs, "count")
    run.put("bench.model_macs", analytic["total"], "count")
    run.put("bench.macs_gap",
            counter.macs - (analytic["total"] - analytic["reconstruct"]),
            "count")
    return analytic


def put_layers(run, tracer, analytic, cfg, forwards_per_op):
    """Per-layer metrics from the spans of the traced ops."""
    table, coverage = spans.summarize(tracer.spans)
    for name, key in MAC_LAYERS.items():
        if name in table:
            run.put(f"{name}_s", table[name]["s"], "s")
            run.put(f"{name}_macs_per_s",
                    forwards_per_op * analytic[key] / table[name]["s"],
                    "MAC/s")
    for name in ("tme.recon_loss", "tc_mamba.pair_tv", "tc_mamba.pair_ta",
                 "ssm.bimamba", "ssm.conv", "harness.corrupt",
                 "autodiff.backward", "training.adamw", "training.zero_grad",
                 "harness.loss"):
        if name in table:
            run.put(f"{name}_s", table[name]["s"], "s")
    rec = table["ssm.recurrence"]
    run.put("ssm.recurrence_s", rec["s"], "s")
    run.put("ssm.recurrence_calls", rec["calls"], "count")
    run.put("ssm.recurrence_bytes", rec["bytes"], "bytes-computed")
    per_call = bench.macs_recurrence(cfg.length, cfg.expansion * cfg.d_model,
                                     cfg.state_dim, cfg.scan_mode)
    run.put("ssm.recurrence_macs_per_s", rec["calls"] * per_call / rec["s"],
            "MAC/s")
    median_coverage = statistics.median(coverage)
    run.put("trace.coverage", median_coverage, "ratio")
    run.check("trace coverage", median_coverage >= MIN_COVERAGE,
              f"median {median_coverage:.4f}, at least {MIN_COVERAGE} "
              "required")
    run.notes["trace_coverage_min"] = min(coverage)
    run.notes["traced_ops"] = len(coverage)
    run.notes["layers"] = {k: {f: v[f] for f in ("s", "self_s", "calls")}
                           for k, v in table.items()}


def put_results(run, kind):
    """Add the result line's end-to-end metrics, adjusted to a host on which
    the yardstick takes YARDSTICK_MS."""
    measured_ms = run.yardstick.median_ms()
    run.put("host.yardstick_ms", measured_ms, "ms")
    host = YARDSTICK_MS / measured_ms
    for name, (source, unit, scale, power) in E2E[kind].items():
        if source in run.metrics:
            run.put(name, run.metrics[source][0] * scale * host ** power,
                    unit)


def put_overhead(run, traced_times, untraced_times):
    if traced_times and untraced_times:
        run.put("trace.overhead_frac", statistics.median(traced_times)
                / statistics.median(untraced_times) - 1.0, "ratio")


# ---------------------------------------------------------------------------
# Training workloads
# ---------------------------------------------------------------------------

def _setup_train(spec, seed):
    model = build_model(spec.preset, seed=seed)
    cfg = model.config
    t0 = _clock()
    ds = datagen.generate(spec.n_samples, shapes=shapes_of(cfg), seed=seed,
                          label_range=(cfg.label_low, cfg.label_high),
                          split_fracs=(1.0, 0.0, 0.0))
    generate_s = _clock() - t0
    t = TrainConfig()
    opt = AdamW(model.parameters(), lr=t.lr, beta1=t.beta1, beta2=t.beta2,
                eps=t.eps, weight_decay=t.weight_decay)
    return (model, ds, opt), {"generate_s": generate_s}


def assemble_loss(y_hats, recs, labels, lambda_rec):
    """Task MSE plus the weighted mean reconstruction loss, as training does."""
    task = harness.task_loss_tensor(y_hats, labels)
    rec_acc = recs[0]
    for r in recs[1:]:
        rec_acc = rec_acc + r
    return harness.total_loss(task, rec_acc * (1.0 / len(recs)), lambda_rec)


class Trainer:
    """Training steps with per-step resampled train-uncertain corruption."""

    def __init__(self, spec, seed, model, ds, opt):
        self.batch_size = spec.batch
        self.model = model
        self.samples = ds.split("train")
        self.unk = ds.unknown_text_vector
        self.opt = opt
        self.corruption = harness.CorruptionConfig(mode="train_uncertain",
                                                   seed=seed)
        self.order = np.random.default_rng([seed, 0xD5])
        self.perm = np.arange(0)
        self.lambda_rec = TrainConfig().lambda_rec
        self.steps = 0

    def _batch(self):
        if len(self.perm) < self.batch_size:
            self.perm = self.order.permutation(len(self.samples))
        idx = self.perm[:self.batch_size]
        self.perm = self.perm[self.batch_size:]
        return idx

    def step(self, call=_direct, tracer=None, count_reached=False):
        """One step; returns (tape records, records a gradient reached)."""
        self.steps += 1
        batch = [call("harness.corrupt:corrupt_sample",
                      harness.corrupt_sample, self.samples[i],
                      self.corruption, self.unk, int(i), self.steps)
                 for i in self._batch()]
        call("training.zero_grad:zero_grad", self.opt.zero_grad)
        with Tape() as tape:
            if tracer is not None:
                tracer.tape = tape
            y_hats, recs = [], []
            for cs in batch:
                y_hat, rec = self.model.forward(cs.x_t, cs.x_v, cs.x_a,
                                                x_t_clean=cs.clean_x_t,
                                                p_t=cs.p_t)
                y_hats.append(y_hat)
                recs.append(rec)
            loss = call("harness.loss:assemble_loss", assemble_loss, y_hats,
                        recs, [cs.y for cs in batch], self.lambda_rec)
            if not math.isfinite(float(loss.data)):
                raise FloatingPointError(f"non-finite loss {loss.data}")
            call("autodiff.backward:backward", backward, loss)
        call("training.adamw:step", self.opt.step)
        reached = sum(out.grad is not None for out, _, _ in tape.records) \
            if count_reached else 0
        return len(tape.records), reached


def run_train(spec, seed, seconds, traced):
    run = Run()
    setups = SetupSampler(run.yardstick, _setup_train, spec, seed)
    model, ds, opt = setups.first()
    analytic = check_macs(model, ds.samples[0], run)
    trainer = Trainer(spec, seed, model, ds, opt)
    trainer.step()                                   # warm-up, untimed
    entries = spans.targets(model)
    tracer = run.tracer
    times, traced_times, nodes = [], [], None
    op = 0
    start = _clock()
    deadline = start + seconds
    # At least two steps, so that a traced run has an untraced step too.
    while op < 2 or _clock() < deadline:
        if not traced:
            setups.between_ops((_clock() - start) / seconds)
            run.yardstick.tick()
        tracing = traced and op % 2 == 0
        run.attempted += 1
        try:
            with spans.proxied(entries, tracer.on_call) if tracing \
                    else contextlib.nullcontext():
                t0 = _clock()
                if tracing:
                    tracer.begin_op(op)
                    counts = trainer.step(tracer.call, tracer, op == 0)
                    tracer.end_op()
                else:
                    counts = trainer.step()
                elapsed = _clock() - t0
        except Exception:
            if tracer.stack:
                tracer.end_op()
            run.op_failed(f"step {op}")
        else:
            (traced_times if tracing else times).append(elapsed)
            if op == 0:
                nodes = counts
        op += 1
    run.notes["steps"] = op
    run.put("setup_wall_s", setups.median(), "s")
    if not traced:
        if times:
            run.put("train_step_s_p50", statistics.median(times), "s")
            value, run.notes["tail_percentile"] = tail(times)
            run.put("train_step_s_tail", value, "s")
            run.put("train_samples_per_s",
                    spec.batch * len(times) / sum(times), "1/s")
        run.attempted += 1
        try:
            run.put("train_peak_mib", _peak_mib(trainer.step), "MiB")
        except Exception:
            run.op_failed("peak-memory step")
        put_results(run, spec.kind)
        return run
    if not traced_times:
        return run
    put_layers(run, tracer, analytic, model.config, spec.batch)
    put_overhead(run, traced_times, times)
    run.put("datagen.generate_s", setups.median_parts()["generate_s"], "s")
    if nodes is not None:
        total, reached = nodes
        run.put("autodiff.tape_nodes", total, "count")
        run.put("autodiff.useful_node_ratio", reached / total, "ratio")
        split = dict.fromkeys(NODE_LAYERS, 0)
        for s in tracer.spans:
            name = spans.layer(s[spans.NAME])
            if s[spans.OP] == 0 and name in split and \
                    tracer.spans[s[spans.PARENT]][spans.NAME] == "op":
                split[name] += s[spans.NODES]
        for name, count in split.items():
            run.put(f"autodiff.tape_nodes.{name}", count, "count")
        run.put("autodiff.tape_nodes.other", total - sum(split.values()),
                "count")
    return run


# ---------------------------------------------------------------------------
# Sweep workload
# ---------------------------------------------------------------------------

def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).iterdir())


def _setup_sweep(spec, seed, workdir):
    model = build_model(spec.preset, seed=seed)
    cfg = model.config
    t0 = _clock()
    ds = datagen.generate(spec.n_samples, shapes=shapes_of(cfg), seed=seed,
                          label_range=(cfg.label_low, cfg.label_high),
                          split_fracs=(0.0, 0.0, 1.0))
    t1 = _clock()
    datagen.save(ds, workdir / "data")
    cli.save_checkpoint(model, workdir / "checkpoint")
    t2 = _clock()
    ds = datagen.load(workdir / "data")
    model = cli.load_checkpoint(workdir / "checkpoint")
    t3 = _clock()
    return (model, ds), {"generate_s": t1 - t0, "save_s": t2 - t1,
                         "load_s": t3 - t2}


class SweepTimer:
    """Times each test sample from its corruption to its prediction by
    standing in for ``harness.corrupt_sample`` and ``model.predict``."""

    def __init__(self, run, tracer, corrupt, predict):
        self.run = run
        self.tracer = tracer
        self.tracing = False
        self._corrupt = corrupt
        self._predict = predict
        self.t0 = 0.0
        self.op = 0
        self.times = []

    def corrupt(self, *args, **kwargs):
        self.run.attempted += 1
        self.t0 = _clock()
        if self.tracing:
            self.tracer.begin_op(self.op)
            return self.tracer.call("harness.corrupt:corrupt_sample",
                                    self._corrupt, *args, **kwargs)
        return self._corrupt(*args, **kwargs)

    def predict(self, *args):
        y = self._predict(*args)
        elapsed = _clock() - self.t0
        if self.tracing:
            self.tracer.end_op()
        self.op += 1
        if math.isfinite(y):
            self.times.append(elapsed)
        else:
            self.run.failed += 1
            print(f"non-finite prediction {y}", file=sys.stderr)
        return y


def run_sweep(spec, seed, seconds, traced, workdir):
    run = Run()
    setups = SetupSampler(run.yardstick, _setup_sweep, spec, seed, workdir)
    model, ds = setups.first()
    test = ds.split("test")
    unk = ds.unknown_text_vector
    scheme = "sims" if model.config.label_high <= 1.0 else "mosi"
    analytic = check_macs(model, test[0], run)

    # Scan-order agreement of the loaded model; also warms the caches.
    recurrent = build_model(spec.preset, seed=seed, scan_mode="recurrent")
    recurrent.load_state_arrays(model.state_arrays())
    for i, s in enumerate(test[:SCAN_CHECK_SAMPLES]):
        a = model.predict(s.x_t, s.x_v, s.x_a)
        b = recurrent.predict(s.x_t, s.x_v, s.x_a)
        run.check(f"scan order sample {i}",
                  math.isfinite(a) and np.isclose(a, b, rtol=RTOL_SCAN_ORDER,
                                                  atol=0.0),
                  f"parallel {a!r} recurrent {b!r}")

    tracer = run.tracer
    timer = SweepTimer(run, tracer, harness.corrupt_sample, model.predict)
    timing = [(harness_module, "corrupt_sample", timer.corrupt),
              (model, "predict", timer.predict)]
    entries = spans.targets(model) + [
        (harness_module, "metrics", "harness.metrics:metrics")]
    reports, rates = [], []
    times, traced_times = [], []
    rep = 0
    start = _clock()
    deadline = start + seconds
    # At least two repetitions, so that the first and last reports can be
    # compared and a traced run has an untraced repetition to compare with.
    while rep < 2 or _clock() < deadline:
        if not traced:
            setups.between_ops((_clock() - start) / seconds)
            run.yardstick.tick(YARDSTICK_PER_SWEEP)
        timer.tracing = traced and rep % 2 == 0
        first = len(timer.times)
        try:
            with spans.swapped(timing), \
                    spans.proxied(entries, tracer.on_call) if timer.tracing \
                    else contextlib.nullcontext():
                t0 = _clock()
                report = harness.evaluate_sweep(model, test, unk, seed=seed,
                                                scheme=scheme)
                elapsed = _clock() - t0
        except Exception:
            if tracer.stack:
                tracer.end_op()
            run.op_failed(f"sweep repetition {rep}")
        else:
            reports.append(report.to_json())
            if timer.tracing:
                traced_times += timer.times[first:]
            else:
                times += timer.times[first:]
                rates.append(len(harness.SWEEP_RATES) * len(test) / elapsed)
        rep += 1
    if len(reports) >= 2:
        run.check("first and last sweep reports identical",
                  reports[0] == reports[-1])
    run.notes["repetitions"] = rep
    run.put("setup_wall_s", setups.median(), "s")
    run.notes["predictions"] = len(timer.times)
    if not traced:
        if times:
            run.put("predict_ms_p50", 1e3 * statistics.median(times), "ms")
            value, run.notes["tail_percentile"] = tail(times)
            run.put("predict_ms_tail", 1e3 * value, "ms")
            run.put("sweep_samples_per_s", statistics.median(rates), "1/s")
        cfg = harness.CorruptionConfig(mode="test_fixed", rate=0.5, seed=seed)
        run.attempted += 1
        try:
            cs = harness.corrupt_sample(test[0], cfg, unk)
            run.put("predict_peak_mib", _peak_mib(
                lambda: model.predict(cs.x_t, cs.x_v, cs.x_a)), "MiB")
        except Exception:
            run.op_failed("peak-memory prediction")
        put_results(run, spec.kind)
        return run
    if not traced_times:
        return run
    put_layers(run, tracer, analytic, model.config, 1)
    put_overhead(run, traced_times, times)
    run.put("harness.metrics_s", statistics.median(
        spans.outside_ops(tracer.spans, "harness.metrics")), "s")
    io = setups.median_parts()
    run.put("datagen.generate_s", io["generate_s"], "s")
    nbytes = _dir_bytes(workdir / "data") + _dir_bytes(workdir / "checkpoint")
    run.put("container.bytes", nbytes, "bytes")
    run.put("container.save_s", io["save_s"], "s")
    run.put("container.load_s", io["load_s"], "s")
    run.put("container.save_mib_per_s", nbytes / MIB / io["save_s"], "MiB/s")
    run.put("container.load_mib_per_s", nbytes / MIB / io["load_s"], "MiB/s")
    return run


def run_workload(name, seed, seconds, traced, workdir):
    """Run one workload; a sweep writes its files under ``workdir``, which
    it removes at the end."""
    spec = WORKLOADS[name]
    if spec.kind == "train":
        return run_train(spec, seed, seconds, traced)
    workdir.mkdir(parents=True)
    try:
        return run_sweep(spec, seed, seconds, traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
