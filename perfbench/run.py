"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. With ``--trace 0`` it prints the
end-to-end metrics as measured and, under the names of ``BENCHMARK.json``,
adjusted for the host's speed during the run (``workloads.Yardstick``);
with ``--trace 1`` it prints the per-layer ones from a separate traced run.
Each metric is printed by name with its unit, then the correctness checks,
and the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` named as in ``BENCHMARK.json``.
``--out FILE`` also writes a result file with an environment block (and,
when tracing, the spans next to it). The exit code is 1 when any
operation or check failed, 2 when the package or ``BENCHMARK.json``
cannot be found.
"""

import os

# Pin BLAS threads before numpy loads; one thread is never above nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def environment(seed):
    """Where and how a result was measured."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        revision = lines[1] if top.returncode == 0 and \
            Path(lines[0]).resolve() == ROOT.resolve() else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unknown"
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "numpy": np.__version__,
            "python": platform.python_version(), "git_revision": revision,
            "seed": seed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write a result file here")
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mamba_fusion").is_dir() or \
            not bench_file.is_file():
        print(f"error: run from the root of a checkout; {ROOT} holds no "
              "src/mamba_fusion or BENCHMARK.json", file=sys.stderr)
        return 2
    declared = json.loads(bench_file.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    run = workloads.run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace),
                                 ROOT / f".perfbench_work-{os.getpid()}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blas threads {BLAS_THREADS}  nproc "
          f"{len(os.sched_getaffinity(0))}")
    failed_frac = run.failed / max(run.attempted, 1)
    run.put("failed_frac", failed_frac, "ratio")
    for name, (value, unit) in run.metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    for key, value in run.notes.items():
        if key != "layers":
            print(f"  note {key} = {value}")
    if args.trace:
        print(f"  {'layer':<28}{'s/op':>12}{'self s/op':>12}{'calls/op':>10}")
        for name, row in run.notes.get("layers", {}).items():
            print(f"  {name:<28}{row['s']:>12.6f}{row['self_s']:>12.6f}"
                  f"{row['calls']:>10g}")
    for c in run.checks:
        if not c["ok"]:
            print(f"  CHECK FAILED {c['name']}: {c['detail']}")
    print(f"  checks {sum(c['ok'] for c in run.checks)}/{len(run.checks)} "
          f"passed; {run.failed} of {run.attempted} operations and checks "
          "failed")

    result_metrics = {
        m["name"]: {"value": run.metrics.get(m["name"], (None,))[0],
                    "unit": m["unit"]}
        for m in declared["per_layer" if args.trace else "end_to_end"]}
    correct = run.failed == 0 and all(
        m["value"] is not None for m in result_metrics.values())
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": result_metrics}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "env": environment(args.seed),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in run.metrics.items()},
            "notes": run.notes, "checks": run.checks, "result": result},
            indent=1))
        if args.trace:
            run.tracer.write(args.out.with_suffix(".spans.jsonl"))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
