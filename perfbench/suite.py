"""Run workloads over several seeds and summarize each metric across runs.

    python3 perfbench/suite.py --runs 10 --out results/base.json
    python3 perfbench/suite.py --runs 5 --workload mosi-train --trace 1 --out t.json

Each run is a fresh ``run.py`` process with its own seed, 1..--runs, and
measures ``run_seconds`` from ``BENCHMARK.json``. The result file holds
every run and, per workload and metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median. The table flags an end-to-end spread above a third of
the metric's bound in ``BENCHMARK.json``. ``compare.py`` reads two such
files.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (median, median, median)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values), "min": min(values), "max": max(values)}


def run_workload(workload, seeds, seconds, trace, rundir):
    runs = []
    for seed in seeds:
        out = rundir / f"{workload}-seed{seed}-trace{trace}.json"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out", str(out)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0 or not out.is_file():
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
            raise SystemExit(f"{workload} seed {seed} exited with "
                             f"{proc.returncode}")
        runs.append(json.loads(out.read_text()))
        last = proc.stdout.strip().splitlines()[-1]
        print(f"  {workload} seed {seed}: {last[:160]}", flush=True)
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    names = args.workload or [w["name"] for w in declared["workloads"]]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seeds = range(1, args.runs + 1)
    rundir = args.out.with_suffix("")
    rundir.mkdir(parents=True, exist_ok=True)

    result = {"seconds": seconds, "trace": args.trace, "env": None,
              "workloads": {}}
    for name in names:
        runs = run_workload(name, seeds, seconds, args.trace, rundir)
        env = dict(runs[0]["env"])
        env.pop("seed")
        env["seeds"] = list(seeds)
        result["env"] = result["env"] or env
        keys = list(runs[0]["metrics"]) + ["attempted", "failed"]
        summary = {}
        for key in keys:
            if key in ("attempted", "failed"):
                values, unit = [r["result"][key] for r in runs], "count"
            else:
                values = [r["metrics"].get(key, {}).get("value")
                          for r in runs]
                unit = runs[0]["metrics"][key]["unit"]
            s = summarize(values)
            if s is not None:
                s["unit"] = unit
                summary[key] = s
        result["workloads"][name] = {"runs": runs, "summary": summary}
        print_summary(name, summary, bounds)
    args.out.write_text(json.dumps(result, indent=1))
    print(f"wrote {args.out}")
    return 0


def print_summary(name, summary, bounds):
    print(f"{name}")
    print(f"  {'metric':<40}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}  unit")
    for key, s in summary.items():
        if key.startswith("bench.macs."):
            continue
        bound = bounds.get(key)
        flag = ""
        if bound is not None and s["spread"] > bound / 3:
            flag = f"  spread above bound/3 ({bound}/3)"
        print(f"  {key:<40}{s['median']:>14.6g}{s['q1']:>14.6g}"
              f"{s['q3']:>14.6g}{s['spread']:>9.4f}  {s['unit']}{flag}")


if __name__ == "__main__":
    sys.exit(main())
