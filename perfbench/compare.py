"""Compare two ``suite.py`` result files, metric by metric.

    python3 perfbench/compare.py parent.json change.json

For every workload in both files and every end-to-end metric it prints the
parent's and the change's median with quartiles, and the ratio
change / parent. A metric is flagged "regression" when the change's median
is worse than the parent's by more than the metric's bound in
``BENCHMARK.json``, and "unresolved" when either side's run-to-run spread
is wider than the bound, unless every change run reads better than every
parent run. The exit code is 1 when any metric regressed, and 2 when the
two files were measured with different run lengths.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(base, new, metric, base_runs, new_runs):
    sign = 1.0 if metric["better"] == "lower" else -1.0
    if max(sign * v for v in new_runs) < min(sign * v for v in base_runs):
        return "better in every run"
    if max(base["spread"], new["spread"]) > metric["bound"]:
        return "unresolved"
    worse_by = sign * (new["median"] - base["median"]) / abs(base["median"])
    return "regression" if worse_by > metric["bound"] else "ok"


def run_values(workload, key):
    return [r["metrics"][key]["value"] for r in workload["runs"]]


def quartiles(s):
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    declared = {m["name"]: m for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    parent = json.loads(args.parent.read_text())
    change = json.loads(args.change.read_text())
    for side, data in (("parent", parent), ("change", change)):
        env = data["env"]
        print(f"{side}: rev {env['git_revision'][:12]}, {env['cpu_model']}, "
              f"nproc {env['nproc']}, {env['blas']} x{env['blas_threads']}, "
              f"numpy {env['numpy']}, python {env['python']}, "
              f"{data['seconds']} s runs, seeds {env['seeds']}")
    if parent["seconds"] != change["seconds"]:
        print(f"error: run lengths differ ({parent['seconds']} s and "
              f"{change['seconds']} s); measure both sides with "
              "run_seconds from BENCHMARK.json", file=sys.stderr)
        return 2
    regressions = 0
    for name, base_w in parent["workloads"].items():
        new_w = change["workloads"].get(name)
        if new_w is None:
            print(f"{name}: missing from {args.change}")
            continue
        print(name)
        print(f"  {'metric':<22}{'parent median [q1, q3]':>34}"
              f"{'change median [q1, q3]':>34}{'ratio':>8}  verdict")
        for key, metric in declared.items():
            base = base_w["summary"].get(key)
            new = new_w["summary"].get(key)
            if base is None or new is None:
                continue
            v = verdict(base, new, metric, run_values(base_w, key),
                        run_values(new_w, key))
            regressions += v == "regression"
            print(f"  {key:<22}{quartiles(base):>34}{quartiles(new):>34}"
                  f"{new['median'] / base['median']:>8.3f}  {v} "
                  f"(bound {metric['bound']}, {base['unit']}, "
                  f"{metric['better']} is better)")
        failed = [sum(r["result"]["failed"] for r in w["runs"])
                  for w in (base_w, new_w)]
        print(f"  {'failed operations':<22}{failed[0]:>34}{failed[1]:>34}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
