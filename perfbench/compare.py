"""Compare two checkouts with the benchmark, in alternating pairs of runs.

    python3 perfbench/compare.py --parent DIR --change DIR [--pairs 10]
        [--workload NAME ...] [--seconds S] [--seed N] [--out FILE]

DIR is the root of a checkout with a src/ tree.  Both sides run this file's
run.py, so the benchmark code is identical; each run has its own checkout as
working directory and so imports that checkout's jsccsim.  Pair i uses seed
N + i on both sides, and the side that runs first alternates.

For every workload and end-to-end metric the report gives each side's median
and quartiles, the share of pairs the change won (ties count for neither) and
a verdict:

- better: at least ten pairs ran, the change won at least 9 in 10 of them,
  and the medians differ by more than the parent's own quartile spread;
- unresolved: either side's quartile spread, as a share of its median,
  exceeds the metric's bound, and not every change run beats every parent run;
- worse: the change's median is worse than the parent's by more than the bound;
- same: none of these.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
RUN_TIMEOUT_S = 900


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float) -> dict:
    """Judge paired runs of one metric; parent[i] and change[i] share a seed."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    decided = [sign * (c - p) for p, c in zip(parent, change) if c != p]
    wins = sum(d > 0 for d in decided) / len(parent)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    gain = len(parent) >= 10 and wins >= 0.9 and sign * (cm - pm) > p3 - p1
    if spread > bound and not all_better:
        word = "unresolved"
    elif gain:
        word = "better"
    elif sign * (pm - cm) / abs(pm) > bound:
        word = "worse"
    else:
        word = "same"
    return {"parent": [p1, pm, p3], "change": [c1, cm, c3], "wins": wins,
            "spread": spread, "verdict": word}


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"compare: run failed in {root} ({workload}, seed {seed})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", action="append",
                   help="repeatable; default: every workload")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    report = {"pairs": args.pairs, "seconds": args.seconds, "workloads": {}}
    for wl in names:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], wl, args.seed + i, args.seconds))
        row = {side: {"correct": all(r["correct"] for r in rs),
                      "failed_share": sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)}
               for side, rs in runs.items()}
        for m in spec["end_to_end"]:
            vals = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                    for side, rs in runs.items()}
            row[m["name"]] = verdict(vals["parent"], vals["change"], m["better"], m["bound"])
        report["workloads"][wl] = row
        print(f"{wl}: correct parent={row['parent']['correct']} change={row['change']['correct']}"
              f" failed share parent={row['parent']['failed_share']:.4g}"
              f" change={row['change']['failed_share']:.4g}")
        for m in spec["end_to_end"]:
            v = row[m["name"]]
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            print(f"  {m['name']:>14} ({m['unit']}): parent {fmt(v['parent'])}  "
                  f"change {fmt(v['change'])}  won {v['wins']:.0%}  {v['verdict']}")
    out = args.out or HERE / "out" / f"compare-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2))
    print(f"report written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
