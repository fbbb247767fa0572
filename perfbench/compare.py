"""Compare a parent and a change checkout with the same benchmark code.

    python3 perfbench/compare.py --parent ../parent --change . --pairs 10 \
        [--workload solvers ...]

Runs perfbench/run.py (this copy) in both checkouts for BENCHMARK.json's
run_seconds, in at least ten alternating pairs: pair i (from 1) uses seed i
on both sides and flips which side runs first.  For each workload and end-to-end metric it prints
the parent's and the change's median with quartiles, the pairs the change
won, and a verdict by the rule of BENCHMARK.json's bounds:

- better: the change wins at least 9/10 of the pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound;
- unresolved: the run-to-run spread (interquartile range over median, either
  side) exceeds the bound, unless every change run beats every parent run;
- no regression: none of the above.

Raw per-pair results go to .bench_out/compare-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound):
    """Verdict for one metric from paired samples (parent[i], change[i])."""
    sign = 1.0 if better == "lower" else -1.0
    gain = [sign * (p - c) for p, c in zip(parent, change)]  # > 0: change better
    wins = sum(g > 0 for g in gain)
    pm, cm = statistics.median(parent), statistics.median(change)
    p1, p3 = spread(parent)
    c1, c3 = spread(change)
    if wins >= WIN_SHARE * len(parent) and sign * (pm - cm) > p3 - p1:
        return "better", wins
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if not every_run_better and max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm)) > bound:
        return "unresolved", wins
    if sign * (cm - pm) / abs(pm) > bound:
        return "worse", wins
    return "no regression", wins


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark failed in {checkout} (exit {proc.returncode}):\n"
                         + proc.stderr[-4000:])
    return json.loads(lines[-1])


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = ap.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")

    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workload:
        pairs = []
        for seed in range(1, args.pairs + 1):
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            sides = {side: run_side(getattr(args, side), workload, seed, spec["run_seconds"])
                     for side in order}
            pairs.append({"seed": seed, "first": order[0], **sides})
        (out_dir / f"compare-{workload}.json").write_text(json.dumps(pairs, indent=1) + "\n")
        cells = []
        for m in spec["end_to_end"]:
            par = [p["parent"]["metrics"][m["name"]]["value"] for p in pairs]
            chg = [p["change"]["metrics"][m["name"]]["value"] for p in pairs]
            word, wins = verdict(par, chg, m["better"], m["bound"])
            (p1, p3), (c1, c3) = spread(par), spread(chg)
            cells.append(f"{m['name']} {statistics.median(par):.4g} [{p1:.4g}, {p3:.4g}] -> "
                         f"{statistics.median(chg):.4g} [{c1:.4g}, {c3:.4g}] {m['unit']}, "
                         f"wins {wins}/{len(pairs)}: {word}")
        failed = [(p["parent"]["failed"], p["change"]["failed"]) for p in pairs]
        cells.append(f"checks failed parent/change {sum(f[0] for f in failed)}/"
                     f"{sum(f[1] for f in failed)}")
        print(f"{workload}: " + "; ".join(cells))


if __name__ == "__main__":
    main()
