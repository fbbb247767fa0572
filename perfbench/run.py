"""bbmlab benchmark: one command runs a workload, checks it and prints every
metric by name and unit.

Run from the root of a bbmlab checkout (it benchmarks ./src):

    python3 perfbench/run.py --workload solvers --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

A worker process (perfbench/worker.py) imports bbmlab, sets up the workload
once and runs passes of it back to back for most of --seconds; each pass
does the work and its checks, and wall_s is the median over the passes.
Set-up-only workers before and after it give setup_s, the median of
MIN_SETUPS set-ups (imports included).  Workers run one at a time.
With --trace 1, traced and untraced single-pass workers alternate instead
(at least MIN_PASSES); the traced ones wrap every layer's entry points and
give the per-layer metrics, and the difference of the two wall_s medians is
trace.overhead_s.

The last line of standard output is one JSON object: correct, attempted and
failed (checks), and the metrics.  Full records go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2
MIN_SETUPS = 7
TIME_LIMIT_S = 170.0          # a run must end within 180 s
BLAS_THREADS = 1              # at most nproc; one keeps passes independent of load
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def environment(root: Path, versions: dict) -> dict:
    sha = "unknown"
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        sha = out.stdout.strip() or sha
    cpu = platform.machine() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"git_sha": sha, "python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpu_model": cpu, "blas_threads": BLAS_THREADS}


class Runner:
    """Starts worker processes for one workload and seed, one at a time."""

    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        self.root, self.workload, self.seed, self.deadline = root, workload, seed, deadline
        self.out = root / ".bench_out"
        self.out.mkdir(exist_ok=True)
        self.env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def run(self, traced=False, setup_only=False, pass_seconds=0.0) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--scratch", str(self.out)]
        if traced:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        if pass_seconds > 0:
            cmd += ["--pass-seconds", f"{pass_seconds:.3f}"]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before the worker could start")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.workload} worker exceeded the time limit") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{self.workload} worker failed (exit {proc.returncode}):\n"
                             + proc.stderr[-4000:])
        result = json.loads(lines[-1])
        for p in result["passes"]:
            p["traced"] = traced
        return result


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All passes of one run, aggregated into metrics and checks."""
    start = time.monotonic()
    runner = Runner(root, workload, seed, start + TIME_LIMIT_S)
    passes, setups = [], []
    first_peaks = []  # peak RSS of a fresh process through set-up and one pass
    versions = {}

    def add(worker):
        setups.append(worker["setup_s"])
        passes.extend(worker["passes"])
        versions.update(worker["versions"])
        if worker["passes"] and not worker["passes"][0]["traced"]:
            first_peaks.append(worker["passes"][0]["peak_rss_mb"])

    if trace:
        # traced and untraced single-pass workers alternate
        while True:
            t0 = time.monotonic()
            add(runner.run(traced=len(passes) % 2 == 1))
            last = time.monotonic() - t0
            if len(passes) >= MIN_PASSES and time.monotonic() - start + last > seconds:
                break
    else:
        # set-up-only workers before and after one worker that runs passes
        # back to back, so that most of the run measures passes
        before = (MIN_SETUPS - 1) // 2
        for _ in range(before):
            t0 = time.monotonic()
            add(runner.run(setup_only=True))
            setup_cost = time.monotonic() - t0
        reserve = (MIN_SETUPS - before) * setup_cost
        add(runner.run(pass_seconds=start + seconds - time.monotonic() - reserve))
        while len(setups) < MIN_SETUPS:
            add(runner.run(setup_only=True))
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]

    checks = []
    for i, p in enumerate(passes, start=1):
        checks += [dict(row, run=i) for row in p["checks"]]
        if i > 1:
            same = p["result_digest"] == passes[0]["result_digest"]
            checks.append({"name": "same_digest_as_first_pass", "ok": same, "gated": True,
                           "run": i, "detail": f"{p['result_digest']} vs "
                                               f"{passes[0]['result_digest']}"})
    gated = [c for c in checks if c["gated"]]
    failed = [c for c in gated if not c["ok"]]

    def med(key, group):
        return statistics.median(p[key] for p in group)

    if trace:
        metrics = {name: statistics.median(p["per_layer"][name] for p in traced_passes)
                   for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = med("wall_s", traced_passes) - med("wall_s", plain)
        units = PER_LAYER_UNITS
    else:
        metrics = {"wall_s": med("wall_s", plain), "setup_s": statistics.median(setups),
                   "peak_rss_mb": statistics.median(first_peaks)}
        units = END_TO_END_UNITS
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": environment(root, versions),
        "passes": passes, "setup_samples": setups, "checks": checks,
        "checks_run": len(gated), "checks_failed": len(failed),
        "result_digest": passes[0]["result_digest"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "elapsed_s": time.monotonic() - start,
    }


def print_report(rec: dict):
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}  "
          f"passes {len(rec['passes'])}  set-ups {len(rec['setup_samples'])}")
    print("env " + json.dumps(rec["env"]))
    for i, p in enumerate(rec["passes"], start=1):
        print(f"  pass {i}{' traced' if p['traced'] else ''}: wall_s {p['wall_s']:.4f}  "
              f"peak_rss_mb {p['peak_rss_mb']:.1f}  digest {p['result_digest']}")
    print("  setup_s samples: " + " ".join(f"{s:.4f}" for s in rec["setup_samples"]))
    first_pass = [c for c in rec["checks"] if c["run"] == 1]
    later_failures = [c for c in rec["checks"] if c["run"] > 1 and c["gated"] and not c["ok"]]
    for c in first_pass + later_failures:
        status = ("ok" if c["ok"] else "FAIL") if c["gated"] else \
            ("reported" if c["ok"] else "reported, outside tolerance")
        print(f"  check {c['name']} (pass {c['run']}): {status} -- {c['detail']}")
    print(f"  {'metric':<40} {'value':>16}  unit   (median of passes)")
    for name, m in rec["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g}  {m['unit']}")
    print(f"  {'checks_failed':<40} {rec['checks_failed']:>16}  count")
    print(f"  {'checks_run':<40} {rec['checks_run']:>16}  count")
    print(f"  {'result_digest':<40} {rec['result_digest']:>16}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bbmlab" / "__init__.py").is_file():
        print(f"no bbmlab source under {root / 'src'}: run from the root of a bbmlab "
              "checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            rec = measure(root, name, args.seed, args.seconds, bool(args.trace))
            print_report(rec)
            path = root / ".bench_out" / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(rec, indent=1) + "\n")
            records.append(rec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
        print("summary")
        for r in records:
            cells = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in r["metrics"].items()
                     if not args.trace or k == "trace.overhead_s"]
            cells += [f"checks_failed {r['checks_failed']} count",
                      f"checks_run {r['checks_run']} count"]
            print(f"  {r['workload']:<15} " + "  ".join(cells))
    failed = sum(r["checks_failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["checks_run"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
