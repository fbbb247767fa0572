"""Set-up and passes of one workload, in a fresh process.

Started by run.py from the root of a checkout; imports bbmlab from that
checkout's src/, sets up once, then runs passes back to back: each pass does
the work, checks it and hashes its outputs.  With --pass-seconds S it starts
another pass while half the last one would still end within S seconds of
set-up; without, it runs one pass.  It prints one JSON line with the set-up
time and, per pass, the time, check rows, result digest and the process's
peak RSS so far.  A traced worker runs one pass and adds the per-layer
metrics; the spans go to <scratch>/trace-<workload>-seed<seed>.json.

    python3 perfbench/worker.py --workload solvers --seed 0 --scratch .bench_out \
        [--trace | --pass-seconds 20] [--setup-only]
"""

import time

T0 = time.perf_counter()  # before any heavy import: set-up includes imports

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402


def load_bbmlab(root: Path) -> SimpleNamespace:
    src = root / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy

    import bbmlab
    from bbmlab import acceptance, harness, mc, model, operations, pde, rng, sim, spectral

    if Path(bbmlab.__file__).resolve().parent != (src / "bbmlab").resolve():
        raise SystemExit(f"bbmlab imported from {bbmlab.__file__}, not from {src}")
    return SimpleNamespace(np=np, acceptance=acceptance, harness=harness, mc=mc, model=model,
                           operations=operations, pde=pde, rng=rng, sim=sim,
                           spectral=spectral, versions={"numpy": np.__version__,
                                                        "scipy": scipy.__version__})


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pass-seconds", type=float, default=0.0)
    ap.add_argument("--scratch", type=Path, required=True)
    args = ap.parse_args(argv)

    import spans
    import workloads

    setup, run, cleanup = workloads.WORKLOADS[args.workload]
    offset = args.seed % (1 << 32)
    bb = load_bbmlab(Path.cwd())
    bb.scratch = args.scratch
    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.instrument(rec, vars(bb))
        state = rec.call("workload.setup", setup, (bb, offset))
    else:
        state = setup(bb, offset)
    t_setup = time.perf_counter()
    result = {"setup_s": t_setup - T0, "passes": [], "versions": bb.versions}
    try:
        while not args.setup_only:
            checks = workloads.Checks(args.seed)
            t0 = time.perf_counter()
            if rec:
                outputs = rec.call("workload.run", run, (bb, state, checks))
            else:
                outputs = run(bb, state, checks)
            wall = time.perf_counter() - t0
            result["passes"].append({
                "wall_s": wall, "checks": checks.rows,
                "result_digest": workloads.result_digest(outputs),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
            if rec:
                result["passes"][-1]["per_layer"] = spans.layer_metrics(rec)
                rec.dump(args.scratch / f"trace-{args.workload}-seed{args.seed}.json", T0)
                break
            # start another pass if it is expected to end less than half a
            # pass after the budget: runs last the budget on average
            if time.perf_counter() + wall / 2 > t_setup + args.pass_seconds:
                break
    finally:
        if cleanup:
            cleanup(state)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
