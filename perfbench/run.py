"""The benchmark of record: one workload, one seed, one result line.

    python3 perfbench/run.py --workload engine-open --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached to the
program; ``--trace 1`` is the separate traced run that wraps benchmark-owned
proxies around the objects handed to the program and reports the per-layer
metrics.  Both check every answer they can; a wrong answer makes the run
exit 1.  Metric names and units come from ``BENCHMARK.json`` at the checkout
root; see ``perfbench/README.md`` for what each one means.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, as the worker processes run: parallelism in this
# benchmark comes from threads and processes the program itself starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = {
    "engine-open": "wl_engine",
    "workers-open": "wl_workers",
    "churn": "wl_churn",
}


#: Fresh interpreters timed importing the workload, for ``setup_s``.
IMPORT_REPEATS = 3


def import_seconds(module: str) -> list[float]:
    """Wall time of fresh interpreters that start and import ``module``
    (numpy and the program with it), ``IMPORT_REPEATS`` times."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])}
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                       cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    from bench_common import (
        OUT_DIR, WORK_DIR, environment, host_ticks, print_record, print_result,
    )

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    module = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - T_START
    # This process imported once; the set-up figure takes the median of
    # fresh interpreters instead, so one slow start does not set it.
    import_runs_s = [] if args.trace else import_seconds(WORKLOADS[args.workload])
    steal0, total0 = host_ticks()
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    steal1, total1 = host_ticks()

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    unknown = set(outcome.metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    if args.trace:
        # A layer this workload never enters did no work: report 0.
        metrics = {name: outcome.metrics.get(name, 0.0) for name in units}
        if outcome.spans is not None:
            outcome.spans.write(
                OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            )
    else:
        missing = set(units) - set(outcome.metrics)
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {sorted(missing)}")
        metrics = dict(outcome.metrics)
        metrics["setup_s"] += statistics.median(import_runs_s)
    print_record({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "import_s": import_s,
        "import_runs_s": import_runs_s,
        "host_steal_frac": (steal1 - steal0) / max(total1 - total0, 1),
        **environment(),
        **outcome.record,
    })
    correct = outcome.wrong == 0
    print_result(correct, outcome.attempted, outcome.failed, metrics, units)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
