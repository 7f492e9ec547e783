"""Steadiness check: repeat one workload over several seeds and show, for
each end-to-end metric, its median and spread against its bound.

    python3 perfbench/steady.py --workload engine-open --runs 10

The spread is the distance between the first and third quartile of the
runs (``statistics.quantiles(values, n=4)``) as a share of their median.
A metric is steady when its spread is within its bound from
``BENCHMARK.json``; the aim is a third of the bound.  Every metric,
``setup_s`` included, is held to its bound.  ``--first-seed`` picks the
seeds (``first-seed .. first-seed + runs - 1``), so a second set can use
seeds of its own.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict, float]:
    """One run's result line, its record line and its wall time in seconds."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    *_, record, result = proc.stdout.strip().splitlines()
    return json.loads(result), json.loads(record)["record"], time.perf_counter() - t0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.runs < 4:
        p.error("--runs must be at least 4 to form quartiles")

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, record, wall = run_once(args.workload, seed, spec["run_seconds"])
        row = {n: result["metrics"][n]["value"] for n in values}
        for n, v in row.items():
            values[n].append(v)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} wall={wall:.1f}s "
              f"steal={record['host_steal_frac']:.3f} "
              + " ".join(f"{n}={v:.4g}" for n, v in row.items()), flush=True)

    print(f"\n{'metric':<14}{'median':>12}{'IQR/median':>12}{'bound':>8}  verdict")
    steady = True
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        if spread <= m["bound"] / 3:
            verdict = "steady"
        elif spread <= m["bound"]:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
            steady = False
        print(f"{m['name']:<14}{med:>12.5g}{spread:>12.4f}{m['bound']:>8}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
