"""Shared pieces of the benchmark: inputs, oracles, statistics, process
accounting and the result line.

Everything here is benchmark-owned: the corpus generator, the exact-search
oracle and the percentile rule do not come from the program under test, so
a change to the program can never move the inputs or the yardstick.
"""

from __future__ import annotations

import ctypes
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.ann import IVFPQIndex

#: Checkout root (the directory holding ``BENCHMARK.json`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for saved index directories; removed after each run.
WORK_DIR = ROOT / ".perfbench_work"
#: Span dumps of traced runs.
OUT_DIR = ROOT / ".perfbench_out"


# --------------------------------------------------------------------- #
# Inputs
@dataclass(frozen=True)
class Geometry:
    """Corpus and index shape of one workload."""

    n: int
    d: int
    nlist: int
    m: int
    ksub: int
    nprobe: int
    k: int
    n_train: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class Mixture:
    """Skewed Gaussian mixture: corpus and fresh queries share its law.

    Cluster weights follow a gamma draw, so cell sizes are uneven the way
    real corpora are (the paper's Eq. 4 estimator is about exactly that),
    with a shape that keeps the scan work per query alike across seeds.
    """

    def __init__(self, d: int, n_clusters: int, seed: int):
        rng = np.random.default_rng([seed, 7])
        self.centers = (rng.normal(0.0, 1.0, (n_clusters, d)) * 2.0).astype(
            np.float32
        )
        w = rng.gamma(4.0, size=n_clusters)
        self.weights = w / w.sum()

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        assign = rng.choice(len(self.weights), size=n, p=self.weights)
        noise = rng.normal(0.0, 0.6, (n, self.centers.shape[1]))
        return (self.centers[assign] + noise).astype(np.float32)


def corpus(geom: Geometry, seed: int) -> tuple[Mixture, np.ndarray]:
    """The workload's mixture and its ``geom.n`` corpus vectors."""
    mix = Mixture(geom.d, 256, seed)
    return mix, mix.sample(np.random.default_rng([seed, 1]), geom.n)


def build_index(geom: Geometry, seed: int, *, warm: bool = True):
    """Corpus, training on its head, packing and (``warm``) gather-cache
    warm-up.  Returns ``(index, base, mix)``."""
    mix, base = corpus(geom, seed)
    index = IVFPQIndex(d=geom.d, nlist=geom.nlist, m=geom.m, ksub=geom.ksub, seed=seed)
    index.train(base[: geom.n_train])
    index.add(base)
    if warm:
        index.warm_gather_cache()
    return index, base, mix


def zipf_stream(
    rng: np.random.Generator,
    fresh: np.ndarray,
    n: int,
    *,
    repeat_share: float,
    hot: int,
    exponent: float = 1.1,
) -> tuple[np.ndarray, np.ndarray]:
    """A query stream where about ``repeat_share`` of requests repeat.

    Each request is, with probability ``repeat_share``, a draw from a hot
    set of ``hot`` queries under Zipf(``exponent``) rank weights, and
    otherwise the next unused fresh query.  Returns ``(queries, key)``
    where ``key`` identifies equal queries (hot rank, or ``hot + j`` for
    fresh query ``j``).
    """
    weights = 1.0 / np.arange(1, hot + 1) ** exponent
    weights /= weights.sum()
    is_hot = rng.random(n) < repeat_share
    ranks = rng.choice(hot, size=n, p=weights)
    key = np.empty(n, dtype=np.int64)
    n_fresh = int((~is_hot).sum())
    if n_fresh + hot > fresh.shape[0]:
        raise ValueError(
            f"stream needs {n_fresh + hot} fresh queries, pool has {fresh.shape[0]}"
        )
    key[is_hot] = ranks[is_hot]
    key[~is_hot] = hot + np.arange(n_fresh)
    return fresh[key], key


# --------------------------------------------------------------------- #
# Oracles
def exact_topk(base: np.ndarray, ids: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Exact L2 top-``k`` ids of ``queries`` over ``(base, ids)``."""
    base64 = base.astype(np.float64)
    norms = (base64 * base64).sum(axis=1)
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for s in range(0, queries.shape[0], 256):
        q = queries[s : s + 256].astype(np.float64)
        d2 = norms[None, :] - 2.0 * q @ base64.T
        top = np.argpartition(d2, k - 1, axis=1)[:, :k]
        order = np.take_along_axis(d2, top, axis=1).argsort(axis=1, kind="stable")
        out[s : s + 256] = ids[np.take_along_axis(top, order, axis=1)]
    return out


def recall(got: np.ndarray, truth: np.ndarray) -> float:
    """Mean share of each query's true top-k found in its answer."""
    hits = sum(len(np.intersect1d(g, t)) for g, t in zip(got, truth))
    return hits / truth.size


# --------------------------------------------------------------------- #
# Statistics
def pct(values, p: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort last."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * v.size))
    return float(v[rank - 1])


#: Fewest requests in a window of the windowed percentiles.
MIN_WINDOW = 200


def windowed(values, p: float) -> float:
    """Median over consecutive windows of each window's ``p``-th
    percentile.  A window holds at least ``MIN_WINDOW`` requests and at
    least ten beyond its percentile (1000 for p99).  A slow spell of the
    host then moves the windows it covers, not the figure."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return 0.0
    size = max(MIN_WINDOW, math.ceil(10 / (1 - p / 100) - 1e-9))
    n_win = max(1, v.size // size)
    return float(np.median([pct(w, p) for w in np.array_split(v, n_win)]))


def mean(values) -> float:
    v = np.asarray(values, dtype=np.float64)
    return float(v.mean()) if v.size else 0.0


# --------------------------------------------------------------------- #
# Process accounting
def pss_mb(pids) -> float:
    """Proportional set size summed over ``pids`` (shared pages count once).

    This process first collects its cyclic garbage and hands freed heap
    pages back to the system, so the figure is memory held, not garbage or
    allocator slack left by temporaries.
    """
    if "self" in pids:
        gc.collect()
        if _LIBC is not None:
            _LIBC.malloc_trim(0)
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def _libc():
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.malloc_trim.argtypes = [ctypes.c_size_t]
        libc.malloc_trim.restype = ctypes.c_int
        return libc
    except (OSError, AttributeError):
        return None


_LIBC = _libc()
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` (from /proc)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def host_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the host since boot (``/proc/stat``).

    Steal is time the hypervisor ran something else on this machine's
    virtual CPUs; its share over a run says how much of the host the run
    actually had.
    """
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields)


def environment() -> dict:
    """The run's host inputs: CPUs, interpreter, numpy and BLAS threads."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# --------------------------------------------------------------------- #
# Output
@dataclass
class Outcome:
    """What one workload run hands back to the entry point."""

    attempted: int
    failed: int
    wrong: int
    metrics: dict[str, float]
    record: dict = field(default_factory=dict)
    #: The traced run's span log (written out by the entry point).
    spans: object = None


def print_record(record: dict) -> None:
    """The run's inputs and sample counts, one JSON line before the result."""
    print(json.dumps({"record": record}, sort_keys=True, default=str))


def print_result(
    correct: bool, attempted: int, failed: int, metrics: dict, units: dict
) -> None:
    """The result line: ``correct``, ``attempted``, ``failed`` and
    ``metrics`` (each a value with its unit), and nothing else."""
    out = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(out))
    sys.stdout.flush()


def setup_repeated(build, repeats: int, teardown=None):
    """Run the set-up ``repeats`` times; keep the last, report the median.

    Earlier builds are torn down (and collected) before the next starts,
    so the kept one is set up in the same state as the ones discarded.
    """
    times, built = [], None
    for _ in range(repeats):
        if built is not None and teardown is not None:
            teardown(built)
        built = None
        gc.collect()
        t0 = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - t0)
    # Move the set-up heap out of the collector's view, so the timed phase
    # pays only for the garbage it makes itself.
    gc.collect()
    gc.freeze()
    return built, statistics.median(times), times
