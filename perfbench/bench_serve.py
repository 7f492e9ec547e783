"""Serving-side helpers shared by the open-loop workloads: the engine
settings, the answer checks and the layer metrics read from results and
spans."""

from __future__ import annotations

import numpy as np

from bench_common import mean, pct
from bench_load import Rung
from repro.serve import QueryResultCache, ServingEngine

#: Engine settings shared by every serving workload.
MAX_BATCH = 16
WINDOW_US = 500.0
QUEUE_DEPTH = 256
CACHE_CAPACITY = 4096
#: Distinct queries per reference search in the answer check.
ORACLE_CHUNK = 256
#: Distinct queries also checked against a search on the query alone.
ALONE_SAMPLE = 256


def make_engine(backend, *, dispatchers: int = 1) -> tuple[ServingEngine, QueryResultCache]:
    """A shedding engine with a fixed window and a result cache."""
    cache = QueryResultCache(CACHE_CAPACITY)
    engine = ServingEngine(
        backend,
        max_batch=MAX_BATCH,
        max_wait_us=WINDOW_US,
        queue_depth=QUEUE_DEPTH,
        policy="shed",
        cache=cache,
        dispatchers=dispatchers,
    )
    return engine, cache


def check_answers(rungs: list[Rung], keys: np.ndarray, queries: np.ndarray,
                  index, k: int, nprobe: int, seed: int) -> tuple[int, int]:
    """Compare every answer, cache hits included, bit for bit with
    ``IVFPQIndex.search``; marks ``rung.wrong``.

    Each distinct query is searched once, in chunks of ``ORACLE_CHUNK``
    (served batches hold at most ``MAX_BATCH``, so an answer that depends
    on its batch-mates still shows).  A seeded sample of ``ALONE_SAMPLE``
    distinct queries is also searched on its own and must give the same
    reference.  Returns ``(answers checked, sample mismatches)``.
    """
    first: dict[int, int] = {}
    for rung in rungs:
        for i in np.flatnonzero(rung.answered):
            first.setdefault(int(keys[rung.stream[i]]), int(rung.stream[i]))
    uniq = np.array(sorted(first), dtype=np.int64)
    pos = np.array([first[u] for u in uniq], dtype=np.int64)
    ref_ids = np.empty((len(uniq), k), dtype=np.int64)
    ref_dists = np.empty((len(uniq), k), dtype=np.float32)
    for s in range(0, len(uniq), ORACLE_CHUNK):
        ref_ids[s : s + ORACLE_CHUNK], ref_dists[s : s + ORACLE_CHUNK] = index.search(
            queries[pos[s : s + ORACLE_CHUNK]], k, nprobe
        )
    sample = np.random.default_rng([seed, 8]).choice(
        len(uniq), size=min(ALONE_SAMPLE, len(uniq)), replace=False
    )
    alone_wrong = 0
    for j in sample:
        ids, dists = index.search(queries[pos[j]][None, :], k, nprobe)
        alone_wrong += not (
            np.array_equal(ids[0], ref_ids[j]) and np.array_equal(dists[0], ref_dists[j])
        )
    row = {int(u): j for j, u in enumerate(uniq)}
    checked = 0
    for rung in rungs:
        idx = np.flatnonzero(rung.answered)
        if not len(idx):
            continue
        rows = np.array([row[int(keys[rung.stream[i]])] for i in idx])
        same = (rung.ids[idx] == ref_ids[rows]).all(axis=1) & (
            rung.dists[idx] == ref_dists[rows]
        ).all(axis=1)
        rung.wrong[idx] = ~same
        checked += len(idx)
    return checked, alone_wrong


def scheduler_layers(rung: Rung, batch_sizes, busy_s: float, wall_s: float) -> dict:
    """Queue wait and execution from each answer's own breakdown, batch
    sizes and busy time from the backend spans, sheds and errors from the
    generator's ledger.  ``wall_s`` is the dispatcher time available
    (phase wall time x dispatchers)."""
    served = rung.answered & ~rung.cache_hit
    queue = rung.queue_us[served]
    exec_ = rung.exec_us[served]
    errors = rung.error_counts()
    return {
        "scheduler.queue_us_p50": pct(queue, 50),
        "scheduler.queue_us_p99": pct(queue, 99),
        "scheduler.exec_us_p50": pct(exec_, 50),
        "scheduler.exec_us_p99": pct(exec_, 99),
        "scheduler.batch_mean": mean(batch_sizes),
        "scheduler.backend_busy_frac": busy_s / wall_s if wall_s else 0.0,
        "scheduler.shed": float(errors.get("shed", 0)),
        "scheduler.errors": float(sum(c for e, c in errors.items() if e != "shed")),
    }


def cache_layers(rung: Rung, keys: np.ndarray, cache: QueryResultCache) -> dict:
    answered = int(rung.answered.sum())
    hits = int((rung.answered & rung.cache_hit).sum())
    return {
        "cache.hit_frac": hits / answered if answered else 0.0,
        "cache.repeat_frac": stream_repeat_frac(keys[rung.stream]),
        "cache.invalidations": float(cache.epoch),
    }


def stream_repeat_frac(keys: np.ndarray) -> float:
    """Share of requests whose query already appeared earlier in the stream."""
    if len(keys) == 0:
        return 0.0
    return 1.0 - len(np.unique(keys)) / len(keys)


def loadgen_layers(rung: Rung) -> dict:
    return {
        "loadgen.late_us_p99": pct(rung.late_us(), 99),
        "loadgen.sent": float((~np.isnan(rung.sent)).sum()),
        "loadgen.completed": float(rung.answered.sum()),
    }
