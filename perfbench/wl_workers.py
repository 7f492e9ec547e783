"""``workers-open``: the paper's network path, over real sockets and
processes.

One asyncio thread sends open-loop Poisson load over up to ``nproc``
``AsyncClient`` connections to a ``VectorSearchServer``, whose
``ServingEngine`` (cache on) serves through a ``ShardedBackend`` with the
preselect planner, scattering to two ``RemoteBackend``s of a
``WorkerPool`` whose processes mmap one saved index directory.  Every
query is unique, so the cache is bypassed.  This is the only workload
that exercises ``serve.protocol``, ``serve.aio``, ``serve.routing`` and
``serve.workers``.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bench_common import (
    WORK_DIR, Geometry, Mixture, Outcome, build_index, exact_topk, mean, pct,
    proc_cpu_s, pss_mb, recall, setup_repeated,
)
from bench_load import Schedule, drive_clients, end_to_end, rung_rows
from bench_serve import (
    MAX_BATCH, cache_layers, check_answers, loadgen_layers, make_engine,
    scheduler_layers, stream_repeat_frac,
)
from bench_trace import (
    STAGES, BackendProxy, PlannerProxy, ShardProxy, SpanLog, answer_overhead,
    phases, self_time_us, stage_layers, staged_search,
)
from repro.ann import IVFPQIndex, load_index_dir, partition_index, save_index_dir
from repro.core.perf_model import expected_codes_per_query
from repro.net.wire import (
    FRAME_HEADER, batch_result_frame_bytes, preselect_frame_bytes,
    result_frame_bytes, search_frame_bytes,
)
from repro.serve import AsyncClient, ShardedBackend, VectorSearchServer, WorkerPool
from repro.serve.protocol import (
    decode_batch_result, decode_preselect, encode_batch_result, encode_preselect,
)

GEOM = Geometry(n=40000, d=48, nlist=128, m=16, ksub=32, nprobe=16, k=10, n_train=10000)
N_WORKERS = 2
DISPATCHERS = 2
CONNECTIONS = min(2, os.cpu_count() or 1)
SCHEDULE = Schedule(nominal=250, rates=[600, 900, 1200, 1500, 1800])
LIMIT_MS = 100.0
SETUP_REPEATS = 3
WARM_QUERIES = 512
RECALL_QUERIES = 1000


@dataclass
class Cluster:
    index: IVFPQIndex  # in-memory original: the answer oracle
    base: np.ndarray
    mix: Mixture
    index_dir: Path
    planner: IVFPQIndex
    pool: WorkerPool
    warm_wrong: int

    def worker_pids(self) -> list[int]:
        return [p.pid for p in self.pool.spawned_procs if p.poll() is None]

    def close(self) -> None:
        self.pool.stop()
        shutil.rmtree(self.index_dir, ignore_errors=True)


def build(seed: int) -> Cluster:
    """Corpus, training, save, worker spawn and handshake, and gather-cache
    warm-up through the router (which also checks it end to end)."""
    index, base, mix = build_index(GEOM, seed, warm=False)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    index_dir = Path(tempfile.mkdtemp(prefix="workers-", dir=WORK_DIR))
    save_index_dir(index, index_dir)
    planner = load_index_dir(index_dir, mmap=True)
    pool = WorkerPool(index_dir, N_WORKERS).start()
    cluster = Cluster(index, base, mix, index_dir, planner, pool, 0)
    # Warm in serving-sized batches: one large batch would leave its
    # temporaries in the workers' heaps and in their memory figure.
    warm = mix.sample(np.random.default_rng([seed, 5]), WARM_QUERIES)
    router = make_router(cluster)
    for s in range(0, WARM_QUERIES, MAX_BATCH):
        q = warm[s : s + MAX_BATCH]
        ids, dists = router.search_batch(q, GEOM.k, GEOM.nprobe)
        ref_ids, ref_dists = index.search(q, GEOM.k, GEOM.nprobe)
        cluster.warm_wrong += int(
            (~((ids == ref_ids).all(axis=1) & (dists == ref_dists).all(axis=1))).sum()
        )
    return cluster


def make_router(cluster: Cluster, log: SpanLog | None = None):
    """The routing tier ``WorkerPool.sharded_backend`` builds, assembled
    here so traced runs can hand it proxies instead."""
    planner, shards = cluster.planner, list(cluster.pool.backends())
    if log is not None:
        planner = PlannerProxy(planner, log)
        shards = [ShardProxy(b, log, i, planner) for i, b in enumerate(shards)]
    return ShardedBackend(
        shards,
        parallel=True,
        shard_weights=[w.ntotal for w in cluster.pool.workers],
        preselect=planner,
    )


def serve(backend, rungs, queries) -> tuple:
    """Engine + socket front end on their own threads; this thread runs
    the asyncio load generator.  Returns ``(cache, process CPU s)``."""
    engine, cache = make_engine(backend, dispatchers=DISPATCHERS)
    loop = asyncio.new_event_loop()
    server = VectorSearchServer(engine)
    thread = threading.Thread(target=loop.run_forever, name="bench-server")
    engine.start()
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(server.start(), loop).result()
        host, port = server.address

        async def drive():
            clients = [await AsyncClient.connect(host, port) for _ in range(CONNECTIONS)]
            try:
                for rung in rungs:
                    await drive_clients(clients, rung, queries, GEOM.k, GEOM.nprobe)
            finally:
                for c in clients:
                    await c.close()

        cpu0 = time.process_time()
        asyncio.run(drive())
        cpu = time.process_time() - cpu0
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result()
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        loop.close()
        engine.stop()
    return cache, cpu


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    cluster, setup_s, setup_all = setup_repeated(
        lambda: build(seed), SETUP_REPEATS, teardown=Cluster.close
    )
    try:
        if trace:
            return _run_traced(cluster, seed, seconds)
        return _run(cluster, seed, seconds, setup_s, setup_all)
    finally:
        cluster.close()


def _run(cluster: Cluster, seed, seconds, setup_s, setup_all) -> Outcome:
    segments = SCHEDULE.segments(seconds, seed)
    n = sum(r.n for r in segments)
    queries = cluster.mix.sample(np.random.default_rng([seed, 2]), n)
    keys = np.arange(n)  # every query is unique
    serve(make_router(cluster), segments, queries)
    pids = ["self", *cluster.worker_pids()]
    mem = pss_mb(pids)
    mem_each = {str(p): round(pss_mb([p]), 1) for p in pids}
    checked, alone_wrong = check_answers(
        segments, keys, queries, cluster.index, GEOM.k, GEOM.nprobe, seed
    )
    rungs = SCHEDULE.pool(segments)
    wrong = int(sum(r.wrong.sum() for r in rungs)) + cluster.warm_wrong + alone_wrong
    metrics, attempted, failed = end_to_end(rungs, 0, LIMIT_MS)
    failed += cluster.warm_wrong + alone_wrong
    nom = rungs[0]
    sample = np.flatnonzero(nom.ok)[:RECALL_QUERIES]
    truth = exact_topk(cluster.base, np.arange(GEOM.n), queries[nom.stream[sample]], GEOM.k)
    metrics.update(setup_s=setup_s, recall_at_10=recall(nom.ids[sample], truth), mem_mb=mem)
    record = {
        "geometry": GEOM.to_dict(),
        "workers": N_WORKERS, "dispatchers": DISPATCHERS, "connections": CONNECTIONS,
        "schedule": SCHEDULE.to_dict(), "p99_limit_ms": LIMIT_MS,
        "rungs": rung_rows(rungs, LIMIT_MS),
        "answers_checked": checked + WARM_QUERIES,
        "alone_sample_mismatches": alone_wrong,
        "cache.repeat_frac": stream_repeat_frac(keys),
        "recall_queries": len(sample),
        "pss_mb_by_process": mem_each,
        "setup_runs_s": setup_all,
    }
    return Outcome(attempted, failed, wrong, metrics, record)


def _run_traced(cluster: Cluster, seed, seconds) -> Outcome:
    """Untraced then traced run at the nominal rate; codec and stage
    replays of every recorded scatter."""
    plain, rung = phases(SCHEDULE.nominal, seconds, seed)
    queries = cluster.mix.sample(np.random.default_rng([seed, 2]), plain.n)
    keys = np.arange(plain.n)
    _, cpu_plain = serve(make_router(cluster), [plain], queries)

    log = SpanLog()
    router = make_router(cluster, log)
    planner, shards = router.preselect, router.shards
    backend = BackendProxy(router, log)
    pids = cluster.worker_pids()
    wcpu0 = sum(proc_cpu_s(p) for p in pids)
    codes0 = sum(s.codes_scanned for s in shards)
    t0 = time.perf_counter()
    cache, cpu_traced = serve(backend, [rung], queries)
    wall = time.perf_counter() - t0
    wcpu = sum(proc_cpu_s(p) for p in pids) - wcpu0
    worker_codes = sum(s.codes_scanned for s in shards) - codes0
    _, alone_wrong = check_answers(
        [plain, rung], keys, queries, cluster.index, GEOM.k, GEOM.nprobe, seed
    )

    batches = log.named("backend.search_batch")
    rpcs = log.named("routing.shard_rpc")
    pres = log.named("routing.preselect")
    children = log.children()
    n_scattered = sum(s.attrs["nq"] for s in batches)
    by_batch: dict[int, list] = {}
    for s in rpcs:
        by_batch.setdefault(s.parent, []).append(s)

    # Replay each recorded shard call through the stage functions on a
    # local view of the same shard: its answer must equal the worker's.
    views = partition_index(cluster.index, N_WORKERS)
    stage_s = dict.fromkeys(STAGES, 0.0)
    stage_s["preselect"] = sum(s.end - s.start for s in pres)
    codes = replay_wrong = 0
    codec_s = 0.0
    wire_bytes = 0
    for shard in shards:
        for queries_t, probed, k, (ids, dists), span in shard.calls:
            r_ids, r_dists, secs, c = staged_search(
                views[span.attrs["shard"]], queries_t, k, GEOM.nprobe,
                plan=(queries_t, probed),
            )
            replay_wrong += int(not (np.array_equal(r_ids, ids) and np.array_equal(r_dists, dists)))
            for name in ("build_lut", "pq_dist", "select_k"):
                stage_s[name] += secs[name]
            codes += c
            c0 = time.perf_counter()
            frame = encode_preselect(0, queries_t, probed, k)
            decode_preselect(frame[FRAME_HEADER.size:])
            reply = encode_batch_result(0, ids, dists, codes_scanned=c)
            decode_batch_result(reply[FRAME_HEADER.size:])
            codec_s += time.perf_counter() - c0
            nq = len(queries_t)
            wire_bytes += preselect_frame_bytes(nq, GEOM.nprobe, GEOM.d)
            wire_bytes += batch_result_frame_bytes(nq, k)

    answered = rung.answered
    completed = max(int(answered.sum()), 1)
    wire_bytes += completed * (search_frame_bytes(GEOM.d) + result_frame_bytes(GEOM.k))
    client_us = (rung.done - rung.sent)[answered] * 1e6
    aio_us = client_us - (rung.queue_us + rung.exec_us)[answered]
    rpc_durs = [s.dur_us for s in rpcs]
    expected = expected_codes_per_query(cluster.index.cell_sizes, GEOM.nprobe)
    layers = {
        **stage_layers(stage_s, n_scattered, codes, expected, GEOM.nprobe, GEOM.m, GEOM.ksub),
        **scheduler_layers(rung, [s.attrs["nq"] for s in batches],
                           sum(s.end - s.start for s in batches), wall * DISPATCHERS),
        **cache_layers(rung, keys, cache),
        **loadgen_layers(rung),
        "routing.preselect_us_per_batch": mean([s.dur_us for s in pres]),
        "routing.shard_rpc_us_p50": pct(rpc_durs, 50),
        "routing.shard_rpc_us_p99": pct(rpc_durs, 99),
        "routing.straggler_us_mean": mean([
            max(s.dur_us for s in group) - min(s.dur_us for s in group)
            for group in by_batch.values()
        ]),
        "routing.self_us_per_batch": mean([
            self_time_us(b, children.get(b.sid, [])) for b in batches
        ]),
        "protocol.codec_us_per_batch": codec_s * 1e6 / max(len(batches), 1),
        "protocol.bytes_per_q": wire_bytes / completed,
        "aio.overhead_us_p50": pct(aio_us, 50),
        "aio.overhead_us_p99": pct(aio_us, 99),
        "workers.cpu_frac": wcpu / (wall * N_WORKERS),
        "workers.codes_per_q": worker_codes / max(n_scattered, 1),
        "workers.rpc_gap_us": (sum(rpc_durs) - wcpu * 1e6) / max(len(rpcs), 1),
        "router.cpu_us_per_q": cpu_traced * 1e6 / completed,
        "trace.overhead_frac": answer_overhead(plain, cpu_plain, rung, cpu_traced),
    }
    wrong = (
        int(plain.wrong.sum() + rung.wrong.sum())
        + replay_wrong + cluster.warm_wrong + alone_wrong
    )
    record = {
        "geometry": GEOM.to_dict(),
        "workers": N_WORKERS, "dispatchers": DISPATCHERS, "connections": CONNECTIONS,
        "traced_rate": SCHEDULE.nominal,
        "scatters": len(batches), "shard_rpcs": len(rpcs),
        "replay_mismatches": replay_wrong,
        "protocol.bytes_per_q": "computed from repro.net.wire frame sizes",
        "p99_ms_untraced": plain.p99_ms(),
        "p99_ms_traced": rung.p99_ms(),
    }
    attempted = plain.n + rung.n
    failed = (
        int((~plain.ok).sum() + (~rung.ok).sum())
        + replay_wrong + cluster.warm_wrong + alone_wrong
    )
    return Outcome(attempted, failed, wrong, layers, record, spans=log)
