"""``churn``: writes beside reads on the dynamic service.

A ``DynamicVectorService`` bootstrapped on the ``engine-open`` corpus is
served behind the same engine and cache settings.  It gets the same Zipf
read stream at one fixed rate, plus inserts and deletes on a fixed
schedule from the same generator thread, and one ``merge()`` at mid-run
on a helper thread.  Every write invalidates the cache, and every read
also searches the NSW delta (``ann.graph``).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from bench_common import (
    Mixture, Outcome, corpus, exact_topk, mean, pct, pss_mb, recall,
    setup_repeated,
)
from bench_load import drive_engine, end_to_end, ladder, rung_rows
from bench_serve import (
    cache_layers, loadgen_layers, make_engine, scheduler_layers,
    stream_repeat_frac,
)
from bench_trace import ServiceProxy, SpanLog, answer_overhead, phases
from wl_engine import GEOM, make_stream
from repro.service.dynamic import DynamicVectorService

READ_RATE = 120
INSERT_EVERY_S, INSERT_BATCH = 0.05, 1
DELETE_EVERY_S, DELETE_BATCH = 0.1, 2
MERGE_AT = 0.5
LIMIT_MS = 100.0
SETUP_REPEATS = 5
#: Reads served after the writes stop, checked against direct search.
POST_QUERIES = 400
#: Queries searched twice directly before the final merge.
UNSTABLE_PROBES = 100
#: Recorded read batches replayed on the delta graph (traced run).
GRAPH_REPLAY_BATCHES = 200


def build(seed: int):
    """Corpus, bootstrap (training and packing) and gather-cache warm-up."""
    mix, base = corpus(GEOM, seed)
    service = DynamicVectorService(
        GEOM.d, nlist=GEOM.nlist, m=GEOM.m, ksub=GEOM.ksub,
        nprobe=GEOM.nprobe, seed=seed,
    )
    service.bootstrap(base)
    service.primary.warm_gather_cache()
    return service, base, mix


class Writer:
    """The write schedule and its ledger: inserts and deletes run inline
    on the generator thread, the merge on one helper thread."""

    def __init__(self, target, mix: Mixture, seconds: float, seed: int, live_ids):
        self.target = target
        rng = np.random.default_rng([seed, 6])
        n_ins = int(seconds / INSERT_EVERY_S)
        n_del = int(seconds / DELETE_EVERY_S)
        self.vectors = mix.sample(rng, n_ins * INSERT_BATCH)
        self.victims = rng.choice(live_ids, size=n_del * DELETE_BATCH, replace=False)
        self.schedule = sorted(
            [(j * INSERT_EVERY_S, self._insert(j)) for j in range(n_ins)]
            + [(j * DELETE_EVERY_S + DELETE_EVERY_S / 2, self._delete(j)) for j in range(n_del)]
            + [(MERGE_AT * seconds, self._start_merge)],
            key=lambda e: e[0],
        )
        self.log: list[tuple] = []  # (kind, due_s, end, duration_s, ids)
        self.inserted: list[tuple[np.ndarray, np.ndarray]] = []
        self.merge_s = 0.0
        self._merge_thread: threading.Thread | None = None

    def _insert(self, j: int):
        def fn(due=j * INSERT_EVERY_S):
            x = self.vectors[j * INSERT_BATCH : (j + 1) * INSERT_BATCH]
            t0 = time.perf_counter()
            ids = self.target.insert(x)
            t1 = time.perf_counter()
            self.inserted.append((x, ids))
            self.log.append(("insert", due, t1, t1 - t0, ids))
        return fn

    def _delete(self, j: int):
        def fn(due=j * DELETE_EVERY_S + DELETE_EVERY_S / 2):
            ids = self.victims[j * DELETE_BATCH : (j + 1) * DELETE_BATCH]
            t0 = time.perf_counter()
            self.target.delete(ids)
            t1 = time.perf_counter()
            self.log.append(("delete", due, t1, t1 - t0, ids))
        return fn

    def _start_merge(self):
        def merge():
            t0 = time.perf_counter()
            self.target.merge()
            self.merge_s = time.perf_counter() - t0

        self._merge_thread = threading.Thread(target=merge, name="bench-merge")
        self._merge_thread.start()

    def join(self) -> None:
        if self._merge_thread is not None:
            self._merge_thread.join()

    def latencies_ms(self, t0: float) -> np.ndarray:
        """Write latency from each write's due time."""
        return np.array([(end - (t0 + due)) * 1e3 for _, due, end, _, _ in self.log])

    def stale(self, rung) -> np.ndarray:
        """Reads of ``rung`` sent after a delete completed whose answer
        holds the deleted id."""
        n_ids = max([GEOM.n] + [int(i.max()) + 1 for _, i in self.inserted if len(i)])
        deleted_at = np.full(n_ids, np.inf)
        for kind, _, end, _, ids in self.log:
            if kind == "delete":
                deleted_at[ids] = end
        ids = rung.ids
        valid = (ids >= 0) & (ids < n_ids)
        when = np.where(valid, deleted_at[np.where(valid, ids, 0)], np.inf)
        return rung.answered & (when < rung.sent[:, None]).any(axis=1)


def serve_phase(service, backend, rung, queries, writer):
    """Reads and writes for one phase, then the post-write check served
    through the same engine.

    The delta graph starts each beam search from entry points drawn from
    its own running random generator, so two direct searches of one query
    can differ while the delta holds vectors; that count is kept for the
    record.  The post-write sample is therefore served after a final
    ``merge()`` has folded the delta, where direct search is a function of
    the query and the comparison can be exact.  Returns ``(cache, CPU s,
    post answers, unstable direct searches)``.
    """
    engine, cache = make_engine(backend)
    with engine:
        cpu0 = time.process_time()
        drive_engine(engine, rung, queries, GEOM.k, GEOM.nprobe, writer.schedule)
        writer.join()
        cpu = time.process_time() - cpu0
        sample = queries[:POST_QUERIES]
        unstable = sum(
            not _same(service.search(q[None, :], GEOM.k), service.search(q[None, :], GEOM.k))
            for q in sample[:UNSTABLE_PROBES]
        )
        service.merge()
        post = [engine.search(q, GEOM.k, GEOM.nprobe) for q in sample]
    return cache, cpu, post, unstable


def _same(a, b) -> bool:
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    (service, base, mix), setup_s, setup_all = setup_repeated(
        lambda: build(seed), SETUP_REPEATS
    )
    if trace:
        return _run_traced(service, mix, seed, seconds)
    rung = ladder([READ_RATE], [seconds], seed)[0]
    queries, keys = make_stream(mix, rung.n, seed)
    writer = Writer(service, mix, seconds, seed, np.arange(GEOM.n))
    _, cpu, post, unstable = serve_phase(service, service, rung, queries, writer)
    mem = pss_mb(["self"])
    wrong_reads, post_wrong, post_ids = _checks(service, rung, queries, writer, post)
    # Percentiles over every read, so the reads the merge holds up count.
    metrics, attempted, failed = end_to_end([rung], 0, LIMIT_MS, percentile=pct)
    # The offered rate is fixed, so throughput is taken per CPU-second:
    # reads answered correctly plus writes done, over the process CPU time
    # of the phase (reads, writes and the merge alike).
    metrics["qps"] = (float(rung.ok.sum()) + len(writer.log)) / cpu

    live_x, live_ids = live_set(base, writer)
    truth = exact_topk(live_x, live_ids, queries[:POST_QUERIES], GEOM.k)
    metrics.update(setup_s=setup_s, recall_at_10=recall(post_ids, truth), mem_mb=mem)
    wlat = writer.latencies_ms(rung.t0)
    record = {
        "geometry": GEOM.to_dict(),
        "read_rate": READ_RATE, "p99_limit_ms": LIMIT_MS,
        "rungs": rung_rows([rung], LIMIT_MS),
        "writes": len(writer.log), "write_p99_ms": pct(wlat, 99), "phase_cpu_s": cpu,
        "merge_s": writer.merge_s,
        "stale_reads": int(wrong_reads), "post_checked": POST_QUERIES,
        "post_mismatches": post_wrong,
        "delta_unstable_searches": f"{unstable}/{UNSTABLE_PROBES}",
        "cache.repeat_frac": stream_repeat_frac(keys[rung.stream]),
        "setup_runs_s": setup_all,
    }
    wrong = int(wrong_reads) + post_wrong
    return Outcome(attempted + POST_QUERIES, failed + post_wrong, wrong, metrics, record)


def _checks(service, rung, queries, writer, post):
    """Stale-read check on the timed reads; post-write answers against
    direct ``DynamicVectorService.search`` on each query alone."""
    stale = writer.stale(rung)
    rung.wrong |= stale
    post_wrong = 0
    for q, res in zip(queries[:POST_QUERIES], post):
        ids, dists = service.search(q[None, :], GEOM.k, GEOM.nprobe)
        post_wrong += not (np.array_equal(res.ids, ids[0]) and np.array_equal(res.dists, dists[0]))
    return int(stale.sum()), post_wrong, np.stack([r.ids for r in post])


def live_set(base: np.ndarray, writer: Writer):
    """Vectors and ids live at check time: corpus + inserts - deletes."""
    xs = [base] + [x for x, _ in writer.inserted]
    ids = [np.arange(len(base))] + [i for _, i in writer.inserted]
    x, ids = np.concatenate(xs), np.concatenate(ids)
    dead = np.concatenate([i for kind, *_, i in writer.log if kind == "delete"])
    keep = ~np.isin(ids, dead)
    return x[keep], ids[keep]


def _run_traced(service, mix, seed, seconds) -> Outcome:
    """Untraced then traced phase, each with its own writes and mid-phase
    merge, each starting with an empty delta (a phase ends with a merge)."""
    half = seconds / 2
    plain, rung = phases(READ_RATE, seconds, seed)
    queries, keys = make_stream(mix, plain.n, seed)
    live = np.arange(GEOM.n)
    victims = np.random.default_rng([seed, 7]).permutation(live)

    plain_writer = Writer(service, mix, half, seed, victims[: GEOM.n // 2])
    _, cpu_plain, _, _ = serve_phase(service, service, plain, queries, plain_writer)

    log = SpanLog()
    proxy = ServiceProxy(service, log)
    writer = Writer(proxy, mix, half, seed + 1, victims[GEOM.n // 2 :])
    # The live delta graph as the window closes (the final merge swaps in
    # an empty one): its size is reported and reads are replayed on it.
    delta_end = []
    writer.schedule.append((half, lambda: delta_end.append(service.delta)))
    cache, cpu_traced, _, _ = serve_phase(service, proxy, rung, queries, writer)

    graph_s = graph_q = 0
    graph = delta_end[0]
    for qs in proxy.batches[:GRAPH_REPLAY_BATCHES]:
        t0 = time.perf_counter()
        graph.search(qs, GEOM.k)
        graph_s += time.perf_counter() - t0
        graph_q += len(qs)
    for phase, w in ((plain, plain_writer), (rung, writer)):
        phase.wrong |= w.stale(phase)

    reads = log.named("dynamic.search")
    inserts = log.named("dynamic.insert")
    deletes = log.named("dynamic.delete")
    merges = log.named("dynamic.merge")
    completed = max(int(rung.answered.sum()), 1)
    layers = {
        **scheduler_layers(rung, [s.attrs["nq"] for s in reads],
                           sum(s.end - s.start for s in reads), rung.seconds + rung.drain_s),
        **cache_layers(rung, keys, cache),
        **loadgen_layers(rung),
        "dynamic.search_us_per_q": _per(reads, "nq"),
        "ann.graph_search_us_per_q": graph_s * 1e6 / graph_q if graph_q else 0.0,
        "dynamic.insert_us_per_vec": _per(inserts, "n"),
        "dynamic.delete_us_p99": pct([s.dur_us for s in deletes], 99),
        "dynamic.write_p99_ms": pct(writer.latencies_ms(rung.t0), 99),
        "dynamic.merge_s": mean([s.end - s.start for s in merges]),
        "dynamic.delta_size_end": float(graph.ntotal),
        "router.cpu_us_per_q": cpu_traced * 1e6 / completed,
        "trace.overhead_frac": answer_overhead(plain, cpu_plain, rung, cpu_traced),
    }
    wrong = int(plain.wrong.sum() + rung.wrong.sum())
    record = {
        "geometry": GEOM.to_dict(),
        "read_rate": READ_RATE,
        "graph_replay": "recorded read batches on the delta graph as the window closed",
        "p99_ms_untraced": plain.p99_ms(),
        "p99_ms_traced": rung.p99_ms(),
    }
    attempted = plain.n + rung.n
    failed = int((~plain.ok).sum() + (~rung.ok).sum())
    return Outcome(attempted, failed, wrong, layers, record, spans=log)


def _per(spans, count: str) -> float:
    """Span time per unit of work (µs per query or per vector)."""
    return sum(s.dur_us for s in spans) / max(sum(s.attrs[count] for s in spans), 1)
