"""``engine-open``: open-loop Poisson load into an in-process engine.

One generator thread sends Zipf-skewed queries (about a quarter repeat)
at fixed rungs from light load to past capacity into a ``ServingEngine``
(one dispatcher, fixed window, ``policy="shed"``, result cache) over an
in-process ``IVFPQIndex``.  Admission, batching and the cache carry the
serving cost; routing, wire and workers stay idle.
"""

from __future__ import annotations

import time

import numpy as np

from bench_common import (
    Geometry, Mixture, Outcome, build_index, exact_topk, pss_mb, recall,
    setup_repeated, zipf_stream,
)
from bench_load import Schedule, drive_engine, end_to_end, rung_rows
from bench_serve import (
    cache_layers, check_answers, loadgen_layers, make_engine, scheduler_layers,
    stream_repeat_frac,
)
from bench_trace import (
    STAGES, BackendProxy, SpanLog, answer_overhead, phases, stage_layers,
    staged_search,
)
from repro.core.perf_model import expected_codes_per_query

GEOM = Geometry(n=8000, d=32, nlist=128, m=8, ksub=32, nprobe=8, k=10, n_train=8000)
#: Offered rates (queries/s), interleaved (see ``Schedule``).
SCHEDULE = Schedule(nominal=1000, rates=[2500, 3000, 3500, 4000, 4500, 5000, 6000])
LIMIT_MS = 30.0
REPEAT_SHARE = 0.25
HOT = 128
SETUP_REPEATS = 5
RECALL_QUERIES = 1000


def make_stream(mix: Mixture, n: int, seed: int):
    fresh = mix.sample(np.random.default_rng([seed, 2]), n + HOT)
    return zipf_stream(
        np.random.default_rng([seed, 3]), fresh, n,
        repeat_share=REPEAT_SHARE, hot=HOT,
    )


def serve(backend, rungs, queries):
    engine, cache = make_engine(backend)
    cpu0 = time.process_time()
    with engine:
        for rung in rungs:
            drive_engine(engine, rung, queries, GEOM.k, GEOM.nprobe)
    return cache, time.process_time() - cpu0


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    (index, base, mix), setup_s, setup_all = setup_repeated(
        lambda: build_index(GEOM, seed), SETUP_REPEATS
    )
    if trace:
        return _run_traced(index, mix, seed, seconds)
    segments = SCHEDULE.segments(seconds, seed)
    queries, keys = make_stream(mix, sum(r.n for r in segments), seed)
    serve(index, segments, queries)
    mem = pss_mb(["self"])
    checked, alone_wrong = check_answers(
        segments, keys, queries, index, GEOM.k, GEOM.nprobe, seed
    )
    rungs = SCHEDULE.pool(segments)
    wrong = int(sum(r.wrong.sum() for r in rungs)) + alone_wrong
    metrics, attempted, failed = end_to_end(rungs, 0, LIMIT_MS)
    failed += alone_wrong

    nom = rungs[0]
    first_pos = {}
    for i in np.flatnonzero(nom.ok):
        first_pos.setdefault(int(keys[nom.stream[i]]), i)
    sample = list(first_pos.values())[:RECALL_QUERIES]
    got = nom.ids[sample]
    truth = exact_topk(base, np.arange(GEOM.n), queries[nom.stream[sample]], GEOM.k)
    metrics.update(
        setup_s=setup_s, recall_at_10=recall(got, truth), mem_mb=mem,
    )
    record = {
        "geometry": GEOM.to_dict(),
        "schedule": SCHEDULE.to_dict(), "p99_limit_ms": LIMIT_MS,
        "rungs": rung_rows(rungs, LIMIT_MS),
        "answers_checked": checked,
        "alone_sample_mismatches": alone_wrong,
        "cache.repeat_frac": stream_repeat_frac(
            keys[np.concatenate([r.stream for r in rungs])]
        ),
        "recall_queries": len(sample),
        "setup_runs_s": setup_all,
    }
    return Outcome(attempted, failed, wrong, metrics, record)


def _run_traced(index, mix, seed, seconds) -> Outcome:
    """Untraced then traced run at the nominal rate, then the stage replay."""
    plain, rung = phases(SCHEDULE.nominal, seconds, seed)
    queries, keys = make_stream(mix, plain.n, seed)
    _, cpu_plain = serve(index, [plain], queries)

    log = SpanLog()
    proxy = BackendProxy(index, log, keep_batches=True)
    cache, cpu_traced = serve(proxy, [rung], queries)
    _, alone_wrong = check_answers(
        [plain, rung], keys, queries, index, GEOM.k, GEOM.nprobe, seed
    )

    spans = log.named("backend.search_batch")
    stage_s = dict.fromkeys(STAGES, 0.0)
    n_q = codes = replay_wrong = 0
    for qs, k, nprobe, (ids, dists) in proxy.batches:
        r_ids, r_dists, secs, c = staged_search(index, qs, k, nprobe)
        replay_wrong += int(
            not (np.array_equal(r_ids, ids) and np.array_equal(r_dists, dists))
        )
        for name, s in secs.items():
            stage_s[name] += s
        n_q += len(qs)
        codes += c
    expected = expected_codes_per_query(index.cell_sizes, GEOM.nprobe)
    completed = max(int(rung.answered.sum()), 1)
    layers = {
        **stage_layers(stage_s, n_q, codes, expected, GEOM.nprobe, GEOM.m, GEOM.ksub),
        **scheduler_layers(
            rung, [s.attrs["nq"] for s in spans], sum(s.end - s.start for s in spans),
            rung.seconds + rung.drain_s,
        ),
        **cache_layers(rung, keys, cache),
        **loadgen_layers(rung),
        "router.cpu_us_per_q": cpu_traced * 1e6 / completed,
        "trace.overhead_frac": answer_overhead(plain, cpu_plain, rung, cpu_traced),
    }
    wrong = int(plain.wrong.sum() + rung.wrong.sum()) + replay_wrong + alone_wrong
    record = {
        "geometry": GEOM.to_dict(),
        "traced_rate": SCHEDULE.nominal,
        "batches_replayed": len(proxy.batches),
        "replay_mismatches": replay_wrong,
        "p99_ms_untraced": plain.p99_ms(),
        "p99_ms_traced": rung.p99_ms(),
    }
    attempted = plain.n + rung.n
    failed = int((~plain.ok).sum() + (~rung.ok).sum()) + replay_wrong + alone_wrong
    return Outcome(attempted, failed, wrong, layers, record, spans=log)
