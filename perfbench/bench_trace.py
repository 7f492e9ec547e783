"""Benchmark-owned spans and the proxies that record them.

Traced runs wrap the objects the benchmark hands to the program (the
engine's backend, the router's planner, each shard, the dynamic service)
in proxies.  A proxy forwards every attribute the program reads (``d``,
``ntotal``, ``cell_sizes``, ``last_coverage``, ``supports_preselected``,
``add_invalidation_listener`` ...) to the wrapped object, so the program
behaves exactly as untraced, and records one span per call it
intercepts: ``(id, name, start, end, parent, request id, attrs)``, kept
in memory and written out when the run ends.  Untraced runs attach no
proxy at all.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass

import numpy as np

from bench_load import Rung, ladder


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: int | None
    attrs: dict

    @property
    def dur_us(self) -> float:
        return (self.end - self.start) * 1e6


class SpanLog:
    """In-memory span store; the parent of a span is the span open on the
    same thread when it started (or one given explicitly)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._tls = threading.local()

    def current(self) -> int | None:
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    def call(self, name, fn, *args, parent=None, rid=None, attrs=None, **kwargs):
        """Run ``fn`` inside a span; returns ``(result, span)``."""
        sid = next(self._ids)
        if parent is None:
            parent = self.current()
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        span = Span(sid, name, t0, t1, parent, rid, dict(attrs or {}))
        with self._lock:
            self.spans.append(span)
        return out, span

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def write(self, path) -> None:
        """Dump every span as JSON lines (times in µs on the run's clock)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name,
                    "start_us": round(s.start * 1e6, 1),
                    "end_us": round(s.end * 1e6, 1),
                    "parent": s.parent, "rid": s.rid, "attrs": s.attrs,
                }) + "\n")


def self_time_us(span: Span, children: list[Span]) -> float:
    """A span's duration minus the part of it its children cover."""
    ivs = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered, cur_s, cur_e = 0.0, None, None
    for s, e in ivs:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return (span.end - span.start - covered) * 1e6


class _Forwarding:
    """Forwards every attribute it does not define to the wrapped object."""

    def __init__(self, inner, log: SpanLog):
        self._inner = inner
        self._log = log

    def __getattr__(self, name):
        return getattr(self._inner, name)


class BackendProxy(_Forwarding):
    """Around the engine's backend: one span per micro-batch, and the
    batch itself kept for the stage replay."""

    def __init__(self, inner, log: SpanLog, keep_batches: bool = False):
        super().__init__(inner, log)
        self._batch_ids = itertools.count()
        self.batches: list[tuple] = []
        self._keep = keep_batches

    def search_batch(self, queries, k, nprobe=None):
        bid = next(self._batch_ids)
        out, _ = self._log.call(
            "backend.search_batch", self._inner.search_batch, queries, k, nprobe,
            rid=bid, attrs={"nq": int(len(queries))},
        )
        if self._keep:
            self.batches.append((np.array(queries, dtype=np.float32), k, nprobe, out))
        return out


class PlannerProxy(_Forwarding):
    """Around the router's coarse planner: one span per preselect.  Each
    plan is kept alive for the run, so the id of its query array stays
    unique and shard spans can find the scatter that sent them."""

    def __init__(self, inner, log: SpanLog):
        super().__init__(inner, log)
        self.plans: list[tuple] = []
        #: id(queries_t) -> parent span of the scatter that planned it.
        self.owner: dict[int, int | None] = {}

    def preselect(self, queries, nprobe):
        parent = self._log.current()
        plan, span = self._log.call(
            "routing.preselect", self._inner.preselect, queries, nprobe,
            attrs={"nq": int(len(queries))},
        )
        self.owner[id(plan[0])] = parent
        self.plans.append((plan, span))
        return plan


class ShardProxy(_Forwarding):
    """Around one shard: a span per RPC, parented to the scatter that sent
    it (scatter threads do not inherit the caller's thread state, so the
    parent is found through the plan array the planner proxy handed out)."""

    def __init__(self, inner, log: SpanLog, index: int, planner: PlannerProxy):
        super().__init__(inner, log)
        self._index = index
        self._planner = planner
        self.calls: list[tuple] = []

    def search_batch_preselected(self, queries_t, probed, k):
        parent = self._planner.owner.get(id(queries_t))
        out, span = self._log.call(
            "routing.shard_rpc", self._inner.search_batch_preselected,
            queries_t, probed, k, parent=parent,
            attrs={"shard": self._index, "nq": int(len(queries_t))},
        )
        self.calls.append((queries_t, np.array(probed), k, out, span))
        return out


class ServiceProxy(_Forwarding):
    """Around the dynamic service: spans for reads, inserts, deletes and
    merges."""

    def __init__(self, inner, log: SpanLog):
        super().__init__(inner, log)
        self.batches: list[tuple] = []

    def search_batch(self, queries, k, nprobe=None):
        out, _ = self._log.call(
            "dynamic.search", self._inner.search_batch, queries, k, nprobe,
            attrs={"nq": int(len(queries))},
        )
        self.batches.append(np.array(queries, dtype=np.float32))
        return out

    def insert(self, x):
        out, _ = self._log.call(
            "dynamic.insert", self._inner.insert, x, attrs={"n": int(len(x))}
        )
        return out

    def delete(self, ids):
        out, _ = self._log.call(
            "dynamic.delete", self._inner.delete, ids, attrs={"n": int(len(ids))}
        )
        return out

    def merge(self):
        out, _ = self._log.call("dynamic.merge", self._inner.merge)
        return out


STAGES = ("preselect", "build_lut", "pq_dist", "select_k")


def phases(rate: float, seconds: float, seed: int) -> tuple[Rung, Rung]:
    """The untraced and the traced phase of a traced serving run: one
    seeded schedule at ``rate``, each phase half of ``seconds``."""
    template = ladder([rate], [seconds / 2], seed)[0]
    return template.again(), template.again()


def answer_overhead(plain: Rung, cpu_plain: float, traced: Rung, cpu_traced: float) -> float:
    """Relative extra process CPU per answer in the traced phase, from two
    driven phases and their CPU time."""
    per_plain = cpu_plain / max(int(plain.answered.sum()), 1)
    per_traced = cpu_traced / max(int(traced.answered.sum()), 1)
    return per_traced / per_plain - 1.0 if per_plain else 0.0


def staged_search(index, queries, k: int, nprobe: int, plan=None):
    """One batch through the public stage functions, each timed.

    ``plan`` is a ready ``(queries_t, probed)`` (a router's preselect for
    a shard); without it the coarse stage runs here.  Returns
    ``(ids, dists, seconds per stage, codes scanned)``.
    """
    t0 = time.perf_counter()
    queries_t, probed = index.preselect(queries, nprobe) if plan is None else plan
    t1 = time.perf_counter()
    luts = index.stage_build_luts_batch(queries_t, probed)
    t2 = time.perf_counter()
    dists, ids, bounds = index.stage_pq_dist_batch(luts, probed)
    t3 = time.perf_counter()
    out_ids, out_dists = index.stage_select_k_batch(dists, ids, bounds, k)
    t4 = time.perf_counter()
    secs = dict(zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)))
    return out_ids, out_dists, secs, int(bounds[-1])


def stage_layers(stage_s: dict, n_queries: int, codes: int, expected_codes: float,
                 nprobe: int, m: int, ksub: int) -> dict:
    """Per-query stage times, scan counts and the Eq. 4 model ratio."""
    nq = max(n_queries, 1)
    return {
        "ann.preselect_us_per_q": stage_s.get("preselect", 0.0) * 1e6 / nq,
        "ann.build_lut_us_per_q": stage_s["build_lut"] * 1e6 / nq,
        "ann.pq_dist_us_per_q": stage_s["pq_dist"] * 1e6 / nq,
        "ann.select_k_us_per_q": stage_s["select_k"] * 1e6 / nq,
        "ann.codes_per_q": codes / nq,
        "ann.codes_model_ratio": (codes / nq) / expected_codes if expected_codes else 0.0,
        # Computed from the table shape, not captured: one float32
        # (m, ksub) table per probed cell.
        "ann.lut_bytes_per_q": float(nprobe * m * ksub * 4),
    }
