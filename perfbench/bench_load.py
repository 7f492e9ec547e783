"""Open-loop load: Poisson arrivals, timed from each request's due time.

The program's own ``loadgen.run_open_loop`` times from submit and blocks
on a full queue, which hides generator stalls.  Here every request has a
due time drawn from ``poisson_arrivals`` (seeded by the workload seed);
its latency runs from that due time to the moment its answer is
available, so a late generator or a stalled submit shows up in latency,
and the lateness itself is reported.  A shed, errored or unanswered
request has infinite latency: it misses every limit.
"""

from __future__ import annotations

import asyncio
import functools
import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from bench_common import pct, windowed
from repro.serve import AdmissionError, poisson_arrivals

#: How long a rung may take to drain before its stragglers count as unanswered.
DRAIN_TIMEOUT_S = 20.0
#: Share of a rung's requests that must meet the latency limit (p99).
GOOD_SHARE = 0.99
#: Cap on a rung's p99, as a multiple of the limit, in the sustained rate.
P99_CAP = 10.0
#: Share of a laddered run spent at the nominal rate.
NOMINAL_SHARE = 0.3
#: Passes over the nominal rate and the ladder in one laddered run.
CYCLES = 3


@dataclass
class Rung:
    """One fixed-rate step of the load ladder and what happened to it.

    Answers are copied into preallocated arrays as they settle, so a run
    keeps no per-request Python objects alive for the collector to scan.
    """

    rate: float
    seconds: float
    due: np.ndarray  # seconds from rung start
    stream: np.ndarray  # index of each request's query in the stream

    @classmethod
    def make(cls, rate: float, seconds: float, seed: int, offset: int) -> "Rung":
        n = int(rate * seconds * 1.5) + 16
        due = poisson_arrivals(rate, n, seed=seed)
        due = due[due < seconds]
        return cls(rate, seconds, due, offset + np.arange(len(due)))

    def wait_idle(self, timeout: float) -> None:
        """Block until every expected answer has settled (or timeout)."""
        self._idle.wait(timeout)

    def again(self) -> "Rung":
        """A fresh rung with the same schedule and queries."""
        return Rung(self.rate, self.seconds, self.due, self.stream)

    @classmethod
    def pooled(cls, segments: list["Rung"]) -> "Rung":
        """One rung holding the requests of several driven segments of a
        rate, in time order; its backlog is the worst segment's."""
        out = cls(
            segments[0].rate,
            sum(s.seconds for s in segments),
            np.concatenate([s.t0 + s.due for s in segments]),
            np.concatenate([s.stream for s in segments]),
        )
        out.t0 = 0.0  # ``due`` above is absolute
        for name in ("sent", "done", "ids", "dists", "queue_us", "exec_us",
                     "cache_hit", "answered", "wrong"):
            setattr(out, name, np.concatenate([getattr(s, name) for s in segments]))
        out.errors = [e for s in segments for e in s.errors]
        out.drain_s = max(s.drain_s for s in segments)
        return out

    @property
    def n(self) -> int:
        return len(self.due)

    def begin(self, k: int) -> None:
        n = self.n
        self.sent = np.full(n, np.nan)
        self.done = np.full(n, np.nan)
        self.ids = np.full((n, k), -1, dtype=np.int64)
        self.dists = np.full((n, k), np.nan, dtype=np.float32)
        self.queue_us = np.full(n, np.nan)
        self.exec_us = np.full(n, np.nan)
        self.cache_hit = np.zeros(n, dtype=bool)
        self.answered = np.zeros(n, dtype=bool)
        self.wrong = np.zeros(n, dtype=bool)
        self.errors = [None] * n
        self.drain_s = 0.0
        self._pending = 0
        self._lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()
        self.t0 = time.perf_counter()

    def expect(self) -> None:
        with self._lock:
            self._pending += 1
            self._idle.clear()

    def settle(self, i: int, fut) -> None:
        """Done-callback: stamp the answer time and copy the answer out."""
        self.done[i] = time.perf_counter()
        if fut.cancelled():
            self.errors[i] = "unanswered"
        elif fut.exception() is not None:
            exc = fut.exception()
            self.errors[i] = "shed" if isinstance(exc, AdmissionError) else type(exc).__name__
        else:
            res = fut.result()
            self.ids[i] = res.ids
            self.dists[i] = res.dists
            self.queue_us[i] = res.queue_us
            self.exec_us[i] = res.exec_us
            self.cache_hit[i] = res.cache_hit
            self.answered[i] = True
        with self._lock:
            self._pending -= 1
            if self._pending == 0:
                self._idle.set()

    def finish(self, t_last: float) -> None:
        """Close the rung: stragglers count as unanswered."""
        for i in np.flatnonzero(~self.answered & ~np.isnan(self.sent)):
            if self.errors[i] is None:
                self.errors[i] = "unanswered"
        done = self.done[self.answered]
        self.drain_s = max(0.0, float(done.max()) - t_last) if done.size else 0.0

    # ---- outcome ------------------------------------------------------ #
    @property
    def ok(self) -> np.ndarray:
        """Answered, and the answer passed its check."""
        return self.answered & ~self.wrong

    def latency_ms(self) -> np.ndarray:
        """Due-time latency per request; ``inf`` for every request that was
        shed, errored, unanswered or wrong."""
        lat = (self.done - (self.t0 + self.due)) * 1e3
        lat[~self.ok] = np.inf
        return lat

    def p99_ms(self) -> float:
        """Windowed p99 of the due-time latency (see ``windowed``)."""
        return windowed(self.latency_ms(), 99)

    def late_us(self) -> np.ndarray:
        sent = ~np.isnan(self.sent)
        return (self.sent[sent] - (self.t0 + self.due[sent])) * 1e6

    def error_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.errors:
            if e is not None:
                out[e] = out.get(e, 0) + 1
        return out

    def good_frac(self, limit_ms: float) -> float:
        """Share of requests answered correctly within ``limit_ms`` of their
        due time; a backlog makes late requests miss, so it shows here."""
        return float((self.latency_ms() <= limit_ms).mean()) if self.n else 0.0

    def passes(self, limit_ms: float) -> bool:
        """p99 within the limit: at least 99% of requests meet it."""
        return self.good_frac(limit_ms) >= GOOD_SHARE


def ladder(
    rates: list[float], seconds: list[float], seed: int
) -> list[Rung]:
    """Rungs with seeded Poisson schedules over one continuous stream."""
    rungs, offset = [], 0
    for i, (rate, secs) in enumerate(zip(rates, seconds)):
        rung = Rung.make(rate, secs, seed=seed * 1009 + i, offset=offset)
        offset += rung.n
        rungs.append(rung)
    return rungs


@dataclass
class Schedule:
    """A nominal rate and a ladder of capacity rates, interleaved.

    The run is ``CYCLES`` passes; each pass sends a slice of the nominal
    rate (``NOMINAL_SHARE`` of the run in all), then a slice of every
    capacity rate, lowest first.  A slow spell of the host then lands on
    every rate alike instead of failing whichever rung it happened to
    overlap, and each rate's slices are pooled before any figure is taken.
    """

    nominal: float
    rates: list[float]

    def to_dict(self) -> dict:
        return {**self.__dict__, "nominal_share": NOMINAL_SHARE, "cycles": CYCLES}

    def segments(self, seconds: float, seed: int) -> list[Rung]:
        """The driven order: every slice, over one continuous stream."""
        nom_s = seconds * NOMINAL_SHARE / CYCLES
        cap_s = seconds * (1 - NOMINAL_SHARE) / CYCLES / len(self.rates)
        plan = [(self.nominal, nom_s)] + [(r, cap_s) for r in self.rates]
        return ladder(
            [r for r, _ in plan] * CYCLES, [s for _, s in plan] * CYCLES, seed
        )

    def pool(self, segments: list[Rung]) -> list[Rung]:
        """Rungs by rate, nominal first, each pooled from its slices."""
        return [
            Rung.pooled([s for s in segments if s.rate == rate])
            for rate in [self.nominal, *self.rates]
        ]


def sustained(rungs: list[Rung], limit_ms: float) -> float:
    """Highest rate whose p99 meets the latency limit.

    Each rate's windowed p99 of due-time latency (see ``windowed``: a
    stall of the host fails the windows it covers, a growing backlog
    fails them all) is taken on a log scale, capped at
    ``P99_CAP`` times the limit (a window that sheds or fails more than 1%
    of its requests has an infinite p99), and made non-decreasing in the
    rate (pool-adjacent-violators, weighted by request count), so one
    stall on a single low rung does not end the ladder there.  The figure
    is the highest rate whose p99 is within the limit, interpolated
    towards the next rate up to where the log p99 would reach the limit.
    It moves smoothly with the measured tails instead of in whole rungs.
    When even the lowest rate misses the limit, the figure is that rate
    scaled down by limit / p99: below the ladder, in proportion to the miss.
    """
    order = sorted(rungs, key=lambda r: r.rate)
    rates = [r.rate for r in order]
    cap = P99_CAP * limit_ms
    log_p99 = [-v for v in _non_increasing(
        [-math.log(min(r.p99_ms(), cap)) for r in order],
        [max(r.n, 1) for r in order],
    )]
    target = math.log(limit_ms)
    passing = [i for i, v in enumerate(log_p99) if v <= target]
    if not passing:
        return rates[0] * math.exp(target - log_p99[0])
    lo = passing[-1]
    if lo + 1 == len(order):
        return rates[lo]
    step = (target - log_p99[lo]) / (log_p99[lo + 1] - log_p99[lo])
    return rates[lo] + (rates[lo + 1] - rates[lo]) * step


def _non_increasing(values: list[float], weights: list[float]) -> list[float]:
    """Weighted least-squares non-increasing fit (pool adjacent violators)."""
    blocks: list[list[float]] = []  # [mean, weight, count]
    for v, w in zip(values, weights):
        blocks.append([v, w, 1])
        while len(blocks) > 1 and blocks[-2][0] < blocks[-1][0]:
            v2, w2, c2 = blocks.pop()
            v1, w1, c1 = blocks.pop()
            blocks.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2, c1 + c2])
    return [v for v, _, c in blocks for _ in range(c)]


# --------------------------------------------------------------------- #
# In-process load (one generator thread).
def drive_engine(engine, rung: Rung, queries: np.ndarray, k: int, nprobe, writes=()):
    """Send ``rung`` into ``engine`` on schedule; wait for every answer.

    ``writes`` is a due-time-sorted list of ``(due_s, fn)`` run inline by
    this same thread when due, ahead of any read due later.
    """
    rung.begin(k)
    wi = 0
    for i in range(rung.n):
        due_i = rung.t0 + rung.due[i]
        while wi < len(writes) and rung.t0 + writes[wi][0] <= due_i:
            _sleep_until(rung.t0 + writes[wi][0])
            writes[wi][1]()
            wi += 1
        _sleep_until(due_i)
        rung.sent[i] = time.perf_counter()
        try:
            fut = engine.submit(queries[rung.stream[i]], k, nprobe)
        except AdmissionError:
            rung.errors[i] = "shed"
            continue
        rung.expect()
        fut.add_done_callback(functools.partial(rung.settle, i))
    for due_w, fn in writes[wi:]:
        _sleep_until(rung.t0 + due_w)
        fn()
    t_last = rung.t0 + rung.seconds
    _sleep_until(t_last)
    rung.wait_idle(DRAIN_TIMEOUT_S)
    rung.finish(t_last)


def _sleep_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


# --------------------------------------------------------------------- #
# Socket load (one asyncio thread, up to nproc connections).
async def drive_clients(clients, rung: Rung, queries: np.ndarray, k: int, nprobe):
    """Send ``rung`` over ``clients`` round-robin; await every answer."""
    rung.begin(k)
    futs = []
    for i in range(rung.n):
        delay = rung.t0 + rung.due[i] - time.perf_counter()
        # Always yield, even when late, so answers keep being read.
        await asyncio.sleep(max(delay, 0.0))
        rung.sent[i] = time.perf_counter()
        fut = clients[i % len(clients)].submit(queries[rung.stream[i]], k, nprobe)
        rung.expect()
        fut.add_done_callback(functools.partial(rung.settle, i))
        futs.append(fut)
    t_last = rung.t0 + rung.seconds
    await asyncio.sleep(max(t_last - time.perf_counter(), 0.0))
    if futs:
        _, pending = await asyncio.wait(futs, timeout=DRAIN_TIMEOUT_S)
        for fut in pending:
            fut.cancel()
        await asyncio.sleep(0)  # let the cancellations settle
    rung.finish(t_last)


def end_to_end(
    rungs: list[Rung], nominal: int, limit_ms: float, percentile=windowed
) -> tuple[dict, int, int]:
    """Serving end-to-end metrics and the run's ``(attempted, failed)``.

    p50/p90 (by ``percentile``: windowed by default, see ``windowed``)
    and ``ok_frac`` come from the nominal rung.  ``failed`` counts
    every wrong, errored or unanswered request, and sheds at or below the
    nominal rate; sheds above it are the expected outcome of probing past
    capacity and only cost those rungs their latency limit.
    """
    nom = rungs[nominal]

    def shown(v: float) -> float:
        # A missing answer has no latency; report the rung window instead.
        return v if np.isfinite(v) else nom.seconds * 1e3

    metrics = {
        "qps": sustained(rungs, limit_ms),
        "p50_ms": shown(percentile(nom.latency_ms(), 50)),
        "p90_ms": shown(percentile(nom.latency_ms(), 90)),
        "ok_frac": float(nom.ok.mean()) if nom.n else 0.0,
    }
    attempted = sum(r.n for r in rungs)
    failed = 0
    for r in rungs:
        if r.rate <= nom.rate:
            failed += int((~r.ok).sum())
        else:
            failed += int(r.wrong.sum()) + sum(
                1 for e in r.errors if e is not None and e != "shed"
            )
    return metrics, attempted, failed


def rung_rows(rungs: list[Rung], limit_ms: float) -> list[dict]:
    """Per-rung record rows (rate, samples, p50/p99, sheds, lateness)."""
    rows = []
    for r in rungs:
        lat = r.latency_ms()
        rows.append({
            "rate": r.rate,
            "sent": int((~np.isnan(r.sent)).sum()),
            "answered": int(r.answered.sum()),
            "errors": r.error_counts(),
            "wrong": int(r.wrong.sum()),
            "p50_ms": round(pct(lat, 50), 3),
            "p90_ms": round(pct(lat, 90), 3),
            "p95_ms": round(pct(lat, 95), 3),
            "p99_ms": round(pct(lat, 99), 3),
            "p99_ms_windowed": round(r.p99_ms(), 3),
            "late_us_p99": round(pct(r.late_us(), 99), 1),
            "drain_ms": round(r.drain_s * 1e3, 2),
            "good_frac": round(r.good_frac(limit_ms), 5),
            "passes": bool(r.passes(limit_ms)),
        })
    return rows
