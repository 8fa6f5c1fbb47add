"""serve-loop: the wire service path with client and server in one process.

The server half of serve-steady (``AdmissionServer`` with digest and
journal, in front of the classed video/data/voice gateway) listens on
loopback in the benchmark's own event loop; an ``AsyncAdmissionClient``
on one v2 connection replays serve-steady's seeded schedule as a closed
loop with 16 requests in flight.  The wire codec, the client, the server
queue, coalescing, the journal, the digest and the classed kernel do the
work, on one thread: no other process has to be woken for a request to
complete, which keeps the figures steady on a shared host where
cross-process wake-ups are not (see README.md).

Each repetition builds a fresh server, replays the warm-up and the window
back to back, and times only the window.
"""

from __future__ import annotations

import asyncio
import collections
import heapq
import math
import time

from checks import check_serve
from harness import (
    Outcome,
    PeakRss,
    Tracer,
    describe,
    latency_metrics,
    latency_summary,
    median,
)
from layers import wrap_kernel
from serve_child import SHARD, build_gateway, server_ledger, wrap_server
from serve_steady import make_schedule

#: Requests in flight: the v2 pipelining depth the repository's own
#: service benchmark is quoted at.
WINDOW = 16
#: Arrivals in the timed window of one repetition.
WINDOW_ARRIVALS = 4000
MIN_REPS = 3


async def one_rep(seed, schedule, on_window=None):
    """Serve one repetition on a fresh server; returns its facts.

    ``on_window()`` is called when the timed window opens and returns a
    callable that is called when it closes (the traced run's root span).
    """
    from repro.errors import RemoteError
    from repro.service.client import AsyncAdmissionClient
    from repro.service.server import AdmissionServer

    loop = asyncio.get_running_loop()
    t0 = time.perf_counter()
    server = AdmissionServer(build_gateway(seed), name=SHARD,
                             collect_digest=True, keep_journal=True)
    _host, port = await server.start("127.0.0.1", 0)
    setup = time.perf_counter() - t0
    client = AsyncAdmissionClient("127.0.0.1", port, timeout=30.0,
                                  retries=0, max_inflight=WINDOW)
    times, holds, classes = (schedule["times"], schedule["holds"],
                             schedule["classes"])
    n_warm = schedule["n_warm"]
    sim_end = times[-1]
    departures: list = []  # heap of (sim_t, flow)
    slots = asyncio.Semaphore(WINDOW)
    tasks: set = set()
    facts = {"latencies": [], "decisions": 0, "attempted": 0, "failed": 0,
             "setup": setup}

    async def request(kind, flow, t, cls, hold, timed):
        sent = loop.time()
        try:
            if kind == "admit":
                decision = await client.admit(flow, t, cls)
                facts["decisions"] += timed
                if decision.admitted and t + hold <= sim_end:
                    heapq.heappush(departures, (t + hold, flow))
            else:
                await client.depart(flow, t)
            if timed:
                facts["latencies"].append(loop.time() - sent)
        except (RemoteError, OSError, asyncio.TimeoutError):
            facts["failed"] += 1
            facts["latencies"].append(math.inf)
        finally:
            slots.release()

    try:
        await client.connect()
        await client.ping()  # negotiates the binary v2 encoding
        start = close_window = None
        next_arrival = 0
        while True:
            await slots.acquire()
            t_arr = times[next_arrival] if next_arrival < len(times) else math.inf
            t_dep = departures[0][0] if departures else math.inf
            if min(t_arr, t_dep) == math.inf:
                slots.release()
                if not tasks:
                    break
                await asyncio.wait(set(tasks),
                                   return_when=asyncio.FIRST_COMPLETED)
                continue
            if start is None and next_arrival == n_warm:
                # The warm-up is sent; the timed window opens.
                start = time.perf_counter()
                if on_window is not None:
                    close_window = on_window()
            timed = start is not None
            facts["attempted"] += timed
            if t_arr <= t_dep:
                i = next_arrival
                next_arrival += 1
                coro = request("admit", f"f{i}", t_arr, classes[i], holds[i],
                               timed)
            else:
                _t, flow = heapq.heappop(departures)
                coro = request("depart", flow, t_dep, None, 0.0, timed)
            task = loop.create_task(coro)
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        facts["wall"] = time.perf_counter() - start
        if close_window is not None:
            close_window()
    finally:
        await client.close()
        await server.stop()
    facts["digest"] = server.digest()
    facts["journal"] = server.journal
    links = server.gateway.snapshot()["links"].values()
    facts["utilization"] = (sum(l["mean_utilization"] for l in links)
                            / len(links))
    facts["overflow"] = (sum(l["overflow_fraction"] for l in links)
                         / len(links))
    return facts


def run_reps(seed, schedule, budget, rss):
    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < budget:
        reps.append(asyncio.run(one_rep(seed, schedule)))
        rss.sample("self")
    return reps


def traced_rep(seed, schedule):
    """One repetition with the kernel and the server wrapped; its ledger."""
    tracer = Tracer()
    counts = collections.Counter()
    peak_depth = [0.0]
    window = {}

    def on_window():
        tracer.spans.clear()  # the warm-up is not measured
        counts.clear()
        peak_depth[0] = 0.0
        window["root"], token = tracer.open_span("serve")
        return lambda: tracer.close_span(window["root"], token)

    wrap_kernel(tracer, counts)
    wrap_server(tracer, counts, peak_depth)
    try:
        rep = asyncio.run(one_rep(seed, schedule, on_window))
    finally:
        tracer.restore()
    layers, lines, _decisions = server_ledger(tracer, window["root"], counts,
                                              peak_depth)
    return rep, layers, lines, tracer.spans


def run(seed, seconds, trace):
    out = Outcome()
    rss = PeakRss()
    schedule = make_schedule(seed, WINDOW_ARRIVALS)
    reps = run_reps(seed, schedule, seconds / 2.0 if trace else seconds, rss)
    checked = list(reps)
    if trace:
        traced, layers, lines, spans = traced_rep(seed, schedule)
        checked.append(traced)
    for index, rep in enumerate(checked):
        out.check(f"served-digest-equals-journal-replay@{index}", check_serve(
            rep["digest"], rep["journal"], lambda: build_gateway(seed),
            rep["failed"]))
    out.attempted = sum(r["attempted"] for r in checked)
    out.failed = sum(r["failed"] for r in checked)

    rates = [r["decisions"] / r["wall"] for r in reps]
    latency = latency_summary([x for r in reps for x in r["latencies"]])
    out.notes.append(
        f"serve-loop: {len(reps)} repetitions of {WINDOW_ARRIVALS} "
        f"arrivals, {WINDOW} in flight; rates "
        + ", ".join(f"{r:.0f}" for r in rates)
        + f" decisions/s; request latency {describe(latency)}"
    )
    out.end_to_end = {
        "setup_s": median([r["setup"] for r in checked]),
        "decisions_per_s": median(rates),
        **latency_metrics(out, latency),
        **latency_metrics(out, latency, ".hi"),
        "utilization": reps[0]["utilization"],
        "peak_rss_mb": rss.total,
    }
    if trace:
        traced_rate = traced["decisions"] / traced["wall"]
        layers.update({
            "overflow_frac": reps[0]["overflow"],
            "trace.overhead_share": median(rates) / traced_rate - 1.0,
        })
        out.layers = layers
        out.notes.extend(lines)
        out.spans = spans
    return out
