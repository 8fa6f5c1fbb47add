"""cluster-steady: the replicated multi-process cluster under steady load.

A :class:`~repro.service.replication.ProcessCluster` of 2 shards, each a
leader with one journal-shipped follower, built from the soak's ``trace``
gateway recipe with a fixed CE parameter.  It is driven through the
repository's own :func:`~repro.service.loadgen.run_cluster_loadgen` with
a seeded Poisson schedule near capacity.  That loop awaits each call,
so this is a closed loop with one call outstanding: supervisor routing,
one RPC per event and journal shipping dominate, and a change to how the
load generator batches shows here.

The schedule is cut into chunks replayed back to back on the same
cluster (each chunk drains its departures); the run reports the median
chunk rate.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time

import numpy as np

from checks import check_cluster
from harness import (
    Outcome,
    PeakRss,
    Tracer,
    cpu_seconds,
    durations,
    format_ledger,
    describe,
    latency_metrics,
    latency_summary,
    ledger,
    median,
    merge_ledgers,
    percentile,
)

SHARDS = 2
LINKS = 2
CAPACITY = 20.0
ALPHA = 1.645
HOLDING_TIME = 12.0
#: Offered load of about 72 flows against 4 links of capacity 20.
ARRIVAL_RATE = 6.0
CHUNK_ARRIVALS = 400
MIN_CHUNKS = 3
SETUPS = 3
SYNC_TIMEOUT_S = 20.0


def make_spec(seed):
    from repro.service.replication import GatewaySpec

    return GatewaySpec(kind="trace", links=LINKS, capacity=CAPACITY,
                       alpha=ALPHA, seed=seed)


def chunk_arrivals(seed, chunk, offset):
    """Poisson arrival instants of one chunk, starting after ``offset``."""
    rng = np.random.default_rng((seed, chunk))
    gaps = rng.exponential(1.0 / ARRIVAL_RATE, size=CHUNK_ARRIVALS)
    return (offset + np.cumsum(gaps)).tolist()


def flow_of(args, kwargs):
    """The flow a supervisor ``admit``/``depart`` call is about."""
    return repr(args[1])


class TimedCluster:
    """Stands in for the cluster in the load generator; times every call."""

    def __init__(self, cluster) -> None:
        self._cluster = cluster
        self.latencies: list = []

    async def admit(self, flow, t=None):
        t0 = time.perf_counter()
        try:
            return await self._cluster.admit(flow, t)
        finally:
            self.latencies.append(time.perf_counter() - t0)

    async def depart(self, flow, t=None):
        t0 = time.perf_counter()
        try:
            return await self._cluster.depart(flow, t)
        finally:
            self.latencies.append(time.perf_counter() - t0)

    async def snapshot(self):
        return await self._cluster.snapshot()

    @property
    def retried(self):
        return self._cluster.retried


def shard_processes():
    """``{pid: role}`` of the live shard processes."""
    return {
        child.pid: child.name.rsplit("-", 1)[-1]
        for child in multiprocessing.active_children()
        if child.name.startswith("repro-shard-")
    }


async def journal_ends(cluster):
    """``{shard: (leader_end, follower_end, leader_digest, follower_digest)}``.

    The cluster exposes no follower handles, so the benchmark reads the
    follower addresses from the supervisor's table to reach them.
    """
    from repro.service.client import AsyncAdmissionClient

    snap = await cluster.snapshot()
    out = {}
    for name in cluster.shards:
        service = snap["shards"][name]["service"]
        leader_end = service["journal_start"] + service["journal_entries"]
        follower = cluster._followers[name]
        client = AsyncAdmissionClient(*follower.address, timeout=5.0)
        try:
            fsnap = await client.snapshot()
        finally:
            await client.close()
        fservice = fsnap["service"]
        out[name] = (
            leader_end,
            fservice["journal_start"] + fservice["journal_entries"],
            service["decision_digest"],
            fservice["decision_digest"],
        )
    return out


async def final_sync(cluster):
    """Wait until every follower holds its leader's whole journal."""
    deadline = time.monotonic() + SYNC_TIMEOUT_S
    while True:
        ends = await journal_ends(cluster)
        if all(lead == follow for lead, follow, _l, _f in ends.values()):
            return ends
        if time.monotonic() > deadline:
            return ends
        await asyncio.sleep(0.05)


async def drive_chunks(cluster, seed, budget, state, tracer=None):
    """Replay chunks until ``budget`` seconds have passed; returns them."""
    from repro.service.loadgen import run_cluster_loadgen

    timed = TimedCluster(cluster)
    chunks = []
    start = time.perf_counter()
    while len(chunks) < MIN_CHUNKS or time.perf_counter() - start < budget:
        kwargs = dict(holding_time=HOLDING_TIME,
                      seed=seed * 1000 + state["chunk"],
                      arrivals=chunk_arrivals(seed, state["chunk"],
                                              state["offset"]))
        root = None
        if tracer is None:
            report = await run_cluster_loadgen(timed, **kwargs)
        else:
            with tracer.span("loadgen") as root:
                report = await run_cluster_loadgen(timed, **kwargs)
        state["chunk"] += 1
        state["offset"] = report.simulated_time
        ends = await journal_ends(cluster)
        state["lag"].extend(lead - follow for lead, follow, _l, _f in ends.values())
        chunks.append({"report": report, "root": root})
    return chunks, timed


async def measure(seed, seconds, trace):
    from repro.service.client import AsyncAdmissionClient
    from repro.service.replication import ProcessCluster

    def new_cluster():
        return ProcessCluster(make_spec(seed), shards=SHARDS, replicas=1)

    setups = []
    for _ in range(SETUPS - 1):
        cluster = new_cluster()
        try:
            t0 = time.perf_counter()
            await cluster.start()
            setups.append(time.perf_counter() - t0)
        finally:
            await cluster.stop()

    cluster = new_cluster()
    result = {"setups": setups}
    try:
        t0 = time.perf_counter()
        await cluster.start()
        setups.append(time.perf_counter() - t0)
        pids = shard_processes()
        cpu0 = {pid: cpu_seconds(pid) for pid in pids}
        cpu0["self"] = cpu_seconds()
        wall0 = time.perf_counter()
        state = {"chunk": 0, "offset": 0.0, "lag": []}
        if trace:
            plain, _ = await drive_chunks(cluster, seed, seconds / 2.0, state)
            tracer = Tracer()
            tracer.wrap(ProcessCluster, "admit", "cluster.admit",
                        request=flow_of)
            tracer.wrap(ProcessCluster, "depart", "cluster.depart",
                        request=flow_of)
            tracer.wrap(ProcessCluster, "snapshot", "cluster.snapshot")
            tracer.wrap(AsyncAdmissionClient, "call",
                        lambda args, kwargs: f"client.call:{args[1]}")
            try:
                chunks, timed = await drive_chunks(
                    cluster, seed, seconds / 2.0, state, tracer)
            finally:
                tracer.restore()
            result.update(plain=plain, tracer=tracer)
        else:
            chunks, timed = await drive_chunks(cluster, seed, seconds, state)
        wall = time.perf_counter() - wall0
        busy = {pid: (cpu_seconds(pid) - cpu0[pid]) / wall for pid in pids}
        result["supervisor_busy"] = (cpu_seconds() - cpu0["self"]) / wall
        result["busy"] = {
            role: [b for pid, b in busy.items() if pids[pid] == role]
            for role in ("leader", "follower")
        }
        rss = PeakRss()
        rss.sample("self")
        for pid in pids:
            rss.sample(pid)
        result["rss"] = rss.total
        snapshot = await cluster.snapshot()
        links = [link for shard in snapshot["shards"].values()
                 for link in shard["links"].values()]
        result["utilization"] = (sum(l["mean_utilization"] for l in links)
                                 / len(links))
        result["overflow"] = (sum(l["overflow_fraction"] for l in links)
                              / len(links))
        result["reconcile"] = await cluster.reconcile()
        result["sync"] = await final_sync(cluster)
        result.update(chunks=chunks, timed=timed, lag=state["lag"])
        result["retried"] = cluster.retried
    finally:
        await cluster.stop()
    return result


def run(seed, seconds, trace):
    out = Outcome()
    result = asyncio.run(measure(seed, seconds, trace))
    chunks = result["chunks"]
    reports = [c["report"] for c in chunks]
    every = reports + [c["report"] for c in result.get("plain", [])]
    out.attempted = sum(r.requests for r in every)
    out.failed = sum(r.errors + r.shed for r in every)
    out.check("cluster-reconcile-and-follower-digests", check_cluster(
        result["reconcile"],
        [(name, lead_d, follow_d)
         for name, (_l, _f, lead_d, follow_d) in sorted(result["sync"].items())],
    ))
    if out.failed:
        out.check("cluster-calls", f"{out.failed} calls failed")
    rates = [(r.admitted + r.rejected) / r.wall_seconds for r in reports]
    latency = latency_summary(result["timed"].latencies)
    out.notes.append(
        f"cluster-steady: {len(chunks)} chunks of {CHUNK_ARRIVALS} arrivals, "
        f"chunk rates " + ", ".join(f"{r:.0f}" for r in rates)
        + " decisions/s; set-ups "
        + ", ".join(f"{s:.2f}s" for s in result["setups"])
        + f"; call latency {describe(latency)}"
    )
    throughput = median(rates)
    out.end_to_end = {
        "setup_s": median(result["setups"]),
        "decisions_per_s": throughput,
        **latency_metrics(out, latency),
        **latency_metrics(out, latency, ".hi"),
        "utilization": result["utilization"],
        "peak_rss_mb": result["rss"],
    }
    if not trace:
        return out

    tracer = result["tracer"]
    spans = tracer.spans
    entries = merge_ledgers([
        (ledger(spans, c["root"]), spans[c["root"]][2] - spans[c["root"]][1])
        for c in chunks
    ])
    decisions = sum(r.admitted + r.rejected for r in reports)
    cluster_spans = [i for i, s in enumerate(spans)
                     if s[0] in ("cluster.admit", "cluster.depart")]
    self_s = sum(entries[n]["self_s"] for n in ("cluster.admit", "cluster.depart")
                 if n in entries)
    rtts = sorted(durations(spans, "client.call:admit")
                  + durations(spans, "client.call:depart"))
    calls = sum(1 for s in spans if s[0].startswith("client.call:"))
    plain_rates = [(c["report"].admitted + c["report"].rejected)
                   / c["report"].wall_seconds for c in result["plain"]]
    busy = result["busy"]
    out.layers = {
        "cluster.self.us": self_s / len(cluster_spans) * 1e6 if cluster_spans else 0.0,
        "cluster.shard_rtt_ms.p50": percentile(rtts, 0.5) * 1e3 if rtts else 0.0,
        "cluster.calls_per_decision": calls / decisions if decisions else 0.0,
        "client.rtt_ms.p50": percentile(rtts, 0.5) * 1e3 if rtts else 0.0,
        "client.retried": result["retried"],
        "supervisor.cpu_busy": result["supervisor_busy"],
        "leader.cpu_busy": sum(busy["leader"]) / max(len(busy["leader"]), 1),
        "follower.cpu_busy": sum(busy["follower"]) / max(len(busy["follower"]), 1),
        "replication.ship_lag_entries": sum(result["lag"]) / max(len(result["lag"]), 1),
        "loadgen.gap_share": entries["loadgen"]["share"],
        "overflow_frac": result["overflow"],
        "ledger.root_share": entries["loadgen"]["share"],
        "ledger.share_sum": sum(e["share"] for e in entries.values()),
        "trace.overhead_share": median(plain_rates) / median(
            [(r.admitted + r.rejected) / r.wall_seconds for r in reports]) - 1.0,
        "trace.spans": len(spans),
    }
    out.notes.extend(format_ledger(entries, decisions))
    out.spans = spans
    return out
