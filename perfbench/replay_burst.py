"""replay-burst: batched in-process replay through a 4-link RCBR gateway.

n = 100 flows per link, p_q = 1e-2, arrival rate 32, holding time 500,
batch window 2.0: bursts of about 64 flows at about 40x the offered load,
so nearly every decision is a reject.  No socket and no journal: the
batched decision kernel (``admit_many``) and the measurement tick do the
work.  Each repetition replays the same seeded workload on a freshly
built gateway, so repetitions must decide identically.
"""

from __future__ import annotations

import collections
import time

from checks import check_replay
from harness import (
    Outcome,
    PeakRss,
    Tracer,
    format_ledger,
    describe,
    latency_metrics,
    latency_summary,
    ledger,
    median,
    merge_ledgers,
)
from layers import kernel_metrics, wrap_kernel

N_LINKS = 4
FLOWS_PER_LINK = 100.0
P_Q = 1e-2
ARRIVAL_RATE = 32.0
HOLDING_TIME = 500.0
TICK_PERIOD = 2.0
BATCH_WINDOW = 2.0
EVENTS = 40_000
MIN_REPS = 3


def build_gateway(seed, placement="least-loaded"):
    """The gateway ``benchmarks/bench_runtime.py`` times, feeds seeded by ``seed``."""
    from repro.runtime import (
        AdmissionGateway,
        ManagedLink,
        MetricsRegistry,
        SourceFeed,
    )
    from repro.traffic.rcbr import paper_rcbr_source

    registry = MetricsRegistry()
    links = []
    for i in range(N_LINKS):
        source = paper_rcbr_source()
        links.append(ManagedLink.build(
            f"link{i}",
            capacity=FLOWS_PER_LINK * source.mean,
            holding_time=HOLDING_TIME,
            feed=SourceFeed(source, period=TICK_PERIOD, seed=seed * 1000 + i),
            p_q=P_Q,
            snr=0.3,
            correlation_time=1.0,
            registry=registry,
        ))
    return AdmissionGateway(links, placement=placement, registry=registry)


class Recorder:
    """Stands in for the gateway: logs the batched calls, times each burst."""

    def __init__(self, gateway) -> None:
        self._gateway = gateway
        self.log: list = []
        self.latencies: list = []

    def __getattr__(self, name):
        return getattr(self._gateway, name)

    def tick(self, now):
        self.log.append(("tick", now, None, None))
        return self._gateway.tick(now)

    def admit_many(self, flows, now, flow_class=None):
        t0 = time.perf_counter()
        decisions = self._gateway.admit_many(flows, now, flow_class)
        self.latencies.append(time.perf_counter() - t0)
        self.log.append(("admit_many", now, flows, [d.link for d in decisions]))
        return decisions

    def depart_many(self, flows, now):
        self.log.append(("depart_many", now, list(flows), None))
        return self._gateway.depart_many(flows, now)


def one_rep(seed, tracer=None, keep_log=False):
    """Build a gateway and replay the workload once; returns the facts.

    Only what the metrics need is kept, so no repetition's gateway
    outlives it and peak RSS does not grow with the number of repetitions.
    """
    from repro.runtime import replay

    t0 = time.perf_counter()
    gateway = build_gateway(seed)
    setup = time.perf_counter() - t0
    recorder = Recorder(gateway)
    kwargs = dict(
        n_events=EVENTS, arrival_rate=ARRIVAL_RATE, holding_time=HOLDING_TIME,
        tick_period=TICK_PERIOD, seed=seed, batch_window=BATCH_WINDOW,
        collect_digest=True,
    )
    root = None
    if tracer is None:
        report = replay(recorder, **kwargs)
    else:
        with tracer.span("replay") as root:
            report = replay(recorder, **kwargs)
    links = report.metrics["links"].values()
    return {
        "setup": setup,
        "report": report,
        "decisions": report.admitted + report.rejected,
        "utilization": sum(l["mean_utilization"] for l in links) / len(links),
        "latencies": recorder.latencies,
        "log": recorder.log if keep_log else None,
        "root": root,
    }


def run_reps(seed, budget, tracer=None):
    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < budget:
        reps.append(one_rep(seed, tracer, keep_log=not reps))
    return reps


def run(seed, seconds, trace):
    out = Outcome()
    if not trace:
        reps = run_reps(seed, seconds)
        traced = []
    else:
        reps = run_reps(seed, seconds / 2.0)
        tracer = Tracer()
        counts = collections.Counter()
        wrap_kernel(tracer, counts)
        try:
            traced = run_reps(seed, seconds / 2.0, tracer)
        finally:
            tracer.restore()
    everything = reps + traced
    out.attempted = sum(r["decisions"] for r in everything)
    out.check("replay-batched-equals-sequential", check_replay(
        [r["report"].decision_digest for r in everything],
        reps[0]["log"],
        lambda placement: build_gateway(seed, placement),
    ))

    rates = [r["decisions"] / r["report"].wall_seconds for r in reps]
    latency = latency_summary(
        [x for r in reps for x in r["latencies"]]
    )
    first = reps[0]
    out.notes.append(
        f"replay-burst: {len(reps)} untraced reps of {EVENTS} events, "
        f"{first['decisions']} decisions each ({first['report'].admitted} "
        f"admitted); burst latency {describe(latency)}"
    )
    rss = PeakRss()
    rss.sample("self")
    throughput = median(rates)
    out.end_to_end = {
        "setup_s": median([r["setup"] for r in everything]),
        "decisions_per_s": throughput,
        **latency_metrics(out, latency),
        **latency_metrics(out, latency, ".hi"),
        "utilization": first["utilization"],
        "peak_rss_mb": rss.total,
    }

    if trace:
        spans = tracer.spans
        entries = merge_ledgers([
            (ledger(spans, r["root"]), spans[r["root"]][2] - spans[r["root"]][1])
            for r in traced
        ])
        decisions = sum(r["decisions"] for r in traced)
        untraced_wall = median([r["report"].wall_seconds for r in reps])
        traced_wall = median([r["report"].wall_seconds for r in traced])
        out.layers = kernel_metrics(spans, entries, decisions, counts)
        out.layers.update({
            "overflow_frac": first["report"].overflow_fraction,
            "failed_frac": 0.0,
            "ledger.root_share": entries["replay"]["share"],
            "ledger.share_sum": sum(e["share"] for e in entries.values()),
            "trace.overhead_share": traced_wall / untraced_wall - 1.0,
            "trace.spans": len(spans),
        })
        out.notes.extend(format_ledger(entries, decisions))
        out.spans = spans
    return out
