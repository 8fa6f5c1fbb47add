"""soak-day: the compressed day of ``repro soak`` end to end.

:func:`~repro.scenario.soak.run_soak` on one shard with at most one
autoscaled extra (a leader and a follower each), so the supervisor keeps
two shard connections or fewer.  It is the only workload that runs the
``scenario`` layer: autoscale spawning and migration, p_ce re-inversion
and ``retarget``, and phase snapshots, under a diurnal ramp, a flash
crowd and an overload plateau.

The holding time is 6 instead of the soak's default 12: with one shard,
the default's wind-down does not drain the ring below the autoscaler's
low mark before the day ends, so no scale-down would happen and the
soak's own gates would fail.

Calls into the cluster are timed by wrappers the benchmark puts on the
supervisor's ``admit``/``depart``; ``.hi`` latencies are those made
during the overload phase.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time

from checks import check_soak
from cluster_steady import flow_of
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
    percentile,
)

#: Each day starts its own cluster, so the days' set-ups give the median.
MIN_DAYS = 3


def make_config(seed):
    from repro.scenario.soak import SoakConfig

    return SoakConfig(seed=seed, shards=1, max_extra_shards=1,
                      holding_time=6.0)


def overload_window(config):
    from repro.scenario.soak import day_in_the_life

    _profile, phases = day_in_the_life(config.day)
    phase = next(p for p in phases if p.name == "overload")
    return phase.start, phase.end


def shard_pids():
    return {
        child.pid: child.name.rsplit("-", 1)[-1]
        for child in multiprocessing.active_children()
        if child.name.startswith("repro-shard-")
    }


class Probe:
    """Wrappers on the supervisor that every soak-day run needs.

    Times cluster start-up and every admit/depart (named by whether the
    call falls in the overload phase), keeps the latest snapshot, and
    samples peak RSS and CPU of the shard processes before any of them
    is stopped.
    """

    def __init__(self, tracer, window) -> None:
        self.tracer = tracer
        self.rss = PeakRss()
        self.cpu: dict = {}
        self.roles: dict = {}
        self.last_snapshot = None
        lo, hi = window

        def call_name(kind):
            def name(args, kwargs):
                t = args[2] if len(args) > 2 else kwargs.get("t")
                hot = t is not None and lo <= t < hi
                return f"cluster.{kind}{'.hi' if hot else ''}"
            return name

        from repro.service.replication import ProcessCluster

        def keep(result, args):
            self.last_snapshot = result

        tracer.wrap(ProcessCluster, "start", "cluster.start")
        tracer.wrap(ProcessCluster, "admit", call_name("admit"),
                    request=flow_of)
        tracer.wrap(ProcessCluster, "depart", call_name("depart"),
                    request=flow_of)
        tracer.wrap(ProcessCluster, "snapshot", "scenario.snapshot", keep)
        self._patch(ProcessCluster, "remove_shard")
        self._patch(ProcessCluster, "stop")

    def sample(self) -> None:
        self.rss.sample("self")
        for pid, role in shard_pids().items():
            self.rss.sample(pid)
            self.roles[pid] = role
            try:
                self.cpu[pid] = cpu_seconds(pid)
            except FileNotFoundError:
                pass

    def _patch(self, owner, attr) -> None:
        original = getattr(owner, attr)
        probe = self

        async def sampled(*args, **kwargs):
            probe.sample()
            return await original(*args, **kwargs)

        self.tracer.patch(owner, attr, sampled)


def trace_scenario(tracer):
    """Spans around the scenario layer and the supervisor's shard calls."""
    from repro.scenario.autoscale import Autoscaler
    from repro.scenario.reinvert import Reinverter
    from repro.service.client import AsyncAdmissionClient
    from repro.service.replication import ProcessCluster

    tracer.wrap(Autoscaler, "observe", "scenario.autoscale")
    tracer.wrap(Reinverter, "observe", "scenario.reinvert")
    tracer.wrap(ProcessCluster, "add_shard", "scenario.scale_up")
    tracer.wrap(ProcessCluster, "retarget", "cluster.retarget")
    tracer.wrap(AsyncAdmissionClient, "call",
                lambda args, kwargs: f"client.call:{args[1]}")


def one_day(seed, tracer, traced):
    """Run one soak day; returns the facts the metrics need."""
    from repro.scenario.gates import evaluate_gates
    from repro.scenario.soak import run_soak

    config = make_config(seed)
    probe = Probe(tracer, overload_window(config))
    if traced:
        trace_scenario(tracer)
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        with tracer.span("soak") as root:
            result = asyncio.run(run_soak(config))
    finally:
        tracer.restore()
    wall = time.perf_counter() - t0
    failures = evaluate_gates(
        phase_reports=result.phase_reports, events=result.events,
        reconcile=result.reconcile, report=result.report,
    )
    return {
        "result": result,
        "root": root,
        "wall": wall,
        "supervisor_cpu": cpu_seconds() - cpu0,
        "probe": probe,
        "problem": check_soak(failures, result.reconcile, result.scale_ups,
                              result.scale_downs, result.retargets),
    }


def run(seed, seconds, trace):
    out = Outcome()
    days = []
    tracer = Tracer()
    if trace:
        days.append(one_day(seed, tracer, traced=False))
        days.append(one_day(seed, tracer, traced=True))
        measured = [days[0]]
    else:
        start = time.perf_counter()
        while len(days) < MIN_DAYS or time.perf_counter() - start < seconds:
            days.append(one_day(seed, tracer, traced=False))
        measured = days
    setups = durations(tracer.spans, "cluster.start")

    for index, day in enumerate(days):
        out.check(f"soak-gates-day{index}", day["problem"])
        report = day["result"].report
        out.attempted += report.requests
        out.failed += report.errors + report.shed
        out.notes.append(
            f"soak-day: day {index}: {report.arrivals} arrivals, "
            f"{report.admitted + report.rejected} decisions in "
            f"{report.wall_seconds:.2f}s loadgen wall ({day['wall']:.2f}s "
            f"total), scale-ups {day['result'].scale_ups}, scale-downs "
            f"{day['result'].scale_downs}, retargets {day['result'].retargets}"
        )
    out.notes.append("soak-day: set-ups " + ", ".join(f"{s:.2f}s" for s in setups))
    if out.failed:
        out.check("soak-calls", f"{out.failed} calls failed")

    spans = tracer.spans
    roots = {d["root"] for d in measured}

    def calls(hot):
        names = ("cluster.admit.hi", "cluster.depart.hi") if hot else (
            "cluster.admit", "cluster.depart", "cluster.admit.hi",
            "cluster.depart.hi")
        return [s[2] - s[1] for i, s in enumerate(spans)
                if s[0] in names and _root_of(spans, i) in roots]

    latency, hot = latency_summary(calls(False)), latency_summary(calls(True))
    out.notes.append(f"soak-day: call latency {describe(latency)}; during "
                     f"the overload phase {describe(hot)}")
    reports = [d["result"].report for d in measured]
    throughput = (sum(r.admitted + r.rejected for r in reports)
                  / sum(r.wall_seconds for r in reports))
    last = measured[-1]["probe"].last_snapshot
    links = [link for shard in last["shards"].values()
             for link in shard.get("links", {}).values()]
    if trace:
        return _traced(out, days, spans, links)
    out.end_to_end = {
        "setup_s": median(setups),
        "decisions_per_s": throughput,
        **latency_metrics(out, latency),
        **latency_metrics(out, hot, ".hi"),
        "utilization": sum(l["mean_utilization"] for l in links) / len(links),
        "peak_rss_mb": max(d["probe"].rss.total for d in measured),
    }
    return out


def _traced(out, days, spans, links):
    plain, traced = days
    root = traced["root"]
    entries = ledger(spans, root)
    report = traced["result"].report
    decisions = report.admitted + report.rejected
    wall = spans[root][2] - spans[root][1]
    in_tree = [i for i in range(root, len(spans)) if _root_of(spans, i) == root]
    tree = set(in_tree)

    def total(prefixes):
        picked = [spans[i] for i in in_tree if spans[i][0].startswith(prefixes)]
        return sum(s[2] - s[1] for s in picked), len(picked)

    cluster_calls = ("cluster.admit", "cluster.depart")
    call_s, call_n = total(cluster_calls)
    self_s = sum(e["self_s"] for n, e in entries.items()
                 if n.startswith(cluster_calls))
    rtts = sorted(s[2] - s[1] for i, s in enumerate(spans)
                  if i in tree
                  and s[0] in ("client.call:admit", "client.call:depart"))
    shard_calls = total(("client.call:",))[1]
    migrate_s, migrate_n = total(("client.call:migrate",))
    probe = traced["probe"]
    busy = {
        role: [cpu / traced["wall"] for pid, cpu in probe.cpu.items()
               if probe.roles[pid] == role]
        for role in ("leader", "follower")
    }
    layers = {
        "cluster.self.us": self_s / call_n * 1e6 if call_n else 0.0,
        "cluster.shard_rtt_ms.p50": percentile(rtts, 0.5) * 1e3 if rtts else 0.0,
        "cluster.calls_per_decision": shard_calls / decisions,
        "client.rtt_ms.p50": percentile(rtts, 0.5) * 1e3 if rtts else 0.0,
        "client.retried": report.retried,
        "supervisor.cpu_busy": traced["supervisor_cpu"] / traced["wall"],
        "leader.cpu_busy": sum(busy["leader"]) / max(len(busy["leader"]), 1),
        "follower.cpu_busy": sum(busy["follower"]) / max(len(busy["follower"]), 1),
        "loadgen.gap_share": 1.0 - call_s / wall,
        "scenario.migrate.s": migrate_s,
        "scenario.migrate.count": migrate_n,
        "ledger.root_share": entries["soak"]["share"],
        "ledger.share_sum": sum(e["share"] for e in entries.values()),
        "trace.overhead_share": (
            plain["result"].report.decisions_per_sec
            / report.decisions_per_sec - 1.0
        ),
        "trace.spans": len(in_tree),
    }
    for name in ("autoscale", "reinvert", "snapshot"):
        spent, count = total((f"scenario.{name}",))
        layers[f"scenario.{name}.s"] = spent
        layers[f"scenario.{name}.count"] = count
    overflow = [l["overflow_fraction"] for l in links]
    layers["overflow_frac"] = sum(overflow) / len(overflow)
    out.layers = layers
    out.notes.extend(format_ledger(entries, decisions))
    out.spans = spans
    return out


def _root_of(spans, index):
    while spans[index][3] >= 0:
        index = spans[index][3]
    return index
