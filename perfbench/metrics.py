"""The metrics every run prints: names, units and what they mean.

``BENCHMARK.json`` at the repository root lists the same names and units;
``tests/test_harness.py`` keeps the two in step.  A run without
``--trace`` prints every end-to-end metric; a traced run prints every
per-layer metric.  A per-layer metric whose layer is not on a workload's
path (or lives in a process the benchmark's wrappers cannot reach) reads
0 on that workload.
"""

END_TO_END = {
    # From start until the first request can be decided (median of the
    # set-ups made in the run).
    "setup_s": "s",
    # Decisions (admits plus rejects) over the wall time of the run.
    "decisions_per_s": "1/s",
    # Median latency per decision call at the workload's base load.  The
    # p90 and p99 of the same samples are printed beside every result:
    # on a shared 2-vCPU host, scheduler stalls of several milliseconds
    # hit 1-3% of calls, so those tails move with the host.
    "lat_p50_ms": "ms",
    # The same at the workload's highest load (soak-day's overload phase,
    # serve-steady's hi rate); workloads with one load point repeat their
    # whole-run figure.
    "lat_p50_ms.hi": "ms",
    # Mean carried load over capacity, from gateway snapshots.
    "utilization": "ratio",
    # Sum of peak RSS over the processes of the system under test.
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    # runtime.gateway
    "gateway.admit.us": "us",
    "gateway.admit_many.us_per_decision": "us",
    "gateway.depart.us": "us",
    "gateway.tick.us": "us",
    "gateway.self_share": "ratio",
    "placement.us": "us",
    # runtime.link and classes
    "link.admit.us": "us",
    "link.admit_many.us_per_decision": "us",
    "link.tick.us": "us",
    "link.ticks_per_decision": "count",
    # core.controllers / core.admission: the eqn-42 target evaluation
    "admission.eqn42.us": "us",
    "admission.eqn42.calls_per_decision": "count",
    # runtime.feed and core.estimators
    "estimator.read.us": "us",
    "feed.poll.us": "us",
    # service.protocol: frames decoded and encoded in the traced process
    # (the server; on serve-loop the client's decodes as well), and wire
    # bytes of requests and responses
    "protocol.encode.us": "us",
    "protocol.decode.us": "us",
    "protocol.bytes_per_decision": "bytes",
    # service.client
    "client.rtt_ms.p50": "ms",
    "client.inflight.max": "count",
    "client.retried": "count",
    # service.server
    "server.coalesce_ratio": "ratio",
    "server.queue_depth.max": "count",
    "server.shed": "count",
    "server.digest.us": "us",
    "server.cpu_busy": "ratio",
    # service.replication
    "cluster.self.us": "us",
    "cluster.shard_rtt_ms.p50": "ms",
    "cluster.calls_per_decision": "count",
    "supervisor.cpu_busy": "ratio",
    "leader.cpu_busy": "ratio",
    "follower.cpu_busy": "ratio",
    "replication.ship_lag_entries": "count",
    # service.loadgen
    "loadgen.gap_share": "ratio",
    # scenario
    "scenario.autoscale.s": "s",
    "scenario.autoscale.count": "count",
    "scenario.migrate.s": "s",
    "scenario.migrate.count": "count",
    "scenario.reinvert.s": "s",
    "scenario.reinvert.count": "count",
    "scenario.snapshot.s": "s",
    "scenario.snapshot.count": "count",
    # the benchmark's own open-loop generator at serve-steady's hi rate:
    # latency timed from each request's due time, and how late it ran
    "gen.lat_p50_ms": "ms",
    "gen.lat_p99_ms": "ms",
    "gen.late_p99_ms": "ms",
    "gen.cpu_busy": "ratio",
    # admission quality, the paper's p_f, and failures over attempts
    "overflow_frac": "ratio",
    "failed_frac": "ratio",
    # the ledger itself
    "ledger.root_share": "ratio",
    "ledger.share_sum": "ratio",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
    "host.calibration_ms": "ms",
}


def render(values, units):
    """``{name: {"value", "unit"}}`` for every name in ``units``."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {', '.join(missing)}")
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
