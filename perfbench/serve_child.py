"""The server process of serve-steady.

One :class:`~repro.service.server.AdmissionServer` (digest and journal
on) in front of the classed video/data/voice gateway with pre-inverted
per-class targets.  Protocol with the parent, one line each:

1. the child prints ``{"port": ...}`` once it is listening;
2. the parent writes ``go`` when the measured window starts and
   ``stop`` when it ends;
3. the child stops the server and prints one JSON report (digest,
   journal, counters, link snapshot, peak RSS and, with ``--trace 1``,
   the server-side ledger), then exits.

Run as ``python3 perfbench/serve_child.py --seed N --trace 0|1`` with
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import json
import sys

from harness import Tracer, format_ledger, ledger, peak_rss_mib
from layers import kernel_metrics, wrap_kernel

SHARD = "shard0"


def build_gateway(seed):
    """The classed gateway, identical for a given seed in any process."""
    from repro.classes import build_classed_gateway, default_class_policies

    gateway, _policies = build_classed_gateway(
        default_class_policies(), adjust=True, seed=seed
    )
    return gateway


def wrap_server(tracer, counts, peak_depth):
    """Spans around the server's dispatch, digest and wire codec."""
    import repro.service.protocol as protocol
    import repro.service.server as server_module
    from repro.runtime.metrics import Gauge
    from repro.service.server import AdmissionServer

    def request_bytes(result, args):
        # Responses are counted where they are encoded; in one process the
        # client decodes them here too.
        if "op" in result:
            counts["protocol.bytes"] += len(args[0]) + 4

    def response_bytes(result, args):
        counts["protocol.bytes"] += len(result)

    tracer.wrap(AdmissionServer, "_dispatch_batch", "server.dispatch")
    tracer.wrap(server_module, "digest_record", "server.digest")
    tracer.wrap(server_module, "encode_response", "protocol.encode",
                response_bytes)
    tracer.wrap(protocol, "decode_frame_body", "protocol.decode",
                request_bytes)

    depth_name = f"service.{SHARD}.queue_depth"
    original = Gauge.set

    def tracked_set(self, value):
        original(self, value)
        if self.name == depth_name and value > peak_depth[0]:
            peak_depth[0] = value

    tracer.patch(Gauge, "set", tracked_set)


def server_ledger(tracer, root, counts, peak_depth):
    """Per-layer figures measured inside the server during the window."""
    spans = tracer.spans
    for span in spans[root + 1:]:
        # Dispatcher and connection tasks started before the window opened,
        # outside any span; everything they do in the window is the root's.
        if span[3] < 0:
            span[3] = root
    entries = ledger(spans, root)
    decisions = (counts["gateway.decisions"]
                 + counts["gateway.admit_many.decisions"])
    calls = sum(1 for s in spans if s[0] in ("gateway.admit",
                                              "gateway.admit_many"))
    per = (lambda x: x / decisions) if decisions else (lambda x: 0.0)

    def total(name):
        return entries.get(name, {}).get("total_s", 0.0)

    layers = kernel_metrics(spans, entries, decisions, counts)
    layers.update({
        "protocol.encode.us": per(total("protocol.encode")) * 1e6,
        "protocol.decode.us": per(total("protocol.decode")) * 1e6,
        "protocol.bytes_per_decision": per(counts["protocol.bytes"]),
        "server.coalesce_ratio": decisions / calls if calls else 0.0,
        "server.queue_depth.max": peak_depth[0],
        "server.digest.us": per(total("server.digest")) * 1e6,
        "ledger.root_share": entries.get("server", {}).get("share", 0.0),
        "ledger.share_sum": sum(e["share"] for e in entries.values()),
        "trace.spans": len(spans),
    })
    return layers, format_ledger(entries, decisions), decisions


async def serve(seed, trace):
    from repro.runtime.metrics import json_safe
    from repro.service.server import AdmissionServer

    tracer = Tracer()
    counts = collections.Counter()
    peak_depth = [0.0]
    if trace:
        wrap_kernel(tracer, counts)
        wrap_server(tracer, counts, peak_depth)
    server = AdmissionServer(
        build_gateway(seed), name=SHARD, collect_digest=True,
        keep_journal=True,
    )
    _host, port = await server.start("127.0.0.1", 0)
    print(json.dumps({"port": port}), flush=True)

    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    await reader.readline()  # "go": the window opens
    tracer.spans.clear()  # the warm-up is not measured
    counts.clear()
    peak_depth[0] = 0.0
    with tracer.span("server") as root:
        await reader.readline()  # "stop"
    tracer.restore()
    report = {}
    if trace:
        layers, lines, decisions = server_ledger(
            tracer, root, counts, peak_depth
        )
        report.update(layers=layers, ledger=lines, decisions=decisions)
    snapshot = json_safe(server.gateway.snapshot())
    await server.stop()
    counters = snapshot["counters"]
    report.update(
        digest=server.digest(),
        journal=server.journal,
        errors=counters.get(f"service.{SHARD}.errors", 0),
        shed=counters.get(f"service.{SHARD}.shed", 0),
        timeouts=counters.get(f"service.{SHARD}.timeouts", 0),
        links=snapshot["links"],
        peak_rss_mib=peak_rss_mib(),
    )
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    asyncio.run(serve(args.seed, bool(args.trace)))


if __name__ == "__main__":
    main()
