"""serve-steady: an open-loop generator against one server process.

The server (``serve_child.py``) runs the classed video/data/voice gateway
behind the wire protocol, with its decision digest and journal on.  This
process is the generator: one thread, one event loop, one v2 connection.
Each arriving flow gets one ``admit`` with a class drawn from the
policies' mix; each admitted flow gets one ``depart`` when its holding
time ends.  Offered load is 0.9 of the nominal population.

One seeded schedule is replayed at each rate on a fresh server: a warm-up
of three holding times is sent back to back, then the window is paced by
scaling simulated time to wall time.  Every request is timed from the
moment it was due, so a stall of the generator or the server shows in
the latency of every request behind it; the notes give how late the
generator ran and how busy each process was.
"""

from __future__ import annotations

import asyncio
import gc
import heapq
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import check_serve
from harness import (
    Outcome,
    cpu_seconds,
    describe,
    latency_metrics,
    latency_summary,
    median,
    percentile,
)
from serve_child import build_gateway

HERE = Path(__file__).resolve().parent
#: The two paced rates, in arrivals per second; the traced run uses ``HI``.
LO, HI = 500.0, 1500.0
#: Share of ``--seconds`` given to the lo and the hi window.
LO_SHARE, HI_SHARE = 0.5, 0.4
HOLDING_TIME = 500.0
LOAD = 0.9
WARM_HOLDING_TIMES = 3.0
DRAIN_TIMEOUT_S = 30.0
#: A window's backlog grew when its last quarter of requests waited this
#: much longer, on average, than its first quarter.
BACKLOG_SLACK_S = 0.020


def arrival_rate():
    """Simulated arrivals per time unit at 0.9 of the nominal population."""
    from repro.classes import default_class_policies
    from repro.classes.factory import mixture_parameters

    n = mixture_parameters(default_class_policies(), capacity=400.0)["n"]
    return LOAD * n / HOLDING_TIME


def make_schedule(seed, n_window):
    """Arrival times, holding times, classes and the warm-up length."""
    from repro.classes import default_class_policies

    lam = arrival_rate()
    weights = default_class_policies().mix_weights()
    names = list(weights)
    n_warm = int(round(lam * WARM_HOLDING_TIMES * HOLDING_TIME))
    total = n_warm + n_window
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / lam, size=total))
    holds = rng.exponential(HOLDING_TIME, size=total)
    classes = rng.choice(len(names), size=total,
                         p=[weights[n] for n in names])
    return {
        "lam": lam,
        "n_warm": n_warm,
        "times": times.tolist(),
        "holds": holds.tolist(),
        "classes": [names[c] for c in classes],
    }


class Step:
    """One paced window: the generator's view of one server process."""

    def __init__(self, rate, n_window) -> None:
        self.rate = rate
        self.n_window = n_window
        self.latencies: list = []   # (due, seconds) of every window request
        self.rtts: list = []
        self.late: list = []
        self.decisions = 0
        self.failed = 0
        self.attempted = 0
        self.inflight = 0
        self.inflight_max = 0
        self.retried = 0
        self.window_s = 0.0
        self.gen_cpu_s = 0.0
        self.server_cpu_s = 0.0
        self.setup_s = 0.0
        self.report: dict = {}

    def backlog_grew(self):
        """Later requests waited longer than early ones, beyond the slack."""
        ordered = [lat for _due, lat in sorted(self.latencies)]
        quarter = len(ordered) // 4
        if quarter == 0:
            return True
        first = sum(ordered[:quarter]) / quarter
        last = sum(ordered[-quarter:]) / quarter
        return last > first + BACKLOG_SLACK_S

    def summary(self):
        return latency_summary([lat for _due, lat in self.latencies])


async def _drive(step, port, schedule, on_window):
    """Warm the server up, then send the paced window and await every reply."""
    from repro.errors import RemoteError
    from repro.service.client import AsyncAdmissionClient

    loop = asyncio.get_running_loop()
    client = AsyncAdmissionClient(
        "127.0.0.1", port, timeout=DRAIN_TIMEOUT_S, retries=0,
        max_inflight=1 << 20,
    )
    times, holds, classes = (schedule["times"], schedule["holds"],
                             schedule["classes"])
    n_warm = schedule["n_warm"]
    departures: list = []  # heap of (sim_t, flow)
    await client.connect()
    await client.ping()  # negotiates the binary v2 encoding

    # Warm-up: back to back, in simulated-time order, not measured.
    for i in range(n_warm):
        while departures and departures[0][0] <= times[i]:
            t, flow = heapq.heappop(departures)
            await client.depart(flow, t)
        decision = await client.admit(f"f{i}", times[i], classes[i])
        if decision.admitted:
            heapq.heappush(departures, (times[i] + holds[i], f"f{i}"))

    times = times[:n_warm + step.n_window]
    sim0 = times[n_warm - 1] if n_warm else 0.0
    sim_end = times[-1]
    scale = schedule["lam"] / step.rate  # wall seconds per simulated unit
    # Departures due after the window closes are never sent.
    departures = [d for d in departures if d[0] <= sim_end]
    heapq.heapify(departures)
    tasks: set = set()

    async def request(kind, flow, t, cls, hold, due):
        step.inflight += 1
        step.inflight_max = max(step.inflight_max, step.inflight)
        sent = loop.time()
        try:
            if kind == "admit":
                decision = await client.admit(flow, t, cls)
                step.decisions += 1
                if decision.admitted and t + hold <= sim_end:
                    heapq.heappush(departures, (t + hold, flow))
            else:
                await client.depart(flow, t)
            done = loop.time()
            step.latencies.append((due, done - due))
            step.rtts.append(done - sent)
        except (RemoteError, OSError, asyncio.TimeoutError):
            # A failed request misses any latency limit.
            step.failed += 1
            step.latencies.append((due, float("inf")))
        finally:
            step.inflight -= 1

    # The generator is not under test: keep the collector's pauses out of
    # the window (everything allocated so far is frozen out of its scans).
    gc.collect()
    gc.freeze()
    gc.disable()
    on_window()
    go = loop.time() + 0.005
    cpu0 = time.process_time()
    next_arrival = n_warm
    while True:
        t_arr = times[next_arrival] if next_arrival < len(times) else math.inf
        t_dep = departures[0][0] if departures else math.inf
        t = min(t_arr, t_dep)
        if t == math.inf:
            if not tasks:
                break
            # Only replies are outstanding; an admit among them may still
            # schedule a departure inside the window.
            await asyncio.wait(set(tasks), return_when=asyncio.FIRST_COMPLETED,
                               timeout=DRAIN_TIMEOUT_S)
            continue
        due = go + (t - sim0) * scale
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
            continue  # a departure may have been scheduled meanwhile
        step.late.append(-delay)
        step.attempted += 1
        if t_arr <= t_dep:
            i = next_arrival
            next_arrival += 1
            coro = request("admit", f"f{i}", t_arr, classes[i], holds[i], due)
        else:
            _t, flow = heapq.heappop(departures)
            coro = request("depart", flow, t_dep, None, 0.0, due)
        task = loop.create_task(coro)
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    step.window_s = loop.time() - go
    step.gen_cpu_s = time.process_time() - cpu0
    gc.enable()
    gc.unfreeze()
    step.retried = client.retried
    await client.close()


def run_step(step, seed, schedule, trace=False):
    """Spawn a server, drive one step, stop it, collect its report."""
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "serve_child.py"), "--seed", str(seed),
         "--trace", str(int(trace))],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        line = child.stdout.readline()
        if not line:
            raise RuntimeError("server process exited before listening")
        port = json.loads(line)["port"]
        step.setup_s = time.perf_counter() - t0
        server_cpu = []

        def on_window():
            child.stdin.write("go\n")
            child.stdin.flush()
            server_cpu.append(cpu_seconds(child.pid))

        asyncio.run(_drive(step, port, schedule, on_window))
        step.server_cpu_s = cpu_seconds(child.pid) - server_cpu[0]
        child.stdin.write("stop\n")
        child.stdin.flush()
        line = child.stdout.readline()
        if not line:
            raise RuntimeError("server process exited without its report")
        step.report = json.loads(line)
        child.wait(timeout=DRAIN_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    return step


def _check_step(step, seed):
    report = step.report
    errors = report["errors"] + step.failed
    return check_serve(report["digest"], report["journal"],
                       lambda: build_gateway(seed), errors)


def _link_mean(report, key):
    links = report["links"].values()
    return sum(link[key] for link in links) / len(links)


def _step_note(step):
    late = (f"{percentile(sorted(step.late), 0.99) * 1e3:.3f} ms"
            if step.late else "n/a")
    return (f"serve-steady: {step.rate:g}/s: {step.attempted} requests, "
            f"{step.decisions} decisions in {step.window_s:.3f}s; latency "
            f"{describe(step.summary())}; generator late p99 {late}; "
            f"cpu busy: generator {step.gen_cpu_s / step.window_s:.2f}, "
            f"server {step.server_cpu_s / step.window_s:.2f}; "
            f"backlog {'grew' if step.backlog_grew() else 'flat'}; "
            f"set-up {step.setup_s:.3f}s")


def run(seed, seconds, trace):
    out = Outcome()
    n_lo = max(1, int(seconds * LO_SHARE * LO))
    n_hi = max(1, int(seconds * HI_SHARE * HI))
    schedule = make_schedule(seed, max(n_lo, n_hi))
    if trace:
        # The hi window untraced, then traced: the ledger comes from the
        # traced server, the overhead from the pair.
        steps = [run_step(Step(HI, n_hi), seed, schedule),
                 run_step(Step(HI, n_hi), seed, schedule, True)]
    else:
        steps = [run_step(Step(LO, n_lo), seed, schedule),
                 run_step(Step(HI, n_hi), seed, schedule),
                 run_step(Step(HI, n_hi), seed, schedule)]

    for index, step in enumerate(steps):
        out.notes.append(_step_note(step))
        out.check(f"served-digest-equals-journal-replay@{index}",
                  _check_step(step, seed))
    out.attempted = sum(s.attempted for s in steps)
    out.failed = sum(s.failed for s in steps)

    if trace:
        plain, traced = steps
        layers = dict(traced.report["layers"])
        out.notes.extend(traced.report["ledger"])
        per_plain = plain.server_cpu_s / max(plain.decisions, 1)
        per_traced = traced.server_cpu_s / max(traced.decisions, 1)
        summary = plain.summary()
        layers.update({
            "client.rtt_ms.p50": percentile(sorted(plain.rtts), 0.5) * 1e3,
            "client.inflight.max": plain.inflight_max,
            "client.retried": plain.retried,
            "server.shed": plain.report["shed"],
            "server.cpu_busy": plain.server_cpu_s / plain.window_s,
            "gen.lat_p50_ms": summary["p50_ms"] or 0.0,
            "gen.lat_p99_ms": summary["p99_ms"] or 0.0,
            "gen.late_p99_ms": percentile(sorted(plain.late), 0.99) * 1e3,
            "gen.cpu_busy": plain.gen_cpu_s / plain.window_s,
            "overflow_frac": _link_mean(plain.report, "overflow_fraction"),
            "failed_frac": out.failed / max(out.attempted, 1),
            "trace.overhead_share": per_traced / per_plain - 1.0,
        })
        out.layers = layers
        return out

    lo_step, *hi_steps = steps
    hi = latency_summary([lat for s in hi_steps for _due, lat in s.latencies])
    out.notes.append(f"serve-steady: both hi windows together: {describe(hi)}")
    out.end_to_end = {
        # Every step spawns its own server process.
        "setup_s": median([s.setup_s for s in steps]),
        "decisions_per_s": (sum(s.decisions for s in steps)
                            / sum(s.window_s for s in steps)),
        **latency_metrics(out, lo_step.summary()),
        **latency_metrics(out, hi, ".hi"),
        "utilization": _link_mean(lo_step.report, "mean_utilization"),
        # One server process runs at a time; the largest is the peak.
        "peak_rss_mb": max(s.report["peak_rss_mib"] for s in steps),
    }
    return out
