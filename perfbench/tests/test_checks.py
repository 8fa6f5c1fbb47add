"""Each output check passes on honest outputs and catches a corrupted one.

The corruption is injected here, by wrapping the gateway the workload
drives; the program itself is untouched.  Seeds are tested alongside:
the same seed must give the same inputs, different seeds different ones.
"""

import asyncio
import dataclasses

import pytest

import cluster_steady
import replay_burst
import serve_steady
import soak_day
from checks import check_cluster, check_replay, check_serve, check_soak

SMALL_EVENTS = 3000


class FlipOne:
    """Forwards to a gateway but turns its first admit into a reject.

    Admit to reject, not the reverse: the workload then never departs the
    flow, so the run completes and only the check can notice.
    """

    def __init__(self, gateway) -> None:
        self._gateway = gateway
        self.flipped = None

    def __getattr__(self, name):
        return getattr(self._gateway, name)

    def admit_many(self, flows, now, flow_class=None):
        decisions = self._gateway.admit_many(flows, now, flow_class)
        out = []
        for flow, decision in zip(flows, decisions):
            if self.flipped is None and decision.admitted:
                self.flipped = flow
                decision = dataclasses.replace(decision, admitted=False)
            out.append(decision)
        return out


@pytest.fixture
def small_replay(monkeypatch):
    monkeypatch.setattr(replay_burst, "EVENTS", SMALL_EVENTS)


def replay_digests(seed, corrupt=False):
    from repro.runtime import replay

    gateway = replay_burst.build_gateway(seed)
    if corrupt:
        gateway = FlipOne(gateway)
    recorder = replay_burst.Recorder(gateway)
    report = replay(
        recorder, n_events=replay_burst.EVENTS,
        arrival_rate=replay_burst.ARRIVAL_RATE,
        holding_time=replay_burst.HOLDING_TIME,
        tick_period=replay_burst.TICK_PERIOD, seed=seed,
        batch_window=replay_burst.BATCH_WINDOW, collect_digest=True,
    )
    assert not corrupt or gateway.flipped is not None
    return report.decision_digest, recorder.log


class TestReplayCheck:
    def build(self, seed):
        return lambda placement: replay_burst.build_gateway(seed, placement)

    def test_honest_run_passes(self, small_replay):
        digest, log = replay_digests(3)
        assert check_replay([digest, digest], log, self.build(3)) is None

    def test_corrupted_decision_is_caught(self, small_replay):
        digest, log = replay_digests(3, corrupt=True)
        problem = check_replay([digest], log, self.build(3))
        assert problem is not None and "sequential twin" in problem

    def test_repetitions_must_agree(self, small_replay):
        digest, log = replay_digests(3)
        assert check_replay([digest, "0" * 64], log, self.build(3))

    def test_seed_sets_the_bursts(self, small_replay):
        a, log_a = replay_digests(1)
        b, log_b = replay_digests(1)
        c, log_c = replay_digests(2)
        assert log_a == log_b and a == b
        assert log_a != log_c and a != c


def serve(seed, corrupt=False):
    """Admit and depart a few classed flows through an in-process server."""
    from repro.service.protocol import make_request
    from repro.service.server import AdmissionServer

    gateway = serve_steady.build_gateway(seed)
    if corrupt:
        gateway = FlipOne(gateway)
    server = AdmissionServer(gateway, collect_digest=True, keep_journal=True)
    schedule = serve_steady.make_schedule(seed, 0)
    n = 300

    async def drive():
        await server.start_dispatcher()
        try:
            requests = [
                make_request("admit", i, flow=f"f{i}", t=schedule["times"][i],
                             flow_class=schedule["classes"][i])
                for i in range(n)
            ]
            # Submitted together, so the server coalesces them into runs.
            answers = await asyncio.gather(*(server.submit(r) for r in requests))
            assert all(a["ok"] for a in answers)
            admitted = [f"f{i}" for i, a in enumerate(answers)
                        if a["result"]["decision"]["admitted"]]
            t = schedule["times"][n]
            for k, flow in enumerate(admitted[:50]):
                answer = await server.submit(
                    make_request("depart", n + k, flow=flow, t=t))
                assert answer["ok"]
        finally:
            await server.stop()

    asyncio.run(drive())
    assert not corrupt or gateway.flipped is not None
    return server


class TestServeCheck:
    def test_honest_server_passes(self):
        server = serve(5)
        assert check_serve(server.digest(), server.journal,
                           lambda: serve_steady.build_gateway(5), 0) is None

    def test_corrupted_decision_is_caught(self):
        server = serve(5, corrupt=True)
        problem = check_serve(server.digest(), server.journal,
                              lambda: serve_steady.build_gateway(5), 0)
        assert problem is not None and "journal replay" in problem

    def test_protocol_errors_fail_the_run(self):
        server = serve(5)
        assert check_serve(server.digest(), server.journal,
                           lambda: serve_steady.build_gateway(5), 2)

    def test_seed_sets_the_schedule(self):
        a = serve_steady.make_schedule(1, 100)
        assert a == serve_steady.make_schedule(1, 100)
        b = serve_steady.make_schedule(2, 100)
        assert a["times"] != b["times"] and a["holds"] != b["holds"]


class TestClusterCheck:
    ok = {"ok": True, "lost": [], "double_admitted": []}

    def test_matching_replicas_pass(self):
        assert check_cluster(self.ok, [("s0", "ab", "ab"), ("s1", "cd", "cd")]) is None

    def test_follower_with_a_different_decision_is_caught(self):
        assert check_cluster(self.ok, [("s0", "ab", "ab"), ("s1", "cd", "ce")])

    def test_lost_flow_is_caught(self):
        lost = {"ok": False, "lost": ["c7"], "double_admitted": []}
        assert "c7" in check_cluster(lost, [("s0", "ab", "ab")])

    def test_seed_sets_the_schedule(self):
        a = cluster_steady.chunk_arrivals(1, 0, 0.0)
        assert a == cluster_steady.chunk_arrivals(1, 0, 0.0)
        assert a != cluster_steady.chunk_arrivals(2, 0, 0.0)
        assert a != cluster_steady.chunk_arrivals(1, 1, 0.0)


class TestSoakCheck:
    def test_clean_day_passes(self):
        assert check_soak([], {"ok": True}, 1, 1, 1) is None

    def test_failed_gate_is_caught(self):
        problem = check_soak(["phase 'overload': overflow 0.2 exceeds bound"],
                             {"ok": True}, 1, 1, 1)
        assert "overload" in problem

    def test_missing_scale_down_is_caught(self):
        assert check_soak([], {"ok": True}, 1, 0, 1)

    def test_unreconciled_day_is_caught(self):
        assert check_soak([], {"ok": False}, 1, 1, 1)

    def test_seed_reaches_the_scenario(self):
        assert soak_day.make_config(4).seed == 4
        assert soak_day.make_config(4) != soak_day.make_config(5)
