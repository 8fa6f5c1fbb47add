"""Output checks.  Each returns ``None`` when the outputs are right, else
the reason they are not; a failed check voids its run's numbers.

The checks take plain values (digests, journals, logs, reports) so the
self-tests can hand them a deliberately corrupted decision.
"""

from __future__ import annotations

import hashlib


def pinned_placement(plan):
    """A placement policy that puts each flow on the link ``plan`` names.

    The batched path places a burst by water-filling predicted loads,
    which sequential calls cannot reproduce (the gateway documents
    least-loaded batching as a heuristic).  Pinning every flow to the link
    the batch chose isolates what must be identical: each link's decision
    for the flows it was given.
    """
    from repro.runtime.gateway import PlacementPolicy

    class Pinned(PlacementPolicy):
        def choose(self, links, flow_id):
            name = plan[flow_id]
            for link in links:
                if link.name == name:
                    return link
            raise KeyError(f"flow {flow_id!r} pinned to unknown link {name!r}")

    return Pinned()


def sequential_twin_digest(log, build_gateway):
    """Digest of a batched run's bursts re-applied one ``admit`` at a time.

    ``log`` holds the batched run's gateway calls in order:
    ``("tick", t, None, None)``, ``("admit_many", t, flows, links)`` and
    ``("depart_many", t, flows, None)``, ``links`` naming the link each
    decision came from.  ``build_gateway(placement)`` builds a fresh twin.
    """
    from repro.service.server import digest_record

    plan: dict = {}
    twin = build_gateway(pinned_placement(plan))
    sha = hashlib.sha256()
    for op, t, flows, links in log:
        if op == "tick":
            twin.tick(t)
        elif op == "admit_many":
            plan.clear()
            plan.update(zip(flows, links))
            for flow in flows:
                sha.update(digest_record(flow, twin.admit(flow, t)))
        elif op == "depart_many":
            twin.depart_many(flows, t)
        else:
            raise ValueError(f"unknown logged op {op!r}")
    return sha.hexdigest()


def check_replay(rep_digests, log, build_gateway):
    """Every repetition decided alike, and batched equals sequential."""
    if not rep_digests or any(d is None for d in rep_digests):
        return "replay produced no decision digest"
    if len(set(rep_digests)) != 1:
        return (f"repetitions of one seed decided differently: "
                f"{len(set(rep_digests))} distinct digests")
    twin = sequential_twin_digest(log, build_gateway)
    if twin != rep_digests[0]:
        return (f"batched digest {rep_digests[0][:16]} != sequential twin "
                f"digest {twin[:16]}")
    return None


def check_serve(served_digest, journal, build_gateway, protocol_errors):
    """The served digest equals a sequential replay of the journal."""
    from repro.service.server import replay_journal

    if protocol_errors:
        return f"{protocol_errors} protocol errors"
    if served_digest is None:
        return "server reported no decision digest"
    replayed = replay_journal(build_gateway(), journal)
    if replayed != served_digest:
        return (f"served digest {served_digest[:16]} != journal replay "
                f"{replayed[:16]}")
    return None


def check_cluster(reconcile, pairs):
    """Cluster reconciliation holds and every follower matches its leader.

    ``pairs`` is ``[(shard, leader_digest, follower_digest), ...]`` taken
    after the final journal sync.
    """
    if not reconcile.get("ok"):
        return (f"reconcile failed: lost={reconcile.get('lost')!r} "
                f"double={reconcile.get('double_admitted')!r}")
    if not pairs:
        return "no leader/follower pairs to compare"
    for shard, leader, follower in pairs:
        if leader is None or leader != follower:
            return (f"shard {shard}: follower digest {str(follower)[:16]} != "
                    f"leader digest {str(leader)[:16]}")
    return None


def check_soak(gate_failures, reconcile, scale_ups, scale_downs, retargets):
    """The soak's own gates pass and the day scaled both ways and re-inverted."""
    if gate_failures:
        return "; ".join(gate_failures)
    if not reconcile.get("ok"):
        return "end-of-day reconcile failed"
    if scale_ups < 1 or scale_downs < 1 or retargets < 1:
        return (f"expected a scale-up, a scale-down and a retarget; saw "
                f"{scale_ups}, {scale_downs}, {retargets}")
    return None
