"""Span wrappers around the decision kernel's layers, and the per-layer
figures computed from the spans they leave.

The wrappers go on the classes (not on instances) and must be installed
before a gateway is built: links keep bound methods of their feed and
estimator from construction time.
"""

from __future__ import annotations

from harness import durations

def wrap_kernel(tracer, counts):
    """Wrap the gateway, placement, link, controller, estimator and feed.

    ``counts`` (a :class:`collections.Counter`) receives the number of
    decisions made and flows departed through the batch calls.
    """
    from repro.classes.feed import ClassedSourceFeed
    from repro.core.controllers import CertaintyEquivalentController
    from repro.core.estimators import ClassAwareEstimator, Estimator
    from repro.runtime.feed import MeasurementFeed
    from repro.runtime.gateway import AdmissionGateway, LeastLoadedPlacement
    from repro.runtime.link import ManagedLink

    def count(key, of_args=None):
        def on_result(result, args):
            counts[key] += len(args[of_args]) if of_args is not None else len(result)
        return on_result

    def one(key):
        def on_result(result, args):
            counts[key] += 1
        return on_result

    def flow(args, kwargs):
        return repr(args[1])

    def burst(args, kwargs):
        return f"burst@{args[1][0]!r}" if args[1] else None

    tracer.wrap(AdmissionGateway, "admit", "gateway.admit",
                one("gateway.decisions"), request=flow)
    tracer.wrap(AdmissionGateway, "admit_many", "gateway.admit_many",
                count("gateway.admit_many.decisions"), request=burst)
    tracer.wrap(AdmissionGateway, "depart", "gateway.depart", one("gateway.departed"))
    tracer.wrap(AdmissionGateway, "depart_many", "gateway.depart_many",
                count("gateway.departed", of_args=1))
    tracer.wrap(AdmissionGateway, "tick", "gateway.tick")
    tracer.wrap(LeastLoadedPlacement, "choose", "placement")
    tracer.wrap(LeastLoadedPlacement, "choose_batch", "placement")
    tracer.wrap(ManagedLink, "admit", "link.admit")
    tracer.wrap(ManagedLink, "admit_many", "link.admit_many",
                count("link.admit_many.decisions"))
    tracer.wrap(ManagedLink, "tick", "link.tick")
    tracer.wrap(ManagedLink, "depart", "link.depart")
    tracer.wrap(ManagedLink, "depart_many", "link.depart_many")
    tracer.wrap(CertaintyEquivalentController, "target_count", "admission.eqn42")
    tracer.wrap(CertaintyEquivalentController, "target_count_batch",
                "admission.eqn42")
    tracer.wrap(Estimator, "estimate", "estimator.read")
    tracer.wrap(Estimator, "estimate_or_none", "estimator.read")
    tracer.wrap(ClassAwareEstimator, "class_estimate", "estimator.read")
    tracer.wrap(MeasurementFeed, "measure", "feed.poll")
    tracer.wrap(ClassedSourceFeed, "measure_classified", "feed.poll")


def outermost(spans, name):
    """Durations of the ``name`` spans not nested in another ``name`` span."""
    out = []
    for span in spans:
        if span[0] != name or span[2] is None:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out.append(span[2] - span[1])
    return out


def _mean_us(values):
    return sum(values) / len(values) * 1e6 if values else 0.0


def kernel_metrics(spans, entries, decisions, counts):
    """Per-layer figures of the decision kernel from one traced run.

    ``entries`` is the run's ledger (see :func:`harness.ledger`) and
    ``decisions`` the admits plus rejects it made.
    """
    per = (lambda x: x / decisions) if decisions else (lambda x: 0.0)
    admit_many = outermost(spans, "gateway.admit_many")
    link_many = outermost(spans, "link.admit_many")
    departs = outermost(spans, "gateway.depart") + outermost(
        spans, "gateway.depart_many")
    link_ticks = durations(spans, "link.tick")
    eqn42 = outermost(spans, "admission.eqn42")
    gateway_self = sum(
        entry["share"] for name, entry in entries.items()
        if name.startswith("gateway.")
    )
    return {
        "gateway.admit.us": _mean_us(outermost(spans, "gateway.admit")),
        "gateway.admit_many.us_per_decision": (
            sum(admit_many) / counts["gateway.admit_many.decisions"] * 1e6
            if counts["gateway.admit_many.decisions"] else 0.0
        ),
        "gateway.depart.us": (
            sum(departs) / counts["gateway.departed"] * 1e6
            if counts["gateway.departed"] else 0.0
        ),
        "gateway.tick.us": _mean_us(outermost(spans, "gateway.tick")),
        "gateway.self_share": gateway_self,
        "placement.us": per(sum(outermost(spans, "placement"))) * 1e6,
        "link.admit.us": _mean_us(outermost(spans, "link.admit")),
        "link.admit_many.us_per_decision": (
            sum(link_many) / counts["link.admit_many.decisions"] * 1e6
            if counts["link.admit_many.decisions"] else 0.0
        ),
        "link.tick.us": _mean_us(link_ticks),
        "link.ticks_per_decision": per(len(link_ticks)),
        "admission.eqn42.us": _mean_us(eqn42),
        "admission.eqn42.calls_per_decision": per(len(eqn42)),
        "estimator.read.us": _mean_us(outermost(spans, "estimator.read")),
        "feed.poll.us": _mean_us(outermost(spans, "feed.poll")),
    }

