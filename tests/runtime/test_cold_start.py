"""Cold-start overshoot of a heavily overloaded link (a known defect).

An empty link's :class:`SourceFeed` reports an empty cross-section
(``n = 0``, mean 0).  :class:`ExponentialMemoryEstimator` seeds its
filtered mean from that first observation, so ``mu_hat`` starts at 0 and
climbs only as fast as the memory lets it.  Meanwhile eqn (42) with a
tiny ``mu_hat`` gives a target in the thousands, and a link under a flash
crowd admits far past ``c / mu`` before the estimate catches up.

The test drives the shape of the ``replay-burst`` benchmark link (n = 100
RCBR flows of capacity, p_q = 1e-2, feed period 2, holding time 500,
bursts of 16 arrivals every 2 time units: 40x the offered load) for 60
time units and asserts the occupancy never exceeds ``c / mu``.  It fails
today (peak ~205 flows); a fix changes the committed golden decision
digests, so it belongs with its own change.
"""

from __future__ import annotations

import pytest

from repro.runtime import ManagedLink, MetricsRegistry, SourceFeed
from repro.traffic.rcbr import paper_rcbr_source

FLOWS = 100
BURST = 16
PERIOD = 2.0


@pytest.mark.xfail(
    strict=True,
    reason="the estimator seeds mu_hat = 0 from an empty link's cross-section, "
    "so the cold target overshoots c/mu",
)
def test_overloaded_cold_link_stays_within_capacity_in_means():
    source = paper_rcbr_source()
    link = ManagedLink.build(
        "link0",
        capacity=FLOWS * source.mean,
        holding_time=500.0,
        feed=SourceFeed(source, period=PERIOD, seed=0),
        p_q=1e-2,
        snr=0.3,
        correlation_time=1.0,
        registry=MetricsRegistry(),
    )
    peak = 0
    for step in range(31):
        link.admit_many(BURST, step * PERIOD)
        peak = max(peak, link.n_flows)
    assert peak <= FLOWS
