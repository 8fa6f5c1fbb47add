"""A managed link: one MBAC control loop behind a request/response API.

:class:`ManagedLink` is the online counterpart of one simulated link.  It
owns a controller/estimator pair from :mod:`repro.core`, ingests periodic
measurements from a :class:`~repro.runtime.feed.MeasurementFeed` (via
``Estimator.advance`` + ``Estimator.observe``, exactly like the offline
engines), and answers ``admit()`` / ``depart()`` requests against the
eqn-(22) target count -- there is no discrete-event loop; callers own the
clock and drive the link with monotone timestamps.

Failure handling is first-class, through one coherent health model
(:mod:`repro.runtime.health`).  Every tick re-derives the link's
:class:`~repro.runtime.health.LinkHealth`:

* **HEALTHY** -- fresh, valid measurements: decisions use the plain
  certainty-equivalent target.
* **DEGRADED** -- the feed has gone *silent* past the stale horizon (by
  default the critical time-scale ``T_h_tilde = T_h / sqrt(n)``, beyond
  which departures can no longer be assumed to repair estimation error):
  decisions switch to the *conservative* adjusted-``p_ce`` target obtained
  by inverting the theory
  (:func:`repro.theory.inversion.adjusted_ce_alpha`), and switch back as
  soon as fresh measurements resume.
* **QUARANTINED** -- the feed is producing *bad data* (corrupt samples,
  estimator rejections) or has reported itself exhausted: the per-feed
  circuit breaker opens and the link **fails closed** -- it admits nothing
  new while continuing to serve and depart the flows it already carries.
  The breaker re-probes the feed on an exponential backoff (bounded by
  ``backoff_cap``) and the link returns to service on the first valid
  sample.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

from repro.core.controllers import (
    AdmissionController,
    CertaintyEquivalentController,
)
from repro.core.estimators import BandwidthEstimate, Estimator, make_estimator
from repro.core.memory import critical_time_scale
from repro.errors import (
    ConvergenceError,
    EstimatorError,
    ParameterError,
    RuntimeStateError,
)
from repro.runtime.feed import MeasurementFeed
from repro.runtime.health import (
    BREAKER_STATE_CODES,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    HEALTH_CODES,
    LinkHealth,
    section_problem,
)
from repro.runtime.metrics import BATCH_SIZE_BUCKETS, MetricsRegistry

__all__ = ["AdmissionDecision", "ManagedLink"]

logger = logging.getLogger(__name__)

#: Most conservative representable certainty-equivalent parameter (matches
#: the upper bracket of the theory inversion).
_ALPHA_FLOOR = 35.0


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one ``admit()`` request.

    Attributes
    ----------
    admitted : bool
        Whether the flow was accepted onto the link.
    link : str
        Name of the deciding link.
    reason : str
        ``"target"`` (normal criterion), ``"bootstrap"`` (first flow on an
        empty, healthy link whose measurement reports an empty system --
        a zero estimate would otherwise freeze admission forever),
        ``"conservative-target"`` (degraded-mode criterion),
        ``"no-measurement"`` (rejected: no usable estimate; a link whose
        feed has never emitted is maximally stale, hence degraded) or
        ``"quarantined"`` (rejected: the feed's circuit breaker is open
        and the link fails closed).
    target : float
        The real-valued admissible count the decision was tested against
        (NaN when no estimate was available).
    n_flows : int
        Link occupancy *after* the decision.
    degraded : bool
        Whether the link was in any non-healthy state (degraded or
        quarantined).
    health : str
        The deciding link's health state (``"healthy"``, ``"degraded"``,
        ``"quarantined"``).
    mu_hat : float
        Estimated per-flow mean the decision was made on (NaN when no
        usable estimate was available).
    sigma_hat : float
        Estimated per-flow standard deviation (NaN as above).
    """

    admitted: bool
    link: str
    reason: str
    target: float
    n_flows: int
    degraded: bool
    health: str = LinkHealth.HEALTHY.value
    mu_hat: float = math.nan
    sigma_hat: float = math.nan


class ManagedLink:
    """One link's online admission-control loop.

    Parameters
    ----------
    name : str
        Identifier used in metrics and logs.
    capacity : float
        Link capacity ``c`` (same units as flow rates).
    holding_time : float
        Mean flow holding time ``T_h`` (sets the degradation horizon).
    mean_rate : float
        Nominal per-flow mean bandwidth ``mu`` (sets ``n = c / mu``).
    feed : MeasurementFeed
        Measurement stream for this link.
    estimator : Estimator
        Measurement filter fed from the feed's cross-sections.
    controller : AdmissionController
        Primary (healthy-mode) admission policy.
    conservative_controller : AdmissionController
        Degraded-mode policy (typically the adjusted-``p_ce`` scheme).
    stale_horizon : float, optional
        Staleness beyond which the link degrades; defaults to
        ``T_h_tilde = T_h / sqrt(n)``.
    breaker : CircuitBreaker, optional
        Per-feed circuit breaker; a default one is built with a probe
        backoff starting at one feed period and capped at
        ``max(8 periods, stale horizon)``.
    registry : MetricsRegistry, optional
        Shared registry; a private one is created when omitted.
    tracer : DecisionTracer, optional
        Shared observability tracer; when attached, the link emits
        health and breaker transition events into it (the gateway emits
        the per-decision events, which carry the flow id).
    profiler : Profiler, optional
        Hot-path timers (see :class:`repro.runtime.observability.Profiler`);
        when omitted the decision paths pay one ``is not None`` check.

    Prefer :meth:`build` unless wiring custom components.
    """

    def __init__(
        self,
        name: str,
        *,
        capacity: float,
        holding_time: float,
        mean_rate: float,
        feed: MeasurementFeed,
        estimator: Estimator,
        controller: AdmissionController,
        conservative_controller: AdmissionController,
        stale_horizon: float | None = None,
        breaker: CircuitBreaker | None = None,
        registry: MetricsRegistry | None = None,
        tracer=None,
        profiler=None,
        class_bank=None,
    ) -> None:
        if capacity <= 0.0 or holding_time <= 0.0 or mean_rate <= 0.0:
            raise ParameterError(
                "capacity, holding_time and mean_rate must be positive"
            )
        self.name = str(name)
        self.capacity = float(capacity)
        self.holding_time = float(holding_time)
        self.mean_rate = float(mean_rate)
        self.system_size = self.capacity / self.mean_rate
        self.holding_time_scaled = critical_time_scale(
            self.holding_time, self.system_size
        )
        if stale_horizon is None:
            stale_horizon = self.holding_time_scaled
        if stale_horizon <= 0.0:
            raise ParameterError("stale_horizon must be positive")
        self.stale_horizon = float(stale_horizon)
        self.feed = feed
        self.estimator = estimator
        self.controller = controller
        self.conservative_controller = conservative_controller
        if breaker is None:
            breaker = CircuitBreaker(
                BreakerConfig(
                    backoff_initial=feed.period,
                    backoff_cap=max(8.0 * feed.period, self.stale_horizon),
                )
            )
        self.breaker = breaker
        self.tracer = tracer
        self.profiler = profiler

        self._n = 0
        self._clock = 0.0
        self._health = LinkHealth.HEALTHY
        self._exhaustion_logged = False
        self._last_aggregate: float | None = None
        self.observed_time = 0.0
        self.overload_time = 0.0
        self.utilization_integral = 0.0

        # Multi-class state (all None/empty on a classless link, which
        # keeps every classless code path byte-for-byte unchanged).
        self.class_bank = class_bank
        self._class_n: dict[int, int] = {}
        self._last_class_aggregate: dict[int, float] | None = None
        self.class_observed_time: dict[int, float] = {}
        self.class_overload_time: dict[int, float] = {}
        if class_bank is not None:
            for class_id in class_bank.class_ids():
                self._class_n[class_id] = 0
                self.class_observed_time[class_id] = 0.0
                self.class_overload_time[class_id] = 0.0
            self._measure_classified = getattr(feed, "measure_classified", None)
            self._observe_classified = getattr(
                estimator, "observe_classified", None
            )
            self._class_estimate = getattr(estimator, "class_estimate", None)
        else:
            self._measure_classified = None
            self._observe_classified = None
            self._class_estimate = None

        self.registry = registry if registry is not None else MetricsRegistry()
        prefix = f"link.{self.name}"
        metric = self.registry
        self._m_admits = metric.counter(f"{prefix}.admits", "flows admitted")
        self._m_rejects = metric.counter(f"{prefix}.rejects", "flows rejected")
        self._m_departs = metric.counter(f"{prefix}.departures", "flows departed")
        self._m_installs = metric.counter(
            f"{prefix}.installs", "flows placed without a decision (migration)"
        )
        self._m_measurements = metric.counter(
            f"{prefix}.measurements", "fresh cross-sections ingested"
        )
        self._m_degradations = metric.counter(
            f"{prefix}.degradations", "healthy->non-healthy transitions"
        )
        self._m_quarantines = metric.counter(
            f"{prefix}.quarantines", "transitions into quarantine"
        )
        self._m_invalid = metric.counter(
            f"{prefix}.invalid_samples", "measurements rejected at ingest"
        )
        self._m_breaker_transitions = metric.counter(
            f"{prefix}.breaker_transitions", "feed breaker state changes"
        )
        self._m_breaker_opens = metric.counter(
            f"{prefix}.breaker_opens", "feed breaker open events"
        )
        self._m_breaker_closes = metric.counter(
            f"{prefix}.breaker_closes", "feed breaker close (recovery) events"
        )
        self._m_breaker_probes = metric.counter(
            f"{prefix}.breaker_probes", "half-open probe polls"
        )
        self._m_n = metric.gauge(f"{prefix}.n_flows", "current occupancy")
        self._m_mu = metric.gauge(f"{prefix}.mu_hat", "estimated per-flow mean")
        self._m_sigma = metric.gauge(f"{prefix}.sigma_hat", "estimated per-flow std")
        self._m_target = metric.gauge(f"{prefix}.target", "admissible flow count")
        self._m_util = metric.gauge(
            f"{prefix}.utilization", "measured aggregate / capacity"
        )
        self._m_overflow = metric.gauge(
            f"{prefix}.overflow_fraction", "time fraction with aggregate > capacity"
        )
        self._m_staleness = metric.gauge(
            f"{prefix}.staleness", "age of newest measurement"
        )
        self._m_health = metric.gauge(
            f"{prefix}.health_state",
            "0 healthy / 1 degraded / 2 quarantined",
        )
        self._m_breaker_state = metric.gauge(
            f"{prefix}.breaker_state", "0 closed / 1 half-open / 2 open"
        )
        self._m_latency = metric.histogram(
            f"{prefix}.decision_latency", "admit() wall-clock seconds"
        )
        self._m_batch_latency = metric.histogram(
            f"{prefix}.batch_latency", "admit_many() wall-clock seconds per burst"
        )
        self._m_batch_size = metric.histogram(
            f"{prefix}.batch_size",
            "requests per admit_many() burst",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self._m_class_n: dict[int, object] = {}
        self._m_class_overflow: dict[int, object] = {}
        if class_bank is not None:
            for class_id in class_bank.class_ids():
                cls = class_bank.name_of(class_id)
                gauge_n = metric.gauge(
                    f"{prefix}.class.{cls}.n_flows",
                    f"occupancy of class {cls}",
                )
                gauge_n.set(0)
                self._m_class_n[class_id] = gauge_n
                self._m_class_overflow[class_id] = metric.gauge(
                    f"{prefix}.class.{cls}.overflow_fraction",
                    f"time fraction class {cls} exceeds its capacity share",
                )
        self._m_n.set(0)
        self._m_health.set(HEALTH_CODES[self._health])
        self._m_breaker_state.set(BREAKER_STATE_CODES[self.breaker.state])
        self.breaker.add_listener(self._on_breaker_transition)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        name: str,
        *,
        capacity: float,
        holding_time: float,
        feed: MeasurementFeed,
        p_q: float,
        snr: float,
        correlation_time: float,
        mean_rate: float | None = None,
        memory: float | None = None,
        min_sigma: float = 0.0,
        stale_fraction: float = 1.0,
        breaker_config: BreakerConfig | None = None,
        registry: MetricsRegistry | None = None,
        tracer=None,
        profiler=None,
        class_policies=None,
    ) -> "ManagedLink":
        """Assemble a link from design parameters.

        ``memory`` defaults to the paper's rule ``T_m = T_h_tilde``.
        ``memory=0`` means *memoryless everywhere*: the estimator is the
        instantaneous cross-section (:class:`MemorylessEstimator`) and the
        degraded-mode inversion is evaluated at ``T_m = 0`` (the
        memoryless overflow theory), so the two halves of the link always
        agree on the memory discipline.  Negative values are rejected with
        :class:`~repro.errors.ParameterError`.  The conservative
        degraded-mode controller is built by inverting the general
        overflow formula at these parameters (falling back to the most
        conservative representable target when the inversion reports
        ``p_q`` unreachable).  ``mean_rate`` defaults to the feed source's
        mean when the feed carries one.  ``breaker_config`` tunes the
        feed circuit breaker (defaults as in :class:`ManagedLink`).

        ``class_policies`` (a :class:`~repro.classes.policy.ClassPolicySet`)
        turns the link multi-class: the estimator becomes a per-class
        :class:`~repro.core.estimators.ClassAwareEstimator` seeded with
        each policy's declared ``(mu, sigma)`` prior, and classed
        ``admit(..., flow_class=...)`` requests are decided against that
        class's own capacity share and eqn-(42) target (see
        :class:`~repro.classes.bank.ClassBank`).  Classless requests on a
        classed link, and the pooled link-level behavior above, are
        unchanged.
        """
        if memory is not None and memory < 0.0:
            raise ParameterError(
                "memory must be non-negative (0 selects the memoryless "
                "estimator and the memoryless degraded-mode theory)"
            )
        if mean_rate is None:
            source = getattr(feed, "source", None)
            if source is None:
                raise ParameterError(
                    "mean_rate is required for feeds without a source"
                )
            mean_rate = source.mean
        if stale_fraction <= 0.0:
            raise ParameterError("stale_fraction must be positive")
        n = capacity / mean_rate
        t_h_tilde = critical_time_scale(holding_time, n)
        if memory is None:
            memory = t_h_tilde
        # make_estimator treats 0 as memoryless, matching the T_m = 0 passed
        # to the adjusted-target inversion below.
        class_bank = None
        if class_policies is not None:
            if memory <= 0.0:
                raise ParameterError(
                    "class policies require memory > 0 (the per-class "
                    "filter bank has no memoryless form)"
                )
            # Deferred import: repro.classes pulls in repro.runtime.feed,
            # which at module-import time would cycle back through the
            # runtime package onto this very module.
            from repro.classes.bank import ClassBank
            from repro.core.estimators import ClassAwareEstimator

            class_bank = ClassBank(
                class_policies,
                capacity=capacity,
                holding_time=holding_time,
                memory=memory,
                min_sigma=min_sigma,
            )
            estimator = ClassAwareEstimator(memory)
            for class_id, policy in class_policies.items():
                estimator.set_class_prior(
                    class_id, policy.mean_rate, policy.sigma
                )
        else:
            estimator = make_estimator(memory)
        controller = CertaintyEquivalentController(
            capacity, p_q, min_sigma=min_sigma
        )
        try:
            conservative = CertaintyEquivalentController.with_adjusted_target(
                capacity,
                p_q,
                memory=memory,
                correlation_time=correlation_time,
                holding_time_scaled=t_h_tilde,
                snr=snr,
                min_sigma=min_sigma,
            )
        except ConvergenceError:
            logger.warning(
                "link %s: p_q=%g unreachable at T_m=%g; degraded mode uses "
                "the most conservative representable target",
                name, p_q, memory,
            )
            conservative = CertaintyEquivalentController(
                capacity, alpha=_ALPHA_FLOOR, min_sigma=min_sigma
            )
            conservative.name = "max-conservative"
        return cls(
            name,
            capacity=capacity,
            holding_time=holding_time,
            mean_rate=mean_rate,
            feed=feed,
            estimator=estimator,
            controller=controller,
            conservative_controller=conservative,
            stale_horizon=stale_fraction * t_h_tilde,
            breaker=(
                None if breaker_config is None else CircuitBreaker(breaker_config)
            ),
            registry=registry,
            tracer=tracer,
            profiler=profiler,
            class_bank=class_bank,
        )

    # -- read side ---------------------------------------------------------

    @property
    def n_flows(self) -> int:
        """Current occupancy."""
        return self._n

    @property
    def health(self) -> LinkHealth:
        """Current health state (as of the last tick)."""
        return self._health

    @property
    def degraded(self) -> bool:
        """Whether the link is in any non-healthy state."""
        return self._health is not LinkHealth.HEALTHY

    @property
    def quarantined(self) -> bool:
        """Whether the link is failing closed (breaker open/probing)."""
        return self._health is LinkHealth.QUARANTINED

    @property
    def load_fraction(self) -> float:
        """Nominal load ``N * mu / c`` (used by least-loaded placement)."""
        return self._n * self.mean_rate / self.capacity

    @property
    def mean_utilization(self) -> float:
        """Time-averaged measured aggregate over capacity."""
        if self.observed_time <= 0.0:
            return 0.0
        return self.utilization_integral / (self.capacity * self.observed_time)

    @property
    def overflow_fraction(self) -> float:
        """Fraction of observed time with measured aggregate above capacity."""
        if self.observed_time <= 0.0:
            return 0.0
        return self.overload_time / self.observed_time

    @property
    def classed(self) -> bool:
        """Whether the link carries a per-class policy bank."""
        return self.class_bank is not None

    def class_counts(self) -> dict[str, int]:
        """Current occupancy per class name (empty on a classless link)."""
        bank = self.class_bank
        if bank is None:
            return {}
        return {
            bank.name_of(class_id): count
            for class_id, count in self._class_n.items()
        }

    def class_report(self) -> dict[str, dict[str, float]]:
        """Per-class occupancy and overload integrals, keyed by class name.

        ``overflow_fraction`` is the fraction of observed time the class's
        measured aggregate exceeded its capacity share -- the per-class
        QoS conformance signal the overload scenario's stability gate
        consumes.  Empty on a classless link.
        """
        bank = self.class_bank
        if bank is None:
            return {}
        report: dict[str, dict[str, float]] = {}
        for class_id in bank.class_ids():
            observed = self.class_observed_time.get(class_id, 0.0)
            overload = self.class_overload_time.get(class_id, 0.0)
            report[bank.name_of(class_id)] = {
                "n_flows": self._class_n.get(class_id, 0),
                "capacity": bank.capacity_of(class_id),
                "observed_time": observed,
                "overload_time": overload,
                "overflow_fraction": (
                    overload / observed if observed > 0.0 else 0.0
                ),
            }
        return report

    def _current_estimate(self) -> BandwidthEstimate | None:
        helper = getattr(self.estimator, "estimate_or_none", None)
        if helper is not None:
            return helper()
        try:  # estimators from outside repro.core may lack the fast probe
            return self.estimator.estimate()
        except EstimatorError:
            return None

    def plain_target(self) -> float | None:
        """Healthy-mode admissible count at the current estimate."""
        estimate = self._current_estimate()
        if estimate is None:
            return None
        return self.controller.target_count(estimate, self._n)

    def conservative_target(self) -> float | None:
        """Degraded-mode admissible count at the current estimate."""
        estimate = self._current_estimate()
        if estimate is None:
            return None
        return self.conservative_controller.target_count(estimate, self._n)

    def retarget(self, alpha: float) -> None:
        """Install a re-inverted certainty-equivalent parameter online.

        Replaces the healthy-mode controller with a closed-form
        ``CertaintyEquivalentController(capacity, alpha=...)`` -- the
        paper's robust scheme runs the *plain* CE rule with the adjusted
        p_ce in place of p_q, so a re-inversion lands on the primary
        decision path.  ``alpha`` is capped at the most conservative
        representable parameter.  Pure controller swap: no feed or clock
        state changes, so a journaled retarget replays exactly.
        """
        alpha = float(alpha)
        if not math.isfinite(alpha) or alpha <= 0.0:
            raise ParameterError("retarget alpha must be a positive finite "
                                 f"number, got {alpha!r}")
        min_sigma = getattr(self.controller, "min_sigma", 0.0)
        self.controller = CertaintyEquivalentController(
            self.capacity, alpha=min(alpha, _ALPHA_FLOOR),
            min_sigma=min_sigma,
        )

    # -- health bookkeeping ------------------------------------------------

    def _on_breaker_transition(
        self, old: BreakerState, new: BreakerState, now: float
    ) -> None:
        self._m_breaker_transitions.inc()
        self._m_breaker_state.set(BREAKER_STATE_CODES[new])
        if self.tracer is not None:
            self.tracer.record_breaker(self.name, old, new, now)
        if new is BreakerState.OPEN:
            self._m_breaker_opens.inc()
            logger.warning(
                "link %s: feed breaker opened at t=%.6g "
                "(failures=%d, next probe in %.3g)",
                self.name, now, self.breaker.consecutive_failures,
                self.breaker.backoff,
            )
        elif new is BreakerState.CLOSED:
            self._m_breaker_closes.inc()
            logger.info(
                "link %s: feed breaker closed at t=%.6g (feed trusted again)",
                self.name, now,
            )
        else:
            logger.info(
                "link %s: feed breaker half-open at t=%.6g (probing feed)",
                self.name, now,
            )

    def _set_health(self, health: LinkHealth, now: float, staleness: float) -> None:
        old = self._health
        if health is old:
            return
        self._health = health
        self._m_health.set(HEALTH_CODES[health])
        if self.tracer is not None:
            self.tracer.record_health(self.name, old, health, now, staleness)
        if old is LinkHealth.HEALTHY:
            self._m_degradations.inc()
        if health is LinkHealth.QUARANTINED:
            self._m_quarantines.inc()
            logger.warning(
                "link %s quarantined at t=%.6g: feed untrusted, failing "
                "closed (existing flows keep draining)",
                self.name, now,
            )
        elif health is LinkHealth.DEGRADED:
            logger.warning(
                "link %s degraded: measurement %.3g old exceeds horizon %.3g",
                self.name, staleness, self.stale_horizon,
            )
        else:
            logger.info(
                "link %s recovered at t=%.6g: fresh valid measurements resumed",
                self.name, now,
            )

    def _feed_exhausted(self) -> bool:
        return bool(getattr(self.feed, "exhausted", False))

    # -- clock / measurement ingest ----------------------------------------

    def tick(self, now: float) -> bool:
        """Advance the link clock to ``now`` and poll the feed.

        Integrates the time-weighted statistics with the measured aggregate
        held constant since the previous tick, ingests at most one fresh
        *valid* cross-section per call (invalid samples are discarded and
        charged to the feed's circuit breaker), and re-derives the health
        state.  Returns ``True`` when a fresh measurement was ingested.
        """
        now = float(now)
        if now < self._clock - 1e-9:
            raise RuntimeStateError(
                f"link {self.name}: clock cannot run backwards "
                f"({now} < {self._clock})"
            )
        dt = max(0.0, now - self._clock)
        if dt > 0.0 and self._last_aggregate is not None:
            self.observed_time += dt
            self.utilization_integral += self._last_aggregate * dt
            if self._last_aggregate > self.capacity:
                self.overload_time += dt
            self._m_overflow.set(self.overflow_fraction)
        if dt > 0.0 and self._last_class_aggregate is not None:
            bank = self.class_bank
            for class_id, aggregate in self._last_class_aggregate.items():
                observed = self.class_observed_time.get(class_id, 0.0) + dt
                self.class_observed_time[class_id] = observed
                overload = self.class_overload_time.get(class_id, 0.0)
                if aggregate > bank.capacity_of(class_id):
                    overload += dt
                    self.class_overload_time[class_id] = overload
                gauge = self._m_class_overflow.get(class_id)
                if gauge is not None:
                    gauge.set(overload / observed)
        self._clock = now

        self.estimator.advance(now)
        breaker = self.breaker
        fresh = False
        if breaker.should_attempt(now):
            probing = breaker.state is BreakerState.HALF_OPEN
            if probing:
                self._m_breaker_probes.inc()
            sections = None
            if self._measure_classified is not None:
                polled = self._measure_classified(now, self._class_n)
                section = None if polled is None else polled[0]
                if polled is not None:
                    sections = polled[1]
            else:
                section = self.feed.measure(now, self._n)
            if section is not None:
                # Per-class samples concatenate into the pooled section, so
                # validating the pooled section covers every class slice.
                problem = section_problem(section)
                if problem is None:
                    try:
                        if (
                            sections is not None
                            and self._observe_classified is not None
                        ):
                            self._observe_classified(sections)
                        else:
                            self.estimator.observe(section)
                    except EstimatorError as exc:
                        problem = str(exc)
                if problem is None:
                    fresh = True
                    breaker.record_success(now)
                    self._m_measurements.inc()
                    aggregate = section.mean * section.n
                    self._last_aggregate = aggregate
                    self._m_util.set(aggregate / self.capacity)
                    if sections is not None:
                        self._last_class_aggregate = {
                            class_id: cs.mean * cs.n
                            for class_id, cs in sections
                        }
                    estimate = self._current_estimate()
                    if estimate is not None:
                        self._m_mu.set(estimate.mu)
                        self._m_sigma.set(estimate.sigma)
                else:
                    self._m_invalid.inc()
                    breaker.record_failure(now)
                    logger.warning(
                        "link %s: discarded invalid measurement at t=%.6g (%s)",
                        self.name, now, problem,
                    )
            elif probing and self._feed_exhausted():
                # The probe conclusively failed: the recording is over and
                # nothing will ever come back.  Reopen with longer backoff.
                breaker.record_failure(now)
        # else: breaker open and backoff pending -- the feed is not polled.

        exhausted = self._feed_exhausted()
        if exhausted and not self._exhaustion_logged:
            self._exhaustion_logged = True
            logger.warning(
                "link %s: measurement feed exhausted "
                "(event=feed-exhausted link=%s t=%.6g stale_horizon=%.6g); "
                "the link will quarantine once the last measurement goes stale",
                self.name, self.name, now, self.stale_horizon,
            )

        staleness = self.feed.staleness(now)
        self._m_staleness.set(staleness)
        stale = staleness > self.stale_horizon
        if stale and exhausted and breaker.state is BreakerState.CLOSED:
            # An exhausted feed past the horizon can never refresh its
            # estimate: fail closed instead of admitting forever on it.
            breaker.trip(now)
        if breaker.state is not BreakerState.CLOSED:
            health = LinkHealth.QUARANTINED
        elif stale:
            health = LinkHealth.DEGRADED
        else:
            health = LinkHealth.HEALTHY
        self._set_health(health, now, staleness)
        return fresh

    # -- request path ------------------------------------------------------

    def admit(self, now: float, flow_class: str | None = None) -> AdmissionDecision:
        """Decide one flow-arrival request at time ``now``.

        ``flow_class`` routes the request through the class's own
        criterion on a multi-class link (per-class estimate, capacity
        share and eqn-(42) target).  It is ignored -- the request is
        decided against the pooled criterion -- when the link carries no
        class bank, so classed peers interoperate with classless links.
        """
        if flow_class is not None and self.class_bank is not None:
            return self._admit_classed(now, str(flow_class))
        t0 = time.perf_counter()
        profiler = self.profiler
        if profiler is not None:
            p0 = time.perf_counter_ns()
        self.tick(now)
        health = self._health
        degraded = health is not LinkHealth.HEALTHY
        if profiler is not None:
            e0 = time.perf_counter_ns()
        estimate = self._current_estimate()
        if profiler is not None:
            profiler.estimator_read.observe(time.perf_counter_ns() - e0)
        mu_hat = estimate.mu if estimate is not None else math.nan
        sigma_hat = estimate.sigma if estimate is not None else math.nan

        if health is LinkHealth.QUARANTINED:
            # Fail closed: no new admissions on an untrusted feed.
            admitted, reason, target = False, "quarantined", math.nan
        elif estimate is None or (estimate.mu <= 0.0 and self._n == 0):
            # Nothing measurable yet.  A healthy empty link bootstraps (the
            # offline engines do the same: a zero estimate would freeze
            # admission forever); a degraded link refuses blind admission.
            if not degraded and self._n == 0:
                admitted, reason, target = True, "bootstrap", math.nan
            else:
                admitted, reason, target = False, "no-measurement", math.nan
        else:
            controller = (
                self.conservative_controller if degraded else self.controller
            )
            target = controller.target_count(estimate, self._n)
            # ``n + 1 <= target`` is ``n + 1 <= floor(target)`` for integer
            # ``n``, and admits (rather than raises) on an infinite target.
            admitted = self._n + 1 <= target
            reason = "conservative-target" if degraded else "target"

        if admitted:
            self._n += 1
            self._m_admits.inc()
        else:
            self._m_rejects.inc()
        self._m_n.set(self._n)
        if not math.isnan(target):
            self._m_target.set(target)
        self._m_latency.observe(time.perf_counter() - t0)
        if profiler is not None:
            profiler.admit.observe(time.perf_counter_ns() - p0)
        logger.debug(
            "link %s admit(t=%.6g): %s (%s, target=%.6g, n=%d, health=%s)",
            self.name, now, "accept" if admitted else "reject",
            reason, target, self._n, health.value,
        )
        return AdmissionDecision(
            admitted=admitted,
            link=self.name,
            reason=reason,
            target=float(target),
            n_flows=self._n,
            degraded=degraded,
            health=health.value,
            mu_hat=mu_hat,
            sigma_hat=sigma_hat,
        )

    def _admit_classed(self, now: float, flow_class: str) -> AdmissionDecision:
        """Decide one classed arrival against the class's own criterion.

        Mirrors :meth:`admit` decision-for-decision (same reason strings,
        same bootstrap semantics) with the class's filtered estimate, its
        occupancy and its capacity-share controller in place of the
        pooled ones.  A link carrying a single class with an unadjusted
        policy therefore produces byte-identical decisions to a classless
        link (the differential-digest guarantee).
        """
        bank = self.class_bank
        class_id = bank.class_id(flow_class)  # unknown class: no state change
        t0 = time.perf_counter()
        profiler = self.profiler
        if profiler is not None:
            p0 = time.perf_counter_ns()
        self.tick(now)
        health = self._health
        degraded = health is not LinkHealth.HEALTHY
        if profiler is not None:
            e0 = time.perf_counter_ns()
        if self._class_estimate is not None:
            estimate = self._class_estimate(class_id)
        else:
            estimate = self._current_estimate()
        if profiler is not None:
            profiler.estimator_read.observe(time.perf_counter_ns() - e0)
        mu_hat = estimate.mu if estimate is not None else math.nan
        sigma_hat = estimate.sigma if estimate is not None else math.nan
        n_k = self._class_n.get(class_id, 0)

        if health is LinkHealth.QUARANTINED:
            admitted, reason, target = False, "quarantined", math.nan
        elif estimate is None or (estimate.mu <= 0.0 and n_k == 0):
            if not degraded and n_k == 0:
                admitted, reason, target = True, "bootstrap", math.nan
            else:
                admitted, reason, target = False, "no-measurement", math.nan
        else:
            controller = bank.controller(class_id, conservative=degraded)
            target = controller.target_count(estimate, n_k)
            admitted = n_k + 1 <= target
            reason = "conservative-target" if degraded else "target"

        if admitted:
            self._n += 1
            self._class_n[class_id] = n_k + 1
            self._m_admits.inc()
        else:
            self._m_rejects.inc()
        self._m_n.set(self._n)
        gauge = self._m_class_n.get(class_id)
        if gauge is not None:
            gauge.set(self._class_n.get(class_id, 0))
        if not math.isnan(target):
            self._m_target.set(target)
        self._m_latency.observe(time.perf_counter() - t0)
        if profiler is not None:
            profiler.admit.observe(time.perf_counter_ns() - p0)
        logger.debug(
            "link %s admit(t=%.6g, class=%s): %s (%s, target=%.6g, "
            "n_k=%d, n=%d, health=%s)",
            self.name, now, flow_class, "accept" if admitted else "reject",
            reason, target, self._class_n.get(class_id, 0), self._n,
            health.value,
        )
        return AdmissionDecision(
            admitted=admitted,
            link=self.name,
            reason=reason,
            target=float(target),
            n_flows=self._n,
            degraded=degraded,
            health=health.value,
            mu_hat=mu_hat,
            sigma_hat=sigma_hat,
        )

    def admit_many(
        self, k: int, now: float, flow_class: str | None = None
    ) -> list[AdmissionDecision]:
        """Decide a burst of ``k`` simultaneous flow-arrival requests.

        Semantically identical to ``k`` sequential :meth:`admit` calls at
        the same timestamp (same decisions, same counter increments, same
        final occupancy -- enforced by a differential test), but the burst
        pays for one clock tick, one estimator read and one metrics flush
        instead of ``k`` of each.

        Returns the per-request decisions in request order.  Because the
        estimate is frozen for the burst, the decision sequence is always
        an accept-prefix followed by rejects, exactly as sequential calls
        at one instant would produce: the burst evaluates one scalar
        target per accepted request plus one for the first reject, whose
        target every later reject shares.

        ``flow_class`` applies the same classed routing as :meth:`admit`
        to the whole burst (one class per burst; mixed-class arrivals are
        split by the caller).
        """
        k = int(k)
        if k < 0:
            raise ParameterError("burst size k must be non-negative")
        if k == 0:
            return []
        if flow_class is not None and self.class_bank is not None:
            return self._admit_many_classed(k, now, str(flow_class))
        t0 = time.perf_counter()
        profiler = self.profiler
        if profiler is not None:
            p0 = time.perf_counter_ns()
        self.tick(now)
        health = self._health
        degraded = health is not LinkHealth.HEALTHY
        if profiler is not None:
            e0 = time.perf_counter_ns()
        estimate = self._current_estimate()
        if profiler is not None:
            profiler.estimator_read.observe(time.perf_counter_ns() - e0)
        mu_hat = estimate.mu if estimate is not None else math.nan
        sigma_hat = estimate.sigma if estimate is not None else math.nan

        decisions: list[AdmissionDecision] = []
        name = self.name
        n = self._n
        remaining = k

        if health is LinkHealth.QUARANTINED:
            # The whole burst fails closed, exactly as k sequential calls.
            reject = AdmissionDecision(
                admitted=False,
                link=name,
                reason="quarantined",
                target=math.nan,
                n_flows=n,
                degraded=degraded,
                health=health.value,
                mu_hat=mu_hat,
                sigma_hat=sigma_hat,
            )
            decisions.extend([reject] * remaining)
            remaining = 0

        # Peel the no-measurement / bootstrap prefix exactly as admit() would:
        # a healthy empty link bootstraps its first flow; a degraded (or
        # already-bootstrapped) link without a usable estimate rejects.
        while remaining > 0 and (
            estimate is None or (estimate.mu <= 0.0 and n == 0)
        ):
            if not degraded and n == 0:
                admitted, reason = True, "bootstrap"
                n += 1
            else:
                admitted, reason = False, "no-measurement"
            decisions.append(
                AdmissionDecision(
                    admitted=admitted,
                    link=name,
                    reason=reason,
                    target=math.nan,
                    n_flows=n,
                    degraded=degraded,
                    health=health.value,
                    mu_hat=mu_hat,
                    sigma_hat=sigma_hat,
                )
            )
            remaining -= 1

        last_target = math.nan
        if remaining > 0:
            controller = (
                self.conservative_controller if degraded else self.controller
            )
            reason = "conservative-target" if degraded else "target"
            # Walk the accept-prefix with one scalar eqn-42 target per
            # occupancy.  The first reject freezes the occupancy (and hence
            # the target), so every later request is rejected at that same
            # target.
            accepted = 0
            while accepted < remaining:
                last_target = float(controller.target_count(estimate, n))
                if not n + 1 <= last_target:
                    break
                n += 1
                accepted += 1
                decisions.append(
                    AdmissionDecision(
                        admitted=True,
                        link=name,
                        reason=reason,
                        target=last_target,
                        n_flows=n,
                        degraded=degraded,
                        health=health.value,
                        mu_hat=mu_hat,
                        sigma_hat=sigma_hat,
                    )
                )
            if accepted < remaining:
                reject = AdmissionDecision(
                    admitted=False,
                    link=name,
                    reason=reason,
                    target=last_target,
                    n_flows=n,
                    degraded=degraded,
                    health=health.value,
                    mu_hat=mu_hat,
                    sigma_hat=sigma_hat,
                )
                decisions.extend([reject] * (remaining - accepted))

        admitted_total = n - self._n
        self._n = n
        if admitted_total:
            self._m_admits.inc(admitted_total)
        if k - admitted_total:
            self._m_rejects.inc(k - admitted_total)
        self._m_n.set(n)
        if not math.isnan(last_target):
            self._m_target.set(last_target)
        self._m_batch_size.observe(k)
        self._m_batch_latency.observe(time.perf_counter() - t0)
        if profiler is not None:
            profiler.admit_many.observe(time.perf_counter_ns() - p0)
        logger.debug(
            "link %s admit_many(t=%.6g, k=%d): %d accepted, %d rejected "
            "(n=%d, health=%s)",
            name, now, k, admitted_total, k - admitted_total, n, health.value,
        )
        return decisions

    def _admit_many_classed(
        self, k: int, now: float, flow_class: str
    ) -> list[AdmissionDecision]:
        """Classed burst: ``k`` sequential classed admits, batched."""
        bank = self.class_bank
        class_id = bank.class_id(flow_class)
        t0 = time.perf_counter()
        profiler = self.profiler
        if profiler is not None:
            p0 = time.perf_counter_ns()
        self.tick(now)
        health = self._health
        degraded = health is not LinkHealth.HEALTHY
        if profiler is not None:
            e0 = time.perf_counter_ns()
        if self._class_estimate is not None:
            estimate = self._class_estimate(class_id)
        else:
            estimate = self._current_estimate()
        if profiler is not None:
            profiler.estimator_read.observe(time.perf_counter_ns() - e0)
        mu_hat = estimate.mu if estimate is not None else math.nan
        sigma_hat = estimate.sigma if estimate is not None else math.nan

        decisions: list[AdmissionDecision] = []
        name = self.name
        n = self._n
        n_k = self._class_n.get(class_id, 0)
        remaining = k

        if health is LinkHealth.QUARANTINED:
            reject = AdmissionDecision(
                admitted=False,
                link=name,
                reason="quarantined",
                target=math.nan,
                n_flows=n,
                degraded=degraded,
                health=health.value,
                mu_hat=mu_hat,
                sigma_hat=sigma_hat,
            )
            decisions.extend([reject] * remaining)
            remaining = 0

        while remaining > 0 and (
            estimate is None or (estimate.mu <= 0.0 and n_k == 0)
        ):
            if not degraded and n_k == 0:
                admitted, reason = True, "bootstrap"
                n += 1
                n_k += 1
            else:
                admitted, reason = False, "no-measurement"
            decisions.append(
                AdmissionDecision(
                    admitted=admitted,
                    link=name,
                    reason=reason,
                    target=math.nan,
                    n_flows=n,
                    degraded=degraded,
                    health=health.value,
                    mu_hat=mu_hat,
                    sigma_hat=sigma_hat,
                )
            )
            remaining -= 1

        last_target = math.nan
        if remaining > 0:
            controller = bank.controller(class_id, conservative=degraded)
            reason = "conservative-target" if degraded else "target"
            accepted = 0
            while accepted < remaining:
                last_target = float(controller.target_count(estimate, n_k))
                if not n_k + 1 <= last_target:
                    break
                n += 1
                n_k += 1
                accepted += 1
                decisions.append(
                    AdmissionDecision(
                        admitted=True,
                        link=name,
                        reason=reason,
                        target=last_target,
                        n_flows=n,
                        degraded=degraded,
                        health=health.value,
                        mu_hat=mu_hat,
                        sigma_hat=sigma_hat,
                    )
                )
            if accepted < remaining:
                reject = AdmissionDecision(
                    admitted=False,
                    link=name,
                    reason=reason,
                    target=last_target,
                    n_flows=n,
                    degraded=degraded,
                    health=health.value,
                    mu_hat=mu_hat,
                    sigma_hat=sigma_hat,
                )
                decisions.extend([reject] * (remaining - accepted))

        admitted_total = n - self._n
        self._n = n
        self._class_n[class_id] = n_k
        if admitted_total:
            self._m_admits.inc(admitted_total)
        if k - admitted_total:
            self._m_rejects.inc(k - admitted_total)
        self._m_n.set(n)
        gauge = self._m_class_n.get(class_id)
        if gauge is not None:
            gauge.set(n_k)
        if not math.isnan(last_target):
            self._m_target.set(last_target)
        self._m_batch_size.observe(k)
        self._m_batch_latency.observe(time.perf_counter() - t0)
        if profiler is not None:
            profiler.admit_many.observe(time.perf_counter_ns() - p0)
        logger.debug(
            "link %s admit_many(t=%.6g, k=%d, class=%s): %d accepted, "
            "%d rejected (n_k=%d, n=%d, health=%s)",
            name, now, k, flow_class, admitted_total, k - admitted_total,
            n_k, n, health.value,
        )
        return decisions

    def install(self, now: float, flow_class: str | None = None) -> None:
        """Place one flow unconditionally (live migration / journal repair).

        The admission decision for this flow already happened elsewhere
        (on the shard it is migrating away from), so no admit/reject is
        counted, no target is evaluated and no decision is produced --
        occupancy simply grows so capacity accounting and the departure
        path bill this link.  Installs are tracked in their own counter.
        ``flow_class`` bills the flow to that class's occupancy on a
        multi-class link (ignored otherwise; migration currently moves
        flows classless, see docs/classes.md).
        """
        class_id = None
        if flow_class is not None and self.class_bank is not None:
            class_id = self.class_bank.class_id(str(flow_class))
        self.tick(now)
        self._n += 1
        if class_id is not None:
            self._class_n[class_id] = self._class_n.get(class_id, 0) + 1
            gauge = self._m_class_n.get(class_id)
            if gauge is not None:
                gauge.set(self._class_n[class_id])
        self._m_installs.inc()
        self._m_n.set(self._n)

    def depart(self, now: float, flow_class: str | None = None) -> None:
        """Record one flow departure at time ``now``.

        Departures are always served -- including on degraded or
        quarantined links (failing closed stops *admissions*, not the
        draining of existing flows).  ``flow_class`` credits the
        departure to that class's occupancy on a multi-class link.
        """
        if self._n <= 0:
            raise RuntimeStateError(f"link {self.name}: departure from empty link")
        class_id = None
        if flow_class is not None and self.class_bank is not None:
            class_id = self.class_bank.class_id(str(flow_class))
            if self._class_n.get(class_id, 0) <= 0:
                raise RuntimeStateError(
                    f"link {self.name}: departure from empty class "
                    f"{flow_class!r}"
                )
        self.tick(now)
        self._n -= 1
        if class_id is not None:
            self._class_n[class_id] -= 1
            gauge = self._m_class_n.get(class_id)
            if gauge is not None:
                gauge.set(self._class_n[class_id])
        self._m_departs.inc()
        self._m_n.set(self._n)

    def depart_many(
        self, k: int, now: float, flow_class: str | None = None
    ) -> None:
        """Record ``k`` simultaneous flow departures at time ``now``.

        Equivalent to ``k`` sequential :meth:`depart` calls at the same
        timestamp, with one tick and one metrics flush.  ``flow_class``
        credits the whole burst to one class on a multi-class link.
        """
        k = int(k)
        if k < 0:
            raise ParameterError("burst size k must be non-negative")
        if k == 0:
            return
        if k > self._n:
            raise RuntimeStateError(
                f"link {self.name}: {k} departures from {self._n} flows"
            )
        class_id = None
        if flow_class is not None and self.class_bank is not None:
            class_id = self.class_bank.class_id(str(flow_class))
            if k > self._class_n.get(class_id, 0):
                raise RuntimeStateError(
                    f"link {self.name}: {k} departures from "
                    f"{self._class_n.get(class_id, 0)} flows of class "
                    f"{flow_class!r}"
                )
        self.tick(now)
        self._n -= k
        if class_id is not None:
            self._class_n[class_id] -= k
            gauge = self._m_class_n.get(class_id)
            if gauge is not None:
                gauge.set(self._class_n[class_id])
        self._m_departs.inc(k)
        self._m_n.set(self._n)
