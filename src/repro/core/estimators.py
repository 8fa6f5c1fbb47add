"""Bandwidth estimators: the measurement half of the MBAC.

The paper's controllers act on two per-flow statistics estimated from the
flows currently in the system:

* the **memoryless** estimators of eqns (7)/(23): the cross-sectional sample
  mean and sample variance of the current flow bandwidths, and
* the **exponential-memory** estimators of Section 4.3: the same
  cross-sectional statistics passed through a first-order auto-regressive
  filter with impulse response ``h(t) = (1/T_m) exp(-t/T_m)``.

Both are driven by the same abstraction here: a *piecewise-constant
cross-sectional signal*.  Between simulation events the per-flow rates do not
change, so the cross-sectional mean/second-moment/variance are constant; the
exponential filter of a piecewise-constant signal has an exact closed form,
which lets the event-driven engine maintain the filtered estimates with zero
discretization error:

    F(t) = x * (1 - exp(-dt/T_m)) + F(t0) * exp(-dt/T_m)

The filtered *variance* estimate follows the paper's definition
``sigma_m^2(t) = int [ (1/(n-1)) sum_i (X_i(t-tau) - mu_m(t))^2 ] h(tau) dtau``
which decomposes exactly (see DESIGN.md) into filtered cross-sectional
statistics:

    sigma_m^2(t) = (v*h)(t) + n/(n-1) * [ (m^2*h)(t) - mu_m(t)^2 ]

where ``m(s)`` and ``v(s)`` are the instantaneous cross-sectional mean and
unbiased variance.  We therefore filter three signals: ``m``, ``m^2`` and
``v``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import EstimatorError, ParameterError

__all__ = [
    "CrossSection",
    "cross_section",
    "BandwidthEstimate",
    "Estimator",
    "MemorylessEstimator",
    "ExponentialMemoryEstimator",
    "SlidingWindowEstimator",
    "ClassAwareEstimator",
    "AggregateEstimator",
    "PerfectEstimator",
    "make_estimator",
]


@dataclass(frozen=True)
class CrossSection:
    """Instantaneous per-flow statistics of the flows in the system.

    Attributes
    ----------
    n : int
        Number of active flows.
    mean : float
        Cross-sectional mean rate ``(1/n) sum_i X_i``.
    second_moment : float
        Cross-sectional second moment ``(1/n) sum_i X_i^2``.
    variance : float
        *Unbiased* cross-sectional variance, ``(1/(n-1)) sum_i (X_i - mean)^2``
        (0 when ``n < 2``).
    """

    n: int
    mean: float
    second_moment: float
    variance: float


def cross_section(rates) -> CrossSection:
    """Compute a :class:`CrossSection` from an array of per-flow rates.

    Raises
    ------
    EstimatorError
        If any rate is NaN, infinite or negative.  A cross-section is a
        physical measurement of flow bandwidths; non-finite or negative
        samples can only come from an upstream defect (a corrupted trace,
        an un-truncated marginal, a unit bug) and would otherwise
        propagate silently into ``mu_hat``/``sigma_hat`` and from there
        into every admission decision.
    """
    arr = np.asarray(rates, dtype=float)
    n = int(arr.size)
    if n == 0:
        return CrossSection(n=0, mean=0.0, second_moment=0.0, variance=0.0)
    # Method reductions rather than the np.all/np.any/np.mean wrappers:
    # the same pairwise sums divided by n, bit for bit, at a fraction of
    # the dispatch cost (this runs on every measurement poll).
    if not np.isfinite(arr).all():
        raise EstimatorError("per-flow rates must be finite (got NaN or inf)")
    if (arr < 0.0).any():
        raise EstimatorError("per-flow rates must be non-negative")
    mean = float(arr.sum() / n)
    m2 = float((arr * arr).sum() / n)
    if n >= 2:
        var = float(max(0.0, (m2 - mean * mean)) * n / (n - 1))
    else:
        var = 0.0
    return CrossSection(n=n, mean=mean, second_moment=m2, variance=var)


@dataclass(frozen=True)
class BandwidthEstimate:
    """Output of an estimator: per-flow mean and standard deviation.

    ``n`` records how many flows the underlying cross-section had when the
    estimate was produced (used by controllers for the aggregate Gaussian
    approximation and for diagnostics).
    """

    mu: float
    sigma: float
    n: int

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise ParameterError("sigma estimate cannot be negative")


class Estimator(ABC):
    """Interface between the simulation engines and the measurement process.

    Protocol (continuous time)
    --------------------------
    The engine owns the clock.  Whenever the set of flows or any flow rate is
    about to change at time ``t``, the engine first calls :meth:`advance` to
    integrate the *current* cross-sectional signal up to ``t``, then mutates
    its state and calls :meth:`observe` with the new cross-section.  The
    estimate may be read at any point with :meth:`estimate`.

    Discrete-time engines may equivalently call ``observe`` once per step and
    ``advance`` with the step length.
    """

    def __init__(self) -> None:
        self._time = 0.0
        self._signal: CrossSection | None = None

    @property
    def time(self) -> float:
        """Current internal clock of the estimator."""
        return self._time

    def reset(self, t: float = 0.0) -> None:
        """Forget all state and restart the clock at ``t``."""
        self._time = float(t)
        self._signal = None
        self._reset_state()

    def advance(self, t: float) -> None:
        """Integrate the current signal forward to absolute time ``t``."""
        dt = float(t) - self._time
        if dt < -1e-12:
            raise EstimatorError(
                f"estimator clock cannot run backwards ({t} < {self._time})"
            )
        if dt > 0.0 and self._signal is not None:
            self._integrate(self._signal, dt)
        self._time = float(t)

    def observe(self, section: CrossSection) -> None:
        """Replace the cross-sectional signal at the current time."""
        if self._signal is None:
            self._first_observation(section)
        self._signal = section

    def estimate(self) -> BandwidthEstimate:
        """Current per-flow bandwidth estimate.

        Raises
        ------
        EstimatorError
            If no cross-section has been observed yet.
        """
        if self._signal is None:
            raise EstimatorError("estimator has observed no data yet")
        return self._estimate(self._signal)

    def estimate_or_none(self) -> BandwidthEstimate | None:
        """Like :meth:`estimate`, but ``None`` before any observation.

        The online hot paths (single and batched admission) read the
        estimate on every decision; this avoids paying exception dispatch
        for the common "no data yet" probe and lets a burst of decisions
        reuse one read.
        """
        if self._signal is None:
            return None
        return self._estimate(self._signal)

    # -- subclass hooks ----------------------------------------------------

    def _reset_state(self) -> None:
        """Clear subclass state (default: nothing)."""

    def _first_observation(self, section: CrossSection) -> None:
        """Initialize subclass state from the first cross-section."""

    def _integrate(self, section: CrossSection, dt: float) -> None:
        """Integrate a constant cross-section held for duration ``dt``."""

    @abstractmethod
    def _estimate(self, section: CrossSection) -> BandwidthEstimate:
        """Produce the estimate given the most recent cross-section."""


class MemorylessEstimator(Estimator):
    """The paper's memoryless estimator: the instantaneous cross-section.

    ``mu_hat(t)`` and ``sigma_hat(t)`` of eqn (23) -- admission decisions are
    based on the current bandwidths only.
    """

    def _estimate(self, section: CrossSection) -> BandwidthEstimate:
        return BandwidthEstimate(
            mu=section.mean,
            sigma=math.sqrt(max(section.variance, 0.0)),
            n=section.n,
        )


class ExponentialMemoryEstimator(Estimator):
    """Exponential (first-order AR) memory estimator of Section 4.3.

    Parameters
    ----------
    memory : float
        The memory window ``T_m`` (mean age of the exponential weighting).
        Must be positive; for the memoryless limit use
        :class:`MemorylessEstimator`.

    Notes
    -----
    Filters are initialized to the first observed cross-section, which is the
    stationary-start convention (equivalently: the signal is assumed to have
    held its first value for all negative time).  This avoids a spurious
    zero-rate transient that would make the controller wildly over-admit at
    start-up.
    """

    def __init__(self, memory: float) -> None:
        super().__init__()
        if memory <= 0.0:
            raise ParameterError("memory T_m must be positive")
        self.memory = float(memory)
        self._f_mean = 0.0
        self._f_mean_sq = 0.0
        self._f_var = 0.0

    def _reset_state(self) -> None:
        self._f_mean = 0.0
        self._f_mean_sq = 0.0
        self._f_var = 0.0

    def _first_observation(self, section: CrossSection) -> None:
        self._f_mean = section.mean
        self._f_mean_sq = section.mean * section.mean
        self._f_var = section.variance

    def _integrate(self, section: CrossSection, dt: float) -> None:
        decay = math.exp(-dt / self.memory)
        gain = 1.0 - decay
        self._f_mean = section.mean * gain + self._f_mean * decay
        self._f_mean_sq = section.mean**2 * gain + self._f_mean_sq * decay
        self._f_var = section.variance * gain + self._f_var * decay

    def _estimate(self, section: CrossSection) -> BandwidthEstimate:
        n = section.n
        correction = n / (n - 1.0) if n >= 2 else 1.0
        mean_jitter = max(0.0, self._f_mean_sq - self._f_mean * self._f_mean)
        var = max(0.0, self._f_var + correction * mean_jitter)
        return BandwidthEstimate(mu=self._f_mean, sigma=math.sqrt(var), n=n)


class SlidingWindowEstimator(Estimator):
    """Rectangular-window (time-average) estimator.

    Averages the cross-sectional statistics uniformly over the last
    ``window`` time units.  This is the measurement style of Jamin et al.'s
    algorithm (their measurement window ``T``); the paper argues its role is
    analogous to ``T_m``.  Provided both as a baseline measurement discipline
    and to let users compare window shapes.

    Implementation: a deque of (duration, mean, mean^2, variance) segments
    plus running totals; stale segments are evicted (and the boundary segment
    is prorated) on every read.
    """

    def __init__(self, window: float) -> None:
        super().__init__()
        if window <= 0.0:
            raise ParameterError("window must be positive")
        self.window = float(window)
        self._segments: deque[list[float]] = deque()
        self._totals = [0.0, 0.0, 0.0, 0.0]  # duration, mean, mean^2, var

    def _reset_state(self) -> None:
        self._segments.clear()
        self._totals = [0.0, 0.0, 0.0, 0.0]

    def _integrate(self, section: CrossSection, dt: float) -> None:
        seg = [dt, section.mean, section.mean**2, section.variance]
        self._segments.append(seg)
        self._totals[0] += dt
        self._totals[1] += section.mean * dt
        self._totals[2] += section.mean**2 * dt
        self._totals[3] += section.variance * dt
        self._evict()

    def _evict(self) -> None:
        excess = self._totals[0] - self.window
        while excess > 0.0 and self._segments:
            head = self._segments[0]
            if head[0] <= excess + 1e-15:
                self._segments.popleft()
                self._totals[0] -= head[0]
                self._totals[1] -= head[1] * head[0]
                self._totals[2] -= head[2] * head[0]
                self._totals[3] -= head[3] * head[0]
                excess = self._totals[0] - self.window
            else:
                head[0] -= excess
                self._totals[0] -= excess
                self._totals[1] -= head[1] * excess
                self._totals[2] -= head[2] * excess
                self._totals[3] -= head[3] * excess
                excess = 0.0

    def _estimate(self, section: CrossSection) -> BandwidthEstimate:
        duration = self._totals[0]
        if duration <= 0.0:
            # No elapsed time yet: fall back to the instantaneous section.
            mu, m2, var = section.mean, section.mean**2, section.variance
        else:
            mu = self._totals[1] / duration
            m2 = self._totals[2] / duration
            var = self._totals[3] / duration
        n = section.n
        correction = n / (n - 1.0) if n >= 2 else 1.0
        total_var = max(0.0, var + correction * max(0.0, m2 - mu * mu))
        return BandwidthEstimate(mu=mu, sigma=math.sqrt(total_var), n=n)


class ClassAwareEstimator(Estimator):
    """Per-class measurement (the Section 5.4 remedy for heterogeneity).

    The homogeneous cross-sectional variance estimator is biased upward
    under heterogeneity because it measures spread around one global mean.
    "If classification of the flows is available to the MBAC, one can
    modify the variance estimator, using a different mean estimate for each
    class" -- this estimator does exactly that: it keeps one exponential
    filter bank per class and reports

        mu_hat    = sum_k w_k mu_k            (unchanged -- mixture mean)
        sigma_hat = sqrt( sum_k w_k sigma_k^2 )   (within-class only)

    with ``w_k = n_k / n`` the current class shares.  Engines feed it via
    :meth:`observe_classified`; the plain :meth:`observe` path treats all
    flows as one class (graceful degradation to the homogeneous scheme).

    Caveat (measured in the ``hetero`` experiment): removing the
    between-class variance also removes the slack that absorbed *composition
    fluctuations* -- the admitted high/low-class mix drifts on the holding
    time-scale, and with the tighter within-class margin those excursions
    can overflow.  At moderate heterogeneity the scheme recovers the lost
    utilization at maintained QoS; at extreme mean separations the
    homogeneous estimator's "bias" is partially protective and the
    class-aware target should be chosen more conservatively.

    Parameters
    ----------
    memory : float
        Exponential window per class filter (> 0).
    """

    def __init__(self, memory: float) -> None:
        super().__init__()
        if memory <= 0.0:
            raise ParameterError("memory T_m must be positive")
        self.memory = float(memory)
        self._filters: dict[int, ExponentialMemoryEstimator] = {}
        self._classified: list[tuple[int, CrossSection]] | None = None
        self._priors: dict[int, BandwidthEstimate] = {}

    def _reset_state(self) -> None:
        self._filters.clear()
        self._classified = None

    def set_class_prior(self, class_id: int, mu: float, sigma: float) -> None:
        """Register the declared ``(mu, sigma)`` of a class.

        The prior backs :meth:`class_estimate` before the class has ever
        been measured, and is the fallback when a class's filter cannot
        produce a finite estimate (e.g. it was poisoned by a corrupt
        section before the caller's validation existed).  Priors survive
        :meth:`reset`.
        """
        if mu < 0.0 or sigma < 0.0:
            raise ParameterError("class prior mu and sigma must be >= 0")
        self._priors[int(class_id)] = BandwidthEstimate(
            mu=float(mu), sigma=float(sigma), n=0
        )

    def observe_classified(self, sections) -> None:
        """Replace the signal with per-class cross-sections.

        Parameters
        ----------
        sections : iterable of (class_id, CrossSection)
            One entry per class currently present.  While *other* classes
            still carry flows, a class that emptied mid-epoch (an
            ``n == 0`` section) is skipped entirely: its filter keeps the
            last measured value instead of being dragged toward a
            meaningless zero/NaN mean, and it contributes nothing to the
            pooled estimate until it is measured again.  When the *whole*
            system is empty, every listed class observes the empty
            section, so each filter decays toward zero exactly like the
            homogeneous estimator does -- a single-class bank therefore
            tracks :class:`ExponentialMemoryEstimator` bit-for-bit.
        """
        sections = [(int(k), cs) for k, cs in sections]
        total_n = sum(cs.n for _, cs in sections)
        total_rate = sum(cs.mean * cs.n for _, cs in sections)
        live = (
            [(k, cs) for k, cs in sections if cs.n > 0]
            if total_n > 0
            else sections
        )
        overall = CrossSection(
            n=total_n,
            mean=total_rate / total_n if total_n else 0.0,
            second_moment=0.0,
            variance=0.0,
        )
        for class_id, cs in live:
            flt = self._filters.get(class_id)
            if flt is None:
                flt = ExponentialMemoryEstimator(self.memory)
                flt.reset(self.time)
                self._filters[class_id] = flt
            flt.advance(self.time)
            flt.observe(cs)
        self._classified = [(k, cs) for k, cs in live if cs.n > 0]
        self._signal = overall  # enables estimate(); overall n and mean

    def class_estimate(self, class_id: int) -> BandwidthEstimate | None:
        """Per-class estimate: the class filter, its prior, or ``None``.

        Returns the class's own filtered ``(mu, sigma)`` when the filter
        has observed data and is finite; otherwise the registered prior
        (``n == 0`` marks it as unmeasured); ``None`` when neither exists.
        """
        class_id = int(class_id)
        flt = self._filters.get(class_id)
        if flt is not None:
            out = flt.estimate_or_none()
            if (
                out is not None
                and math.isfinite(out.mu)
                and math.isfinite(out.sigma)
            ):
                return out
        return self._priors.get(class_id)

    def advance(self, t: float) -> None:
        """Advance the clock; each class filter integrates its own signal."""
        super().advance(t)
        for flt in self._filters.values():
            flt.advance(self._time)

    def _estimate(self, section: CrossSection) -> BandwidthEstimate:
        if not self._classified:
            # Fallback: no classification seen; behave homogeneously is not
            # possible without data -- report the overall section as-is.
            return BandwidthEstimate(
                mu=section.mean,
                sigma=math.sqrt(max(section.variance, 0.0)),
                n=section.n,
            )
        total_n = sum(cs.n for _, cs in self._classified)
        if total_n == 0:
            return BandwidthEstimate(mu=0.0, sigma=0.0, n=0)
        mu = 0.0
        var = 0.0
        for class_id, cs in self._classified:
            weight = cs.n / total_n
            out = self._filters[class_id].estimate()
            if not (math.isfinite(out.mu) and math.isfinite(out.sigma)):
                # A poisoned filter must not poison the pooled estimate:
                # fall back to the class prior, or failing that the class's
                # own raw cross-section.
                out = self._priors.get(class_id) or BandwidthEstimate(
                    mu=cs.mean,
                    sigma=math.sqrt(max(cs.variance, 0.0)),
                    n=cs.n,
                )
            mu += weight * out.mu
            var += weight * out.sigma**2
        return BandwidthEstimate(mu=mu, sigma=math.sqrt(var), n=total_n)


class AggregateEstimator(Estimator):
    """Aggregate-only measurement (the paper's Section 7 extension).

    Keeping per-flow state in a router is expensive; this estimator sees
    only the *aggregate* bandwidth ``S(t)`` and the flow count ``N(t)``.
    The per-flow mean is still directly measurable (``S/N``, optionally
    smoothed over ``mean_memory``); the per-flow variance, however, must be
    inferred from the *temporal* fluctuation of the aggregate:

        sigma_hat^2 = Var_time[S] / N

    which is unbiased for i.i.d. flows when ``N`` is stable over the
    variance window (true under continuous load), but -- exactly as the
    paper warns -- noisier than the cross-sectional estimator and
    meaningless without memory: a single aggregate sample carries no
    variance information at all.  ``variance_memory`` must therefore be
    positive.

    Parameters
    ----------
    variance_memory : float
        Exponential window for the temporal aggregate variance (> 0).
    mean_memory : float
        Exponential window for the mean estimate; 0 uses the instantaneous
        ``S/N``.
    """

    def __init__(self, variance_memory: float, mean_memory: float = 0.0) -> None:
        super().__init__()
        if variance_memory <= 0.0:
            raise ParameterError(
                "aggregate-only variance estimation requires memory > 0"
            )
        if mean_memory < 0.0:
            raise ParameterError("mean_memory must be non-negative")
        self.variance_memory = float(variance_memory)
        self.mean_memory = float(mean_memory)
        self._f_s = 0.0  # filtered aggregate (variance window)
        self._f_s_sq = 0.0  # filtered squared aggregate (variance window)
        self._f_mean = 0.0  # filtered per-flow mean (mean window)

    def _reset_state(self) -> None:
        self._f_s = 0.0
        self._f_s_sq = 0.0
        self._f_mean = 0.0

    @staticmethod
    def _aggregate(section: CrossSection) -> float:
        return section.mean * section.n

    def _first_observation(self, section: CrossSection) -> None:
        aggregate = self._aggregate(section)
        self._f_s = aggregate
        self._f_s_sq = aggregate * aggregate
        self._f_mean = section.mean

    def _integrate(self, section: CrossSection, dt: float) -> None:
        aggregate = self._aggregate(section)
        decay_v = math.exp(-dt / self.variance_memory)
        gain_v = 1.0 - decay_v
        self._f_s = aggregate * gain_v + self._f_s * decay_v
        self._f_s_sq = aggregate**2 * gain_v + self._f_s_sq * decay_v
        if self.mean_memory > 0.0:
            decay_m = math.exp(-dt / self.mean_memory)
            self._f_mean = section.mean * (1.0 - decay_m) + self._f_mean * decay_m

    def _estimate(self, section: CrossSection) -> BandwidthEstimate:
        n = max(section.n, 1)
        mu = self._f_mean if self.mean_memory > 0.0 else section.mean
        aggregate_var = max(0.0, self._f_s_sq - self._f_s * self._f_s)
        return BandwidthEstimate(
            mu=mu, sigma=math.sqrt(aggregate_var / n), n=section.n
        )


class PerfectEstimator(Estimator):
    """Oracle estimator returning the true ``(mu, sigma)``.

    Backs the paper's perfect-knowledge admission controller (the benchmark
    against which every MBAC is judged).
    """

    def __init__(self, mu: float, sigma: float) -> None:
        super().__init__()
        if mu <= 0.0:
            raise ParameterError("true mu must be positive")
        if sigma < 0.0:
            raise ParameterError("true sigma must be non-negative")
        self.mu = float(mu)
        self.sigma = float(sigma)
        # An oracle needs no data; mark as "observed" immediately.
        self._signal = CrossSection(n=0, mean=mu, second_moment=0.0, variance=0.0)

    def _estimate(self, section: CrossSection) -> BandwidthEstimate:
        return BandwidthEstimate(mu=self.mu, sigma=self.sigma, n=section.n)


def make_estimator(memory: float | None, *, window_shape: str = "exponential") -> Estimator:
    """Factory used by runners and experiment configs.

    Parameters
    ----------
    memory : float or None
        ``None`` or ``0`` selects the memoryless estimator; a positive value
        selects a windowed estimator with that time constant.
    window_shape : {"exponential", "sliding"}
        Which memory discipline to use when ``memory`` is positive.
    """
    if memory is None or memory == 0.0:
        return MemorylessEstimator()
    if memory < 0.0:
        raise ParameterError("memory must be non-negative")
    if window_shape == "exponential":
        return ExponentialMemoryEstimator(memory)
    if window_shape == "sliding":
        return SlidingWindowEstimator(memory)
    raise ParameterError(f"unknown window_shape {window_shape!r}")
