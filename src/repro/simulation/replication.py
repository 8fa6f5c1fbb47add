"""Replicated simulation runs: pooled estimates with between-run CIs.

A single long run gives the paper's within-run confidence interval; for
publication-grade error bars (and for embarrassingly parallel speed-ups)
one runs independent replications on provably independent random streams
and pools.  This module provides that layer on top of
:func:`repro.simulation.runner.simulate`:

* replication seeds come from one ``SeedSequence`` spawn, so streams are
  independent by construction;
* replications run sequentially or on a ``ProcessPoolExecutor``
  (``workers > 1``) with identical results either way -- the seeds are
  fixed before any work is dispatched;
* the paper-style point samples are pooled across replications
  (:meth:`OverflowRecorder.merge` semantics);
* the replication-level spread of the per-run estimates yields a
  t-interval that is valid even when within-run samples are correlated.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ParameterError
from repro.simulation.runner import SimulationConfig, SimulationResult, simulate

__all__ = ["ReplicatedResult", "replicated_simulate", "t_quantile_95"]

logger = logging.getLogger(__name__)


def t_quantile_95(dof: float) -> float:
    """Two-sided 95% Student-t quantile ``t_{0.975, dof}`` for any dof.

    Smooth in ``dof`` (fractional degrees of freedom are fine), exact to
    double precision via the regularized incomplete-beta inverse, and
    converging to the Gaussian 1.96 asymptote as ``dof -> inf``.  Replaces
    the coarse hardcoded table this module used to interpolate.
    """
    if dof <= 0:
        return math.inf
    # Imported here: scipy.stats adds ~20 MiB to every process that
    # imports the package, and only replication reports need it.
    from scipy import stats

    return float(stats.t.ppf(0.975, dof))


def _t_quantile(dof: float) -> float:
    return t_quantile_95(dof)


@dataclass(frozen=True)
class ReplicatedResult:
    """Pooled outcome of independent replications.

    Attributes
    ----------
    overflow_probability : float
        Mean of the per-replication headline estimates.
    ci_halfwidth : float
        95% t-interval half-width on that mean (between-replication
        variance -- robust to within-run correlation).
    mean_utilization, mean_flows : float
        Replication means of the secondary metrics.
    replications : tuple of SimulationResult
        The individual runs, for inspection.
    """

    overflow_probability: float
    ci_halfwidth: float
    mean_utilization: float
    mean_flows: float
    replications: tuple

    @property
    def n_replications(self) -> int:
        """Number of pooled independent runs."""
        return len(self.replications)

    @property
    def total_samples(self) -> int:
        """Paper-style point samples pooled across replications."""
        return sum(r.n_samples for r in self.replications)


def replicated_simulate(
    config: SimulationConfig,
    n_replications: int,
    *,
    base_seed: int | None = None,
    workers: int = 1,
) -> ReplicatedResult:
    """Run ``n_replications`` independent copies of ``config`` and pool.

    Parameters
    ----------
    config : SimulationConfig
        The run configuration; its ``seed`` field is ignored in favour of
        spawned streams.
    n_replications : int
        Independent runs (>= 2 for a finite confidence interval).
    base_seed : int, optional
        Seed for the spawning ``SeedSequence`` (defaults to ``config.seed``).
    workers : int
        Process-pool width.  ``1`` (the default) runs in-process;
        ``workers > 1`` fans the replications out over a
        ``ProcessPoolExecutor``.  Results are bit-identical across worker
        counts because every replication's seed is fixed up front and
        results are collected in submission order.

    Notes
    -----
    ``SimulationConfig.seed`` accepts integers only, so replication seeds
    are drawn as 63-bit integers from the spawned sequences -- independence
    is inherited from ``SeedSequence`` spawning.
    """
    if n_replications < 1:
        raise ParameterError("n_replications must be at least 1")
    if workers < 1:
        raise ParameterError("workers must be at least 1")
    seq = np.random.SeedSequence(base_seed if base_seed is not None else config.seed)
    children = seq.spawn(n_replications)
    configs = [
        replace(config, seed=int(child.generate_state(1, dtype=np.uint64)[0] >> 1))
        for child in children
    ]
    workers = min(workers, n_replications)
    if workers > 1:
        logger.info(
            "replicated_simulate: %d replications on %d workers",
            n_replications, workers,
        )
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results: list[SimulationResult] = list(pool.map(simulate, configs))
    else:
        results = [simulate(c) for c in configs]

    estimates = np.array([r.overflow_probability for r in results])
    mean = float(estimates.mean())
    if n_replications >= 2:
        spread = float(estimates.std(ddof=1)) / math.sqrt(n_replications)
        half = _t_quantile(n_replications - 1) * spread
    else:
        half = math.inf
    return ReplicatedResult(
        overflow_probability=mean,
        ci_halfwidth=half,
        mean_utilization=float(np.mean([r.mean_utilization for r in results])),
        mean_flows=float(np.mean([r.mean_flows for r in results])),
        replications=tuple(results),
    )
