"""Synthetic batch workloads, Feitelson-style.

The generator follows the stylised facts of production parallel workloads
that the scheduling literature standardised on:

* **arrivals** — Poisson (exponential inter-arrival), with the rate set so
  the *offered load* (requested node-seconds per node per second) matches
  a target ρ;
* **widths** — log-uniform over [1, max_nodes], three quarters of them
  (``POWER_OF_TWO_BIAS``) rounded to a power of two (power-of-two bias is
  the strongest regularity in the traces), never exceeding the machine;
* **runtimes** — lognormal, heavy right tail;
* **estimates** — actual runtime times a uniform overestimation factor in
  [1, overestimate_max]; a tenth of users (``EXACT_ESTIMATE_FRACTION``)
  nail the estimate exactly.

Every distribution draws from its own named stream of a
:class:`~repro.sim.rng.RandomStreams`, so experiments can vary one aspect
(e.g. load) with common random numbers elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.scheduler.job import Job
from repro.sim.rng import RandomStreams

__all__ = ["WorkloadParams", "WorkloadGenerator"]

#: Fraction of users whose estimate equals the actual runtime.
EXACT_ESTIMATE_FRACTION = 0.1
#: Probability a width is rounded to a power of two.
POWER_OF_TWO_BIAS = 0.75


@dataclass(frozen=True)
class WorkloadParams:
    """Knobs of the synthetic workload."""

    #: Machine size jobs are sized against.
    max_nodes: int = 128
    #: Target offered load ρ in (0, ~1): requested node-seconds arriving
    #: per node-second of capacity.
    offered_load: float = 0.7
    #: Lognormal runtime parameters (seconds): exp(mu) is the median.
    runtime_log_mean: float = float(np.log(900.0))
    runtime_log_sigma: float = 1.4
    #: Upper bound of the uniform overestimation factor.
    overestimate_max: float = 5.0

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        if not 0 < self.offered_load:
            raise ValueError("offered_load must be positive")
        if self.overestimate_max < 1:
            raise ValueError("overestimate_max must be >= 1")

    @property
    def mean_runtime(self) -> float:
        """Lognormal mean: exp(mu + sigma^2 / 2)."""
        return float(np.exp(self.runtime_log_mean
                            + self.runtime_log_sigma ** 2 / 2.0))


class WorkloadGenerator:
    """Generate job streams under :class:`WorkloadParams`."""

    def __init__(self, params: WorkloadParams,
                 streams: RandomStreams) -> None:
        self.params = params
        self.streams = streams

    # -- component distributions (separately testable) ---------------------

    def sample_widths(self, count: int) -> np.ndarray:
        """Job widths in nodes (log-uniform, power-of-two biased)."""
        rng = self.streams.get("workload.widths")
        raw = np.exp(rng.uniform(0.0, np.log(self.params.max_nodes + 1),
                                 size=count))
        widths = np.clip(raw.astype(int) + 1, 1, self.params.max_nodes)
        snap = rng.random(count) < POWER_OF_TWO_BIAS
        powers = 2 ** np.round(np.log2(widths)).astype(int)
        widths = np.where(snap, np.clip(powers, 1, self.params.max_nodes),
                          widths)
        return widths

    def sample_runtimes(self, count: int) -> np.ndarray:
        """Actual runtimes (lognormal, floored at one second)."""
        rng = self.streams.get("workload.runtimes")
        runtimes = rng.lognormal(self.params.runtime_log_mean,
                                 self.params.runtime_log_sigma, size=count)
        return np.maximum(runtimes, 1.0)

    def sample_estimates(self, runtimes: np.ndarray) -> np.ndarray:
        """User estimates given actual runtimes."""
        rng = self.streams.get("workload.estimates")
        factors = rng.uniform(1.0, self.params.overestimate_max,
                              size=runtimes.shape)
        exact = rng.random(runtimes.shape) < EXACT_ESTIMATE_FRACTION
        return np.where(exact, runtimes, runtimes * factors)

    def arrival_rate(self) -> float:
        """Jobs per second that realise the target offered load.

        ρ = λ · E[nodes · runtime] / max_nodes, with the expectation
        estimated analytically from the width distribution's mean and the
        lognormal mean runtime (independence by construction).
        """
        mean_width = self._mean_width()
        work_per_job = mean_width * self.params.mean_runtime
        return self.params.offered_load * self.params.max_nodes / work_per_job

    def _mean_width(self) -> float:
        # E[width] for the log-uniform integer width (bias to powers of two
        # barely moves the mean; estimate from the continuous law).
        upper = np.log(self.params.max_nodes + 1)
        return float((np.exp(upper) - 1.0) / upper)

    # -- the job stream ----------------------------------------------------

    def generate(self, count: int, start_time: float = 0.0) -> List[Job]:
        """A list of ``count`` jobs in submit-time order."""
        if count < 1:
            raise ValueError("count must be >= 1")
        rng = self.streams.get("workload.arrivals")
        gaps = rng.exponential(1.0 / self.arrival_rate(), size=count)
        submit_times = start_time + np.cumsum(gaps)
        widths = self.sample_widths(count)
        runtimes = self.sample_runtimes(count)
        estimates = self.sample_estimates(runtimes)
        return [
            Job(job_id=i, submit_time=float(submit_times[i]),
                nodes=int(widths[i]), runtime=float(runtimes[i]),
                estimate=float(estimates[i]))
            for i in range(count)
        ]
