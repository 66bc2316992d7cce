"""Replication statistics for stochastic experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "SummaryStats",
    "summarize",
    "confidence_interval",
    "geometric_mean",
    "speedup_curve",
]


@dataclass(frozen=True)
class SummaryStats:
    """Mean, spread and a t-based confidence interval."""

    mean: float
    std: float
    count: int
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def ci_halfwidth(self) -> float:
        """Half the confidence-interval width."""
        return (self.ci_high - self.ci_low) / 2.0

    @property
    def relative_halfwidth(self) -> float:
        """CI half-width over mean — the usual stopping criterion."""
        if self.mean == 0:
            return float("inf")
        return self.ci_halfwidth / abs(self.mean)


def summarize(samples: Sequence[float],
              confidence: float = 0.95) -> SummaryStats:
    """Mean/std plus a Student-t confidence interval on the mean."""
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        raise ValueError("no samples")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    mean = float(values.mean())
    if values.size == 1:
        return SummaryStats(mean=mean, std=0.0, count=1,
                            ci_low=mean, ci_high=mean,
                            confidence=confidence)
    # Imported here: scipy costs more to import than the rest of repro.
    from scipy import stats

    std = float(values.std(ddof=1))
    halfwidth = (std / np.sqrt(values.size)
                 * stats.t.ppf((1 + confidence) / 2.0, values.size - 1))
    return SummaryStats(
        mean=mean, std=std, count=int(values.size),
        ci_low=mean - float(halfwidth), ci_high=mean + float(halfwidth),
        confidence=confidence,
    )


def confidence_interval(samples: Sequence[float],
                        confidence: float = 0.95) -> Tuple[float, float]:
    """Just the (low, high) t-interval on the mean."""
    summary = summarize(samples, confidence)
    return summary.ci_low, summary.ci_high


def geometric_mean(samples: Sequence[float]) -> float:
    """Geometric mean — the right average for speedup ratios."""
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        raise ValueError("no samples")
    if np.any(values <= 0):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(values))))


def speedup_curve(baseline_time: float,
                  times: Sequence[float]) -> np.ndarray:
    """Speedups vs one baseline time (elementwise baseline/t)."""
    values = np.asarray(list(times), dtype=float)
    if baseline_time <= 0 or np.any(values <= 0):
        raise ValueError("times must be positive")
    return baseline_time / values
