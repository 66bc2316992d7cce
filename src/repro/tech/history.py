"""Historical anchors: the public Top500 record, 1997–2010.

The keynote's trajectory claims are Top500 claims, so the reproduction
carries the public record of #1 systems as external calibration data.
``rmax`` values are the published LINPACK results (TFLOPS); ``commodity``
marks systems built from commodity processors + commercial interconnects
(the keynote's subject) as opposed to vector/custom machines.

Used by bench E16 to check that the roadmap's slope matches what actually
happened — the strongest external validation available for a vision talk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = ["Top500Entry", "TOP500_NUMBER_ONES", "historical_slope",
           "first_commodity_petaflops_year"]


@dataclass(frozen=True)
class Top500Entry:
    """One #1 system from the public record."""

    year: float           # list edition (mid-year convention for June)
    name: str
    rmax_tflops: float
    commodity: bool


#: #1 systems at the June list of each year (rmax in TFLOPS).
TOP500_NUMBER_ONES: List[Top500Entry] = [
    Top500Entry(1997.5, "ASCI Red", 1.068, True),
    Top500Entry(1999.5, "ASCI Red (upgraded)", 2.121, True),
    Top500Entry(2000.5, "ASCI White", 4.938, False),
    Top500Entry(2002.5, "Earth Simulator", 35.86, False),
    Top500Entry(2004.9, "BlueGene/L", 70.72, True),
    Top500Entry(2005.9, "BlueGene/L", 280.6, True),
    Top500Entry(2007.9, "BlueGene/L (upgraded)", 478.2, True),
    Top500Entry(2008.5, "Roadrunner", 1026.0, True),
    Top500Entry(2009.9, "Jaguar", 1759.0, True),
    Top500Entry(2010.9, "Tianhe-1A", 2566.0, True),
]


def historical_slope(start_year: float = 1997.0,
                     end_year: float = 2011.0) -> float:
    """Fitted yearly growth factor of #1 Rmax over a span (log-linear
    least squares).  The full-record answer is the famous ~1.8-1.9x/year."""
    points = [(e.year, e.rmax_tflops) for e in TOP500_NUMBER_ONES
              if start_year <= e.year <= end_year]
    if len(points) < 2:
        raise ValueError("need at least two record points in the span")
    years = np.array([p[0] for p in points])
    logs = np.log(np.array([p[1] for p in points]))
    slope, _intercept = np.polyfit(years, logs, 1)
    return float(np.exp(slope))


def first_commodity_petaflops_year() -> float:
    """Year the record shows the first commodity petaflops (Roadrunner)."""
    for entry in TOP500_NUMBER_ONES:
        if entry.commodity and entry.rmax_tflops >= 1000.0:
            return entry.year
    raise RuntimeError("record table is missing the petaflops entry")
