"""Curve tabulation: turn a roadmap into the rows a report prints.

The keynote's Figure-1-equivalent is "the performance, capacity, power,
size, and cost curves of future commodity clusters"; :func:`technology_curve`
produces one named curve as ``(years, values)`` arrays and
:func:`curve_table` assembles the full multi-quantity table.  The
``e01_tech_curves`` fleet experiment (:mod:`repro.xp.analytic`) checks
the curves' shape claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.tech.roadmap import TechnologyRoadmap

__all__ = ["CurvePoint", "technology_curve", "curve_table", "DERIVED_CURVES"]


@dataclass(frozen=True)
class CurvePoint:
    """One (year, value) sample of a named technology curve."""

    curve: str
    year: float
    value: float


#: Derived curves exposed by name alongside the roadmap primaries.
DERIVED_CURVES: Dict[str, Callable[[TechnologyRoadmap, float], float]] = {
    "dollars_per_flops": lambda r, y: r.dollars_per_flops(y),
    "watts_per_flops": lambda r, y: r.watts_per_flops(y),
    "flops_per_rack_unit": lambda r, y: r.flops_per_rack_unit(y),
    "bytes_per_flops": lambda r, y: r.bytes_per_flops(y),
}


def technology_curve(roadmap: TechnologyRoadmap, quantity: str,
                     years: Sequence[float]) -> np.ndarray:
    """Values of ``quantity`` (primary or derived) at each of ``years``.

    Returns a float array aligned with ``years``.
    """
    year_array = np.asarray(list(years), dtype=float)
    if quantity in DERIVED_CURVES:
        fn = DERIVED_CURVES[quantity]
        return np.array([fn(roadmap, float(y)) for y in year_array])
    projection = roadmap.quantity(quantity)
    return np.asarray(projection.value(year_array), dtype=float)


def curve_table(roadmap: TechnologyRoadmap, years: Sequence[float],
                quantities: Sequence[str]) -> List[List[CurvePoint]]:
    """A row per year, a :class:`CurvePoint` per quantity.

    The nested-list shape mirrors how report tables are printed: outer list
    is rows (years), inner list is columns (quantities).
    """
    rows: List[List[CurvePoint]] = []
    columns = {q: technology_curve(roadmap, q, years) for q in quantities}
    for i, year in enumerate(years):
        rows.append([
            CurvePoint(curve=q, year=float(year), value=float(columns[q][i]))
            for q in quantities
        ])
    return rows
