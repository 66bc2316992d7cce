"""Named (x, y) curves — the "figure" data structure.

One :class:`Series` per plotted line, with interpolation and
level-crossing lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

__all__ = ["Series"]


@dataclass
class Series:
    """One curve: a label and parallel x/y sequences."""

    name: str
    x: List[float] = field(default_factory=list)
    y: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.name!r}: {len(self.x)} x vs {len(self.y)} y"
            )

    def add(self, x: float, y: float) -> None:
        """Append one sample point."""
        self.x.append(float(x))
        self.y.append(float(y))

    def __len__(self) -> int:
        return len(self.x)

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The x and y sequences as numpy arrays."""
        return np.asarray(self.x), np.asarray(self.y)

    def interpolate(self, x: float) -> float:
        """Linear interpolation (extrapolation clamps to the end values)."""
        xs, ys = self.as_arrays()
        if len(xs) == 0:
            raise ValueError(f"series {self.name!r} is empty")
        order = np.argsort(xs)
        return float(np.interp(x, xs[order], ys[order]))

    def crossing(self, level: float) -> float:
        """First x at which y crosses ``level`` (linear between samples).

        Raises :class:`ValueError` if the series never crosses.
        """
        xs, ys = self.as_arrays()
        for i in range(1, len(xs)):
            lo, hi = ys[i - 1], ys[i]
            if (lo - level) * (hi - level) <= 0 and lo != hi:
                fraction = (level - lo) / (hi - lo)
                return float(xs[i - 1] + fraction * (xs[i] - xs[i - 1]))
        raise ValueError(f"series {self.name!r} never crosses {level}")

