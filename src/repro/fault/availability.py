"""Machine availability: how much of the cluster is up, and its spares.

Checkpointing protects *jobs*; this module quantifies the *machine*:
with per-node failures (MTBF) and a repair pipeline (MTTR), each node is
an independent two-state process, so

* per-node availability is ``A = MTBF / (MTBF + MTTR)``;
* the number of up nodes is Binomial(n, A), with mean ``n x A`` —
  tightly concentrated for large n, which is why big clusters run
  degraded but predictable.

These are the capacity-planning questions behind the keynote's "resource
management and fault recovery" software: a 10k-node machine with 3-year
nodes and half-hour repairs is *always* missing a handful of nodes, and
the scheduler must be built for that (see
:class:`repro.scheduler.FaultyBatchSimulator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.health.monitor import DeathRecord
from repro.health.spares import SparePool

__all__ = [
    "DetectorDrivenSparePool",
    "NodeAvailability",
    "node_availability",
    "expected_up_nodes",
]


@dataclass(frozen=True)
class NodeAvailability:
    """Per-node steady-state availability from MTBF and MTTR."""

    mtbf_seconds: float
    mttr_seconds: float

    def __post_init__(self) -> None:
        if self.mtbf_seconds <= 0:
            raise ValueError("MTBF must be positive")
        if self.mttr_seconds < 0:
            raise ValueError("MTTR must be non-negative")

    @property
    def availability(self) -> float:
        """Fraction of time one node is up: MTBF / (MTBF + MTTR)."""
        return self.mtbf_seconds / (self.mtbf_seconds + self.mttr_seconds)

    @property
    def unavailability(self) -> float:
        """1 - availability (the 'nines' complement)."""
        return self.mttr_seconds / (self.mtbf_seconds + self.mttr_seconds)


def node_availability(mtbf_seconds: float,
                      mttr_seconds: float) -> float:
    """Per-node availability ``MTBF / (MTBF + MTTR)``."""
    return NodeAvailability(mtbf_seconds, mttr_seconds).availability


def expected_up_nodes(node_count: int, availability: float) -> float:
    """Mean number of simultaneously-up nodes (``n x A``)."""
    if node_count < 1:
        raise ValueError("node_count must be >= 1")
    if not 0.0 < availability <= 1.0:
        raise ValueError("availability must be in (0, 1]")
    return node_count * availability


class DetectorDrivenSparePool:
    """A :class:`~repro.health.spares.SparePool` that only the detection
    layer can drain.

    One rule is enforced by the API: an activation requires a
    :class:`~repro.health.monitor.DeathRecord` — the health layer's
    *declaration* of death — so ground truth (a crash nobody has
    detected yet) cannot activate a spare, and a partition's lie (a
    false-positive declaration) *does*.  The supervisor pays for false
    positives with real capacity, exactly as production clusters do;
    ``false_activations`` counts that bill, read from the record's own
    ground-truth annotation (metrics only, never decisions).
    """

    def __init__(self, spare_ids: Sequence[int]) -> None:
        self._pool = SparePool(spare_ids)
        #: Every activation's driving declaration, in order.
        self.records: List[DeathRecord] = []
        self.false_activations = 0

    @property
    def depth(self) -> int:
        """Spares currently available."""
        return self._pool.depth

    @property
    def min_depth(self) -> int:
        """Lowest depth ever reached (pool-sizing signal)."""
        return self._pool.min_depth

    @property
    def activations(self) -> int:
        """Successful activations so far."""
        return self._pool.activations

    @property
    def ids(self) -> Tuple[int, ...]:
        """Available spare ids, ascending."""
        return self._pool.ids

    def __contains__(self, node: int) -> bool:
        return node in self._pool

    def activate(self, record: DeathRecord) -> Optional[int]:
        """Activate the lowest spare for a *declared* death.

        Returns the activated node id, or ``None`` when the pool is
        dry.  Raises ``TypeError`` unless ``record`` is a genuine
        :class:`DeathRecord`: there is deliberately no way to activate
        a spare from ground truth alone.
        """
        if not isinstance(record, DeathRecord):
            raise TypeError(
                "spare activation requires a DeathRecord from the "
                f"health layer, got {record!r}")
        node = self._pool.activate()
        if node is not None:
            self.records.append(record)
            if record.false_positive:
                self.false_activations += 1
        return node

    def refill(self, node: int) -> None:
        """Return a repaired node to the pool."""
        self._pool.refill(node)

    def discard(self, node: int) -> bool:
        """Remove a spare that itself died; True when it was pooled."""
        return self._pool.discard(node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DetectorDrivenSparePool depth={self.depth} "
                f"activations={self.activations} "
                f"false={self.false_activations}>")
