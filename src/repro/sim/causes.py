"""Structured interrupt causes for fault events.

:meth:`~repro.sim.engine.Process.interrupt` carries an arbitrary
``cause``; historically fault injection used bare tuples like
``("failure", 3)``.  These NamedTuples keep that wire format — they
*are* tuples, so ``cause == ("failure", 3)`` still holds and existing
matching code keeps working — while giving the fault campaign layer
named fields and a taxonomy:

* :class:`FailureCause` — a node/process failure injected by a
  :class:`~repro.fault.injection.FaultInjector` or a campaign;
* :class:`AbortCause` — collateral teardown: the job is being torn
  down because some *other* rank failed (coordinated restart).

Equality with the plain-tuple forms is part of the contract and is
pinned by tests.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["FailureCause", "AbortCause"]


class FailureCause(NamedTuple):
    """Injected node/process failure number ``index``.

    Compares equal to the legacy ``("failure", index)`` tuple.
    """

    kind: str
    index: int

    @classmethod
    def numbered(cls, index: int) -> "FailureCause":
        """The canonical cause for the ``index``-th injected failure."""
        return cls("failure", index)


class AbortCause(NamedTuple):
    """Collateral job teardown after failure ``index`` hit ``victim``.

    Compares equal to ``("job-abort", victim, index)``.
    """

    kind: str
    victim: int
    index: int

    @classmethod
    def numbered(cls, victim: int, index: int) -> "AbortCause":
        """The canonical cause for tearing down peers of ``victim``."""
        return cls("job-abort", victim, index)
