"""Named, independent, reproducible random streams.

Stochastic model components (workload arrivals, failure times, message
jitter) must each draw from their *own* stream so that adding randomness to
one component cannot perturb another — the classic variance-reduction
discipline for simulation experiments.  :class:`RandomStreams` derives one
:class:`numpy.random.Generator` per name from a root seed using NumPy's
``SeedSequence.spawn`` machinery, which guarantees statistical independence
between children.

Usage::

    streams = RandomStreams(seed=42)
    arrivals = streams.get("workload.arrivals")
    failures = streams.get("fault.node")      # independent of arrivals
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """A registry of independent RNG streams keyed by dotted names.

    The same ``(seed, name)`` pair always yields a generator with the same
    initial state, regardless of creation order — names are hashed into the
    seed material rather than assigned sequential spawn keys.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._generators: Dict[str, np.random.Generator] = {}

    def _sequence(self, name: str) -> np.random.SeedSequence:
        # Mix the stream name into the entropy deterministically.  The
        # digest is stable across processes (unlike hash()) because it
        # uses the bytes of the name itself.
        name_key = tuple(name.encode("utf-8"))
        return np.random.SeedSequence(entropy=self.seed, spawn_key=name_key)

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        generator = self._generators.get(name)
        if generator is None:
            generator = np.random.default_rng(self._sequence(name))
            self._generators[name] = generator
        return generator

    def fresh(self, name: str) -> np.random.Generator:
        """A NEW generator for ``name`` in its deterministic initial state.

        Unlike :meth:`get`, the result is not cached: every call returns
        an independent generator object starting from the same state.
        SPMD programs use this so every simulated rank can derive
        identical input data without sharing (and therefore perturbing)
        one generator's state.
        """
        return np.random.default_rng(self._sequence(name))

    def fork(self, salt: int) -> "RandomStreams":
        """A new registry whose streams are independent of this one.

        Used for replications: ``streams.fork(rep)`` gives replication
        ``rep`` its own universe of streams while staying reproducible.
        """
        return RandomStreams(seed=self.seed * 1_000_003 + int(salt) + 1)

    def names(self):
        """Names of the streams created so far (sorted)."""
        return sorted(self._generators)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self.seed}, streams={len(self._generators)})"
