"""Message envelopes, wildcards, size estimation, reduction operators."""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Envelope",
    "Status",
    "payload_nbytes",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "BAND",
    "LOR",
]

#: Wildcards for ``recv`` matching, mirroring MPI.
ANY_SOURCE = -1
ANY_TAG = -1

#: Fixed per-message envelope overhead on the wire (headers, matching info).
ENVELOPE_BYTES = 64


@dataclass(frozen=True)
class Envelope:
    """A message in flight: routing metadata plus the payload object.

    ``context`` identifies the communicator the message belongs to (0 is
    the world); receives only ever match within their own context, which
    is how split sub-communicators are isolated without tag arithmetic.
    """

    source: int
    dest: int
    tag: int
    payload: Any
    nbytes: int
    context: Any = 0
    #: True when the message travelled under the reliable-delivery
    #: protocol (retransmit-until-acknowledged); ``seq`` is then its
    #: world-unique sequence number.  Informational — deduplication
    #: happens in the delivery process, not at match time.
    reliable: bool = False
    seq: Optional[int] = None

    def matches(self, source: int, tag: int) -> bool:
        """Does this envelope satisfy a receive posted for (source, tag)?"""
        source_ok = source == ANY_SOURCE or source == self.source
        tag_ok = tag == ANY_TAG or tag == self.tag
        return source_ok and tag_ok


@dataclass(frozen=True)
class Status:
    """Receive status: where the message actually came from."""

    source: int
    tag: int
    nbytes: int


def payload_nbytes(obj: Any) -> int:
    """Wire size of a payload, envelope included.

    numpy arrays travel at their buffer size (the mpi4py "uppercase" fast
    path); bytes-likes at their length; everything else at its pickled
    length (the "lowercase" path).
    """
    if isinstance(obj, np.ndarray):
        data = obj.nbytes
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        data = len(obj)
    elif isinstance(obj, np.generic):
        data = obj.nbytes
    else:
        data = len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    return int(data) + ENVELOPE_BYTES


def _elementwise(array_fn: Callable, scalar_fn: Callable) -> Callable:
    """Reduction op that handles numpy arrays and plain scalars alike."""

    def op(a: Any, b: Any) -> Any:
        """Combine two payloads (numpy arrays elementwise, scalars
        directly); associative and commutative."""
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return array_fn(a, b)
        return scalar_fn(a, b)

    return op


#: Reduction operators for ``reduce``/``allreduce``.  All are associative
#: and commutative over the payloads the library sends (numbers and numpy
#: arrays), which the collective algorithms rely on.
SUM = _elementwise(np.add, lambda a, b: a + b)
PROD = _elementwise(np.multiply, lambda a, b: a * b)
MAX = _elementwise(np.maximum, max)
MIN = _elementwise(np.minimum, min)
BAND = _elementwise(np.bitwise_and, lambda a, b: a & b)
LOR = _elementwise(np.logical_or, lambda a, b: bool(a) or bool(b))
