"""User-level messaging in virtual time.

An MPI-flavoured message-passing layer running *inside* the discrete-event
simulator.  The API follows mpi4py's lowercase idiom — methods move
arbitrary Python objects, numpy arrays included — except that every
blocking call is a generator to be driven with ``yield from`` (this is how
a simulated process "blocks").

Why simulated: the calibration note for this reproduction observes that
CPython interpreter overhead (microseconds per bytecode) would drown the
microsecond-scale latencies the keynote's networking claims are about.  In
virtual time the latency of a message is a *model quantity* from the LogGP
parameters of the chosen interconnect, so comparisons between technologies
are exact.

Public surface
--------------
:class:`Communicator`
    Point-to-point (``send``/``recv``/``isend``/``irecv``/``sendrecv``),
    collectives (``barrier``/``bcast``/``allreduce``/``gather``
    /``allgather``/``alltoall``) and ``split``.
:func:`run_spmd`
    Harness: run one generator function per rank over a chosen fabric and
    return per-rank results plus elapsed virtual time.
:data:`ANY_SOURCE`, :data:`ANY_TAG`, :data:`SUM`, :data:`MAX`, ...
    Wildcards and reduction operators.
"""

from repro.messaging.message import (
    ANY_SOURCE,
    ANY_TAG,
    BAND,
    LOR,
    MAX,
    MIN,
    PROD,
    SUM,
    Envelope,
    Status,
    payload_nbytes,
)
from repro.messaging.comm import (
    CommConfig,
    CommStats,
    CommTimeout,
    CommWorld,
    Communicator,
    DeliveryError,
    RankFailure,
    Request,
    SubCommunicator,
)
from repro.messaging.program import SpmdResult, make_world, run_spmd

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "BAND",
    "CommConfig",
    "CommStats",
    "CommTimeout",
    "CommWorld",
    "Communicator",
    "DeliveryError",
    "Envelope",
    "LOR",
    "MAX",
    "MIN",
    "PROD",
    "RankFailure",
    "Request",
    "SUM",
    "SpmdResult",
    "Status",
    "SubCommunicator",
    "make_world",
    "payload_nbytes",
    "run_spmd",
]
