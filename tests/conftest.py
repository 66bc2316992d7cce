"""Shared fixtures and setup helpers for the test suite.

The plain functions (``small_fat_tree``, ``drive_transfer``,
``make_ring_world``, ``drive_ring_exchange``, ``make_summa_spec``,
``make_stencil_spec``) are the canonical seeded-fabric/comm/campaign
builders; import them with ``from tests.conftest import ...``.  They
used to live in individual test modules, but the observability tests
exercise the same worlds, so one definition now serves everyone.
"""

import pytest

import repro.apps.campaigns  # noqa: F401  (registers the campaign kernels)
from repro.fault import CampaignSpec, LinkFaultSpec, NodeFaultSpec
from repro.messaging import CommConfig
from repro.messaging.program import make_world
from repro.network import (
    FabricFaultPlan,
    FatTreeTopology,
    NetworkUnreachable,
    TransferDropped,
)
from repro.sim import RandomStreams, Simulator
from repro.tech import get_scenario

#: Ranks in the standard ring-exchange world.
RING = 4

#: >= 3 node faults, each striking a running incarnation (faults that
#: strike mid-restart are pinned in test_fault_campaign_golden.py).
CAMPAIGN_NODE_FAULTS = (NodeFaultSpec(time=0.0006, rank=1),
                        NodeFaultSpec(time=0.0021, rank=3),
                        NodeFaultSpec(time=0.0048, rank=0))

#: >= 2 link-down windows: one host link (transfers must retry until it
#: returns) and one spine link (transfers re-route via the other spine).
CAMPAIGN_LINK_FAULTS = (LinkFaultSpec(start=0.0, duration=0.004,
                                      a=("h", 0), b=("s", 0)),
                        LinkFaultSpec(start=0.0, duration=0.02,
                                      a=("s", 0), b=("s", 2)))


def small_fat_tree():
    """4 hosts, 2 per leaf, full bisection: h0,h1 on s0; h2,h3 on s1;
    spines s2, s3."""
    return FatTreeTopology(4, hosts_per_leaf=2, spines=2)


def drive_transfer(sim, fabric, src, dst, nbytes=1024, delay=0.0):
    """Drive one fault-aware transfer to completion; returns outcome or
    the raised fault."""
    out = {}

    def body():
        if delay > 0:
            yield sim.timeout(delay)
        try:
            out["outcome"] = yield from fabric.transfer_ex(src, dst, nbytes)
        except (NetworkUnreachable, TransferDropped) as exc:
            out["error"] = exc

    sim.process(body())
    sim.run()
    return out


def make_ring_world(drop=0.0, seed=0, obs=None, **config_kwargs):
    """A ``RING``-rank world with seeded streams and optional loss."""
    streams = RandomStreams(seed)
    plan = None
    if drop > 0:
        plan = FabricFaultPlan(drop_probability=drop,
                               rng=streams.get("net.loss"))
    config = CommConfig(**config_kwargs) if config_kwargs else CommConfig()
    return make_world(RING, config=config, streams=streams,
                      fault_plan=plan, obs=obs)


def drive_ring_exchange(world, rounds=2):
    """Each rank sends to its right neighbour and receives from its
    left, ``rounds`` times; returns {rank: [payloads]}."""
    got = {rank: [] for rank in range(RING)}

    def body(rank):
        comm = world.communicator(rank)
        for round_no in range(rounds):
            yield from comm.send((round_no, rank), (rank + 1) % RING,
                                 tag=round_no)
            payload = yield from comm.recv((rank - 1) % RING, round_no)
            got[rank].append(payload)

    for rank in range(RING):
        world.sim.process(body(rank))
    world.sim.run()
    return got


def make_summa_spec(**overrides):
    """The standard 4-rank SUMMA campaign spec (3 node + 2 link faults)."""
    base = dict(
        kernel="summa", ranks=4, name="test-summa",
        app_args=(("n", 8),),
        node_faults=CAMPAIGN_NODE_FAULTS, link_faults=CAMPAIGN_LINK_FAULTS,
        restart_seconds=2e-4, checkpoint_write_seconds=1e-4,
        seed=7,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def make_stencil_spec(**overrides):
    """The standard 4-rank stencil2d campaign spec (same fault plan)."""
    base = dict(
        kernel="stencil2d", ranks=4, name="test-stencil2d",
        app_args=(("n", 12), ("iterations", 6)),
        node_faults=CAMPAIGN_NODE_FAULTS, link_faults=CAMPAIGN_LINK_FAULTS,
        restart_seconds=2e-4, checkpoint_write_seconds=1e-4,
        seed=7,
    )
    base.update(overrides)
    return CampaignSpec(**base)


@pytest.fixture
def sim():
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def streams():
    """Deterministic RNG streams (seed 12345)."""
    return RandomStreams(seed=12345)


@pytest.fixture
def nominal():
    """The nominal technology roadmap."""
    return get_scenario("nominal")


@pytest.fixture
def loop_calls(monkeypatch):
    """Counts, for one test, the ``Simulator._dispatch`` calls (one per
    event the instrumented loop delivers) and the ``Simulator.run``
    calls given a ``stop`` predicate."""
    counts = {"dispatch": 0, "stop_runs": 0}
    dispatch = Simulator._dispatch
    run = Simulator.run

    def counting_dispatch(self, entry):
        counts["dispatch"] += 1
        return dispatch(self, entry)

    def counting_run(self, until=None, max_events=None, stop=None):
        if stop is not None:
            counts["stop_runs"] += 1
        return run(self, until, max_events, stop)

    monkeypatch.setattr(Simulator, "_dispatch", counting_dispatch)
    monkeypatch.setattr(Simulator, "run", counting_run)
    return counts
