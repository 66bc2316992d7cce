"""Cross-cutting edge cases the per-module suites do not reach."""

import numpy as np
import pytest

from repro import format_flops, get_scenario, make_node, run_spmd, SUM
from repro.analysis import Table
from repro.cluster import ClusterSpec, design_cluster
from repro.messaging import ANY_TAG, make_world
from repro.network import Fabric, SingleSwitchTopology, get_interconnect
from repro.sim import Simulator, Store
from repro.units import format_si


class TestEngineEdges:
    def test_run_until_with_max_events_combined(self, sim):
        for _ in range(10):
            sim.timeout(1.0)
        sim.run(until=5.0, max_events=3)
        assert sim.events_executed == 3
        assert sim.now == 1.0

    def test_peek_after_drain(self, sim):
        sim.timeout(1.0)
        sim.run()
        assert sim.peek() == float("inf")

    def test_step_on_empty_queue_raises(self, sim):
        with pytest.raises(IndexError):
            sim.step()

    def test_timeout_value_none_by_default(self, sim):
        def body(sim):
            got = yield sim.timeout(1.0)
            return got

        assert sim.run_process(body(sim)) is None

    def test_two_simulators_fully_independent(self):
        first, second = Simulator(), Simulator()
        first.timeout(5.0)
        second.timeout(1.0)
        first.run()
        assert first.now == 5.0
        assert second.now == 0.0


class TestMessagingEdges:
    def test_self_send_self_recv(self):
        """A rank may message itself (local copy path)."""
        def body(comm):
            yield from comm.send("note to self", comm.rank, tag=3)
            back = yield from comm.recv(comm.rank, tag=3)
            return back

        assert run_spmd(2, body).results == ["note to self"] * 2

    def test_zero_length_array_payload(self):
        def body(comm):
            if comm.rank == 0:
                yield from comm.send(np.array([]), 1)
                return None
            got = yield from comm.recv(0)
            return got.size

        assert run_spmd(2, body).results[1] == 0

    def test_any_tag_with_specific_source(self):
        def body(comm):
            if comm.rank == 0:
                yield from comm.send("a", 1, tag=10)
                return None
            payload = yield from comm.recv(0, tag=ANY_TAG)
            return payload

        assert run_spmd(2, body).results[1] == "a"

    def test_single_rank_collectives_are_trivial(self):
        def body(comm):
            a = yield from comm.allreduce(7, SUM)
            b = yield from comm.bcast(8, root=0)
            c = yield from comm.gather(9, root=0)
            d = yield from comm.alltoall([10])
            yield from comm.barrier()
            return a, b, c, d

        assert run_spmd(1, body).results == [(7, 8, [9], [10])]

    def test_world_communicator_reuse(self):
        """Multiple communicators for the same rank share mailboxes."""
        world = make_world(2)
        first = world.communicator(0)
        second = world.communicator(0)
        assert first is not second
        assert first.world is second.world


class TestUnitsEdges:
    def test_format_si_negative(self):
        assert format_si(-2.5e9, "FLOPS").startswith("-2.5")

    def test_format_flops_tiny(self):
        assert "e" in format_flops(1e-6)


class TestTableEdges:
    def test_empty_table_renders_header_only(self):
        table = Table(["a", "b"])
        lines = table.render().splitlines()
        assert len(lines) == 2  # header + rule
        assert len(table) == 0

    def test_mixed_type_column_left_aligns(self):
        table = Table(["v"])
        table.add_row([1])
        table.add_row(["text"])
        # The column saw a non-numeric value: it left-aligns.
        assert table.render().splitlines()[-1].startswith("text")


class TestClusterEdges:
    def test_spec_str_mentions_parts(self, nominal):
        spec = design_cluster("mymachine", nominal, 2005, 10,
                              "blade", "infiniband_4x")
        text = str(spec)
        assert "mymachine" in text
        assert "blade" in text
        assert "infiniband_4x" in text

    def test_single_node_cluster(self, nominal):
        node = make_node("conventional", nominal, 2005)
        spec = ClusterSpec("solo", node, 1,
                           get_interconnect("gigabit_ethernet"), 2005)
        assert spec.peak_flops == node.peak_flops


class TestFabricEdges:
    def test_transfer_record_duration(self):
        sim = Simulator()
        fabric = Fabric(sim, SingleSwitchTopology(2),
                        get_interconnect("infiniband_4x"),
                        record_transfers=True)

        def body():
            yield from fabric.transfer_ex(0, 1, 1000)
            return None

        sim.run_process(body())
        record = fabric.records[0]
        assert record.duration == pytest.approx(record.end - record.start)
        assert record.duration > 0

    def test_store_len_and_repr(self, sim):
        store = Store(sim, name="box")

        def body(sim, store):
            yield store.put(1)
            yield store.put(2)

        sim.process(body(sim, store))
        sim.run()
        assert len(store) == 2
        assert "box" in repr(store)


class TestScenarioEdges:
    def test_scenarios_are_distinct_objects(self):
        assert get_scenario("nominal") is get_scenario("nominal")
        assert get_scenario("nominal") is not get_scenario("aggressive")

    def test_fractional_years_supported(self, nominal):
        mid = nominal.value("node_peak_flops", 2005.5)
        low = nominal.value("node_peak_flops", 2005.0)
        high = nominal.value("node_peak_flops", 2006.0)
        assert low < mid < high
