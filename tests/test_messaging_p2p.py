"""Point-to-point messaging semantics."""

import numpy as np
import pytest

from repro.messaging import ANY_SOURCE, ANY_TAG, payload_nbytes, run_spmd
from repro.messaging.message import ENVELOPE_BYTES
from repro.sim.engine import SimulationError


class TestSendRecv:
    def test_object_round_trip(self):
        def body(comm):
            if comm.rank == 0:
                yield from comm.send({"a": 7, "b": [1, 2]}, 1, tag=5)
                return None
            payload = yield from comm.recv(0, tag=5)
            return payload

        result = run_spmd(2, body)
        assert result.results[1] == {"a": 7, "b": [1, 2]}

    def test_buffer_round_trip(self):
        def body(comm):
            data = np.arange(100, dtype=np.int32)
            if comm.rank == 0:
                yield from comm.send(data, 1)
                return None
            received = yield from comm.recv(0)
            return received

        result = run_spmd(2, body)
        received = result.results[1]
        assert received.dtype == np.int32
        assert np.array_equal(received, np.arange(100, dtype=np.int32))

    def test_send_isolates_arrays(self):
        """Mutating the buffer after send must not corrupt the message."""
        def body(comm):
            if comm.rank == 0:
                data = np.ones(10)
                yield from comm.send(data, 1)
                data[:] = -1.0
                yield from comm.barrier()
                return None
            yield from comm.barrier()
            received = yield from comm.recv(0)
            return received

        result = run_spmd(2, body)
        assert np.array_equal(result.results[1], np.ones(10))

    def test_exchange_does_not_deadlock(self):
        """Eager sends make the classic send-then-recv exchange safe."""
        def body(comm):
            peer = 1 - comm.rank
            yield from comm.send(comm.rank, peer)
            other = yield from comm.recv(peer)
            return other

        result = run_spmd(2, body)
        assert result.results == [1, 0]

    def test_buffered_send_returns_early(self):
        def body(comm):
            if comm.rank == 0:
                yield from comm.send(b"x" * 100, 1)
                return comm.sim.now
            yield comm.sim.timeout(1.0)
            yield from comm.recv(0)
            return comm.sim.now

        result = run_spmd(2, body)
        assert result.results[0] < 1e-3

    def test_peer_range_checked(self):
        def body(comm):
            yield from comm.send(1, 5)

        with pytest.raises(IndexError):
            run_spmd(2, body)


class TestMatching:
    def test_tag_selectivity(self):
        def body(comm):
            if comm.rank == 0:
                yield from comm.send("wrong", 1, tag=1)
                yield from comm.send("right", 1, tag=2)
                return None
            chosen = yield from comm.recv(0, tag=2)
            other = yield from comm.recv(0, tag=1)
            return chosen, other

        result = run_spmd(2, body)
        assert result.results[1] == ("right", "wrong")

    def test_source_selectivity(self):
        def body(comm):
            if comm.rank in (0, 1):
                yield from comm.send(f"from{comm.rank}", 2, tag=9)
                return None
            first = yield from comm.recv(1, tag=9)
            second = yield from comm.recv(0, tag=9)
            return first, second

        result = run_spmd(3, body)
        assert result.results[2] == ("from1", "from0")

    def test_wildcards(self):
        def body(comm):
            if comm.rank == 0:
                payload, status = yield from comm.recv_with_status(
                    ANY_SOURCE, ANY_TAG)
                return payload, status.source, status.tag
            yield comm.sim.timeout(comm.rank * 1e-3)
            yield from comm.send(f"r{comm.rank}", 0, tag=comm.rank * 10)
            return None

        result = run_spmd(3, body)
        payload, source, tag = result.results[0]
        assert payload == "r1" and source == 1 and tag == 10

    def test_non_overtaking_same_source_tag(self):
        def body(comm):
            if comm.rank == 0:
                for index in range(5):
                    yield from comm.send(index, 1, tag=3)
                return None
            received = []
            for _ in range(5):
                received.append((yield from comm.recv(0, tag=3)))
            return received

        result = run_spmd(2, body)
        assert result.results[1] == [0, 1, 2, 3, 4]


class TestNonBlocking:
    def test_isend_irecv_wait(self):
        def body(comm):
            if comm.rank == 0:
                request = comm.isend(np.arange(10.0), 1)
                yield from request.wait()
                return None
            request = comm.irecv(0)
            data = yield from request.wait()
            return data

        result = run_spmd(2, body)
        assert np.array_equal(result.results[1], np.arange(10.0))

    def test_test_polls_completion(self):
        def body(comm):
            if comm.rank == 0:
                yield comm.sim.timeout(1.0)
                yield from comm.send("late", 1)
                return None
            request = comm.irecv(0)
            early_done, early_value = request.test()
            yield comm.sim.timeout(2.0)
            late_done, late_value = request.test()
            return early_done, late_done, late_value

        result = run_spmd(2, body)
        assert result.results[1] == (False, True, "late")

    def test_sendrecv(self):
        def body(comm):
            peer = (comm.rank + 1) % comm.size
            source = (comm.rank - 1) % comm.size
            received = yield from comm.sendrecv(comm.rank, peer, source)
            return received

        result = run_spmd(4, body)
        assert result.results == [3, 0, 1, 2]


class TestHarness:
    def test_deadlock_reported_with_rank(self):
        def body(comm):
            yield from comm.recv(0)  # nobody sends

        with pytest.raises(SimulationError, match="rank"):
            run_spmd(2, body)

    def test_rank_failure_reraised(self):
        def body(comm):
            yield comm.sim.timeout(0.1)
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            return "fine"

        with pytest.raises(ValueError, match="rank 1 exploded"):
            run_spmd(2, body)

    def test_finish_times_and_imbalance(self):
        def body(comm):
            yield comm.sim.timeout(float(comm.rank))
            return comm.rank

        result = run_spmd(3, body)
        assert result.finish_times == pytest.approx([0.0, 1.0, 2.0])
        assert result.elapsed == pytest.approx(2.0)
        assert result.imbalance == pytest.approx(2.0)

    def test_payload_sizing(self):
        array = np.zeros(100, dtype=np.float64)
        assert payload_nbytes(array) == 800 + ENVELOPE_BYTES
        assert payload_nbytes(b"abc") == 3 + ENVELOPE_BYTES
        assert payload_nbytes(None) > 0

    def test_size_validation(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda comm: iter(()))
