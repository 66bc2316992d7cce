"""Availability arithmetic: per node and across the fleet."""

import pytest

from repro.fault import NodeAvailability, expected_up_nodes, node_availability

YEAR = 365.25 * 86400.0


class TestNodeAvailability:
    def test_formula(self):
        record = NodeAvailability(mtbf_seconds=900.0, mttr_seconds=100.0)
        assert record.availability == pytest.approx(0.9)
        assert record.unavailability == pytest.approx(0.1)

    def test_zero_mttr_is_perfect(self):
        assert node_availability(100.0, 0.0) == 1.0

    def test_three_year_nodes_are_four_nines(self):
        """3-year MTBF + 30-minute repair: ~4-5 nines per node."""
        availability = node_availability(3 * YEAR, 1800.0)
        assert 0.9999 < availability < 0.99999
        assert availability == pytest.approx(1 - 1800 / (3 * YEAR + 1800),
                                             rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeAvailability(0.0, 1.0)
        with pytest.raises(ValueError):
            NodeAvailability(1.0, -1.0)


class TestFleetDistribution:
    def test_expected_up(self):
        assert expected_up_nodes(10_000, 0.999) == pytest.approx(9_990.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_up_nodes(0, 0.9)
        with pytest.raises(ValueError):
            expected_up_nodes(10, 1.5)
