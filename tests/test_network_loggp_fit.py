"""LogGP calibration: a least-squares fit of E04's simulated ping-pong
recovers the catalog entry that generated the traffic."""

import numpy as np
import pytest

from repro.messaging import run_spmd
from repro.network import INTERCONNECTS
from repro.units import KIB, MIB
from repro.xp.analytic import _pingpong

#: Message sizes of the fit (bytes) and timed round trips per size.
SIZES = (0, KIB, 16 * KIB, 256 * KIB, MIB)
REPETITIONS = 3


def half_round_trips(technology):
    """E04's ping-pong half round trip at each of ``SIZES``."""
    return [run_spmd(2, _pingpong, nbytes, REPETITIONS,
                     technology=technology).results[0]
            for nbytes in SIZES]


class TestEndToEndCalibration:
    @pytest.mark.parametrize("technology", ["gigabit_ethernet",
                                            "infiniband_4x"])
    def test_fit_recovers_catalog_entry(self, technology):
        """Measuring the simulator and fitting ``T(n) = startup + n * G``
        must reproduce the catalog parameters that generated the traffic
        — the stack is self-consistent end to end.

        The fitted startup is the *fabric-level* zero-byte cost
        (2o + g + L + hop latency), which exceeds the idealised LogGP
        ``message_time(0)`` by the injection gap and switch hop — the
        same difference real calibrations see between model and wire.
        """
        gap_per_byte, startup = np.polyfit(SIZES,
                                           half_round_trips(technology), 1)
        catalog = INTERCONNECTS[technology]
        params = catalog.loggp
        assert 1.0 / gap_per_byte == pytest.approx(params.bandwidth,
                                                   rel=0.02)
        fabric_startup = (2 * params.overhead + params.gap + params.latency
                          + catalog.hop_latency)
        assert startup == pytest.approx(fabric_startup, rel=0.15)

    def test_measured_times_monotone(self):
        times = half_round_trips("myrinet_2000")
        assert times == sorted(times)
