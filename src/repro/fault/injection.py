"""Fault injection into the event kernel, and the Monte-Carlo
checkpoint/restart simulator that validates the analytic model.

:class:`FaultInjector` samples failure times from a
:class:`~repro.fault.models.FailureModel` and interrupts a victim process
at each — the generic mechanism any simulation in the library can attach.

:func:`simulate_checkpoint_run` is the concrete experiment behind benches
E8/E9: one long application on a failing system, checkpointing every
``tau``; failures roll progress back to the last checkpoint and charge a
restart.  Its measured makespans converge to
:func:`repro.fault.checkpoint.expected_runtime`, which the test suite
asserts statistically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.fault.checkpoint import CheckpointParams
from repro.fault.models import FailureModel
from repro.sim.causes import FailureCause
from repro.sim.engine import Interrupt, Process, Simulator
from repro.sim.rng import RandomStreams

__all__ = ["FaultInjector", "CheckpointRunStats", "simulate_checkpoint_run"]


class FaultInjector:
    """Interrupts a victim process at sampled failure times.

    The injector stops on its own when the victim finishes; each interrupt
    carries a :class:`~repro.sim.causes.FailureCause` — which compares
    equal to the legacy ``("failure", index)`` tuple — so victims can
    distinguish injected faults from other interrupts.  An interrupt that
    lands at the exact instant the victim's current wait is due is a
    no-op (the victim "finished first"; see ``Process.interrupt``).
    """

    def __init__(self, sim: Simulator, model: FailureModel,
                 rng: np.random.Generator) -> None:
        self.sim = sim
        self.model = model
        self.rng = rng
        self.failures_injected = 0

    def attach(self, victim: Process) -> Process:
        """Start injecting into ``victim``; returns the injector process."""
        return self.sim.process(self._run(victim), name="fault-injector")

    def _run(self, victim: Process):
        index = 0
        while victim.is_alive:
            gap = float(self.model.sample_interarrivals(self.rng, 1)[0])
            yield self.sim.timeout(gap)
            if not victim.is_alive:
                break
            victim.interrupt(FailureCause.numbered(index))
            self.failures_injected += 1
            index += 1
        return self.failures_injected


@dataclass(frozen=True)
class CheckpointRunStats:
    """Outcome of one simulated checkpointed run."""

    makespan: float
    useful_seconds: float
    checkpoint_seconds: float
    lost_seconds: float
    restart_seconds: float
    failures: int

    @property
    def efficiency(self) -> float:
        """Useful work over makespan (1.0 == no overhead)."""
        return self.useful_seconds / self.makespan if self.makespan else 1.0


def simulate_checkpoint_run(work_seconds: float,
                            params: CheckpointParams,
                            interval_seconds: float,
                            model: FailureModel,
                            streams: Optional[RandomStreams] = None,
                            replication: int = 0) -> CheckpointRunStats:
    """Run one application to completion under failures + checkpointing.

    The application alternates compute intervals and checkpoint writes; a
    failure at any point rolls back to the last completed checkpoint and
    charges the restart time.  Failures during checkpoint writes lose the
    interval being protected (the pessimistic, standard assumption).
    """
    if work_seconds <= 0:
        raise ValueError("work must be positive")
    if interval_seconds <= 0:
        raise ValueError("interval must be positive")
    streams = streams if streams is not None else RandomStreams(seed=0)
    rng = streams.fork(replication).get("fault.injection")
    sim = Simulator()

    tally = {"useful": 0.0, "checkpoint": 0.0, "lost": 0.0,
             "restart": 0.0, "failures": 0}

    def application():
        completed = 0.0          # durable (checkpointed) progress
        while completed < work_seconds:
            chunk = min(interval_seconds, work_seconds - completed)
            segment_useful = 0.0
            try:
                # Compute phase.
                start = sim.now
                yield sim.timeout(chunk)
                segment_useful = chunk
                tally["useful"] += chunk
                # Checkpoint phase (skipped if this was the final chunk —
                # results are the output, no checkpoint needed).
                if completed + chunk < work_seconds:
                    yield sim.timeout(params.checkpoint_seconds)
                    tally["checkpoint"] += params.checkpoint_seconds
                completed += chunk
            except Interrupt:
                tally["failures"] += 1
                # Progress since `start` is gone (compute and/or the
                # checkpoint protecting it).
                elapsed = sim.now - start
                tally["lost"] += elapsed
                tally["useful"] -= segment_useful
                # Restart from the last durable checkpoint; a failure
                # mid-restart restarts the restart.
                while True:
                    restart_begin = sim.now
                    try:
                        yield sim.timeout(params.restart_seconds)
                        tally["restart"] += params.restart_seconds
                        break
                    except Interrupt:
                        tally["failures"] += 1
                        tally["restart"] += sim.now - restart_begin
        return sim.now

    victim = sim.process(application(), name="app")
    victim.defused = True
    FaultInjector(sim, model, rng).attach(victim)
    sim.run()
    if not victim.ok:
        raise victim.value

    return CheckpointRunStats(
        makespan=victim.value,
        useful_seconds=tally["useful"],
        checkpoint_seconds=tally["checkpoint"],
        lost_seconds=tally["lost"],
        restart_seconds=tally["restart"],
        failures=tally["failures"],
    )
