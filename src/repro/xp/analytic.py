"""The paper-claim experiments E01–E19: one run function and its claims each.

Each experiment computes its own grid (technology curves, petaflops
crossings, rooflines, scheduling grids, checkpoint ablations, fleet
procurement …) at one size, and carries its shape assertions as named
:class:`~repro.xp.spec.Claim` predicates over ``{point: summary}``.
``python -m repro fleet`` checks every claim on every run, cached or
not, and exits 1 naming any claim that broke.  The paper is published
as an abstract only, so these claims are the reproduction's evidence
for paper claims 1–6 (DESIGN.md "What the paper claims").

Conventions (shared with :mod:`repro.xp.experiments`):

* every run function is module-level and picklable, takes ``config``
  and returns a JSON-able dict;
* summaries hold the raw values the claims compare, so a claim reads
  exactly the numbers it asserts on;
* one size only, the one the claims were made at, and seeds pinned in
  the run function: closed-form models have no randomness, and the
  four stochastic experiments (E07, E08, E13, E15) pin the seeds their
  claims were made at, since E07's and E15's claims do not hold at
  every seed (ROADMAP item 3, seed ensembles);
* arms a claim compares run on the same inputs;
* ``code_roots`` name the library modules each experiment drives; this
  file itself joins every experiment's fingerprint as the file that
  defines its run function (:mod:`repro.xp.fingerprint`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.units import GIB, GIGA, KIB, MIB, PETA
from repro.xp.spec import Claim, ExperimentSpec, PointSpec

__all__ = [
    "ANALYTIC_EXPERIMENTS",
    "e01_run",
    "e02_run",
    "e03_run",
    "e04_run",
    "e05_run",
    "e06_run",
    "e07_run",
    "e08_run",
    "e09_run",
    "e10_run",
    "e11_run",
    "e12_run",
    "e13_run",
    "e14_run",
    "e15_run",
    "e16_run",
    "e17_run",
    "e18_run",
    "e19_run",
]

#: ``{point: summary}``, what every claim predicate receives.
Points = Mapping[str, Mapping[str, Any]]

#: The era's reliability rule of thumb: three years per node.
_NODE_MTBF = 3 * 365.25 * 86400.0
_YEAR = 365.25 * 86400.0
_SCENARIOS = ("conservative", "nominal", "aggressive")


def _points(*names_and_configs: Tuple[str, Dict[str, Any]]
            ) -> Tuple[PointSpec, ...]:
    """Point list helper: stable order, configs as given."""
    return tuple(PointSpec(name=name, config=config)
                 for name, config in names_and_configs)


def _is_sorted(values: List[Any], reverse: bool = False) -> bool:
    return list(values) == sorted(values, reverse=reverse)


# -- E01: technology curves --------------------------------------------------

#: (roadmap quantity, falls over the decade?)
_E01_CURVES = (("node_peak_flops", False), ("node_memory_bytes", False),
               ("dollars_per_flops", True), ("watts_per_flops", True),
               ("flops_per_rack_unit", False))


def e01_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E01 point: one scenario's five technology curves, 2003-2010."""
    from repro.tech import get_scenario, technology_curve

    roadmap = get_scenario(str(config["scenario"]))
    years = np.arange(2003.0, 2011.0, 1.0)
    summary: Dict[str, Any] = {"years": [float(y) for y in years]}
    for quantity, _falling in _E01_CURVES:
        summary[quantity] = [float(v) for v in
                             technology_curve(roadmap, quantity, years)]
    return summary


def _e01_peak_growth(p: Points) -> float:
    peak = p["nominal"]["node_peak_flops"]
    return peak[-1] / peak[0]


_E01 = ExperimentSpec(
    name="e01_tech_curves", run=e01_run,
    points=_points(*((s, {"scenario": s}) for s in _SCENARIOS)),
    code_roots=("repro/tech/__init__.py",),
    description="five technology curves per scenario, 2003-2010",
    claims=(
        Claim("curves_monotone_in_claimed_direction", 1, lambda p: all(
            np.all(np.diff(s[q]) < 0) if falling
            else np.all(np.diff(s[q]) > 0)
            for s in p.values() for q, falling in _E01_CURVES)),
        # Piecewise curves get slack for their breakpoint.
        Claim("curves_near_exponential", 1, lambda p: all(
            np.abs(np.diff(np.log(s[q]), n=2)).max() < 0.5
            for s in p.values() for q, _falling in _E01_CURVES)),
        Claim("nominal_peak_doubles_every_18_months", 1, lambda p: (
            2 ** (7 / 1.5) * 0.8 < _e01_peak_growth(p)
            < 2 ** (7 / 1.5) * 1.2)),
    ),
)


# -- E02: petaflops crossing -------------------------------------------------

_E02_BUDGETS = (("5m", 5e6), ("20m", 20e6), ("100m", 100e6))


def e02_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E02 point: first year one budget buys a peak petaflops, bisected
    on the calendar (``None`` when not by 2020)."""
    from repro.cluster import design_to_budget
    from repro.tech import get_scenario

    roadmap = get_scenario(str(config["scenario"]))
    budget = float(config["budget"])

    def design(year: float) -> Any:
        return design_to_budget(budget, roadmap, year, "conventional")

    low, high = 2003.0, 2020.0
    if design(high).peak_flops < PETA:
        return {"crossing_year": None, "nodes_at_crossing": None}
    for _ in range(40):
        mid = (low + high) / 2.0
        if design(mid).peak_flops >= PETA:
            high = mid
        else:
            low = mid
    return {"crossing_year": high,
            "nodes_at_crossing": design(high).node_count}


def _e02_years(p: Points, scenario: str) -> List[Any]:
    return [p[f"{scenario}-{label}"]["crossing_year"]
            for label, _budget in _E02_BUDGETS]


def _e02_before(p: Points, point: str, year: float) -> bool:
    crossing = p[point]["crossing_year"]
    return crossing is not None and crossing < year


_E02 = ExperimentSpec(
    name="e02_petaflops_crossing", run=e02_run,
    points=_points(*((f"{s}-{label}", {"scenario": s, "budget": budget})
                     for s in _SCENARIOS
                     for label, budget in _E02_BUDGETS)),
    code_roots=("repro/cluster/__init__.py", "repro/tech/__init__.py"),
    description="first year a $5M/$20M/$100M budget buys a peak "
                "petaflops, per scenario",
    claims=(
        Claim("faster_scenarios_cross_first", 2, lambda p: all(
            None in years or years[2] < years[1] < years[0]
            for years in zip(*(_e02_years(p, s) for s in _SCENARIOS)))),
        Claim("nominal_crosses_at_every_budget", 2, lambda p: all(
            year is not None for year in _e02_years(p, "nominal"))),
        Claim("bigger_budgets_cross_earlier", 2, lambda p: (
            None not in _e02_years(p, "nominal")
            and _is_sorted(_e02_years(p, "nominal"), reverse=True))),
        Claim("aggressive_100m_crosses_before_2010", 2,
              lambda p: _e02_before(p, "aggressive-100m", 2010.0)),
        Claim("nominal_100m_crosses_before_2012", 2,
              lambda p: _e02_before(p, "nominal-100m", 2012.0)),
    ),
)


# -- E03: node architectures -------------------------------------------------

def e03_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E03 point: one node architecture's 2006 roofline scorecard."""
    from repro.nodes import REFERENCE_KERNELS, RooflineModel, make_node
    from repro.tech import get_scenario

    node = make_node(str(config["architecture"]),
                     get_scenario("nominal"), 2006.0)
    model = RooflineModel(node)
    summary: Dict[str, Any] = {
        "peak_flops": float(node.peak_flops),
        "gflops_per_watt": float(node.flops_per_watt / GIGA),
        "gflops_per_dollar": float(node.flops_per_dollar / GIGA),
        "gflops_per_rack_unit": float(
            node.peak_flops / node.rack_units / GIGA),
    }
    for kernel in REFERENCE_KERNELS:
        summary[f"attainable_{kernel.name}"] = float(
            model.attainable_flops(kernel))
    return summary


def _e03_best(p: Points, key: str) -> str:
    return max(p, key=lambda arch: p[arch][key])


_E03 = ExperimentSpec(
    name="e03_node_architectures", run=e03_run,
    points=_points(*((arch, {"architecture": arch})
                     for arch in ("conventional", "blade", "smp", "soc",
                                  "pim"))),
    code_roots=("repro/nodes/__init__.py", "repro/tech/__init__.py"),
    description="2006 node-architecture roofline scorecard",
    claims=(
        Claim("pim_wins_memory_bound_kernels", 3, lambda p: all(
            _e03_best(p, f"attainable_{kernel}") == "pim"
            for kernel in ("stream_triad", "spmv", "stencil27"))),
        Claim("smp_beats_pim_on_blocked_dgemm", 3, lambda p: (
            p["smp"]["attainable_dgemm_blocked"]
            > p["pim"]["attainable_dgemm_blocked"])),
        Claim("soc_wins_gflops_per_watt", 3, lambda p: (
            p["soc"]["gflops_per_watt"]
            == max(s["gflops_per_watt"] for s in p.values()))),
        Claim("blade_denser_than_conventional", 3, lambda p: (
            p["blade"]["gflops_per_rack_unit"]
            > p["conventional"]["gflops_per_rack_unit"])),
        Claim("soc_denser_than_conventional", 3, lambda p: (
            p["soc"]["gflops_per_rack_unit"]
            > p["conventional"]["gflops_per_rack_unit"])),
        Claim("smp_has_highest_peak", 3, lambda p: (
            p["smp"]["peak_flops"]
            == max(s["peak_flops"] for s in p.values()))),
        Claim("premium_nodes_cost_more_per_gflops", 6, lambda p: all(
            p[arch]["gflops_per_dollar"]
            < p["conventional"]["gflops_per_dollar"]
            for arch in ("smp", "pim"))),
    ),
)


# -- E04: interconnect ping-pong ---------------------------------------------

_E04_SIZES = (0, 64, KIB, 16 * KIB, 256 * KIB, 4 * MIB)
_E04_REPS = 5


def _pingpong(comm: Any, nbytes: int, reps: int) -> Any:
    payload = np.zeros(nbytes, dtype=np.uint8)
    # Warm-up round establishes optical circuits outside the timing.
    yield from comm.sendrecv(payload, 1 - comm.rank)
    start = comm.sim.now
    for _ in range(reps):
        if comm.rank == 0:
            yield from comm.send(payload, 1, tag=1)
            payload = yield from comm.recv(1, tag=2)
        else:
            payload = yield from comm.recv(0, tag=1)
            yield from comm.send(payload, 0, tag=2)
    return (comm.sim.now - start) / (2 * reps)


def e04_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E04 point: simulated ping-pong half round trip vs message size
    for one interconnect technology."""
    from repro.messaging import run_spmd
    from repro.network import INTERCONNECTS

    technology = str(config["technology"])
    return {
        "sizes": list(_E04_SIZES),
        "half_rtt_seconds": [
            float(run_spmd(2, _pingpong, nbytes, _E04_REPS,
                           technology=technology).results[0])
            for nbytes in _E04_SIZES],
        "asymptote_bytes_per_second": float(
            INTERCONNECTS[technology].loggp.bandwidth),
    }


def _e04_zero(p: Points) -> Dict[str, float]:
    return {tech: s["half_rtt_seconds"][0] for tech, s in p.items()}


def _e04_bandwidth(p: Points) -> Dict[str, float]:
    return {tech: s["sizes"][-1] / s["half_rtt_seconds"][-1]
            for tech, s in p.items()}


_E04_CHAIN = ("fast_ethernet", "gigabit_ethernet", "infiniband_1x",
              "infiniband_4x", "infiniband_12x", "optical_circuit")

_E04 = ExperimentSpec(
    name="e04_interconnects", run=e04_run,
    points=_points(*((tech, {"technology": tech})
                     for tech in ("fast_ethernet", "gigabit_ethernet",
                                  "myrinet_2000", "infiniband_1x",
                                  "infiniband_4x", "infiniband_12x",
                                  "optical_circuit"))),
    code_roots=("repro/messaging/__init__.py", "repro/network/__init__.py"),
    description="ping-pong latency/bandwidth vs size, 7 interconnects",
    claims=(
        Claim("ethernet_to_myrinet_latency_falls", 4, lambda p: (
            _e04_zero(p)["fast_ethernet"]
            > _e04_zero(p)["gigabit_ethernet"]
            > _e04_zero(p)["myrinet_2000"])),
        Claim("infiniband_4x_latency_under_10us", 4,
              lambda p: _e04_zero(p)["infiniband_4x"] < 10e-6),
        Claim("optical_has_lowest_latency", 4, lambda p: (
            _e04_zero(p)["optical_circuit"]
            == min(_e04_zero(p).values()))),
        Claim("bandwidth_follows_generations", 4, lambda p: all(
            _e04_bandwidth(p)[faster] > _e04_bandwidth(p)[slower]
            for slower, faster in zip(_E04_CHAIN, _E04_CHAIN[1:]))),
        Claim("bandwidth_reaches_70pct_of_asymptote", 4, lambda p: all(
            _e04_bandwidth(p)[tech]
            > 0.7 * p[tech]["asymptote_bytes_per_second"] for tech in p)),
        Claim("infiniband_4x_over_6x_gige_bandwidth", 4, lambda p: (
            _e04_bandwidth(p)["infiniband_4x"]
            / _e04_bandwidth(p)["gigabit_ethernet"] > 6)),
        Claim("infiniband_4x_over_4x_lower_latency_than_gige", 4,
              lambda p: (_e04_zero(p)["gigabit_ethernet"]
                         / _e04_zero(p)["infiniband_4x"] > 4)),
    ),
)


# -- E05: application scaling per fabric -------------------------------------

_E05_RANKS = (1, 2, 4, 8, 16, 32)
_E05_FABRICS = ("fast_ethernet", "gigabit_ethernet", "infiniband_4x")


def e05_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E05 point: one app's elapsed time vs rank count on one fabric.

    Nodes compute at a flat 3 GFLOPS (a 2005 node on real code), so the
    scaling measured is about communication, not cache effects.
    """
    from repro.apps import ComputeCharge, run_cg, run_fft2d, run_stencil

    app = str(config["app"])
    technology = str(config["technology"])

    def elapsed(ranks: int) -> float:
        charge = ComputeCharge(effective_flops=3e9)
        if app == "stencil":
            return run_stencil(ranks, n=3072, iterations=3, charge=charge,
                               technology=technology).elapsed
        if app == "cg":
            return run_cg(
                ranks, n=1048576,  # repro: noqa[REP003] vector length, not bytes
                max_iterations=40, tolerance=0.0, charge=charge,
                technology=technology).elapsed
        return run_fft2d(
            ranks, n=1024,  # repro: noqa[REP003] grid side, not bytes
            charge=charge, technology=technology).elapsed

    return {"ranks": list(_E05_RANKS),
            "elapsed_seconds": [float(elapsed(r)) for r in _E05_RANKS]}


def _e05_s32(p: Points, app: str, technology: str) -> float:
    """Speedup at 32 ranks over 1 rank."""
    elapsed = p[f"{app}-{technology}"]["elapsed_seconds"]
    return elapsed[0] / elapsed[-1]


def _e05_gain(p: Points, app: str) -> float:
    """How much going from GigE to IB 4x helps ``app`` at 32 ranks."""
    return (_e05_s32(p, app, "infiniband_4x")
            / _e05_s32(p, app, "gigabit_ethernet"))


_E05_APPS = ("stencil", "cg", "fft")

_E05 = ExperimentSpec(
    name="e05_app_scaling", run=e05_run,
    points=_points(*((f"{app}-{tech}", {"app": app, "technology": tech})
                     for app in _E05_APPS for tech in _E05_FABRICS)),
    code_roots=("repro/apps/__init__.py",),
    description="stencil/CG/FFT speedup, 1-32 ranks, per fabric",
    claims=(
        Claim("infiniband_matches_gige_at_32_ranks", 4, lambda p: all(
            _e05_s32(p, app, "infiniband_4x")
            >= _e05_s32(p, app, "gigabit_ethernet") * 0.99
            for app in _E05_APPS)),
        Claim("infiniband_matches_fast_ethernet_at_32_ranks", 4,
              lambda p: all(_e05_s32(p, app, "infiniband_4x")
                            >= _e05_s32(p, app, "fast_ethernet")
                            for app in _E05_APPS)),
        Claim("fft_gains_more_from_fabric_than_stencil", 4,
              lambda p: _e05_gain(p, "fft") > _e05_gain(p, "stencil")),
        Claim("cg_gains_more_from_fabric_than_stencil", 4,
              lambda p: _e05_gain(p, "cg") > _e05_gain(p, "stencil")),
        Claim("fft_speeds_up_over_4x_on_infiniband", 4,
              lambda p: _e05_s32(p, "fft", "infiniband_4x") > 4.0),
        Claim("fft_scaling_collapses_on_fast_ethernet", 4, lambda p: (
            _e05_s32(p, "fft", "fast_ethernet")
            < _e05_s32(p, "fft", "infiniband_4x") / 2)),
        Claim("stencil_speeds_up_over_8x_on_gige", 4,
              lambda p: _e05_s32(p, "stencil", "gigabit_ethernet") > 8.0),
    ),
)


# -- E06: packaging density --------------------------------------------------

_E06_PUES = (1.2, 1.6, 2.0, 2.5)


def e06_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E06 point: racks, floor space and power to field 100 TFLOPS peak
    in 2006 from one architecture, plus facility power vs PUE."""
    from repro.cluster import (
        PowerModel,
        RackConfig,
        cluster_metrics,
        design_to_peak,
        pack_cluster,
    )
    from repro.tech import get_scenario

    spec = design_to_peak(100e12, get_scenario("nominal"), 2006.0,
                          str(config["architecture"]), "infiniband_4x")
    metrics = cluster_metrics(spec)
    packaging = pack_cluster(spec)
    breakdowns = [PowerModel(pue=pue).breakdown(spec, packaging)
                  for pue in _E06_PUES]
    return {
        "nodes": spec.node_count,
        "racks": metrics.packaging.racks,
        "floor_area_m2": float(metrics.packaging.floor_area_m2),
        "total_watts": float(metrics.total_watts),
        "purchase_dollars": float(metrics.purchase_dollars),
        "power_limited": bool(metrics.packaging.power_limited),
        "racks_at_25kw_feed": pack_cluster(
            spec, RackConfig(power_limit_watts=25_000)).racks,
        "pue": list(_E06_PUES),
        "pue_it_watts": [float(b.it_watts) for b in breakdowns],
        "pue_total_watts": [float(b.total_watts) for b in breakdowns],
    }


def _e06(p: Points, key: str) -> Dict[str, Any]:
    return {arch: s[key] for arch, s in p.items()}


_E06 = ExperimentSpec(
    name="e06_density", run=e06_run,
    points=_points(*((arch, {"architecture": arch})
                     for arch in ("conventional", "smp", "blade", "soc"))),
    code_roots=("repro/cluster/__init__.py",),
    description="racks, floor and power to field 100 TFLOPS (2006)",
    claims=(
        Claim("soc_blade_conventional_floor_ordering", 3, lambda p: (
            _e06(p, "floor_area_m2")["soc"]
            < _e06(p, "floor_area_m2")["blade"]
            < _e06(p, "floor_area_m2")["conventional"])),
        Claim("smp_needs_the_most_floor", 3, lambda p: (
            _e06(p, "floor_area_m2")["conventional"]
            <= _e06(p, "floor_area_m2")["smp"])),
        Claim("soc_halves_facility_power", 3, lambda p: (
            _e06(p, "total_watts")["soc"]
            < 0.5 * _e06(p, "total_watts")["conventional"])),
        Claim("dense_racks_are_power_limited", 3, lambda p: (
            p["blade"]["power_limited"] or p["soc"]["power_limited"])),
        Claim("beefier_feed_packs_blades_tighter", 3, lambda p: (
            p["blade"]["racks_at_25kw_feed"] < p["blade"]["racks"])),
        Claim("pue_scales_facility_power", 1,
              lambda p: _is_sorted(p["blade"]["pue_total_watts"])),
        Claim("pue_leaves_it_load_unchanged", 1,
              lambda p: len(set(p["blade"]["pue_it_watts"])) == 1),
    ),
)


# -- E07: batch scheduling ---------------------------------------------------

_E07_LOADS = (0.5, 0.7, 0.85, 0.95)
_E07_POLICIES = ("fcfs", "sjf", "easy", "conservative")


def e07_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E07 point: every batch policy on one 1,500-job workload at one
    offered load, 128 nodes."""
    from repro.scheduler import (
        BatchSimulator,
        WorkloadGenerator,
        WorkloadParams,
        evaluate_schedule,
        get_policy,
    )
    from repro.sim.rng import RandomStreams

    # Pinned workload seed: the light-load parity claim fails at 6 of
    # 19 other seeds (ROADMAP item 3, seed ensembles), so it is a
    # claim about this seed.
    generator = WorkloadGenerator(
        WorkloadParams(max_nodes=128, offered_load=float(config["load"])),
        RandomStreams(seed=1234))
    jobs = generator.generate(1500)
    summary: Dict[str, Any] = {}
    for policy in _E07_POLICIES:
        metrics = evaluate_schedule(
            BatchSimulator(128, get_policy(policy)).run(jobs))
        summary[policy] = {
            "utilization": metrics.utilization,
            "mean_bounded_slowdown": metrics.mean_bounded_slowdown,
            "max_wait_seconds": metrics.max_wait,
        }
    return summary


def _e07(p: Points, load: float) -> Mapping[str, Any]:
    return p[f"load{load:.2f}"]


_E07_BACKFILLERS = ("easy", "conservative")

_E07 = ExperimentSpec(
    name="e07_scheduling", run=e07_run,
    points=_points(*((f"load{load:.2f}", {"load": load})
                     for load in _E07_LOADS)),
    code_roots=("repro/scheduler/__init__.py",),
    description="FCFS/SJF/EASY/conservative vs offered load, 128 nodes",
    claims=(
        Claim("light_load_keeps_every_policy_busy", 5, lambda p: all(
            s["utilization"] > 0.4 for s in _e07(p, 0.5).values())),
        Claim("light_load_policies_within_10_points_of_fcfs", 5,
              lambda p: all(
                  abs(s["utilization"] - _e07(p, 0.5)["fcfs"]["utilization"])
                  < 0.1 for s in _e07(p, 0.5).values())),
        Claim("backfill_adds_15_points_at_heavy_load", 5, lambda p: all(
            _e07(p, 0.95)[policy]["utilization"]
            > _e07(p, 0.95)["fcfs"]["utilization"] + 0.15
            for policy in _E07_BACKFILLERS)),
        Claim("backfill_cuts_slowdown_3x_at_heavy_load", 5, lambda p: all(
            _e07(p, 0.95)[policy]["mean_bounded_slowdown"]
            < _e07(p, 0.95)["fcfs"]["mean_bounded_slowdown"] / 3
            for policy in _E07_BACKFILLERS)),
        Claim("backfill_utilization_grows_with_load", 5, lambda p: all(
            _is_sorted([_e07(p, load)[policy]["utilization"]
                        for load in _E07_LOADS])
            for policy in _E07_BACKFILLERS)),
        Claim("sjf_starves_longer_than_easy", 5, lambda p: (
            _e07(p, 0.95)["sjf"]["max_wait_seconds"]
            > _e07(p, 0.95)["easy"]["max_wait_seconds"])),
    ),
)


# -- E08: fault scale --------------------------------------------------------

_E08_SCALES = (10, 100, 1_000, 10_000, 100_000)
_E08_MONTE_CARLO_SCALES = (1_000, 10_000)


def e08_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E08 point: system MTBF, Daly interval and efficiency at one
    machine scale, with a 12-run Monte-Carlo check at 1k and 10k."""
    from repro.fault import (
        CheckpointParams,
        ExponentialFailures,
        daly_interval,
        efficiency,
        simulate_checkpoint_run,
        system_mtbf,
    )
    from repro.sim.rng import RandomStreams

    nodes = int(config["nodes"])
    mtbf = system_mtbf(_NODE_MTBF, nodes)
    params = CheckpointParams(300.0, 600.0, mtbf)
    tau = daly_interval(params)
    summary: Dict[str, Any] = {
        "nodes": nodes,
        "mtbf_seconds": mtbf,
        "daly_interval_seconds": tau,
        "efficiency": efficiency(params, tau),
        "monte_carlo_efficiency": None,
    }
    if nodes in _E08_MONTE_CARLO_SCALES:
        # Pinned seed: the Monte-Carlo claim was made at this one, and
        # it also holds at seeds 1-10 (ROADMAP item 3, seed ensembles).
        runs = [simulate_checkpoint_run(24 * 3600.0, params, tau,
                                        ExponentialFailures(mtbf),
                                        RandomStreams(77), rep)
                for rep in range(12)]
        summary["monte_carlo_efficiency"] = float(
            np.mean([r.efficiency for r in runs]))
    return summary


def _e08(p: Points, key: str) -> List[Any]:
    return [p[f"n{nodes}"][key] for nodes in _E08_SCALES]


def _e08_monte_carlo_agrees(p: Points) -> bool:
    """Monte Carlo within 6 % of the analytic efficiency (the
    ``assert_allclose(rtol=0.06)`` criterion)."""
    return all(
        abs(s["monte_carlo_efficiency"] - s["efficiency"])
        <= 0.06 * abs(s["efficiency"])
        for s in (p[f"n{nodes}"] for nodes in _E08_MONTE_CARLO_SCALES))


_E08 = ExperimentSpec(
    name="e08_fault_scale", run=e08_run,
    points=_points(*((f"n{nodes}", {"nodes": nodes})
                     for nodes in _E08_SCALES)),
    code_roots=("repro/fault/__init__.py",),
    description="system MTBF, Daly interval and efficiency vs scale "
                "(analytic + Monte Carlo)",
    claims=(
        Claim("system_mtbf_is_exactly_one_over_n", 5, lambda p: all(
            s["mtbf_seconds"] * s["nodes"] == _NODE_MTBF
            for s in p.values())),
        Claim("efficiency_falls_with_scale", 5, lambda p: _is_sorted(
            _e08(p, "efficiency"), reverse=True)),
        Claim("near_perfect_at_10_nodes", 5,
              lambda p: _e08(p, "efficiency")[0] > 0.98),
        Claim("fault_dominated_at_100k_nodes", 5,
              lambda p: _e08(p, "efficiency")[-1] < 0.35),
        Claim("daly_interval_shrinks_with_scale", 5, lambda p: _is_sorted(
            _e08(p, "daly_interval_seconds"), reverse=True)),
        Claim("monte_carlo_within_6pct_of_analytic", 5,
              _e08_monte_carlo_agrees),
    ),
)


# -- E09: checkpoint strategy ablation ---------------------------------------

def e09_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E09 point: useful-work fraction of a 24 h job per checkpoint
    strategy at one machine scale (exact expected-runtime model)."""
    from repro.fault import (
        CheckpointParams,
        daly_interval,
        expected_runtime,
        system_mtbf,
        young_interval,
    )

    nodes = int(config["nodes"])
    work = 24 * 3600.0
    restart = 600.0
    mtbf = system_mtbf(_NODE_MTBF, nodes)
    params = CheckpointParams(300.0, restart, mtbf)

    def useful(interval: float) -> float:
        return work / expected_runtime(params, work, interval)

    return {
        "none": work / ((mtbf + restart) * math.expm1(work / mtbf)),
        "hourly": useful(3600.0),
        "10min": useful(600.0),
        "young": useful(young_interval(params)),
        "daly": useful(daly_interval(params)),
    }


_E09 = ExperimentSpec(
    name="e09_checkpoint_ablation", run=e09_run,
    points=_points(*((f"n{nodes}", {"nodes": nodes})
                     for nodes in (1_000, 10_000, 100_000))),
    code_roots=("repro/fault/__init__.py",),
    description="useful-work fraction per checkpoint strategy",
    claims=(
        Claim("daly_at_least_young", 5, lambda p: all(
            s["daly"] >= s["young"] - 1e-12 for s in p.values())),
        Claim("daly_beats_fixed_intervals", 5, lambda p: all(
            s["daly"] >= max(s["hourly"], s["10min"]) - 1e-9
            for s in p.values())),
        Claim("checkpointing_beats_none", 5, lambda p: all(
            s["none"] < s["daly"] for s in p.values())),
        Claim("hourly_beats_10min_at_1k_nodes", 5,
              lambda p: p["n1000"]["hourly"] > p["n1000"]["10min"]),
        Claim("10min_beats_hourly_at_100k_nodes", 5,
              lambda p: p["n100000"]["10min"] > p["n100000"]["hourly"]),
        Claim("no_checkpointing_hopeless_at_10k_nodes", 5,
              lambda p: p["n10000"]["none"] < 1e-3),
        Claim("daly_recovers_10_points_over_hourly_at_100k", 5,
              lambda p: p["n100000"]["daly"] - p["n100000"]["hourly"]
              > 0.10),
        Claim("hourly_within_5_points_of_daly_at_10k", 5,
              lambda p: p["n10000"]["daly"] - p["n10000"]["hourly"]
              < 0.05),
    ),
)


# -- E10: processor in memory ------------------------------------------------

def e10_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E10 point: PIM vs conventional rooflines in 2006, their crossover,
    and the conventional ridge over the years."""
    from repro.nodes import RooflineModel, make_node
    from repro.tech import get_scenario

    roadmap = get_scenario("nominal")
    intensities = np.logspace(-2, 2, 33)
    nodes = {name: make_node(name, roadmap, 2006.0)
             for name in ("pim", "conventional")}
    curves = {name: RooflineModel(node).attainable_curve(intensities)
              for name, node in nodes.items()}
    pim_wins = curves["pim"] > curves["conventional"]
    summary: Dict[str, Any] = {
        "intensities": [float(i) for i in intensities],
        "crossover_intensity": float(
            intensities[int(np.argmin(pim_wins))]),
    }
    for name, node in nodes.items():
        summary[f"{name}_attainable"] = [float(v) for v in curves[name]]
        summary[f"{name}_cost_dollars"] = float(node.cost_dollars)
    summary["pim_balance"] = float(nodes["pim"].machine_balance)
    for year in (2003.0, 2006.0, 2009.0):
        summary[f"conventional_ridge_{year:.0f}"] = float(
            make_node("conventional", roadmap, year).machine_balance)
    return summary


def _e10_streaming_gain(s: Mapping[str, Any]) -> float:
    return s["pim_attainable"][0] / s["conventional_attainable"][0]


_E10 = ExperimentSpec(
    name="e10_pim_ablation", run=e10_run,
    points=_points(("nominal-2006", {})),
    code_roots=("repro/nodes/__init__.py",),
    description="PIM vs conventional rooflines and their crossover",
    claims=(
        Claim("pim_wins_streaming_10_to_60x", 3, lambda p: (
            10 < _e10_streaming_gain(p["nominal-2006"]) < 60)),
        Claim("conventional_wins_dense_compute", 3, lambda p: (
            p["nominal-2006"]["conventional_attainable"][-1]
            > p["nominal-2006"]["pim_attainable"][-1])),
        Claim("crossover_between_the_ridges", 3, lambda p: (
            p["nominal-2006"]["pim_balance"]
            < p["nominal-2006"]["crossover_intensity"]
            < p["nominal-2006"]["conventional_ridge_2006"] * 2)),
        Claim("memory_wall_moves_ridge_right", 3, lambda p: _is_sorted([
            p["nominal-2006"][f"conventional_ridge_{year}"]
            for year in (2003, 2006, 2009)])),
        Claim("pim_wins_streaming_per_dollar", 3, lambda p: (
            p["nominal-2006"]["pim_attainable"][0]
            / p["nominal-2006"]["pim_cost_dollars"]
            > 5 * (p["nominal-2006"]["conventional_attainable"][0]
                   / p["nominal-2006"]["conventional_cost_dollars"]))),
    ),
)


# -- E11: price/performance --------------------------------------------------

_E11_YEARS = (2003.0, 2005.0, 2007.0, 2009.0, 2010.0)


def e11_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E11 point: 512-node cluster $/FLOPS 2003-2010, plus 1000-node
    purchase and 4-year TCO per GFLOPS, conventional vs SoC, 2008."""
    from repro.cluster import CostModel, design_cluster, pack_cluster
    from repro.tech import get_scenario

    roadmap = get_scenario("nominal")
    cost_model = CostModel()
    dollars_per_flops = []
    for year in _E11_YEARS:
        spec = design_cluster("c", roadmap, year, 512, "conventional")
        dollars_per_flops.append(float(
            cost_model.dollars_per_flops(spec, pack_cluster(spec))))
    summary: Dict[str, Any] = {
        "years": list(_E11_YEARS),
        "cluster_dollars_per_flops": dollars_per_flops,
    }
    for architecture in ("conventional", "soc"):
        spec = design_cluster("t", roadmap, 2008.0, 1000, architecture,
                              "infiniband_4x")
        packaging = pack_cluster(spec)
        summary[f"{architecture}_purchase_per_gflops"] = float(
            cost_model.purchase(spec, packaging).total_dollars
            / spec.peak_flops * GIGA)
        summary[f"{architecture}_tco4_per_gflops"] = float(
            cost_model.tco(spec, packaging, 4.0) / spec.peak_flops * GIGA)
    return summary


def _e11_log_cost(p: Points) -> Any:
    return np.log(p["nominal"]["cluster_dollars_per_flops"])


_E11 = ExperimentSpec(
    name="e11_cost_performance", run=e11_run,
    points=_points(("nominal", {})),
    code_roots=("repro/cluster/__init__.py",),
    description="cluster $/GFLOPS vs MPP premiums; 2008 TCO, "
                "conventional vs SoC",
    claims=(
        Claim("cluster_cost_per_flops_falls", 6, lambda p: _is_sorted(
            p["nominal"]["cluster_dollars_per_flops"], reverse=True)),
        Claim("cluster_cost_per_flops_falls_in_log_space", 6,
              lambda p: bool(np.all(np.diff(_e11_log_cost(p)) < 0))),
        Claim("cluster_cost_halves_over_3_times", 6, lambda p: (
            (_e11_log_cost(p)[0] - _e11_log_cost(p)[-1]) / np.log(2) > 3)),
        # Cannot fail: the MPP comparator is defined as the cluster's
        # $/FLOPS times the premium.  It needs an MPP cost model of its
        # own before it counts as evidence (ROADMAP item 8, the MPP
        # comparator).
        Claim("mpp_premium_never_catches_up", 6, lambda p: all(
            cost * premium > cost
            for cost in p["nominal"]["cluster_dollars_per_flops"]
            for premium in (2.0, 5.0, 10.0))),
        Claim("soc_wins_4_year_tco_in_2008", 6, lambda p: (
            p["nominal"]["soc_tco4_per_gflops"]
            < p["nominal"]["conventional_tco4_per_gflops"])),
        Claim("power_over_15pct_of_conventional_tco", 6, lambda p: (
            1 - (p["nominal"]["conventional_purchase_per_gflops"]
                 / p["nominal"]["conventional_tco4_per_gflops"]) > 0.15)),
    ),
)


# -- E12: Top500-style extrapolation -----------------------------------------

def e12_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E12 point: HPL-model Rmax and efficiency 2003-2012 for one
    budget class, and the year Rmax crosses 1 PFLOPS (``None`` if it
    does not)."""
    from repro.analysis import Series
    from repro.apps import HplModel
    from repro.cluster import design_to_budget
    from repro.tech import get_scenario

    roadmap = get_scenario("nominal")
    model = HplModel()
    years = list(np.arange(2003.0, 2012.5, 1.0))
    estimates = [model.estimate(design_to_budget(
        float(config["budget"]), roadmap, year, "conventional"))
        for year in years]
    rmax = [e.rmax_flops for e in estimates]
    try:
        crossing = Series("rmax", x=years, y=rmax).crossing(PETA)
    except ValueError:
        crossing = None
    return {
        "years": [float(y) for y in years],
        "rmax_flops": [float(r) for r in rmax],
        "efficiency": [float(e.efficiency) for e in estimates],
        "petaflops_crossing_year": crossing,
    }


def _e12_yearly_growth(s: Mapping[str, Any]) -> float:
    rmax, years = s["rmax_flops"], s["years"]
    return (rmax[-1] / rmax[0]) ** (1.0 / (years[-1] - years[0]))


def _e12_ratio_spread(p: Points) -> float:
    ratios = (np.array(p["lab-100m"]["rmax_flops"])
              / np.array(p["department-2m"]["rmax_flops"]))
    return float(ratios.max() / ratios.min())


def _e12_lab_crosses(p: Points) -> bool:
    crossing = p["lab-100m"]["petaflops_crossing_year"]
    return crossing is not None and 2007.0 < crossing < 2012.5


_E12 = ExperimentSpec(
    name="e12_top500_extrapolation", run=e12_run,
    points=_points(("lab-100m", {"budget": 100e6}),
                   ("department-2m", {"budget": 2e6})),
    code_roots=("repro/apps/__init__.py", "repro/cluster/__init__.py"),
    description="HPL Rmax trajectory per budget class, 2003-2012",
    claims=(
        Claim("lab_rmax_grows_1_4_to_2_2x_per_year", 2, lambda p: (
            1.4 < _e12_yearly_growth(p["lab-100m"]) < 2.2)),
        Claim("lab_crosses_petaflops_rmax_2007_to_2012", 2,
              _e12_lab_crosses),
        Claim("hpl_efficiency_in_commodity_band", 2, lambda p: all(
            0.45 < e < 0.9 for s in p.values() for e in s["efficiency"])),
        Claim("budget_shifts_the_curve_not_the_slope", 2,
              lambda p: _e12_ratio_spread(p) < 2.0),
    ),
)


# -- E13: design-choice ablations --------------------------------------------

_E13_ALGORITHMS = ("recursive_doubling", "ring", "rabenseifner")
_E13_VECTOR_BYTES = (64, 8 * KIB, MIB)


def _time_allreduce(algorithm: str, nbytes: int) -> float:
    from repro.messaging import SUM, run_spmd

    def body(comm: Any) -> Any:
        vector = np.zeros(nbytes // 8)
        start = comm.sim.now
        for _ in range(3):
            yield from comm.allreduce(vector, SUM, algorithm=algorithm)
        return (comm.sim.now - start) / 3

    return float(max(run_spmd(16, body,
                              technology="infiniband_4x").results))


def _time_alltoall(spines: Optional[int], contention: bool) -> float:
    from repro.messaging import run_spmd
    from repro.network import FatTreeTopology

    def body(comm: Any) -> Any:
        payload = [np.zeros(1 << 14, dtype=np.uint8)
                   for _ in range(comm.size)]
        start = comm.sim.now
        yield from comm.alltoall(payload)
        return comm.sim.now - start

    topology = (FatTreeTopology(16, hosts_per_leaf=4) if spines is None
                else FatTreeTopology(16, hosts_per_leaf=4, spines=spines))
    return float(max(run_spmd(16, body, technology="infiniband_4x",
                              topology=topology,
                              contention=contention).results))


def e13_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E13 point: one ablation family — allreduce algorithm vs vector
    size, fabric contention and oversubscription under alltoall, or
    backfill reservation depth at 0.9 load."""
    from repro.scheduler import (
        BatchSimulator,
        WorkloadGenerator,
        WorkloadParams,
        evaluate_schedule,
        get_policy,
    )
    from repro.sim.rng import RandomStreams

    family = str(config["family"])
    if family == "collective":
        summary: Dict[str, Any] = {"vector_bytes": list(_E13_VECTOR_BYTES)}
        for algorithm in _E13_ALGORITHMS:
            summary[algorithm] = [_time_allreduce(algorithm, nbytes)
                                  for nbytes in _E13_VECTOR_BYTES]
        return summary
    if family == "contention":
        return {"full": _time_alltoall(None, True),
                "full_no_contention": _time_alltoall(None, False),
                "2to1": _time_alltoall(2, True),
                "4to1": _time_alltoall(1, True)}
    # Pinned workload seed: both backfill claims were made at this one,
    # and they also hold at seeds 1-10 (ROADMAP item 3, seed
    # ensembles).
    generator = WorkloadGenerator(
        WorkloadParams(max_nodes=128, offered_load=0.9),
        RandomStreams(seed=55))
    jobs = generator.generate(1000)
    return {policy: evaluate_schedule(
        BatchSimulator(128, get_policy(policy)).run(jobs)).utilization
        for policy in ("fcfs", "easy", "conservative")}


def _e13_allreduce(p: Points, nbytes: int) -> Dict[str, float]:
    index = _E13_VECTOR_BYTES.index(nbytes)
    return {a: p["collective"][a][index] for a in _E13_ALGORITHMS}


_E13 = ExperimentSpec(
    name="e13_ablations", run=e13_run,
    points=_points(*((family, {"family": family})
                     for family in ("collective", "contention",
                                    "backfill"))),
    code_roots=("repro/messaging/__init__.py",
                "repro/scheduler/__init__.py",
                "repro/network/__init__.py"),
    description="allreduce algorithm, contention/oversubscription and "
                "backfill-depth ablations",
    claims=(
        Claim("recursive_doubling_wins_small_vectors", 4, lambda p: (
            _e13_allreduce(p, 64)["recursive_doubling"]
            <= min(_e13_allreduce(p, 64).values()) * 1.05)),
        Claim("ring_wins_large_vectors", 4, lambda p: (
            _e13_allreduce(p, MIB)["ring"]
            < _e13_allreduce(p, MIB)["recursive_doubling"] / 1.5)),
        Claim("rabenseifner_wins_large_vectors", 4, lambda p: (
            _e13_allreduce(p, MIB)["rabenseifner"]
            < _e13_allreduce(p, MIB)["recursive_doubling"] / 1.5)),
        Claim("contention_only_adds_time", 4, lambda p: (
            p["contention"]["full"]
            >= p["contention"]["full_no_contention"])),
        Claim("oversubscription_slows_alltoall", 4, lambda p: (
            p["contention"]["4to1"] > p["contention"]["2to1"]
            > p["contention"]["full"] * 0.99)),
        Claim("easy_beats_fcfs_by_10_points", 5, lambda p: (
            p["backfill"]["easy"] > p["backfill"]["fcfs"] + 0.1)),
        Claim("conservative_beats_fcfs_by_10_points", 5, lambda p: (
            p["backfill"]["conservative"] > p["backfill"]["fcfs"] + 0.1)),
    ),
)


# -- E14: checkpoint I/O wall ------------------------------------------------

_E14_SCALES = (256, 1_024, 4_096, 16_384, 32_768)  # repro: noqa[REP003] node counts


def e14_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E14 point: derived checkpoint time and Daly efficiency vs scale
    (2 GiB/node, IB 4x) for a fixed 16-server PFS and one scaled at a
    server per 16 nodes, plus a simulated write against its bound."""
    from repro.fault import daly_interval, efficiency
    from repro.io import (
        DiskModel,
        checkpoint_write_time,
        derive_checkpoint_params,
        simulate_checkpoint_write,
    )
    from repro.network import get_interconnect

    technology = get_interconnect("infiniband_4x")
    link = technology.loggp.bandwidth
    # A 4-spindle RAID0 of commodity disks (~160 MB/s) per I/O server.
    raid = DiskModel(transfer_bytes_per_second=160e6,
                     capacity_bytes=320e9)
    summary: Dict[str, Any] = {"nodes": list(_E14_SCALES)}
    for label in ("fixed", "scaled"):
        for key in ("servers", "checkpoint_seconds", "efficiency"):
            summary[f"{label}_{key}"] = []
    for nodes in _E14_SCALES:
        for label, servers in (("fixed", 16),
                               ("scaled", max(16, nodes // 16))):
            params = derive_checkpoint_params(
                2 * GIB, nodes, servers, link, _NODE_MTBF, disk=raid)
            summary[f"{label}_servers"].append(servers)
            summary[f"{label}_checkpoint_seconds"].append(
                float(params.checkpoint_seconds))
            summary[f"{label}_efficiency"].append(float(
                efficiency(params, daly_interval(params))))
    # A scaled-down dump keeps the simulated event count civil.
    summary["simulated_write_seconds"] = float(
        simulate_checkpoint_write(64, 8, MIB, technology))
    summary["analytic_write_seconds"] = float(
        checkpoint_write_time(MIB, 64, 8, link))
    return summary


def _e14(p: Points, key: str) -> List[Any]:
    return p["ib4x-2gib"][key]


_E14 = ExperimentSpec(
    name="e14_checkpoint_io_wall", run=e14_run,
    points=_points(("ib4x-2gib", {})),
    code_roots=("repro/io/__init__.py", "repro/fault/__init__.py",
                "repro/network/__init__.py"),
    description="checkpoint I/O wall, fixed vs scaled I/O servers, "
                "256-32k nodes",
    claims=(
        Claim("fixed_io_checkpoint_time_grows_linearly", 5, lambda p: (
            _e14(p, "fixed_checkpoint_seconds")[-1]
            / _e14(p, "fixed_checkpoint_seconds")[0]
            == _e14(p, "nodes")[-1] / _e14(p, "nodes")[0])),
        Claim("scaled_io_checkpoint_time_flat", 5, lambda p: (
            max(_e14(p, "scaled_checkpoint_seconds")[2:])
            / min(_e14(p, "scaled_checkpoint_seconds")[2:]) < 1.05)),
        Claim("fixed_io_efficiency_falls", 5, lambda p: _is_sorted(
            _e14(p, "fixed_efficiency"), reverse=True)),
        Claim("fixed_io_keeps_under_30pct_at_32k", 5,
              lambda p: _e14(p, "fixed_efficiency")[-1] < 0.30),
        Claim("scaled_io_keeps_over_60pct_at_32k", 5,
              lambda p: _e14(p, "scaled_efficiency")[-1] > 0.60),
        Claim("scaled_io_never_worse_than_fixed", 5, lambda p: all(
            s >= f for s, f in zip(_e14(p, "scaled_efficiency"),
                                   _e14(p, "fixed_efficiency")))),
        Claim("simulated_write_within_4x_of_bound", 5, lambda p: (
            _e14(p, "analytic_write_seconds")
            <= _e14(p, "simulated_write_seconds")
            < 4 * _e14(p, "analytic_write_seconds"))),
    ),
)


# -- E15: fault-aware batch operation ----------------------------------------

_E15_MTBF_YEARS = (10.0, 2.0, 0.5, 0.25)


def e15_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E15 point: EASY backfilling of one 800-job workload on a failing
    1024-node machine at one node MTBF, scratch restart vs hourly
    checkpoints."""
    from repro.scheduler import (
        FaultyBatchSimulator,
        WorkloadGenerator,
        WorkloadParams,
        get_policy,
    )
    from repro.sim.rng import RandomStreams

    nodes = 1024  # repro: noqa[REP003] machine size in nodes, not bytes
    # Pinned workload and failure seeds: the waste and goodput claims
    # break at 12 of 30 other seed pairs (ROADMAP item 3, seed
    # ensembles).
    generator = WorkloadGenerator(
        WorkloadParams(max_nodes=nodes, offered_load=0.8),
        RandomStreams(seed=41))
    jobs = generator.generate(800)
    summary: Dict[str, Any] = {}
    for label, interval in (("scratch", None), ("hourly", 3600.0)):
        result = FaultyBatchSimulator(
            nodes, get_policy("easy"),
            node_mtbf_seconds=float(config["mtbf_years"]) * _YEAR,
            repair_seconds=1800.0,
            checkpoint_interval=interval,
            streams=RandomStreams(seed=97)).run(jobs)
        summary[label] = {
            "failures": result.failures,
            "job_kills": result.job_kills,
            "waste_fraction": result.waste_fraction,
            "goodput_utilization": result.goodput_utilization,
            "mean_response_seconds": result.mean_response(),
        }
    return summary


def _e15(p: Points, mtbf_years: float, label: str) -> Mapping[str, Any]:
    return p[f"mtbf{mtbf_years:g}y"][label]


_E15 = ExperimentSpec(
    name="e15_fault_aware_operation", run=e15_run,
    points=_points(*((f"mtbf{years:g}y", {"mtbf_years": years})
                     for years in _E15_MTBF_YEARS)),
    code_roots=("repro/scheduler/__init__.py",),
    description="EASY backfilling on a failing 1024-node machine, node "
                "MTBF 10y to 0.25y, scratch vs hourly checkpoints",
    claims=(
        Claim("waste_grows_as_mtbf_falls", 5, lambda p: all(
            _is_sorted([_e15(p, years, label)["waste_fraction"]
                        for years in _E15_MTBF_YEARS])
            for label in ("scratch", "hourly"))),
        Claim("checkpointing_never_wastes_more", 5, lambda p: all(
            _e15(p, years, "hourly")["waste_fraction"]
            <= _e15(p, years, "scratch")["waste_fraction"] + 1e-12
            for years in _E15_MTBF_YEARS[1:])),
        Claim("scratch_wastes_over_15pct_at_quarter_year", 5, lambda p: (
            _e15(p, 0.25, "scratch")["waste_fraction"] > 0.15)),
        Claim("hourly_halves_waste_at_quarter_year", 5, lambda p: (
            _e15(p, 0.25, "hourly")["waste_fraction"]
            < _e15(p, 0.25, "scratch")["waste_fraction"] / 2)),
        Claim("hourly_goodput_10_points_higher_at_quarter_year", 5,
              lambda p: (_e15(p, 0.25, "hourly")["goodput_utilization"]
                         > _e15(p, 0.25, "scratch")["goodput_utilization"]
                         + 0.10)),
        Claim("healthy_machine_wastes_under_2pct", 5, lambda p: (
            _e15(p, 10.0, "hourly")["waste_fraction"] < 0.02)),
    ),
)


# -- E16: history validation -------------------------------------------------

def e16_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E16 point: the model's $100M Rmax slope and petaflops year vs the
    Top500 record, and the stencil's fitted serial fraction."""
    from repro.analysis.scaling import fit_serial_fraction, gustafson_speedup
    from repro.apps import ComputeCharge, HplModel, run_stencil
    from repro.cluster import design_to_budget
    from repro.tech import get_scenario
    from repro.tech.history import (
        first_commodity_petaflops_year,
        historical_slope,
    )

    roadmap = get_scenario("nominal")
    model = HplModel()
    years = np.arange(2003.0, 2012.0, 1.0)
    rmax = np.array([
        model.estimate(design_to_budget(100e6, roadmap, year,
                                        "conventional")).rmax_flops
        for year in years])
    ranks = [1, 2, 4, 8, 16, 32]
    charge = ComputeCharge(effective_flops=3e9)
    times = {p: run_stencil(
        p, n=1024,  # repro: noqa[REP003] grid side, not bytes
        iterations=3, charge=charge, technology="infiniband_4x").elapsed
        for p in ranks}
    speedups = [float(times[1] / times[p]) for p in ranks]
    serial_fraction, rms = fit_serial_fraction(ranks, speedups)
    return {
        "model_slope": float(np.exp(np.polyfit(years, np.log(rmax), 1)[0])),
        "model_crossing_year": float(
            np.interp(np.log(PETA), np.log(rmax), years)),
        "record_slope": float(historical_slope()),
        "commodity_slope": float(historical_slope(2004.0, 2011.0)),
        "record_crossing_year": float(first_commodity_petaflops_year()),
        "ranks": ranks,
        "stencil_speedups": speedups,
        "serial_fraction": float(serial_fraction),
        "fit_rms": float(rms),
        "gustafson_speedup_32": float(
            gustafson_speedup(serial_fraction, 32)),
    }


_E16 = ExperimentSpec(
    name="e16_history_validation", run=e16_run,
    points=_points(("nominal", {})),
    code_roots=("repro/tech/history.py", "repro/analysis/scaling.py",
                "repro/apps/__init__.py"),
    description="model slope and petaflops year vs the Top500 record; "
                "stencil Amdahl/Gustafson fit",
    claims=(
        Claim("record_outgrows_fixed_budget_model", 1, lambda p: (
            p["nominal"]["record_slope"] > p["nominal"]["model_slope"])),
        Claim("record_slope_under_2x_model_slope", 1, lambda p: (
            p["nominal"]["record_slope"]
            < 2.0 * p["nominal"]["model_slope"])),
        Claim("record_slope_1_6_to_2_2x_per_year", 1,
              lambda p: 1.6 < p["nominal"]["record_slope"] < 2.2),
        Claim("model_petaflops_2006_to_2009", 2, lambda p: (
            2006.0 < p["nominal"]["model_crossing_year"] < 2009.5)),
        Claim("record_petaflops_2006_to_2009", 2, lambda p: (
            2006.0 < p["nominal"]["record_crossing_year"] < 2009.5)),
        Claim("model_within_2_years_of_record", 2, lambda p: abs(
            p["nominal"]["model_crossing_year"]
            - p["nominal"]["record_crossing_year"]) < 2.0),
        Claim("stencil_serial_fraction_under_5pct", 2,
              lambda p: p["nominal"]["serial_fraction"] < 0.05),
        Claim("amdahl_fit_rms_under_2_5", 2,
              lambda p: p["nominal"]["fit_rms"] < 2.5),
        Claim("gustafson_near_linear_at_32_ranks", 2,
              lambda p: p["nominal"]["gustafson_speedup_32"] > 30.0),
    ),
)


# -- E17: fleet procurement --------------------------------------------------

def e17_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E17 point: one procurement strategy's 2003-2010 fleet on a
    $2M/year budget."""
    from repro.cluster import simulate_fleet, time_averaged_peak
    from repro.tech import get_scenario

    roadmap = get_scenario("nominal")
    years = float(config["years"])
    if config["strategy"] == "rolling":
        timeline = simulate_fleet(roadmap, 2003.0, 2010.0, 2e6,
                                  strategy="rolling", lifetime_years=years)
    else:
        timeline = simulate_fleet(roadmap, 2003.0, 2010.0, 2e6,
                                  strategy="forklift",
                                  forklift_interval_years=years)
    return {
        "time_averaged_peak_flops": float(time_averaged_peak(timeline)),
        "peak_flops": [float(fy.peak_flops) for fy in timeline],
        "cohorts": [fy.cohort_count for fy in timeline],
        "final_power_watts": float(timeline[-1].power_watts),
    }


_E17_FORKLIFTS = ("forklift-2y", "forklift-3y", "forklift-4y")


def _e17_average(p: Points, point: str) -> float:
    return p[point]["time_averaged_peak_flops"]


_E17 = ExperimentSpec(
    name="e17_fleet_evolution", run=e17_run,
    points=_points(("rolling-4y", {"strategy": "rolling", "years": 4.0}),
                   *((f"forklift-{y:.0f}y",
                      {"strategy": "forklift", "years": y})
                     for y in (2.0, 3.0, 4.0))),
    code_roots=("repro/cluster/__init__.py",),
    description="rolling vs forklift procurement, 2003-2010, $2M/year",
    claims=(
        Claim("rolling_beats_every_forklift", 6, lambda p: all(
            _e17_average(p, "rolling-4y") > _e17_average(p, point)
            for point in _E17_FORKLIFTS)),
        Claim("forklift_3y_beats_2y", 6, lambda p: (
            _e17_average(p, "forklift-3y")
            > _e17_average(p, "forklift-2y"))),
        Claim("forklift_3y_beats_4y", 6, lambda p: (
            _e17_average(p, "forklift-3y")
            > _e17_average(p, "forklift-4y"))),
        Claim("rolling_carries_four_generations", 5,
              lambda p: max(p["rolling-4y"]["cohorts"]) == 4),
        Claim("forklifts_carry_one_generation", 5, lambda p: all(
            max(p[point]["cohorts"]) == 1 for point in _E17_FORKLIFTS)),
        Claim("rolling_peak_never_falls", 6,
              lambda p: _is_sorted(p["rolling-4y"]["peak_flops"])),
    ),
)


# -- E18: noncontiguous I/O --------------------------------------------------

_E18_REGION_COUNTS = (1, 16, 64, 256, 1024)  # repro: noqa[REP003] region counts


def _run_strided(region_count: int, list_io: bool, disk: Any) -> float:
    """Seconds to write 4 MiB as ``region_count`` strided regions."""
    from repro.io import ParallelFileSystem
    from repro.network import Fabric, SingleSwitchTopology, get_interconnect
    from repro.sim import Simulator

    servers = 4
    sim = Simulator()
    fabric = Fabric(sim, SingleSwitchTopology(servers + 2),
                    get_interconnect("infiniband_4x"))
    pfs = ParallelFileSystem(
        sim, fabric, server_hosts=list(range(2, 2 + servers)),
        stripe_bytes=64 * KIB, disk=disk)
    size = 4 * MIB // region_count
    regions = [(i * 4 * size, size) for i in range(region_count)]

    def client() -> Any:
        yield from pfs.write_regions(0, regions, list_io=list_io)
        return sim.now

    return float(sim.run_process(client()))


def e18_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E18 point: a strided write, one request per region vs list I/O,
    at one region count and disk seek time (default disk if ``None``)."""
    from repro.io import DiskModel

    seek = config["seek_seconds"]
    disk = DiskModel() if seek is None else DiskModel(seek_seconds=seek)
    count = int(config["regions"])
    return {"naive_seconds": _run_strided(count, False, disk),
            "list_io_seconds": _run_strided(count, True, disk)}


def _e18_speedup(s: Mapping[str, Any]) -> float:
    return s["naive_seconds"] / s["list_io_seconds"]


def _e18_speedups(p: Points) -> List[float]:
    return [_e18_speedup(p[f"regions{count}"])
            for count in _E18_REGION_COUNTS]


_E18 = ExperimentSpec(
    name="e18_noncontiguous_io", run=e18_run,
    points=_points(
        *((f"regions{count}", {"regions": count, "seek_seconds": None})
          for count in _E18_REGION_COUNTS),
        *((f"seek{ms}ms", {"regions": 256, "seek_seconds": ms / 1000})
          for ms in (3, 13, 30))),
    code_roots=("repro/io/__init__.py", "repro/network/__init__.py"),
    description="strided writes, per-region vs list I/O, region count "
                "and seek-time sweeps",
    claims=(
        Claim("list_io_never_loses", 5,
              lambda p: all(s >= 0.95 for s in _e18_speedups(p))),
        Claim("gap_grows_with_fragmentation", 5,
              lambda p: _is_sorted(_e18_speedups(p))),
        Claim("list_io_over_20x_at_1024_regions", 5,
              lambda p: _e18_speedups(p)[-1] > 20.0),
        Claim("contiguous_gap_under_8x", 5,
              lambda p: _e18_speedups(p)[0] < 8.0),
        Claim("contiguous_gap_under_a_third_of_fragmented", 5,
              lambda p: _e18_speedups(p)[0] < _e18_speedups(p)[-1] / 3.0),
        Claim("gap_grows_with_seek_cost", 5, lambda p: _is_sorted([
            _e18_speedup(p[f"seek{ms}ms"]) for ms in (3, 13, 30)])),
    ),
)


# -- E19: decomposition ------------------------------------------------------

_E19_RANKS = (4, 16, 64)


def e19_run(config: Mapping[str, Any]) -> Dict[str, Any]:
    """E19 point: 1D-slab vs 2D-block stencil time on a 2048² grid at
    4, 16 and 64 ranks, on one fabric."""
    from repro.apps import ComputeCharge, run_stencil, run_stencil2d

    technology = str(config["technology"])
    summary: Dict[str, Any] = {"ranks": list(_E19_RANKS),
                               "one_d_seconds": [], "two_d_seconds": []}
    for ranks in _E19_RANKS:
        for key, run in (("one_d_seconds", run_stencil),
                         ("two_d_seconds", run_stencil2d)):
            summary[key].append(float(run(
                ranks, n=2048,  # repro: noqa[REP003] grid side, not bytes
                iterations=3, charge=ComputeCharge(effective_flops=3e9),
                technology=technology).elapsed))
    return summary


def _e19_advantage(s: Mapping[str, Any]) -> List[float]:
    """1D time over 2D time per rank count (> 1 means 2D wins)."""
    return [one / two
            for one, two in zip(s["one_d_seconds"], s["two_d_seconds"])]


_E19 = ExperimentSpec(
    name="e19_decomposition", run=e19_run,
    points=_points(*((tech, {"technology": tech})
                     for tech in ("gigabit_ethernet", "infiniband_4x"))),
    code_roots=("repro/apps/__init__.py",),
    description="1D slab vs 2D block stencil decomposition, 4-64 ranks",
    claims=(
        Claim("block_advantage_grows_with_scale", 4, lambda p: all(
            _is_sorted(_e19_advantage(s)) for s in p.values())),
        Claim("blocks_win_at_64_ranks", 4, lambda p: all(
            _e19_advantage(s)[-1] > 1.0 for s in p.values())),
        Claim("blocks_matter_more_on_gige", 4, lambda p: (
            _e19_advantage(p["gigabit_ethernet"])[-1]
            > _e19_advantage(p["infiniband_4x"])[-1])),
    ),
)


#: The paper-claim experiments, in index order.
ANALYTIC_EXPERIMENTS: Tuple[ExperimentSpec, ...] = (
    _E01, _E02, _E03, _E04, _E05, _E06, _E07, _E08, _E09, _E10,
    _E11, _E12, _E13, _E14, _E15, _E16, _E17, _E18, _E19,
)
