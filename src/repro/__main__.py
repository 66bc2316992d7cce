"""Command-line interface: quick reports without writing a script.

::

    python -m repro roadmap [--scenario nominal] [--years 2003:2011]
    python -m repro nodes [--year 2006] [--scenario nominal]
    python -m repro design --budget 25e6 --year 2006 [--arch blade]
    python -m repro interconnects [--year 2006]
    python -m repro faults --nodes 10000 [--checkpoint 300]
    python -m repro campaign --kernel summa [--ranks 4] [--faults 3]
    python -m repro health [--detector fixed|phi] [--seed 7]
    python -m repro jobs [--jobs 12] [--workers 4] [--spares 2]
    python -m repro trace campaign [--out trace.json]
    python -m repro detsan campaign|app [--kernel summa] [--seed 7]
    python -m repro lint [-j N] [--format text|json] [--baseline FILE]

Each subcommand prints one of the library's standard tables; the full
experiment suite lives in ``benchmarks/`` (pytest-benchmark).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import Table
from repro.cluster import cluster_metrics, design_to_budget
from repro.fault import CheckpointParams, daly_interval, efficiency
from repro.fault.models import system_mtbf
from repro.network import available_interconnects
from repro.nodes import node_family
from repro.tech import SCENARIOS, get_scenario
from repro.units import (
    GIGA,
    format_bytes,
    format_dollars,
    format_flops,
    format_power,
    format_si,
    format_time,
)

__all__ = ["build_parser", "main"]


def _parse_years(text: str):
    start, _, end = text.partition(":")
    return float(start), float(end or start)


def _cmd_roadmap(args: argparse.Namespace) -> int:
    roadmap = get_scenario(args.scenario)
    start, end = _parse_years(args.years)
    table = Table(["year", "peak/node", "DRAM/node", "$/GFLOPS",
                   "W/GFLOPS"],
                  formats={"year": "{:.0f}", "$/GFLOPS": "{:.2f}",
                           "W/GFLOPS": "{:.2f}"},
                  title=f"{args.scenario} scenario")
    year = start
    while year <= end + 1e-9:
        table.add_row([
            year,
            format_flops(roadmap.value("node_peak_flops", year)),
            format_bytes(roadmap.value("node_memory_bytes", year)),
            roadmap.dollars_per_flops(year) * GIGA,
            roadmap.watts_per_flops(year) * GIGA,
        ])
        year += 1.0
    print(table.render())
    return 0


def _cmd_nodes(args: argparse.Namespace) -> int:
    roadmap = get_scenario(args.scenario)
    table = Table(["arch", "peak", "DRAM", "balance F/B", "W", "$",
                   "rack-U"],
                  formats={"balance F/B": "{:.2f}", "W": "{:.0f}",
                           "$": "{:.0f}", "rack-U": "{:.2f}"},
                  title=f"node architectures, {args.year:g}")
    for node in node_family(roadmap, args.year):
        table.add_row([node.architecture, format_flops(node.peak_flops),
                       format_bytes(node.memory_bytes),
                       node.machine_balance, node.power_watts,
                       node.cost_dollars, node.rack_units])
    print(table.render())
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    roadmap = get_scenario(args.scenario)
    spec = design_to_budget(args.budget, roadmap, args.year, args.arch)
    metrics = cluster_metrics(spec)
    table = Table(["quantity", "value"], title=str(spec))
    table.add_row(["nodes", spec.node_count])
    table.add_row(["peak", format_flops(metrics.peak_flops)])
    table.add_row(["memory", format_bytes(metrics.memory_bytes)])
    table.add_row(["racks", metrics.packaging.racks])
    table.add_row(["floor", f"{metrics.packaging.floor_area_m2:.0f} m^2"])
    table.add_row(["power", format_power(metrics.total_watts)])
    table.add_row(["price", format_dollars(metrics.purchase_dollars)])
    table.add_row(["network", spec.interconnect.name])
    print(table.render())
    return 0


def _cmd_interconnects(args: argparse.Namespace) -> int:
    table = Table(["name", "bandwidth", "0B latency", "$/port"],
                  formats={"$/port": "{:.0f}"},
                  title=f"purchasable in {args.year:g}")
    for technology in available_interconnects(args.year):
        params = technology.loggp
        table.add_row([technology.name,
                       format_si(params.bandwidth, "B/s"),
                       format_time(params.message_time(0)),
                       technology.cost_per_port])
    print(table.render())
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    mtbf = system_mtbf(args.node_mtbf_years * 365.25 * 86400, args.nodes)
    params = CheckpointParams(args.checkpoint, args.restart, mtbf)
    tau = daly_interval(params)
    table = Table(["quantity", "value"],
                  title=f"{args.nodes} nodes, "
                        f"{args.node_mtbf_years:g}-year node MTBF")
    table.add_row(["system MTBF", format_time(mtbf)])
    table.add_row(["Daly interval", format_time(tau)])
    table.add_row(["efficiency", f"{efficiency(params, tau):.1%}"])
    print(table.render())
    return 0


def _detection_spec(args: argparse.Namespace):
    """The CLI's heartbeat-detector configuration (None = oracle)."""
    from repro.health import DetectionSpec

    detector = getattr(args, "detector", "none")
    if detector == "none":
        return None
    heartbeat = getattr(args, "heartbeat", 1e-4)
    timeout = getattr(args, "detect_timeout", None)
    if timeout is None:
        timeout = 6.0 * heartbeat
    return DetectionSpec(
        detector=detector,
        heartbeat_interval=heartbeat,
        suspect_after=timeout / 2.0,
        dead_after=timeout,
    )


def _campaign_spec(args: argparse.Namespace, *, with_faults: bool):
    """The CLI's standard campaign spec (shared by campaign and trace)."""
    import repro.apps.campaigns  # noqa: F401  (registers kernels)
    from repro.fault import CampaignSpec, LinkFaultSpec, NodeFaultSpec

    node_faults = tuple(
        NodeFaultSpec(time=args.first_fault * (index + 1),
                      rank=index % args.ranks)
        for index in range(args.faults)
    ) if with_faults else ()
    link_faults = (
        LinkFaultSpec(start=0.0, duration=args.first_fault * 4,
                      a=("h", 0), b=("s", 0)),
        LinkFaultSpec(start=0.0, duration=args.first_fault * 20,
                      a=("s", 0), b=("s", 2)),
    ) if with_faults and args.link_faults else ()
    return CampaignSpec(
        kernel=args.kernel,
        ranks=args.ranks,
        node_faults=node_faults,
        link_faults=link_faults,
        seed=args.seed,
        restart_seconds=2e-4,
        checkpoint_write_seconds=1e-4,
        detection=_detection_spec(args),
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Run one end-to-end fault campaign and print the report."""
    from repro.fault import run_campaign

    spec = _campaign_spec(args, with_faults=True)
    report = run_campaign(spec)
    print(report.summary())
    return 0 if report.answers_match else 1


def _cmd_health(args: argparse.Namespace) -> int:
    """Demo detection-driven recovery: a real crash plus (by default) a
    link outage that silences a healthy node long enough to be falsely
    declared dead — the spurious rollback must still be bit-identical.
    """
    import repro.apps.campaigns  # noqa: F401  (registers kernels)
    from repro.fault import (
        CampaignSpec,
        LinkFaultSpec,
        NodeFaultSpec,
        run_campaign,
    )
    from repro.health import DetectionSpec

    # Gossip probes are round trips (ping + ack, then four-hop relay
    # chains), so its protocol period must dwarf the fabric RTT — run
    # the gossip demo at 1 ms periods and stretch the outage to match.
    heartbeat = 1e-3 if args.detector == "gossip" else 1e-4
    detection = DetectionSpec(
        detector=args.detector,
        heartbeat_interval=heartbeat,
        suspect_after=3.0 * heartbeat,
        dead_after=6.0 * heartbeat,
    )
    # The outage severs host 1's only access link for longer than the
    # detector's patience: its heartbeats go unreachable and it is
    # falsely declared dead, while application traffic rides reliable
    # retries.  The real crash strikes rank 2 later.
    if args.detector == "gossip":
        link_faults = () if args.no_false_positive else (
            LinkFaultSpec(start=2e-3, duration=1.2e-2,
                          a=("h", 1), b=("s", 0)),
        )
        # Strike while the job is still running; the declaration then
        # lands a suspicion window later and rollback pays the MTTD.
        crash_time = 1.5e-3
    else:
        link_faults = () if args.no_false_positive else (
            LinkFaultSpec(start=6e-4, duration=1e-3,
                          a=("h", 1), b=("s", 0)),
        )
        # Without the partition stretching the run, a 2.5 ms crash
        # would land after the ~2.3 ms failure-free finish; strike
        # earlier so the detector still has a death to find.
        crash_time = 1.5e-3 if args.no_false_positive else 2.5e-3
    spec = CampaignSpec(
        kernel="stencil2d",
        ranks=4,
        name="health-demo",
        app_args=(("n", 12), ("iterations", 6)),
        node_faults=(NodeFaultSpec(time=crash_time, rank=2),),
        link_faults=link_faults,
        seed=args.seed,
        restart_seconds=2e-4,
        checkpoint_write_seconds=1e-4,
        detection=detection,
    )
    report = run_campaign(spec)
    outcome = report.faulty.detection
    assert outcome is not None
    table = Table(["time", "epoch", "node", "transition", "cause"],
                  title=f"health events ({args.detector} detector)")
    for line in outcome.health_log:
        time_text, fields = line.split(" ", 1)
        parts = dict(part.split("=", 1) for part in fields.split(" ", 3)
                     if "=" in part)
        transition = fields.split(" ")[2]
        table.add_row([format_time(float(time_text)), parts["epoch"],
                       parts["node"], transition, parts["cause"]])
    print(table.render())
    mttd = outcome.mttd_seconds
    print(f"deaths declared: {len(outcome.detections)} "
          f"({outcome.false_deaths} false); "
          f"MTTD {'n/a' if mttd != mttd else format_time(mttd)}; "
          f"availability {outcome.availability:.4f}; heartbeats "
          f"{outcome.heartbeats_delivered}/{outcome.heartbeats_sent} "
          f"delivered ({outcome.heartbeats_lost} lost)")
    print(report.summary())
    return 0 if report.answers_match else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    """Demo the lease-based job control plane under a full fault
    campaign: worker crashes, a worker stall racing its lease, a
    supervisor crash with restart, duplicate submissions, and random
    message drops — then prove at-most-once (log replay) and
    determinism (byte-identical same-seed rerun).
    """
    from repro.jobs import (
        DuplicateSubmitSpec,
        JobRequest,
        JobsCampaignSpec,
        ServiceConfig,
        SupervisorCrashSpec,
        WorkerCrashSpec,
        WorkerStallSpec,
        prove_determinism,
        run_jobs_campaign,
    )

    requests = tuple(
        JobRequest(tenant=f"tenant{i % 3}", key=f"job-{i}", kernel="sum",
                   payload=(("x", i),), work_seconds=1.2e-3,
                   submit_time=i * 2e-4)
        for i in range(args.jobs))
    spec = JobsCampaignSpec(
        requests=requests,
        name="jobs-demo",
        service=ServiceConfig(workers=args.workers,
                              spare_workers=args.spares),
        worker_crashes=(WorkerCrashSpec(time=1.1e-3, host=1),
                        WorkerCrashSpec(time=4.3e-3, host=3)),
        worker_stalls=(WorkerStallSpec(time=1.6e-3, host=2,
                                       duration=3e-3),),
        supervisor_crashes=(SupervisorCrashSpec(time=2.2e-3,
                                                restart_after=1.5e-3),),
        duplicate_submits=(DuplicateSubmitSpec(time=9e-4, index=1),
                           DuplicateSubmitSpec(time=3e-3, index=5)),
        drop_probability=0.02,
        seed=args.seed,
    )
    report = run_jobs_campaign(spec)
    print(report.summary())
    proof = prove_determinism(spec)
    print(f"determinism: {len(proof.digests)} same-seed runs -> "
          f"{'byte-identical' if proof.identical else 'DIVERGED'} "
          f"(digest {proof.digests[0][:16]})")
    ok = report.clean and proof.identical
    print("at-most-once: " + ("PROVEN" if ok else "VIOLATED"))
    return 0 if ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one instrumented workload; write Chrome trace + metrics dump.

    ``trace campaign`` replays the standard fault campaign (faults,
    checkpoints, restarts all visible in the trace); ``trace app`` runs
    the same kernel failure-free, for a clean communication timeline.
    """
    from repro.fault.campaign import run_workload
    from repro.obs import Observability, write_chrome_trace, write_metrics

    with_faults = args.mode == "campaign"
    spec = _campaign_spec(args, with_faults=with_faults)
    obs = Observability()
    outcome = run_workload(spec, faults_enabled=with_faults, obs=obs)
    obs.finalize()
    write_chrome_trace(obs, args.out)
    write_metrics(obs.metrics, args.metrics_out)
    print(f"{args.mode} {spec.kernel!r}: {len(obs.spans)} span(s), "
          f"{len(obs.instants)} instant(s), {len(obs.metrics)} metric "
          f"series; elapsed {outcome.elapsed:.6f}s over "
          f"{outcome.incarnations} incarnation(s)")
    print(f"wrote {args.out} (load in Perfetto / chrome://tracing) "
          f"and {args.metrics_out}")
    return 0


def _cmd_detsan(args: argparse.Namespace) -> int:
    """Run the same workload twice with one seed under the determinism
    sanitizer; report the first divergent scheduling decision (if any).

    Exit status 0 means the two runs folded byte-identical digests over
    the same number of events — the workload is same-seed deterministic
    at the scheduling level.  Non-zero prints the first divergent event
    with process and span attribution.
    """
    from repro.fault.campaign import run_workload
    from repro.obs import Observability
    from repro.sim.detsan import DetSanRecorder, first_divergence

    with_faults = args.mode == "campaign"
    spec = _campaign_spec(args, with_faults=with_faults)
    recorders = []
    obs = None
    for _ in range(2):
        recorder = DetSanRecorder()
        obs = Observability()
        run_workload(spec, faults_enabled=with_faults, obs=obs,
                     detsan=recorder)
        obs.finalize()
        recorders.append(recorder)
    first, second = recorders
    divergence = first_divergence(first, second, obs=obs)
    if divergence is None:
        print(f"detsan {args.mode} {spec.kernel!r}: deterministic — "
              f"{first.events_folded} event(s), digest "
              f"{first.digest[:16]}..., two same-seed runs identical")
        return 0
    print(f"detsan {args.mode} {spec.kernel!r}: NONDETERMINISTIC — "
          f"run A folded {first.events_folded} event(s) "
          f"(digest {first.digest[:16]}...), run B "
          f"{second.events_folded} (digest {second.digest[:16]}...)")
    print(divergence.describe())
    return 1


def _cmd_fabrics(args: argparse.Namespace) -> int:
    """Price the fabric design alternatives for a host count."""
    from repro.network import compare_fabrics, get_interconnect

    technology = get_interconnect(args.technology)
    table = Table(["design", "switch ports", "total $", "$/host",
                   "bisection links", "$/bisection link"],
                  formats={"total $": "{:,.0f}", "$/host": "{:,.0f}",
                           "$/bisection link": "{:,.0f}"},
                  title=f"{args.hosts} hosts on {technology.name}")
    for bill in compare_fabrics(args.hosts, technology):
        table.add_row([bill.topology_name, bill.switch_ports,
                       bill.total_dollars, bill.dollars_per_host,
                       bill.bisection_links,
                       bill.dollars_per_bisection_link])
    print(table.render())
    return 0


def _cmd_procurement(args: argparse.Namespace) -> int:
    """Compare rolling vs forklift procurement over a span."""
    from repro.cluster import simulate_fleet, time_averaged_peak

    roadmap = get_scenario(args.scenario)
    table = Table(["strategy", "time-avg peak", "final peak",
                   "max generations"],
                  title=f"${args.annual_budget:,.0f}/yr, "
                        f"{args.start:g}-{args.end:g}")
    strategies = [("rolling", dict(strategy="rolling"))]
    for interval in (2.0, 3.0, 4.0):
        strategies.append((f"forklift {interval:.0f}y",
                           dict(strategy="forklift",
                                forklift_interval_years=interval)))
    for label, kwargs in strategies:
        timeline = simulate_fleet(roadmap, args.start, args.end,
                                  args.annual_budget, **kwargs)
        table.add_row([label,
                       format_flops(time_averaged_peak(timeline)),
                       format_flops(timeline[-1].peak_flops),
                       max(fy.cohort_count for fy in timeline)])
    print(table.render())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the AST-based invariant checker (see ``repro.lint``)."""
    from repro.lint import cli as lint_cli

    return lint_cli.run(args)


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Run the experiment fleet (see ``repro.xp``)."""
    from repro.xp import cli as xp_cli

    return xp_cli.run(args)


def build_parser() -> argparse.ArgumentParser:
    """Assemble the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="clusterlaunch quick reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    roadmap = sub.add_parser("roadmap", help="technology curves")
    roadmap.add_argument("--scenario", default="nominal",
                         choices=sorted(SCENARIOS))
    roadmap.add_argument("--years", default="2003:2010",
                         help="start:end, e.g. 2003:2010")
    roadmap.set_defaults(func=_cmd_roadmap)

    nodes = sub.add_parser("nodes", help="node architecture table")
    nodes.add_argument("--year", type=float, default=2006.0)
    nodes.add_argument("--scenario", default="nominal",
                       choices=sorted(SCENARIOS))
    nodes.set_defaults(func=_cmd_nodes)

    design = sub.add_parser("design", help="budget-sized cluster")
    design.add_argument("--budget", type=float, required=True)
    design.add_argument("--year", type=float, required=True)
    design.add_argument("--arch", default="conventional")
    design.add_argument("--scenario", default="nominal",
                        choices=sorted(SCENARIOS))
    design.set_defaults(func=_cmd_design)

    interconnects = sub.add_parser("interconnects",
                                   help="interconnect catalog")
    interconnects.add_argument("--year", type=float, default=2006.0)
    interconnects.set_defaults(func=_cmd_interconnects)

    fabrics = sub.add_parser("fabrics", help="price fabric designs")
    fabrics.add_argument("--hosts", type=int, required=True)
    fabrics.add_argument("--technology", default="infiniband_4x")
    fabrics.set_defaults(func=_cmd_fabrics)

    procurement = sub.add_parser("procurement",
                                 help="procurement strategy comparison")
    procurement.add_argument("--annual-budget", type=float, default=2e6)
    procurement.add_argument("--start", type=float, default=2003.0)
    procurement.add_argument("--end", type=float, default=2010.0)
    procurement.add_argument("--scenario", default="nominal",
                             choices=sorted(SCENARIOS))
    procurement.set_defaults(func=_cmd_procurement)

    fleet = sub.add_parser(
        "fleet", help="experiment fleet runner with result cache")
    from repro.xp import cli as xp_cli

    xp_cli.add_arguments(fleet)
    fleet.set_defaults(func=_cmd_fleet)

    lint = sub.add_parser("lint",
                          help="check determinism/units/API invariants")
    from repro.lint import cli as lint_cli

    lint_cli.add_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    def add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
        """Campaign-shape options (campaign, trace and detsan)."""
        parser.add_argument("--kernel", default="summa",
                            help="registered kernel name (summa, stencil2d)")
        parser.add_argument("--ranks", type=int, default=4)
        parser.add_argument("--faults", type=int, default=3,
                            help="number of scheduled node faults")
        parser.add_argument("--first-fault", type=float, default=6e-4,
                            help="virtual seconds until the first fault")
        parser.add_argument("--seed", type=int, default=7)
        parser.add_argument("--no-link-faults", dest="link_faults",
                            action="store_false",
                            help="skip the default link down windows")
        parser.add_argument("--detector", default="none",
                            choices=("none", "fixed", "phi"),
                            help="none = oracle recovery; fixed/phi = "
                                 "heartbeat-detected recovery")
        parser.add_argument("--heartbeat", type=float, default=1e-4,
                            help="heartbeat interval in virtual seconds")
        parser.add_argument("--detect-timeout", type=float, default=None,
                            help="dead-declaration silence threshold "
                                 "(default 6 heartbeat intervals)")

    campaign = sub.add_parser(
        "campaign", help="fault campaign on a real kernel")
    add_campaign_arguments(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    health = sub.add_parser(
        "health", help="detection-driven recovery demo (false positive "
                       "included)")
    health.add_argument("--detector", default="fixed",
                        choices=("fixed", "phi", "gossip"))
    health.add_argument("--seed", type=int, default=7)
    health.add_argument("--no-false-positive", action="store_true",
                        help="skip the link outage that forces a false "
                             "death declaration")
    health.set_defaults(func=_cmd_health)

    jobs = sub.add_parser(
        "jobs", help="lease-based job control plane demo: at-most-once "
                     "under a full fault campaign")
    jobs.add_argument("--jobs", type=int, default=12,
                      help="number of tenant submissions")
    jobs.add_argument("--workers", type=int, default=4)
    jobs.add_argument("--spares", type=int, default=2,
                      help="spare workers activated on declared deaths")
    jobs.add_argument("--seed", type=int, default=7)
    jobs.set_defaults(func=_cmd_jobs)

    def add_workload_arguments(parser: argparse.ArgumentParser) -> None:
        """Shared mode + campaign-shape options (trace and detsan)."""
        parser.add_argument("mode", choices=("campaign", "app"),
                            help="campaign = standard fault campaign; "
                                 "app = same kernel, failure-free")
        add_campaign_arguments(parser)

    trace = sub.add_parser(
        "trace", help="Chrome trace + metrics dump of an instrumented run")
    add_workload_arguments(trace)
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace_event JSON output path")
    trace.add_argument("--metrics-out", default="metrics.txt",
                       help="plain-text metrics dump output path")
    trace.set_defaults(func=_cmd_trace)

    detsan = sub.add_parser(
        "detsan", help="determinism sanitizer: same-seed double run, "
                       "report the first divergent event")
    add_workload_arguments(detsan)
    detsan.set_defaults(func=_cmd_detsan)

    faults = sub.add_parser("faults", help="reliability at a scale")
    faults.add_argument("--nodes", type=int, required=True)
    faults.add_argument("--node-mtbf-years", type=float, default=3.0)
    faults.add_argument("--checkpoint", type=float, default=300.0)
    faults.add_argument("--restart", type=float, default=600.0)
    faults.set_defaults(func=_cmd_faults)

    return parser


def main(argv=None) -> int:
    """CLI entry point (also installed as ``clusterlaunch``)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
