"""Standard Workload Format (SWF) import/export.

SWF is the Parallel Workloads Archive's interchange format (Feitelson et
al.) — the lingua franca of the batch-scheduling literature this package
reproduces.  Supporting it means our policies can replay *real site
traces* and our synthetic workloads can feed other simulators.

Format: ``;``-prefixed header comments, then one job per line with 18
whitespace-separated fields.  We consume the four fields the rigid-job
model needs and preserve the rest on export with the conventional ``-1``
"unknown" marker:

====  ======================  ==========================
 #    SWF field               maps to
====  ======================  ==========================
 1    job number              ``Job.job_id``
 2    submit time (s)         ``Job.submit_time``
 4    run time (s)            ``Job.runtime``
 5    allocated processors    ``Job.nodes``
 9    requested time (s)      ``Job.estimate``
====  ======================  ==========================

Jobs with unknown/invalid runtime, width, or submit time (``-1`` fields)
are skipped, as simulators conventionally do; requested-time falls back
to the actual runtime when absent.
"""

from __future__ import annotations

from typing import Iterable, List, TextIO, Union

from repro.scheduler.job import Job

__all__ = ["parse_swf", "format_swf", "load_swf", "dump_swf"]

_FIELDS = 18


def parse_swf(text: str) -> List[Job]:
    """Parse SWF text into jobs (sorted by submit time).

    Raises :class:`ValueError` on structurally malformed job lines
    (wrong field count / non-numeric fields); *semantically* unusable
    jobs (unknown runtime etc.) are skipped per community convention.
    """
    jobs: List[Job] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        fields = line.split()
        if len(fields) != _FIELDS:
            raise ValueError(
                f"SWF line {line_number}: expected {_FIELDS} fields, got "
                f"{len(fields)}"
            )
        try:
            job_id = int(fields[0])
            submit = float(fields[1])
            runtime = float(fields[3])
            processors = int(fields[4])
            requested = float(fields[8])
        except ValueError as error:
            raise ValueError(
                f"SWF line {line_number}: non-numeric field ({error})"
            ) from None
        if submit < 0 or runtime <= 0 or processors < 1:
            continue  # unknown/cancelled jobs: skip, per convention
        estimate = requested if requested > 0 else runtime
        # Real traces contain under-estimates; the rigid-job model allows
        # them (the scheduler kills nothing here), so pass them through.
        jobs.append(Job(job_id=job_id, submit_time=submit,
                        nodes=processors, runtime=runtime,
                        estimate=estimate))
    jobs.sort(key=lambda job: (job.submit_time, job.job_id))
    return jobs


def format_swf(jobs: Iterable[Job], max_nodes: int = 0,
               comment: str = "") -> str:
    """Serialise jobs as SWF text (unknown fields written as ``-1``)."""
    lines: List[str] = [
        "; SWF written by repro (clusterlaunch)",
    ]
    if comment:
        lines.append(f"; {comment}")
    if max_nodes:
        lines.append(f"; MaxProcs: {max_nodes}")
    for job in jobs:
        fields = [-1] * _FIELDS
        fields[0] = job.job_id
        fields[1] = int(round(job.submit_time))
        fields[2] = -1                       # wait time: scheduler output
        fields[3] = int(round(job.runtime))
        fields[4] = job.nodes
        fields[7] = job.nodes                # requested processors
        fields[8] = int(round(job.estimate))
        lines.append(" ".join(str(f) for f in fields))
    return "\n".join(lines) + "\n"


def load_swf(source: Union[str, TextIO]) -> List[Job]:
    """Load jobs from an SWF file path or open text stream."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return parse_swf(handle.read())
    return parse_swf(source.read())


def dump_swf(jobs: Iterable[Job], destination: Union[str, TextIO],
             max_nodes: int = 0, comment: str = "") -> None:
    """Write jobs to an SWF file path or open text stream."""
    text = format_swf(jobs, max_nodes=max_nodes, comment=comment)
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        destination.write(text)
