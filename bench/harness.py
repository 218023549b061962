"""Locating the program, running one job in-process, and the set-up phase.

The benchmark drives cfsm the way users do, through ``cfsm.cli.run_cli``
with stdout and stderr captured, and imports it only from ``src/`` of the
checkout that holds this directory.

Host speed: on a shared host the speed at which Python runs can swing by
nearly 2x within seconds, and Python code of every kind slows by about the
same factor. So a fixed gauge (container and float work, then a small
naive DFT) is timed right before and right after each timed stretch, and
the stretch is reported rescaled to the gauge's nominal time:
``nominal = wall * GAUGE_NOMINAL_S / gauge``. On a shared 2-vCPU Xeon
virtual machine, in one process over a minute, this cut the spread of
4-second medians of every workload from 7-23% to 2-4% (coefficient of
variation). Work that slows all Python code in the process alike (a trace
hook left on, say) is rescaled away with it; the raw wall times stay in
the detail line.
"""

from __future__ import annotations

import cmath
import gc
import importlib
import io
import math
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WARMUP_JOBS = 2
GAUGE_NOMINAL_S = 0.003


def gauge() -> float:
    """Seconds a fixed piece of Python takes right now, with GC off so the
    program's heap does not reach it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc, slots = 0.0, {}
        for i in range(3000):
            pair = (i * 0.5, float(i))
            acc += min(pair) * 1.0001
            slots[i & 255] = pair
        xs = [complex(i, 1.0) for i in range(64)]
        for k in range(20):
            acc += abs(sum(x * cmath.exp(-2j * math.pi * k * t / 64) for t, x in enumerate(xs)))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def timed(fn):
    """Run ``fn``; return its result, wall seconds and nominal seconds."""
    before = gauge()
    start = perf_counter()
    result = fn()
    wall = perf_counter() - start
    return result, wall, wall * 2 * GAUGE_NOMINAL_S / (before + gauge())


def use_source() -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero."""
    if not (SRC / "cfsm" / "cli.py").is_file():
        sys.exit(f"bench: no cfsm source at {SRC / 'cfsm'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))


def import_cli():
    cli = importlib.import_module("cfsm.cli")
    if Path(cli.__file__).resolve().parent != SRC / "cfsm":
        sys.exit(f"bench: imported cfsm from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class JobRun:
    job: workloads.Job
    wall_s: float
    nominal_s: float  # wall_s at the gauge's nominal host speed
    codes: list  # exit code per invocation; None where it raised
    stdout_files: list[Path]  # kept on disk, so saved outputs do not grow the RSS
    stderr: str

    def outputs(self) -> tuple[list[str], list[str]]:
        """The stdout of each invocation, and the report files written."""
        stdouts = [p.read_text(encoding="utf-8") for p in self.stdout_files]
        reports = [p.read_text(encoding="utf-8") for p in self.job.reports if p.is_file()]
        return stdouts, reports


def run_job(run_cli: Callable, job: workloads.Job) -> JobRun:
    """Run the job's invocations back to back; only they are timed.
    Their stdout is saved next to the job's fixtures afterwards."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    codes, marks = [], []

    def session():
        for argv in job.argvs:
            try:
                codes.append(run_cli(list(argv)))
            except Exception:  # a traceback is a failed job, not a crashed run
                codes.append(None)
                err.write(traceback.format_exc())
            marks.append(out.tell())

    with redirect_stdout(out), redirect_stderr(err):
        _, wall, nominal = timed(session)
    text = out.getvalue()
    files = []
    for k, (a, b) in enumerate(zip([0] + marks, marks)):
        files.append(job.directory / f"stdout{k}.txt")
        files[-1].write_text(text[a:b], encoding="utf-8")
    return JobRun(job, wall, nominal, codes, files, err.getvalue())


def set_up(workload: str, seed: int, tag: str, directory: Path, tiny: bool):
    """Import the CLI and run the warm-up jobs in this (fresh) process.

    Returns the CLI module, the nominal seconds that took, and the warm-up
    runs. Fixture writing is the benchmark's own work and stays
    outside the time.
    """
    jobs = [
        workloads.make_job(workload, seed, f"{tag}-warm{i}", directory / f"{tag}-warm{i}", tiny)
        for i in range(WARMUP_JOBS)
    ]

    def start():
        cli = import_cli()
        return cli, [run_job(cli.run_cli, job) for job in jobs]

    (cli, runs), _, nominal = timed(start)
    return cli, nominal, runs
