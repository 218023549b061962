"""The cfsm benchmark: CLI sessions on seeded fixtures, checked and timed.

    python3 bench/run.py --workload signal_id --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports cfsm from the checkout's
``src/`` and exits non-zero, printing no result, when that is missing.

Load is one process and one thread: a closed loop with one client, where a
job is one session, the fixed list of ``cfsm`` invocations its workload
names (see ``workloads.py``), run through ``cfsm.cli.run_cli`` on a fresh
fixture set. No two jobs share an input file. Only the invocations are
timed; writing fixtures and saving outputs happen between jobs. After the
measured loop every job's outputs are checked, untimed, against
definition-literal recomputations, and a job fails on a non-zero exit or a
mismatch.

``--trace 0`` prints the end-to-end metrics:

* ``job_ms_p50``, ``job_ms_p90``: median and tail job wall time;
* ``jobs_per_s``: verified jobs per second of time spent in jobs;
* ``setup_s``: median over seven fresh processes of ``import cfsm.cli``
  plus the warm-up jobs (this process is the seventh);
* ``peak_rss_mib``: ``ru_maxrss`` of this process at the end of the loop.

Every time is reported at a nominal host speed: each job and each set-up
is rescaled by a pure-Python gauge loop timed right before and after it
(see ``harness.py``), because this kind of shared host changes speed by up
to 2x within seconds and that would swamp any change of the program. The
detail line keeps the raw wall-time percentiles and the host slowdown.

``failed / attempted`` of the result line is the failed-job ratio.

``--trace 1`` halves the measured loop, then runs the same number of
seconds again with every span of ``spans.SPANS`` wrapped, and a few jobs
under tracemalloc; it prints the per-layer metrics (calls, self_ms, share
and peak_kib per span, the usual product's useful_ratio, and the tracing
overhead) and writes the spans to ``.bench_work/traces/``.

The last line of stdout is the result object; the line before it holds
the provenance (Python, nproc, commit, seed, src_lines) and a SHA-256 of
the first jobs' outputs, for comparing two commits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import harness
import spans
import workloads

SETUP_PROBES = 6  # fresh processes besides this one
DIGEST_JOBS = 10
MEMORY_JOBS = 3
BENCH = Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes (smoke test)")
    args = parser.parse_args()
    harness.use_source()

    work = harness.ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        detail, result = Bench(args, work).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


class Bench:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.failures: list[str] = []
        self.attempted = 0

    def job(self, tag: str) -> workloads.Job:
        a = self.args
        return workloads.make_job(a.workload, a.seed, tag, self.work / tag, a.tiny)

    def loop(self, cli, prefix: str, seconds: float, tracer=None) -> list:
        """Closed loop: the next job starts when the previous one is done."""
        runs = []
        deadline = perf_counter() + seconds
        while not runs or perf_counter() < deadline:
            job = self.job(f"{prefix}{len(runs)}")
            if tracer is not None:
                tracer.job = len(runs)
            runs.append(harness.run_job(cli.run_cli, job))
        return runs

    def run(self):
        a = self.args
        setup = [self.probe(k) for k in range(SETUP_PROBES)] if a.trace == 0 else []
        cli, nominal_s, warm = harness.set_up(a.workload, a.seed, "main", self.work, a.tiny)
        setup.append(nominal_s)
        loop_s = a.seconds / 2 if a.trace else a.seconds
        measured = self.loop(cli, "job", loop_s)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        traced, tracer, memory, in_memory = [], None, None, []
        if a.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = self.loop(cli, "traced", loop_s, tracer)
            finally:
                tracer.uninstall()
            memory = spans.Tracer(memory=True)
            memory.install()
            try:
                for i in range(MEMORY_JOBS):
                    memory.job = i
                    in_memory.append(harness.run_job(cli.run_cli, self.job(f"mem{i}")))
            finally:
                memory.uninstall()

        digest = hashlib.sha256()
        for run in in_memory:
            self.check(run)
        for n, run in enumerate(warm + measured + traced):
            self.check(run, digest if len(warm) <= n < len(warm) + DIGEST_JOBS else None)
        bad = {f.split(":", 1)[0] for f in self.failures}
        failed = len(bad)
        for line in self.failures[:5]:
            print(f"bench: {line}", file=sys.stderr)

        times = [run.nominal_s for run in measured]
        if a.trace:
            metrics = per_layer(traced, tracer, memory, times)
        else:
            verified = sum(1 for run in measured if run.job.tag not in bad)
            metrics = {
                "job_ms_p50": (statistics.median(times) * 1e3, "ms"),
                "job_ms_p90": (_p90(times) * 1e3, "ms"),
                "jobs_per_s": (verified / sum(times), "1/s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mib": (rss_mib, "MiB"),
            }
        detail = {
            "workload": a.workload,
            "seed": a.seed,
            "seconds": a.seconds,
            "trace": a.trace,
            "jobs_measured": len(measured),
            "jobs_traced": len(traced),
            "setup_samples_s": setup,
            "wall_job_ms_p50": statistics.median(run.wall_s for run in measured) * 1e3,
            "wall_job_ms_p90": _p90([run.wall_s for run in measured]) * 1e3,
            "host_slowdown": statistics.median(run.wall_s / run.nominal_s for run in measured),
            "failed_ratio": failed / self.attempted,
            "outputs_sha256": digest.hexdigest(),
            "provenance": provenance(a.seed),
        }
        if a.trace:
            detail["spans_file"] = str(write_spans(tracer, a.workload, a.seed))
            detail["layers"] = {span.name: span.moves for span in spans.SPANS}
        result = {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
        return detail, result

    def probe(self, k: int) -> float:
        a = self.args
        cmd = [sys.executable, str(BENCH / "setup_probe.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--tag", f"probe{k}", "--dir", str(self.work)]
        done = subprocess.run(cmd + (["--tiny"] if a.tiny else []), capture_output=True,
                              text=True, timeout=170, check=True)
        report = json.loads(done.stdout.splitlines()[-1])
        self.attempted += harness.WARMUP_JOBS
        if not report["ok"]:
            self.failures.append(f"probe{k}: a warm-up invocation exited non-zero")
        return report["nominal_s"]

    def check(self, run, digest=None) -> None:
        """Verify one finished job against the literal recomputation."""
        self.attempted += 1
        tag = run.job.tag
        if any(code != 0 for code in run.codes):
            self.failures.append(f"{tag}: exit codes {run.codes}: {run.stderr.strip()[-300:]}")
            return
        stdouts, reports = run.outputs()
        if digest is not None:
            for text in stdouts + reports:
                digest.update(text.encode("utf-8"))
        try:
            errors = workloads.verify(run.job, stdouts, reports)
        except ValueError as exc:  # a number the check cannot parse
            errors = [f"unreadable output: {exc}"]
        self.failures += [f"{tag}: {error}" for error in errors]


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def per_layer(traced, tracer, memory, untraced_times) -> dict:
    """Self times are rescaled by their job's host speed, like job times."""
    own = spans.self_times(tracer.spans)
    by_job: dict = defaultdict(lambda: defaultdict(float))
    calls: dict = defaultdict(Counter)
    for (name, _, _, _, job), t in zip(tracer.spans, own):
        run = traced[job]
        by_job[job][name] += t * run.nominal_s / run.wall_s
        calls[job][name] += 1
    jobs = range(len(traced))
    times = [run.nominal_s for run in traced]
    peaks: dict = defaultdict(dict)
    for name, peak, job in memory.spans:
        peaks[name][job] = max(peaks[name].get(job, 0), peak)

    metrics = {}
    for span in spans.SPANS:
        n = span.name
        metrics[f"{n}.calls"] = (statistics.median(calls[j][n] for j in jobs), "count")
        metrics[f"{n}.self_ms"] = (statistics.median(by_job[j][n] for j in jobs) * 1e3, "ms")
        metrics[f"{n}.share"] = (sum(by_job[j][n] for j in jobs) / sum(times), "ratio")
        if span.kind in ("parse", "compute"):
            per_job = [peaks[n].get(j, 0) / 1024 for j in range(MEMORY_JOBS)]
            metrics[f"{n}.peak_kib"] = (statistics.median(per_job), "KiB")
    keyed_calls = sum(calls[j][spans.KEYED] for j in jobs)
    distinct = sum(len(keys) for keys in tracer.keys.values())
    metrics[f"{spans.KEYED}.useful_ratio"] = (distinct / keyed_calls if keyed_calls else 1.0, "ratio")
    traced_p50 = statistics.median(times)
    metrics["trace.job_ms_p50"] = (traced_p50 * 1e3, "ms")
    metrics["trace.overhead_ms"] = ((traced_p50 - statistics.median(untraced_times)) * 1e3, "ms")
    metrics["trace.unattributed_share"] = (
        statistics.median((t - sum(by_job[j].values())) / t for j, t in zip(jobs, times)),
        "ratio",
    )
    return metrics


def write_spans(tracer, workload: str, seed: int) -> Path:
    own = spans.self_times(tracer.spans)
    out = harness.ROOT / ".bench_work" / "traces" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps([
        {"name": name, "start": start, "end": end, "parent": parent, "job": job, "self": t}
        for (name, start, end, parent, job), t in zip(tracer.spans, own)
    ]))
    return out


def provenance(seed: int) -> dict:
    src = harness.SRC / "cfsm"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(harness.ROOT / ".git"),
        "seed": seed,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py")),
    }


def _commit(git: Path) -> str:
    """HEAD's commit read from the files, so no git process is needed."""
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    main()
