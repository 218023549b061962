"""Per-layer spans, recorded from outside the program.

The layers are cfsm's modules. Each span wraps one public callable where
the caller looks it up: names ``cfsm.cli`` imported directly are wrapped
in ``cfsm.cli``, and ``identify.column_min`` also in ``cfsm.identify``,
where ``maxmin_decision`` calls it. ``fileio.fullprec`` and
``fileio.display`` are not spanned; their cost stays in ``cli`` self time.
"""

from __future__ import annotations

import functools
import importlib
import tracemalloc
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    name: str  # <module>.<public callable>
    targets: tuple[str, ...]  # "<module>:<attribute path>" to wrap
    kind: str  # root, parse, compute or format; parse and compute get peak_kib
    moves: str  # the end-to-end metric this layer should move, and where


SPANS = (
    Span("cli.run_cli", ("cfsm.cli:run_cli",), "root",
         "every job_ms_p50 by a few % (argparse, report printing); setup_s via import"),
    Span("fileio.parse_signal_file", ("cfsm.fileio:parse_signal_file",), "parse",
         "job_ms_p50 on signal_id"),
    Span("fileio.parse_complex_csv", ("cfsm.fileio:parse_complex_csv",), "parse",
         "job_ms_p50 on cf_algebra"),
    Span("fileio.parse_magnitude_csv", ("cfsm.fileio:parse_magnitude_csv",), "parse",
         "job_ms_p50 on soft_decision"),
    Span("fileio.parse_complex_sequence", ("cfsm.fileio:parse_complex_sequence",), "parse",
         "job_ms_p50 on transform (small)"),
    Span("fileio.emit_plot_series", ("cfsm.fileio:emit_plot_series",), "format",
         "job_ms_p50 on signal_id"),
    Span("fileio.format_complex_csv", ("cfsm.fileio:format_complex_csv",), "format",
         "job_ms_p50 on cf_algebra"),
    Span("fileio.format_magnitude_csv", ("cfsm.fileio:format_magnitude_csv",), "format",
         "job_ms_p50 on soft_decision"),
    Span("fileio.format_real_csv", ("cfsm.fileio:format_real_csv",), "format",
         "job_ms_p50 on soft_decision"),
    Span("fileio.format_complex_sequence", ("cfsm.fileio:format_complex_sequence",), "format",
         "job_ms_p50 on transform"),
    Span("fourier.CandidateSignal.from_amplitudes",
         ("cfsm.fourier:CandidateSignal.from_amplitudes",), "compute",
         "job_ms_p50 on signal_id (expand)"),
    Span("fourier.dft", ("cfsm.cli:dft",), "compute", "job_ms_p50 on transform"),
    Span("fourier.idft", ("cfsm.cli:idft",), "compute", "job_ms_p50 on transform"),
    Span("identify.fourier_identify", ("cfsm.cli:fourier_identify",), "compute",
         "job_ms_p50 and jobs_per_s on signal_id"),
    Span("identify.maxmin_decision", ("cfsm.cli:maxmin_decision",), "compute",
         "job_ms_p50 on soft_decision"),
    Span("identify.column_min", ("cfsm.cli:column_min", "cfsm.identify:column_min"), "compute",
         "job_ms_p50 on soft_decision"),
    Span("cfmatrix.ComplexFuzzyMatrix.maxmin", ("cfsm.cfmatrix:ComplexFuzzyMatrix.maxmin",),
         "compute", "job_ms_p50 on cf_algebra; peak_kib -> peak_rss_mib"),
    Span("cfmatrix.ComplexFuzzyMatrix.fuzzy_add",
         ("cfsm.cfmatrix:ComplexFuzzyMatrix.fuzzy_add",), "compute", "job_ms_p50 on cf_algebra"),
    Span("cfmatrix.ComplexFuzzyMatrix.trace", ("cfsm.cfmatrix:ComplexFuzzyMatrix.trace",),
         "compute", "job_ms_p50 on cf_algebra"),
    Span("cfmatrix.ComplexFuzzyMatrix.conjugate_transpose",
         ("cfsm.cfmatrix:ComplexFuzzyMatrix.conjugate_transpose",), "compute",
         "job_ms_p50 on cf_algebra"),
) + tuple(
    Span(f"softmatrix.MagnitudeMatrix.{method}", (f"cfsm.softmatrix:MagnitudeMatrix.{method}",),
         "compute", "job_ms_p50 on soft_decision")
    for method in (
        "usual_product", "and_product", "or_product", "and_not_product", "or_not_product",
        "union", "intersection", "complement",
    )
)

# calls whose operands repeat within one invocation recompute a result the
# invocation already has; useful_ratio = distinct operand pairs / calls
KEYED = "softmatrix.MagnitudeMatrix.usual_product"


class Tracer:
    """Records (name, start, end, parent, job) per call, in memory.

    With ``memory=True`` it records instead each span's tracemalloc peak
    above the traced size at entry, in bytes, as (name, peak, job).
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.job = None
        self.spans: list = []
        self.keys: dict = {}  # job -> set of (root span, id(a), id(b)) for KEYED
        self._stack: list = []
        self._restore: list = []

    def install(self) -> None:
        for span in SPANS:
            for target in span.targets:
                module_name, _, path = target.partition(":")
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
                self._restore.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span.name, raw.__func__))
                else:
                    wrapped = self._wrap(span.name, raw)
                setattr(owner, attr, wrapped)
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap(self, name, fn):
        wrapper = self._memory_call if self.memory else self._timed_call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return wrapper(name, fn, args, kwargs)

        return traced

    def _timed_call(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        if name == KEYED:
            root = self._stack[0] if self._stack else index
            self.keys.setdefault(self.job, set()).add((root, id(args[0]), id(args[1])))
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.job)

    def _memory_call(self, name, fn, args, kwargs):
        # tracemalloc keeps one peak; reset it per span and fold each
        # child's peak back into its parent on the way out
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], peak)
        tracemalloc.reset_peak()
        frame = [current, current]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], frame[1])
            self.spans.append((name, frame[1] - frame[0], self.job))


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
