"""Seeded fixtures, the cfsm sessions that read them, and the check of
every output against definition-literal recomputations.

A job is one session: the fixed list of ``cfsm`` invocations that its
workload names, run on a fresh fixture set written to its own directory.
Fixture values are a pure function of (workload, seed, job tag), so the
check regenerates them instead of reading the files back.

The checks never call the arithmetic of the module under test. Min/max
outputs (scores, winners, tie lines, the report TSV, max-min composition,
add, trace, conjugate transpose, block and set products) are compared as
exact text. Sums are compared to the test suite's absolute bounds plus
half a unit in the 12th significant digit that ``%.12g`` printing drops:
1e-12 for the usual product and the decision degrees, 1e-9 for the DFT.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import random
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from operator import mul
from pathlib import Path

SUM_TOL = 1e-12
TRANSFORM_TOL = 1e-9
TWO_PI = 2.0 * math.pi

# full size, and the smallest size the smoke test runs
SIZES = {
    "signal_id": {"full": (32, 4), "tiny": (4, 2)},  # (N, candidates)
    "cf_algebra": {"full": 24, "tiny": 3},
    "soft_decision": {"full": (48, 16), "tiny": (4, 2)},  # (decision, block)
    "transform": {"full": 256, "tiny": 8},
}
WORKLOADS = tuple(SIZES)

_BLOCK_OPS = {
    "and": lambda a, b: min(a, b),
    "or": lambda a, b: max(a, b),
    "andnot": lambda a, b: min(a, 1.0 - b),
    "ornot": lambda a, b: max(a, 1.0 - b),
}
_SET_OPS = {"union": max, "inter": min}


@dataclass(frozen=True)
class Job:
    workload: str
    seed: int
    tag: str
    tiny: bool
    directory: Path
    argvs: tuple[tuple[str, ...], ...]
    reports: tuple[Path, ...]  # files the session writes besides stdout


def make_job(workload: str, seed: int, tag: str, directory: Path, tiny: bool) -> Job:
    """Write the fixture files of one job and return its invocations."""
    directory.mkdir(parents=True)
    values = _values(workload, seed, tag, tiny)
    argvs, reports = _WRITERS[workload](values, directory)
    return Job(workload, seed, tag, tiny, directory, tuple(map(tuple, argvs)), tuple(reports))


def verify(job: Job, stdouts: list[str], reports: list[str]) -> list[str]:
    """Mismatches between a job's outputs and the literal recomputation."""
    values = _values(job.workload, job.seed, job.tag, job.tiny)
    if len(stdouts) != len(job.argvs):
        return [f"expected {len(job.argvs)} outputs, got {len(stdouts)}"]
    return _CHECKERS[job.workload](values, stdouts, reports)


def _values(workload: str, seed: int, tag: str, tiny: bool):
    rng = random.Random(f"cfsm-bench:{workload}:{seed}:{tag}")
    return _GENERATORS[workload](rng, SIZES[workload]["tiny" if tiny else "full"])


# -- shared helpers ----------------------------------------------------------


def _fp(value: float) -> str:
    return f"{value:.12g}"


def _half_up(text: str) -> str:
    return str(Decimal(text).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _grid01(rng: random.Random, rows: int, cols: int, top: int = 100) -> list[list[float]]:
    return [[rng.randrange(top + 1) / 100 for _ in range(cols)] for _ in range(rows)]


def _write_csv(path: Path, rows) -> str:
    path.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")
    return str(path)


def _csv_text(grid) -> str:
    return "\n".join(",".join(_fp(v) for v in row) for row in grid) + "\n"


def _same_text(what: str, got: str, want: str) -> list[str]:
    if got == want:
        return []
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for n, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return [f"{what} line {n}: got {g[:120]!r}, want {w[:120]!r}"]
    return [f"{what}: got {len(got_lines)} lines, want {len(want_lines)}"]


def _print_slack(got: float, want: float) -> float:
    """Half a unit in the 12th significant digit, which %.12g drops."""
    scale = max(abs(got), abs(want))
    return 0.5 * 10.0 ** (math.floor(math.log10(scale)) - 11) if scale else 0.0


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol + _print_slack(got, want)


# -- signal_id: identify fourier --report -------------------------------------


def _gen_signals(rng, size):
    big_n, candidates = size
    labels = ["r"] + [f"c{i}" for i in range(1, candidates + 1)]
    # amplitudes on the 0.01 grid under a per-record cap, so exact best-score
    # ties happen in some jobs and not in others
    return [(label, _grid01(rng, big_n, big_n, rng.randrange(90, 101))) for label in labels]


def _write_signals(records, directory):
    def record(label, rows):
        return {"id": label, "samples": [{"amplitudes": row} for row in rows]}

    (ref_label, ref_rows), *candidates = records
    doc = {
        "N": len(ref_rows),
        "reference": record(ref_label, ref_rows),
        "signals": [record(label, rows) for label, rows in candidates],
    }
    path = directory / "signals.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report = directory / "series.tsv"
    return [["identify", "fourier", "--input", str(path), "--report", str(report)]], [report]


def _check_signals(records, stdouts, reports):
    (_, ref_rows), *candidates = records
    lines, bests, series = [], [], []
    for label, rows in candidates:
        # every ordered term pair of the two samples, scaled by 1/(K*L)
        scores = [
            max(map(min, itertools.product(c, r))) / (len(c) * len(r))
            for c, r in zip(rows, ref_rows)
        ]
        best = max(scores)
        bests.append(best)
        series.append(scores)
        lines.append(
            f"signal {label}: scores {' '.join(map(_fp, scores))} "
            f"| display {' '.join(_half_up(_fp(s)) for s in scores)} "
            f"| best {_fp(best)} ({_half_up(_fp(best))})"
        )
    labels = [label for label, _ in candidates]
    tied = [label for label, best in zip(labels, bests) if best == max(bests)]
    if len(tied) > 1:
        lines.append("tie between: " + ", ".join(tied))
    lines.append(f"winner: {tied[0]}")
    tsv = ["n\t" + "\t".join(labels)]
    tsv += ["\t".join([str(n)] + [_fp(s[n]) for s in series]) for n in range(len(ref_rows))]
    return _same_text("identify fourier", stdouts[0], "\n".join(lines) + "\n") + _same_text(
        "report", reports[0] if reports else "", "\n".join(tsv) + "\n"
    )


# -- cf_algebra: matrix maxmin, add, trace, ctrans ------------------------------


def _gen_complex(rng, n):
    def cell():
        amp = rng.randrange(101) / 100
        # phases below 2*pi on the 0.01 grid; a bare amplitude means phase 0
        phase = 0.0 if rng.randrange(8) == 0 else rng.randrange(1, 629) / 100
        return amp, phase

    return [[cell() for _ in range(n)] for _ in range(n)], [
        [cell() for _ in range(n)] for _ in range(n)
    ]


def _write_complex(values, directory):
    def text(amp, phase):
        return repr(amp) if phase == 0.0 else f"{amp!r}@{phase!r}"

    a, b = (
        _write_csv(directory / name, [[text(*c) for c in row] for row in grid])
        for name, grid in (("a.csv", values[0]), ("b.csv", values[1]))
    )
    return [
        ["matrix", "maxmin", "--a", a, "--b", b],
        ["matrix", "add", "--a", a, "--b", b],
        ["matrix", "trace", "--a", a],
        ["matrix", "ctrans", "--a", b],
    ], []


def _conjugate_phase(phase: float) -> float:
    if phase == 0.0:
        return 0.0
    p = math.fmod(TWO_PI - phase, TWO_PI)
    return 0.0 if p >= TWO_PI else p


def _check_complex(values, stdouts, reports):
    from cfsm.cfmatrix import ComplexFuzzyMatrix
    from cfsm.oracle import naive_maxmin

    a, b = values
    n = len(a)

    def cells(grid):
        return "\n".join(",".join(f"{_fp(amp)}@{_fp(ph)}" for amp, ph in row) for row in grid) + "\n"

    composed = naive_maxmin(ComplexFuzzyMatrix.from_rows(a), ComplexFuzzyMatrix.from_rows(b))
    maxmin = [
        [(composed.at(i, j).amplitude, composed.at(i, j).phase) for j in range(n)]
        for i in range(n)
    ]
    added = [
        [(max(x[0], y[0]), max(x[1], y[1])) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)
    ]
    diagonal = [a[i][i] for i in range(n)]
    trace = f"{_fp(max(d[0] for d in diagonal))}@{_fp(max(d[1] for d in diagonal))}\n"
    ctrans = [[(b[i][j][0], _conjugate_phase(b[i][j][1])) for i in range(n)] for j in range(n)]
    return (
        _same_text("matrix maxmin", stdouts[0], cells(maxmin))
        + _same_text("matrix add", stdouts[1], cells(added))
        + _same_text("matrix trace", stdouts[2], trace)
        + _same_text("matrix ctrans", stdouts[3], cells(ctrans))
    )


# -- soft_decision: identify maxmin, then the block and set products ----------


def _gen_soft(rng, size):
    big, small = size
    return [_grid01(rng, rows, rows) for rows in (big, big, small, small)]


def _write_soft(grids, directory):
    paths = [
        _write_csv(directory / f"{name}.csv", [[repr(v) for v in row] for row in grid])
        for name, grid in zip(("da", "db", "a", "b"), grids)
    ]
    labels = ",".join(f"o{i}" for i in range(1, len(grids[0]) + 1))
    argvs = [["identify", "maxmin", "--a", paths[0], "--b", paths[1], "--labels", labels]]
    argvs += [["matrix", op, "--a", paths[2], "--b", paths[3]] for op in (*_BLOCK_OPS, *_SET_OPS)]
    argvs.append(["matrix", "comp", "--a", paths[2]])
    return argvs, []


def _check_decision(da, db, text) -> list[str]:
    n = len(da)
    labels = [f"o{i}" for i in range(1, n + 1)]
    product = [[sum(da[i][k] * db[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    degrees = [min(product[i][j] for i in range(n)) for j in range(n)]
    lines = text.splitlines()
    if len(lines) != n + 5 or lines[0] != "product:":
        return [f"identify maxmin: expected {n + 5} lines starting 'product:'"]
    errors = []

    def numbers(line, prefix, want, sep):
        if not line.startswith(prefix):
            errors.append(f"identify maxmin: expected {prefix!r}, got {line[:60]!r}")
            return []
        texts = line[len(prefix):].split(sep)
        if len(texts) != len(want) or not all(
            _close(float(t), w, SUM_TOL) for t, w in zip(texts, want)
        ):
            errors.append(f"identify maxmin: {prefix or 'product row'} differs beyond {SUM_TOL}")
        return texts

    for row, line in zip(product, lines[1 : n + 1]):
        numbers(line, "", row, ",")
    printed = numbers(lines[n + 1], "decision column: ", degrees, " ")
    if errors:
        return errors
    # display and optimum set must follow from the printed degrees, which
    # just matched the literal ones to within the bound
    shown = [_half_up(t) for t in printed]
    errors += _same_text("decision display", lines[n + 2], "decision display: " + " ".join(shown))
    members = [f"{s}/{label}" for s, label, d in zip(shown, labels, degrees) if d > 0.0]
    want = "optimum set: " + (", ".join(members) if members else "empty")
    errors += _same_text("optimum set", lines[n + 3], want)
    top = max(degrees)
    winners = {label for label, d in zip(labels, degrees) if d >= top - 2 * SUM_TOL}
    suffix = " (degenerate: all degrees zero)" if top == 0.0 else ""
    if not any(lines[n + 4] == f"winner: {w}{suffix}" for w in winners):
        errors.append(f"identify maxmin: winner line {lines[n + 4]!r} not in {sorted(winners)}")
    return errors


def _check_soft(grids, stdouts, reports):
    da, db, a, b = grids
    errors = _check_decision(da, db, stdouts[0])
    outputs = iter(stdouts[1:])
    for op, combine in _BLOCK_OPS.items():
        want = [[combine(x, y) for x in ra for y in rb] for ra, rb in zip(a, b)]
        errors += _same_text(f"matrix {op}", next(outputs), _csv_text(want))
    for op, combine in _SET_OPS.items():
        want = [[combine(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        errors += _same_text(f"matrix {op}", next(outputs), _csv_text(want))
    errors += _same_text("matrix comp", next(outputs), _csv_text([[1.0 - x for x in r] for r in a]))
    return errors


# -- transform: dft, then dft --inverse ---------------------------------------


def _gen_transform(rng, n):
    def sequence():
        return [
            complex(rng.randrange(-10**6, 10**6 + 1) / 10**6, rng.randrange(-10**6, 10**6 + 1) / 10**6)
            for _ in range(n)
        ]

    return sequence(), sequence()


def _write_transform(values, directory):
    paths = [
        _write_csv(directory / name, [[repr(v.real), repr(v.imag)] for v in seq])
        for name, seq in zip(("signal.csv", "spectrum.csv"), values)
    ]
    return [["dft", "--input", paths[0]], ["dft", "--input", paths[1], "--inverse"]], []


_KERNELS: dict[tuple[int, int], list[list[complex]]] = {}


def _kernel(n: int, sign: int) -> list[list[complex]]:
    """Rows of e^(sign*i*2*pi*k*t/n), straight from the definition."""
    if (n, sign) not in _KERNELS:
        _KERNELS[(n, sign)] = [
            [cmath.exp(sign * 2j * math.pi * k * t / n) for t in range(n)] for k in range(n)
        ]
    return _KERNELS[(n, sign)]


def _check_sequence(what, text, want) -> list[str]:
    lines = text.splitlines()
    if len(lines) != len(want):
        return [f"{what}: got {len(lines)} lines, want {len(want)}"]
    for n, (line, w) in enumerate(zip(lines, want), start=1):
        re_text, _, im_text = line.partition(",")
        got = complex(float(re_text), float(im_text))
        slack = _print_slack(got.real, w.real) + _print_slack(got.imag, w.imag)
        if not abs(got - w) <= TRANSFORM_TOL + slack:
            return [f"{what} line {n}: {line!r} differs from {w!r} beyond {TRANSFORM_TOL}"]
    return []


def _check_transform(values, stdouts, reports):
    x, spectrum = values
    n = len(x)
    forward = [sum(map(mul, x, row)) for row in _kernel(n, -1)]
    inverse = [sum(map(mul, spectrum, row)) / n for row in _kernel(n, 1)]
    return _check_sequence("dft", stdouts[0], forward) + _check_sequence(
        "dft --inverse", stdouts[1], inverse
    )


_GENERATORS = {
    "signal_id": _gen_signals,
    "cf_algebra": _gen_complex,
    "soft_decision": _gen_soft,
    "transform": _gen_transform,
}
_WRITERS = {
    "signal_id": _write_signals,
    "cf_algebra": _write_complex,
    "soft_decision": _write_soft,
    "transform": _write_transform,
}
_CHECKERS = {
    "signal_id": _check_signals,
    "cf_algebra": _check_complex,
    "soft_decision": _check_soft,
    "transform": _check_transform,
}
