"""Definition-literal recomputations and algebraic-law checkers.

Everything here re-derives results straight from the defining formulas,
without calling the arithmetic helpers of the modules under test, so a bug
cannot hide on both sides of a comparison. Runs are deterministic for a
fixed seed.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ._grid import require_inner, require_same_shape
from .cfmatrix import ComplexFuzzyMatrix, ComplexFuzzyNumber
from .errors import ShapeError
from .fourier import SignalSample
from .softmatrix import MagnitudeMatrix

Grid = list[list[float]]


def naive_maxmin(a: ComplexFuzzyMatrix, b: ComplexFuzzyMatrix) -> ComplexFuzzyMatrix:
    """Triple-loop max-min composition, amplitudes and phases tracked by
    hand instead of through the fuzzy_min/fuzzy_max helpers."""
    require_inner(a, b, "max-min product")
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            best_amp = -1.0
            best_phase = -1.0
            for k in range(a.cols):
                left = a.at(i, k)
                right = b.at(k, j)
                amp = left.amplitude if left.amplitude < right.amplitude else right.amplitude
                phase = left.phase if left.phase < right.phase else right.phase
                if amp > best_amp:
                    best_amp = amp
                if phase > best_phase:
                    best_phase = phase
            row.append((best_amp, best_phase))
        rows.append(row)
    return ComplexFuzzyMatrix.from_rows(rows)


def naive_fuzzy_add(a: ComplexFuzzyMatrix, b: ComplexFuzzyMatrix) -> ComplexFuzzyMatrix:
    """Cell by cell: the larger amplitude paired with the larger phase."""
    require_same_shape(a, b, "fuzzy addition")
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(a.cols):
            left = a.at(i, j)
            right = b.at(i, j)
            amp = left.amplitude if left.amplitude > right.amplitude else right.amplitude
            phase = left.phase if left.phase > right.phase else right.phase
            row.append((amp, phase))
        rows.append(row)
    return ComplexFuzzyMatrix.from_rows(rows)


def naive_trace(m: ComplexFuzzyMatrix) -> ComplexFuzzyNumber:
    """The largest diagonal amplitude paired with the largest diagonal phase."""
    if m.rows != m.cols:
        raise ShapeError(f"trace needs a square matrix, got {m.rows}x{m.cols}")
    best_amp = -1.0
    best_phase = -1.0
    for i in range(m.rows):
        cell = m.at(i, i)
        if cell.amplitude > best_amp:
            best_amp = cell.amplitude
        if cell.phase > best_phase:
            best_phase = cell.phase
    return ComplexFuzzyNumber(best_amp, best_phase)


def naive_conjugate_transpose(m: ComplexFuzzyMatrix) -> ComplexFuzzyMatrix:
    """Entry (j, i) is m[i, j] with its phase negated; the constructor takes
    the negated phase modulo 2*pi, as for any stored value."""
    rows = []
    for j in range(m.cols):
        row = []
        for i in range(m.rows):
            cell = m.at(i, j)
            row.append((cell.amplitude, -cell.phase))
        rows.append(row)
    return ComplexFuzzyMatrix.from_rows(rows)


def naive_dft(values: Sequence[complex]) -> list[complex]:
    """The literal O(N^2) sum X[k] = sum_n x[n] * e^(-i*2*pi*k*n/N), one
    exponential per term, against which the factorised kernel is checked."""
    xs = [complex(v) for v in values]
    if not xs:
        raise ValueError("dft needs a non-empty sequence")
    n = len(xs)
    return [
        sum(xs[t] * cmath.exp(-2j * math.pi * k * t / n) for t in range(n))
        for k in range(n)
    ]


def naive_idft(values: Sequence[complex]) -> list[complex]:
    """The literal O(N^2) sum x[n] = (1/N) * sum_k X[k] * e^(i*2*pi*k*n/N)."""
    xs = [complex(v) for v in values]
    if not xs:
        raise ValueError("idft needs a non-empty sequence")
    n = len(xs)
    return [
        sum(xs[k] * cmath.exp(2j * math.pi * k * t / n) for k in range(n)) / n
        for t in range(n)
    ]


@dataclass(frozen=True)
class CrossTerm:
    """One pairing of a candidate term k with a reference term l."""

    amplitude: float
    phase: float
    source: tuple[int, int]


@dataclass(frozen=True)
class CrossProduct:
    terms: tuple[CrossTerm, ...]
    scale: float


def cross_product(s: SignalSample, t: SignalSample) -> CrossProduct:
    """All K*L ordered pairings, each taking min amplitude and min phase."""
    if not s.terms or not t.terms:
        raise ValueError("cross product needs non-empty term lists")
    terms = tuple(
        CrossTerm(
            min(a.amplitude, b.amplitude),
            min(a.phase, b.phase),
            (k, l),
        )
        for k, a in enumerate(s.terms)
        for l, b in enumerate(t.terms)
    )
    return CrossProduct(terms, 1.0 / len(terms))


def naive_sample_score(s: SignalSample, t: SignalSample) -> float:
    """Largest amplitude (the modulus) over all K*L cross terms, over K*L."""
    terms = cross_product(s, t).terms
    return max(term.amplitude for term in terms) / len(terms)


@dataclass(frozen=True)
class LawFailure:
    inputs_digest: str
    lhs: tuple[tuple[float, ...], ...]
    rhs: tuple[tuple[float, ...], ...]
    max_deviation: float


@dataclass(frozen=True)
class LawReport:
    law: str
    trials: int
    failures: tuple[LawFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


LAW_NAMES = (
    "intersection_commutative",
    "union_commutative",
    "intersection_associative",
    "union_associative",
    "intersection_distributes_over_union",
    "union_distributes_over_intersection",
    "demorgan_union",
    "demorgan_intersection",
)

Complement = Callable[[MagnitudeMatrix], Grid]


def _random_grid(rng: random.Random, rows: int, cols: int) -> Grid:
    # degrees on the 0.05 grid keep failure reports readable
    return [[rng.randrange(21) * 0.05 for _ in range(cols)] for _ in range(rows)]


def _digest(*grids: Grid) -> str:
    return hashlib.sha1(repr(grids).encode("utf-8")).hexdigest()[:12]


def _freeze(grid: Grid) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(row) for row in grid)


def check_proposition_laws(
    trials: int,
    shape: tuple[int, int] = (4, 4),
    seed: int = 0,
    complement_override: Optional[Complement] = None,
) -> list[LawReport]:
    """Check the eight lattice laws on random degree matrices.

    One side of each law is evaluated through the MagnitudeMatrix API, the
    other straight from the raw grids with inline min/max/1-x, and both
    must agree exactly. ``complement_override`` replaces the API-side
    complement wherever a law uses it; the literal side always uses 1-x,
    which is what lets a corrupted complement be detected.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rows, cols = shape
    rng = random.Random(seed)
    comp: Complement = complement_override or (lambda m: m.complement().to_lists())
    failures: dict[str, list[LawFailure]] = {name: [] for name in LAW_NAMES}

    for _ in range(trials):
        ga = _random_grid(rng, rows, cols)
        gb = _random_grid(rng, rows, cols)
        gc = _random_grid(rng, rows, cols)
        a = MagnitudeMatrix.from_rows(ga)
        b = MagnitudeMatrix.from_rows(gb)
        c = MagnitudeMatrix.from_rows(gc)

        checks: list[tuple[str, Grid, Grid]] = [
            (
                "intersection_commutative",
                a.intersection(b).to_lists(),
                [[min(y, x) for x, y in zip(ra, rb)] for ra, rb in zip(ga, gb)],
            ),
            (
                "union_commutative",
                a.union(b).to_lists(),
                [[max(y, x) for x, y in zip(ra, rb)] for ra, rb in zip(ga, gb)],
            ),
            (
                "intersection_associative",
                a.intersection(b).intersection(c).to_lists(),
                [
                    [min(x, min(y, z)) for x, y, z in zip(ra, rb, rc)]
                    for ra, rb, rc in zip(ga, gb, gc)
                ],
            ),
            (
                "union_associative",
                a.union(b).union(c).to_lists(),
                [
                    [max(x, max(y, z)) for x, y, z in zip(ra, rb, rc)]
                    for ra, rb, rc in zip(ga, gb, gc)
                ],
            ),
            (
                "intersection_distributes_over_union",
                a.intersection(b.union(c)).to_lists(),
                [
                    [max(min(x, y), min(x, z)) for x, y, z in zip(ra, rb, rc)]
                    for ra, rb, rc in zip(ga, gb, gc)
                ],
            ),
            (
                "union_distributes_over_intersection",
                a.union(b.intersection(c)).to_lists(),
                [
                    [min(max(x, y), max(x, z)) for x, y, z in zip(ra, rb, rc)]
                    for ra, rb, rc in zip(ga, gb, gc)
                ],
            ),
            (
                "demorgan_union",
                comp(a.union(b)),
                [
                    [min(1.0 - x, 1.0 - y) for x, y in zip(ra, rb)]
                    for ra, rb in zip(ga, gb)
                ],
            ),
            (
                "demorgan_intersection",
                comp(a.intersection(b)),
                [
                    [max(1.0 - x, 1.0 - y) for x, y in zip(ra, rb)]
                    for ra, rb in zip(ga, gb)
                ],
            ),
        ]

        for name, lhs, rhs in checks:
            if lhs != rhs:
                deviation = max(
                    abs(u - v)
                    for lrow, rrow in zip(lhs, rhs)
                    for u, v in zip(lrow, rrow)
                )
                failures[name].append(
                    LawFailure(_digest(ga, gb, gc), _freeze(lhs), _freeze(rhs), deviation)
                )

    return [LawReport(name, trials, tuple(failures[name])) for name in LAW_NAMES]


def complex_eval_cross_check(s: SignalSample, t: SignalSample) -> float:
    """Largest gap between a cross term's complex modulus and its amplitude.

    The terms are re-paired here by hand; each is evaluated as an actual
    complex number amp * e^(i*phase) and |.| must reproduce amp.
    """
    worst = 0.0
    for a in s.terms:
        for b in t.terms:
            amp = a.amplitude if a.amplitude < b.amplitude else b.amplitude
            phase = a.phase if a.phase < b.phase else b.phase
            deviation = abs(abs(amp * cmath.exp(1j * phase)) - amp)
            if deviation > worst:
                worst = deviation
    return worst
