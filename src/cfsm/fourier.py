"""Discrete Fourier transforms and amplitude-restricted sample expansion.

The transform pair uses the e^(-i*2*pi*k*n/N) forward kernel with the 1/N
factor on the inverse. Both directions run one mixed-radix Cooley-Tukey
recursion over a table of the N roots of unity: a length with smallest
prime factor p splits into p interleaved sub-transforms of length N/p, so
the cost is O(N * sum of the prime factors of N) and a prime length is the
direct sum over the table.

A signal whose spectrum amplitudes are restricted to [0, 1] expands, at each
sample index n, into a list of unit-disc terms (X[k], 2*pi*k*n/N mod 2*pi).
Amplitude lists are allowed to differ per sample index, so a candidate
stores one amplitude row per sample; phases are never stored, and the term
lists are built only when ``CandidateSignal.samples`` is read.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import add, mul
from typing import Sequence

from .cfmatrix import TWO_PI, ComplexFuzzyNumber
from .softmatrix import MagnitudeMatrix


_QUARTER_TURNS = (1, 1j, -1, -1j)


def _roots(n: int, sign: int) -> list[complex]:
    """e^(sign*i*2*pi*j/n) for j in range(n), one exponential each.

    Each angle is split into the nearest quarter turn, applied exactly, and
    a remainder of at most pi/4, so the table is exact wherever 4j/n is whole.
    """
    table = []
    for j in range(n):
        quarters = (8 * j + n) // (2 * n)
        rest = 4 * j - quarters * n
        turn = cmath.exp(complex(0.0, sign * math.pi / 2 * rest / n))
        table.append(_QUARTER_TURNS[sign * quarters % 4] * turn)
    return table


def _smallest_factor(n: int) -> int:
    return next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n)


def _transform(xs: list[complex], roots: list[complex]) -> list[complex]:
    """out[k] = sum_t xs[t] * roots[k*t mod n], for the n-entry root table.

    With p the smallest prime factor of n and m = n/p, sub-transform r runs
    on xs[r::p] over roots[::p], and out[k] = sum_r sub_r[k mod m] *
    roots[r*k mod n]; repeating a sub-transform p times gives its k mod m.
    The terms are added one r at a time, so a prime n needs O(n) memory.
    """
    n = len(xs)
    if n == 1:
        return xs
    p = _smallest_factor(n)
    step = roots[::p]
    out = _transform(xs[::p], step) * p
    for r in range(1, p):
        turns = [roots[r * k % n] for k in range(n)]
        out = list(map(add, out, map(mul, _transform(xs[r::p], step) * p, turns)))
    return out


def dft(values: Sequence[complex]) -> list[complex]:
    """X[k] = sum_n x[n] * e^(-i*2*pi*k*n/N)."""
    xs = [complex(v) for v in values]
    if not xs:
        raise ValueError("dft needs a non-empty sequence")
    return _transform(xs, _roots(len(xs), -1))


def idft(values: Sequence[complex]) -> list[complex]:
    """x[n] = (1/N) * sum_k X[k] * e^(i*2*pi*k*n/N)."""
    xs = [complex(v) for v in values]
    if not xs:
        raise ValueError("idft needs a non-empty sequence")
    n = len(xs)
    return [value / n for value in _transform(xs, _roots(n, 1))]


@dataclass(frozen=True)
class SignalSample:
    """One observed sample: a list of (amplitude, phase) terms plus 1/N.

    Built from a spectrum via expand_sample the phases are the derived
    multiples of 2*pi*index/N; constructed directly they may be arbitrary,
    which the scoring tests exploit to show phases never matter.
    """

    index: int
    terms: tuple[ComplexFuzzyNumber, ...]

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a sample needs at least one term")
        if not 0 <= self.index < len(terms):
            raise ValueError(
                f"sample index {self.index} out of range 0..{len(terms) - 1}"
            )
        object.__setattr__(self, "terms", terms)

    @property
    def scale(self) -> float:
        return 1.0 / len(self.terms)

    def value(self) -> complex:
        """(1/N) * sum_k amplitude_k * e^(i*phase_k)."""
        total = sum(
            (term.amplitude * cmath.exp(1j * term.phase) for term in self.terms),
            start=0j,
        )
        return total * self.scale


def expand_sample(
    amplitudes: Sequence[float], index: int, big_n: int
) -> SignalSample:
    """Expand spectrum amplitudes into the term list of sample ``index``.

    Term k carries phase (2*pi*k*index/big_n) mod 2*pi. Amplitudes must lie
    in [0, 1] and there must be exactly ``big_n`` of them.
    """
    amps = [float(a) for a in amplitudes]
    if big_n < 1:
        raise ValueError("big_n must be positive")
    if len(amps) != big_n:
        raise ValueError(f"expected {big_n} amplitudes, got {len(amps)}")
    if not 0 <= index < big_n:
        raise ValueError(f"sample index {index} out of range 0..{big_n - 1}")
    terms = tuple(
        ComplexFuzzyNumber(a, TWO_PI * k * index / big_n) for k, a in enumerate(amps)
    )
    return SignalSample(index, terms)


@dataclass(frozen=True)
class CandidateSignal:
    """A labelled signal observed N times: row n of the N x N ``amplitudes``
    grid holds the spectrum amplitudes of sample n."""

    label: str
    amplitudes: MagnitudeMatrix

    def __post_init__(self) -> None:
        rows, cols = self.amplitudes.shape
        if rows != cols:
            raise ValueError(f"a signal needs N samples of N amplitudes, got {rows}x{cols}")

    @property
    def big_n(self) -> int:
        return self.amplitudes.rows

    @property
    def samples(self) -> tuple[SignalSample, ...]:
        """The term lists of every sample, expanded on each access."""
        n = self.big_n
        return tuple(expand_sample(self.amplitudes.row(i), i, n) for i in range(n))

    @classmethod
    def from_amplitudes(
        cls, label: str, rows: Sequence[Sequence[float]]
    ) -> "CandidateSignal":
        """One amplitude list per sample index; phases are derived."""
        return cls(label, MagnitudeMatrix.from_rows(rows))
