"""Reference-signal identification.

Two procedures are provided:

* ``maxmin_decision`` multiplies two square sample-magnitude matrices with
  the ordinary product, takes column minima, and picks the object with the
  largest resulting degree.

* ``fourier_identify`` scores each candidate against the reference sample
  by sample: the cross product of two term lists pairs every term of one
  with every term of the other, taking the minimum amplitude and minimum
  phase, scaled by 1/(K*L). A sample's score is the largest term modulus,
  which depends on amplitudes only and has a closed form in the two peak
  amplitudes (``cfsm.oracle.cross_product`` keeps the literal pairing); the
  candidate with the highest score anywhere wins.

Ties are broken by input order (first wins) and reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ._grid import require_same_shape
from .errors import ShapeError
from .fourier import CandidateSignal, SignalSample
from .softmatrix import MagnitudeMatrix, RealMatrix


def _peak_score(s: Sequence[float], t: Sequence[float]) -> float:
    """Largest cross-term modulus over K*L, from the two amplitude lists.

    Since |r*e^(i*w)| = r, the score depends on amplitudes alone, and since
    max over (k, l) of min(a_k, b_l) is min(max_k a_k, max_l b_l), it needs
    only the two peak amplitudes: O(K+L) instead of O(K*L).
    """
    return min(max(s), max(t)) / (len(s) * len(t))


def sample_score(s: SignalSample, t: SignalSample) -> float:
    """``_peak_score`` of the two samples' term amplitudes."""
    return _peak_score([a.amplitude for a in s.terms], [b.amplitude for b in t.terms])


@dataclass(frozen=True)
class ScoreVector:
    """Per-sample scores of one candidate against the reference."""

    label: str
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        scores = tuple(float(v) for v in self.scores)
        if not scores:
            raise ValueError("a score vector needs at least one entry")
        object.__setattr__(self, "scores", scores)

    @property
    def best(self) -> float:
        return max(self.scores)


def score_vector(candidate: CandidateSignal, reference: CandidateSignal) -> ScoreVector:
    if candidate.big_n != reference.big_n:
        raise ValueError(
            f"candidate {candidate.label!r} has {candidate.big_n} samples, "
            f"reference has {reference.big_n}"
        )
    cand, ref = candidate.amplitudes, reference.amplitudes
    return ScoreVector(
        candidate.label,
        tuple(_peak_score(cand.row(n), ref.row(n)) for n in range(cand.rows)),
    )


@dataclass(frozen=True)
class IdentificationResult:
    """Winner plus the full score report; ``tied`` lists every candidate
    sharing the winning score (more than one entry means an exact tie)."""

    winner: str
    scores: tuple[ScoreVector, ...]
    tied: tuple[str, ...]


def fourier_identify(
    candidates: Sequence[CandidateSignal], reference: CandidateSignal
) -> IdentificationResult:
    """Score every candidate and pick the one with the highest best score."""
    pool = list(candidates)
    if not pool:
        raise ValueError("at least one candidate signal is required")
    vectors = tuple(score_vector(c, reference) for c in pool)
    top = max(v.best for v in vectors)
    tied = tuple(v.label for v in vectors if v.best == top)
    return IdentificationResult(winner=tied[0], scores=vectors, tied=tied)


def column_min(matrix: RealMatrix) -> list[float]:
    """Minimum over the rows of each column."""
    return [min(matrix.col(j)) for j in range(matrix.cols)]


@dataclass(frozen=True)
class OptimumFuzzySet:
    """Decision output: positive degrees per object, and the argmax.

    Zero-degree objects are left out of ``memberships`` but still take part
    in the winner selection, so an all-zero decision yields the first label
    with ``degenerate`` set.
    """

    memberships: tuple[tuple[str, float], ...]
    winner: str
    winner_degree: float

    @property
    def degenerate(self) -> bool:
        return self.winner_degree == 0.0


def maxmin_decision(
    a: MagnitudeMatrix, b: MagnitudeMatrix, universe: Sequence[str]
) -> OptimumFuzzySet:
    """Ordinary product of two square N x N degree matrices, then column
    minima; the object whose column minimum is largest is the winner."""
    if a.rows != a.cols:
        raise ShapeError(f"decision inputs must be square, got {a.rows}x{a.cols}")
    require_same_shape(a, b, "max-min decision")
    labels = tuple(universe)
    if len(labels) != a.rows:
        raise ValueError(f"expected {a.rows} labels, got {len(labels)}")
    if not all(labels):
        raise ValueError("object labels must be non-empty")
    if len(set(labels)) != len(labels):
        raise ValueError("object labels must be unique")
    degrees = column_min(a.usual_product(b))
    best = max(degrees)
    winner = labels[degrees.index(best)]
    memberships = tuple(
        (label, degree) for label, degree in zip(labels, degrees) if degree > 0.0
    )
    return OptimumFuzzySet(memberships, winner, best)
