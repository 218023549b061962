"""Complex fuzzy numbers and matrices.

Values live on the closed unit disc in polar form: an amplitude in [0, 1]
and a phase in [0, 2*pi) radians. "Addition" of matrices is the entrywise
componentwise maximum and composition is max-min, so every operation stays
on the disc.

Phase convention: both the join (max) and the meet (min) of two values act
componentwise, pairing the larger amplitude with the larger phase and the
smaller amplitude with the smaller phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from ._grid import _Grid, require_inner, require_same_shape
from .errors import ShapeError

TWO_PI = 2.0 * math.pi


def wrap_phase(phase: float) -> float:
    """Reduce an angle to the interval [0, 2*pi)."""
    p = math.fmod(phase, TWO_PI) + 0.0  # + 0.0 turns -0.0 into 0.0
    if p < 0.0:
        p += TWO_PI
    if p >= TWO_PI:  # the addition above can land exactly on 2*pi
        p = 0.0
    return p


@dataclass(frozen=True)
class ComplexFuzzyNumber:
    """A unit-disc membership value r*e^(i*w), stored as (r, w).

    The amplitude r must lie in [0, 1]; out-of-range values are rejected
    rather than clamped. The phase is normalized modulo 2*pi at
    construction, so equal values compare equal.
    """

    amplitude: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        amp = float(self.amplitude) + 0.0  # + 0.0 turns -0.0 into 0.0
        if not (math.isfinite(amp) and 0.0 <= amp <= 1.0):
            raise ValueError(f"amplitude must lie in [0, 1], got {self.amplitude!r}")
        ph = float(self.phase)
        if not math.isfinite(ph):
            raise ValueError(f"phase must be finite, got {self.phase!r}")
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "phase", wrap_phase(ph))

    def __abs__(self) -> float:
        # |r*e^(i*w)| = r, independent of the phase
        return self.amplitude

    def conjugate(self) -> "ComplexFuzzyNumber":
        """Negated phase, renormalized; a zero phase stays zero."""
        if self.phase == 0.0:
            return self
        return ComplexFuzzyNumber(self.amplitude, TWO_PI - self.phase)

    def evaluate(self) -> complex:
        """The ordinary complex number r*(cos w + i sin w)."""
        return complex(
            self.amplitude * math.cos(self.phase),
            self.amplitude * math.sin(self.phase),
        )


def fuzzy_max(a: ComplexFuzzyNumber, b: ComplexFuzzyNumber) -> ComplexFuzzyNumber:
    """Componentwise maximum of amplitudes and phases."""
    return ComplexFuzzyNumber(max(a.amplitude, b.amplitude), max(a.phase, b.phase))


def fuzzy_min(a: ComplexFuzzyNumber, b: ComplexFuzzyNumber) -> ComplexFuzzyNumber:
    """Componentwise minimum of amplitudes and phases."""
    return ComplexFuzzyNumber(min(a.amplitude, b.amplitude), min(a.phase, b.phase))


Cell = Union[ComplexFuzzyNumber, Sequence[float], float, int]


def _coerce(cell: Cell) -> ComplexFuzzyNumber:
    if isinstance(cell, ComplexFuzzyNumber):
        return cell
    if isinstance(cell, (int, float)):
        return ComplexFuzzyNumber(float(cell))
    amplitude, phase = cell
    return ComplexFuzzyNumber(float(amplitude), float(phase))


def _real_maxmin(a: _Grid, b: _Grid) -> list[float]:
    """Max-min composition of real grids, row-major: max_k min(a[i, k], b[k, j])."""
    cols = [b.col(j) for j in range(b.cols)]
    return [max(map(min, a.row(i), col)) for i in range(a.rows) for col in cols]


class ComplexFuzzyMatrix(_Grid):
    """A rectangular grid of ComplexFuzzyNumber entries, stored row-major.

    Cells given as (amplitude, phase) pairs or bare amplitudes (phase 0)
    are converted. Join and meet act componentwise, so every operation
    below works on the amplitude and phase projections separately.
    """

    _cell = staticmethod(_coerce)

    def _part(self, component: str) -> _Grid:
        values = tuple(getattr(e, component) for e in self.entries)
        return _Grid(self.rows, self.cols, values)

    def amplitudes(self) -> list[list[float]]:
        return self._part("amplitude").to_lists()

    def phases(self) -> list[list[float]]:
        return self._part("phase").to_lists()

    def fuzzy_add(self, other: "ComplexFuzzyMatrix") -> "ComplexFuzzyMatrix":
        """Entrywise componentwise maximum."""
        require_same_shape(self, other, "fuzzy addition")
        return ComplexFuzzyMatrix(
            self.rows, self.cols, tuple(map(fuzzy_max, self.entries, other.entries))
        )

    def maxmin(self, other: "ComplexFuzzyMatrix") -> "ComplexFuzzyMatrix":
        """Max-min composition: entry (i, j) is the componentwise maximum
        over k of the componentwise minimum of self[i, k] and other[k, j],
        i.e. one real max-min composition per component."""
        require_inner(self, other, "max-min product")
        amplitudes = _real_maxmin(self._part("amplitude"), other._part("amplitude"))
        phases = _real_maxmin(self._part("phase"), other._part("phase"))
        return ComplexFuzzyMatrix(
            self.rows, other.cols, tuple(map(ComplexFuzzyNumber, amplitudes, phases))
        )

    def trace(self) -> ComplexFuzzyNumber:
        """Componentwise maximum over the diagonal of a square matrix."""
        if self.rows != self.cols:
            raise ShapeError(f"trace needs a square matrix, got {self.rows}x{self.cols}")
        diagonal = self.entries[:: self.cols + 1]
        return ComplexFuzzyNumber(
            max(e.amplitude for e in diagonal), max(e.phase for e in diagonal)
        )

    def conjugate_transpose(self) -> "ComplexFuzzyMatrix":
        """Transpose with every entry conjugated."""
        out = tuple(e.conjugate() for j in range(self.cols) for e in self.col(j))
        return ComplexFuzzyMatrix(self.cols, self.rows, out)
