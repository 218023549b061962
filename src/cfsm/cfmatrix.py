"""Complex fuzzy numbers and matrices.

Values live on the closed unit disc in polar form: an amplitude in [0, 1]
and a phase in [0, 2*pi) radians. "Addition" of matrices is the entrywise
componentwise maximum and composition is max-min, so every operation stays
on the disc.

Phase convention: both the join (max) and the meet (min) of two values act
componentwise, pairing the larger amplitude with the larger phase and the
smaller amplitude with the smaller phase.

Because join and meet act componentwise, a ComplexFuzzyMatrix is stored as
two real grids: one flat row-major tuple of amplitudes and one of phases.
Cells are checked once, where they enter: in the public constructors and
in the CSV parser. Results of operations on checked matrices are built
through the trusted ``_Grid._trusted`` path without re-checking, and the
tuple of ComplexFuzzyNumber ``entries`` is derived on first use only.
Max-min composition is one threshold sweep per component (``_maxmin``).
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


def checked_polar(amplitude: float, phase: float) -> tuple[float, float]:
    """(amplitude, phase) as stored, or ValueError: the amplitude must lie in
    [0, 1] and is not clamped; the finite phase is reduced modulo 2*pi."""
    amp = float(amplitude) + 0.0  # + 0.0 turns -0.0 into 0.0
    if not (math.isfinite(amp) and 0.0 <= amp <= 1.0):
        raise ValueError(f"amplitude must lie in [0, 1], got {amplitude!r}")
    ph = float(phase)
    if not math.isfinite(ph):
        raise ValueError(f"phase must be finite, got {phase!r}")
    return amp, wrap_phase(ph)


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
        amp, ph = checked_polar(self.amplitude, self.phase)
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "phase", ph)

    @classmethod
    def _trusted(cls, amplitude: float, phase: float) -> "ComplexFuzzyNumber":
        """The value of an amplitude and a phase that are already checked."""
        number = object.__new__(cls)
        object.__setattr__(number, "amplitude", amplitude)
        object.__setattr__(number, "phase", phase)
        return number

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


def _polar(cell: Cell) -> tuple[float, float]:
    if isinstance(cell, ComplexFuzzyNumber):
        return cell.amplitude, cell.phase
    if isinstance(cell, (int, float)):
        return checked_polar(float(cell), 0.0)
    amplitude, phase = cell
    return checked_polar(float(amplitude), float(phase))


def _maxmin(a: tuple, b: tuple, rows: int, inner: int, cols: int) -> tuple:
    """Max-min composition of row-major real grids a (rows x inner) and
    b (inner x cols): out[i, j] = max_k min(a[i, k], b[k, j]).

    A threshold sweep: out[i, j] >= v exactly when some k has a[i, k] >= v
    and b[k, j] >= v. The cells of both operands switch on from the largest
    value down (equal values in any order), and the first event that links
    row i to column j writes its own value to out[i, j], once, so the
    result is bit-identical to the literal definition.
    """
    out = [0.0] * (rows * cols)
    a_col = [0] * inner  # bit i: a[i, k] is on
    b_row = [0] * inner  # bit j: b[k, j] is on
    done_row = [0] * rows  # bit j: out[i, j] is written
    done_col = [0] * cols  # bit i: out[i, j] is written
    left = rows * cols
    values = a + b
    size_a = len(a)
    for t in sorted(range(len(values)), key=values.__getitem__, reverse=True):
        if t < size_a:
            i, k = divmod(t, inner)
            a_col[k] |= 1 << i
            new = b_row[k] & ~done_row[i]
            if not new:
                continue
            done_row[i] |= new
            bit, base = 1 << i, i * cols
            while new:
                low = new & -new
                j = low.bit_length() - 1
                out[base + j] = values[t]
                done_col[j] |= bit
                new ^= low
                left -= 1
        else:
            k, j = divmod(t - size_a, cols)
            b_row[k] |= 1 << j
            new = a_col[k] & ~done_col[j]
            if not new:
                continue
            done_col[j] |= new
            bit = 1 << j
            while new:
                low = new & -new
                i = low.bit_length() - 1
                out[i * cols + j] = values[t]
                done_row[i] |= bit
                new ^= low
                left -= 1
        if not left:
            break
    return tuple(out)


class _derived:
    """A cached property that stores its value with object.__setattr__.

    functools.cached_property writes through the instance ``__dict__``,
    which on CPython 3.11 makes every later attribute read on that instance
    about twice as slow; ``at()`` reads two attributes per call.
    """

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.build(instance)
        object.__setattr__(instance, self.name, value)  # shadows this descriptor
        return value


class ComplexFuzzyMatrix(_Grid):
    """A rectangular grid of ComplexFuzzyNumber entries, stored row-major
    as two real grids, ``_amps`` and ``_phases``.

    Cells given as ComplexFuzzyNumber values, (amplitude, phase) pairs or
    bare amplitudes (phase 0) are checked and split. Join and meet act
    componentwise, so every operation below works on the two grids
    separately. ``entries`` is derived from them on first use.
    """

    _arrays = ("_amps", "_phases")
    _cell = staticmethod(_polar)

    def __post_init__(self) -> None:
        super().__post_init__()  # shape checks; each cell becomes a checked pair
        amps, phases = zip(*self.entries)
        # without an instance value, entries is derived again on first use
        object.__delattr__(self, "entries")
        object.__setattr__(self, "_amps", amps)
        object.__setattr__(self, "_phases", phases)

    @_derived
    def entries(self) -> tuple:
        return tuple(map(ComplexFuzzyNumber._trusted, self._amps, self._phases))

    def amplitudes(self) -> list[list[float]]:
        return _Grid._trusted(self.rows, self.cols, self._amps).to_lists()

    def phases(self) -> list[list[float]]:
        return _Grid._trusted(self.rows, self.cols, self._phases).to_lists()

    def fuzzy_add(self, other: "ComplexFuzzyMatrix") -> "ComplexFuzzyMatrix":
        """Entrywise componentwise maximum."""
        require_same_shape(self, other, "fuzzy addition")
        return ComplexFuzzyMatrix._trusted(
            self.rows,
            self.cols,
            tuple(map(max, self._amps, other._amps)),
            tuple(map(max, self._phases, other._phases)),
        )

    def maxmin(self, other: "ComplexFuzzyMatrix") -> "ComplexFuzzyMatrix":
        """Max-min composition: entry (i, j) is the componentwise maximum
        over k of the componentwise minimum of self[i, k] and other[k, j],
        i.e. one real max-min composition per component."""
        require_inner(self, other, "max-min product")
        dims = (self.rows, self.cols, other.cols)
        return ComplexFuzzyMatrix._trusted(
            self.rows,
            other.cols,
            _maxmin(self._amps, other._amps, *dims),
            _maxmin(self._phases, other._phases, *dims),
        )

    def trace(self) -> ComplexFuzzyNumber:
        """Componentwise maximum over the diagonal of a square matrix."""
        if self.rows != self.cols:
            raise ShapeError(f"trace needs a square matrix, got {self.rows}x{self.cols}")
        step = self.cols + 1
        amplitude, phase = max(self._amps[::step]), max(self._phases[::step])
        return ComplexFuzzyNumber._trusted(amplitude, phase)

    def conjugate_transpose(self) -> "ComplexFuzzyMatrix":
        """Transpose with every entry conjugated: the phase w becomes
        2*pi - w, reduced modulo 2*pi (a tiny w rounds to 2*pi, hence 0)."""
        c = self.cols
        amps = tuple(a for j in range(c) for a in self._amps[j::c])
        phases = tuple(
            wrap_phase(TWO_PI - p) for j in range(c) for p in self._phases[j::c]
        )
        return ComplexFuzzyMatrix._trusted(c, self.rows, amps, phases)
