"""Magnitude-valued fuzzy soft matrices.

A MagnitudeMatrix is an objects-by-parameters grid of membership degrees in
[0, 1]. It carries the set operations (union, intersection, complement),
the order relations, the four block products (And/Or/AndNot/OrNot), and the
ordinary sum-of-products multiplication whose output can exceed 1 and is
therefore typed separately as RealMatrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Mapping

from ._grid import _Grid, require_inner, require_same_shape


def _degree(value: float) -> float:
    value = float(value) + 0.0  # + 0.0 turns -0.0 into 0.0
    if not 0.0 <= value <= 1.0:  # also false for nan
        raise ValueError(f"matrix entries must lie in [0, 1], got {value!r}")
    return value


def _nonnegative(value: float) -> float:
    value = float(value) + 0.0
    if not 0.0 <= value < math.inf:
        raise ValueError(f"matrix entries must lie in [0, inf), got {value!r}")
    return value


class MagnitudeMatrix(_Grid):
    """Row-major grid of degrees in [0, 1]."""

    _cell = staticmethod(_degree)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "MagnitudeMatrix":
        return cls(rows, cols, (0.0,) * (rows * cols))

    @classmethod
    def universal(cls, rows: int, cols: int) -> "MagnitudeMatrix":
        return cls(rows, cols, (1.0,) * (rows * cols))

    @classmethod
    def a_universal(
        cls, rows: int, cols: int, columns: Iterable[int]
    ) -> "MagnitudeMatrix":
        """All-ones in the given columns, zero elsewhere.

        Column positions are 1-based, matching the way parameter positions
        are numbered everywhere else in this module.
        """
        wanted = set(columns)
        for c in wanted:
            if not 1 <= c <= cols:
                raise IndexError(f"column {c} out of range 1..{cols}")
        entries = tuple(
            1.0 if (j + 1) in wanted else 0.0
            for _ in range(rows)
            for j in range(cols)
        )
        return cls(rows, cols, entries)

    # -- set operations ----------------------------------------------------

    def union(self, other: "MagnitudeMatrix") -> "MagnitudeMatrix":
        """Entrywise maximum."""
        require_same_shape(self, other, "union")
        return MagnitudeMatrix(
            self.rows, self.cols, tuple(map(max, self.entries, other.entries))
        )

    def intersection(self, other: "MagnitudeMatrix") -> "MagnitudeMatrix":
        """Entrywise minimum."""
        require_same_shape(self, other, "intersection")
        return MagnitudeMatrix(
            self.rows, self.cols, tuple(map(min, self.entries, other.entries))
        )

    def complement(self) -> "MagnitudeMatrix":
        """Entrywise 1 - x."""
        return MagnitudeMatrix(
            self.rows, self.cols, tuple(1.0 - v for v in self.entries)
        )

    # -- order relations ---------------------------------------------------

    def is_submatrix_of(self, other: "MagnitudeMatrix") -> bool:
        """Pointwise less-or-equal."""
        require_same_shape(self, other, "submatrix comparison")
        return all(x <= y for x, y in zip(self.entries, other.entries))

    def is_proper_submatrix_of(self, other: "MagnitudeMatrix") -> bool:
        """Pointwise less-or-equal with at least one strict inequality."""
        require_same_shape(self, other, "submatrix comparison")
        return self.is_submatrix_of(other) and any(
            x < y for x, y in zip(self.entries, other.entries)
        )

    def equals(self, other: "MagnitudeMatrix") -> bool:
        """Pointwise equality; raises on a shape mismatch, unlike ==."""
        require_same_shape(self, other, "equality comparison")
        return self.entries == other.entries

    # -- block products ----------------------------------------------------
    # Output column p holds combine(a[i, j], b[i, k]) at p = n*(j-1)+k for
    # 1-based j, k, so each input column of A spans a block of n columns.

    def _block_product(self, other, combine, op):
        require_same_shape(self, other, op)
        out = [
            combine(a, b)
            for i in range(self.rows)
            for a in self.row(i)
            for b in other.row(i)
        ]
        return MagnitudeMatrix(self.rows, self.cols * self.cols, tuple(out))

    def and_product(self, other: "MagnitudeMatrix") -> "MagnitudeMatrix":
        return self._block_product(other, min, "And product")

    def or_product(self, other: "MagnitudeMatrix") -> "MagnitudeMatrix":
        return self._block_product(other, max, "Or product")

    def and_not_product(self, other: "MagnitudeMatrix") -> "MagnitudeMatrix":
        return self._block_product(other, lambda a, b: min(a, 1.0 - b), "AndNot product")

    def or_not_product(self, other: "MagnitudeMatrix") -> "MagnitudeMatrix":
        return self._block_product(other, lambda a, b: max(a, 1.0 - b), "OrNot product")

    # -- ordinary multiplication --------------------------------------------

    def usual_product(self, other: "MagnitudeMatrix") -> "RealMatrix":
        """Standard sum-of-products matrix multiplication.

        Entries are not clamped: a product of m x n and n x p degree
        matrices can reach n, which is why the result is a RealMatrix.
        """
        require_inner(self, other, "usual product")
        cols = [other.col(j) for j in range(other.cols)]
        entries = tuple(
            sum(map(mul, self.row(i), col)) for i in range(self.rows) for col in cols
        )
        return RealMatrix(self.rows, other.cols, entries)


class RealMatrix(_Grid):
    """Row-major grid of non-negative reals with no upper bound."""

    _cell = staticmethod(_nonnegative)


@dataclass(frozen=True)
class FuzzySoftSetTable:
    """A fuzzy soft set in relation form: degree per (object, parameter).

    Pairs absent from ``memberships`` default to degree 0, which is also how
    parameters outside the approximation set are represented.
    """

    universe: tuple[str, ...]
    parameters: tuple[str, ...]
    memberships: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        universe = tuple(self.universe)
        parameters = tuple(self.parameters)
        if not universe or not parameters:
            raise ValueError("universe and parameter lists must be non-empty")
        if len(set(universe)) != len(universe):
            raise ValueError("object labels must be unique")
        if len(set(parameters)) != len(parameters):
            raise ValueError("parameter labels must be unique")
        known_u, known_p = set(universe), set(parameters)
        memberships = dict(self.memberships)
        for (u, x), degree in memberships.items():
            if u not in known_u or x not in known_p:
                raise ValueError(f"membership for unknown pair ({u!r}, {x!r})")
            if not (math.isfinite(degree) and 0.0 <= degree <= 1.0):
                raise ValueError(
                    f"membership for ({u!r}, {x!r}) must lie in [0, 1], got {degree!r}"
                )
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "memberships", memberships)

    def to_matrix(self) -> MagnitudeMatrix:
        """Rows follow universe order, columns follow parameter order."""
        return MagnitudeMatrix.from_rows(
            [
                [float(self.memberships.get((u, x), 0.0)) for x in self.parameters]
                for u in self.universe
            ]
        )
