"""The row-major grid shared by every matrix type."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ShapeError


def require_same_shape(a: "_Grid", b: "_Grid", op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(
            f"{op} needs equal shapes, got {a.rows}x{a.cols} and {b.rows}x{b.cols}"
        )


def require_inner(a: "_Grid", b: "_Grid", op: str) -> None:
    if a.cols != b.rows:
        raise ShapeError(
            f"{op} needs inner dimensions to agree, got "
            f"{a.rows}x{a.cols} and {b.rows}x{b.cols}"
        )


def _check_shape(rows: int, cols: int, count: int) -> None:
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if count != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {count}")


@dataclass(frozen=True)
class _Grid:
    """A rows x cols grid stored row-major.

    The public constructor checks each cell through ``_cell``, which
    returns the value to store. ``_trusted`` builds a grid from row-major
    tuples whose cells are already checked, such as parsed cells or the
    result of an operation on checked grids, and checks only the shape.
    """

    rows: int
    cols: int
    entries: tuple

    _arrays = ("entries",)  # the attributes that hold the cells, row-major

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        _check_shape(self.rows, self.cols, len(entries))
        object.__setattr__(self, "entries", tuple(map(self._cell, entries)))

    @staticmethod
    def _cell(value):
        return value

    @classmethod
    def _trusted(cls, rows: int, cols: int, *arrays: tuple):
        """A grid over checked row-major tuples, one per name in
        ``_arrays``, taken as they are."""
        grid = object.__new__(cls)
        object.__setattr__(grid, "rows", rows)
        object.__setattr__(grid, "cols", cols)
        for name, values in zip(cls._arrays, arrays, strict=True):
            _check_shape(rows, cols, len(values))
            object.__setattr__(grid, name, values)
        return grid

    @classmethod
    def from_rows(cls, cells: Iterable[Iterable]):
        grid = [list(row) for row in cells]
        if not grid or not grid[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("matrix rows must all have the same length")
        return cls(len(grid), width, tuple(v for row in grid for v in row))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.entries[j :: self.cols]

    def to_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]
