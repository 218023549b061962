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


@dataclass(frozen=True)
class _Grid:
    """A rows x cols grid stored row-major; subclasses check each cell in
    ``_cell``, which returns the value to store."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        entries = tuple(self.entries)
        if len(entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "entries", tuple(map(self._cell, entries)))

    @staticmethod
    def _cell(value):
        return value

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

