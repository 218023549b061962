"""File formats, display rounding, and report emission.

Signal files are JSON::

    {
      "N": 2,
      "reference": {"id": "r", "samples": [{"amplitudes": [0.1, 0.9]}, ...]},
      "signals": [{"id": "x1", "samples": [...]}, ...]
    }

Each record carries exactly N samples of N amplitudes in [0, 1]. Phases are
never stored: term k of sample n always gets 2*pi*k*n/N, so fixtures cannot
go inconsistent. The "reference" record is optional in the format; commands
that need one check for it.

Matrix files are header-less CSV with LF line endings. Magnitude matrices
hold decimals in [0, 1]; complex fuzzy matrices hold "amplitude@phase"
cells (phase in radians), a bare decimal meaning phase 0.

Plot series are TSV: a header row ``n<TAB>id...`` then one row per sample
index with full-precision scores.

Numbers are printed at %.12g precision; the 2-decimal display columns use
half-up rounding of that shortest form, matching hand-rounded tables.
"""

from __future__ import annotations

import cmath
import json
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Optional, Sequence

from .cfmatrix import ComplexFuzzyMatrix, ComplexFuzzyNumber, checked_polar
from .errors import ValidationError
from .fourier import CandidateSignal
from .identify import ScoreVector
from .softmatrix import MagnitudeMatrix, RealMatrix


def fullprec(value: float) -> str:
    return f"{value:.12g}"


def display(value: float, places: int = 2) -> str:
    """Half-up decimal rounding of the %.12g form, e.g. 0.175 -> '0.18'."""
    quantum = Decimal(1).scaleb(-places)
    return str(Decimal(fullprec(value)).quantize(quantum, rounding=ROUND_HALF_UP))


EXCERPT_CHARS = 40


def excerpt(text: str) -> str:
    """The first EXCERPT_CHARS characters of ``text``, for echoing input in
    error messages; a cut is marked with '...'."""
    if len(text) <= EXCERPT_CHARS:
        return text
    return text[:EXCERPT_CHARS] + "..."


# -- signal files ------------------------------------------------------------


def parse_signal_file(
    text: str,
) -> tuple[Optional[CandidateSignal], list[CandidateSignal]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ValidationError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer literal past Python's digit limit
        raise ValidationError("invalid JSON: integer has too many digits") from None
    if not isinstance(doc, dict):
        raise ValidationError("signal file must be a JSON object")

    big_n = doc.get("N")
    if not isinstance(big_n, int) or isinstance(big_n, bool) or big_n < 1:
        raise ValidationError('"N" must be a positive integer')
    records = doc.get("signals")
    if not isinstance(records, list) or not records:
        raise ValidationError('"signals" must be a non-empty list')

    seen: set[str] = set()
    reference = None
    if doc.get("reference") is not None:
        reference = _parse_record(doc["reference"], big_n, seen)
    candidates = [_parse_record(record, big_n, seen) for record in records]
    return reference, candidates


def _parse_record(record: object, big_n: int, seen: set[str]) -> CandidateSignal:
    if not isinstance(record, dict):
        raise ValidationError("every signal record must be a JSON object")
    label = record.get("id")
    if not isinstance(label, str) or not label:
        raise ValidationError('every signal record needs a non-empty string "id"')
    name = repr(excerpt(label))
    if label in seen:
        raise ValidationError(f"duplicate signal id {name}")
    seen.add(label)

    samples = record.get("samples")
    if not isinstance(samples, list) or len(samples) != big_n:
        raise ValidationError(f"signal {name}: expected {big_n} samples")
    rows = []
    for n, sample in enumerate(samples):
        amplitudes = sample.get("amplitudes") if isinstance(sample, dict) else None
        if not isinstance(amplitudes, list) or len(amplitudes) != big_n:
            raise ValidationError(
                f"signal {name} sample {n}: expected {big_n} amplitudes"
            )
        for k, value in enumerate(amplitudes):
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            # compared before the grid's float(), which overflows on huge integers
            if not ok or not 0 <= value <= 1:
                raise ValidationError(
                    f"signal {name} sample {n} amplitude {k} "
                    f"must lie in [0, 1], got {excerpt(repr(value))}"
                )
        rows.append(amplitudes)
    return CandidateSignal.from_amplitudes(label, rows)


def serialize_signal_file(
    reference: Optional[CandidateSignal], candidates: Sequence[CandidateSignal]
) -> str:
    pool = list(candidates)
    if not pool:
        raise ValueError("at least one candidate signal is required")
    big_n = pool[0].big_n
    for signal in pool + ([reference] if reference else []):
        if signal.big_n != big_n:
            raise ValueError("all signals in a file must share one sample count")

    def record(signal: CandidateSignal) -> dict:
        rows = signal.amplitudes.to_lists()
        return {"id": signal.label, "samples": [{"amplitudes": row} for row in rows]}

    doc: dict = {"N": big_n}
    if reference is not None:
        doc["reference"] = record(reference)
    doc["signals"] = [record(signal) for signal in pool]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# -- matrix CSV --------------------------------------------------------------


def _parse_grid(text: str, parse_cell) -> list[list]:
    rows = []
    numbered = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = [cell.strip() for cell in line.split(",")]
        rows.append([parse_cell(cell, lineno, col) for col, cell in enumerate(cells, start=1)])
        numbered.append(lineno)
    if not rows:
        raise ValidationError("matrix file is empty")
    width = len(rows[0])
    for row, lineno in zip(rows, numbered):
        if len(row) != width:
            raise ValidationError(
                f"line {lineno}: expected {width} cells, got {len(row)}"
            )
    return rows


def _magnitude_cell(cell: str, lineno: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ValidationError(
            f"line {lineno} column {col}: not a decimal: {excerpt(cell)!r}"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise ValidationError(
            f"line {lineno} column {col}: value {excerpt(cell)} outside [0, 1]"
        )
    return value


def _complex_cell(cell: str, lineno: int, col: int) -> tuple[float, float]:
    amplitude, _, phase = cell.partition("@")
    try:
        return checked_polar(float(amplitude), float(phase) if phase else 0.0)
    except ValueError:
        raise ValidationError(
            f"line {lineno} column {col}: expected amplitude@phase with a finite "
            f"phase and the amplitude in [0, 1], got {excerpt(cell)!r}"
        ) from None


def parse_magnitude_csv(text: str) -> MagnitudeMatrix:
    return MagnitudeMatrix.from_rows(_parse_grid(text, _magnitude_cell))


def parse_complex_csv(text: str) -> ComplexFuzzyMatrix:
    """The cells are checked as they are parsed, straight into the two real
    grids of the matrix."""
    rows = _parse_grid(text, _complex_cell)
    amps, phases = zip(*(cell for row in rows for cell in row))
    return ComplexFuzzyMatrix._trusted(len(rows), len(rows[0]), amps, phases)


def _format_grid(matrix) -> str:
    rows = (",".join(map(fullprec, matrix.row(i))) for i in range(matrix.rows))
    return "\n".join(rows) + "\n"


def format_magnitude_csv(matrix: MagnitudeMatrix) -> str:
    return _format_grid(matrix)


def format_real_csv(matrix: RealMatrix) -> str:
    return _format_grid(matrix)


def _polar_text(amplitude: float, phase: float) -> str:
    return f"{fullprec(amplitude)}@{fullprec(phase)}"


def format_complex_cell(value: ComplexFuzzyNumber) -> str:
    return _polar_text(value.amplitude, value.phase)


def format_complex_csv(matrix: ComplexFuzzyMatrix) -> str:
    rows = zip(matrix.amplitudes(), matrix.phases())
    return "\n".join(",".join(map(_polar_text, *row)) for row in rows) + "\n"


# -- complex sequences (transform command) -----------------------------------


def parse_complex_sequence(text: str) -> list[complex]:
    """One value per line, either ``re`` or ``re,im``."""
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(",")  # float() strips the spaces around each part
        try:
            if len(parts) > 2:
                raise ValueError
            value = complex(*map(float, parts))
        except ValueError:
            raise ValidationError(
                f"line {lineno}: expected 're' or 're,im', got {excerpt(line.strip())!r}"
            ) from None
        if not cmath.isfinite(value):
            raise ValidationError(
                f"line {lineno}: value must be finite, got {excerpt(line.strip())!r}"
            )
        values.append(value)
    if not values:
        raise ValidationError("sequence file is empty")
    return values


def format_complex_sequence(values: Sequence[complex]) -> str:
    # + 0.0 turns -0.0 into 0.0, so zero always prints as 0
    return (
        "\n".join(f"{fullprec(v.real + 0.0)},{fullprec(v.imag + 0.0)}" for v in values)
        + "\n"
    )


# -- plot-ready series -------------------------------------------------------


def emit_plot_series(scores: Sequence[ScoreVector], path) -> None:
    """Write a TSV with one score column per signal, rows by sample index."""
    pool = list(scores)
    if not pool:
        raise ValueError("no scores to emit")
    length = len(pool[0].scores)
    if any(len(vector.scores) != length for vector in pool):
        raise ValueError("score vectors must share one length")
    lines = ["n\t" + "\t".join(vector.label for vector in pool)]
    for n in range(length):
        lines.append(
            "\t".join([str(n)] + [fullprec(vector.scores[n]) for vector in pool])
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
