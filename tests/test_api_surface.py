"""The public API surface, pinned against tests/api_surface.txt.

The file lists the sorted ``cfsm.__all__`` with the signature of each
public callable, then the public attributes of ComplexFuzzyMatrix and
ComplexFuzzyNumber instances (with signatures for methods). A change to
the public API shows up here as a diff. To re-record after an intended
change, run from the repository root:

    PYTHONPATH=src python tests/test_api_surface.py > tests/api_surface.txt
"""

import inspect
from pathlib import Path

import cfsm
from cfsm import ComplexFuzzyMatrix, ComplexFuzzyNumber

RECORD = Path(__file__).parent / "api_surface.txt"


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):  # e.g. exception classes
        return " (no signature)"


def surface() -> str:
    lines = []
    for name in sorted(cfsm.__all__):
        obj = getattr(cfsm, name)
        lines.append(name + (_signature(obj) if callable(obj) else ""))
    samples = (ComplexFuzzyMatrix.from_rows([[(0.5, 1.0)]]), ComplexFuzzyNumber(0.5, 1.0))
    for sample in samples:
        for attr in sorted(a for a in dir(sample) if not a.startswith("_")):
            value = getattr(sample, attr)
            signature = _signature(value) if callable(value) else ""
            lines.append(f"{type(sample).__name__}.{attr}{signature}")
    return "\n".join(lines) + "\n"


def test_public_api_matches_the_record():
    assert surface() == RECORD.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(surface(), end="")
