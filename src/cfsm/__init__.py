"""Complex fuzzy (soft) matrix algebra and reference-signal identification."""

from .cfmatrix import (
    ComplexFuzzyMatrix,
    ComplexFuzzyNumber,
    fuzzy_max,
    fuzzy_min,
    wrap_phase,
)
from .errors import ShapeError, ValidationError
from .fourier import CandidateSignal, SignalSample, dft, expand_sample, idft
from .identify import (
    IdentificationResult,
    OptimumFuzzySet,
    ScoreVector,
    column_min,
    fourier_identify,
    maxmin_decision,
    sample_score,
    score_vector,
)
from .softmatrix import FuzzySoftSetTable, MagnitudeMatrix, RealMatrix

__version__ = "0.1.0"

__all__ = [
    "CandidateSignal",
    "ComplexFuzzyMatrix",
    "ComplexFuzzyNumber",
    "FuzzySoftSetTable",
    "IdentificationResult",
    "MagnitudeMatrix",
    "OptimumFuzzySet",
    "RealMatrix",
    "ScoreVector",
    "ShapeError",
    "SignalSample",
    "ValidationError",
    "column_min",
    "dft",
    "expand_sample",
    "fourier_identify",
    "fuzzy_max",
    "fuzzy_min",
    "idft",
    "maxmin_decision",
    "sample_score",
    "score_vector",
    "wrap_phase",
]
