"""Identification algorithm tests: cross-product scoring and the max-min decision."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden
from cfsm import (
    CandidateSignal,
    MagnitudeMatrix,
    RealMatrix,
    ShapeError,
    SignalSample,
    column_min,
    fourier_identify,
    maxmin_decision,
    sample_score,
    score_vector,
)
from cfsm.cfmatrix import TWO_PI, ComplexFuzzyNumber
from cfsm.oracle import cross_product, naive_sample_score

ABS_TOL = 1e-12

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _sample(amplitudes, index=0, phases=None):
    phases = phases if phases is not None else [0.0] * len(amplitudes)
    return SignalSample(
        index, tuple(ComplexFuzzyNumber(a, p) for a, p in zip(amplitudes, phases))
    )


def _signals():
    reference = CandidateSignal.from_amplitudes("r", golden.REFERENCE_AMPLITUDES)
    x1 = CandidateSignal.from_amplitudes("x1", golden.X1_AMPLITUDES)
    x2 = CandidateSignal.from_amplitudes("x2", golden.X2_AMPLITUDES)
    return reference, x1, x2


# -- cross product (the literal reference in cfsm.oracle) ------------------------


def test_cross_product_worked_example():
    reference, x1, _ = _signals()
    out = cross_product(x1.samples[1], reference.samples[1])
    assert out.scale == 0.25
    assert sorted(t.amplitude for t in out.terms) == [0.3, 0.3, 0.5, 0.6]
    assert sorted(t.phase for t in out.terms) == [0.0, 0.0, 0.0, math.pi]
    by_source = {t.source: t for t in out.terms}
    assert by_source[(0, 0)].amplitude == 0.6  # min(1.0, 0.6)
    assert by_source[(1, 1)].amplitude == 0.3  # min(0.3, 0.5)
    assert by_source[(1, 1)].phase == math.pi


def test_cross_product_of_constant_samples():
    s = _sample([0.4, 0.4, 0.4])
    out = cross_product(s, s)
    assert len(out.terms) == 9
    assert all(t.amplitude == 0.4 and t.phase == 0.0 for t in out.terms)


def test_cross_product_with_zero_sample_zeroes_amplitudes():
    s = _sample([0.9, 0.7], phases=[0.3, 1.2])
    z = _sample([0.0, 0.0])
    assert all(t.amplitude == 0.0 for t in cross_product(s, z).terms)


# -- sample scores -----------------------------------------------------------------


def test_sample_scores_match_the_worked_example():
    reference, x1, x2 = _signals()
    assert sample_score(x1.samples[0], reference.samples[0]) == pytest.approx(
        0.175, abs=ABS_TOL
    )
    assert sample_score(x1.samples[1], reference.samples[1]) == pytest.approx(
        0.15, abs=ABS_TOL
    )
    assert sample_score(x2.samples[0], reference.samples[0]) == pytest.approx(
        0.225, abs=ABS_TOL
    )
    assert sample_score(x2.samples[1], reference.samples[1]) == pytest.approx(
        0.15, abs=ABS_TOL
    )


@given(st.lists(unit, min_size=1, max_size=6), st.lists(unit, min_size=1, max_size=6))
def test_sample_score_is_symmetric(amps_a, amps_b):
    a, b = _sample(amps_a), _sample(amps_b)
    assert sample_score(a, b) == sample_score(b, a)


@given(st.lists(unit, min_size=1, max_size=6), st.lists(unit, min_size=1, max_size=6))
def test_sample_score_is_bounded_by_the_smaller_peak(amps_a, amps_b):
    a, b = _sample(amps_a), _sample(amps_b)
    bound = min(max(amps_a), max(amps_b)) / (len(amps_a) * len(amps_b))
    assert sample_score(a, b) <= bound + ABS_TOL


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(unit, min_size=n, max_size=n),
            st.lists(unit, min_size=n, max_size=n),
            st.lists(
                st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
                min_size=2 * n,
                max_size=2 * n,
            ),
        )
    )
)
def test_sample_score_ignores_phases_bit_for_bit(case):
    amps_a, amps_b, phases = case
    n = len(amps_a)
    flat_a, flat_b = _sample(amps_a), _sample(amps_b)
    noisy_a = _sample(amps_a, phases=phases[:n])
    noisy_b = _sample(amps_b, phases=phases[n:])
    assert sample_score(noisy_a, noisy_b) == sample_score(flat_a, flat_b)


signed_unit = st.one_of(unit, st.sampled_from([0.0, -0.0, 0.5]))


@given(
    st.lists(signed_unit, min_size=1, max_size=6),
    st.lists(signed_unit, min_size=1, max_size=6),
)
@example([-0.0, 0.5, 0.5], [0.0, -0.0, -0.0])
def test_closed_form_score_equals_the_literal_cross_product(amps_a, amps_b):
    a, b = _sample(amps_a), _sample(amps_b)
    # repr, not ==, so that 0.0 and -0.0 count as different results
    assert repr(sample_score(a, b)) == repr(naive_sample_score(a, b))


# -- score vectors and identification --------------------------------------------------


def test_score_vectors_match_the_worked_example():
    reference, x1, x2 = _signals()
    v1 = score_vector(x1, reference)
    v2 = score_vector(x2, reference)
    assert v1.scores == pytest.approx(golden.X1_SCORES, abs=ABS_TOL)
    assert v2.scores == pytest.approx(golden.X2_SCORES, abs=ABS_TOL)
    assert v1.best == pytest.approx(0.175, abs=ABS_TOL)
    assert v2.best == pytest.approx(0.225, abs=ABS_TOL)


def test_score_vector_rejects_mismatched_sample_counts():
    reference, x1, _ = _signals()
    other = CandidateSignal.from_amplitudes("y", [[0.1]])
    with pytest.raises(ValueError):
        score_vector(other, reference)


def test_identification_picks_the_highest_best_score():
    reference, x1, x2 = _signals()
    result = fourier_identify([x1, x2], reference)
    assert result.winner == golden.IDENT_WINNER
    assert result.tied == ("x2",)
    assert [v.label for v in result.scores] == ["x1", "x2"]


def test_single_candidate_wins_by_default():
    reference, x1, _ = _signals()
    result = fourier_identify([x1], reference)
    assert result.winner == "x1"


def test_exact_tie_reports_both_and_keeps_input_order():
    reference, x1, _ = _signals()
    twin = CandidateSignal.from_amplitudes("twin", golden.X1_AMPLITUDES)
    result = fourier_identify([x1, twin], reference)
    assert result.winner == "x1"
    assert result.tied == ("x1", "twin")


def test_identification_requires_candidates():
    reference, _, _ = _signals()
    with pytest.raises(ValueError):
        fourier_identify([], reference)


def test_trivial_self_score_with_one_sample():
    one = CandidateSignal.from_amplitudes("one", [[1.0]])
    assert fourier_identify([one], one).scores[0].scores == (1.0,)


@given(st.data())
def test_winner_does_not_depend_on_candidate_order(data):
    size = data.draw(st.integers(1, 3))
    rows = st.lists(
        st.lists(unit, min_size=size, max_size=size), min_size=size, max_size=size
    )
    reference = CandidateSignal.from_amplitudes("r", data.draw(rows))
    candidates = [
        CandidateSignal.from_amplitudes(f"s{i}", data.draw(rows)) for i in range(3)
    ]
    forward = fourier_identify(candidates, reference)
    backward = fourier_identify(list(reversed(candidates)), reference)
    if len(forward.tied) == 1:
        assert backward.winner == forward.winner


@settings(max_examples=50)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0.0, 1.0]) | unit, min_size=n, max_size=n),
            min_size=2 * n,
            max_size=2 * n,
        )
    )
)
def test_score_vector_equals_the_literal_score_of_the_derived_samples(rows):
    half = len(rows) // 2
    candidate = CandidateSignal.from_amplitudes("c", rows[:half])
    reference = CandidateSignal.from_amplitudes("r", rows[half:])
    literal = tuple(
        naive_sample_score(c, r) for c, r in zip(candidate.samples, reference.samples)
    )
    assert repr(score_vector(candidate, reference).scores) == repr(literal)


# -- max-min decision -------------------------------------------------------------------


def _decision_pair():
    return (
        MagnitudeMatrix.from_rows(golden.DECISION_A),
        MagnitudeMatrix.from_rows(golden.DECISION_B),
    )


def test_column_min_worked_example():
    a, b = _decision_pair()
    degrees = column_min(a.usual_product(b))
    assert degrees == pytest.approx([0.00, 0.17, 0.07, 0.13], abs=ABS_TOL)


def test_column_min_of_single_row_is_the_row():
    m = RealMatrix(1, 3, (0.5, 0.2, 0.9))
    assert column_min(m) == [0.5, 0.2, 0.9]


def test_column_min_matches_exhaustive_scan():
    rng = random.Random(5)
    grid = [[rng.random() for _ in range(5)] for _ in range(5)]
    m = RealMatrix(5, 5, tuple(v for row in grid for v in row))
    assert column_min(m) == [
        min(grid[i][j] for i in range(5)) for j in range(5)
    ]


def test_maxmin_decision_worked_example():
    a, b = _decision_pair()
    decision = maxmin_decision(a, b, golden.DECISION_LABELS)
    assert decision.winner == golden.DECISION_WINNER
    assert decision.winner_degree == pytest.approx(0.17, abs=ABS_TOL)
    assert [label for label, _ in decision.memberships] == ["v2", "v3", "v4"]
    assert [degree for _, degree in decision.memberships] == pytest.approx(
        [0.17, 0.07, 0.13], abs=ABS_TOL
    )
    assert not decision.degenerate


def test_maxmin_decision_with_zero_operand_degenerates():
    a, _ = _decision_pair()
    zero = MagnitudeMatrix.zero(4, 4)
    decision = maxmin_decision(a, zero, golden.DECISION_LABELS)
    assert decision.memberships == ()
    assert decision.winner == "v1"
    assert decision.degenerate


def test_maxmin_decision_shape_and_label_errors():
    a, b = _decision_pair()
    with pytest.raises(ShapeError):
        maxmin_decision(MagnitudeMatrix.zero(2, 3), MagnitudeMatrix.zero(2, 3), ("a", "b"))
    with pytest.raises(ShapeError):
        maxmin_decision(a, MagnitudeMatrix.zero(3, 3), golden.DECISION_LABELS)
    with pytest.raises(ValueError):
        maxmin_decision(a, b, ("only", "three", "labels"))


def test_maxmin_decision_recomposes_from_its_stages():
    rng = random.Random(17)
    grid_a = [[rng.randrange(11) * 0.1 for _ in range(4)] for _ in range(4)]
    grid_b = [[rng.randrange(11) * 0.1 for _ in range(4)] for _ in range(4)]
    a = MagnitudeMatrix.from_rows(grid_a)
    b = MagnitudeMatrix.from_rows(grid_b)
    labels = ("p", "q", "r", "s")
    decision = maxmin_decision(a, b, labels)
    degrees = column_min(a.usual_product(b))
    assert decision.winner == labels[degrees.index(max(degrees))]
    assert decision.memberships == tuple(
        (label, degree) for label, degree in zip(labels, degrees) if degree > 0.0
    )
    assert all(0.0 <= degree <= 4.0 for degree in degrees)
