"""Unit-disc value and matrix algebra tests."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import golden
from cfsm import (
    ComplexFuzzyMatrix,
    ComplexFuzzyNumber,
    ShapeError,
    fuzzy_max,
    fuzzy_min,
)
from cfsm.cfmatrix import TWO_PI
from cfsm.oracle import (
    naive_conjugate_transpose,
    naive_fuzzy_add,
    naive_maxmin,
    naive_trace,
)

ABS_TOL = 1e-12

amplitudes = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
phases = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True, allow_nan=False)
values = st.builds(ComplexFuzzyNumber, amplitudes, phases)


@st.composite
def matrices(draw, rows=None, cols=None, max_dim=6):
    r = rows if rows is not None else draw(st.integers(1, max_dim))
    c = cols if cols is not None else draw(st.integers(1, max_dim))
    cells = draw(
        st.lists(st.lists(values, min_size=c, max_size=c), min_size=r, max_size=r)
    )
    return ComplexFuzzyMatrix.from_rows(cells)


def cf(amplitude, phase=0.0):
    return ComplexFuzzyNumber(amplitude, phase)


# -- construction -------------------------------------------------------------


@pytest.mark.parametrize("amplitude", [-0.1, 1.5, math.nan, math.inf])
def test_out_of_range_amplitude_rejected(amplitude):
    with pytest.raises(ValueError):
        ComplexFuzzyNumber(amplitude, 0.0)


def test_phase_is_normalized_modulo_two_pi():
    assert cf(0.5, TWO_PI + 1.0).phase == pytest.approx(1.0, abs=ABS_TOL)
    assert cf(0.5, -math.pi / 2).phase == pytest.approx(3 * math.pi / 2, abs=ABS_TOL)
    assert cf(0.5, TWO_PI).phase == 0.0
    assert cf(0.5, -1e-20).phase == 0.0


def test_negative_zero_is_stored_as_zero():
    x = cf(-0.0, -0.0)
    assert repr(x.amplitude) == "0.0" and repr(x.phase) == "0.0"
    assert repr(cf(0.5, -TWO_PI).phase) == "0.0"


def test_matrix_entry_count_must_match_dimensions():
    with pytest.raises(ValueError):
        ComplexFuzzyMatrix(2, 2, (cf(0.1), cf(0.2), cf(0.3)))
    with pytest.raises(ValueError):
        ComplexFuzzyMatrix.from_rows([[cf(0.1), cf(0.2)], [cf(0.3)]])


# -- scalar operations ---------------------------------------------------------


def test_modulus_is_the_amplitude():
    assert abs(cf(0.1, math.pi / 2)) == 0.1
    assert abs(cf(0.0, 1.3)) == 0.0
    assert abs(cf(0.5, 0.0)) == 0.5


def test_fuzzy_max_examples():
    assert fuzzy_max(cf(0.6, math.pi / 2), cf(0.1, math.pi / 6)) == cf(0.6, math.pi / 2)
    assert fuzzy_max(cf(1.0, 0.0), cf(0.3, math.pi / 4)) == cf(1.0, math.pi / 4)
    x = cf(0.42, 1.7)
    assert fuzzy_max(x, x) == x


def test_fuzzy_min_examples():
    assert fuzzy_min(cf(0.6, 0.0), cf(1.0, 0.0)) == cf(0.6, 0.0)
    assert fuzzy_min(cf(0.5, math.pi), cf(0.3, math.pi)) == cf(0.3, math.pi)
    x = cf(0.42, 1.7)
    assert fuzzy_min(x, x) == x


def test_conjugate_examples():
    conj = cf(0.4, math.pi / 2).conjugate()
    assert conj.amplitude == 0.4
    assert conj.phase == pytest.approx(3 * math.pi / 2, abs=ABS_TOL)
    assert cf(0.7, 0.0).conjugate() == cf(0.7, 0.0)


@given(values)
def test_conjugate_is_an_involution(x):
    back = x.conjugate().conjugate()
    assert back.amplitude == x.amplitude
    assert back.phase == pytest.approx(x.phase, abs=ABS_TOL)


def test_evaluate_examples():
    v = cf(0.1, math.pi / 2).evaluate()
    assert v.real == pytest.approx(0.0, abs=ABS_TOL)
    assert v.imag == pytest.approx(0.1, abs=ABS_TOL)
    v = cf(0.3, math.pi).evaluate()
    assert v.real == pytest.approx(-0.3, abs=ABS_TOL)
    assert v.imag == pytest.approx(0.0, abs=ABS_TOL)
    assert cf(0.5, 0.0).evaluate() == complex(0.5, 0.0)


@given(values)
def test_evaluated_modulus_equals_amplitude(x):
    assert abs(x.evaluate()) == pytest.approx(x.amplitude, abs=ABS_TOL)


# -- lattice structure of max/min ----------------------------------------------


@given(values, values)
def test_max_min_commute(a, b):
    assert fuzzy_max(a, b) == fuzzy_max(b, a)
    assert fuzzy_min(a, b) == fuzzy_min(b, a)


@given(values, values, values)
def test_max_min_associate(a, b, c):
    assert fuzzy_max(fuzzy_max(a, b), c) == fuzzy_max(a, fuzzy_max(b, c))
    assert fuzzy_min(fuzzy_min(a, b), c) == fuzzy_min(a, fuzzy_min(b, c))


@given(values, values)
def test_max_min_absorb(a, b):
    assert fuzzy_max(a, fuzzy_min(a, b)) == a
    assert fuzzy_min(a, fuzzy_max(a, b)) == a


@given(values, values)
def test_max_min_stay_on_the_disc(a, b):
    for out in (fuzzy_max(a, b), fuzzy_min(a, b)):
        assert 0.0 <= out.amplitude <= 1.0
        assert 0.0 <= out.phase < TWO_PI


# -- matrix operations -----------------------------------------------------------


def _cf_pair():
    return (
        ComplexFuzzyMatrix.from_rows(golden.CF_A),
        ComplexFuzzyMatrix.from_rows(golden.CF_B),
    )


def test_fuzzy_add_reproduces_the_worked_sum():
    a, b = _cf_pair()
    out = a.fuzzy_add(b)
    assert out.amplitudes() == golden.CF_SUM_AMPLITUDES
    for i, j in sorted(golden.CF_SUM_PHASE_MATCHES):
        assert out.at(i, j).phase == pytest.approx(
            golden.CF_SUM_PHASES[i][j], abs=ABS_TOL
        )


def test_fuzzy_add_is_idempotent():
    a, _ = _cf_pair()
    assert a.fuzzy_add(a) == a


def test_fuzzy_add_with_zero_matrix_keeps_amplitudes():
    a, _ = _cf_pair()
    zero = ComplexFuzzyMatrix.from_rows([[0.0] * 3] * 3)
    assert a.fuzzy_add(zero).amplitudes() == a.amplitudes()


def test_fuzzy_add_shape_mismatch():
    a, _ = _cf_pair()
    with pytest.raises(ShapeError, match="3x3 and 1x3"):
        a.fuzzy_add(ComplexFuzzyMatrix.from_rows([[0.1, 0.2, 0.3]]))


def test_maxmin_reproduces_the_worked_product():
    a, b = _cf_pair()
    out = a.maxmin(b)
    assert out.amplitudes() == golden.CF_PROD_AMPLITUDES
    for i, j in sorted(golden.CF_PROD_PHASE_MATCHES):
        assert out.at(i, j).phase == pytest.approx(
            golden.CF_PROD_PHASES[i][j], abs=ABS_TOL
        )


def test_maxmin_with_zero_amplitudes_gives_zero_amplitudes():
    a, _ = _cf_pair()
    zero = ComplexFuzzyMatrix.from_rows([[0.0] * 3] * 3)
    assert a.maxmin(zero).amplitudes() == [[0.0] * 3] * 3


def test_maxmin_shape_mismatch():
    a, _ = _cf_pair()
    with pytest.raises(ShapeError):
        a.maxmin(ComplexFuzzyMatrix.from_rows([[0.1, 0.2]]))


@given(matrices(rows=4, cols=4), matrices(rows=4, cols=4))
def test_maxmin_agrees_with_the_literal_recomputation(a, b):
    assert a.maxmin(b) == naive_maxmin(a, b)


def test_trace_examples():
    a, _ = _cf_pair()
    assert a.trace().amplitude == 0.6
    flat = ComplexFuzzyMatrix.from_rows([[0.0, 0.9], [0.8, 0.0]])
    assert flat.trace().amplitude == 0.0
    single = ComplexFuzzyMatrix.from_rows([[(0.3, 1.1)]])
    assert single.trace() == cf(0.3, 1.1)


def test_trace_requires_square():
    with pytest.raises(ShapeError):
        ComplexFuzzyMatrix.from_rows([[0.1, 0.2]]).trace()


@given(st.integers(1, 5).flatmap(lambda n: matrices(rows=n, cols=n)))
def test_trace_amplitude_is_the_diagonal_maximum(m):
    assert m.trace().amplitude == max(m.at(i, i).amplitude for i in range(m.rows))


def test_conjugate_transpose_examples():
    m = ComplexFuzzyMatrix.from_rows([[(0.4, math.pi / 2), (0.7, 0.0)]])
    out = m.conjugate_transpose()
    assert out.shape == (2, 1)
    assert out.at(0, 0).amplitude == 0.4
    assert out.at(0, 0).phase == pytest.approx(3 * math.pi / 2, abs=ABS_TOL)
    assert out.at(1, 0) == cf(0.7, 0.0)


def test_conjugate_transpose_of_real_matrix_is_plain_transpose():
    m = ComplexFuzzyMatrix.from_rows([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    out = m.conjugate_transpose()
    assert out.amplitudes() == [[0.1, 0.4], [0.2, 0.5], [0.3, 0.6]]
    assert out.phases() == [[0.0, 0.0]] * 3


@given(matrices())
def test_double_conjugate_transpose_is_identity(m):
    back = m.conjugate_transpose().conjugate_transpose()
    assert back.shape == m.shape
    assert back.amplitudes() == m.amplitudes()
    for x, y in zip(back.entries, m.entries):
        assert x.phase == pytest.approx(y.phase, abs=ABS_TOL)


@given(matrices(max_dim=4), matrices(max_dim=4))
def test_matrix_results_stay_on_the_disc(a, b):
    outputs = [a.fuzzy_add(a), a.conjugate_transpose()]
    if a.shape == b.shape:
        outputs.append(a.fuzzy_add(b))
    if a.cols == b.rows:
        outputs.append(a.maxmin(b))
    for out in outputs:
        for entry in out.entries:
            assert 0.0 <= entry.amplitude <= 1.0
            assert 0.0 <= entry.phase < TWO_PI


# -- kernels against their literal definitions, compared by repr -------------------
# repr tells -0.0 from 0.0, which == does not.

M = ComplexFuzzyMatrix.from_rows
sides = st.sampled_from([1, 1, 2, 3, 5, 8])
amplitude_pools = st.just((0.0, 1.0)) | st.lists(amplitudes, min_size=1, max_size=3)
phase_pools = st.just((0.0, 1.0)) | st.lists(phases, min_size=1, max_size=3)


@st.composite
def tied_matrices(draw, rows, cols, amps, phs):
    cell = st.tuples(st.sampled_from(amps), st.sampled_from(phs))
    row = st.lists(cell, min_size=cols, max_size=cols)
    return M(draw(st.lists(row, min_size=rows, max_size=rows)))


@st.composite
def composable(draw):
    """Two composable matrices whose cells take at most three values per
    component, or only 0.0 and 1.0, so equal-value events are frequent."""
    rows, inner, cols = draw(sides), draw(sides), draw(sides)
    amps, phs = draw(amplitude_pools), draw(phase_pools)
    return (
        draw(tied_matrices(rows, inner, amps, phs)),
        draw(tied_matrices(inner, cols, amps, phs)),
    )


@given(composable())
@example((M([[(0.5, 1.0)]]), M([[(1.0, 0.0)]])))
@example((M([[0.0, 1.0, 1.0]]), M([[1.0], [0.0], [1.0]])))
@example((M([[(1.0, 1.0)], [(0.0, 0.0)]]), M([[(1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]])))
def test_maxmin_matches_the_literal_definition_under_ties(pair):
    a, b = pair
    assert repr(a.maxmin(b)) == repr(naive_maxmin(a, b))


@given(st.data())
def test_maxmin_matches_the_literal_definition_on_any_shape(data):
    a = data.draw(matrices(max_dim=8))
    b = data.draw(matrices(rows=a.cols, max_dim=8))
    assert repr(a.maxmin(b)) == repr(naive_maxmin(a, b))


@given(st.data())
def test_fuzzy_add_matches_the_literal_definition(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=a.rows, cols=a.cols))
    assert repr(a.fuzzy_add(b)) == repr(naive_fuzzy_add(a, b))


@given(st.integers(1, 6).flatmap(lambda n: matrices(rows=n, cols=n)))
def test_trace_matches_the_literal_definition(m):
    assert repr(m.trace()) == repr(naive_trace(m))


@given(matrices())
@example(M([[(0.5, 1e-17), (1.0, 0.0)], [(0.0, 5e-324), (0.25, TWO_PI - 1.0)]]))
def test_conjugate_transpose_matches_the_literal_definition(m):
    assert repr(m.conjugate_transpose()) == repr(naive_conjugate_transpose(m))


def test_entries_are_built_once_and_at_is_an_index():
    m = M([[(0.5, 1.0), 0.25]])
    assert m.entries is m.entries
    assert m.at(0, 1) is m.entries[1] is m.row(0)[1]
    assert m.at(0, 0) == ComplexFuzzyNumber(0.5, 1.0)
