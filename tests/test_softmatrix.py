"""Magnitude matrix tests: set operations, block products, orderings."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import golden
from cfsm import FuzzySoftSetTable, MagnitudeMatrix, RealMatrix, ShapeError

ABS_TOL = 1e-12

degrees = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# the 0.05 grid produces frequent ties, which the order relations need
coarse = st.integers(0, 20).map(lambda k: k * 0.05)


@st.composite
def matrices(draw, rows=None, cols=None, max_dim=5, cell=degrees):
    r = rows if rows is not None else draw(st.integers(1, max_dim))
    c = cols if cols is not None else draw(st.integers(1, max_dim))
    grid = draw(st.lists(st.lists(cell, min_size=c, max_size=c), min_size=r, max_size=r))
    return MagnitudeMatrix.from_rows(grid)


def same_shape_triple(cell=degrees):
    return st.integers(1, 4).flatmap(
        lambda r: st.integers(1, 4).flatmap(
            lambda c: st.tuples(
                matrices(rows=r, cols=c, cell=cell),
                matrices(rows=r, cols=c, cell=cell),
                matrices(rows=r, cols=c, cell=cell),
            )
        )
    )


# -- construction and ingestion ------------------------------------------------


def test_entries_outside_unit_interval_rejected():
    with pytest.raises(ValueError):
        MagnitudeMatrix.from_rows([[0.2, 1.5]])
    with pytest.raises(ValueError):
        MagnitudeMatrix.from_rows([[-0.1]])


def test_negative_zero_entries_are_stored_as_zero():
    assert repr(MagnitudeMatrix.from_rows([[-0.0, 0.5]]).at(0, 0)) == "0.0"
    assert repr(RealMatrix(1, 1, (-0.0,)).at(0, 0)) == "0.0"


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        MagnitudeMatrix.from_rows([[0.1, 0.2], [0.3]])


def test_soft_set_table_becomes_the_worked_matrix():
    table = FuzzySoftSetTable(
        golden.SOFT_UNIVERSE, golden.SOFT_PARAMETERS, golden.SOFT_MEMBERSHIPS
    )
    assert table.to_matrix().to_lists() == golden.SOFT_MATRIX


def test_soft_set_table_defaults_to_zero():
    table = FuzzySoftSetTable(("a", "b"), ("p", "q"), {})
    assert table.to_matrix() == MagnitudeMatrix.zero(2, 2)


def test_soft_set_table_all_ones_is_universal():
    memberships = {(u, x): 1.0 for u in ("a", "b") for x in ("p", "q")}
    table = FuzzySoftSetTable(("a", "b"), ("p", "q"), memberships)
    assert table.to_matrix() == MagnitudeMatrix.universal(2, 2)


def test_soft_set_table_validation():
    with pytest.raises(ValueError):
        FuzzySoftSetTable(("a", "a"), ("p",), {})
    with pytest.raises(ValueError):
        FuzzySoftSetTable(("a",), ("p",), {("a", "zzz"): 0.5})
    with pytest.raises(ValueError):
        FuzzySoftSetTable(("a",), ("p",), {("a", "p"): 1.5})


# -- block products --------------------------------------------------------------


A12 = MagnitudeMatrix.from_rows([[0.3, 0.7]])
B12 = MagnitudeMatrix.from_rows([[0.5, 0.2]])


def test_and_product_hand_expansion():
    assert A12.and_product(B12).to_lists() == [[0.3, 0.2, 0.5, 0.2]]


def test_or_product_hand_expansion():
    assert A12.or_product(B12).to_lists() == [[0.5, 0.3, 0.7, 0.7]]


def test_and_not_product_hand_expansion():
    assert A12.and_not_product(B12).to_lists() == [[0.3, 0.3, 0.5, 0.7]]


def test_or_not_product_hand_expansion():
    assert A12.or_not_product(B12).to_lists() == [[0.5, 0.8, 0.7, 0.8]]


def test_and_product_on_crisp_matrices_is_logical_and():
    a = MagnitudeMatrix.from_rows([[0.0, 1.0], [1.0, 1.0]])
    out = a.and_product(a)
    # row blocks enumerate all pairwise conjunctions of the row's entries
    assert out.to_lists() == [[0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0]]


def test_zero_against_anything_and_product_is_zero():
    zero = MagnitudeMatrix.zero(1, 2)
    assert zero.and_product(B12) == MagnitudeMatrix.zero(1, 4)


def test_or_product_with_zero_replicates_rows_blockwise():
    out = A12.or_product(MagnitudeMatrix.zero(1, 2))
    assert out.to_lists() == [[0.3, 0.3, 0.7, 0.7]]


def test_and_not_edges():
    assert A12.and_not_product(MagnitudeMatrix.universal(1, 2)) == MagnitudeMatrix.zero(1, 4)
    assert A12.and_not_product(MagnitudeMatrix.zero(1, 2)).to_lists() == [
        [0.3, 0.3, 0.7, 0.7]
    ]


def test_or_not_edges():
    assert A12.or_not_product(MagnitudeMatrix.zero(1, 2)) == MagnitudeMatrix.universal(1, 4)
    universal = MagnitudeMatrix.universal(1, 2)
    assert universal.or_not_product(B12) == MagnitudeMatrix.universal(1, 4)


def test_block_products_reject_shape_mismatch():
    with pytest.raises(ShapeError):
        A12.and_product(MagnitudeMatrix.from_rows([[0.1]]))


@given(matrices(max_dim=4), st.sampled_from(["and", "or", "andnot", "ornot"]))
def test_block_products_square_the_column_count(a, which):
    other = MagnitudeMatrix.from_rows(
        [[1.0 - v for v in row] for row in a.to_lists()]
    )
    out = {
        "and": a.and_product,
        "or": a.or_product,
        "andnot": a.and_not_product,
        "ornot": a.or_not_product,
    }[which](other)
    assert out.shape == (a.rows, a.cols * a.cols)


@given(matrices(rows=2, cols=3), matrices(rows=2, cols=3))
def test_and_or_products_match_the_index_rule(a, b):
    out_and = a.and_product(b)
    out_or = a.or_product(b)
    n = a.cols
    for i in range(a.rows):
        for j in range(1, n + 1):  # 1-based, as the rule is usually written
            for k in range(1, n + 1):
                p = n * (j - 1) + k
                assert out_and.at(i, p - 1) == min(a.at(i, j - 1), b.at(i, k - 1))
                assert out_or.at(i, p - 1) == max(a.at(i, j - 1), b.at(i, k - 1))


# -- set operations ----------------------------------------------------------------


def _mag4_pair():
    return (
        MagnitudeMatrix.from_rows(golden.MAG4_A),
        MagnitudeMatrix.from_rows(golden.MAG4_B),
    )


def test_union_reproduces_the_worked_table():
    a, b = _mag4_pair()
    assert a.union(b).to_lists() == golden.MAG4_UNION


def test_intersection_reproduces_the_worked_table():
    a, b = _mag4_pair()
    assert a.intersection(b).to_lists() == golden.MAG4_INTERSECTION


def test_complement_reproduces_the_worked_table():
    a, _ = _mag4_pair()
    out = a.complement().to_lists()
    for got_row, want_row in zip(out, golden.MAG4_A_COMPLEMENT):
        for got, want in zip(got_row, want_row):
            assert got == pytest.approx(want, abs=ABS_TOL)


def test_union_intersection_edges():
    a, _ = _mag4_pair()
    zero = MagnitudeMatrix.zero(4, 4)
    universal = MagnitudeMatrix.universal(4, 4)
    assert a.union(a) == a
    assert a.union(zero) == a
    assert a.intersection(universal) == a
    assert a.intersection(zero) == zero


def test_complement_edges():
    assert MagnitudeMatrix.zero(2, 3).complement() == MagnitudeMatrix.universal(2, 3)
    a, _ = _mag4_pair()
    back = a.complement().complement()
    for got, want in zip(back.entries, a.entries):
        assert got == pytest.approx(want, abs=ABS_TOL)


def test_set_operations_reject_shape_mismatch():
    a, _ = _mag4_pair()
    with pytest.raises(ShapeError):
        a.union(MagnitudeMatrix.zero(2, 2))
    with pytest.raises(ShapeError):
        a.intersection(MagnitudeMatrix.zero(2, 2))


@given(same_shape_triple())
def test_lattice_laws_hold_exactly(triple):
    a, b, c = triple
    assert a.intersection(b) == b.intersection(a)
    assert a.union(b) == b.union(a)
    assert a.intersection(b).intersection(c) == a.intersection(b.intersection(c))
    assert a.union(b).union(c) == a.union(b.union(c))
    assert a.intersection(b.union(c)) == a.intersection(b).union(a.intersection(c))
    assert a.union(b.intersection(c)) == a.union(b).intersection(a.union(c))
    assert a.union(b).complement() == a.complement().intersection(b.complement())
    assert a.intersection(b).complement() == a.complement().union(b.complement())


@given(same_shape_triple(cell=st.sampled_from([0.0, 1.0])))
def test_union_intersection_restrict_to_boolean_or_and(triple):
    a, b, _ = triple
    for x, y, u, i in zip(
        a.entries, b.entries, a.union(b).entries, a.intersection(b).entries
    ):
        assert u == float(bool(x) or bool(y))
        assert i == float(bool(x) and bool(y))


# -- order relations -----------------------------------------------------------------


def test_house_comparison_is_a_proper_submatrix():
    f = MagnitudeMatrix.from_rows(golden.HOUSES_F)
    g = MagnitudeMatrix.from_rows(golden.HOUSES_G)
    assert f.is_submatrix_of(g)
    assert f.is_proper_submatrix_of(g)
    assert not g.is_submatrix_of(f)


def test_ordering_against_self_and_zero():
    a, _ = _mag4_pair()
    assert a.is_submatrix_of(a)
    assert not a.is_proper_submatrix_of(a)
    assert a.equals(a)
    assert MagnitudeMatrix.zero(4, 4).is_submatrix_of(a)


def test_ordering_rejects_shape_mismatch():
    a, _ = _mag4_pair()
    with pytest.raises(ShapeError):
        a.is_submatrix_of(MagnitudeMatrix.zero(2, 2))
    with pytest.raises(ShapeError):
        a.equals(MagnitudeMatrix.zero(2, 2))


@given(same_shape_triple(cell=coarse))
def test_submatrix_is_a_partial_order(triple):
    x, y, z = triple
    lo = x.intersection(y).intersection(z)
    hi = x.union(y).union(z)
    mid = x.union(y).intersection(hi)
    assert lo.is_submatrix_of(lo)  # reflexive
    assert lo.is_submatrix_of(mid) and mid.is_submatrix_of(hi)
    assert lo.is_submatrix_of(hi)  # transitive step
    if x.is_submatrix_of(y) and y.is_submatrix_of(x):
        assert x.equals(y)  # antisymmetric


# -- constant matrices ------------------------------------------------------------------


def test_constant_matrix_constructors():
    assert MagnitudeMatrix.zero(3, 3).to_lists() == [[0.0] * 3] * 3
    assert MagnitudeMatrix.universal(2, 2).to_lists() == [[1.0, 1.0], [1.0, 1.0]]
    assert MagnitudeMatrix.a_universal(2, 3, {2}).to_lists() == [
        [0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0],
    ]


def test_a_universal_rejects_bad_columns():
    with pytest.raises(IndexError):
        MagnitudeMatrix.a_universal(2, 3, {0})
    with pytest.raises(IndexError):
        MagnitudeMatrix.a_universal(2, 3, {4})


# -- usual product ------------------------------------------------------------------------


def _decision_pair():
    return (
        MagnitudeMatrix.from_rows(golden.DECISION_A),
        MagnitudeMatrix.from_rows(golden.DECISION_B),
    )


def test_usual_product_worked_entries():
    a, b = _decision_pair()
    out = a.usual_product(b)
    assert out.at(0, 1) == pytest.approx(0.23, abs=ABS_TOL)
    # the tabulated 0.01 here is a transcription error; the dot product is
    # 0.1*0.1 + 0.0*0.3 + 0.3*0.1 + 0.3*0.2 = 0.10, which the table's own
    # column minima confirm
    assert out.at(0, 2) == pytest.approx(0.10, abs=ABS_TOL)


def test_usual_product_with_permutation_pattern_keeps_rows():
    a, _ = _decision_pair()
    identity = MagnitudeMatrix.from_rows(
        [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    )
    assert a.usual_product(identity).to_lists() == a.to_lists()


def test_usual_product_shape_mismatch():
    a, _ = _decision_pair()
    with pytest.raises(ShapeError):
        a.usual_product(MagnitudeMatrix.zero(3, 3))


def test_usual_product_can_exceed_one():
    ones = MagnitudeMatrix.universal(4, 4)
    out = ones.usual_product(ones)
    assert out.at(0, 0) == 4.0
    assert isinstance(out, RealMatrix)


@given(matrices(max_dim=4), st.data())
def test_usual_product_matches_the_literal_triple_loop(a, data):
    b = data.draw(matrices(rows=a.cols, max_dim=4))
    out = a.usual_product(b)
    for i in range(a.rows):
        for j in range(b.cols):
            acc = 0.0
            for k in range(a.cols):
                acc += a.at(i, k) * b.at(k, j)
            assert out.at(i, j) == pytest.approx(acc, abs=ABS_TOL)


def test_real_matrix_rejects_negative_entries():
    with pytest.raises(ValueError):
        RealMatrix(1, 2, (0.5, -0.1))
