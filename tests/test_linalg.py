"""Row-reduced subspaces, linear solving, and subspace counting."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from complen.fields import field_make
from complen.length import count_subspaces, enumerate_subspaces
from complen.linalg import Subspace, gaussian_binomial, solve_linear

F2 = field_make("F2")
F3 = field_make("F3")
F5 = field_make("F5")
Q = field_make("Q")


def _v(f, *ints):
    return tuple(f.from_int(i) for i in ints)


def test_zero_subspace():
    s = Subspace.zero(F3, 4)
    assert s.dim == 0
    assert s.contains(_v(F3, 0, 0, 0, 0))
    assert not s.contains(_v(F3, 1, 0, 0, 0))


def test_insert_canonicalizes_pivots():
    s = Subspace.zero(F5, 3)
    s = s.insert(_v(F5, 2, 4, 0))  # pivot rescaled to 1
    assert s.rows[0] == _v(F5, 1, 2, 0)
    s = s.insert(_v(F5, 0, 0, 3))
    assert s.rows[1] == _v(F5, 0, 0, 1)
    assert s.dim == 2


def test_insert_clears_above_and_below():
    s = Subspace.span(Q, 3, [_v(Q, 1, 2, 3), _v(Q, 0, 1, 1)])
    # reduced echelon: first row must have 0 in the second pivot column
    assert s.rows[0] == _v(Q, 1, 0, 1)
    assert s.rows[1] == _v(Q, 0, 1, 1)


def test_span_order_independent():
    vs = [_v(F3, 1, 1, 0), _v(F3, 0, 1, 2), _v(F3, 1, 2, 2)]
    spans = {Subspace.span(F3, 3, list(p)) for p in itertools.permutations(vs)}
    assert len(spans) == 1


def test_contains_and_reduce():
    s = Subspace.span(F5, 3, [_v(F5, 1, 0, 2), _v(F5, 0, 1, 3)])
    assert s.contains(_v(F5, 2, 3, 13))
    assert not s.contains(_v(F5, 0, 0, 1))
    assert s.reduce(_v(F5, 1, 1, 5)) == _v(F5, 0, 0, 0)


def test_sum_of_subspaces():
    a = Subspace.span(F2, 4, [_v(F2, 1, 0, 0, 0)])
    b = Subspace.span(F2, 4, [_v(F2, 0, 1, 0, 0), _v(F2, 1, 1, 0, 0)])
    c = a.sum(b)
    assert c.dim == 2
    assert c.contains(_v(F2, 1, 1, 0, 0))


def test_equality_and_key_agree():
    a = Subspace.span(F3, 2, [_v(F3, 1, 2), _v(F3, 2, 2)])
    b = Subspace.span(F3, 2, [_v(F3, 0, 1), _v(F3, 1, 0)])
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    c = Subspace.span(F3, 2, [_v(F3, 1, 0)])
    assert c != a and c not in {a}


def test_dedup_by_key_counts_all_subspaces_f2_cube():
    vecs = list(itertools.product([F2.zero(), F2.one()], repeat=3))
    seen = set()
    for r in range(4):
        for combo in itertools.combinations(vecs, r):
            seen.add(Subspace.span(F2, 3, list(combo)))
    # total subspaces of F2^3: 1 + 7 + 7 + 1
    assert len(seen) == 16


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 0, 2) == 1
    assert gaussian_binomial(4, 1, 2) == 15
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 4, 2) == 1
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(8, 4, 2) == 200787


def test_count_subspaces_matches_gaussian_sum():
    # nonzero subspaces of F2^4: 15 + 35 + 15 + 1 = 66
    assert count_subspaces(F2, 4, range(1, 5)) == 66
    assert count_subspaces(F3, 2, range(1, 3)) == 5
    assert count_subspaces(F5, 2, range(1, 3)) == 7
    assert count_subspaces(F2, 8, range(1, 9)) == 417198


def test_enumerate_subspaces_f2_dim4():
    by_dim = {}
    keys = set()
    total = 0
    for k in range(1, 5):
        for s in enumerate_subspaces(F2, 4, k):
            assert s.dim == k
            keys.add(s)
            by_dim[k] = by_dim.get(k, 0) + 1
            total += 1
    assert total == len(keys) == 66
    assert by_dim == {1: 15, 2: 35, 3: 15, 4: 1}


def test_enumerate_subspaces_f3_dim2():
    counts = [sum(1 for _ in enumerate_subspaces(F3, 2, k)) for k in (1, 2)]
    assert counts == [4, 1]


def test_enumerate_subspaces_rows_already_canonical():
    for s in enumerate_subspaces(F3, 3, 2):
        rebuilt = Subspace.span(F3, 3, list(s.rows))
        assert rebuilt.rows == s.rows


def test_solve_linear_consistent():
    rows = [_v(Q, 1, 2), _v(Q, 3, 4)]
    sol = solve_linear(Q, rows, _v(Q, 5, 6))
    assert sol is not None
    x, y = sol
    assert (x + 2 * y, 3 * x + 4 * y) == (Q.from_int(5), Q.from_int(6))


def test_solve_linear_inconsistent():
    rows = [_v(F3, 1, 1), _v(F3, 2, 2)]
    assert solve_linear(F3, rows, _v(F3, 1, 1)) is None


def test_solve_linear_underdetermined_sets_free_vars_zero():
    sol = solve_linear(Q, [_v(Q, 1, 1, 0)], (Q.from_int(4),))
    assert sol == _v(Q, 4, 0, 0)


@given(st.lists(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                         min_size=4, max_size=4), min_size=1, max_size=4))
@settings(max_examples=100)
def test_subspace_keys_do_not_depend_on_the_rational_encoding(vectors):
    as_fractions = [tuple(Fraction(x) for x in v) for v in vectors]
    as_ints = [tuple(Q.parse(str(x)) for x in v) for v in vectors]
    s, t = Subspace.span(Q, 4, as_fractions), Subspace.span(Q, 4, as_ints)
    assert s == t and hash(s) == hash(t) and s.rows == t.rows
    assert {s} == {t} and {s: 1}[t] == 1
    for row in s.rows:
        for x in row:
            assert (type(x) is int) == (Fraction(x).denominator == 1)
