"""Span chains, difference sequences, and the length search."""

import functools
import gc
import hashlib
import importlib.util
import itertools
import json
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complen.algebra import AlgebraTable, subalgebra_closure
from complen.constructors import (
    make_hurwitz_tower,
    make_okubo_idempotent,
    make_okubo_isotropic,
    make_pseudo_octonion,
    make_quadratic_etale,
    standard_twist,
)
from complen import autos as automorphisms, orbits
from complen.errors import (
    CostCapExceeded,
    DimensionMismatch,
    InfiniteField,
    InvariantViolation,
    ModeUnjustified,
    ParseError,
)
from complen.fields import field_make
from complen.iofmt import dump_algebra
from complen.length import (
    ORBIT_FLOOR,
    _exhaustive_source,
    _forms,
    _gf2_lane,
    _int_lane,
    _mask_row,
    _plain_forms,
    _row_fills,
    count_subspaces,
    enumerate_subspaces,
    has_descending_certificate,
    length_of_algebra,
    lin_spans,
)
from complen.linalg import Subspace, gaussian_binomial

F2 = field_make("F2")
F3 = field_make("F3")
F7 = field_make("F7")
Q = field_make("Q")


def _word_span_dims(a, s, steps):
    """Spans of words straight from the definition: every bracketing counts.

    words[k] holds all length-k products; Lin_k spans the unit and all words
    of length <= k. Exponential, so only for tiny oracle cases.
    """
    words = {1: list(s)}
    for k in range(2, steps + 1):
        level = []
        for i in range(1, k):
            for u in words[i]:
                for v in words[k - i]:
                    level.append(a.multiply(u, v))
        words[k] = level
    lin = Subspace.zero(a.field, a.dim)
    e = a.unit_element()
    if e is not None:
        lin = lin.insert(e)
    dims = [lin.dim]
    for k in range(1, steps + 1):
        for w in words[k]:
            lin = lin.insert(w)
        dims.append(lin.dim)
    return dims


def _one_sided_spans(a, s):
    """Lin_{m+1} = Lin_m + Lin_m*S + S*Lin_m, stopped at the first plateau.

    The recursion the descending laws justify, and nothing else: on an
    algebra whose descending certificate is wrong it can end below the
    general chain, so it checks that the certificates are sound.
    """
    e = a.unit_element()
    s_span = Subspace.span(a.field, a.dim, s)
    spans = [Subspace.span(a.field, a.dim, [] if e is None else [e])]
    spans.append(spans[0].sum(s_span))
    while spans[-1].dim < a.dim:
        nxt = spans[-1]
        for r in spans[-1].basis:
            for x in s_span.basis:
                nxt = nxt.insert(a.multiply(r, x)).insert(a.multiply(x, r))
        if nxt == spans[-1]:
            break
        spans.append(nxt)
    return spans


def _assert_descending_matches_oracle(a, s):
    g = lin_spans(a, s, mode="general")
    d = lin_spans(a, s, mode="descending")
    assert (d.d, d.spans, d.generating) == (g.d, g.spans, g.generating)
    assert d.mode == "descending"
    assert list(d.spans) == _one_sided_spans(a, s)
    return g


@pytest.mark.parametrize(
    "make,set_idx,generating",
    (
        (lambda: make_hurwitz_tower(F3, None, (F3.one(), F3.one())), (1, 2), True),
        (lambda: make_okubo_isotropic(F2, F2.one(), F2.one()), (2, 0), True),
        (lambda: make_quadratic_etale(F3, F3.one()), (1,), True),
        (lambda: make_hurwitz_tower(F3, None, (F3.one(), F3.one())), (1,), False),
    ),
    ids=("quaternion-F3", "okubo-isotropic-F2", "etale-F3", "quaternion-F3-nongenerating"),
)
def test_general_mode_matches_word_definition(make, set_idx, generating):
    a = make()
    s = [a.basis_element(i) for i in set_idx]
    rep = lin_spans(a, s, mode="general")
    # one level past the chain's end: the words there add nothing
    oracle = _word_span_dims(a, s, len(rep.spans))
    assert [sp.dim for sp in rep.spans] + [rep.spans[-1].dim] == oracle
    assert rep.spans[-1] == subalgebra_closure(a, s).sum(rep.spans[0])
    assert rep.generating == generating


def test_okubo_idempotent_general_matches_word_definition():
    a = make_okubo_idempotent(F2, F2.one(), F2.one())
    s = [a.basis_element(1), a.add(a.basis_element(3), a.basis_element(7))]
    rep = lin_spans(a, s, mode="general")
    oracle = _word_span_dims(a, s, len(rep.spans) - 1)
    assert [sp.dim for sp in rep.spans] == oracle
    assert rep.d == (0, 2, 3, 2, 1)


def test_descending_agrees_with_general_when_certified():
    cases = [
        (make_okubo_isotropic(F2, F2.one(), F2.one()), (2, 0)),
        (make_hurwitz_tower(F3, None, (F3.one(), F3.one())), (1, 2)),
        (standard_twist(make_hurwitz_tower(F3, None, (F3.one(), F3.one())), "IV"), (1, 2)),
    ]
    for a, idx in cases:
        _assert_descending_matches_oracle(a, [a.basis_element(i) for i in idx])


def test_descending_mode_needs_certificate():
    a = make_okubo_isotropic(F2, F2.one(), F2.one())
    a.certificates.clear()
    s = [a.basis_element(2), a.basis_element(0)]
    with pytest.raises(ModeUnjustified):
        lin_spans(a, s, mode="descending")
    with pytest.raises(ModeUnjustified):
        lin_spans(a, s, mode="middle-out")


def test_report_dict_shape():
    a = make_quadratic_etale(F3, F3.one())
    rep = lin_spans(a, [a.basis_element(1)], mode="general")
    doc = rep.as_dict()
    assert doc == {
        "d": [1, 1],
        "length": 1,
        "generating": True,
        "mode": "general",
        "dims": [1, 2],
    }


def test_unit_line_has_length_zero():
    a = make_quadratic_etale(F3, F3.one())
    rep = lin_spans(a, [a.basis_element(0)], mode="general")
    assert rep.d == (1,) and rep.length == 0 and not rep.generating


def test_exhaustive_search_small_unital():
    a = make_quadratic_etale(F2, F2.one())
    res = length_of_algebra(a, mode="exhaustive")
    assert res.exact and res.mode == "exhaustive"
    assert res.best_length == 1
    assert res.enumerated == 4  # three lines and the plane
    assert res.witness is not None
    census = res.stats["d_census"]
    assert sum(census.values()) == res.stats["generating"]
    assert res.stats["violations"] == []


def test_exhaustive_search_quaternions_f3():
    a = make_hurwitz_tower(F3, None, (F3.one(), F3.one()))
    res = length_of_algebra(a, mode="exhaustive")
    assert res.exact and res.best_length == 2
    assert res.enumerated == 211
    # the witness's own report reproduces the claimed best length
    rep = lin_spans(a, list(res.witness.rows), mode="general")
    assert rep.length == res.best_length and rep.generating


def test_exhaustive_search_respects_cap(monkeypatch):
    a = make_hurwitz_tower(F3, None, (F3.one(), F3.one()))
    monkeypatch.setenv("COMPLEN_COST_CAP", "10")
    with pytest.raises(CostCapExceeded) as exc:
        length_of_algebra(a, mode="exhaustive")
    assert exc.value.estimate == 211
    b = make_hurwitz_tower(Q, None, (Q.one(),))
    with pytest.raises((CostCapExceeded, InfiniteField)):
        length_of_algebra(b, mode="exhaustive")


def test_random_search_deterministic_per_seed():
    a = make_hurwitz_tower(F3, None, (F3.one(), F3.one()))
    r1 = length_of_algebra(a, mode="random", seed=11, budget=60)
    r2 = length_of_algebra(a, mode="random", seed=11, budget=60)
    assert not r1.exact
    assert r1.best_length == r2.best_length
    assert r1.witness == r2.witness
    assert r1.best_length <= 2  # never above the true value
    assert r1.enumerated == r1.stats["evaluated"] == 60


def test_random_search_needs_a_positive_budget():
    a = make_hurwitz_tower(F3, None, (F3.one(), F3.one()))
    for budget in (0, -3):
        with pytest.raises(ParseError):
            length_of_algebra(a, mode="random", budget=budget)
    assert length_of_algebra(a, mode="random", budget=1).enumerated == 1


def test_gf2_fast_lane_matches_generic_lane():
    q = make_hurwitz_tower(F2, F2.one(), (F2.one(),))
    for a in (q, standard_twist(q, "II"), standard_twist(q, "IV")):
        fast = length_of_algebra(a, mode="exhaustive")
        # the same census the way span:general runs it: every subspace through
        # its own lin_spans report
        census = {}
        best = 0
        witness = None
        n = 0
        for k in range(1, a.dim + 1):
            for sub in enumerate_subspaces(F2, a.dim, k):
                rep = lin_spans(a, list(sub.rows), mode="general")
                n += 1
                if rep.generating:
                    census[rep.d] = census.get(rep.d, 0) + 1
                    if rep.length > best:
                        best, witness = rep.length, sub
        assert n == fast.enumerated == 66
        assert best == fast.best_length == 2
        assert census == fast.stats["d_census"]
        assert fast.stats["generating"] == sum(census.values())
        # both lanes take the first subspace of maximal length in enumeration order
        assert fast.witness.rows == witness.rows


def test_gf2_source_runs_in_enumeration_order():
    for n in range(1, 6):
        for k in range(n + 1):
            masks = [
                tuple(tuple(F2.from_int(m >> i & 1) for i in range(n)) for m in rows)
                for rows in _forms(range(n), k, 2, _mask_row)
            ]
            assert masks == [s.rows for s in enumerate_subspaces(F2, n, k)]
        # on a coordinate subspace: the same forms with a zero column inserted
        for k in range(n):
            masks = list(_forms([c for c in range(n) if c != 1], k, 2, _mask_row))
            rows = [
                tuple(m & 1 | (m >> 1) << 2 for m in sub)
                for sub in _forms(range(n - 1), k, 2, _mask_row)
            ]
            assert masks == rows


# written out by hand: pivot sets lexicographically, then the free cells
# through 0..q-1 in row-major order, the last cell fastest
LINES_F3_2 = [((1, 0),), ((1, 1),), ((1, 2),), ((0, 1),)]
LINES_F2_3 = [
    ((1, 0, 0),), ((1, 0, 1),), ((1, 1, 0),), ((1, 1, 1),), ((0, 1, 0),), ((0, 1, 1),),
    ((0, 0, 1),),
]
PLANES_F2_3 = [
    ((1, 0, 0), (0, 1, 0)),
    ((1, 0, 0), (0, 1, 1)),
    ((1, 0, 1), (0, 1, 0)),
    ((1, 0, 1), (0, 1, 1)),
    ((1, 0, 0), (0, 0, 1)),
    ((1, 1, 0), (0, 0, 1)),
    ((0, 1, 0), (0, 0, 1)),
]


def test_enumeration_order_is_pinned():
    assert [s.rows for s in enumerate_subspaces(F3, 2, 1)] == LINES_F3_2
    assert [s.pivots for s in enumerate_subspaces(F3, 2, 1)] == [(0,)] * 3 + [(1,)]
    for k, forms in ((1, LINES_F2_3), (2, PLANES_F2_3)):
        assert [s.rows for s in enumerate_subspaces(F2, 3, k)] == forms
        masks = [tuple(sum(x << i for i, x in enumerate(r)) for r in s) for s in forms]
        assert list(_forms(range(3), k, 2, _mask_row)) == masks
    # a lane's items on the plane x_1 = 0 of F3^3, as the unit quotient walks
    # a hyperplane: the same lines with a zero middle coordinate
    assert list(_forms([0, 2], 1, 3, _int_lane(_zero_table(F3, 3)).encode)) == [
        ((r[0], 0, r[1]),) for (r,) in LINES_F3_2
    ]


def test_uncertified_census_runs_every_general_chain_to_its_end():
    a = make_hurwitz_tower(F2, F2.one(), (F2.one(),))
    a.certificates.clear()  # the same lane: certificates never choose it
    full = length_of_algebra(a, mode="exhaustive")
    assert full.exact and full.best_length == 2
    assert full.stats["generating"] == 29


def _squares_table(n):
    """e_{i+1} = e_i * e_i over F2, every other product zero: the chain from
    e_1 doubles its level at every new dimension, so l = 2^(n-1)."""
    e = [tuple(F2.one() if k == i else F2.zero() for k in range(n)) for i in range(n)]
    zero = (F2.zero(),) * n
    table = [[e[i + 1] if i == j < n - 1 else zero for j in range(n)] for i in range(n)]
    return AlgebraTable(F2, n, [f"e{i + 1}" for i in range(n)], table, name="squares"), e


def test_squares_table_outruns_twice_the_dimension():
    a, e = _squares_table(5)
    rep = lin_spans(a, [e[0]], "general")
    assert rep.d == (0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1)
    assert rep.length == 16 and rep.generating
    rep = lin_spans(a, [e[1]], "general")
    assert rep.d == (0, 1, 1, 0, 1, 0, 0, 0, 1)
    assert not rep.generating
    assert len(rep.spans) == 9  # no plateau spans past the last level that grew
    res = length_of_algebra(a, mode="exhaustive")
    assert res.exact and res.best_length == 16
    assert res.enumerated == 373 and res.stats["generating"] == 307
    assert res.witness == Subspace.span(F2, 5, [e[0]])


def _tower(f, twist):
    a = make_hurwitz_tower(f, f.one() if f.characteristic() == 2 else None, (f.one(), f.one()))
    return a if twist == "I" else standard_twist(a, twist)


CERTIFIED = {
    **{
        f"tower-{t}-{f.spec.format()}": (lambda f=f, t=t: _tower(f, t))
        for f in (F2, F3, Q)
        for t in ("I", "II", "III", "IV")
    },
    "okubo-isotropic-F2": lambda: make_okubo_isotropic(F2, F2.one(), F2.one()),
    "okubo-idempotent-F2": lambda: make_okubo_idempotent(F2, F2.one(), F2.one()),
    "okubo-isotropic-Q": lambda: make_okubo_isotropic(Q, Q.one(), Q.one()),
    "okubo-idempotent-Q": lambda: make_okubo_idempotent(Q, Q.one(), Q.one()),
    "pseudo-octonion-F7": lambda: make_pseudo_octonion(F7),
}


@functools.cache
def _certified(name):
    return CERTIFIED[name]()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CERTIFIED)), st.data())
def test_general_matches_descending_on_certified_families(name, data):
    a = _certified(name)
    f = a.field
    coords = st.integers(-2, 2).map(f.from_int)
    vec = st.tuples(*[coords] * a.dim)
    s = data.draw(st.lists(vec, min_size=1, max_size=3))
    g = _assert_descending_matches_oracle(a, s)
    assert g.spans[-1] == subalgebra_closure(a, s).sum(g.spans[0])


def test_gf9_quaternion_census_and_file_are_pinned():
    # captured when GF(p^k) scalars were coefficient tuples; the index coding
    # must give the same census, witness, text forms and file bytes
    gf9 = field_make("F3^2:1,0,1")
    a = make_hurwitz_tower(gf9, None, (gf9.one(), gf9.one()))
    dump = dump_algebra(a).encode()
    assert hashlib.sha256(dump).hexdigest() == (
        "3175111802a352785d8431b940a744ccacb84678fb10ef6951b3a3a6244247de"
    )
    assert json.dumps(length_of_algebra(a, mode="exhaustive").as_dict(), sort_keys=True) == (
        '{"best_length": 2, "enumerated": 9103, "exact": true, "mode": "exhaustive", '
        '"stats": {"d_census": {"1 2 1": 6642, "1 3": 730}, "evaluated": 184, '
        '"generating": 7372, "lane": "gfp-int", "violations": []}, '
        '"witness": [["1,0", "0,0", "0,0", "0,1"], '
        '["0,0", "1,0", "0,0", "0,0"]]}'
    )


# --- the unit quotient -------------------------------------------------------------


def _new_rows(old, new):
    """Rows of new whose pivots old lacks: new = old + their span, because
    inserting into a forward-reduced store never rewrites a stored row."""
    have = set(old.pivots)
    return [r for r, p in zip(new.basis, new.pivots) if p not in have]


def _general_spans(a, s):
    """The chain on Subspace snapshots, in the field's own arithmetic: the
    reference that every lane and lin_spans are compared with."""
    e = a.unit_element()
    lin0 = Subspace.span(a.field, a.dim, [] if e is None else [e])
    spans = [lin0, lin0.sum(Subspace.span(a.field, a.dim, s))]
    # new[i] spans Lin_i modulo Lin_{i-1}, kept for level 1 and the levels that
    # added rows; the unit row of Lin_0 only ever yields shorter words, so
    # Lin_k = Lin_{k-1} + sum over i+j=k of new[i]*new[j]
    new = {1: _new_rows(*spans)}
    last = 1 if new[1] else 0
    while spans[-1].dim < a.dim and len(spans) <= 2 * last:
        k = len(spans)
        acc = spans[-1]
        products = (
            a.multiply(x, y) for i, xs in new.items() for x in xs for y in new.get(k - i, ())
        )
        for v in products:
            acc = acc.insert(v)
            if acc.dim == a.dim:
                break
        if acc is not spans[-1]:
            new[k], last = _new_rows(spans[-1], acc), k
        spans.append(acc)
    return spans[: max(last, 1) + 1]


def _reference_dict(a, s, mode="general", spans=None):
    """lin_spans(a, s, mode).as_dict() read from the Subspace reference
    chain, _general_spans."""
    dims = [sp.dim for sp in (spans or _general_spans(a, s))]
    d = [dims[0]] + [y - x for x, y in zip(dims, dims[1:])]
    while len(d) > 1 and not d[-1]:
        d.pop()
    return {"d": d, "length": len(d) - 1, "generating": sum(d) == a.dim, "mode": mode,
            "dims": dims}


def _reference_search(a):
    """Every nonzero subspace through the Subspace reference chain: census,
    enumerated count, best length and the first maximal subspace's rows."""
    census, enumerated, best, witness = Counter(), 0, -1, None
    for k in range(1, a.dim + 1):
        for sub in enumerate_subspaces(a.field, a.dim, k):
            enumerated += 1
            ref = _reference_dict(a, sub.basis)
            if ref["generating"]:
                census[tuple(ref["d"])] += 1
                if ref["length"] > best:
                    best, witness = ref["length"], sub
    return dict(census), enumerated, best, witness.rows


def _permuted(a, perm):
    """The same algebra on the basis e_perm[0], e_perm[1], ... (no certificates)."""
    f = a.field

    def move(v):
        return tuple(v[perm[i]] for i in range(a.dim))

    table = [[move(a.table[perm[i]][perm[j]]) for j in range(a.dim)] for i in range(a.dim)]
    return AlgebraTable(f, a.dim, [a.labels[p] for p in perm], table, name=a.name)


def _uncertified(a):
    a.certificates.clear()
    return a


GF4 = field_make("F2^2:1,1,1")
GF9 = field_make("F3^2:1,0,1")
GF25 = field_make("F5^2:2,0,1")
F5 = field_make("F5")

UNITAL = {
    "K1-F2": lambda: make_hurwitz_tower(F2, F2.one(), ()),
    "quaternion-F2": lambda: make_hurwitz_tower(F2, F2.one(), (F2.one(),)),
    "quaternion-F2-general": lambda: _uncertified(make_hurwitz_tower(F2, F2.one(), (F2.one(),))),
    "quaternion-F3": lambda: make_hurwitz_tower(F3, None, (F3.one(), F3.one())),
    "quaternion-F5": lambda: make_hurwitz_tower(F5, None, (F5.one(), F5.one())),
    "quaternion-GF4": lambda: make_hurwitz_tower(GF4, GF4.one(), (GF4.one(),)),
    # the unit on the third coordinate: the hyperplane skips an inner column
    "quaternion-F3-unit-e3": lambda: _permuted(
        make_hurwitz_tower(F3, None, (F3.one(), F3.one())), (1, 2, 0, 3)
    ),
}


@pytest.mark.parametrize("name", sorted(UNITAL))
def test_unit_quotient_matches_every_subspace(name):
    a = UNITAL[name]()
    res = length_of_algebra(a, mode="exhaustive")
    census, enumerated, best, witness = _reference_search(a)
    assert res.stats["d_census"] == census
    assert res.stats["generating"] == sum(census.values())
    assert res.enumerated == enumerated == count_subspaces(a.field, a.dim, range(1, a.dim + 1))
    assert res.best_length == best
    assert res.witness.rows == witness
    assert res.stats["violations"] == []
    # one item per subspace of the hyperplane, the zero subspace included
    q = a.field.cardinality()
    assert res.stats["evaluated"] == count_subspaces(a.field, a.dim - 1, range(a.dim))
    assert res.stats["lane"] == ("gf2-bitmask" if q == 2 else "gfp-int")


def test_non_unital_search_evaluates_every_subspace():
    q = make_hurwitz_tower(F3, None, (F3.one(), F3.one()))
    for twist in ("II", "IV"):
        res = length_of_algebra(standard_twist(q, twist), mode="exhaustive")
        assert res.stats["evaluated"] == res.enumerated == 211
        assert res.stats["lane"] == "gfp-int"


def _unit_and_zero_products(f, n):
    """The table on e_0..e_{n-1} with unit e_{n-1} and every other product
    zero, and its unit."""
    e = [tuple(f.one() if i == j else f.zero() for i in range(n)) for j in range(n)]
    zero = (f.zero(),) * n
    u = n - 1
    table = [
        [e[j] if i == u else e[i] if j == u else zero for j in range(n)]
        for i in range(n)
    ]
    return AlgebraTable(f, n, [f"e{i}" for i in range(n)], table), e[u]


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 9))
def test_quotient_weights_cover_every_subspace(q):
    """Summed weights equal the number of nonzero subspaces. The stub forms
    yield one item per (columns, k), counting the k-dimensional subspaces on
    those columns, and the source multiplies the count by the weight."""
    f = field_make({4: "F2^2:1,1,1", 9: "F3^2:1,0,1"}.get(q, f"F{q}"))

    def stub(columns, k):
        yield None, gaussian_binomial(len(columns), k, q)

    for n in range(1, 9):
        a, unit = _unit_and_zero_products(f, n)
        assert a.unit_element() == unit
        covered = sum(w for _, w in _exhaustive_source(a, stub))
        assert covered == count_subspaces(f, n, range(1, n + 1))


def _assert_gf2_octonion_census(a):
    res = length_of_algebra(a, mode="exhaustive")
    assert (res.best_length, res.enumerated, res.stats["generating"]) == (3, 417198, 305516)
    assert res.stats["d_census"] == {
        (1, 3, 3, 1): 41472, (1, 4, 3): 169728, (1, 5, 2): 85932, (1, 6, 1): 8255, (1, 7): 129,
    }
    assert res.stats["lane"] == "gf2-bitmask"
    # the zero subspace and 55 orbits of the hyperplane's 29 211 nonzero ones
    assert (res.stats["automorphisms"], res.stats["evaluated"]) == (3, 56)
    assert res.as_dict()["witness"] == [
        ["1", "0", "0", "0", "0", "0", "0", "1"],
        ["0", "1", "0", "0", "0", "0", "0", "0"],
        ["0", "0", "1", "0", "0", "0", "0", "0"],
    ]


def test_gf2_octonion_census_is_pinned():
    # recorded when every one of the 417 198 subspaces was evaluated
    _assert_gf2_octonion_census(make_hurwitz_tower(F2, F2.one(), (F2.one(), F2.one())))


def test_certificate_free_gf2_octonion_census_is_pinned():
    # certificates no longer choose the lane: a table without them (a loaded
    # file, say) takes the same bitmask lane and gives the same census
    a = make_hurwitz_tower(F2, F2.one(), (F2.one(), F2.one()))
    a.certificates.clear()
    _assert_gf2_octonion_census(a)


# --- the GF(2) bitmask lane against lin_spans --------------------------------------


def _random_table(f, n, seed, density):
    """A seeded table over a finite field without certificates: each
    coordinate of each basis product is nonzero with probability density,
    and then a uniform nonzero scalar, drawn as its index (1 over F2, with
    no draw for it)."""
    rng = random.Random(seed)
    q = f.cardinality()

    def entry():
        if rng.random() >= density:
            return f.zero()
        return f.one() if q == 2 else rng.randrange(1, q)

    table = [[tuple(entry() for _ in range(n)) for _ in range(n)] for _ in range(n)]
    return AlgebraTable(f, n, [f"e{i}" for i in range(n)], table, name=f"random-{seed}")


# sparse-4 and sparse-5 have generating subspaces whose chain stalls at a level
# (Lin_k = Lin_{k-1}) and grows again later, so a first-plateau stop is wrong
SMALL_F2 = {
    "K0-F2": lambda: make_quadratic_etale(F2, F2.zero()),
    "K1-F2": lambda: make_quadratic_etale(F2, F2.one()),
    **{
        f"K{mu}-F2-{t}": (
            lambda mu=mu, t=t: standard_twist(make_quadratic_etale(F2, F2.from_int(mu)), t)
        )
        for mu in (0, 1)
        for t in ("II", "III", "IV")
    },
    "quaternion-F2": lambda: make_hurwitz_tower(F2, F2.one(), (F2.one(),)),
    **{
        f"quaternion-F2-{t}": (
            lambda t=t: standard_twist(make_hurwitz_tower(F2, F2.one(), (F2.one(),)), t)
        )
        for t in ("II", "III", "IV")
    },
    "squares-4": lambda: _squares_table(4)[0],
    "sparse-4": lambda: _random_table(F2, 4, 2, 0.1),
    "sparse-5": lambda: _random_table(F2, 5, 4, 0.1),
    **{f"dense-4-{seed}": (lambda seed=seed: _random_table(F2, 4, seed, 0.5)) for seed in range(3)},
}


def _general_d(a, basis):
    """d of the Subspace reference chain when basis generates, else None."""
    ref = _reference_dict(a, basis)
    return tuple(ref["d"]) if ref["generating"] else None


@pytest.mark.parametrize("cleared", (False, True), ids=("as-built", "certificates-cleared"))
@pytest.mark.parametrize("name", sorted(SMALL_F2))
def test_gf2_lane_matches_general_spans_on_every_subspace(name, cleared):
    a = SMALL_F2[name]()
    if cleared:
        a.certificates.clear()
    lane = _gf2_lane(a)
    inner_plateaus = 0
    for k in range(1, a.dim + 1):
        for rows in _forms(range(a.dim), k, 2, lane.encode):
            d = lane.evaluate(rows)
            assert d == _general_d(a, lane.as_subspace(rows).basis), (name, rows)
            inner_plateaus += d is not None and 0 in d[1:]
    if name.startswith("sparse"):
        assert inner_plateaus


# --- the GF(p) integer lane against lin_spans ---------------------------------------


def _zero_table(f, n):
    zero = (f.zero(),) * n
    return AlgebraTable(f, n, [f"e{i}" for i in range(n)], [[zero] * n for _ in range(n)])


# the sparse tables have generating subspaces whose chain stalls at a level
# and grows again later. Over GF(4) and GF(9) the lane runs on the
# restriction of scalars to GF(2) and GF(3); GF(9) stays at dimension 3
SMALL_FP = {
    **{
        f"quaternion-F{p}": (lambda f=f: make_hurwitz_tower(f, None, (f.one(), f.one())))
        for p, f in ((3, F3), (5, F5))
    },
    **{
        f"quaternion-F{p}-{t}": (
            lambda f=f, t=t: standard_twist(make_hurwitz_tower(f, None, (f.one(), f.one())), t)
        )
        for p, f in ((3, F3), (5, F5))
        for t in ("II", "III", "IV")
    },
    "quaternion-F3-unit-e3": UNITAL["quaternion-F3-unit-e3"],
    "zero-F3": lambda: _zero_table(F3, 3),
    "sparse-F3-3": lambda: _random_table(F3, 3, 4, 0.15),
    "sparse-F3-4": lambda: _random_table(F3, 4, 1, 0.1),
    "sparse-F5-3": lambda: _random_table(F5, 3, 4, 0.15),
    "sparse-F5-4": lambda: _random_table(F5, 4, 1, 0.1),
    "dense-F3-4": lambda: _random_table(F3, 4, 0, 0.5),
    "dense-F5-3": lambda: _random_table(F5, 3, 0, 0.5),
    "quaternion-GF4": UNITAL["quaternion-GF4"],
    **{
        f"quaternion-GF4-{t}": (lambda t=t: standard_twist(UNITAL["quaternion-GF4"](), t))
        for t in ("II", "IV")
    },
    "sparse-GF4-4": lambda: _random_table(GF4, 4, 0, 0.1),
    "dense-GF4-4": lambda: _random_table(GF4, 4, 0, 0.5),
    "sparse-GF9-3": lambda: _random_table(GF9, 3, 4, 0.15),
    "dense-GF9-3": lambda: _random_table(GF9, 3, 0, 0.5),
}


@pytest.mark.parametrize("cleared", (False, True), ids=("as-built", "certificates-cleared"))
@pytest.mark.parametrize("name", sorted(SMALL_FP))
def test_gfp_lane_matches_general_spans_on_every_subspace(name, cleared):
    a = SMALL_FP[name]()
    if cleared:
        a.certificates.clear()
    lane = _int_lane(a)
    inner_plateaus = 0
    for k in range(1, a.dim + 1):
        subs = list(_forms(range(a.dim), k, a.field.cardinality(), lane.encode))
        # the items are the forms of enumerate_subspaces, in its order
        assert [lane.as_subspace(rows).rows for rows in subs] == [
            sub.rows for sub in enumerate_subspaces(a.field, a.dim, k)
        ]
        for rows in subs:
            d = lane.evaluate(rows)
            assert d == _general_d(a, lane.as_subspace(rows).basis), (name, rows)
            inner_plateaus += d is not None and 0 in d[1:]
    if name.startswith("sparse"):
        assert inner_plateaus


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("twist", ("II", "IV"))
def test_prime_field_twists_match_the_reference_search(p, twist):
    f = field_make(f"F{p}")
    a = standard_twist(make_hurwitz_tower(f, None, (f.one(), f.one())), twist)
    res = length_of_algebra(a, mode="exhaustive")
    census, enumerated, best, witness = _reference_search(a)
    assert res.stats["d_census"] == census
    assert res.enumerated == enumerated
    assert res.best_length == best
    assert res.witness.rows == witness
    assert res.stats["lane"] == "gfp-int"
    # numpy is loaded and the census is over PRIME_ORBIT_FLOOR: one item per orbit
    assert (res.stats["automorphisms"], res.stats["evaluated"]) == (3, {5: 39, 7: 49}[p])


DIM8_F2 = {
    "octonion-F2": lambda: _tower(F2, "I"),
    "octonion-F2-II": lambda: standard_twist(_tower(F2, "I"), "II"),
    "octonion-F2-IV": lambda: standard_twist(_tower(F2, "I"), "IV"),
    "okubo-isotropic-F2": lambda: make_okubo_isotropic(F2, F2.one(), F2.one()),
    "okubo-idempotent-F2": lambda: make_okubo_idempotent(F2, F2.one(), F2.one()),
    "sparse-8": lambda: _random_table(F2, 8, 0, 0.1),
    "dense-8": lambda: _random_table(F2, 8, 0, 0.5),
}


@pytest.mark.parametrize("cleared", (False, True), ids=("as-built", "certificates-cleared"))
@pytest.mark.parametrize("name", sorted(DIM8_F2))
def test_gf2_lane_matches_general_spans_on_dim8_samples(name, cleared):
    a = DIM8_F2[name]()
    if cleared:
        a.certificates.clear()
    lane = _gf2_lane(a)
    rng = random.Random(name)
    for _ in range(300):
        rows = tuple(rng.randrange(1, 256) for _ in range(rng.randint(1, 4)))
        assert lane.evaluate(rows) == _general_d(a, lane.as_subspace(rows).basis), (name, rows)


# --- lin_spans against the Subspace chain ------------------------------------------


@functools.lru_cache(maxsize=None)
def _perfbench_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the module runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _spans_q_pairs(seed):
    """(algebra, set) pairs of perfbench's spans-Q workload for one seed."""
    inputs = _perfbench_workloads().SPANS_Q.setup(seed)
    return [(inputs["algebras"][name], vectors) for _, name, vectors in inputs["sets"]]


def _seeded_pairs(a, seed, count=20):
    """count seeded sets of 0-3 vectors over a's field, each paired with a:
    uniform residues over a finite field, small fractions over Q."""
    rng = random.Random(seed)
    q = a.field.cardinality()

    def scalar():
        if q:
            return rng.randrange(q)
        return rng.choice((0, 0, Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)))

    return [(a, [tuple(scalar() for _ in range(a.dim)) for _ in range(rng.randint(0, 3))])
            for _ in range(count)]


def _edge_pairs(a):
    """Fraction entries, zero vectors, repeated vectors and the empty set."""
    zero = (0,) * a.dim
    v = tuple(Fraction(i - 1, 2) for i in range(a.dim))
    w = tuple(Fraction(3, i + 1) if i % 2 else Fraction(-2) for i in range(a.dim))
    return [(a, s) for s in (
        [], [zero], [zero, zero], [v], [v, v], [v, tuple(2 * x for x in v)], [zero, v, w, v],
        [w, v], [a.basis_element(a.dim - 1), w], [a.unit_element() or w, v],
    )]


def _q_tower(*params):
    return make_hurwitz_tower(Q, None, tuple(Fraction(x) for x in params))


LIN_SPANS_CASES = {
    **{f"spans-Q-seed{seed}": functools.partial(_spans_q_pairs, seed) for seed in (1, 2, 3)},
    # structure constants 1/2 and 3/2 over Q: the table is scaled to integers
    "quaternion-Q-half-minus3": lambda: (
        _edge_pairs(_q_tower("1/2", -3)) + _seeded_pairs(_q_tower("1/2", -3), 0, 40)
    ),
    "octonion-Q-fractions": lambda: (
        _edge_pairs(_q_tower("1/2", -3, "2/3")) + _seeded_pairs(_q_tower("1/2", -3, "2/3"), 1)
    ),
    "octonion-Q-IV-fractions": lambda: _seeded_pairs(
        standard_twist(_q_tower("-1/3", 2, "5/4"), "IV"), 2
    ),
    **{f"{name}-seeded": (lambda name=name: _seeded_pairs(SMALL_FP[name](), name))
       for name in SMALL_FP},
    # lin_spans alone, without a census: GF(9) at dimension 4 and GF(25)
    "quaternion-GF9-seeded": lambda: _seeded_pairs(
        make_hurwitz_tower(GF9, None, (GF9.one(), GF9.one())), "quaternion-GF9"),
    "quaternion-GF25-II-seeded": lambda: _seeded_pairs(
        standard_twist(make_hurwitz_tower(GF25, None, (GF25.one(), GF25.one())), "II"), "GF25"),
    "dense-GF25-3-seeded": lambda: _seeded_pairs(_random_table(GF25, 3, 1, 0.5), "dense-GF25"),
    **{f"{name}-seeded": (lambda name=name: _seeded_pairs(SMALL_F2[name](), name))
       for name in SMALL_F2},
}


def _assert_stored_rows(sp):
    """sp's stored rows as Subspace.insert keeps them: pivots increasing, each
    row one at its pivot and 0 left of it, every entry a reduced scalar (an
    index below q over GF(q))."""
    q = sp.field.cardinality()
    assert list(sp.pivots) == sorted(set(sp.pivots)) and len(sp.basis) == len(sp.pivots)
    for row, piv in zip(sp.basis, sp.pivots):
        assert len(row) == sp.ambient and row[piv] == sp.field.one() and not any(row[:piv])
        for x in row:
            if q:
                assert type(x) is int and 0 <= x < q
            else:
                assert type(x) is int or x.denominator != 1


@pytest.mark.parametrize("case", sorted(LIN_SPANS_CASES))
def test_lin_spans_matches_the_subspace_chain(case):
    """lin_spans runs the integer lane over every field, over GF(p^k) on the
    restriction of scalars: its whole report (d, length, generating, the
    spans and as_dict) equals the one read from the Subspace chain, in both
    modes."""
    for a, s in LIN_SPANS_CASES[case]():
        spans = _general_spans(a, s)
        for mode in ("general", "descending"):
            if mode == "descending" and not has_descending_certificate(a):
                with pytest.raises(ModeUnjustified):
                    lin_spans(a, s, mode)
                continue
            ref = _reference_dict(a, s, mode, spans)
            rep = lin_spans(a, s, mode)
            assert rep.as_dict() == ref, (case, s)
            assert (list(rep.d), rep.length, rep.generating) == (
                ref["d"], ref["length"], ref["generating"])
            assert list(rep.spans) == spans, (case, s)
            for sp in rep.spans:
                _assert_stored_rows(sp)


@pytest.mark.parametrize("field", (Q, F2, F3, GF4, GF9, GF25), ids=str)
def test_lin_spans_checks_vector_lengths(field):
    # the integer lane keeps the length check that Subspace.span makes
    mu = field.one() if field.characteristic() == 2 else None
    a = make_hurwitz_tower(field, mu, (field.one(),) * (1 if mu else 2))
    with pytest.raises(DimensionMismatch, match="vector length 3 in ambient 4"):
        lin_spans(a, [a.basis_element(1), (0, 1, 0)])
    with pytest.raises(DimensionMismatch, match="vector length 5 in ambient 4"):
        lin_spans(a, [(0,) * 5], mode="descending")


# --- the orbit census over GF(2) ---------------------------------------------------


def _search(lane, source):
    """The search loop over one source: (census, generating, enumerated, best
    length, witness rows) and the number of items."""
    census, enumerated, items, best, witness = Counter(), 0, 0, -1, None
    for rows, weight in source:
        items += 1
        enumerated += weight
        d = lane.evaluate(rows)
        if d is not None:
            census[d] += weight
            if len(d) - 1 > best:
                best, witness = len(d) - 1, rows
    return (dict(census), sum(census.values()), enumerated, best, witness), items


NON_UNITAL_F2 = sorted(name for name, make in SMALL_F2.items() if not make().is_unital())


def _plain_source(a, lane):
    return _exhaustive_source(a, functools.partial(_plain_forms, q=2, encode=lane.encode))


def _orbit_source(a, autos):
    images = orbits.image_table(a.dim, 2, autos)
    forms = functools.partial(orbits.orbit_forms, n=a.dim, p=2, images=images)
    return _exhaustive_source(a, forms)


@pytest.mark.parametrize("name", NON_UNITAL_F2)
def test_orbit_source_matches_the_plain_source(name):
    a = SMALL_F2[name]()
    lane = _gf2_lane(a)
    plain, items = _search(lane, _plain_source(a, lane))
    assert items == count_subspaces(F2, a.dim, range(1, a.dim + 1))
    # the identity numbers every image as the subspace itself: one orbit each
    identity = [1 << i for i in range(a.dim)]
    assert _search(lane, _orbit_source(a, [identity])) == (plain, items)
    autos = automorphisms.find_automorphisms(lane.products, a.dim)
    assert _search(lane, _orbit_source(a, autos))[0] == plain


def _census_of(text):
    return {tuple(map(int, d.split())): int(c) for d, c in (x.split(":") for x in text.split(","))}


OKUBO_F2_CENSUS = _census_of(
    "0 2 3 2 1:2592,0 2 4 2:6624,0 3 3 2:1440,0 3 4 1:8208,0 3 5:85968,0 4 3 1:504,"
    "0 4 4:199992,0 5 3:97146,0 6 2:10795,0 7 1:255,0 8:1"
)
OCTONION_F2_TWIST_WITNESS = [
    ["1", "0", "0", "0", "0", "0", "0", "1"],
    ["0", "1", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "1", "0", "0", "0", "0", "0"],
]
# recorded from the lane that evaluates every subspace: (l, generating,
# census, witness, orbits evaluated)
DIM8_ORBIT_PINS = {
    "okubo-isotropic-F2": (4, 413525, OKUBO_F2_CENSUS, [
        ["1", "0", "0", "0", "0", "0", "0", "0"],
        ["0", "1", "0", "0", "0", "0", "0", "1"],
    ], 2158),
    "okubo-idempotent-F2": (4, 413525, OKUBO_F2_CENSUS, [
        ["1", "0", "0", "0", "0", "0", "0", "0"],
        ["0", "1", "0", "0", "0", "1", "0", "1"],
    ], 2158),
    "octonion-F2-II": (3, 305516, _census_of(
        "0 3 3 2:576,0 3 4 1:36288,0 4 3 1:4752,0 4 4:159600,0 5 3:93312,0 6 2:10732,"
        "0 7 1:255,0 8:1"
    ), OCTONION_F2_TWIST_WITNESS, 328),
    "octonion-F2-IV": (3, 305516, _census_of(
        "0 3 3 2:576,0 3 4 1:36288,0 4 3 1:4608,0 4 4:159744,0 5 3:93312,0 6 2:10732,"
        "0 7 1:255,0 8:1"
    ), OCTONION_F2_TWIST_WITNESS, 235),
}


@pytest.mark.parametrize("name", sorted(DIM8_ORBIT_PINS))
def test_dim8_orbit_census_is_pinned(name):
    best, generating, census, witness, orbits = DIM8_ORBIT_PINS[name]
    res = length_of_algebra(DIM8_F2[name](), mode="exhaustive")
    assert (res.best_length, res.enumerated, res.stats["generating"]) == (best, 417198, generating)
    assert res.stats["d_census"] == census
    assert res.as_dict()["witness"] == witness
    assert res.stats["violations"] == []
    assert res.stats["lane"] == "gf2-bitmask"
    assert (res.stats["automorphisms"], res.stats["evaluated"]) == (3, orbits)


def test_okubo_census_memory_is_bounded():
    # the tracemalloc peak of this census reads 4.40 MB at CHUNK 8192; the
    # bound is twice that, so a larger CHUNK cannot trade memory for speed
    # unnoticed
    a = DIM8_F2["okubo-isotropic-F2"]()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert length_of_algebra(a, mode="exhaustive").best_length == 4
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8.8e6


def test_dropping_an_automorphism_leaves_the_census():
    a = DIM8_F2["okubo-isotropic-F2"]()
    lane = _gf2_lane(a)
    autos = automorphisms.find_automorphisms(lane.products, a.dim)
    full, items = _search(lane, _orbit_source(a, autos))
    assert items == 2158
    for drop in range(len(autos)):
        fewer = autos[:drop] + autos[drop + 1:]
        assert _search(lane, _orbit_source(a, fewer))[0] == full


def _sheared(a):
    """a on the basis b_0 = e_1, b_1 = e_0 + e_1, b_i = e_i for i > 1, over
    F2 and without certificates: e_0 = b_0 + b_1, so a unit e_0 has two
    nonzero coordinates."""
    f, n = a.field, a.dim
    e = [tuple(f.one() if i == j else f.zero() for j in range(n)) for i in range(n)]
    basis = [e[1], tuple(map(f.add, e[0], e[1]))] + e[2:]

    def coords(v):
        return (f.add(v[0], v[1]), v[0]) + tuple(v[2:])

    table = [[coords(a.multiply(x, y)) for y in basis] for x in basis]
    return AlgebraTable(f, n, [f"b{i}" for i in range(n)], table)


def _quaternion_f2():
    return make_hurwitz_tower(F2, F2.one(), (F2.one(),))


# unital F2 tables: (table, unit, (automorphisms, orbits evaluated)); the
# unit away from coordinate 0 or on two coordinates makes the reduction of
# each map modulo e touch more than the first column
UNITAL_F2 = {
    "K1-F2": (lambda: make_hurwitz_tower(F2, F2.one(), ()), (1, 0), (1, 2)),
    "quaternion-F2": (_quaternion_f2, (1, 0, 0, 0), (3, 8)),
    "quaternion-F2-general": (lambda: _uncertified(_quaternion_f2()), (1, 0, 0, 0), (3, 8)),
    "quaternion-F2-unit-e3": (
        lambda: _permuted(_quaternion_f2(), (1, 2, 0, 3)), (0, 0, 1, 0), (3, 8)
    ),
    "quaternion-F2-sheared": (lambda: _sheared(_quaternion_f2()), (1, 1, 0, 0), (3, 8)),
    "octonion-F2-unit-e6": (
        lambda: _permuted(_tower(F2, "I"), (1, 2, 3, 4, 5, 0, 6, 7)), (0, 0, 0, 0, 0, 1, 0, 0),
        (3, 52),
    ),
}


@pytest.mark.parametrize("name", sorted(UNITAL_F2))
def test_unital_orbit_census_matches_the_plain_quotient(monkeypatch, name):
    import complen.length as length

    make, unit, (maps, orbits) = UNITAL_F2[name]
    a = make()
    assert a.unit_element() == unit
    lane = _gf2_lane(a)
    plain, items = _search(lane, _plain_source(a, lane))
    assert items == count_subspaces(F2, a.dim - 1, range(a.dim))
    # the identity, reduced modulo e or not, fixes every subspace of the
    # hyperplane: one orbit per item
    identity = [1 << i for i in range(a.dim)]
    assert _search(lane, _orbit_source(a, [identity])) == (plain, items)

    def answer(res):
        return (
            res.best_length, res.enumerated, res.stats["generating"], res.stats["d_census"],
            res.as_dict()["witness"], res.stats["violations"], res.stats["lane"],
        )

    monkeypatch.setattr(length, "ORBIT_FLOOR", items + 1)
    ref = length_of_algebra(a, mode="exhaustive")
    assert "automorphisms" not in ref.stats and ref.stats["evaluated"] == items
    monkeypatch.setattr(length, "ORBIT_FLOOR", 0)
    res = length_of_algebra(a, mode="exhaustive")
    assert answer(res) == answer(ref)
    assert (res.stats["automorphisms"], res.stats["evaluated"]) == (maps, orbits)


def test_orbit_floor_counts_the_items_of_the_plain_source():
    # 29 211 nonzero subspaces, over the floor, but only 2 825 subspaces of the
    # hyperplane for the plain forms to evaluate: no automorphism search
    a, _ = _unit_and_zero_products(F2, 7)
    assert count_subspaces(F2, 7, range(1, 8)) == 29211 >= ORBIT_FLOOR
    res = length_of_algebra(a, mode="exhaustive")
    assert "automorphisms" not in res.stats
    assert res.stats["evaluated"] == count_subspaces(F2, 6, range(7)) == 2825 < ORBIT_FLOOR
    assert res.enumerated == 29211


def _zero_extended(a):
    """a plus one basis vector whose products with everything are zero."""
    f, n = a.field, a.dim + 1
    zero = (f.zero(),) * n
    table = [
        [tuple(a.table[i][j]) + (f.zero(),) if i < a.dim and j < a.dim else zero for j in range(n)]
        for i in range(n)
    ]
    return AlgebraTable(f, n, list(a.labels) + ["z"], table)


def test_orbit_blocks_may_straddle_patterns(monkeypatch):
    a = _zero_extended(SMALL_F2["quaternion-F2-II"]())
    assert a.dim == 5 and not a.is_unital()
    lane = _gf2_lane(a)
    autos = automorphisms.find_automorphisms(lane.products, a.dim)
    assert len(autos) == 3
    assert orbits.CHUNK == 8192
    wide = list(_orbit_source(a, autos))
    # blocks of 7 numbers start inside the patterns and run across their ends
    monkeypatch.setattr(orbits, "CHUNK", 7)
    offsets = orbits._patterns(range(5), 2, 2, 5)[0]
    assert len(offsets) > 2 and any(o % 7 for o in offsets)
    narrow = list(_orbit_source(a, autos))
    assert narrow == wide
    assert len(wide) == 99
    assert _search(lane, iter(narrow))[0] == _search(lane, _plain_source(a, lane))[0]


def _orbit_oracle(n, k, autos):
    """(rows, orbit size) of the first subspace of each orbit of the maps
    among the k-dimensional subspaces of GF(2)^n, in enumeration order: each
    subspace's vectors closed under the maps with Python sets."""
    forms = list(_forms(range(n), k, 2, _mask_row))

    def vectors(rows):
        span = {0}
        for r in rows:
            span |= {v ^ r for v in span}
        return frozenset(span)

    def image(phi, v):
        return functools.reduce(lambda x, i: x ^ phi[i], (i for i in range(n) if v >> i & 1), 0)

    number = {vectors(rows): s for s, rows in enumerate(forms)}
    seen, out = set(), []
    for s, rows in enumerate(forms):
        if s in seen:
            continue
        orbit, todo = {s}, [s]
        while todo:
            span = vectors(forms[todo.pop()])
            for phi in autos:
                t = number[frozenset(image(phi, v) for v in span)]
                if t not in orbit:
                    orbit.add(t)
                    todo.append(t)
        seen |= orbit
        out.append((rows, len(orbit)))
    return out


ORBIT_ORACLE_F2 = {
    **{name: SMALL_F2[name] for name in ("quaternion-F2-II", "quaternion-F2-III", "quaternion-F2-IV")},
    "quaternion-F2-II-zero-extended": lambda: _zero_extended(SMALL_F2["quaternion-F2-II"]()),
}


# the module's block size, a smaller one, one that starts blocks inside the
# patterns, and one smaller than the number of maps
@pytest.mark.parametrize("chunk", (orbits.CHUNK, 2048, 7, 1))
@pytest.mark.parametrize("name", sorted(ORBIT_ORACLE_F2))
def test_orbit_forms_match_a_set_closure(monkeypatch, name, chunk):
    a = ORBIT_ORACLE_F2[name]()
    autos = automorphisms.find_automorphisms(_gf2_lane(a).products, a.dim)
    assert len(autos) == 3
    monkeypatch.setattr(orbits, "CHUNK", chunk)
    for k in range(a.dim + 1):
        expected = _orbit_oracle(a.dim, k, autos)
        assert sum(size for _, size in expected) == gaussian_binomial(a.dim, k, 2)
        images = orbits.image_table(a.dim, 2, autos)
        assert list(orbits.orbit_forms(range(a.dim), k, a.dim, 2, images)) == expected


def _reduced_echelon(rows):
    """(pivot mask, rows) of the reduced echelon form of independent bitmask
    rows, in plain Python: the pivot of a row its lowest bit, pivots
    increasing."""
    rest, out, mask = list(rows), [], 0
    while rest:
        piv = min(r & -r for r in rest)
        top = rest.pop(next(i for i, r in enumerate(rest) if r & piv))
        rest = [r ^ top if r & piv else r for r in rest]
        out = [r ^ top if r & piv else r for r in out] + [top]
        mask |= piv
    return mask, out


@pytest.mark.parametrize("n", range(5, 10))
def test_echelon_of_map_blocks_matches_plain_elimination(n):
    # rows[r][m, b]: row r of set b's image under map m, as the orbit pass holds them
    rng = random.Random(n)
    maps, block = 3, 6
    for k in range(1, n + 1):
        sets = []
        for _ in range(maps * block):
            rows, span = [], {0}
            while len(rows) < k:
                v = rng.randrange(1, 1 << n)
                if v not in span:
                    rows.append(v)
                    span |= {v ^ s for s in span}
            sets.append(rows)
        arrays = [
            np.array([s[r] for s in sets], dtype=np.int16).reshape(maps, block) for r in range(k)
        ]
        mask = orbits._xor_echelon(arrays)
        assert mask.shape == (maps, block) and all(a.dtype == np.int16 for a in arrays)
        for i, rows in enumerate(sets):
            m, b = divmod(i, block)
            assert (int(mask[m, b]), [int(a[m, b]) for a in arrays]) == _reduced_echelon(rows)


def test_image_table_applies_each_map():
    rng = random.Random(0)
    n = 9
    autos = [[rng.randrange(1 << n) for _ in range(n)] for _ in range(3)]
    images = orbits.image_table(n, 2, autos)
    assert images.shape == (3, 1 << n) and images.dtype == np.int16
    for m, phi in enumerate(autos):
        apply = automorphisms._Bits(None, n).apply
        assert images[m].tolist() == [apply(phi, x) for x in range(1 << n)]


def _generators_by_max(prod, n):
    """automorphisms._generators as a plain max over every basis vector, each
    candidate's subalgebra closed from its generators alone."""

    def closure_dim(gens):
        red, queue = {}, list(gens)
        while queue:
            v = queue.pop()
            while v and v.bit_length() in red:
                v ^= red[v.bit_length()]
            if v:
                red[v.bit_length()] = v
                queue += [prod[v][b] for b in red.values()] + [prod[b][v] for b in red.values()]
        return len(red)

    gens, dim = [], 0
    while dim < n:
        dim, first = max((closure_dim(gens + [1 << i]), -(1 << i)) for i in range(n))
        gens.append(-first)
    return gens


EVERY_F2 = {
    **{f"small-{name}": make for name, make in SMALL_F2.items()},
    **{f"dim8-{name}": make for name, make in DIM8_F2.items()},
    **{f"unital-{name}": make for name, (make, _, _) in UNITAL_F2.items()},
}


@pytest.mark.parametrize("name", sorted(EVERY_F2))
def test_generators_match_the_brute_force_max(name):
    a = EVERY_F2[name]()
    prod = _gf2_lane(a).products
    gens = automorphisms._generators(automorphisms._Bits(prod, a.dim))
    assert gens == _generators_by_max(prod, a.dim)


def test_generators_are_pinned_on_the_octonions_and_okubo():
    for name, gens in (("octonion-F2", [2, 4, 16]), ("okubo-isotropic-F2", [1, 4])):
        a = DIM8_F2[name]()
        assert automorphisms._generators(automorphisms._Bits(_gf2_lane(a).products, a.dim)) == gens


@pytest.mark.parametrize("name", ("quaternion-F2-II", "quaternion-F2-III", "quaternion-F2-IV"))
def test_automorphism_proof_rejects_perturbed_products_and_singular_maps(name):
    a = SMALL_F2[name]()
    n, prod = a.dim, _gf2_lane(a).products
    autos = automorphisms.find_automorphisms(prod, n)
    assert len(autos) == 3
    assert all(automorphisms.is_automorphism(prod, n, phi) for phi in autos)
    for phi in autos:
        # phi moves coordinate i: (phi x)_i != x_i for a basis vector x. Then
        # phi preserves no table that differs from a's in e_i e_j alone, since
        # it would map that difference d to x_i y_j phi(d) = (phi x)_i (phi y)_j d
        i = next(i for i in range(n) if any((phi[m] >> i & 1) != (m == i) for m in range(n)))
        for j in range(n):
            table = [list(row) for row in a.table]
            table[i][j] = (F2.add(table[i][j][0], F2.one()),) + table[i][j][1:]
            b = AlgebraTable(F2, n, a.labels, table)
            assert not automorphisms.is_automorphism(_gf2_lane(b).products, n, phi)
    # the zero map respects every product; only the rank test rejects it
    assert not automorphisms.is_automorphism(prod, n, [0] * n)
    assert not automorphisms.is_automorphism(prod, n, [autos[0][0]] * n)


def test_tables_without_automorphisms_take_the_plain_source(monkeypatch):
    import complen.length as length

    for a in (DIM8_F2["sparse-8"](), DIM8_F2["dense-8"](), SMALL_F2["sparse-5"]()):
        assert automorphisms.find_automorphisms(_gf2_lane(a).products, a.dim) == []
    # sparse-5 is below the floor; without it the search runs and finds nothing
    monkeypatch.setattr(length, "ORBIT_FLOOR", 0)
    res = length_of_algebra(SMALL_F2["sparse-5"](), mode="exhaustive")
    assert res.stats["automorphisms"] == 0
    assert res.stats["evaluated"] == res.enumerated == 373


def test_small_censuses_skip_the_automorphism_search():
    # below ORBIT_FLOOR subspaces the plain lane costs less than loading numpy
    a = SMALL_F2["sparse-5"]()
    assert count_subspaces(F2, 5, range(1, 6)) < ORBIT_FLOOR
    res = length_of_algebra(a, mode="exhaustive")
    assert "automorphisms" not in res.stats
    assert res.stats["evaluated"] == res.enumerated == 373


@pytest.mark.parametrize("orbits", (False, True), ids=("plain", "orbits"))
def test_weights_that_miss_a_subspace_break_the_invariant(monkeypatch, orbits):
    import complen.length as length

    a = SMALL_F2["quaternion-F2-II"]()
    if orbits:
        # a census this small takes the plain source unless the floor drops
        monkeypatch.setattr(length, "ORBIT_FLOOR", 0)
    # the plain and the orbit forms both feed the one exhaustive source
    source = length._exhaustive_source
    res = length_of_algebra(a, mode="exhaustive")
    assert res.stats["evaluated"] == (21 if orbits else 66)

    def short(*args):
        return itertools.islice(source(*args), res.stats["evaluated"] - 1)

    monkeypatch.setattr(length, "_exhaustive_source", short)
    with pytest.raises(InvariantViolation):
        length_of_algebra(a, mode="exhaustive")


# --- one search and one pass for every prime field -----------------------------------


def test_the_search_leaves_nothing_for_the_cyclic_collector():
    # the search holds no reference cycle, so the product table it reads dies
    # with the census instead of waiting for the cyclic collector
    prod = _gf2_lane(DIM8_F2["octonion-F2"]()).products
    gc.collect()
    gc.disable()
    try:
        assert len(automorphisms.find_automorphisms(prod, 8)) == 3
        assert gc.collect() == 0
    finally:
        gc.enable()


# sha256 of the JSON of {table: maps} that the GF(2)-only search found on every
# table of EVERY_F2 before the search took every prime field: the same maps in
# the same order
GF2_MAPS_SHA256 = "37de167f470ea219e898385d8e73982b7ddf83ed192510393d8751c0e35ebf67"


def test_gf2_search_returns_the_recorded_maps():
    maps = {
        name: automorphisms.find_automorphisms(_gf2_lane(make()).products, make().dim)
        for name, make in sorted(EVERY_F2.items())
    }
    assert len(maps) == 31 and sum(map(len, maps.values())) == 54
    digest = hashlib.sha256(json.dumps(maps, sort_keys=True).encode()).hexdigest()
    assert digest == GF2_MAPS_SHA256


def _base_p(p):
    """_row_fills's encode for base-p integer rows, digit c coordinate c."""
    return lambda pivot, cells: p**pivot + sum(v * p**c for c, v in cells)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("columns", ((0, 1, 2, 3), (0, 2, 3), (1, 2, 4, 5)))
def test_pattern_fills_match_the_row_fills(p, columns):
    n = max(columns) + 1
    for k in range(1, len(columns) + 1):
        offsets, masks, rows = orbits._patterns(columns, k, p, n)
        expected = list(_row_fills(columns, k, p, _base_p(p)))
        assert len(masks) == len(expected) == len(offsets) - 1
        for j, (pivots, fills) in enumerate(expected):
            assert masks[j] == sum(1 << c for c in pivots)
            for r, (cat, base, stride, width) in enumerate(rows):
                assert cat[base[j]:base[j] + width[j]].tolist() == fills[r]
        # the numbers run through the forms in enumeration order
        read = orbits._rows_at(np.arange(offsets[-1]), offsets, rows, p)
        assert list(zip(*(r.tolist() for r in read))) == list(_forms(columns, k, p, _base_p(p)))


# best length, census and witness of random mode on the dim-8 isotropic Okubo
# table over F3 (budget 400), recorded when each draw listed the echelon
# patterns of its dimension again
RANDOM_OKUBO_F3 = {
    0: ("0 2 3 2 1:5,0 2 4 2:38,0 3 5:48,0 4 4:40,0 5 3:43,0 6 2:47,0 7 1:53,0 8:63",
        ["1 0 0 0 2 0 0 1", "0 1 0 0 1 2 2 1"]),
    1: ("0 2 3 2 1:3,0 2 4 2:27,0 3 5:53,0 4 4:44,0 5 3:54,0 6 2:43,0 7 1:46,0 8:56",
        ["1 0 2 2 2 1 0 1", "0 1 1 0 0 1 2 2"]),
    2: ("0 2 3 2 1:6,0 2 4 2:38,0 3 5:47,0 4 4:49,0 5 3:44,0 6 2:63,0 7 1:42,0 8:52",
        ["0 1 0 2 2 0 0 1", "0 0 1 1 0 2 2 2"]),
    3: ("0 2 3 2 1:6,0 2 4 2:32,0 3 4 1:1,0 3 5:44,0 4 4:52,0 5 3:51,0 6 2:62,0 7 1:43,"
        "0 8:54", ["1 1 0 0 0 1 0 0", "0 0 1 0 2 1 2 1"]),
    4: ("0 2 3 2 1:6,0 2 4 2:26,0 3 4 1:1,0 3 5:46,0 4 4:47,0 5 3:55,0 6 2:65,0 7 1:45,"
        "0 8:52", ["0 0 1 0 0 1 2 0", "0 0 0 0 0 0 0 1"]),
}


def test_random_mode_draws_are_pinned():
    a = make_okubo_isotropic(F3, F3.one(), F3.one())
    for seed, (census, witness) in RANDOM_OKUBO_F3.items():
        res = length_of_algebra(a, mode="random", seed=seed, budget=400)
        assert res.best_length == 4
        assert res.stats["d_census"] == _census_of(census)
        assert res.as_dict()["witness"] == [row.split() for row in witness]
        assert res.enumerated == res.stats["evaluated"] == 400


# best length, census and witness of random mode on twist II of the GF(9)
# quaternions (budget 400) and on the isotropic Okubo table over Q (budget
# 200), recorded when random mode evaluated through lin_spans
RANDOM_PINS = {
    ("twist-II-GF9", 0): (2, "0 2 2:86,0 3 1:91,0 4:101",
                          ["1,0 0,0 1,2 0,0", "0,0 1,0 1,0 0,0", "0,0 0,0 0,0 1,0"]),
    ("twist-II-GF9", 1): (2, "0 2 2:94,0 3 1:94,0 4:103", ["1,0 0,0 0,1 1,1", "0,0 1,0 0,1 2,1"]),
    ("twist-II-GF9", 2): (2, "0 2 2:102,0 3 1:92,0 4:96",
                          ["1,0 0,0 0,0 0,0", "0,0 1,0 0,0 0,2", "0,0 0,0 1,0 2,0"]),
    ("okubo-isotropic-Q", 0): (
        4, "0 2 3 2 1:2,0 2 4 2:20,0 3 5:26,0 4 4:20,0 5 3:27,0 6 2:23,0 7 1:31,0 8:25",
        ["0 0 0 0 0 1 0 0", "0 0 0 0 0 0 0 1"]),
    ("okubo-isotropic-Q", 1): (
        4, "0 2 3 2 1:2,0 2 4 2:20,0 3 3 2:1,0 3 5:26,0 4 4:25,0 5 3:25,0 6 2:23,0 7 1:26,"
        "0 8:28", ["0 0 0 0 0 1 3 0", "0 0 0 0 0 0 0 1"]),
    ("okubo-isotropic-Q", 2): (
        4, "0 2 3 2 1:1,0 2 4 2:23,0 3 5:26,0 4 4:27,0 5 3:18,0 6 2:27,0 7 1:27,0 8:26",
        ["0 0 0 0 1 1 0 0", "0 0 0 0 0 0 0 1"]),
}
RANDOM_TABLES = {
    "twist-II-GF9": (
        lambda: standard_twist(make_hurwitz_tower(GF9, None, (GF9.one(), GF9.one())), "II"),
        400, "gfp-int",
    ),
    "okubo-isotropic-Q": (lambda: make_okubo_isotropic(Q, Q.one(), Q.one()), 200, "q-int"),
}


@pytest.mark.parametrize("name", sorted(RANDOM_TABLES))
def test_random_mode_on_the_integer_lane_is_pinned(name):
    make, budget, lane = RANDOM_TABLES[name]
    a = make()
    for seed in range(3):
        best, census, witness = RANDOM_PINS[name, seed]
        res = length_of_algebra(a, mode="random", seed=seed, budget=budget)
        assert res.best_length == best
        assert res.stats["d_census"] == _census_of(census)
        assert res.as_dict()["witness"] == [row.split() for row in witness]
        assert res.enumerated == res.stats["evaluated"] == budget
        assert res.stats["lane"] == lane


def test_random_mode_never_builds_the_gf2_product_table(monkeypatch):
    import complen.length as length

    def refuse(a):
        raise AssertionError("random mode built the 2^n x 2^n GF(2) product table")

    monkeypatch.setattr(length, "_gf2_lane", refuse)
    a = DIM8_F2["okubo-isotropic-F2"]()
    res = length_of_algebra(a, mode="random", seed=0, budget=200)
    assert res.stats["lane"] == "gfp-int" and res.stats["evaluated"] == 200
    # never above the exhaustive value, and the witness's d is the reference's
    assert res.best_length <= DIM8_ORBIT_PINS["okubo-isotropic-F2"][0]
    assert len(_general_d(a, res.witness.basis)) - 1 == res.best_length


def test_extension_field_census_takes_no_orbit_forms():
    # 528 plain items over GF(4), above PRIME_ORBIT_FLOOR with numpy loaded: a
    # map found on the restriction of scalars to GF(2) need not be GF(4)-linear
    import complen.length as length

    a = standard_twist(make_hurwitz_tower(GF4, GF4.one(), (GF4.one(),)), "II")
    assert "numpy" in sys.modules and not a.is_unital()
    assert count_subspaces(GF4, 4, range(1, 5)) == 528 >= length.PRIME_ORBIT_FLOOR
    res = length_of_algebra(a, mode="exhaustive")
    assert "automorphisms" not in res.stats
    assert res.stats["evaluated"] == res.enumerated == 528
    assert res.stats["lane"] == "gfp-int"
    census, enumerated, best, witness = _reference_search(a)
    assert res.stats["d_census"] == census
    assert res.best_length == best and res.witness.rows == witness


def test_restricted_lane_checks_that_k_divides_every_d():
    # drop one structure constant of f_2 = e_1 over GF(4): the restricted
    # table is then no longer GF(4)-bilinear, and some chain over GF(2)
    # stops being one over GF(4)
    a = _uncertified(make_hurwitz_tower(GF4, GF4.one(), (GF4.one(),)))
    lane = _int_lane(a)
    del lane.products[2][3]
    message = r"d = \(2, 2, 1, 3\) over GF\(2\) is not 2 times"
    with pytest.raises(InvariantViolation, match=message):
        for k in range(1, a.dim + 1):
            for rows in _forms(range(a.dim), k, 4, lane.encode):
                lane.evaluate(rows)


def _quaternions(p):
    f = field_make(f"F{p}")
    return make_hurwitz_tower(f, None, (f.one(), f.one()))


# odd-prime tables: (table, (automorphisms, items the orbit forms evaluate))
ODD_PRIME = {
    **{
        f"twist-{t}-F{p}": (lambda p=p, t=t: standard_twist(_quaternions(p), t), (3, orbits_))
        for p, orbits_ in ((3, 29), (5, 39), (7, 49))
        for t in ("II", "IV")
    },
    # the unit quotient: the zero subspace and 7 orbits of the hyperplane's subspaces
    **{f"quaternion-F{p}": (lambda p=p: _quaternions(p), (3, 8)) for p in (3, 5, 7)},
    "dense-F3-4": (lambda: _random_table(F3, 4, 0, 0.5), (0, 211)),
}


def _square_zero(p, n=4):
    """e0 e0 = e1 and every other product 0 over F_p: no product has a term
    in e0 or in e2, ..., e_{n-1}."""
    f = field_make(f"F{p}")
    table = [[(f.zero(),) * n for _ in range(n)] for _ in range(n)]
    table[0][0] = tuple(f.one() if k == 1 else f.zero() for k in range(n))
    return AlgebraTable(f, n, [f"e{i}" for i in range(n)], table, name=f"square-zero-F{p}")


# odd-prime tables outside the ODD_PRIME pins, in the same form: tables whose
# products reach only some coordinates
SPARSE_PRIME = {"square-zero-F5": (lambda: _square_zero(5), (3, 11))}


@pytest.mark.parametrize("name", sorted(ODD_PRIME) + sorted(SPARSE_PRIME))
def test_odd_prime_orbit_census_matches_the_plain_forms(monkeypatch, name):
    import complen.length as length

    make, (maps, items) = {**ODD_PRIME, **SPARSE_PRIME}[name]

    def answer(res):
        return (
            res.best_length, res.enumerated, res.stats["generating"], res.stats["d_census"],
            res.as_dict()["witness"], res.stats["violations"], res.stats["lane"],
        )

    monkeypatch.setattr(length, "PRIME_ORBIT_FLOOR", 10**9)
    ref = length_of_algebra(make(), mode="exhaustive")
    assert "automorphisms" not in ref.stats
    monkeypatch.setattr(length, "PRIME_ORBIT_FLOOR", 0)
    res = length_of_algebra(make(), mode="exhaustive")
    assert answer(res) == answer(ref)
    assert res.stats["lane"] == "gfp-int"
    assert (res.stats["automorphisms"], res.stats["evaluated"]) == (maps, items)
    if not maps:
        assert res.stats["evaluated"] == ref.stats["evaluated"]


# (l, subspaces, generating, census) of perfbench's census-generic workload
CENSUS_GENERIC = {
    "quaternion-F3^2": (2, 9103, 7372, "1 2 1:6642,1 3:730"),
    "quaternion-F3": (2, 211, 118, "1 2 1:90,1 3:28"),
    "quaternion-F5": (2, 1119, 776, "1 2 1:650,1 3:126"),
    "quaternion-F7": (2, 3651, 2794, "1 2 1:2450,1 3:344"),
    **{
        f"twist-{t}-F{p}": (2, total, generating, census)
        for p, total, generating, census in (
            (3, 211, 118, "0 2 2:81,0 3 1:36,0 4:1"),
            (5, 1119, 776, "0 2 2:625,0 3 1:150,0 4:1"),
            (7, 3651, 2794, "0 2 2:2401,0 3 1:392,0 4:1"),
        )
        for t in ("II", "IV")
    },
}


def test_census_generic_rows_are_pinned():
    workloads = _perfbench_workloads()
    inputs = workloads.CENSUS_GENERIC.setup(1)
    assert sorted(inputs) == sorted(CENSUS_GENERIC)
    for name, a in inputs.items():
        best, total, generating, census = CENSUS_GENERIC[name]
        expected = (best, total, generating, 0, tuple(sorted(_census_of(census).items())))
        assert workloads.census_answer(a) == expected, name
        assert workloads.CENSUS_EXPECTED[name] == expected[:3] + expected[4:]


def _orbit_oracle_p(n, p, k, autos):
    """_orbit_oracle over GF(p): vectors base-p integers, each subspace's
    vectors closed under the maps with Python sets."""
    forms = list(_forms(range(n), k, p, _base_p(p)))

    def digits(v):
        return [v // p**i % p for i in range(n)]

    def combine(coefficients, vectors):
        out = [0] * n
        for c, v in zip(coefficients, vectors):
            out = [(x + c * y) % p for x, y in zip(out, digits(v))]
        return sum(x * p**i for i, x in enumerate(out))

    def vectors(rows):
        return frozenset(combine(cs, rows) for cs in itertools.product(range(p), repeat=len(rows)))

    number = {vectors(rows): s for s, rows in enumerate(forms)}
    seen, out = set(), []
    for s, rows in enumerate(forms):
        if s in seen:
            continue
        orbit, todo = {s}, [s]
        while todo:
            span = vectors(forms[todo.pop()])
            for phi in autos:
                t = number[frozenset(combine(digits(v), phi) for v in span)]
                if t not in orbit:
                    orbit.add(t)
                    todo.append(t)
        seen |= orbit
        out.append((rows, len(orbit)))
    return out


@pytest.mark.parametrize("chunk", (orbits.CHUNK, 7))
@pytest.mark.parametrize("name", ("twist-II-F3", "twist-IV-F3", "twist-II-F5"))
def test_odd_prime_orbit_forms_match_a_set_closure(monkeypatch, name, chunk):
    a = ODD_PRIME[name][0]()
    p = a.field.characteristic()
    autos = automorphisms.find_automorphisms(_int_lane(a).products, a.dim, p)
    assert len(autos) == 3
    monkeypatch.setattr(orbits, "CHUNK", chunk)
    images = orbits.image_table(a.dim, p, autos)
    for k in range(a.dim + 1):
        expected = _orbit_oracle_p(a.dim, p, k, autos)
        assert sum(size for _, size in expected) == gaussian_binomial(a.dim, k, p)
        assert list(orbits.orbit_forms(range(a.dim), k, a.dim, p, images)) == expected


def _maps_the_table(a, phi):
    """Whether the basis images phi (base-p integers) give an invertible map
    with phi(e_i e_j) = phi(e_i) phi(e_j), read with the table's own
    arithmetic."""
    f, n, p = a.field, a.dim, a.field.characteristic()
    images = [tuple(f.from_int(v // p**i) for i in range(n)) for v in phi]

    def apply(x):
        out = (f.zero(),) * n
        for c, image in zip(x, images):
            out = tuple(f.add(u, f.mul(c, w)) for u, w in zip(out, image))
        return out

    if Subspace.span(f, n, images).dim < n:
        return False
    basis = [a.basis_element(i) for i in range(n)]
    return all(
        apply(a.multiply(x, y)) == a.multiply(images[i], images[j])
        for i, x in enumerate(basis)
        for j, y in enumerate(basis)
    )


@pytest.mark.parametrize("name", ("twist-II-F3", "twist-IV-F5", "quaternion-F3"))
def test_odd_prime_automorphism_proof_rejects_corrupted_maps(name):
    a = ODD_PRIME[name][0]()
    n, p, consts = a.dim, a.field.characteristic(), _int_lane(a).products
    autos = automorphisms.find_automorphisms(consts, n, p)
    assert len(autos) == 3
    rejected = 0
    for phi in autos:
        assert automorphisms.is_automorphism(consts, n, phi, p) and _maps_the_table(a, phi)
        # phi with the digit c of basis image i moved by d
        for i, c, d in itertools.product(range(n), range(n), range(1, p)):
            bad = list(phi)
            digit = bad[i] // p**c % p
            bad[i] += ((digit + d) % p - digit) * p**c
            verdict = automorphisms.is_automorphism(consts, n, bad, p)
            assert verdict == _maps_the_table(a, bad)
            rejected += not verdict
    assert rejected == len(autos) * n * n * (p - 1)
    # singular maps respect no product that a unit or a twist's table needs
    assert not automorphisms.is_automorphism(consts, n, [0] * n, p)
    assert not automorphisms.is_automorphism(consts, n, [autos[0][0]] * n, p)


@pytest.mark.parametrize("name", sorted(SPARSE_PRIME))
def test_odd_prime_search_proves_its_maps_where_products_miss_coordinates(name):
    a = SPARSE_PRIME[name][0]()
    n, p, consts = a.dim, a.field.characteristic(), _int_lane(a).products
    autos = automorphisms.find_automorphisms(consts, n, p)
    assert len(autos) == SPARSE_PRIME[name][1][0]
    for phi in autos:
        assert automorphisms.is_automorphism(consts, n, phi, p) and _maps_the_table(a, phi)


def test_orbit_census_needs_few_enough_vectors(monkeypatch):
    import complen.length as length

    # twist II of the F5 quaternions has 5^4 = 625 vectors: at a cap below
    # that the census takes the plain forms without a search
    monkeypatch.setattr(length, "PRIME_ORBIT_FLOOR", 0)
    a = standard_twist(_quaternions(5), "II")
    assert length_of_algebra(a, mode="exhaustive").stats["evaluated"] == 39
    monkeypatch.setattr(length, "ORBIT_VECTORS", 624)
    res = length_of_algebra(a, mode="exhaustive")
    assert "automorphisms" not in res.stats and res.stats["evaluated"] == 1119


def _satisfying_by_hand(ar, relations, terms):
    """ar.satisfying, vector by vector through ar.mul and digit sums mod p."""
    p, n = ar.p, ar.n

    def value(kind, v, u):
        if kind == "const":
            return ar.digits(v)
        if kind == "linear":
            return [sum(c * w for c, w in zip(ar.digits(u), col)) % p
                    for col in zip(*map(ar.digits, v))]
        s = ar.mul(u, u)
        return ar.digits((u, s, ar.mul(u, s), ar.mul(s, u), ar.mul(s, s))[v])

    out = set()
    for number in range(p**n):
        u = ar.vector(number)
        values = [value(kind, v, u) for kind, v in terms]
        if all(
            not any(sum(c * val[k] for c, val in zip(rel, values)) % p for k in range(n))
            for rel in relations
        ):
            out.add(number)
    return out


@pytest.mark.parametrize("name", ("octonion-F2-zero-extended", "twist-IV-F3", "square-zero-F5"))
def test_candidate_filter_matches_a_vector_by_vector_reading(name):
    # n = 9 over F2 packs two bytes per vector; F3 and F5 read digits with
    # numpy, and no product of square-zero-F5 reaches e0, e2 or e3
    if name != "octonion-F2-zero-extended":
        a = {**ODD_PRIME, **SPARSE_PRIME}[name][0]()
        ar = automorphisms._Digits(_int_lane(a).products, a.dim, a.field.characteristic())
    else:
        a = _zero_extended(DIM8_F2["octonion-F2"]())
        ar = automorphisms._Bits(_gf2_lane(a).products, a.dim)
    gens = automorphisms._generators(ar)
    base = ar.satisfying(*automorphisms._filter(ar, {}, gens[0]))
    assert set(base) == _satisfying_by_hand(ar, *automorphisms._filter(ar, {}, gens[0]))
    # a graph that the first generator's images close, read on base alone
    for u in sorted(base):
        state = automorphisms._close(ar, ({}, {}), gens[0], ar.vector(u))
        if state is not None and len(gens) > 1:
            relations, terms = automorphisms._filter(ar, state[0], gens[1])
            assert relations
            assert set(ar.satisfying(relations, terms, base)) == _satisfying_by_hand(
                ar, relations, terms) & set(base)
            return
    pytest.fail("no image of the first generator closes")


# sha256 of the JSON of {table: maps} that the search finds on every table of
# ODD_PRIME, each frame shuffling only the images that pass its filter
ODD_PRIME_MAPS_SHA256 = "041f4013a071e238003dbc5e9c69d7f6453584221db0155a057ed1d7f3d64c5e"


def test_odd_prime_search_returns_the_recorded_maps():
    maps = {}
    for name, (make, (count, _)) in sorted(ODD_PRIME.items()):
        a = make()
        maps[name] = automorphisms.find_automorphisms(
            _int_lane(a).products, a.dim, a.field.characteristic())
        assert len(maps[name]) == count, name
    digest = hashlib.sha256(json.dumps(maps, sort_keys=True).encode()).hexdigest()
    assert digest == ODD_PRIME_MAPS_SHA256


@pytest.mark.parametrize("name", ("twist-II-F5", "twist-IV-F7", "quaternion-F7", "octonion-F2"))
def test_search_shuffles_only_what_the_filter_keeps_over_an_odd_prime(monkeypatch, name):
    # over an odd prime each frame shuffles the images that pass its filter;
    # over GF(2) every frame shuffles all 2^n - 1 nonzero vectors
    if name in DIM8_F2:
        a = DIM8_F2[name]()
        products, p = _gf2_lane(a).products, 2
        arithmetic = automorphisms._Bits
    else:
        a = ODD_PRIME[name][0]()
        products, p = _int_lane(a).products, a.field.characteristic()
        arithmetic = automorphisms._Digits
    survivors, frames = [], []  # each filter's result; (ok, shuffled list) per frame
    satisfying, candidates = arithmetic.satisfying, arithmetic.candidates
    shuffle = random.Random.shuffle

    def spy_satisfying(self, *args):
        survivors.append(satisfying(self, *args))
        return survivors[-1]

    def spy_candidates(self, ok, rng):
        assert any(ok is s for s in survivors)
        frames.append((ok, None))
        return candidates(self, ok, rng)

    def spy_shuffle(self, x):
        shuffle(self, x)
        assert frames[-1][1] is None  # one shuffle per frame
        frames[-1] = (frames[-1][0], list(x))

    monkeypatch.setattr(arithmetic, "satisfying", spy_satisfying)
    monkeypatch.setattr(arithmetic, "candidates", spy_candidates)
    monkeypatch.setattr(random.Random, "shuffle", spy_shuffle)
    assert len(automorphisms.find_automorphisms(products, a.dim, p)) == 3
    assert frames and all(order is not None for _, order in frames)
    for ok, order in frames:
        if p == 2:
            assert sorted(order) == list(range(1, 2**a.dim))
        else:
            assert sorted(order) == sorted(ok) and len(order) < p**a.dim - 1
