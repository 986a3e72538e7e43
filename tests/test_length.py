"""Span chains, difference sequences, and the length search."""

import functools
import hashlib
import importlib.util
import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

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
from complen import gf2autos, gf2orbits
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
    _general_spans,
    _gf2_lane,
    _int_lane,
    _mask_row,
    _plain_forms,
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
        '"generating": 7372, "lane": "span:general", "violations": []}, '
        '"witness": [["1,0", "0,0", "0,0", "0,1"], '
        '["0,0", "1,0", "0,0", "0,0"]]}'
    )


# --- the unit quotient -------------------------------------------------------------


def _reference_dict(a, s, mode="general", spans=None):
    """lin_spans(a, s, mode).as_dict() read from the Subspace reference
    chain, _general_spans, which lin_spans runs only over extension fields."""
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
    assert res.stats["lane"] == (
        "gf2-bitmask" if q == 2 else "gfp-int" if q == a.field.characteristic() else "span:general"
    )


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
    """A seeded table over a prime field without certificates: each coordinate
    of each basis product is nonzero with probability density, and then a
    uniform nonzero residue (1 over F2, with no draw for it)."""
    rng = random.Random(seed)
    q = f.cardinality()

    def entry():
        if rng.random() >= density:
            return f.zero()
        return f.one() if q == 2 else f.from_int(rng.randrange(1, q))

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


# sparse-F3-3, sparse-F3-4, sparse-F5-3 and sparse-F5-4 have generating
# subspaces whose chain stalls at a level and grows again later
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
            assert d == _general_d(a, rows), (name, rows)
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
    assert res.enumerated == res.stats["evaluated"] == enumerated
    assert res.best_length == best
    assert res.witness.rows == witness
    assert res.stats["lane"] == "gfp-int"


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
    **{f"{name}-seeded": (lambda name=name: _seeded_pairs(SMALL_F2[name](), name))
       for name in SMALL_F2},
}


def _assert_stored_rows(sp, p):
    """sp's stored rows as Subspace.insert keeps them: pivots increasing, each
    row 1 at its pivot and 0 left of it, every entry a reduced scalar."""
    assert list(sp.pivots) == sorted(set(sp.pivots)) and len(sp.basis) == len(sp.pivots)
    for row, piv in zip(sp.basis, sp.pivots):
        assert len(row) == sp.ambient and row[piv] == 1 and not any(row[:piv])
        for x in row:
            if p:
                assert type(x) is int and 0 <= x < p
            else:
                assert type(x) is int or x.denominator != 1


@pytest.mark.parametrize("case", sorted(LIN_SPANS_CASES))
def test_lin_spans_matches_the_subspace_chain(case):
    """Over Q and prime fields lin_spans runs the integer lane: its whole
    report (d, length, generating, the spans and as_dict) equals the one read
    from the Subspace chain, in both modes."""
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
                _assert_stored_rows(sp, a.field.characteristic())


@pytest.mark.parametrize("field", (Q, F2, F3, field_make("F3^2:1,0,1")), ids=str)
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
    return _exhaustive_source(a, functools.partial(gf2orbits.orbit_forms, n=a.dim, autos=autos))


@pytest.mark.parametrize("name", NON_UNITAL_F2)
def test_orbit_source_matches_the_plain_source(name):
    a = SMALL_F2[name]()
    lane = _gf2_lane(a)
    plain, items = _search(lane, _plain_source(a, lane))
    assert items == count_subspaces(F2, a.dim, range(1, a.dim + 1))
    # the identity numbers every image as the subspace itself: one orbit each
    identity = [1 << i for i in range(a.dim)]
    assert _search(lane, _orbit_source(a, [identity])) == (plain, items)
    autos = gf2autos.find_automorphisms(lane.products, a.dim)
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


def test_dropping_an_automorphism_leaves_the_census():
    a = DIM8_F2["okubo-isotropic-F2"]()
    lane = _gf2_lane(a)
    autos = gf2autos.find_automorphisms(lane.products, a.dim)
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
    autos = gf2autos.find_automorphisms(lane.products, a.dim)
    assert len(autos) == 3
    assert gf2orbits.CHUNK == 2048
    wide = list(_orbit_source(a, autos))
    # blocks of 7 numbers start inside the patterns and run across their ends
    monkeypatch.setattr(gf2orbits, "CHUNK", 7)
    offsets = gf2orbits._patterns(range(5), 2)[0]
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


@pytest.mark.parametrize("chunk", (2048, 7))
@pytest.mark.parametrize("name", sorted(ORBIT_ORACLE_F2))
def test_orbit_forms_match_a_set_closure(monkeypatch, name, chunk):
    a = ORBIT_ORACLE_F2[name]()
    autos = gf2autos.find_automorphisms(_gf2_lane(a).products, a.dim)
    assert len(autos) == 3
    monkeypatch.setattr(gf2orbits, "CHUNK", chunk)
    for k in range(a.dim + 1):
        expected = _orbit_oracle(a.dim, k, autos)
        assert sum(size for _, size in expected) == gaussian_binomial(a.dim, k, 2)
        assert list(gf2orbits.orbit_forms(range(a.dim), k, a.dim, autos)) == expected


@pytest.mark.parametrize("name", ("quaternion-F2-II", "quaternion-F2-III", "quaternion-F2-IV"))
def test_automorphism_proof_rejects_perturbed_products_and_singular_maps(name):
    a = SMALL_F2[name]()
    n, prod = a.dim, _gf2_lane(a).products
    autos = gf2autos.find_automorphisms(prod, n)
    assert len(autos) == 3
    assert all(gf2autos.is_automorphism(prod, n, phi) for phi in autos)
    for phi in autos:
        # phi moves coordinate i: (phi x)_i != x_i for a basis vector x. Then
        # phi preserves no table that differs from a's in e_i e_j alone, since
        # it would map that difference d to x_i y_j phi(d) = (phi x)_i (phi y)_j d
        i = next(i for i in range(n) if any((phi[m] >> i & 1) != (m == i) for m in range(n)))
        for j in range(n):
            table = [list(row) for row in a.table]
            table[i][j] = (F2.add(table[i][j][0], F2.one()),) + table[i][j][1:]
            b = AlgebraTable(F2, n, a.labels, table)
            assert not gf2autos.is_automorphism(_gf2_lane(b).products, n, phi)
    # the zero map respects every product; only the rank test rejects it
    assert not gf2autos.is_automorphism(prod, n, [0] * n)
    assert not gf2autos.is_automorphism(prod, n, [autos[0][0]] * n)


def test_tables_without_automorphisms_take_the_plain_source(monkeypatch):
    import complen.length as length

    for a in (DIM8_F2["sparse-8"](), DIM8_F2["dense-8"](), SMALL_F2["sparse-5"]()):
        assert gf2autos.find_automorphisms(_gf2_lane(a).products, a.dim) == []
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
