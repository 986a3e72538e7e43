"""Acceptance battery: the nine headline results, one test per criterion.

Heavy computations (the GF(2) census, the standard-length grid) run once in
module-scoped fixtures and are shared between the criteria that consume them.
Wall-clock tolerances are asserted where a criterion carries one.
"""

import time
from fractions import Fraction

import pytest

from complen.algebra import AlgebraTable, QuadraticForm
from complen.checkers import (
    check_composition,
    check_descending,
    check_polarized_identity,
    find_idempotents,
    recover_norm,
    validate_report,
)
from complen.constructors import (
    make_hurwitz_tower,
    make_okubo_idempotent,
    make_okubo_isotropic,
    make_pseudo_octonion,
    make_quadratic_etale,
    make_two_dim_form,
)
from complen.fields import field_make
from complen.length import length_of_algebra, lin_spans
from complen.linalg import Subspace
from complen.suite import all_cases, run_case, select_cases

F2 = field_make("F2")
F3 = field_make("F3")
F5 = field_make("F5")
F7 = field_make("F7")
Q = field_make("Q")


def _vec(a, coeffs):
    z = a.field.zero()
    v = [z] * a.dim
    for i, c in coeffs.items():
        v[i] = c
    return tuple(v)


def _case(case_id):
    return next(c for c in all_cases() if c.id == case_id)


# --- shared heavy fixtures -----------------------------------------------------


@pytest.fixture(scope="module")
def okubo_gf2_census():
    a = make_okubo_isotropic(F2, F2.one(), F2.one())
    t0 = time.perf_counter()
    res = length_of_algebra(a, mode="exhaustive")
    return a, res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def isotropic_witnesses():
    """The two-generator witness in both scalar regimes, with timing."""
    out = []
    for f, alpha, beta in ((F5, 2, 3), (Q, 1, 1)):
        al, be = f.from_int(alpha), f.from_int(beta)
        A = make_okubo_isotropic(f, al, be)
        t0 = time.perf_counter()
        a, b = A.basis_element(2), A.basis_element(0)  # x_{0,1}, x_{1,0}
        mul = A.multiply
        aa, bb, ab, ba = mul(a, a), mul(b, b), mul(a, b), mul(b, a)
        products = [
            (aa, {3: f.neg(be)}),
            (bb, {1: f.neg(al)}),
            (ab, {4: f.one()}),
            (ba, {}),
            (mul(a, ab), {7: be}),
            (mul(a, bb), {}),
            (mul(ba, a), {}),
            (mul(bb, a), {6: f.neg(al)}),
            (mul(aa, bb), {5: f.mul(al, be)}),
        ]
        rep = lin_spans(A, [a, b], mode="general")
        seconds = time.perf_counter() - t0
        out.append((A, products, rep, seconds))
    return out


@pytest.fixture(scope="module")
def idempotent_witness():
    A = make_okubo_idempotent(Q, Q.one(), Q.one())
    t0 = time.perf_counter()
    a = A.basis_element(1)
    b = A.add(A.basis_element(3), A.basis_element(7))
    rep = lin_spans(A, [a, b], mode="general")
    bbab = A.multiply(A.multiply(A.multiply(b, b), a), b)
    seconds = time.perf_counter() - t0
    return A, rep, bbab, seconds


@pytest.fixture(scope="module")
def standard_grid():
    return [run_case(c) for c in select_cases("standard-*")]


# --- criteria -------------------------------------------------------------------


def test_criterion_1_okubo_gf2_exhaustive_census(okubo_gf2_census):
    a, res, seconds = okubo_gf2_census
    assert res.exact and res.mode == "exhaustive"
    assert res.enumerated == 417198  # every nonzero subspace of F2^8
    assert res.best_length == 4
    assert res.witness is not None
    rep = lin_spans(a, list(res.witness.rows), mode="general")
    assert rep.generating and rep.length == 4
    assert seconds < 300.0


def test_criterion_2_isotropic_witness_products_and_sequence(isotropic_witnesses):
    for A, products, rep, seconds in isotropic_witnesses:
        for got, want in products:
            assert got == _vec(A, want)
        assert rep.d == (0, 2, 3, 2, 1)
        assert rep.length == 4 and rep.generating
        assert seconds < 1.0


def test_criterion_3_idempotent_witness_spans(idempotent_witness):
    A, rep, bbab, seconds = idempotent_witness
    assert rep.d == (0, 2, 3, 2, 1)
    lin3, lin4 = rep.spans[3], rep.spans[4]
    assert lin3.dim == 7
    for i in (0, 1, 2, 3, 4, 5, 7):
        assert lin3.contains(A.basis_element(i))
    assert not lin3.contains(A.basis_element(6))
    assert lin4.dim == 8
    # ((bb)a)b at beta = gamma = 1
    assert bbab == _vec(A, {2: Fraction(3), 3: Fraction(3), 6: Fraction(3), 7: Fraction(3)})
    assert seconds < 1.0
    # the same product with generic parameters keeps its coefficient pattern
    beta, gamma = Q.from_int(2), Q.from_int(5)
    B = make_okubo_idempotent(Q, beta, gamma)
    b2 = B.add(B.basis_element(3), B.basis_element(7))
    w = B.multiply(B.multiply(B.multiply(b2, b2), B.basis_element(1)), b2)
    c1 = Q.add(beta, Q.mul(Q.from_int(2), Q.mul(beta, gamma)))  # beta + 2 beta gamma
    c2 = Q.mul(Q.from_int(3), beta)
    c3 = Q.add(Q.mul(Q.from_int(2), beta), Q.mul(beta, gamma))
    assert w == _vec(B, {2: c1, 3: c1, 6: c2, 7: c3})


def test_criterion_4_standard_length_grid(standard_grid):
    assert len(standard_grid) == 33
    failures = [o for o in standard_grid if o.status != "PASS"]
    assert failures == []
    by_id = {o.id: o.measured for o in standard_grid}
    # unital towers: l = log2(dim)
    assert by_id["standard-F2-I-dim2"] == "l=1;violations=0"
    assert by_id["standard-F2-I-dim4"] == "l=2;violations=0"
    assert by_id["standard-F2-I-dim8"] == "l=3;violations=0"
    assert by_id["standard-F3-I-dim1"] == "l=0;violations=0"
    # twisted types II/IV: 2, 2, 3 over the dimensions 2, 4, 8
    assert by_id["standard-F3-II-dim2"] == "l=2;violations=0"
    assert by_id["standard-F2-II-dim4"] == "l=2;violations=0"
    assert by_id["standard-F2-II-dim8"] == "l=3;violations=0"
    assert by_id["standard-Q-IV-dim8-bound"] == "l=3;upper=3;exact=True"
    # the two-element-field exceptions for split etale starts
    assert by_id["standard-F2-K0-II"] == "l=1;violations=0"
    assert by_id["standard-F2-K0-III"] == "l=1;violations=0"
    assert by_id["standard-F2-K1-IV"] == "l=1;violations=0"
    assert by_id["standard-F2-K1-II"] == "l=2;violations=0"
    assert by_id["standard-F2-K0-IV"] == "l=2;violations=0"


def test_criterion_5_identity_certification_battery():
    unital = []
    for f in (F2, F3, F5, Q):
        for k in (1, 2, 3):  # dims 2, 4, 8
            if f.characteristic() == 2:
                unital.append(make_hurwitz_tower(f, f.one(), (f.one(),) * (k - 1)))
            else:
                unital.append(make_hurwitz_tower(f, None, (f.one(),) * k))
    symmetric = [
        make_okubo_isotropic(F2, F2.one(), F2.one()),
        make_okubo_isotropic(F3, F3.one(), F3.from_int(2)),
        make_okubo_isotropic(F5, F5.from_int(2), F5.from_int(3)),
        make_okubo_isotropic(Q, Q.one(), Q.one()),
        make_okubo_idempotent(F2, F2.one(), F2.one()),
        make_okubo_idempotent(F5, F5.one(), F5.one()),
        make_okubo_idempotent(Q, Q.one(), Q.one()),
        make_pseudo_octonion(F7),
    ]
    t0 = time.perf_counter()
    for a in unital:
        for name in ("quadratic", "regular-involution", "alternative", "two-product"):
            v = check_polarized_identity(a, name)
            assert v.holds, (a.name, name)
    for a in symmetric:
        for name in ("symmetric", "form-associativity"):
            v = check_polarized_identity(a, name)
            assert v.holds, (a.name, name)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_6_negative_certificates():
    t0 = time.perf_counter()
    # the isotropic table is not left-alternative: a(ab) leaves the span
    A = make_okubo_isotropic(F5, F5.from_int(2), F5.from_int(3))
    a, b = A.basis_element(0), A.basis_element(3)  # x_{1,0}, x_{0,-1}
    aab = A.multiply(a, A.multiply(a, b))
    assert aab == _vec(A, {5: F5.from_int(2)})  # alpha * x_{-1,-1}
    lin1 = Subspace.span(F5, 8, [a, b])
    assert not lin1.contains(aab)
    wide = Subspace.span(
        F5, 8, [a, b, A.multiply(a, a), A.multiply(a, b), A.multiply(b, a)]
    )
    assert not wide.contains(aab)
    v = check_descending(A, "alternative", candidates=[(a, b)])
    assert not v.holds and v.certificate == "candidate"

    # the dimension-16 doubling loses both descending properties
    for gammas, mag in (((1, 1, 1, 1), 2), ((2, 3, 5, 7), 84)):
        params = tuple(Q.from_int(g) for g in gammas)
        B = make_hurwitz_tower(Q, None, params)
        x = B.add(B.basis_element(1), B.basis_element(10))
        y = B.add(B.basis_element(3), B.basis_element(15))
        for kind in ("flexible", "alternative"):
            v = check_descending(B, kind, candidates=[(x, y)])
            assert not v.holds, (gammas, kind)
        p = B.multiply(B.multiply(x, y), x)
        assert p[4] in (Q.from_int(mag), Q.from_int(-mag))
        span = Subspace.span(
            Q, 16,
            [B.unit_element(), x, y, B.multiply(x, x), B.multiply(x, y), B.multiply(y, x)],
        )
        assert not span.contains(p)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_7_norm_recovery_and_composition():
    # recovery must reproduce the construction-time norm from products alone
    exhaustive_cases = [
        make_okubo_isotropic(F2, F2.one(), F2.one()),
        make_okubo_isotropic(F3, F3.one(), F3.from_int(2)),
        make_okubo_idempotent(F2, F2.one(), F2.one()),
    ]
    for a in exhaustive_cases:
        probe = AlgebraTable(a.field, a.dim, a.labels, a.table)
        q = recover_norm(probe)
        assert q.diag == a.quad.diag and q.polar == a.quad.polar
        assert q.is_strictly_nondegenerate()
        v = check_composition(a, strategy="exhaustive")
        assert v.holds and v.certificate == "exhaustive"

    sampled_cases = [
        make_okubo_isotropic(Q, Q.one(), Q.one()),
        make_okubo_idempotent(Q, Q.one(), Q.one()),
    ]
    for a in sampled_cases:
        probe = AlgebraTable(a.field, a.dim, a.labels, a.table)
        q = recover_norm(probe)
        assert q.diag == a.quad.diag and q.polar == a.quad.polar
        assert q.is_strictly_nondegenerate()
        v = check_composition(a, strategy="sampled", seed=0)
        assert v.holds and v.certificate == "sampled(seed=0,n=200)"

    # pseudo-octonions: the recovered norm equals the matrix trace form
    po = make_pseudo_octonion(F7, F7.from_int(2))
    probe = AlgebraTable(F7, 8, po.labels, po.table)
    q = recover_norm(probe)
    one, zero = F7.one(), F7.zero()

    def mat(entries):
        m = [[zero] * 3 for _ in range(3)]
        for i, j, val in entries:
            m[i][j] = val
        return m

    basis = [
        mat([(0, 1, one)]), mat([(1, 0, one)]), mat([(0, 2, one)]),
        mat([(2, 0, one)]), mat([(1, 2, one)]), mat([(2, 1, one)]),
        mat([(0, 0, one), (1, 1, F7.neg(one))]),
        mat([(1, 1, one), (2, 2, F7.neg(one))]),
    ]

    def mmul(x, y):
        return [
            [
                F7.add(F7.add(F7.mul(x[i][0], y[0][j]), F7.mul(x[i][1], y[1][j])),
                       F7.mul(x[i][2], y[2][j]))
                for j in range(3)
            ]
            for i in range(3)
        ]

    def tr(x):
        return F7.add(F7.add(x[0][0], x[1][1]), x[2][2])

    sixth = F7.inv(F7.from_int(6))
    third = F7.inv(F7.from_int(3))
    for i in range(8):
        assert q.diag[i] == F7.mul(sixth, tr(mmul(basis[i], basis[i])))
        for j in range(i + 1, 8):
            expect = F7.mul(third, tr(mmul(basis[i], basis[j])))
            assert q.polar.get((i, j), zero) == expect
    assert q.is_strictly_nondegenerate()
    v = check_composition(po, strategy="sampled", seed=0)
    assert v.holds


def test_criterion_8_difference_sequence_laws(
    okubo_gf2_census, isotropic_witnesses, idempotent_witness, standard_grid
):
    a, res, _ = okubo_gf2_census
    assert res.stats["violations"] == []
    census = res.stats["d_census"]
    assert census and sum(census.values()) == res.stats["generating"]
    assert max(
        max((k for k, x in enumerate(d) if x), default=0) for d in census
    ) == res.best_length
    # re-validate every observed generating sequence independently
    for d in census:
        length = max((k for k, x in enumerate(d) if x), default=0)
        errs = validate_report(
            d, length, True, a.dim, a.is_unital(), kinds=("flexible",)
        )
        assert errs == [], (d, errs)
    for A, _, rep, _ in isotropic_witnesses:
        errs = validate_report(
            rep.d, rep.length, rep.generating, A.dim, A.is_unital(),
            kinds=("flexible",), rank=2,
        )
        assert errs == []
    A, rep, _, _ = idempotent_witness
    assert validate_report(
        rep.d, rep.length, rep.generating, A.dim, A.is_unital(),
        kinds=("flexible",), rank=2,
    ) == []
    # the grid cases embed their own law checks; PASS rows mean zero violations
    assert all(o.status == "PASS" for o in standard_grid)


def test_criterion_9_exceptional_skip_and_two_dim_length():
    out = run_case(_case("okubo-exceptional-length3"))
    assert out.status == "SKIP"
    assert out.expected == "l=3"
    assert out.measured.startswith("skip: ")

    a = make_two_dim_form(F5, F5.one())
    res = length_of_algebra(a, mode="exhaustive")
    assert res.exact and res.best_length == 2
    assert res.enumerated == 7  # six lines and the plane
    els, exhaustive = find_idempotents(a)
    assert exhaustive and els == []
