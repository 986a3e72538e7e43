"""Family constructors: towers, twists, symmetric tables, parameter checks."""

import random

import pytest

import complen.checkers as checkers
from complen.algebra import QuadraticForm
from complen.checkers import check_polarized_identity, find_idempotents, find_isotropic
from complen.constructors import (
    _finish_symmetric,
    cayley_dickson_double,
    make_base_algebra,
    make_hurwitz_tower,
    make_okubo_idempotent,
    make_okubo_isotropic,
    make_pseudo_octonion,
    make_quadratic_etale,
    make_two_dim_form,
    standard_twist,
)
from complen.errors import (
    CharacteristicForbidden,
    DegenerateParameter,
    MissingUnit,
    MuNotASolution,
    ReducibleCubic,
    SelfCheckFailed,
    UnknownFamily,
    ZeroParameter,
)
from complen.fields import field_make

F2 = field_make("F2")
F3 = field_make("F3")
F5 = field_make("F5")
F7 = field_make("F7")
Q = field_make("Q")
GF4 = field_make("F2^2:1,1,1")


# --- Hurwitz tower -----------------------------------------------------------


def test_tower_dimensions_and_units():
    for params, dim in (((), 1), ((1,), 2), ((1, 1), 4), ((1, 1, 1), 8)):
        a = make_hurwitz_tower(Q, None, tuple(Q.from_int(p) for p in params))
        assert a.dim == dim
        assert a.is_unital()
        assert a.quad is not None


def test_square_norm_start_needs_odd_characteristic():
    with pytest.raises(CharacteristicForbidden):
        make_hurwitz_tower(F2, None, ())
    # with an etale start characteristic 2 is fine
    a = make_hurwitz_tower(F2, F2.one(), (F2.one(),))
    assert a.dim == 4


def test_etale_multiplication_rule():
    # l * l = l + mu
    k = make_quadratic_etale(F2, F2.one())
    ell = k.basis_element(1)
    assert k.multiply(ell, ell) == k.add(ell, k.basis_element(0))
    assert k.quad_eval(ell) == F2.one()  # n(y*l) = -mu*y^2


def test_etale_degenerate_mu_rejected():
    with pytest.raises(DegenerateParameter):
        make_quadratic_etale(F5, F5.one())  # 4*1 + 1 = 0 in F5
    from fractions import Fraction

    with pytest.raises(DegenerateParameter):
        make_quadratic_etale(Q, Fraction(-1, 4))


def test_doubling_negates_norm_block():
    base = make_quadratic_etale(Q, Q.one())
    d = cayley_dickson_double(base, Q.from_int(3))
    assert d.dim == 4
    # n on the new half is -alpha times n on the old half
    x_old = d.basis_element(1)
    x_new = d.basis_element(3)
    assert d.quad_eval(x_new) == Q.mul(Q.from_int(-3), base.quad_eval(base.basis_element(1)))
    assert d.quad_eval(x_old) == base.quad_eval(base.basis_element(1))


def test_dim16_tower_is_flexible_and_quadratic_but_not_composition_certified():
    a = make_hurwitz_tower(Q, None, (Q.one(),) * 4)
    assert a.dim == 16
    assert check_polarized_identity(a, "quadratic").holds
    assert check_polarized_identity(a, "flexible").holds
    assert not check_polarized_identity(a, "alternative").holds


@pytest.mark.parametrize("field", (F2, F5, Q, GF4), ids=("F2", "F5", "Q", "GF4"))
def test_tower_levels_satisfy_the_laws_derived_from_the_battery(field):
    # the constructors prove only "quadratic" and "standard-products"; the
    # laws derived from those are read here at basis points, level by level
    rng = random.Random(15)
    if field is Q:
        params = [Q.from_int(n) for n in (-5, -3, -2, -1, 2, 3, 7)]
    else:  # F2 has no nonzero non-unit scalar: K(1) and doubling by 1
        params = [c for c in field.enumerate() if c and c != field.one()] or [field.one()]
    a = make_quadratic_etale(field, rng.choice(params))
    while True:
        for name in ("flexible", "alternative", "regular-involution", "two-product"):
            assert check_polarized_identity(a, name).holds, (a.name, name)
        if a.dim == 8:
            break
        a = cayley_dickson_double(a, rng.choice(params))


INVOLUTION_TOWERS = {  # (field, etale mu or None for the base field, doubling parameters)
    "F2": (F2, F2.one(), (1, 1)),
    "F3": (F3, None, (1, 2, 1)),
    "F5": (F5, F5.from_int(2), (2, 3)),
    "Q": (Q, Q.from_int(-1), (2, -3)),
    "GF4": (GF4, max(GF4.enumerate(), key=GF4.sort_key), (1, 1)),
}


@pytest.mark.parametrize("key", INVOLUTION_TOWERS)
def test_tower_levels_satisfy_the_involution_law_they_derive(key):
    # below dimension 16 the doubles derive "involution" from composition and
    # the battery instead of proving it; it is read here at every level
    field, mu, params = INVOLUTION_TOWERS[key]
    a = make_base_algebra(field) if mu is None else make_quadratic_etale(field, mu)
    levels = [a]
    for alpha in params:
        levels.append(cayley_dickson_double(levels[-1], field.from_int(alpha)))
    assert levels[-1].dim == 8
    for a in levels:
        assert check_polarized_identity(a, "involution").holds, a.name


@pytest.mark.parametrize("params", ((1, 2), (1, 2, -3)), ids=("dim8", "dim16"))
def test_doubling_a_corrupted_conjugation_fails_its_self_check(params):
    # only this base instance conjugates its last basis vector wrongly, so the
    # double's table is wrong while its own checks read its true conjugation
    base = make_hurwitz_tower(Q, None, tuple(map(Q.from_int, params)))
    true_conjugate, last = base.conjugate, base.basis_element(base.dim - 1)

    def conjugate(x):
        c = true_conjugate(x)
        return base.add(c, base.unit_element()) if x == last else c

    base.conjugate = conjugate
    with pytest.raises(SelfCheckFailed):
        cayley_dickson_double(base, Q.from_int(-1))


# --- standard twists ---------------------------------------------------------


def test_twist_products_follow_conjugation_pattern():
    a = make_hurwitz_tower(Q, None, (Q.one(), Q.one()))
    conj = [a.conjugate(a.basis_element(i)) for i in range(4)]
    twists = {t: standard_twist(a, t) for t in ("I", "II", "III", "IV")}
    for i in range(4):
        bi = a.basis_element(i)
        for j in range(4):
            bj = a.basis_element(j)
            assert twists["I"].multiply(bi, bj) == a.multiply(bi, bj)
            assert twists["II"].multiply(bi, bj) == a.multiply(conj[i], bj)
            assert twists["III"].multiply(bi, bj) == a.multiply(bi, conj[j])
            assert twists["IV"].multiply(bi, bj) == a.multiply(conj[i], conj[j])


def test_twist_unitality():
    a = make_hurwitz_tower(Q, None, (Q.one(),))
    assert standard_twist(a, "I").is_unital()
    for t in ("II", "III", "IV"):
        assert not standard_twist(a, t).is_unital()


def test_twist_carries_descending_certificates():
    a = make_hurwitz_tower(F3, None, (F3.one(),))
    t = standard_twist(a, "IV")
    assert "descending-flexible" in t.certificates
    assert "descending-alternative" in t.certificates


def test_twist_rejects_unknown_type_and_nonunital_input():
    a = make_hurwitz_tower(Q, None, (Q.one(),))
    with pytest.raises(UnknownFamily):
        standard_twist(a, "V")
    with pytest.raises(MissingUnit):
        standard_twist(standard_twist(a, "IV"), "I")


# --- symmetric eight-dimensional tables --------------------------------------


def test_isotropic_table_worked_products():
    alpha, beta = F5.from_int(2), F5.from_int(3)
    a = make_okubo_isotropic(F5, alpha, beta)
    x01 = a.basis_element(2)
    x10 = a.basis_element(0)
    assert a.multiply(x01, x01) == a.scale(F5.neg(beta), a.basis_element(3))
    assert a.multiply(x10, x10) == a.scale(F5.neg(alpha), a.basis_element(1))
    assert a.multiply(x01, x10) == a.basis_element(4)
    assert a.is_zero(a.multiply(x10, x01))


def test_isotropic_table_is_symmetric_composition():
    a = make_okubo_isotropic(F2, F2.one(), F2.one())
    assert "descending-flexible" in a.certificates
    # (x*y)*x = n(x) y = x*(y*x) spot check on a mixed pair
    x = a.add(a.basis_element(0), a.basis_element(5))
    y = a.basis_element(3)
    nx = a.quad_eval(x)
    assert a.multiply(a.multiply(x, y), x) == a.scale(nx, y)
    assert a.multiply(x, a.multiply(y, x)) == a.scale(nx, y)


def test_isotropic_basis_is_isotropic():
    a = make_okubo_isotropic(F2, F2.one(), F2.one())
    assert all(a.quad_eval(a.basis_element(i)) == F2.zero() for i in range(8))
    els, exhaustive = find_isotropic(a)
    assert exhaustive and len(els) == 135


def test_idempotent_table_has_idempotents():
    a = make_okubo_idempotent(F2, F2.one(), F2.one())
    x0 = a.basis_element(0)
    assert a.multiply(x0, x0) == x0
    els, exhaustive = find_idempotents(a)
    assert exhaustive and len(els) == 12
    for e in els:
        assert a.multiply(e, e) == e


def test_idempotent_table_general_parameter_product():
    beta, gamma = Q.from_int(2), Q.from_int(5)
    a = make_okubo_idempotent(Q, beta, gamma)
    b = a.add(a.basis_element(3), a.basis_element(7))
    u = a.basis_element(1)
    w = a.multiply(a.multiply(a.multiply(b, b), u), b)
    expect = [0, 0, 22, 22, 0, 0, 6, 14]  # beta+2bg, beta+2bg, 3b, 2b+bg
    assert w == tuple(Q.from_int(c) for c in expect)


def test_symmetric_table_parameter_validation():
    with pytest.raises(ZeroParameter):
        make_okubo_isotropic(F5, F5.zero(), F5.one())
    with pytest.raises(ZeroParameter):
        make_okubo_idempotent(Q, Q.one(), Q.zero())
    with pytest.raises(CharacteristicForbidden):
        make_okubo_idempotent(F3, F3.one(), F3.one())


SYMMETRIC_BUILDS = {
    "okubo-isotropic": lambda: make_okubo_isotropic(F5, F5.one(), F5.from_int(2)),
    "okubo-idempotent": lambda: make_okubo_idempotent(F5, F5.from_int(2), F5.one()),
    "pseudo-octonion": lambda: make_pseudo_octonion(F7),
    "two-dim-form": lambda: make_two_dim_form(F5, F5.one()),
}


@pytest.mark.parametrize("build", SYMMETRIC_BUILDS.values(), ids=SYMMETRIC_BUILDS.keys())
def test_symmetric_constructors_prove_the_symmetric_law_once(build, monkeypatch):
    seen = []
    real = checkers._identity_forms

    def spy(a, identity, *arithmetic):
        seen.append(identity)
        return real(a, identity, *arithmetic)

    monkeypatch.setattr(checkers, "_identity_forms", spy)
    build()
    assert seen.count("symmetric") == 1


# --- pseudo-octonion ---------------------------------------------------------


def test_pseudo_octonion_auto_mu_picks_smallest_root():
    a = make_pseudo_octonion(F7)
    assert a.name == "pseudo-octonion(2)"
    assert a.dim == 8
    assert not a.is_unital()


def test_pseudo_octonion_explicit_mu_checked():
    a = make_pseudo_octonion(F7, F7.from_int(6))
    assert a.name == "pseudo-octonion(6)"
    with pytest.raises(MuNotASolution):
        make_pseudo_octonion(F7, F7.from_int(3))
    with pytest.raises(MuNotASolution):
        make_pseudo_octonion(Q)


def test_pseudo_octonion_norm_must_be_the_trace_form():
    a = make_pseudo_octonion(F7)
    diag = list(a.quad.diag)
    diag[0] = F7.add(diag[0], F7.one())
    wrong = QuadraticForm(F7, 8, diag, a.quad.polar)
    with pytest.raises(SelfCheckFailed, match="recovered norm"):
        _finish_symmetric(F7, a.labels, a.table, a.name, expect=wrong)


def test_pseudo_octonion_characteristic_guard():
    with pytest.raises(CharacteristicForbidden):
        make_pseudo_octonion(F2)
    with pytest.raises(CharacteristicForbidden):
        make_pseudo_octonion(F3)


# --- two-dimensional form ----------------------------------------------------


def test_two_dim_form_products_and_norm():
    a = make_two_dim_form(F5, F5.one())
    u, v = a.basis_element(0), a.basis_element(1)
    assert a.multiply(u, u) == v
    assert a.multiply(u, v) == u
    assert a.multiply(v, u) == u
    assert a.multiply(v, v) == a.sub(a.scale(F5.one(), u), v)
    # recovered norm x^2 + y^2 + lam*xy
    x = a.add(a.scale(F5.from_int(2), u), a.scale(F5.from_int(3), v))
    assert a.quad_eval(x) == F5.from_int(4 + 9 + 6)


@pytest.mark.parametrize("field", (F2, F5, Q), ids=("F2", "F5", "Q"))
def test_two_dim_form_is_form_associative(field):
    # _finish_symmetric derives form associativity from the symmetric law
    a = make_two_dim_form(field, field.one())
    assert check_polarized_identity(a, "form-associativity").holds


def test_two_dim_form_requires_irreducible_cubic():
    with pytest.raises(ReducibleCubic):
        make_two_dim_form(F5, F5.zero())  # x^3 - 3x has root 0
    a = make_two_dim_form(Q, Q.one())  # x^3 - 3x - 1 has no rational root
    assert a.dim == 2


def test_base_algebra_is_the_field():
    a = make_base_algebra(F7)
    assert a.dim == 1 and a.is_unital()
    assert a.quad_eval((F7.from_int(3),)) == F7.from_int(2)
