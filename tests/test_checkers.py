"""Identity certification, descending checks, floors, and report validation."""

import itertools
import random
from fractions import Fraction

import pytest

from complen import checkers
from complen.algebra import AlgebraTable, QuadraticForm
from complen.checkers import (
    _identity_forms,
    acquire_descending_certificates,
    alternative_floor,
    check_composition,
    check_descending,
    check_identity_direct,
    check_polarized_identity,
    find_idempotents,
    find_isotropic,
    flexible_floor,
    length_upper_bound,
    recover_norm,
    validate_report,
)
from complen.constructors import (
    make_hurwitz_tower,
    make_okubo_idempotent,
    make_okubo_isotropic,
    make_pseudo_octonion,
    make_quadratic_etale,
    standard_twist,
)
from complen.errors import (
    CostCapExceeded,
    InfiniteField,
    InvariantViolation,
    MissingQuadraticForm,
    MissingUnit,
    NotScalarOperator,
    UnknownIdentity,
)
from complen.fields import field_make

F2 = field_make("F2")
F3 = field_make("F3")
F5 = field_make("F5")
Q = field_make("Q")
GF4 = field_make("F2^2:1,1,1")

HURWITZ_NAMES = ("quadratic", "regular-involution", "alternative", "flexible", "two-product")


# --- polarized certificates vs direct evaluation ------------------------------


@pytest.mark.parametrize("field", (F2, F3), ids=("F2", "F3"))
@pytest.mark.parametrize("name", HURWITZ_NAMES)
def test_polarized_agrees_with_exhaustive_on_quaternions(field, name):
    a = make_hurwitz_tower(field, field.one(), (field.one(),))
    p = check_polarized_identity(a, name)
    d = check_identity_direct(a, name, strategy="exhaustive")
    assert p.holds and d.holds
    assert p.certificate == "polarized-basis"
    assert d.certificate == "exhaustive"


def test_polarized_agrees_on_failure():
    a = make_okubo_idempotent(F2, F2.one(), F2.one())
    p = check_polarized_identity(a, "alternative")
    d = check_identity_direct(a, "alternative", strategy="exhaustive")
    assert not p.holds and not d.holds
    assert p.counterexample is not None
    assert {"form", "args", "value"} <= set(p.counterexample)


# identities that need a unit ride along on unital tables; the direct oracle
# visits card^(dim*arity) tuples per form, so forms above the budget are left
# to the smaller cases (form-associativity over GF(4) at dim 3)
POINT_IDENTITIES = ("flexible", "alternative", "symmetric", "form-associativity")
UNITAL_IDENTITIES = ("quadratic", "regular-involution", "involution")
DIRECT_BUDGET = 20_000


def _random_table(field, dim: int, unital: bool, seed: int) -> AlgebraTable:
    """A seeded sparse random table and norm; e_0 is the unit when unital."""
    rng = random.Random(seed)
    nonzero = list(field.enumerate())[1:]

    def scalar():
        return rng.choice(nonzero) if rng.random() < 0.3 else field.zero()

    basis = [tuple(field.one() if k == j else field.zero() for k in range(dim))
             for j in range(dim)]
    table = [[tuple(scalar() for _ in range(dim)) for _ in range(dim)] for _ in range(dim)]
    if unital:
        for j in range(dim):
            table[0][j] = table[j][0] = basis[j]
    quad = QuadraticForm(
        field, dim, [scalar() for _ in range(dim)],
        {(i, k): scalar() for i, k in itertools.combinations(range(dim), 2)},
    )
    return AlgebraTable(field, dim, tuple(f"e{i}" for i in range(dim)), table,
                        unit=basis[0] if unital else None, quad=quad)


def _point_order(a: AlgebraTable, form) -> list:
    """A form's argument tuples in the documented visiting order.

    Quadratic: each basis tuple of the rest, then x at e_0..e_{n-1} and at
    e_i + e_k for i < k. Multilinear: every basis tuple.
    """
    basis = [a.basis_element(i) for i in range(a.dim)]
    if not form.quadratic:
        return list(itertools.product(basis, repeat=form.arity))
    sums = [a.add(basis[i], basis[k]) for i, k in itertools.combinations(range(a.dim), 2)]
    return [(x, *rest) for rest in itertools.product(basis, repeat=form.arity - 1)
            for x in basis + sums]


def _nonzero(form, value) -> bool:
    return bool(value) if form.scalar else any(value)


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("field", (F2, F3, GF4), ids=("F2", "F3", "GF4"))
def test_point_argument_matches_direct_evaluation(field, dim):
    at_sum = held = 0
    for seed, unital in itertools.product(range(12), (False, True)):
        a = _random_table(field, dim, unital, seed)
        for name in POINT_IDENTITIES + (UNITAL_IDENTITIES if unital else ()):
            forms = _identity_forms(a, name)
            if max(field.cardinality() ** (dim * f.arity) for f in forms) > DIRECT_BUDGET:
                continue
            p = check_polarized_identity(a, name)
            d = check_identity_direct(a, name, strategy="exhaustive")
            assert p.holds == d.holds, (seed, unital, name)
            held += p.holds
            for v in (p, d):
                if not v.holds:
                    form = next(f for f in forms if f.name == v.counterexample["form"])
                    value = form.g(*v.counterexample["args"])
                    assert _nonzero(form, value) and value == v.counterexample["value"]
            if p.holds:
                continue
            # the counterexample is the first nonzero value in the documented order
            form = next(f for f in forms if f.name == p.counterexample["form"])
            for earlier in forms[: forms.index(form)]:
                assert not any(_nonzero(earlier, earlier.g(*t)) for t in _point_order(a, earlier))
            order = _point_order(a, form)
            first = order.index(p.counterexample["args"])
            assert not any(_nonzero(form, form.g(*t)) for t in order[:first])
            at_sum += sum(1 for c in p.counterexample["args"][0] if c) > 1
    # both verdicts occur, and some identities fail only at an e_i + e_k point
    assert held and at_sum


def _twist_cases():
    for field, parent in (
        (F2, lambda: make_hurwitz_tower(F2, F2.one(), (F2.one(),))),
        (F3, lambda: make_hurwitz_tower(F3, None, (F3.one(),))),
    ):
        for t in ("I", "II", "III", "IV"):
            names = ("standard-products", "two-product") + (("para-unit",) if t == "IV" else ())
            for name in names:
                yield pytest.param(parent, t, name, id=f"{field.spec.format()}-{t}-{name}")


@pytest.mark.parametrize("parent, t, name", _twist_cases())
def test_polarized_agrees_with_exhaustive_on_twists(parent, t, name):
    a = standard_twist(parent(), t)
    p = check_polarized_identity(a, name)
    d = check_identity_direct(a, name, strategy="exhaustive")
    assert p.holds and d.holds
    assert (p.certificate, d.certificate) == ("polarized-basis", "exhaustive")


def _retagged(a: AlgebraTable, t: str) -> AlgebraTable:
    """The same table and norm, labelled as twist type t."""
    out = AlgebraTable(a.field, a.dim, a.labels, a.table, quad=a.quad, name=a.name)
    out.twist_type, out.parent_unit = t, a.parent_unit
    return out


def _with_diag_raised(a: AlgebraTable, i: int) -> AlgebraTable:
    diag = list(a.quad.diag)
    diag[i] = a.field.add(diag[i], a.field.one())
    quad = QuadraticForm(a.field, a.dim, diag, a.quad.polar)
    return AlgebraTable(a.field, a.dim, a.labels, a.table, unit=a.unit, quad=quad, name=a.name)


def _reevaluated(a: AlgebraTable, identity: str, cx: dict):
    form = next(f for f in _identity_forms(a, identity) if f.name == cx["form"])
    return form.g(*cx["args"])


@pytest.mark.parametrize("field", (F2, F3, Q), ids=("F2", "F3", "Q"))
def test_type_ii_table_labelled_iii_fails_both_routes(field):
    mu, params = (field.one(), (field.one(),)) if field is F2 else (None, (field.one(),) * 2)
    a = _retagged(standard_twist(make_hurwitz_tower(field, mu, params), "II"), "III")
    strategy = "sampled" if field is Q else "exhaustive"
    for v in (
        check_polarized_identity(a, "standard-products"),
        check_identity_direct(a, "standard-products", strategy=strategy),
    ):
        assert not v.holds
        cx = v.counterexample
        assert cx["form"].startswith("III:")
        assert not a.is_zero(cx["value"])
        assert cx["value"] == _reevaluated(a, "standard-products", cx)


def _pinned_case(name):
    if name == "okubo-idempotent-F2":
        return make_okubo_idempotent(F2, F2.one(), F2.one())
    if name == "octonions-F3":
        return make_hurwitz_tower(F3, None, (F3.one(),) * 3)
    if name == "quaternions-Q-n(e1)+1":
        return _with_diag_raised(make_hurwitz_tower(Q, None, (Q.one(), Q.one())), 1)
    if name == "quaternions-F2-n(e1)+1":
        return _with_diag_raised(make_hurwitz_tower(F2, F2.one(), (F2.one(),)), 1)
    field = {"F3": F3, "Q": Q}[name.rsplit("-", 1)[1]]
    parent = make_hurwitz_tower(field, None, (field.one(), field.one()))
    return _retagged(standard_twist(parent, "II"), "III")


# Verdicts of the hand-written closures that the forms' diagonals replaced;
# each must come out equal in value from the derived values. Values, not repr:
# an integral Q scalar may be coded as int or Fraction (Fraction(n) == n).
PINNED = [
    ("okubo-idempotent-F2", "alternative", "polarized",
     ("alternative", False, "polarized-basis", "left-alternative",
      ((0, 1, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0)), (0, 1, 0, 0, 0, 0, 0, 0))),
    ("okubo-idempotent-F2", "alternative", "exhaustive",
     ("alternative", False, "exhaustive", "left-alternative",
      ((0, 0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0, 1, 0)), (0, 0, 0, 0, 0, 0, 0, 1))),
    ("octonions-F3", "symmetric", "polarized",
     ("symmetric", False, "polarized-basis", "(x*y)*x",
      ((0, 1, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0)), (2, 0, 0, 0, 0, 0, 0, 0))),
    ("quaternions-Q-n(e1)+1", "form-associativity", "polarized",
     ("form-associativity", False, "polarized-basis", "form-associativity",
      ((Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
       (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
       (Fraction(0), Fraction(1), Fraction(0), Fraction(0))), Fraction(-2))),
    ("quaternions-F2-n(e1)+1", "form-associativity", "exhaustive",
     ("form-associativity", False, "exhaustive", "form-associativity",
      ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0)), 1)),
    ("II-labelled-III-F3", "standard-products", "polarized",
     ("standard-products", False, "polarized-basis", "III:(a*b)*a",
      ((0, 1, 0, 0), (1, 0, 0, 0)), (2, 0, 0, 0))),
    ("II-labelled-III-F3", "standard-products", "exhaustive",
     ("standard-products", False, "exhaustive", "III:(a*b)*a",
      ((0, 0, 0, 1), (0, 0, 0, 1)), (0, 0, 0, 2))),
    ("II-labelled-III-Q", "standard-products", "sampled",
     ("standard-products", False, "sampled(seed=5,n=200)", "III:(a*b)*a",
      ((Fraction(-1, 3), Fraction(7), Fraction(5, 2), Fraction(-4)),
       (Fraction(-2), Fraction(3), Fraction(3), Fraction(9, 2))),
      (Fraction(-126), Fraction(-1780, 3), Fraction(-1691, 6), Fraction(336)))),
]


@pytest.mark.parametrize(
    "case, identity, route, expected", PINNED, ids=[f"{c}-{i}-{r}" for c, i, r, _ in PINNED]
)
def test_pinned_counterexamples(case, identity, route, expected):
    a = _pinned_case(case)
    if route == "polarized":
        v = check_polarized_identity(a, identity)
    elif route == "sampled":
        v = check_identity_direct(a, identity, strategy="sampled", seed=5)
    else:
        v = check_identity_direct(a, identity, strategy="exhaustive")
    cx = v.counterexample
    got = (v.identity, v.holds, v.certificate, cx["form"], cx["args"], cx["value"])
    assert got == expected


def test_symmetric_law_certified_both_ways():
    a = make_okubo_isotropic(F2, F2.one(), F2.one())
    assert check_polarized_identity(a, "symmetric").holds
    assert check_identity_direct(a, "symmetric", strategy="exhaustive").holds


def test_unknown_identity_rejected():
    a = make_quadratic_etale(F3, F3.one())
    with pytest.raises(UnknownIdentity):
        check_polarized_identity(a, "associative-enough")
    with pytest.raises(UnknownIdentity):
        check_identity_direct(a, "flexible", strategy="psychic")


def test_direct_exhaustive_needs_finite_field_and_budget(monkeypatch):
    a = make_hurwitz_tower(Q, None, (Q.one(),))
    with pytest.raises(InfiniteField):
        check_identity_direct(a, "flexible", strategy="exhaustive")
    b = make_hurwitz_tower(F3, None, (F3.one(), F3.one()))
    monkeypatch.setenv("COMPLEN_COST_CAP", "10")
    with pytest.raises(CostCapExceeded):
        check_identity_direct(b, "flexible", strategy="exhaustive")


def test_direct_sampled_is_deterministic_per_seed():
    a = make_hurwitz_tower(Q, None, (Q.one(), Q.one()))
    v1 = check_identity_direct(a, "flexible", strategy="sampled", seed=7)
    v2 = check_identity_direct(a, "flexible", strategy="sampled", seed=7)
    assert v1.holds and v2.holds and v1.certificate == v2.certificate == "sampled(seed=7,n=200)"


# --- batched polarized checks -------------------------------------------------

CATALOG = ("flexible", "alternative", "quadratic", "regular-involution", "involution",
           "symmetric", "form-associativity", "composition", "two-product", "para-unit",
           "standard-products")


def _typed(v):
    """v with every scalar paired with its type, so that 2 and Fraction(2) differ."""
    if isinstance(v, dict):
        return {k: _typed(x) for k, x in v.items()}
    if isinstance(v, tuple):
        return tuple(_typed(x) for x in v)
    return type(v), v


def _verdict_on(a, identity, floor, monkeypatch):
    monkeypatch.setattr(checkers, "BATCH_FLOOR", floor)
    try:
        return check_polarized_identity(a, identity)
    except (MissingUnit, MissingQuadraticForm, UnknownIdentity):
        return None  # the identity does not apply to a


def _integer_table(field, dim: int, unital: bool, seed: int, density: float) -> AlgebraTable:
    """A seeded table and norm with entries -3..3 (read in field); e_0 is the unit when unital."""
    rng = random.Random(seed)

    def scalar():
        return field.from_int(rng.randint(-3, 3)) if rng.random() < density else field.zero()

    basis = [tuple(field.from_int(int(k == j)) for k in range(dim)) for j in range(dim)]
    table = [[tuple(scalar() for _ in range(dim)) for _ in range(dim)] for _ in range(dim)]
    if unital:
        for j in range(dim):
            table[0][j] = table[j][0] = basis[j]
    quad = QuadraticForm(
        field, dim, [scalar() for _ in range(dim)],
        {(i, k): scalar() for i, k in itertools.combinations(range(dim), 2)},
    )
    return AlgebraTable(field, dim, tuple(f"e{i}" for i in range(dim)), table,
                        unit=basis[0] if unital else None, quad=quad)


def _catalog_tables():
    F7 = field_make("F7")
    towers = {
        "F2": lambda: make_hurwitz_tower(F2, F2.one(), (F2.one(), F2.one())),
        "F3": lambda: make_hurwitz_tower(F3, None, (F3.one(), F3.from_int(2), F3.one())),
        "F5": lambda: make_hurwitz_tower(F5, None, (F5.from_int(2), F5.one(), F5.from_int(3))),
        "Q": lambda: make_hurwitz_tower(Q, None, (Q.one(), Q.from_int(-1), Q.from_int(2))),
    }
    for key, build in towers.items():
        yield pytest.param(build, id=f"hurwitz-{key}")
    for key in ("F3", "Q"):
        for t in ("I", "II", "III", "IV"):
            yield pytest.param(lambda k=key, t=t: standard_twist(towers[k](), t),
                               id=f"twist-{t}-{key}")
    for field in (F5, Q):
        key = field.spec.format()
        # the isotropic table holds 1/a and 1/b, so a Q table with a = 2 has Fractions
        yield pytest.param(lambda f=field: make_okubo_isotropic(f, f.one(), f.from_int(-1)),
                           id=f"okubo-isotropic-{key}")
        yield pytest.param(lambda f=field: make_okubo_idempotent(f, f.from_int(2), f.one()),
                           id=f"okubo-idempotent-{key}")
    yield pytest.param(lambda: make_pseudo_octonion(F7), id="pseudo-octonion-F7")


@pytest.mark.parametrize("build", _catalog_tables())
def test_batched_checks_match_point_checks_on_the_families(build, monkeypatch):
    import numpy  # noqa: F401  (the batched route runs only once numpy is loaded)

    a = build()
    held = 0
    for identity in CATALOG:
        batched = _verdict_on(a, identity, 0, monkeypatch)
        if batched is None:
            continue
        assert checkers._batch_arithmetic(a, identity, 0) is not None
        point = _verdict_on(a, identity, float("inf"), monkeypatch)
        assert batched == point, identity
        assert _typed(batched.counterexample) == _typed(point.counterexample), identity
        held += batched.holds
    assert held


@pytest.mark.parametrize("field", (F2, F3, F5, Q), ids=("F2", "F3", "F5", "Q"))
def test_batched_checks_match_point_checks_on_random_tables(field, monkeypatch):
    import numpy  # noqa: F401

    verdicts = set()
    for seed, unital, density in itertools.product(range(4), (False, True), (0.1, 0.4)):
        a = _integer_table(field, 4, unital, seed, density)
        for identity in CATALOG:
            batched = _verdict_on(a, identity, 0, monkeypatch)
            if batched is None:
                continue
            assert checkers._batch_arithmetic(a, identity, 0) is not None
            point = _verdict_on(a, identity, float("inf"), monkeypatch)
            assert batched == point, (seed, unital, density, identity)
            assert _typed(batched.counterexample) == _typed(point.counterexample)
            verdicts.add(batched.holds)
    assert verdicts == {False, True}


def _fallback_tables():
    big = field_make(f"F{2**31 - 1}")  # 4 * p**2 is past int64
    gf9 = field_make("F3^2:1,0,1")
    return {
        "Q-fraction": lambda: make_hurwitz_tower(Q, None, (Q.one(), Fraction(1, 2))),
        "Q-past-int64": lambda: make_hurwitz_tower(Q, None, (Q.from_int(2**30), Q.from_int(2**30))),
        "GF4": lambda: make_hurwitz_tower(GF4, GF4.one(), (GF4.one(),)),
        "GF9": lambda: make_hurwitz_tower(gf9, None, (gf9.one(), gf9.one())),
        "F(2^31-1)": lambda: make_hurwitz_tower(big, None, (big.one(), big.one())),
    }


@pytest.mark.parametrize("key", _fallback_tables())
def test_checks_stay_point_by_point_where_int64_is_not_exact(key, monkeypatch):
    import numpy  # noqa: F401
    from complen.primescan import BatchArithmetic

    a = _fallback_tables()[key]()
    if key == "Q-past-int64":
        # integer entries within int64, but the bound of the products is not
        assert BatchArithmetic.over(a) is not None
    monkeypatch.setattr(checkers, "BATCH_FLOOR", 0)
    for identity in ("standard-products", "composition"):
        assert checkers._batch_arithmetic(a, identity, 0) is None
        v = _verdict_on(a, identity, 0, monkeypatch)
        assert v.holds and v == _verdict_on(a, identity, float("inf"), monkeypatch)


def test_batched_residues_stay_within_int64_below_the_prime_bound(monkeypatch):
    # 4 p^2 fits in int64 but 5 (p-1)^2 does not: every constant is -1 = p-1,
    # so x s^T + x s reaches 5 (p-1)^2 unless s + s^T is reduced mod p
    import numpy  # noqa: F401

    big = field_make("F1450000001")
    m1, n = big.from_int(-1), 4
    a = AlgebraTable(big, n, tuple(f"e{i}" for i in range(n)), [[(m1,) * n] * n] * n,
                     quad=QuadraticForm(big, n, [m1] * n,
                                        {c: m1 for c in itertools.combinations(range(n), 2)}))
    batched = _verdict_on(a, "form-associativity", 0, monkeypatch)
    assert checkers._batch_arithmetic(a, "form-associativity", 0) is not None
    assert batched.holds and batched == _verdict_on(a, "form-associativity", float("inf"), monkeypatch)


def test_batched_hit_that_reads_zero_per_point_is_an_invariant_violation(monkeypatch):
    import numpy  # noqa: F401
    from complen.primescan import BatchArithmetic

    a = make_hurwitz_tower(F3, None, (F3.one(), F3.one()))
    monkeypatch.setattr(BatchArithmetic, "first_nonzero", lambda self, forms, pairs: (0, (0, 0)))
    with pytest.raises(InvariantViolation):
        _verdict_on(a, "flexible", 0, monkeypatch)


# --- composition --------------------------------------------------------------


def test_composition_exhaustive_on_quaternions_f2():
    a = make_hurwitz_tower(F2, F2.one(), (F2.one(),))
    v = check_composition(a, strategy="exhaustive")
    assert v.holds and v.certificate == "exhaustive"


def test_composition_sampled_over_rationals():
    a = make_hurwitz_tower(Q, None, (Q.one(), Q.one(), Q.one()))
    v = check_composition(a, strategy="auto", seed=3)
    assert v.holds and v.certificate.startswith("sampled(")
    with pytest.raises(InfiniteField):
        check_composition(a, strategy="exhaustive")


def test_composition_detects_wrong_form():
    k = make_quadratic_etale(F3, F3.one())
    wrong = QuadraticForm(F3, 2, [F3.one(), F3.one()], {(0, 1): F3.one()})
    bad = AlgebraTable(F3, 2, ("e0", "e1"), k.table, unit=k.unit, quad=wrong)
    v = check_composition(bad, strategy="exhaustive")
    assert not v.holds
    assert v.counterexample is not None


# --- norm recovery -------------------------------------------------------------


def test_recover_norm_matches_construction():
    alpha, beta = F5.from_int(2), F5.from_int(3)
    a = make_okubo_isotropic(F5, alpha, beta)
    q = recover_norm(a)
    assert q.diag == a.quad.diag and q.polar == a.quad.polar
    assert q.is_strictly_nondegenerate()


def test_recover_norm_rejects_non_symmetric_product():
    quat = make_hurwitz_tower(Q, None, (Q.one(), Q.one()))
    with pytest.raises(NotScalarOperator):
        recover_norm(quat)


# --- descending checks ----------------------------------------------------------


def test_descending_candidate_refutation():
    a4 = make_hurwitz_tower(Q, None, (Q.one(),) * 4)
    a = a4.add(a4.basis_element(1), a4.basis_element(10))
    b = a4.add(a4.basis_element(3), a4.basis_element(15))
    for kind in ("flexible", "alternative"):
        v = check_descending(a4, kind, candidates=[(a, b)])
        assert not v.holds
        assert v.certificate == "candidate"
        assert v.counterexample is not None


def test_descending_cached_route():
    # the constructor earned the certificate by the symmetric law
    a = make_okubo_isotropic(F2, F2.one(), F2.one())
    v = check_descending(a, "flexible")
    assert v.holds and v.certificate == "symmetric-law"


def test_descending_symmetric_law_route():
    a = make_okubo_isotropic(F2, F2.one(), F2.one())
    a.certificates.clear()
    v = check_descending(a, "flexible")
    assert v.holds and v.certificate == "symmetric-law"
    assert a.certificates == {"descending-flexible": "symmetric-law"}


def test_descending_exhaustive_route_caches():
    a = make_quadratic_etale(F2, F2.one())
    a.certificates.clear()
    v = check_descending(a, "flexible", strategy="exhaustive")
    assert v.holds and v.certificate == "exhaustive"
    assert a.certificates == {"descending-flexible": "exhaustive"}
    # the cached lookup reports the route that earned it
    assert check_descending(a, "flexible").certificate == "exhaustive"


def test_descending_closed_forms_route():
    a = make_hurwitz_tower(F3, None, (F3.one(),))
    assert a.certificates == dict.fromkeys(
        ("descending-flexible", "descending-alternative"), "closed-forms")
    for kind in ("flexible", "alternative"):
        v = check_descending(a, kind)
        assert v.holds and v.certificate == "closed-forms"


def _routes_acquired(a: AlgebraTable) -> dict:
    a.certificates.clear()
    got = acquire_descending_certificates(a)
    assert got == set(a.certificates)
    for name, route in a.certificates.items():
        assert check_descending(a, name.split("-", 1)[1]).certificate == route
    return a.certificates


def test_acquired_certificates_record_their_route():
    both = ("descending-flexible", "descending-alternative")
    twist = standard_twist(make_hurwitz_tower(F3, None, (F3.one(),)), "II")
    assert _routes_acquired(twist) == dict.fromkeys(both, "closed-forms")
    okubo = make_okubo_isotropic(F5, F5.from_int(2), F5.from_int(3))
    assert _routes_acquired(okubo) == {"descending-flexible": "symmetric-law"}
    # no norm: only enumeration can earn them
    k = make_quadratic_etale(F2, F2.one())
    bare = AlgebraTable(F2, k.dim, k.labels, k.table)
    assert _routes_acquired(bare) == dict.fromkeys(both, "exhaustive")


def test_acquisition_skips_enumeration_over_the_cost_cap(monkeypatch):
    # the bare K(1) over F2 has 64 triples, over a cap of 10
    monkeypatch.setenv("COMPLEN_COST_CAP", "10")
    k = make_quadratic_etale(F2, F2.one())
    bare = AlgebraTable(F2, k.dim, k.labels, k.table)
    assert acquire_descending_certificates(bare) == set()
    assert "exhaustive" not in bare.certificates.values()


def test_descending_exhaustive_needs_finite_budget():
    a = make_hurwitz_tower(Q, None, (Q.one(),))
    a.certificates.clear()
    with pytest.raises(InfiniteField):
        check_descending(a, "flexible", strategy="exhaustive")
    with pytest.raises(UnknownIdentity):
        check_descending(a, "monotone")
    with pytest.raises(UnknownIdentity):
        check_descending(make_okubo_isotropic(F3, F3.one(), F3.from_int(2)), "flexible",
                         strategy="bogus")
    # 3^8 elements: 6561^2 pairs and 6561^3 triples are past the default cap of 10^7
    b = make_hurwitz_tower(F3, None, (F3.one(), F3.one(), F3.one()))
    with pytest.raises(CostCapExceeded) as e:
        check_descending(b, "flexible", strategy="exhaustive")
    assert e.value.estimate == 6561**3




def test_descending_alternative_fails_on_isotropic_table():
    a = make_okubo_isotropic(F5, F5.from_int(2), F5.from_int(3))
    x, y = a.basis_element(0), a.basis_element(3)
    v = check_descending(a, "alternative", candidates=[(x, y)])
    assert not v.holds
    assert v.counterexample["condition"] in ("a(ab)", "(ba)a")


def test_acquire_certificates_on_unital_table():
    a = make_quadratic_etale(F3, F3.one())
    a.certificates.clear()
    got = acquire_descending_certificates(a)
    assert got == {"descending-flexible", "descending-alternative"}
    assert got <= a.certificates.keys()


def test_acquire_certificates_on_twist():
    a = standard_twist(make_hurwitz_tower(F3, None, (F3.one(),)), "II")
    got = acquire_descending_certificates(a)
    assert "descending-flexible" in got and "descending-alternative" in got


def test_auto_earns_the_closed_forms_itself():
    # before enumeration: the closed forms prove both kinds and cache both
    k = make_quadratic_etale(F3, F3.one())
    for a in (k, standard_twist(k, "II")):
        a.certificates.clear()
        v = check_descending(a, "flexible")
        assert v.holds and v.certificate == "closed-forms"
        assert a.certificates == dict.fromkeys(
            ("descending-flexible", "descending-alternative"), "closed-forms")


def test_sampled_strategy_always_samples():
    # the cached closed-forms route is not consulted
    a = make_hurwitz_tower(F3, None, (F3.one(),))
    v = check_descending(a, "flexible", strategy="sampled")
    assert v.holds and v.certificate == "sampled(seed=0,n=200)"


def test_auto_samples_when_only_the_pairs_fit(monkeypatch):
    # 8^2 pairs fit a cap of 100, 8^3 triples do not: no pair enumeration runs
    monkeypatch.setenv("COMPLEN_COST_CAP", "100")
    a = _random_table(F2, 3, False, 1)
    pair = (a.basis_element(1),) * 2  # a pair that violates the law
    assert check_descending(a, "flexible", candidates=[pair]).certificate == "candidate"
    v = check_descending(a, "flexible")
    assert not v.holds and v.certificate == "sampled(seed=0,n=200)"


# --- element scans ---------------------------------------------------------------


def test_find_isotropic_candidates_route(monkeypatch):
    # a scan cap below the element count leaves nothing searched
    monkeypatch.setattr(checkers, "ELEMENT_SCAN_CAP", 10)
    a = make_okubo_isotropic(F5, F5.from_int(2), F5.from_int(3))
    assert find_isotropic(a) == ([], False)


def test_element_scan_too_large_falls_back(monkeypatch):
    monkeypatch.setattr(checkers, "ELEMENT_SCAN_CAP", 10)
    a = make_okubo_idempotent(F5, F5.one(), F5.one())
    els, exhaustive = find_idempotents(a)
    assert not exhaustive


# --- floors, bounds, report validation -------------------------------------------


def test_floor_tables():
    assert [flexible_floor(k) for k in range(7)] == [0, 1, 2, 5, 7, 9, 15]
    assert [alternative_floor(k) for k in range(6)] == [0, 1, 2, 5, 10, 19]


def test_length_upper_bound():
    assert length_upper_bound(8, 0, "flexible") == 4
    assert length_upper_bound(8, 0, "alternative") == 3
    assert length_upper_bound(8, 1, "flexible") == 4
    assert length_upper_bound(8, 1, "alternative") == 3
    assert length_upper_bound(4, 1, "flexible") == 2
    assert length_upper_bound(2, 1, "flexible") == 1
    assert length_upper_bound(1, 1, "flexible") == 0


def test_validate_report_clean():
    assert validate_report((1, 2, 1), 2, True, 4, True, kinds=("flexible",), rank=2) == []
    assert validate_report((0, 2, 3, 2, 1), 4, True, 8, False, kinds=("flexible",), rank=2) == []


def test_validate_report_single_violations():
    assert any("d0" in v for v in validate_report((1, 1), 1, False, 4, False))
    assert any("negative" in v for v in validate_report((0, -1), 1, False, 4, False))
    assert any("max nonzero" in v for v in validate_report((0, 2, 1), 1, False, 8, False))
    assert any("beyond dim" in v for v in validate_report((1, 4), 1, False, 4, True))
    assert any("generating" in v for v in validate_report((1, 1), 1, True, 4, True))
    assert any("rank" in v for v in validate_report((0, 3), 1, False, 8, False, rank=2))


def test_validate_report_structural_laws():
    # interior zero breaks plateau persistence
    out = validate_report((0, 2, 0, 1), 3, False, 8, False, kinds=("flexible",))
    assert any("plateau" in v for v in out)
    # a generating length-5 report cannot fit in dimension 8
    out = validate_report((0, 2, 2, 2, 1, 1), 5, True, 8, False, kinds=("flexible",))
    assert "flexible bound violated: needs dim-d0 >= 9" in out
    # flexible growth law: d3 >= 1 forces d1, d2 >= 2
    out = validate_report((0, 1, 1, 2), 3, False, 8, False, kinds=("flexible",))
    assert sum("growth law" in v for v in out) == 2
    assert validate_report((), 0, False, 4, False) == ["empty difference sequence"]
