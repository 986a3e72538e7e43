"""Field arithmetic, parsing, and the small polynomial solvers."""

import math
import numbers
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complen.errors import FieldSpecError, NotPrime, ReducibleModulus
from complen.fields import (
    FieldSpec,
    _is_prime,
    field_make,
    is_irreducible_cubic,
    random_scalar,
    solve_quadratic,
)

F2 = field_make("F2")
F3 = field_make("F3")
F5 = field_make("F5")
F7 = field_make("F7")
F4 = field_make("F2^2:1,1,1")  # x^2 + x + 1
Q = field_make("Q")

ALL_FINITE = (F2, F3, F5, F7, F4)


def test_fieldspec_roundtrip():
    for text in ("Q", "F2", "F7", "F2^2:1,1,1"):
        spec = FieldSpec.parse(text)
        assert spec.format() == text
        assert field_make(text).spec == spec


def test_fieldspec_rejects_garbage():
    for text in ("", "F", "Fx", "F4", "R", "F2^2:1,1"):
        with pytest.raises((FieldSpecError, NotPrime, ReducibleModulus)):
            field_make(text)


def test_non_prime_rejected():
    with pytest.raises(NotPrime):
        field_make("F6")


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert [n for n in range(3000) if _is_prime(n) != trial(n)] == []


def test_large_prime_field_builds_quickly():
    start = time.perf_counter()
    f = field_make("F1000000000000000003")
    assert time.perf_counter() - start < 1.0
    assert f.characteristic() == 1000000000000000003


@pytest.mark.parametrize("n", (561, 3215031751))
def test_pseudoprimes_rejected(n):
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to 2, 3, 5, 7
    with pytest.raises(NotPrime):
        field_make(f"F{n}")


def test_primality_beyond_the_deterministic_bound_is_an_error():
    with pytest.raises(FieldSpecError):
        field_make("F3317044064679887385961981")


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)^2 over F2
    with pytest.raises(ReducibleModulus):
        field_make("F2^2:1,0,1")


@pytest.mark.parametrize("f", ALL_FINITE, ids=lambda f: f.spec.format())
def test_finite_field_axioms_exhaustive(f):
    elems = list(f.enumerate())
    assert len(elems) == f.cardinality()
    zero, one = f.zero(), f.one()
    assert zero in elems and one in elems
    for a in elems:
        assert f.add(a, zero) == a
        assert f.mul(a, one) == a
        assert f.add(a, f.neg(a)) == zero
        if a != zero:
            assert f.mul(a, f.inv(a)) == one
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
            for c in elems:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_characteristic_and_cardinality():
    assert (F2.characteristic(), F2.cardinality()) == (2, 2)
    assert (F4.characteristic(), F4.cardinality()) == (2, 4)
    assert (Q.characteristic(), Q.cardinality()) == (0, None)
    assert not Q.is_finite() and F4.is_finite()


@given(st.fractions(), st.fractions())
@settings(max_examples=100)
def test_rational_ops_are_exact_fractions(a, b):
    assert Q.add(a, b) == a + b
    assert Q.mul(a, b) == a * b
    assert isinstance(Q.add(a, b), numbers.Rational)


def test_rational_parse_format_roundtrip():
    for text in ("0", "7", "-3", "22/7", "-9/4"):
        x = Q.parse(text)
        assert Q.format(x) == text
    with pytest.raises(FieldSpecError):
        Q.parse("1.5x")


def test_from_int_wraps_modulus():
    assert F5.from_int(7) == F5.from_int(2)
    assert F5.from_int(-1) == F5.from_int(4)
    assert Q.from_int(-3) == Fraction(-3)


def test_extension_parse_format():
    x = F4.parse("1,1")  # 1 + t
    assert F4.format(x) == "1,1"
    assert F4.mul(x, x) == F4.parse("0,1")  # (1+t)^2 = t since t^2 = t+1


def test_enumeration_order_is_stable():
    assert [F3.format(x) for x in F3.enumerate()] == ["0", "1", "2"]
    assert [F4.format(x) for x in F4.enumerate()] == ["0,0", "0,1", "1,0", "1,1"]


@pytest.mark.parametrize("spec", ("F5", "F2^2:1,1,1", "F3^2:1,0,1", "F2^3:1,1,0,1"))
def test_random_scalar_is_the_enumerated_element_at_a_random_index(spec):
    f = field_make(spec)
    attrs = dict(vars(f))
    elems = list(f.enumerate())
    rng, twin = random.Random(7), random.Random(7)
    for _ in range(500):
        assert random_scalar(f, rng) == elems[twin.randrange(len(elems))]
    assert vars(f) == attrs


def test_solve_quadratic_gf7_pseudo_octonion_parameter():
    three = F7.from_int(3)
    roots = solve_quadratic(F7, three, F7.neg(three), F7.one())
    assert roots == {F7.from_int(2), F7.from_int(6)}


def test_solve_quadratic_gf5_no_roots():
    three = F5.from_int(3)
    assert solve_quadratic(F5, three, F5.neg(three), F5.one()) == set()


def test_solve_quadratic_char2_artin_schreier():
    # x^2 + x + 1 over F2 has no roots; over F4 it has both non-subfield elements
    one = F2.one()
    assert solve_quadratic(F2, one, one, one) == set()
    roots = solve_quadratic(F4, F4.one(), F4.one(), F4.one())
    assert roots == {F4.parse("0,1"), F4.parse("1,1")}


def test_solve_quadratic_rationals():
    # x^2 - 5x + 6 and an irrational discriminant
    assert solve_quadratic(Q, Q.one(), Q.from_int(-5), Q.from_int(6)) == {
        Fraction(2),
        Fraction(3),
    }
    assert solve_quadratic(Q, Q.one(), Q.zero(), Q.from_int(-2)) == set()
    assert solve_quadratic(Q, Q.one(), Q.zero(), Q.from_int(-9)) == {
        Fraction(3),
        Fraction(-3),
    }


def test_irreducible_cubic_detector():
    # x^3 - 3x - 1 over F5 has no root; over Q x^3 - 3x - 18 has root 3
    assert is_irreducible_cubic(F5, F5.neg(F5.from_int(3)), F5.neg(F5.one()))
    assert not is_irreducible_cubic(Q, Q.from_int(-3), Q.from_int(-18))


@given(st.integers(), st.integers())
@settings(max_examples=60)
def test_prime_field_matches_int_mod_p(a, b):
    x, y = F7.from_int(a), F7.from_int(b)
    assert F7.add(x, y) == F7.from_int(a + b)
    assert F7.mul(x, y) == F7.from_int(a * b)


# --- integral rationals -------------------------------------------------------


def _canonical(x):
    return type(x) is int if Fraction(x).denominator == 1 else type(x) is Fraction


@given(st.fractions(), st.fractions(), st.booleans())
@settings(max_examples=200)
def test_rational_ops_are_int_exactly_when_integral(a, b, as_parsed):
    # operands as callers pass them (possibly Fraction(n)) or as Q codes them
    x, y = (Q.parse(str(a)), Q.parse(str(b))) if as_parsed else (a, b)
    results = [
        (Q.add(x, y), a + b),
        (Q.sub(x, y), a - b),
        (Q.mul(x, y), a * b),
        (Q.neg(x), -a),
        (Q.parse(str(a)), a),
        (Q.from_int(a.numerator), Fraction(a.numerator)),
        (Q.zero(), Fraction(0)),
        (Q.one(), Fraction(1)),
    ]
    if b:
        results += [(Q.inv(y), 1 / b), (Q.div(x, y), a / b)]
    for got, want in results:
        assert got == want and _canonical(got)
        assert hash(got) == hash(want) and Q.format(got) == Q.format(want)


def test_random_rational_draws_the_same_seeded_values():
    rng, twin = random.Random(11), random.Random(11)
    for _ in range(500):
        x = random_scalar(Q, rng)
        assert x == Fraction(twin.randint(-9, 9), twin.randint(1, 4)) and _canonical(x)


def test_rational_solvers_return_canonical_scalars():
    roots = solve_quadratic(Q, Fraction(4), Fraction(-4), Fraction(1)) | solve_quadratic(
        Q, Q.from_int(2), Q.from_int(-7), Q.from_int(3)
    )
    assert roots == {Fraction(1, 2), 3} and all(_canonical(r) for r in roots)


def _has_rational_root_by_divisors(c1, c0):
    # the rational root test on lcd*X^3 + lcd*c1*X + lcd*c0, by trial division
    c1, c0 = Fraction(c1), Fraction(c0)
    if c0 == 0:
        return True
    lcd = math.lcm(c1.denominator, c0.denominator)

    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    return any(
        cand**3 + c1 * cand + c0 == 0
        for pn in divisors(int(c0 * lcd))
        for qn in divisors(lcd)
        for cand in (Fraction(pn, qn), Fraction(-pn, qn))
    )


def test_rational_cubic_root_test_matches_divisor_method():
    values = sorted({Fraction(n, d) for n in range(-9, 10) for d in (1, 2, 3, 4)})
    reducible = 0
    for c1 in values:
        for c0 in values:
            expected = not _has_rational_root_by_divisors(c1, c0)
            assert is_irreducible_cubic(Q, c1, c0) == expected, (c1, c0)
            reducible += not expected
    assert reducible > 100  # the grid holds many cubics with a rational root


def test_rational_cubic_root_test_finds_huge_roots():
    t = time.perf_counter()
    r = 10**15 + 3  # X^3 - 3X - (r^3 - 3r) has the root r
    assert not is_irreducible_cubic(Q, -3, -(r**3 - 3 * r))
    assert not is_irreducible_cubic(Q, Fraction(-3, 4), Fraction(-(r**3 - 3 * r), 8))  # root r/2
    assert time.perf_counter() - t < 1.0
