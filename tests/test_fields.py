"""Field arithmetic, parsing, and the small polynomial solvers."""

import functools
import itertools
import math
import numbers
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complen.constructors import make_hurwitz_tower
from complen.errors import CostCapExceeded, FieldSpecError, NotPrime, ReducibleModulus
from complen.fields import (
    ELEMENT_SCAN_CAP,
    EXTENSION_MAX,
    FieldSpec,
    _is_prime,
    _log_tables,
    field_make,
    is_irreducible_cubic,
    random_scalar,
    solve_quadratic,
)
from complen.iofmt import dump_algebra, parse_algebra

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


# --- index-coded extension fields against the tuple arithmetic -------------------
#
# The reference below is the tuple arithmetic that extension fields used before
# their scalars became ints: coefficient tuples, constant coefficient first, a
# schoolbook product reduced by the monic modulus, and the inverse by extended
# Euclid in GF(p)[x].


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(a, b, p):
    a = a[:]
    binv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _poly_trim(a):
        shift = len(a) - len(b)
        coef = (a[-1] * binv) % p
        q[shift] = coef
        for i, bc in enumerate(b):
            a[i + shift] = (a[i + shift] - coef * bc) % p
        _poly_trim(a)
    return _poly_trim(q), a


def _poly_mulmod(a, b, modulus, p):
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, k - 1, -1):
        c, prod[d] = prod[d], 0
        for i in range(k):
            prod[i + d - k] = (prod[i + d - k] - c * modulus[i]) % p
    return tuple(prod[:k])


def _euclid_inverse(a, modulus, p):
    k = len(modulus) - 1
    r0, r1 = list(modulus), _poly_trim(list(a))
    s0, s1 = [], [1]
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        s = s0[:]
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                while len(s) <= i + j:
                    s.append(0)
                s[i + j] = (s[i + j] - qi * sj) % p
        _poly_trim(s)
        r0, r1, s0, s1 = r1, r, s1, s
    c = pow(r0[0], p - 2, p)
    out = [(c * x) % p for x in s0] + [0] * k
    return tuple(out[:k])


class _TupleField:
    """GF(p^k) on coefficient tuples, constant coefficient first."""

    def __init__(self, f):
        self.p, self.k, self.modulus = f.p, f.k, f.modulus

    def code(self, t):  # the tuple's index: constant coefficient most significant
        n = 0
        for c in t:
            n = n * self.p + c
        return n

    def tup(self, n):
        return tuple(n // self.p ** (self.k - 1 - i) % self.p for i in range(self.k))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        return _poly_mulmod(a, b, self.modulus, self.p)

    def inv(self, a):
        return _euclid_inverse(a, self.modulus, self.p)


SMALL_EXTENSIONS = (
    "F2^2:1,1,1", "F2^3:1,1,0,1", "F3^2:1,0,1", "F2^4:1,1,0,0,1", "F5^2:2,0,1", "F3^3:1,2,0,1",
)
LARGE_EXTENSIONS = ("F13^4:2,0,0,0,1", "F37^3:2,0,0,1", "F251^2:1,0,1")
_built = functools.lru_cache(maxsize=None)(field_make)


def _agrees_with_tuples(f, ref, a, b):
    ta, tb = ref.tup(a), ref.tup(b)
    assert f.add(a, b) == ref.code(ref.add(ta, tb)), (a, b)
    assert f.sub(a, b) == ref.code(ref.sub(ta, tb)), (a, b)
    assert f.mul(a, b) == ref.code(ref.mul(ta, tb)), (a, b)
    assert f.neg(a) == ref.code(ref.neg(ta)), a
    if b:
        assert f.inv(b) == ref.code(ref.inv(tb)), b
        assert f.div(a, b) == ref.code(ref.mul(ta, ref.inv(tb))), (a, b)


@pytest.mark.parametrize("spec", SMALL_EXTENSIONS)
def test_extension_ops_match_tuple_arithmetic_on_every_pair(spec):
    f = field_make(spec)
    ref = _TupleField(f)
    assert [ref.tup(x) for x in f.enumerate()] == sorted(ref.tup(x) for x in range(f.cardinality()))
    for a in f.enumerate():
        for b in f.enumerate():
            _agrees_with_tuples(f, ref, a, b)
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero())


@pytest.mark.parametrize("spec", LARGE_EXTENSIONS)
def test_extension_ops_match_tuple_arithmetic_on_seeded_samples(spec):
    f = _built(spec)
    ref = _TupleField(f)
    rng = random.Random(spec)
    q = f.cardinality()
    special = [0, f.one(), f.neg(f.one()), 1, q - 1]
    pairs = [(a, b) for a in special for b in special]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(3000)]
    for a, b in pairs:
        _agrees_with_tuples(f, ref, a, b)


@pytest.mark.parametrize("spec", SMALL_EXTENSIONS + LARGE_EXTENSIONS)
def test_extension_parse_format_and_from_int(spec):
    f = _built(spec)
    ref = _TupleField(f)
    rng = random.Random(spec)
    q = f.cardinality()
    for x in {0, 1, q - 1} | {rng.randrange(q) for _ in range(200)}:
        text = ",".join(map(str, ref.tup(x)))
        assert f.format(x) == text and f.parse(text) == x
    assert f.one() == ref.code((1,) + (0,) * (f.k - 1))
    for n in (-7, -1, 0, 1, 2, f.p, f.p + 3, 10**9):
        assert f.from_int(n) == ref.code((n % f.p,) + (0,) * (f.k - 1))
        assert f.parse(str(n)) == f.from_int(n)
    with pytest.raises(FieldSpecError):
        f.parse("1," * f.k)
    with pytest.raises(FieldSpecError):
        f.parse("x" + ",0" * (f.k - 1))


def test_irreducibility_matches_trial_division_by_monic_quadratics():
    from complen.fields import _is_irreducible

    def by_division(co, p):
        if any(sum(c * r**i for i, c in enumerate(co)) % p == 0 for r in range(p)):
            return False
        return len(co) < 5 or all(
            _poly_divmod(list(co), [c, b, 1], p)[1] for b in range(p) for c in range(p)
        )

    for p in (2, 3, 5):
        for k in (2, 3, 4):
            for low in itertools.product(range(p), repeat=k):
                co = low + (1,)
                assert _is_irreducible(co, p) == by_division(co, p), (p, co)


@pytest.mark.parametrize("spec", ("F257^2:3,0,1", "F1009^4:11,0,0,0,1"))
def test_extension_fields_above_the_size_limit_are_rejected(spec):
    t = time.perf_counter()
    with pytest.raises(FieldSpecError):
        field_make(spec)
    assert time.perf_counter() - t < 0.1


def test_the_largest_allowed_extension_builds_quickly():
    _log_tables.cache_clear()  # earlier tests built these tables: time a fresh build
    t = time.perf_counter()
    f = field_make("F251^2:1,0,1")
    assert time.perf_counter() - t < 2.0
    assert f.cardinality() <= EXTENSION_MAX < 257**2


def test_extension_tables_are_built_once_and_shared():
    # x^2 + 1 and x^2 + x + 2 are both irreducible over F3
    f, g, h = field_make("F3^2:1,0,1"), field_make("F3^2:1,0,1"), field_make("F3^2:2,1,1")
    assert f is not g and f == g and hash(f) == hash(g)
    assert (f._exp, f._log, f._zech) == (g._exp, g._log, g._zech)
    assert f._exp is g._exp and f._log is g._log and f._zech is g._zech
    # every build of GF(9) holds these very tables, so none may change them
    assert all(isinstance(t, tuple) for t in (f._exp, f._log, f._zech))
    assert h != f and h._exp is not f._exp
    # a parsed file builds its field again and still shares the tables
    b = parse_algebra(dump_algebra(make_hurwitz_tower(f, None, (f.one(),))))
    assert b.field == f and b.field._log is f._log
    x, y = f.parse("1,2"), f.parse("2,2")
    assert g.mul(x, y) == f.mul(x, y) and g.add(x, y) == f.add(x, y)


@pytest.mark.parametrize("spec", ("Q", "F2", "F7", "F1000000007") + SMALL_EXTENSIONS[:3])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_zero_is_the_only_falsy_scalar(spec, data):
    f = field_make(spec)
    if f.is_finite():
        x = data.draw(st.integers(0, f.cardinality() - 1))
    else:
        x = Q.parse(str(data.draw(st.fractions(max_denominator=20))))
    for y in (x, f.neg(x), f.mul(x, x), f.add(x, f.one()), f.sub(x, x)):
        assert bool(y) == (y != f.zero())
        assert not isinstance(y, tuple)
    assert not f.zero() and f.one()


@pytest.mark.parametrize("solve", ("cubic", "quadratic"))
def test_finite_root_searches_stop_at_the_element_cap(solve):
    f = field_make("F1000000007")
    assert f.cardinality() > ELEMENT_SCAN_CAP
    t = time.perf_counter()
    with pytest.raises(CostCapExceeded) as info:
        if solve == "cubic":
            is_irreducible_cubic(f, f.from_int(-3), f.from_int(-1))
        else:
            solve_quadratic(f, f.from_int(3), f.from_int(-3), f.one())
    assert info.value.estimate == f.cardinality()
    assert time.perf_counter() - t < 0.5
