"""Exact field arithmetic: Q, GF(p), and GF(p^k) for k = 2..4.

Every scalar is a plain hashable Python number, and zero is the falsy one in
every field. Over the rationals a scalar is an int when its value is
integral and a Fraction otherwise. Over a finite field of q elements it is
its index 0..q-1 in enumeration order: the residue itself in GF(p), and in
GF(p^k) the base-p number whose digits are the coefficients, constant
coefficient first (ExtensionField). Every operation is exact.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .errors import (
    CostCapExceeded,
    DegenerateLeadingCoefficient,
    FieldSpecError,
    InfiniteField,
    NotPrime,
    ParseError,
    ReducibleModulus,
    UnsupportedDegree,
)

Scalar = Union[Fraction, int]

EXTENSION_MAX = 2**16  # elements of an extension field; its log tables hold one entry each
ELEMENT_SCAN_CAP = 10**6  # elements any scan over a finite field or an algebra may visit
DEFAULT_COST_CAP = 10**7  # work units of an exhaustive search; COMPLEN_COST_CAP overrides it


def cost_cap() -> int:
    """The cap every exhaustive search prices itself against: subspaces in the
    length search, element tuples in direct identity evaluation, and pairs
    and triples in descending checks and certificate acquisition. It is a
    non-negative integer; any other COMPLEN_COST_CAP raises ParseError."""
    raw = os.environ.get("COMPLEN_COST_CAP", str(DEFAULT_COST_CAP))
    try:
        cap = int(raw)
    except ValueError:
        raise ParseError(f"COMPLEN_COST_CAP must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ParseError(f"COMPLEN_COST_CAP must not be negative, got {raw!r}")
    return cap


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # smallest strong pseudoprime to all of them


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2..41, exact below _MR_LIMIT."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise FieldSpecError(f"primality is decided only below {_MR_LIMIT}, not for {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Parsed description of a supported field.

    kind is one of "rational", "prime", "prime-power". For prime powers the
    modulus holds k+1 coefficients, constant first, and must be monic.
    """

    kind: str
    p: int = 0
    k: int = 1
    modulus: tuple[int, ...] = ()

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        text = text.strip()
        if text == "Q":
            return FieldSpec("rational")
        if not text.startswith("F"):
            raise FieldSpecError(f"unrecognized field spec {text!r}")
        body = text[1:]
        if "^" not in body:
            try:
                p = int(body)
            except ValueError:
                raise FieldSpecError(f"bad prime in field spec {text!r}") from None
            return FieldSpec("prime", p=p)
        head, _, tail = body.partition("^")
        try:
            p = int(head)
        except ValueError:
            raise FieldSpecError(f"bad prime in field spec {text!r}") from None
        kpart, _, cpart = tail.partition(":")
        try:
            k = int(kpart)
        except ValueError:
            raise FieldSpecError(f"bad degree in field spec {text!r}") from None
        if not cpart:
            raise FieldSpecError(f"missing modulus coefficients in {text!r}")
        try:
            coeffs = tuple(int(c) for c in cpart.split(","))
        except ValueError:
            raise FieldSpecError(f"bad modulus coefficient in {text!r}") from None
        return FieldSpec("prime-power", p=p, k=k, modulus=coeffs)

    def format(self) -> str:
        if self.kind == "rational":
            return "Q"
        if self.kind == "prime":
            return f"F{self.p}"
        return f"F{self.p}^{self.k}:" + ",".join(str(c) for c in self.modulus)


class Field:
    """Common interface for the exact field handles below."""

    spec: FieldSpec

    def zero(self) -> Scalar:
        return 0

    def one(self) -> Scalar:
        raise NotImplementedError

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def neg(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def inv(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def characteristic(self) -> int:
        raise NotImplementedError

    def cardinality(self) -> int | None:
        """Number of elements, or None for infinite fields."""
        raise NotImplementedError

    def enumerate(self) -> Iterator[Scalar]:
        """All elements in index order, 0..q-1 (finite fields only)."""
        q = self.cardinality()
        if q is None:
            raise InfiniteField("cannot enumerate the rationals")
        return iter(range(q))

    def from_int(self, n: int) -> Scalar:
        """The image of the integer n under the canonical ring map Z -> F."""
        raise NotImplementedError

    def parse(self, text: str) -> Scalar:
        raise NotImplementedError

    def format(self, a: Scalar) -> str:
        raise NotImplementedError

    def sort_key(self, a: Scalar):
        """Total order on scalars used for deterministic tie-breaking."""
        return a

    def is_finite(self) -> bool:
        return self.cardinality() is not None

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return f"Field({self.spec.format()})"


def _rational(x):
    """x as a rational scalar: its numerator when integral, else the Fraction."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


class RationalField(Field):
    """Q. An integral value is an int, so integer tables never touch Fraction;
    hash(Fraction(n)) == hash(n) and Fraction(n) == n, so mixed input works."""

    def __init__(self):
        self.spec = FieldSpec("rational")

    def one(self):
        return 1

    def add(self, a, b):
        return _rational(a + b)

    def sub(self, a, b):
        return _rational(a - b)

    def mul(self, a, b):
        return _rational(a * b)

    def neg(self, a):
        return _rational(-a)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _rational(1 / Fraction(a))

    def characteristic(self):
        return 0

    def cardinality(self):
        return None

    def from_int(self, n):
        return int(n)

    def parse(self, text):
        text = text.strip()
        try:
            return _rational(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise FieldSpecError(f"bad rational scalar {text!r}") from None

    def format(self, a):
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def sort_key(self, a):
        return (a.numerator, a.denominator)


class PrimeField(Field):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.spec = FieldSpec("prime", p=p)

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def characteristic(self):
        return self.p

    def cardinality(self):
        return self.p

    def from_int(self, n):
        return n % self.p

    def parse(self, text):
        text = text.strip()
        try:
            return int(text) % self.p
        except ValueError:
            raise FieldSpecError(f"bad residue {text!r} for GF({self.p})") from None

    def format(self, a):
        return str(a % self.p)



def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Whether a monic polynomial of degree 2..4 over GF(p) is irreducible:
    it has no root and, at degree 4, no factor (X^2 + bX + c)(X^2 + dX + e)."""
    co = [c % p for c in coeffs]
    for r in range(p):
        acc = 0
        for c in reversed(co):
            acc = (acc * r + c) % p
        if acc == 0:
            return False
    if len(co) < 5:
        return True
    a0, a1, a2, a3 = co[:4]
    for b in range(p):
        d = (a3 - b) % p
        for c in range(p):
            e = (a2 - c - b * d) % p
            if (b * e + c * d - a1) % p == 0 and (c * e - a0) % p == 0:
                return False
    return True


def _digits(n: int, p: int, k: int) -> list[int]:
    """The k base-p digits of n, most significant first."""
    return [n // p ** (k - 1 - i) % p for i in range(k)]


@functools.cache
def _log_tables(p: int, k: int, modulus: tuple[int, ...]) -> tuple[tuple, tuple, tuple]:
    """(exp, log, zech) of GF(p)[X]/(modulus) on index-coded scalars.

    exp[i] = g^i for the first g in index order whose powers reach every
    nonzero element; the walk multiplies a coefficient vector by the matrix
    whose column j is g*X^j. log inverts exp (log[0] is None), and
    zech[n] = log(1 + g^n). exp and zech are stored twice over, so a sum or
    difference of two logs indexes them without reduction. Every field of one
    (p, k, modulus) shares the cached tables, so they are immutable tuples.
    """
    q, one = p**k, p ** (k - 1)

    def times_x(c):
        return [-c[-1] * modulus[0] % p] + [(c[i - 1] - c[-1] * modulus[i]) % p for i in range(1, k)]

    for g in range(1, q):
        cols = [_digits(g, p, k)]
        while len(cols) < k:
            cols.append(times_x(cols[-1]))
        exp, c = [one], _digits(one, p, k)
        while True:
            c = [sum(cj * col[i] for cj, col in zip(c, cols)) % p for i in range(k)]
            n = 0
            for ci in c:
                n = n * p + ci
            if n == one:
                break
            exp.append(n)
        if len(exp) == q - 1:
            break
    log = [None] * q
    for i, n in enumerate(exp):
        log[n] = i
    zech = [log[(n // one + 1) % p * one + n % one] for n in exp]
    return tuple(exp * 2), tuple(log), tuple(zech * 2)


class ExtensionField(Field):
    """GF(p^k) = GF(p)[X]/(modulus), 2 <= k <= 4, at most EXTENSION_MAX elements.

    A scalar is the int sum of c_i p^(k-1-i) over its coefficients c_0..c_{k-1}
    (constant first and most significant), its index in enumeration order.
    With g^i = exp[i], products add logs, and g^i + g^j = g^(i + zech[j - i]);
    -1 = g^h with h = (q-1)/2, or 0 in characteristic 2.
    """

    def __init__(self, p: int, k: int, modulus: Sequence[int]):
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if k < 2 or k > 4:
            raise UnsupportedDegree(f"extension degree must be 2..4, got {k}")
        if p**k > EXTENSION_MAX:
            raise FieldSpecError(f"GF({p}^{k}) has more than {EXTENSION_MAX} elements")
        if len(modulus) != k + 1:
            raise ReducibleModulus(f"modulus needs {k + 1} coefficients, got {len(modulus)}")
        mod = tuple(c % p for c in modulus)
        if mod[-1] != 1:
            raise ReducibleModulus("modulus must be monic")
        if not _is_irreducible(mod, p):
            raise ReducibleModulus(f"modulus {mod} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.modulus = mod
        self.spec = FieldSpec("prime-power", p=p, k=k, modulus=mod)
        self._one = p ** (k - 1)
        self._h = 0 if p == 2 else (p**k - 1) // 2
        self._exp, self._log, self._zech = _log_tables(p, k, mod)

    def one(self):
        return self._one

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        i = self._log[a]
        z = self._zech[self._log[b] - i]
        return 0 if z is None else self._exp[i + z]

    def sub(self, a, b):
        if not b:
            return a
        j = self._log[b] + self._h  # log of -b
        if not a:
            return self._exp[j]
        i = self._log[a]
        z = self._zech[j - i]
        return 0 if z is None else self._exp[i + z]

    def neg(self, a):
        return self._exp[self._log[a] + self._h] if a else 0

    def mul(self, a, b):
        if a and b:
            log = self._log
            return self._exp[log[a] + log[b]]
        return 0

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[-self._log[a]]

    def characteristic(self):
        return self.p

    def cardinality(self):
        return self.p**self.k

    def from_int(self, n):
        return n % self.p * self._one

    def parse(self, text):
        text = text.strip()
        if "," not in text:
            try:
                return self.from_int(int(text))
            except ValueError:
                raise FieldSpecError(f"bad scalar {text!r}") from None
        parts = text.split(",")
        if len(parts) != self.k:
            raise FieldSpecError(
                f"scalar {text!r} needs {self.k} coefficients for GF({self.p}^{self.k})"
            )
        n = 0
        try:
            for c in parts:
                n = n * self.p + int(c) % self.p
        except ValueError:
            raise FieldSpecError(f"bad coefficient in scalar {text!r}") from None
        return n

    def format(self, a):
        return ",".join(map(str, _digits(a, self.p, self.k)))


def field_make(spec: FieldSpec | str) -> Field:
    """Build a field handle from a FieldSpec or its textual form."""
    if isinstance(spec, str):
        spec = FieldSpec.parse(spec)
    if spec.kind == "rational":
        return RationalField()
    if spec.kind == "prime":
        return PrimeField(spec.p)
    if spec.kind == "prime-power":
        return ExtensionField(spec.p, spec.k, spec.modulus)
    raise FieldSpecError(f"unknown field kind {spec.kind!r}")


def _rational_sqrt(a: Fraction) -> Fraction | None:
    if a < 0:
        return None
    n, d = a.numerator, a.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _scan(field: Field) -> range:
    """Every element of a finite field, in index order, if there are at most
    ELEMENT_SCAN_CAP; the root searches below are such scans."""
    q = field.cardinality()
    if q > ELEMENT_SCAN_CAP:
        raise CostCapExceeded(
            f"a scan over GF({q}) visits more than {ELEMENT_SCAN_CAP} elements", estimate=q
        )
    return range(q)


def solve_quadratic(field: Field, a: Scalar, b: Scalar, c: Scalar) -> set:
    """All roots of a*X^2 + b*X + c in the field. a must be nonzero."""
    if not a:
        raise DegenerateLeadingCoefficient("leading coefficient is zero")
    if field.is_finite():
        f = field
        return {x for x in _scan(f) if not f.add(f.mul(a, f.mul(x, x)), f.add(f.mul(b, x), c))}
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    r = _rational_sqrt(b * b - 4 * a * c)
    if r is None:
        return set()
    return {_rational((-b + r) / (2 * a)), _rational((-b - r) / (2 * a))}


def random_scalar(field: Field, rng) -> Scalar:
    """A seeded random scalar; bounded small integers over the rationals."""
    card = field.cardinality()
    if card is None:
        return _rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    return rng.randrange(card)


def _monotone_int_root(g, lo: int, hi: int, sign: int) -> bool:
    """Whether g has an integer root in [lo, hi], where sign*g is nondecreasing."""
    while lo < hi:
        mid = (lo + hi) // 2
        if sign * g(mid) < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo == hi and g(lo) == 0


def is_irreducible_cubic(field: Field, c1: Scalar, c0: Scalar) -> bool:
    """Whether X^3 + c1*X + c0 has no root in the field.

    For a cubic, rootlessness is exactly irreducibility. Over the rationals
    X = Y/L, L the common denominator of c1 and c0, gives the monic integer
    cubic g(Y) = Y^3 + P*Y + R, whose rational roots are integers of absolute
    value at most 1 + max(|P|, |R|). g is monotone on the integers left of,
    between, and right of its critical points +-sqrt(-P/3), so bisection on
    each piece finds them without factoring anything.
    """
    if field.is_finite():
        f = field
        return all(f.add(f.mul(x, f.mul(x, x)), f.add(f.mul(c1, x), c0)) for x in _scan(f))
    c1, c0 = Fraction(c1), Fraction(c0)
    lcd = math.lcm(c1.denominator, c0.denominator)
    P, R = int(c1 * lcd**2), int(c0 * lcd**3)

    def g(y):
        return y * y * y + P * y + R

    bound = 1 + max(abs(P), abs(R))
    if P >= 0:
        pieces = [(-bound, bound, 1)]
    else:
        a = math.isqrt(-P // 3)  # floor of the critical point sqrt(-P/3)
        pieces = [(-bound, -a - 1, 1), (-a, a, -1), (a + 1, bound, 1)]
    return not any(_monotone_int_root(g, lo, hi, sign) for lo, hi, sign in pieces)
