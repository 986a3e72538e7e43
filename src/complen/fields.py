"""Exact field arithmetic: Q, GF(p), and GF(p^k) for k <= 4.

Scalars are plain hashable Python values: for the rationals an int when the
value is integral and a Fraction otherwise, int residues in [0, p) for prime
fields, and tuples of k residues (constant coefficient first) for extension
fields. Every operation is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .errors import (
    DegenerateLeadingCoefficient,
    FieldSpecError,
    InfiniteField,
    NotPrime,
    ReducibleModulus,
    UnsupportedDegree,
)

Scalar = Union[Fraction, int, tuple]


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
        raise NotImplementedError

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
        """All elements in a fixed lexicographic order (finite fields only)."""
        raise NotImplementedError

    def from_int(self, n: int) -> Scalar:
        """The image of the integer n under the canonical ring map Z -> F."""
        raise NotImplementedError

    def parse(self, text: str) -> Scalar:
        raise NotImplementedError

    def format(self, a: Scalar) -> str:
        raise NotImplementedError

    def sort_key(self, a: Scalar):
        """Total order on scalars used for deterministic tie-breaking."""
        raise NotImplementedError

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

    def zero(self):
        return 0

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

    def enumerate(self):
        raise InfiniteField("cannot enumerate the rationals")

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

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

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

    def enumerate(self):
        return iter(range(self.p))

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

    def sort_key(self, a):
        return a


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Division with remainder in GF(p)[x]; b must be nonzero."""
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


def _poly_mulmod(a: tuple[int, ...], b: tuple[int, ...], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by the monic modulus
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            shift = d - k
            for i in range(k):
                prod[i + shift] = (prod[i + shift] - c * modulus[i]) % p
    return tuple(prod[:k])


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Exhaustive root/factor test for monic polynomials of degree <= 4 over GF(p)."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    co = [c % p for c in coeffs]
    for r in range(p):
        acc = 0
        for c in reversed(co):
            acc = (acc * r + c) % p
        if acc == 0:
            return False
    if deg <= 3:
        return True
    # degree 4, rootless: rule out monic quadratic factors
    for b in range(p):
        for c in range(p):
            _, rem = _poly_divmod(list(co), [c, b, 1], p)
            if not rem:
                return False
    return True


class ExtensionField(Field):
    def __init__(self, p: int, k: int, modulus: Sequence[int]):
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if k < 2 or k > 4:
            raise UnsupportedDegree(f"extension degree must be 2..4, got {k}")
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

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        return _poly_mulmod(a, b, self.modulus, self.p)

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid in GF(p)[x]
        p = self.p
        r0, r1 = list(self.modulus), _poly_trim(list(a))
        s0, s1 = [], [1]
        while r1:
            q, r = _poly_divmod(r0, r1, p)
            # s = s0 - q*s1
            s = s0[:]
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        idx = i + j
                        while len(s) <= idx:
                            s.append(0)
                        s[idx] = (s[idx] - qi * sj) % p
            _poly_trim(s)
            r0, r1, s0, s1 = r1, r, s1, s
        # r0 is the gcd, a nonzero constant since the modulus is irreducible
        c = pow(r0[0], p - 2, p)
        out = [(c * x) % p for x in s0]
        out += [0] * (self.k - len(out))
        return tuple(out[: self.k])

    def characteristic(self):
        return self.p

    def cardinality(self):
        return self.p**self.k

    def enumerate(self):
        # lexicographic on the coefficient tuple, constant coefficient slowest
        for digits in itertools.product(range(self.p), repeat=self.k):
            yield tuple(digits)

    def from_int(self, n):
        return (n % self.p,) + (0,) * (self.k - 1)

    def parse(self, text):
        text = text.strip()
        if "," in text:
            parts = text.split(",")
            if len(parts) != self.k:
                raise FieldSpecError(
                    f"scalar {text!r} needs {self.k} coefficients for GF({self.p}^{self.k})"
                )
            try:
                return tuple(int(c) % self.p for c in parts)
            except ValueError:
                raise FieldSpecError(f"bad coefficient in scalar {text!r}") from None
        try:
            return self.from_int(int(text))
        except ValueError:
            raise FieldSpecError(f"bad scalar {text!r}") from None

    def format(self, a):
        return ",".join(str(c) for c in a)

    def sort_key(self, a):
        return a


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


def solve_quadratic(field: Field, a: Scalar, b: Scalar, c: Scalar) -> set:
    """All roots of a*X^2 + b*X + c in the field. a must be nonzero."""
    if a == field.zero():
        raise DegenerateLeadingCoefficient("leading coefficient is zero")
    if field.is_finite():
        roots = set()
        for x in field.enumerate():
            v = field.add(field.mul(a, field.mul(x, x)), field.add(field.mul(b, x), c))
            if v == field.zero():
                roots.add(x)
        return roots
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
    index = rng.randrange(card)
    if isinstance(field, PrimeField):
        return index
    # the index-th element of field.enumerate(): base-p digits of the index,
    # first coefficient most significant
    p, k = field.p, field.k
    return tuple(index // p ** (k - 1 - i) % p for i in range(k))


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
        for x in field.enumerate():
            x3 = field.mul(x, field.mul(x, x))
            v = field.add(x3, field.add(field.mul(c1, x), c0))
            if v == field.zero():
                return False
        return True
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
