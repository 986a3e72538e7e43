"""Exact certification of algebra identities and structural properties.

Each catalog identity is written once, as a function g(*args) that returns
its left-minus-right value, and is certified by its values at basis points.
Let g have degree 2 in each of its first q slots (q = 0, 1 or 2) and be
linear in the rest. Fix a basis tuple for the linear slots; a quadratic slot
runs over point(i, k) = e_i for i == k, then e_i + e_k for i < k, and the
slots run in that order with the first outermost. Then g is a sum of
coefficients c times one monomial x_i x_k per quadratic slot, and its value
at the points (point(i_1, k_1), ..., point(i_q, k_q)) is the sum of the
coefficients whose pair in each slot s lies in {(i_s, i_s), (k_s, k_s),
(i_s, k_s)}. Each of those pairs comes no later than (i_s, k_s) in its slot,
so every term but the tuple's own coefficient was read earlier: the first
nonzero value is exactly one coefficient, and its points are the
counterexample. All values zero means every coefficient vanishes: the
identity holds as a polynomial identity, in every characteristic.
Evaluating on all field points instead would be unsound in characteristic 2
(x^2 = x on GF(2)). For q = 0 the form is multilinear and read at every
basis tuple; the composition law n(xy) - n(x)n(y) is the form with q = 2.

A form computes in the arithmetic that _identity_forms is given: element
mul, add, sub and scale, the scalar operations, n and its polar form (t(x)
is the polar form against the unit). The table's own arithmetic on tuples
reads one point at a time and is the reference. primescan.BatchArithmetic
evaluates each form on int64 arrays of its readings, in growing blocks in
the same order, when numpy is already loaded and a check has at least
BATCH_FLOOR readings (so a one-shot build never loads numpy). Over GF(p) it
reduces every result mod p, so no value passes n*p^2, and runs when that
fits in int64. Over Q it reduces nothing and runs when every structure
constant and norm coefficient is an integer and primescan.Bounds, the same
forms evaluated on bounds of |value|, proves that no value or partial sum
leaves int64. Tables with Fractions and extension fields read point by
point. The first nonzero reading is evaluated again point by point for its
counterexample, so both routes give the same verdict; a batched reading
that is zero point by point raises InvariantViolation.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .algebra import AlgebraTable, Element, QuadraticForm
from .errors import (
    CostCapExceeded,
    DegenerateForm,
    InfiniteField,
    InvariantViolation,
    MirrorLawFailed,
    MissingQuadraticForm,
    MissingUnit,
    NotScalarOperator,
    UnknownIdentity,
)
from .fields import ELEMENT_SCAN_CAP, cost_cap, random_scalar
from .linalg import Subspace

DEFAULT_SAMPLES = 200
PAIR_CAP = 8192  # elements; an exhaustive composition scan visits their square in pairs
BATCH_FLOOR = 40  # readings dim(dim+1)/2 * dim below which a check reads point by point
DESCENDING = ("descending-flexible", "descending-alternative")


@dataclass
class Verdict:
    """Outcome of a check, with the evidence that produced it.

    certificate is one of "exhaustive", "polarized-basis", "sampled(seed=S,n=N)",
    or a named shortcut; sampled certificates do not prove the property. When
    holds is False the counterexample is re-checkable by direct evaluation and
    its re-evaluated value is stored under "value".
    """

    identity: str
    holds: bool
    certificate: str
    counterexample: Optional[dict] = None


def random_element(a: AlgebraTable, rng: random.Random) -> Element:
    return tuple(random_scalar(a.field, rng) for _ in range(a.dim))


@dataclass
class _Form:
    """One catalog identity as g(*args), its left-minus-right value.

    g has degree 2 in each of its first `quadratic` slots (0, 1 or 2) and is
    linear in the rest. arity counts all slots; scalar marks forms whose
    value is a scalar rather than an element.
    """

    name: str
    g: Callable
    arity: int
    quadratic: int = 0
    scalar: bool = False


def _require_quad(a: AlgebraTable) -> QuadraticForm:
    if a.quad is None:
        raise MissingQuadraticForm("this identity needs the quadratic form")
    return a.quad


def _unit(a: AlgebraTable, ar, identity: str):
    """a's unit in the arithmetic ar, for an identity that needs the norm too."""
    _require_quad(a)
    e = a.unit_element()
    if e is None:
        raise MissingUnit(f"{identity} needs the unit")
    return ar.element(e)


def _conj(ar, e) -> Callable:
    """conj(x) = t(x)e - x in the arithmetic ar, with t(x) = n(x, e)."""
    return lambda x: ar.sub(ar.scale(ar.polar(x, e), e), x)


def _twist_context(a: AlgebraTable, ar):
    """(type, unit in the arithmetic ar) for the standard closed-form identities.

    A unital table with no twist metadata is its own type I; non-unital tables
    need the metadata written by standard_twist. The forms need the norm too.
    """
    if a.twist_type is None:
        return "I", _unit(a, ar, "a standard closed form without twist metadata")
    _require_quad(a)
    if a.parent_unit is None:
        raise MissingUnit("twist metadata lacks the parent unit")
    return a.twist_type, ar.element(a.parent_unit)


class _PointArithmetic:
    """The arithmetic a catalog form is written in, on coordinate tuples.

    Element mul, add, sub and scale; `scalars`, the scalar add, sub, mul and
    one; n and polar, the norm and its polar form; `element`, a constant
    element in this arithmetic; `memo`, a function of the points read once
    per point. This is the table's own arithmetic and the reference:
    primescan.BatchArithmetic and primescan.Bounds have the same members.
    """

    def __init__(self, a: AlgebraTable):
        self.mul, self.add, self.sub, self.scale = a.multiply, a.add, a.sub, a.scale
        self.scalars = a.field
        if a.quad is not None:
            self.n, self.polar = a.quad.eval, a.quad.polar_eval

    @staticmethod
    def element(v: Element) -> Element:
        return v

    @staticmethod
    def memo(fn: Callable) -> Callable:
        seen: dict = {}

        def read(x):
            v = seen.get(x)
            if v is None:
                v = seen[x] = fn(x)
            return v

        return read


def _identity_forms(a: AlgebraTable, identity: str, ar=None) -> list[_Form]:
    """The forms of identity on a, computing in ar (a's per-point arithmetic
    by default). The table's unit, norm and twist data decide which forms
    exist; ar only computes. The catalog: flexible, alternative, quadratic,
    regular-involution, involution, symmetric, form-associativity,
    composition, two-product, para-unit and standard-products."""
    ar = ar or _PointArithmetic(a)
    f = ar.scalars
    mul, add, sub, scale = ar.mul, ar.add, ar.sub, ar.scale

    if identity == "flexible":
        def g(x, b):
            return sub(mul(mul(x, b), x), mul(x, mul(b, x)))

        return [_Form("flexible", g, 2, quadratic=1)]

    if identity == "alternative":
        def g1(x, b):
            return sub(mul(mul(x, x), b), mul(x, mul(x, b)))

        def g2(x, b):
            return sub(mul(mul(b, x), x), mul(b, mul(x, x)))

        return [
            _Form("left-alternative", g1, 2, quadratic=1),
            _Form("right-alternative", g2, 2, quadratic=1),
        ]

    if identity == "quadratic":
        e, n, pol = _unit(a, ar, identity), ar.n, ar.polar

        def g(x):
            v = sub(mul(x, x), scale(pol(x, e), x))
            return add(v, scale(n(x), e))

        return [_Form("quadratic", g, 1, quadratic=1)]

    if identity == "regular-involution":
        e, n = _unit(a, ar, identity), ar.n
        conj = _conj(ar, e)

        def g1(x):
            return sub(mul(x, conj(x)), scale(n(x), e))

        def g2(x):
            return sub(mul(conj(x), x), scale(n(x), e))

        return [
            _Form("x-conj(x)", g1, 1, quadratic=1),
            _Form("conj(x)-x", g2, 1, quadratic=1),
        ]

    if identity == "involution":
        # conj is an anti-automorphism of order two (conj(e) = e follows)
        conj = _conj(ar, _unit(a, ar, identity))

        def g1(x):
            return sub(conj(conj(x)), x)

        def g2(x, y):
            return sub(conj(mul(x, y)), mul(conj(y), conj(x)))

        return [_Form("conj(conj(x))", g1, 1), _Form("conj(x*y)", g2, 2)]

    if identity == "symmetric":
        _require_quad(a)
        n = ar.n

        def g1(x, y):
            return sub(mul(mul(x, y), x), scale(n(x), y))

        def g2(x, y):
            return sub(mul(x, mul(y, x)), scale(n(x), y))

        return [
            _Form("(x*y)*x", g1, 2, quadratic=1),
            _Form("x*(y*x)", g2, 2, quadratic=1),
        ]

    if identity == "form-associativity":
        _require_quad(a)
        pol = ar.polar

        def g(x, y, z):
            return f.sub(pol(mul(x, y), z), pol(x, mul(y, z)))

        return [_Form("form-associativity", g, 3, scalar=True)]

    if identity == "composition":
        _require_quad(a)
        n = ar.n
        norm = ar.memo(n)  # n at each point, read once

        def g(x, y):
            return f.sub(n(mul(x, y)), f.mul(norm(x), norm(y)))

        return [_Form("composition", g, 2, quadratic=2, scalar=True)]

    if identity == "two-product":
        ttype, e = _twist_context(a, ar)
        pol = ar.polar

        def t(x):
            return pol(x, e)

        if ttype == "I":
            def g(x, y):
                lhs = add(mul(x, y), mul(y, x))
                rhs = add(scale(t(y), x), scale(t(x), y))
                rhs = sub(rhs, scale(pol(x, y), e))
                return sub(lhs, rhs)
        elif ttype in ("II", "III"):
            def g(x, y):
                lhs = add(mul(x, y), mul(y, x))
                return sub(lhs, scale(pol(x, y), e))
        elif ttype == "IV":
            def g(x, y):
                lhs = add(mul(x, y), mul(y, x))
                two = f.add(f.one(), f.one())
                c = f.sub(f.mul(two, f.mul(t(x), t(y))), pol(x, y))
                rhs = sub(scale(c, e), add(scale(t(x), y), scale(t(y), x)))
                return sub(lhs, rhs)
        else:
            raise UnknownIdentity(f"unknown standard type {ttype!r}")
        return [_Form(f"two-product-{ttype}", g, 2)]

    if identity == "para-unit":
        ttype, e = _twist_context(a, ar)
        if ttype != "IV":
            raise UnknownIdentity("para-unit only applies to type IV tables")
        conj = _conj(ar, e)

        def g(x):
            return sub(mul(e, x), conj(x))

        def g2(x):
            return sub(mul(x, e), conj(x))

        return [
            _Form("para-unit-left", g, 1),
            _Form("para-unit-right", g2, 1),
        ]

    if identity == "standard-products":
        return _standard_product_forms(a, ar)

    raise UnknownIdentity(f"no identity named {identity!r}")


def _mirror(word: str) -> str:
    """The word read in the opposite algebra: "a*(b*a)" -> "(a*b)*a"."""
    return word[::-1].translate(str.maketrans("()", ")("))


def _standard_product_forms(a: AlgebraTable, ar) -> list[_Form]:
    """The four closed-form product identities of the standard types.

    Written with the table's own product (the twist product for types II-IV)
    and the parent Hurwitz algebra's trace/norm/polar data. Each form is
    quadratic in a and linear in b. The coefficient at a*a depends only on b
    in every form, which is what makes the descending certificates available.

    Type III is not written out: twist III of A is the opposite of twist II
    of A^op, a Hurwitz algebra with the same norm, unit and conjugation. So
    the III forms are the II forms evaluated with the reversed product, named
    by the mirrored words.
    """
    ttype, e = _twist_context(a, ar)
    f = ar.scalars
    mul, add, sub, scale = ar.mul, ar.add, ar.sub, ar.scale
    n, pol = ar.n, ar.polar
    conj = _conj(ar, e)

    def t(x):
        return pol(x, e)

    def emit(named):
        return [_Form(f"{ttype}:{name}", g, 2, quadratic=1) for name, g in named]

    def type_ii(m):
        # (a*b)*a = t(a) b*a + n(a) b - t(b) a*a
        def g1(x, b):
            rhs = add(scale(t(x), m(b, x)), scale(n(x), b))
            rhs = sub(rhs, scale(t(b), m(x, x)))
            return sub(m(m(x, b), x), rhs)

        # a*(b*a) = t(a) b*a - n(a,b) a + n(a) b
        def g2(x, b):
            rhs = sub(scale(t(x), m(b, x)), scale(pol(x, b), x))
            rhs = add(rhs, scale(n(x), b))
            return sub(m(x, m(b, x)), rhs)

        # (b*a)*a = n(a,b) a - t(a) b*a - n(a) b + t(b) a*a
        def g3(x, b):
            rhs = sub(scale(pol(x, b), x), scale(t(x), m(b, x)))
            rhs = sub(rhs, scale(n(x), b))
            rhs = add(rhs, scale(t(b), m(x, x)))
            return sub(m(m(b, x), x), rhs)

        # a*(a*b) = t(a) a*b - n(a) b
        def g4(x, b):
            rhs = sub(scale(t(x), m(x, b)), scale(n(x), b))
            return sub(m(x, m(x, b)), rhs)

        return [("(a*b)*a", g1), ("a*(b*a)", g2), ("(b*a)*a", g3), ("a*(a*b)", g4)]

    if ttype == "I":
        # (ab)a = (n(a, conj(b)) - t(a)t(b)) a + t(b) aa + n(a) b
        def g1(x, b):
            c = f.sub(pol(x, conj(b)), f.mul(t(x), t(b)))
            rhs = add(scale(c, x), add(scale(t(b), mul(x, x)), scale(n(x), b)))
            return sub(mul(mul(x, b), x), rhs)

        # a(ba) = (ab)a
        def g2(x, b):
            return sub(mul(x, mul(b, x)), mul(mul(x, b), x))

        # (ba)a = t(a) ba - n(a) b
        def g3(x, b):
            rhs = sub(scale(t(x), mul(b, x)), scale(n(x), b))
            return sub(mul(mul(b, x), x), rhs)

        # a(ab) = t(a) ab - n(a) b
        def g4(x, b):
            rhs = sub(scale(t(x), mul(x, b)), scale(n(x), b))
            return sub(mul(x, mul(x, b)), rhs)

        return emit([("(ab)a", g1), ("a(ba)", g2), ("(ba)a", g3), ("a(ab)", g4)])

    if ttype == "II":
        return emit(type_ii(mul))

    if ttype == "III":
        mirrored = [(_mirror(name), g) for name, g in type_ii(lambda x, y: mul(y, x))]
        # the III order: (a*b)*a, a*(b*a), a*(a*b), (b*a)*a
        return emit([mirrored[i] for i in (1, 0, 2, 3)])

    if ttype == "IV":
        # (a*b)*a = n(a) b = a*(b*a)   (the para-Hurwitz product is symmetric)
        def g1(x, b):
            return sub(mul(mul(x, b), x), scale(n(x), b))

        def g2(x, b):
            return sub(mul(x, mul(b, x)), scale(n(x), b))

        def tail(x, b):
            # (t(a)^2 - n(a)) b + (n(a,b) - t(a)t(b)) a - t(b) a*a
            rhs = scale(f.sub(f.mul(t(x), t(x)), n(x)), b)
            rhs = add(rhs, scale(f.sub(pol(x, b), f.mul(t(x), t(b))), x))
            return sub(rhs, scale(t(b), mul(x, x)))

        # (b*a)*a = t(a) a*b + tail
        def g3(x, b):
            return sub(mul(mul(b, x), x), add(scale(t(x), mul(x, b)), tail(x, b)))

        # a*(a*b) = t(a) b*a + tail
        def g4(x, b):
            return sub(mul(x, mul(x, b)), add(scale(t(x), mul(b, x)), tail(x, b)))

        return emit([("(a*b)*a", g1), ("a*(b*a)", g2), ("(b*a)*a", g3), ("a*(a*b)", g4)])

    raise UnknownIdentity(f"unknown standard type {ttype!r}")


def _index_pairs(dim: int) -> list[tuple]:
    """(i, i) for every i, then (i, k) for i < k: the point order."""
    return [(i, i) for i in range(dim)] + list(itertools.combinations(range(dim), 2))


def _point(a: AlgebraTable, i: int, k: int) -> Element:
    """e_i for i == k, else e_i + e_k."""
    e = a.basis_element(i)
    return e if i == k else a.add(e, a.basis_element(k))


def _form_failure(a: AlgebraTable, form: _Form, args: tuple) -> Optional[dict]:
    """The counterexample dict when form's value at args is nonzero, else None."""
    value = form.g(*args)
    zero = not value if form.scalar else a.is_zero(value)
    return None if zero else {"form": form.name, "args": args, "value": value}


def _first_failure(identity: str, certificate: str, failures: Iterable[Optional[dict]]) -> Verdict:
    """The verdict on the first counterexample of failures, or a pass when none."""
    bad = next(filter(None, failures), None)
    return Verdict(identity, bad is None, certificate, counterexample=bad)


def check_polarized_identity(a: AlgebraTable, identity: str) -> Verdict:
    """Certify an identity from the catalog exactly at basis points.

    The linear slots run over basis tuples in the outer loop; each quadratic
    slot runs over e_0, ..., e_{n-1} and then e_i + e_k for i < k, the first
    slot outermost (module docstring). The first nonzero value is the
    counterexample. With numpy loaded and BATCH_FLOOR readings or more, a
    batched arithmetic reads them all at once where it is exact.
    """
    basis = [a.basis_element(i) for i in range(a.dim)]
    pairs = _index_pairs(a.dim)
    points = [_point(a, i, k) for i, k in pairs]
    ar = _batch_arithmetic(a, identity, len(points) * a.dim)
    if ar is None:
        failures = (
            _form_failure(a, form, (*xs, *rest))
            for form in _identity_forms(a, identity)
            for rest in itertools.product(basis, repeat=form.arity - form.quadratic)
            for xs in itertools.product(points, repeat=form.quadratic)
        )
        return _first_failure(identity, "polarized-basis", failures)
    hit = ar.first_nonzero(_identity_forms(a, identity, ar), pairs)
    if hit is None:
        return Verdict(identity, True, "polarized-basis")
    index, slots = hit
    form = _identity_forms(a, identity)[index]
    lin = form.arity - form.quadratic
    args = (*(points[i] for i in slots[lin:]), *(basis[i] for i in slots[:lin]))
    bad = _form_failure(a, form, args)
    if bad is None:
        raise InvariantViolation(
            f"{identity}: the batched reading of {form.name} is nonzero at {args}, "
            "the point reading zero"
        )
    return Verdict(identity, False, "polarized-basis", bad)


def _batch_arithmetic(a: AlgebraTable, identity: str, readings: int):
    """primescan.BatchArithmetic for this check, or None to read point by point.

    Batched only at BATCH_FLOOR readings or more, and only when numpy is
    already loaded, so that a one-shot build neither loads it nor pays for
    it; then as the module docstring says for the field. Over Q, the forms
    first run in primescan.Bounds, which proves that no int64 value
    overflows; this may raise the errors the forms raise.
    """
    if readings < BATCH_FLOOR or "numpy" not in sys.modules:
        return None
    from .primescan import BatchArithmetic, Bounds

    ar = BatchArithmetic.over(a)
    if ar is None or ar.p:
        return ar
    bounds = Bounds(a)
    return ar if bounds.fits(_identity_forms(a, identity, bounds)) else None


# --- composition law ------------------------------------------------------


def _elements_in_order(a: AlgebraTable) -> list[Element]:
    return list(itertools.product(a.field.enumerate(), repeat=a.dim))


def _element_count(a: AlgebraTable, strategy: str, what: str) -> Optional[int]:
    """The number of elements of a, or None over Q, where "exhaustive" is an error."""
    if strategy not in ("auto", "exhaustive", "sampled"):
        raise UnknownIdentity(f"unknown strategy {strategy!r}")
    card = a.field.cardinality()
    if card is None and strategy == "exhaustive":
        raise InfiniteField(f"exhaustive {what} check needs a finite field")
    return None if card is None else card**a.dim


def _index_pair(point: Element) -> tuple:
    """(i, k) for point(i, k): its first and last nonzero coordinates."""
    nonzero = [i for i, v in enumerate(point) if v]
    return nonzero[0], nonzero[-1]


def check_composition(a: AlgebraTable, strategy: str = "auto", seed: int = 0) -> Verdict:
    """Check n(x*y) = n(x)*n(y), the catalog form "composition".

    "polarized" is check_polarized_identity on that form: it proves the
    polynomial identity over any field at (dim(dim+1)/2)^2 point pairs, and
    the counterexample's value is the coefficient of x_i x_k y_j y_l, with
    (i, k, j, l) the index pairs of its points (module docstring).
    "exhaustive" evaluates every pair of elements over a finite field of at
    most PAIR_CAP elements, by primescan.composition_scan over the prime
    field (restriction of scalars), and "auto" does so when the element count
    permits; otherwise "auto" and "sampled" run check_identity_direct's
    sampled loop on the form, which is evidence rather than a certificate.
    The certificate string says which one was obtained. A polarized value is
    the value at a pair of basis points, so "polarized" and "exhaustive"
    agree, even over GF(2).
    """
    (form,) = _identity_forms(a, "composition")
    if strategy == "polarized":
        v = check_polarized_identity(a, "composition")
        if not v.holds:
            args, value = v.counterexample["args"], v.counterexample["value"]
            v.counterexample = {
                "args": args,
                "value": value,
                "indices": _index_pair(args[0]) + _index_pair(args[1]),
                "coefficient": value,
            }
        return v
    n_elems = _element_count(a, strategy, "composition")
    can_exhaust = n_elems is not None and n_elems <= PAIR_CAP
    if strategy == "exhaustive" and not can_exhaust:
        pairs = n_elems * n_elems
        raise CostCapExceeded(f"exhaustive composition check needs {pairs} pairs, "
                              f"over PAIR_CAP^2 = {PAIR_CAP**2}", estimate=pairs)
    if strategy != "sampled" and can_exhaust:
        from .primescan import composition_scan

        bad = composition_scan(a)
        v = Verdict("composition", bad is None, "exhaustive")
        if bad is not None:
            v.counterexample = {"args": bad, "value": form.g(*bad)}
        return v
    v = check_identity_direct(a, "composition", "sampled", seed)
    if not v.holds:
        v.counterexample = {k: v.counterexample[k] for k in ("args", "value")}
    return v


# --- norm recovery --------------------------------------------------------


def recover_norm(a: AlgebraTable) -> QuadraticForm:
    """Reconstruct the norm of a symmetric composition table.

    For such a product (x*y)*x = n(x) y, so n(b_i) is coordinate 0 of
    (b_i*b_0)*b_i and n(b_i, b_j) is coordinate 0 of (b_i*b_0)*b_j +
    (b_j*b_0)*b_i. The symmetric law at basis points then proves the
    candidate: its form (x*y)*x reads every operator y -> (b_i*y)*b_i and
    every polar one, and a failure there raises NotScalarOperator; a failure
    of x*(y*x) raises MirrorLawFailed. The form must also be strictly
    nondegenerate.
    """
    f = a.field
    basis = [a.basis_element(i) for i in range(a.dim)]
    right = [a.multiply(b, basis[0]) for b in basis]  # b_i*b_0
    diag = [a.multiply(right[i], basis[i])[0] for i in range(a.dim)]
    polar = {}
    for i, j in itertools.combinations(range(a.dim), 2):
        mu = f.add(a.multiply(right[i], basis[j])[0], a.multiply(right[j], basis[i])[0])
        if mu:
            polar[(i, j)] = mu
    quad = QuadraticForm(f, a.dim, diag, polar)

    probe = AlgebraTable(f, a.dim, a.labels, a.table, unit=None, quad=quad, name=a.name)
    probe._unit_solved = True  # bypass unit solving; only the form is probed
    verdict = check_polarized_identity(probe, "symmetric")
    if not verdict.holds:
        bad = verdict.counterexample
        error = NotScalarOperator if bad["form"] == "(x*y)*x" else MirrorLawFailed
        raise error(f"symmetric law fails: {bad['form']} at {bad['args']}")
    if not quad.is_strictly_nondegenerate():
        raise DegenerateForm("recovered form is degenerate")
    return quad


# --- descending properties -------------------------------------------------


def _span_with_unit(a: AlgebraTable, vectors: Iterable[Element]) -> Subspace:
    s = Subspace.span(a.field, a.dim, vectors)
    e = a.unit_element()
    if e is not None:
        s = s.insert(e)
    return s


def _violation(a: AlgebraTable, kind: str, args: Sequence[Element]) -> Optional[dict]:
    """The first descending condition that a pair or a triple violates, or None.

    A pair (a, b) must keep (ab)a and a(ba) (flexible), or (ba)a and a(ab)
    (alternative), in the span of e, a, b, aa, ab, ba; a triple keeps the
    linearized words in the span of e, its letters and their products.
    """
    m, add = a.multiply, a.add
    args = tuple(args)
    if len(args) == 2:
        x, y = args
        xy, yx = m(x, y), m(y, x)
        words = [x, y, m(x, x), xy, yx]
        if kind == "flexible":
            probes = [("(ab)a", m(xy, x)), ("a(ba)", m(x, yx))]
        else:
            probes = [("(ba)a", m(yx, x)), ("a(ab)", m(x, xy))]
    else:
        x, y, z = args
        xy, yx, zy, yz, xz, zx = m(x, y), m(y, x), m(z, y), m(y, z), m(x, z), m(z, x)
        words = [x, y, z, xy, yx, zy, yz, xz, zx]
        if kind == "flexible":
            probes = [("(ab)c+(cb)a", add(m(xy, z), m(zy, x))),
                      ("a(bc)+c(ba)", add(m(x, yz), m(z, yx)))]
        else:
            probes = [("(ab)c+(ac)b", add(m(xy, z), m(xz, y))),
                      ("a(bc)+b(ac)", add(m(x, yz), m(y, xz)))]
    target = _span_with_unit(a, words)
    for name, v in probes:
        if not target.contains(v):
            return {"condition": name, "args": args, "value": v}
    return None


def _enumerate_descending(a: AlgebraTable, kind: str, required: bool = False) -> Optional[Verdict]:
    """Every pair, then every triple, when the q^(3 dim) triples fit within
    cost_cap(); a pass is cached as "exhaustive". Over the cap (or over Q)
    this returns None, or raises CostCapExceeded when required."""
    card, cap = a.field.cardinality(), cost_cap()
    if card is None or card ** (3 * a.dim) > cap:
        if required:
            triples = card ** (3 * a.dim)
            raise CostCapExceeded(
                f"descending check needs {triples} triples, over the cost cap {cap}",
                estimate=triples,
            )
        return None
    ident = f"descending-{kind}"
    elems = _elements_in_order(a)
    trials = itertools.chain(
        itertools.product(elems, repeat=2), itertools.product(elems, repeat=3)
    )
    v = _first_failure(ident, "exhaustive", (_violation(a, kind, t) for t in trials))
    if v.holds:
        a.certificates[ident] = "exhaustive"
    return v


def _descending_ladder(a: AlgebraTable, kinds: Sequence[str]) -> dict:
    """{kind: Verdict, or None where no route applies} from the proof routes.

    Routes, cheapest first: the cached certificate; the standard closed
    forms, which prove both kinds at once and run only when a requested kind
    is uncached and a.quad is set; the symmetric law (flexible only);
    _enumerate_descending. Each proof is cached with its route.
    """
    if a.quad is not None and any(f"descending-{k}" not in a.certificates for k in kinds):
        try:
            if check_polarized_identity(a, "standard-products").holds:
                for ident in DESCENDING:
                    a.certificates.setdefault(ident, "closed-forms")
        except (MissingUnit, MissingQuadraticForm):
            pass  # no unit and no twist metadata: the closed forms do not apply
    decided = {}
    for kind in kinds:
        ident = f"descending-{kind}"
        if ident not in a.certificates and kind == "flexible" and a.quad is not None:
            if check_polarized_identity(a, "symmetric").holds:
                a.certificates[ident] = "symmetric-law"
        if ident in a.certificates:
            decided[kind] = Verdict(ident, True, a.certificates[ident])
        else:
            decided[kind] = _enumerate_descending(a, kind)
    return decided


def check_descending(
    a: AlgebraTable,
    kind: str,
    strategy: str = "auto",
    seed: int = 0,
    candidates: Optional[Sequence[tuple]] = None,
) -> Verdict:
    """Check descending flexibility or alternativity.

    Supplied candidates (pairs or triples) are tried first, and a violation
    among them is returned at once. "auto" then runs the proof ladder of
    acquire_descending_certificates for this kind, whose certificate names
    the route ("closed-forms", "symmetric-law" or "exhaustive"), and samples
    where no route applies. "exhaustive" is the enumeration alone and raises
    CostCapExceeded over the cap; "sampled" only samples. Sampling is
    refutation-oriented: its pass proves nothing.
    """
    if kind not in ("flexible", "alternative"):
        raise UnknownIdentity(f"descending kind must be flexible/alternative, not {kind!r}")
    _element_count(a, strategy, "descending")  # rejects bad strategies and exhaustive over Q
    ident = f"descending-{kind}"
    v = _first_failure(ident, "candidate", (_violation(a, kind, c) for c in candidates or ()))
    if not v.holds:
        return v
    if strategy == "exhaustive":
        return _enumerate_descending(a, kind, required=True)
    v = _descending_ladder(a, [kind])[kind] if strategy == "auto" else None
    if v is not None:
        return v
    rng = random.Random(seed)

    def samples():
        for _ in range(DEFAULT_SAMPLES):
            x, y = random_element(a, rng), random_element(a, rng)
            yield _violation(a, kind, (x, y))
            yield _violation(a, kind, (x, y, random_element(a, rng)))

    return _first_failure(ident, f"sampled(seed={seed},n={DEFAULT_SAMPLES})", samples())


def check_identity_direct(
    a: AlgebraTable,
    identity: str,
    strategy: str = "exhaustive",
    seed: int = 0,
) -> Verdict:
    """Pointwise evaluation of a catalog identity on element tuples.

    The oracle for the polarized certificates (exhaustive over small finite
    fields) and the refutation-only sampled fallback, check_composition's
    included; it proves nothing over infinite fields. It shares each
    identity's one transcription, the form's g; what stays independent of
    check_polarized_identity is the algorithm: every element tuple against
    the basis-point argument.
    """
    forms = _identity_forms(a, identity)
    arities = [f.arity for f in forms]
    if strategy == "exhaustive":
        card = a.field.cardinality()
        if card is None:
            raise InfiniteField("exhaustive identity evaluation needs a finite field")
        worst = max(card ** (a.dim * n) for n in arities)
        if worst > cost_cap():
            raise CostCapExceeded(
                f"direct evaluation needs {worst} tuples", estimate=worst
            )
        elems = _elements_in_order(a)
        tag = "exhaustive"
        trials = (
            (form, args)
            for form, nargs in zip(forms, arities)
            for args in itertools.product(elems, repeat=nargs)
        )
    elif strategy == "sampled":
        rng = random.Random(seed)
        tag = f"sampled(seed={seed},n={DEFAULT_SAMPLES})"
        trials = (
            (form, tuple(random_element(a, rng) for _ in range(nargs)))
            for _ in range(DEFAULT_SAMPLES)
            for form, nargs in zip(forms, arities)
        )
    else:
        raise UnknownIdentity(f"unknown strategy {strategy!r}")
    return _first_failure(identity, tag, (_form_failure(a, form, args) for form, args in trials))


def acquire_descending_certificates(a: AlgebraTable) -> set:
    """Run check_descending's proof ladder for both kinds; return the names certified.

    The routes are those of "auto" without the sampling, since a sampled pass
    certifies nothing; each proof is cached with its route.
    """
    _descending_ladder(a, ("flexible", "alternative"))
    return set(DESCENDING) & a.certificates.keys()


# --- element searches -------------------------------------------------------


def _element_search(a: AlgebraTable, kind: str) -> tuple[list[Element], bool]:
    """(nonzero elements of the kind, exhaustive?) under ELEMENT_SCAN_CAP.

    A finite field with at most ELEMENT_SCAN_CAP elements in the algebra scans
    every element through primescan.element_scan(a, kind). Beyond the cap, or
    over infinite fields, nothing is searched: ([], False).
    """
    card = a.field.cardinality()
    if card is not None and card**a.dim <= ELEMENT_SCAN_CAP:
        from .primescan import element_scan

        return element_scan(a, kind), True
    return [], False


def find_idempotents(a: AlgebraTable) -> tuple[list[Element], bool]:
    """(nonzero idempotents, exhaustive?): every one when the algebra has at
    most ELEMENT_SCAN_CAP elements over a finite field, else ([], False)."""
    return _element_search(a, "idempotent")


def find_isotropic(a: AlgebraTable) -> tuple[list[Element], bool]:
    """(nonzero isotropic vectors, exhaustive?): every one when the algebra has
    at most ELEMENT_SCAN_CAP elements over a finite field, else ([], False)."""
    _require_quad(a)
    return _element_search(a, "isotropic")


# --- theorem bounds ---------------------------------------------------------


def flexible_floor(k: int) -> int:
    """Minimal dim(A) - d0 compatible with a length-k report, flexible case."""
    if k <= 2:
        return max(k, 0)
    if k <= 5:
        return 2 * k - 1
    return 3 * 2 ** (k - 4) + k - 3


def alternative_floor(k: int) -> int:
    """Minimal dim(A) - d0 compatible with a length-k report, alternative case."""
    if k <= 1:
        return max(k, 0)
    return 2 ** (k - 1) + k - 2


def length_upper_bound(dim: int, d0: int, kind: str) -> int:
    """Largest k whose floor fits inside dim - d0."""
    floor = flexible_floor if kind == "flexible" else alternative_floor
    budget = dim - d0
    k = 0
    while k + 1 <= budget and floor(k + 1) <= budget:
        k += 1
    return k


def descending_kinds(a: AlgebraTable) -> list:
    """The descending properties ("flexible", "alternative") certified on a."""
    return [k for k in ("flexible", "alternative") if f"descending-{k}" in a.certificates]


def validate_report(
    d: Sequence[int],
    length: int,
    generating: bool,
    dim: int,
    unital: bool,
    kinds: Iterable[str] = (),
    rank: Optional[int] = None,
) -> list[str]:
    """Difference-sequence law violations for one report (empty = clean)."""
    out = []
    kinds = set(kinds)
    if not d:
        return ["empty difference sequence"]
    if d[0] != (1 if unital else 0):
        out.append(f"d0={d[0]} but unital={unital}")
    if any(x < 0 for x in d):
        out.append("negative difference")
    expect_len = max((k for k, x in enumerate(d) if x != 0), default=0)
    if length != expect_len:
        out.append(f"length {length} != max nonzero index {expect_len}")
    if sum(d) > dim:
        out.append("differences sum beyond dim")
    if generating != (sum(d) == dim):
        out.append(f"generating={generating} but sum(d)={sum(d)} of dim={dim}")
    if rank is not None and len(d) > 1 and d[1] != rank:
        out.append(f"d1={d[1]} != rank {rank}")
    if kinds:
        interior = d[1:length] if length >= 1 else []
        if any(x == 0 for x in interior):
            out.append("plateau not persistent")
        if generating:
            for kind in kinds:
                floor = flexible_floor(length) if kind == "flexible" else alternative_floor(length)
                if floor > dim - d[0]:
                    out.append(f"{kind} bound violated: needs dim-d0 >= {floor}")
    if "flexible" in kinds:
        for m in (3, 4):
            if len(d) > m and d[m] >= 1:
                for k in range(1, m):
                    if d[k] < 2:
                        out.append(f"growth law: d{k}={d[k]} < 2 while d{m}>=1")
    return out
