"""Constructors for the algebra families, each self-verified at build time.

Families: the unital tower (quadratic etale start, Cayley-Dickson doubling),
its four standard twists, the two eight-dimensional symmetric tables (built
on isotropic respectively idempotent generators), the trace-zero 3x3 matrix
algebra with the twisted product, and the two-dimensional anisotropic family.

Every constructor runs exact checks before returning and raises
SelfCheckFailed on any violation, so a transcription or convention error
cannot produce a usable object. Each law is proved once per build, at basis
points, so it holds as a polynomial identity; the laws that follow are
derived, not checked again. Tower levels up to dimension 8 prove
n(xy) = n(x)n(y), the quadratic law and the closed product forms; the rest
of the Hurwitz battery and the involution law follow (_certify_hurwitz). The
dimension-16 double proves only the involution law. Every symmetric table
recovers its norm from the products: recover_norm proves the symmetric law
and strict nondegeneracy, form associativity follows (_finish_symmetric),
and the pseudo-octonions' recovered norm must equal their trace form.
Constructors also cache the descending certificates their closed forms justify.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .algebra import AlgebraTable, Element, QuadraticForm, unit_law_failure
from .checkers import (
    DESCENDING,
    Verdict,
    check_composition,
    check_polarized_identity,
    recover_norm,
)
from .errors import (
    CharacteristicForbidden,
    DegenerateParameter,
    MissingQuadraticForm,
    MissingUnit,
    MuNotASolution,
    ReducibleCubic,
    SelfCheckFailed,
    UnknownFamily,
    ZeroParameter,
)
from .fields import Field, Scalar, is_irreducible_cubic, solve_quadratic


def _must_hold(verdict: Verdict, context: str) -> None:
    if not verdict.holds:
        raise SelfCheckFailed(
            f"{context}: {verdict.identity} fails, counterexample {verdict.counterexample}"
        )


def _certify_hurwitz(a: AlgebraTable) -> None:
    """Prove composition, the quadratic law and the closed forms; cache both certificates.

    With Q(x) = x^2 - t(x)x + n(x)e ("quadratic") and the type-I forms g1..g4
    of "standard-products" proved zero at basis points, and conj(x) = t(x)e - x,
    the rest of the Hurwitz battery follows:
      flexible             (xb)x - x(bx) = -g2
      left alternative     (xx)b - x(xb) = Q(x)b - g4
      right alternative    (bx)x - b(xx) = g3 - bQ(x)
      regular involution   x conj(x) - n(x)e = -Q(x) = conj(x) x - n(x)e
      two-product I        its form is Q(x+y) - Q(x) - Q(y)
    These use only that t is linear and e a two-sided unit (F and K(mu) are
    written with e0 as one; every double checks its unit law), so each holds as
    a polynomial identity in every characteristic. The a*a coefficients of the
    closed forms are 0 or t(b), never depending on a: that grants both
    descending certificates.

    With composition (C) n(xy) = n(x)n(y), "involution" follows. From
    Q(e) = (1 - n(e))e, n(e) = 1; so conj(e) = e, t(conj x) = t(x) and
    conj(conj x) = x. Q linearized, xy + yx = t(x)y + t(y)x - n(x,y)e, gives
    conj(xy) - conj(y)conj(x) = (t(xy) - t(x)t(y) + n(x,y))e, and (C)
    linearized in x and y, n(xy,wz) + n(xz,wy) = n(x,w)n(y,z), at w = z = e
    makes that scalar 0.
    """
    _must_hold(check_composition(a, strategy="polarized"), a.name)
    _must_hold(check_polarized_identity(a, "quadratic"), a.name)
    _must_hold(check_polarized_identity(a, "standard-products"), a.name)
    a.certificates.update(dict.fromkeys(DESCENDING, "closed-forms"))


def make_base_algebra(field: Field) -> AlgebraTable:
    """The field itself as a one-dimensional algebra with norm x^2."""
    one = field.one()
    quad = QuadraticForm(field, 1, [one], {})
    a = AlgebraTable(field, 1, ("e0",), [[(one,)]], unit=(one,), quad=quad, name="F")
    _certify_hurwitz(a)
    return a


def make_quadratic_etale(field: Field, mu: Scalar) -> AlgebraTable:
    """Two-dimensional unital algebra F + F*l with l*l = l + mu.

    Norm n(x + y*l) = x^2 + xy - mu*y^2; nondegenerate iff 4*mu + 1 != 0,
    which also covers characteristic 2 (there the condition is vacuous and the
    polar matrix is the invertible off-diagonal one).
    """
    f = field
    one, zero = f.one(), f.zero()
    if not f.add(f.mul(f.from_int(4), mu), one):
        raise DegenerateParameter("4*mu + 1 = 0 makes the norm degenerate")
    table = [
        [(one, zero), (zero, one)],
        [(zero, one), (mu, one)],
    ]
    quad = QuadraticForm(f, 2, [one, f.neg(mu)], {(0, 1): one})
    a = AlgebraTable(
        f, 2, ("e0", "e1"), table, unit=(one, zero), quad=quad,
        name=f"K({f.format(mu)})",
    )
    _certify_hurwitz(a)
    return a


def cayley_dickson_double(a: AlgebraTable, alpha: Scalar) -> AlgebraTable:
    """Double a unital algebra with product (a,b)(c,d) = (ac + t*conj(d)b, da + b*conj(c)).

    t = alpha is the doubling parameter; the new basis is ordered so that
    e_{i+dim} = e_i * l with l = (0, e). Norm n(a,b) = n(a) - alpha*n(b).
    Every double checks its unit law. Up to dimension 8 it proves composition
    and the battery, which imply the involution law (_certify_hurwitz); the
    dimension-16 double stops being a composition algebra and proves only
    the involution law.
    """
    f = a.field
    if not alpha:
        raise ZeroParameter("doubling parameter must be nonzero")
    if a.quad is None:
        raise MissingQuadraticForm("doubling needs the norm of the base algebra")
    e = a.unit_element()
    if e is None:
        raise MissingUnit("doubling needs a unital base")
    d = a.dim
    dim2 = 2 * d
    pad = (f.zero(),) * d  # x + pad is (x, 0), pad + x is (0, x)
    basis = [a.basis_element(i) for i in range(d)]
    conj = [a.conjugate(b) for b in basis]
    table = [[None] * dim2 for _ in range(dim2)]
    for i in range(d):
        for j in range(d):
            table[i][j] = a.multiply(basis[i], basis[j]) + pad
            table[i][j + d] = pad + a.multiply(basis[j], basis[i])
            table[i + d][j] = pad + a.multiply(basis[i], conj[j])
            table[i + d][j + d] = a.scale(alpha, a.multiply(conj[j], basis[i])) + pad
    neg_alpha = f.neg(alpha)
    diag = list(a.quad.diag) + [f.mul(neg_alpha, x) for x in a.quad.diag]
    polar = dict(a.quad.polar)
    for (i, j), c in a.quad.polar.items():
        polar[(i + d, j + d)] = f.mul(neg_alpha, c)
    quad = QuadraticForm(f, dim2, diag, polar)
    labels = tuple(f"e{k}" for k in range(dim2))
    out = AlgebraTable(
        f, dim2, labels, table, unit=e + pad, quad=quad,
        name=f"double({a.name},{f.format(alpha)})",
    )
    j = unit_law_failure(out, out.unit)
    if j is not None:
        raise SelfCheckFailed(f"{out.name}: unit fails on basis vector {j}")
    if dim2 <= 8:
        _certify_hurwitz(out)
    else:
        _must_hold(check_polarized_identity(out, "involution"), out.name)
    return out


def make_hurwitz_tower(
    field: Field, mu: Optional[Scalar], params: Sequence[Scalar] = ()
) -> AlgebraTable:
    if mu is None:
        if field.characteristic() == 2:
            raise CharacteristicForbidden(
                "the square-norm start is degenerate in characteristic 2; give mu"
            )
        a = make_base_algebra(field)
    else:
        a = make_quadratic_etale(field, mu)
    for alpha in params:
        a = cayley_dickson_double(a, alpha)
    return a


def standard_twist(a: AlgebraTable, t: str) -> AlgebraTable:
    """Twist a unital composition algebra: I a*b=ab, II conj(a)b, III a conj(b),
    IV conj(a)conj(b). The norm is carried over unchanged.

    The four closed product forms for the chosen type are verified at basis
    points; their a*a coefficients depend only on b, which grants both
    descending certificates. Types II-IV of dimension >= 2 are verified
    non-unital.
    """
    if t not in ("I", "II", "III", "IV"):
        raise UnknownFamily(f"twist type must be one of I/II/III/IV, got {t!r}")
    if a.quad is None:
        raise MissingQuadraticForm("twisting needs the quadratic form")
    e = a.unit_element()
    if e is None:
        raise MissingUnit("twisting needs a unital algebra")
    basis = [a.basis_element(i) for i in range(a.dim)]
    conj = [a.conjugate(b) for b in basis]
    left = conj if t in ("II", "IV") else basis
    right = conj if t in ("III", "IV") else basis
    table = [[a.multiply(left[i], right[j]) for j in range(a.dim)] for i in range(a.dim)]
    out = AlgebraTable(
        a.field, a.dim, a.labels, table,
        unit=tuple(e) if t == "I" else None, quad=a.quad,
        name=f"twist-{t}({a.name})",
    )
    out.twist_type = t
    out.parent_unit = tuple(e)
    if t != "I" and a.dim >= 2 and out.unit_element() is not None:
        raise SelfCheckFailed(f"{out.name}: twist {t} is unexpectedly unital")
    _must_hold(check_polarized_identity(out, "standard-products"), out.name)
    _must_hold(check_polarized_identity(out, "two-product"), out.name)
    if t == "IV":
        _must_hold(check_polarized_identity(out, "para-unit"), out.name)
    out.certificates.update(dict.fromkeys(DESCENDING, "closed-forms"))
    return out


# --- the two eight-dimensional symmetric tables -----------------------------
#
# Entries are (coefficient code, target index); coefficient codes index the
# parameter dictionary built per instance. Basis orders are fixed; several
# worked products and the recovered norms are pinned in the test suite, and
# the mirror-law self-check below would reject any corrupted row.

_ISO_LABELS = (
    "x_{1,0}", "x_{-1,0}", "x_{0,1}", "x_{0,-1}",
    "x_{1,1}", "x_{-1,-1}", "x_{-1,1}", "x_{1,-1}",
)

_ISO_ROWS = (
    ((("-a", 1),), (), (), (("1", 7),), (), (("1", 3),), (), (("a", 5),)),
    ((), (("-ia", 0),), (("1", 6),), (), (("1", 2),), (), (("ia", 4),), ()),
    ((("1", 4),), (), (("-b", 3),), (), (("b", 7),), (), (), (("1", 0),)),
    ((), (("1", 5),), (), (("-ib", 2),), (), (("ib", 6),), (("1", 1),), ()),
    ((("a", 6),), (), (), (("1", 0),), (("-ab", 5),), (), (("b", 3),), ()),
    ((), (("ia", 7),), (("1", 1),), (), (), (("-ia.ib", 4),), (), (("ib", 2),)),
    ((("1", 2),), (), (("b", 5),), (), (), (("ia", 0),), (("-ia.b", 7),), ()),
    ((), (("1", 3),), (), (("ib", 4),), (("a", 1),), (), (), (("-a.ib", 6),)),
)

_IDEM_LABELS = ("x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7")

_IDEM_ROWS = (
    (
        (("1", 0),), (("-1", 0), ("-1", 1)), (("-1", 2),), (("-1", 3),),
        (("1", 4), ("1", 5)), (("-1", 4),), (("1", 6), ("1", 7)), (("-1", 6),),
    ),
    (
        (("-1", 0), ("-1", 1)), (("1", 1),), (("1", 2), ("1", 3)), (("-1", 2),),
        (("-1", 5),), (("1", 4), ("1", 5)), (("-1", 6),), (("-1", 7),),
    ),
    (
        (("-1", 2),), (("-1", 3),), (("b", 0),), (("-b", 0), ("-b", 1)),
        (("-1", 6), ("-1", 7)), (("1", 6),), (("-b", 4), ("-b", 5)), (("b", 4),),
    ),
    (
        (("-1", 3),), (("1", 2), ("1", 3)), (("b", 1),), (("b", 0),),
        (("1", 6),), (("1", 7),), (("b", 5),), (("-b", 4), ("-b", 5)),
    ),
    (
        (("-1", 5),), (("1", 4), ("1", 5)), (("-1", 7),), (("1", 6), ("1", 7)),
        (("-g", 0), ("-g", 1)), (("g", 1),), (("-g", 3),), (("g", 2), ("g", 3)),
    ),
    (
        (("1", 4), ("1", 5)), (("-1", 4),), (("1", 6), ("1", 7)), (("-1", 6),),
        (("g", 0),), (("-g", 0), ("-g", 1)), (("-g", 2),), (("-g", 3),),
    ),
    (
        (("-1", 7),), (("-1", 6),), (("-b", 5),), (("-b", 4),),
        (("-g", 2), ("-g", 3)), (("g", 3),), (("-bg", 1),), (("bg", 0), ("bg", 1)),
    ),
    (
        (("1", 6), ("1", 7)), (("-1", 7),), (("b", 4), ("b", 5)), (("-b", 5),),
        (("g", 2),), (("-g", 2), ("-g", 3)), (("-bg", 0),), (("-bg", 1),),
    ),
)


def _table_from_rows(field: Field, rows, coeff: dict) -> list:
    zero = field.zero()
    dim = len(rows)
    table = []
    for row in rows:
        out_row = []
        for cell in row:
            vec = [zero] * dim
            for code, target in cell:
                c = coeff[code.lstrip("-")]
                if code.startswith("-"):
                    c = field.neg(c)
                vec[target] = field.add(vec[target], c)
            out_row.append(tuple(vec))
        table.append(out_row)
    return table


def _finish_symmetric(
    f: Field, labels, table, name: str, expect: Optional[QuadraticForm] = None
) -> AlgebraTable:
    """Recover the norm and cache the flexible certificate.

    recover_norm proves (L) (x*y)*x = n(x)y, (R) x*(y*x) = n(x)y and strict
    nondegeneracy, so n is not 0; form associativity follows. (L) with x*y
    for x and x for y, then (L) and (R), give n(x*y)x = n(x)n(y)x, so
    n(x*y) = n(x)n(y). Linearized in its left factor, n(y*x, z*x) =
    n(y,z)n(x); at x*z for z, (L) gives n(x)n(y*x, z) = n(x)n(y, x*z).
    expect, when given, is the norm the family is defined with, and the
    recovered norm must equal it.
    """
    dim = len(labels)
    quad = recover_norm(AlgebraTable(f, dim, labels, table, name=name))
    if expect is not None and quad != expect:
        raise SelfCheckFailed(f"{name}: the recovered norm is not the defining one")
    a = AlgebraTable(f, dim, labels, table, quad=quad, name=name)
    a.certificates["descending-flexible"] = "symmetric-law"
    return a


def make_okubo_isotropic(field: Field, alpha: Scalar, beta: Scalar) -> AlgebraTable:
    """Eight-dimensional symmetric table on isotropic generators x_{1,0}, x_{0,1}.

    The norm is not part of the table data; it is reconstructed from the
    products via recover_norm, which fails loudly if the table were corrupt.
    """
    f = field
    if not alpha or not beta:
        raise ZeroParameter("alpha and beta must be nonzero")
    ia, ib = f.inv(alpha), f.inv(beta)
    coeff = {
        "1": f.one(), "a": alpha, "b": beta, "ia": ia, "ib": ib,
        "ab": f.mul(alpha, beta), "ia.ib": f.mul(ia, ib),
        "ia.b": f.mul(ia, beta), "a.ib": f.mul(alpha, ib),
    }
    table = _table_from_rows(f, _ISO_ROWS, coeff)
    name = f"okubo-isotropic({f.format(alpha)},{f.format(beta)})"
    return _finish_symmetric(f, _ISO_LABELS, table, name)


def make_okubo_idempotent(field: Field, beta: Scalar, gamma: Scalar) -> AlgebraTable:
    """Eight-dimensional symmetric table whose basis contains idempotents.

    Exists only away from characteristic 3.
    """
    f = field
    if f.characteristic() == 3:
        raise CharacteristicForbidden("the idempotent table requires characteristic != 3")
    if not beta or not gamma:
        raise ZeroParameter("beta and gamma must be nonzero")
    coeff = {
        "1": f.one(), "b": beta, "g": gamma, "bg": f.mul(beta, gamma),
    }
    table = _table_from_rows(f, _IDEM_ROWS, coeff)
    name = f"okubo-idempotent({f.format(beta)},{f.format(gamma)})"
    return _finish_symmetric(f, _IDEM_LABELS, table, name)


# --- trace-zero 3x3 matrices with the twisted product -----------------------


def _mat_mul(f: Field, x, y):
    return [
        [
            f.add(f.add(f.mul(x[i][0], y[0][j]), f.mul(x[i][1], y[1][j])), f.mul(x[i][2], y[2][j]))
            for j in range(3)
        ]
        for i in range(3)
    ]


def _mat_trace(f: Field, x):
    return f.add(f.add(x[0][0], x[1][1]), x[2][2])


def _sl3_basis(f: Field):
    z, o = f.zero(), f.one()

    def m(entries):
        mat = [[z] * 3 for _ in range(3)]
        for i, j, v in entries:
            mat[i][j] = v
        return mat

    return [
        m([(0, 1, o)]), m([(1, 0, o)]), m([(0, 2, o)]), m([(2, 0, o)]),
        m([(1, 2, o)]), m([(2, 1, o)]),
        m([(0, 0, o), (1, 1, f.neg(o))]), m([(1, 1, o), (2, 2, f.neg(o))]),
    ]


_SL3_LABELS = ("E12", "E21", "E13", "E31", "E23", "E32", "H1", "H2")


def _sl3_coords(f: Field, mat) -> Element:
    # trace-zero matrices only; the middle diagonal entry is determined
    if _mat_trace(f, mat):
        raise SelfCheckFailed("product left the trace-zero space")
    return (
        mat[0][1], mat[1][0], mat[0][2], mat[2][0],
        mat[1][2], mat[2][1], mat[0][0], f.neg(mat[2][2]),
    )


def make_pseudo_octonion(field: Field, mu: Optional[Scalar] = None) -> AlgebraTable:
    """Trace-zero 3x3 matrices with x*y = mu xy + (1-mu) yx - tr(xy)/3.

    Requires characteristic != 2, 3 and 3*mu*(1-mu) = 1; with mu omitted the
    smallest root of 3X^2 - 3X + 1 in the field is used. The norm recovered
    from the products must equal the trace form n(x) = tr(x^2)/6.
    """
    f = field
    if f.characteristic() in (2, 3):
        raise CharacteristicForbidden("needs 2 and 3 invertible")
    one, zero = f.one(), f.zero()
    three = f.from_int(3)
    if mu is None:
        roots = solve_quadratic(f, three, f.neg(three), one)
        if not roots:
            raise MuNotASolution("3X(1-X) = 1 has no solution in this field")
        mu = sorted(roots, key=f.sort_key)[0]
    if f.mul(three, f.mul(mu, f.sub(one, mu))) != one:
        raise MuNotASolution(f"3*mu*(1-mu) != 1 for mu = {f.format(mu)}")

    basis = _sl3_basis(f)
    third = f.inv(three)
    sixth = f.inv(f.from_int(6))
    one_minus_mu = f.sub(one, mu)

    def star(x, y):
        xy = _mat_mul(f, x, y)
        yx = _mat_mul(f, y, x)
        t = f.mul(third, _mat_trace(f, xy))
        return [
            [
                f.sub(
                    f.add(f.mul(mu, xy[i][j]), f.mul(one_minus_mu, yx[i][j])),
                    t if i == j else zero,
                )
                for j in range(3)
            ]
            for i in range(3)
        ]

    table = [[_sl3_coords(f, star(bi, bj)) for bj in basis] for bi in basis]
    diag = [f.mul(sixth, _mat_trace(f, _mat_mul(f, b, b))) for b in basis]
    polar = {}
    for i in range(8):
        for j in range(i + 1, 8):
            c = f.mul(third, _mat_trace(f, _mat_mul(f, basis[i], basis[j])))
            if c:
                polar[(i, j)] = c
    return _finish_symmetric(
        f, _SL3_LABELS, table, f"pseudo-octonion({f.format(mu)})",
        expect=QuadraticForm(f, 8, diag, polar),
    )


def make_two_dim_form(field: Field, lam: Scalar) -> AlgebraTable:
    """Two-dimensional symmetric algebra u*u = v, u*v = v*u = u, v*v = lam*u - v.

    Valid exactly when x^3 - 3x - lam has no root in the field; the norm is
    recovered from the products (it comes out as x^2 + y^2 + lam*xy).
    """
    f = field
    if not is_irreducible_cubic(f, f.neg(f.from_int(3)), f.neg(lam)):
        raise ReducibleCubic(f"x^3 - 3x - {f.format(lam)} has a root in the field")
    z, o = f.zero(), f.one()
    table = [
        [(z, o), (o, z)],
        [(o, z), (lam, f.neg(o))],
    ]
    name = f"two-dim-form({f.format(lam)})"
    return _finish_symmetric(f, ("u", "v"), table, name)
