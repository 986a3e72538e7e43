"""Finite-dimensional algebras as structure-constant tables.

Elements are coordinate tuples over the table's field. The quadratic form is
stored characteristic-agnostically: basis values n(b_i) plus the strictly
upper-triangular polar values n(b_i, b_j). In characteristic 2 the basis
values are NOT recoverable from the polar form, which is why both parts are
kept explicitly.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, MissingQuadraticForm, MissingUnit
from .fields import Field, Scalar
from .linalg import Subspace, solve_linear

Element = tuple


class QuadraticForm:
    """n(sum x_i b_i) = sum x_i^2 diag_i + sum_{i<j} x_i x_j polar_ij."""

    __slots__ = ("field", "dim", "diag", "polar")

    def __init__(self, field: Field, dim: int, diag: Sequence[Scalar], polar: dict):
        if len(diag) != dim:
            raise DimensionMismatch("diag length != dim")
        for (i, j) in polar:
            if not (0 <= i < j < dim):
                raise DimensionMismatch(f"polar index ({i},{j}) out of range")
        self.field = field
        self.dim = dim
        self.diag = tuple(diag)
        self.polar = {k: v for k, v in polar.items() if v}

    def eval(self, x: Element) -> Scalar:
        f = self.field
        zero = f.zero()
        acc = zero
        for i, xi in enumerate(x):
            if xi:
                d = self.diag[i]
                if d:
                    acc = f.add(acc, f.mul(d, f.mul(xi, xi)))
        for (i, j), c in self.polar.items():
            xi, xj = x[i], x[j]
            if xi and xj:
                acc = f.add(acc, f.mul(c, f.mul(xi, xj)))
        return acc

    def polar_eval(self, x: Element, y: Element) -> Scalar:
        """n(x+y) - n(x) - n(y), computed by the expanded bilinear formula."""
        f = self.field
        zero = f.zero()
        two = f.add(f.one(), f.one())
        acc = zero
        if two:
            for i, d in enumerate(self.diag):
                if d and x[i] and y[i]:
                    acc = f.add(acc, f.mul(two, f.mul(d, f.mul(x[i], y[i]))))
        for (i, j), c in self.polar.items():
            t = f.add(f.mul(x[i], y[j]), f.mul(x[j], y[i]))
            if t:
                acc = f.add(acc, f.mul(c, t))
        return acc

    def gram_rank(self) -> int:
        """Rank of the polar form's Gram matrix (2*diag on the diagonal)."""
        f = self.field
        zero = f.zero()
        two = f.add(f.one(), f.one())
        n = self.dim
        rows = []
        for i in range(n):
            row = [zero] * n
            row[i] = f.mul(two, self.diag[i])
            for j in range(n):
                if i < j:
                    row[j] = self.polar.get((i, j), zero)
                elif j < i:
                    row[j] = self.polar.get((j, i), zero)
            rows.append(tuple(row))
        return Subspace.span(f, n, rows).dim

    def is_strictly_nondegenerate(self) -> bool:
        return self.gram_rank() == self.dim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuadraticForm)
            and self.field == other.field
            and self.diag == other.diag
            and self.polar == other.polar
        )

    def __hash__(self) -> int:
        return hash((self.field, self.diag, tuple(sorted(self.polar.items()))))


class AlgebraTable:
    """A dim-dimensional algebra given by structure constants.

    table[i][j] is the coordinate vector of basis_i * basis_j. The algebraic
    data is immutable after construction; `certificates` is a mutable cache
    mapping each verified structural fact (e.g. "descending-flexible") to the
    route that proved it ("closed-forms", "symmetric-law" or "exhaustive"),
    and is not part of value semantics or serialization.
    """

    def __init__(
        self,
        field: Field,
        dim: int,
        labels: Sequence[str],
        table: Sequence[Sequence[Sequence[Scalar]]],
        unit: Optional[Sequence[Scalar]] = None,
        quad: Optional[QuadraticForm] = None,
        name: str = "",
    ):
        if dim < 1:
            raise DimensionMismatch("dim must be positive")
        if len(labels) != dim:
            raise DimensionMismatch("labels length != dim")
        if len(table) != dim or any(len(row) != dim for row in table):
            raise DimensionMismatch("structure table must be dim x dim")
        tbl = []
        for row in table:
            new_row = []
            for entry in row:
                entry = tuple(entry)
                if len(entry) != dim:
                    raise DimensionMismatch("structure constant vector has wrong length")
                new_row.append(entry)
            tbl.append(tuple(new_row))
        if quad is not None and quad.dim != dim:
            raise DimensionMismatch("quadratic form dimension != dim")
        self.field = field
        self.dim = dim
        self.labels = tuple(labels)
        self.table = tuple(tbl)
        self.unit = tuple(unit) if unit is not None else None
        self.quad = quad
        self.name = name
        self.certificates: dict[str, str] = {}
        self._unit_solved = unit is not None
        # metadata set by standard_twist so checkers can use the parent's
        # unit/trace; algebra files keep it as a hint under "twist"
        self.twist_type: Optional[str] = None
        self.parent_unit: Optional[Element] = None

    # --- element helpers -------------------------------------------------
    def zero_element(self) -> Element:
        return (self.field.zero(),) * self.dim

    def basis_element(self, i: int) -> Element:
        z = self.field.zero()
        return tuple(self.field.one() if k == i else z for k in range(self.dim))

    def add(self, x: Element, y: Element) -> Element:
        f = self.field
        return tuple(f.add(a, b) for a, b in zip(x, y))

    def sub(self, x: Element, y: Element) -> Element:
        f = self.field
        return tuple(f.sub(a, b) for a, b in zip(x, y))

    def neg(self, x: Element) -> Element:
        f = self.field
        return tuple(f.neg(a) for a in x)

    def scale(self, c: Scalar, x: Element) -> Element:
        f = self.field
        return tuple(f.mul(c, a) for a in x)

    def is_zero(self, x: Element) -> bool:
        return not any(x)

    def multiply(self, x: Element, y: Element) -> Element:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("element length != dim")
        f = self.field
        zero = f.zero()
        acc = [zero] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.table[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                s = f.mul(xi, yj)
                for k, ck in enumerate(row[j]):
                    if ck:
                        acc[k] = f.add(acc[k], f.mul(s, ck))
        return tuple(acc)

    # --- quadratic form -------------------------------------------------
    def quad_eval(self, x: Element) -> Scalar:
        if self.quad is None:
            raise MissingQuadraticForm(f"algebra {self.name!r} carries no quadratic form")
        return self.quad.eval(x)

    def polar_eval(self, x: Element, y: Element) -> Scalar:
        if self.quad is None:
            raise MissingQuadraticForm(f"algebra {self.name!r} carries no quadratic form")
        return self.quad.polar_eval(x, y)

    # --- unit and conjugation --------------------------------------------
    def unit_element(self) -> Optional[Element]:
        """The two-sided unit, solving for it once and caching the outcome."""
        if not self._unit_solved:
            self.unit = find_unit(self)
            self._unit_solved = True
        return self.unit

    def is_unital(self) -> bool:
        return self.unit_element() is not None

    def conjugate(self, x: Element) -> Element:
        e = self.unit_element()
        if e is None:
            raise MissingUnit(f"algebra {self.name!r} has no unit")
        t = self.polar_eval(x, e)
        return self.sub(self.scale(t, e), x)

    def trace(self, x: Element) -> Scalar:
        e = self.unit_element()
        if e is None:
            raise MissingUnit(f"algebra {self.name!r} has no unit")
        return self.polar_eval(x, e)

    def __repr__(self) -> str:
        return f"AlgebraTable({self.name or 'unnamed'}, dim={self.dim}, {self.field.spec.format()})"


def find_unit(a: AlgebraTable) -> Optional[Element]:
    """Solve the linear system e*b_j = b_j = b_j*e and verify the candidate."""
    f = a.field
    rows = []
    rhs = []
    one, zero = f.one(), f.zero()
    for j in range(a.dim):
        for k in range(a.dim):
            # sum_i u_i (b_i b_j)_k = delta_jk
            rows.append(tuple(a.table[i][j][k] for i in range(a.dim)))
            rhs.append(one if j == k else zero)
            rows.append(tuple(a.table[j][i][k] for i in range(a.dim)))
            rhs.append(one if j == k else zero)
    sol = solve_linear(f, rows, rhs)
    if sol is None or unit_law_failure(a, sol) is not None:
        return None
    return sol


def unit_law_failure(a: AlgebraTable, e: Element) -> Optional[int]:
    """The first basis index j with e*b_j != b_j or b_j*e != b_j, or None."""
    for j in range(a.dim):
        b = a.basis_element(j)
        if a.multiply(e, b) != b or a.multiply(b, e) != b:
            return j
    return None


def product_span(a: AlgebraTable, u: Subspace, v: Subspace) -> Subspace:
    """Span of all products x*y with x in u, y in v (via basis row pairs).

    Canonical rows, not stored ones: they are sparser and keep Q entries small.
    """
    s = Subspace.zero(a.field, a.dim)
    for x in u.rows:
        for y in v.rows:
            s = s.insert(a.multiply(x, y))
    return s


def subalgebra_closure(a: AlgebraTable, vectors: Iterable[Element]) -> Subspace:
    """Least subspace containing the vectors and closed under multiplication."""
    v = Subspace.span(a.field, a.dim, vectors)
    while v.dim < a.dim:
        nxt = v.sum(product_span(a, v, v))
        if nxt.dim == v.dim:
            return nxt
        v = nxt
    return v
