"""Exact linear algebra over the fields in this package.

Vectors are tuples of scalars. A Subspace stores forward-reduced echelon rows:
inserting a vector adds one row and never rewrites the others, so a subspace
is immutable and a larger one shares the rows of the smaller. The reduced row
echelon form, which is canonical, is built only when equality or hashing
needs it, and then cached.
"""

from __future__ import annotations

from bisect import bisect
from typing import Iterable, Sequence

from .errors import DimensionMismatch
from .fields import Field, Scalar


class Subspace:
    """A subspace of F^n held as forward-reduced echelon rows.

    ``basis`` has one row per dimension, sorted by strictly increasing pivot
    index (``pivots``); each row is 1 at its pivot and 0 left of it. Pivot
    columns are not cleared from the other rows. ``insert``, ``reduce``,
    ``contains``, ``sum`` and ``dim`` work on this store. ``rows`` is the
    canonical reduced row echelon form (pivot columns zero outside their own
    row), built on first use and cached; equality and hashing read it. The
    zero subspace has no rows.
    """

    __slots__ = ("field", "ambient", "basis", "pivots", "_rref")

    def __init__(self, field: Field, ambient: int, basis: tuple = (), pivots: tuple = ()):
        self.field = field
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots
        self._rref = None

    @staticmethod
    def zero(field: Field, ambient: int) -> "Subspace":
        return Subspace(field, ambient)

    @staticmethod
    def span(field: Field, ambient: int, vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        s = Subspace.zero(field, ambient)
        for v in vectors:
            s = s.insert(tuple(v))
        return s

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: tuple) -> tuple:
        """The unique vector of v + self that is zero in every pivot column."""
        if len(v) != self.ambient:
            raise DimensionMismatch(f"vector length {len(v)} in ambient {self.ambient}")
        f = self.field
        v = list(v)
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if c:
                for i in range(p, self.ambient):
                    r = row[i]
                    if r:
                        v[i] = f.sub(v[i], f.mul(c, r))
        return tuple(v)

    def contains(self, v: Sequence[Scalar]) -> bool:
        return not any(self.reduce(tuple(v)))

    def insert(self, v: Sequence[Scalar]) -> "Subspace":
        """The span of this subspace and v; self when v already lies in it."""
        f = self.field
        res = self.reduce(tuple(v))
        lead = next((i for i, x in enumerate(res) if x), -1)
        if lead < 0:
            return self
        c = f.inv(res[lead])
        row = tuple(f.mul(c, x) for x in res)
        at = bisect(self.pivots, lead)
        return Subspace(
            f,
            self.ambient,
            self.basis[:at] + (row,) + self.basis[at:],
            self.pivots[:at] + (lead,) + self.pivots[at:],
        )

    def sum(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient:
            raise DimensionMismatch("ambient dimensions differ")
        s = self
        for row in other.basis:
            s = s.insert(row)
        return s

    @property
    def rows(self) -> tuple:
        """Reduced row echelon form: canonical, so equal subspaces share it.

        Row i is the stored row reduced by the stored rows below it, which
        clears their pivot columns and keeps its own pivot and leading zeros.
        """
        if self._rref is None:
            f, n, b, p = self.field, self.ambient, self.basis, self.pivots
            self._rref = tuple(
                Subspace(f, n, b[i + 1 :], p[i + 1 :]).reduce(row) for i, row in enumerate(b)
            )
        return self._rref

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.dim == other.dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def solve_linear(field: Field, rows: list, rhs: list):
    """One solution x of the system rows * x = rhs, or None.

    rows is a list of coefficient tuples (one equation each). Free variables
    are set to zero in the returned solution. The reduced echelon form of the
    augmented rows (row | rhs) has a pivot in the last column exactly when
    the system is inconsistent; otherwise each pivot variable is its row's
    last entry.
    """
    n = len(rows[0]) if rows else 0
    aug = Subspace.span(field, n + 1, (tuple(r) + (b,) for r, b in zip(rows, rhs)))
    if aug.pivots and aug.pivots[-1] == n:
        return None
    x = [field.zero()] * n
    for row, p in zip(aug.rows, aug.pivots):
        x[p] = row[n]
    return tuple(x)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den
