"""Vectorized scans over every element of an algebra over a finite field.

Restriction of scalars (Lidl-Niederreiter, Finite Fields, ch. 2): GF(q),
q = p^k, is a GF(p)-space on 1, X, ..., X^(k-1), so an algebra of dimension n
over GF(q) is one of dimension m = n*k over GF(p) on f_(i*k+u) = e_i X^u,
and its norm is k GF(p)-quadratic forms, one per coefficient of n(x); GF(p)
is k = 1. A GF(q) scalar is the index whose base-p digits are its
coefficients, constant first (fields.ExtensionField), and an element's index
has its coordinates as base-q digits. So the m base-p digits of element r of
checkers._elements_in_order are its coordinates' coefficient vectors
concatenated, row r of element_grid(p, m), and a row decodes to scalars by
reading its digits k at a time.

The module also holds the batched arithmetic of checkers' polarized checks
(BatchArithmetic, with Bounds for its int64 proof over Q). checkers imports
it when a scan runs, or a polarized check once numpy is loaded, as length
imports orbits, the other numpy module, when an orbit census runs; so
importing the package needs neither module nor numpy.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .algebra import AlgebraTable, QuadraticForm
from .fields import Field

SCAN_CHUNK_BYTES = 4 * 2**20  # one block of values in a scan or a batched check
SCAN_Y_BLOCK = 1024  # y elements per block of that chunk
BATCH_FIRST_BLOCK = 64  # readings in the first block of a batched check
INT64_MAX = 2**63 - 1


def element_grid(p: int, dim: int, start: int = 0, stop: Optional[int] = None):
    """Rows start..stop-1 of the p**dim elements over GF(p)."""
    stop = p**dim if stop is None else stop
    idx = np.arange(start, stop, dtype=np.int64)
    powers = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    elems = idx[:, None] // powers
    elems %= p
    return elems


def _digit_array(scalars, p: int, k: int):
    """The k base-p digits of every index-coded scalar, most significant first."""
    return np.asarray(scalars, dtype=np.int64)[..., None] // p ** np.arange(k - 1, -1, -1) % p


def _scalars(rows, p: int, k: int) -> list:
    """Each row of GF(p) coordinates as a tuple of GF(p^k) scalars."""
    weights = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return [tuple(map(int, r)) for r in rows.reshape(len(rows), rows.shape[1] // k, k) @ weights]


def field_constants(f: Field):
    """(p, gf) with gf[u, v, w] the coefficient w of X^u X^v in GF(p^k)."""
    p, k = f.characteristic(), f.spec.k
    powers = [p ** (k - 1 - u) for u in range(k)]  # X^u as an index
    return p, _digit_array([[f.mul(xu, xv) for xv in powers] for xu in powers], p, k)


def _restrict(scalars, gf, p: int):
    """[i, u, j, v, ..., w]: coefficient w of X^(u+v) scalars[i, j, ...]."""
    digits = _digit_array(scalars, p, len(gf))
    return np.einsum("ij...c,ucd,vdw->iujv...w", digits, gf, gf) % p


def _form_matrix(quad: QuadraticForm):
    """The upper-triangular s with x s x^T = n(x), diag then polar above it,
    as an object array of the form's scalars."""
    n = quad.dim
    s = np.zeros((n, n), dtype=object)
    s[np.arange(n), np.arange(n)] = quad.diag
    for (i, j), c in quad.polar.items():
        s[i, j] = c
    return s


def split_array(quad: QuadraticForm, gf, p: int):
    """split[w]: the GF(p) form with x split[w] x^T = coefficient w of n(x)."""
    m = quad.dim * len(gf)
    return np.moveaxis(_restrict(_form_matrix(quad), gf, p).reshape(m, m, len(gf)), 2, 0)


def grid_norms(split, elems, p: int):
    """n(x) for every row x of an element grid, one coefficient per column."""
    return ((elems @ split) * elems).sum(axis=2).T % p


def element_scan(a: AlgebraTable, what: str) -> list:
    """Every nonzero idempotent (what="idempotent") or isotropic vector."""
    p, gf = field_constants(a.field)
    k, m = len(gf), a.dim * len(gf)
    n_elems = p**m
    if what == "idempotent":
        table = _restrict(a.table, gf, p).reshape(m, m, m)  # coordinate t of f_r f_s
    else:
        split = split_array(a.quad, gf, p)
    found = []
    chunk = 65536
    for start in range(0, n_elems, chunk):
        elems = element_grid(p, m, start, min(start + chunk, n_elems))
        if what == "idempotent":
            prods = np.einsum("bi,bj,ijk->bk", elems, elems, table) % p
            hits = np.all(prods == elems, axis=1)
        else:
            hits = ~grid_norms(split, elems, p).any(axis=1)
        hits &= np.any(elems != 0, axis=1)
        found.extend(_scalars(elems[hits], p, k))
    return found


def composition_scan(a: AlgebraTable):
    """The first (x, y) with n(xy) != n(x)n(y), or None, over all pairs.

    For fixed x, each coefficient of y -> n(xy) is a quadratic form in y
    whose coefficients are read off x's left-multiplication matrix, and each
    coefficient of n(x)n(y) is linear in those of n(y). So one chunk of x rows
    against one block of y is one matrix product of coefficient rows, k per x,
    against the monomials y_j y_l and the k coefficients of n(y). Chunks grow
    geometrically from a single x, so an early failure stays cheap, up to
    SCAN_CHUNK_BYTES of values per block; the y blocks are rebuilt per chunk
    rather than kept, so memory stays at one block. The first failure is the
    smallest x index, then the smallest y index, as in a loop over the pairs.

    The products run in floating point, which is exact here: every entry is
    a residue below p or a monomial below p**2, so every partial sum is an
    integer of at most (m(m+1)/2 + k)(p-1)**3. float32 is used when that is
    below 2**24, float64 otherwise; checkers.PAIR_CAP keeps it far below 2**53.
    A value v is tested for a multiple of p in the same float type, as
    rint(v / p) * p != v. When p divides v, v / p is an integer below the
    limit, so the correctly rounded quotient is exact and so is its product
    with p. When it does not, v / p lies at least 1/p from every integer,
    while rounding moves it by at most |v / p| 2**-24 (2**-53) < 1/p, so rint
    gives an integer M != v / p. Then M * p is an integer other than v; below
    the limit it is exact, and above it it rounds to at least the limit > v.
    """
    p, gf = field_constants(a.field)
    k, m = len(gf), a.dim * len(gf)
    n_elems = p**m
    table = _restrict(a.table, gf, p).reshape(m, m, m)
    split = split_array(a.quad, gf, p)
    ju, ku = np.triu_indices(m)
    off = (ju != ku).astype(np.int64)
    n_terms = ju.size + k
    exact = np.float32 if n_terms * (p - 1) ** 3 < 2**24 else np.float64

    def monomials(start, stop):
        # column y holds y_j y_l for every pair j <= l, then n(y)'s coefficients
        ys = element_grid(p, m, start, stop)
        out = np.empty((n_terms, stop - start), dtype=exact)
        out[:-k] = (ys[:, ju] * ys[:, ku]).T
        out[-k:] = grid_norms(split, ys, p).T
        return out

    block = min(n_elems, SCAN_Y_BLOCK)
    rows_cap = max(1, SCAN_CHUNK_BYTES // (np.dtype(exact).itemsize * block * k))
    start, step = 0, 1
    while start < n_elems:
        stop = min(start + step, n_elems)
        xs = element_grid(p, m, start, stop)
        left = np.einsum("xi,ijk->xjk", xs, table) % p  # left[x, j] = x * f_j
        # coefficient w of n(xy) = y gram[x, w] y^T
        gram = left[:, None] @ split @ left.transpose(0, 2, 1)[:, None]
        coef = np.empty((stop - start, k, n_terms), dtype=exact)
        coef[:, :, :-k] = (gram[:, :, ju, ku] + off * gram[:, :, ku, ju]) % p
        # coefficient w of n(x)n(y) = sum over u, v of n(x)_u n(y)_v gf[u, v, w]
        coef[:, :, -k:] = -np.einsum("xu,uvw->xwv", grid_norms(split, xs, p), gf) % p
        coef = coef.reshape(-1, n_terms)
        first_y = np.full(stop - start, -1, dtype=np.int64)
        for y0 in range(0, n_elems, block):
            values = coef @ monomials(y0, min(y0 + block, n_elems))
            multiple = values / p
            np.rint(multiple, out=multiple)
            multiple *= p
            bad = (multiple != values).reshape(stop - start, k, -1)
            fresh = (first_y < 0) & bad.any(axis=2).any(axis=1)
            first_y[fresh] = y0 + bad[fresh].any(axis=1).argmax(axis=1)
        failing = np.flatnonzero(first_y >= 0)
        if failing.size:
            y_idx = int(first_y[failing[0]])
            y = element_grid(p, m, y_idx, y_idx + 1)[0]
            return tuple(_scalars(np.stack([xs[failing[0]], y]), p, k))
        start, step = stop, min(2 * step, rows_cap)
    return None


# --- batched polarized checks -------------------------------------------------


def _integral(c) -> bool:
    return type(c) is int or c.denominator == 1


class BatchArithmetic:
    """checkers' form arithmetic on int64 arrays, one row per reading.

    An element is an (..., n) array and a scalar an (...) array; constants
    broadcast. The product is x @ T.reshape(n, n*n) contracted with y. Over
    GF(p) the constants are residues and every operation reduces its result
    mod p, the polar matrix s + s^T included. So each operation reads
    residues, 0/1 basis coordinates or the constant 1, and its largest
    partial sum is a product's n terms below p**2 each: no value exceeds
    n*p**2 (see over). Over Q nothing is reduced, and
    checkers._batch_arithmetic proves with Bounds that nothing overflows.
    """

    def __init__(self, a: AlgebraTable, p: int):
        n = self.dim = a.dim
        self.p = p
        self._t2 = self._coded(np.array(a.table, dtype=object).reshape(n, n * n))
        if a.quad is not None:
            self._s = self._coded(_form_matrix(a.quad))
            self._g = self._r(self._s + self._s.T)
        self.scalars = SimpleNamespace(add=self.add, sub=self.sub, one=lambda: 1,
                                       mul=lambda x, y: self._r(x * y))

    @classmethod
    def over(cls, a: AlgebraTable) -> Optional["BatchArithmetic"]:
        """The batched arithmetic of a, or None where it would not be exact:
        over GF(p) when n*p**2 exceeds int64, over Q unless every structure
        constant and norm coefficient is an integer within int64, and over
        every extension field."""
        spec = a.field.spec
        if spec.kind == "prime":
            return cls(a, spec.p) if a.dim * spec.p**2 <= INT64_MAX else None
        if spec.kind != "rational":
            return None
        coeffs = [c for row in a.table for entry in row for c in entry]
        if a.quad is not None:
            coeffs += [*a.quad.diag, *a.quad.polar.values()]
        if all(_integral(c) and abs(c) <= INT64_MAX for c in coeffs):
            return cls(a, 0)
        return None

    @staticmethod
    def _coded(entries):
        """An object array of scalars as this arithmetic holds it."""
        return entries.astype(np.int64)

    def _r(self, v):
        return v % self.p if self.p else v

    def mul(self, x, y):
        xt = self._r(x @ self._t2).reshape(x.shape[:-1] + (self.dim, self.dim))
        return self._r((y[..., None, :] @ xt)[..., 0, :])

    def add(self, x, y):
        return self._r(x + y)

    def sub(self, x, y):
        return self._r(x - y)

    def scale(self, c, x):
        return self._r(np.asarray(c, dtype=x.dtype)[..., None] * x)

    def n(self, x):
        return self._r((self._r(x @ self._s) * x).sum(axis=-1))

    def polar(self, x, y):
        return self._r((self._r(x @ self._g) * y).sum(axis=-1))

    def element(self, v):
        return self._coded(np.array(v, dtype=object))

    @staticmethod
    def memo(fn):
        return fn

    def first_nonzero(self, forms, pairs) -> Optional[tuple]:
        """(form index, slot indices) of the first nonzero reading, or None.

        The readings run in the order of checkers.check_polarized_identity:
        the forms in turn, each over its linear slots' basis indices, first
        slot outermost, then its quadratic slots' indices into pairs, the
        (i, k) of the points e_i (i == k) and e_i + e_k. The slot indices
        come linear slots first. Blocks double from BATCH_FIRST_BLOCK
        readings, across the forms, up to SCAN_CHUNK_BYTES of products, as
        composition_scan's chunks grow, so an early failure costs one small
        block. (Doubling from one reading made certify 9 % slower, in the
        extra calls of passing checks.)
        """
        n = self.dim
        eye = np.eye(n, dtype=np.int64)
        i, k = np.array(pairs).T
        points = eye[i] + eye[k] * (i != k)[:, None]
        cap = max(1, SCAN_CHUNK_BYTES // (8 * n * n))
        step = min(BATCH_FIRST_BLOCK, cap)
        for index, form in enumerate(forms):
            lin = form.arity - form.quadratic
            shape = (n,) * lin + (len(pairs),) * form.quadratic
            total = math.prod(shape)
            start = 0
            while start < total:
                stop = min(start + step, total)
                slots = np.unravel_index(np.arange(start, stop), shape)
                v = form.g(*(points[s] for s in slots[lin:]), *(eye[s] for s in slots[:lin]))
                bad = v != 0 if form.scalar else (v != 0).any(axis=-1)
                hit = np.flatnonzero(np.broadcast_to(bad, slots[0].shape))
                if hit.size:
                    return index, tuple(int(s[hit[0]]) for s in slots)
                start, step = stop, min(2 * step, cap)
        return None


class Bounds(BatchArithmetic):
    """BatchArithmetic over Q on |value| bounds: the proof that it fits in int64.

    The same operations run on |T| and |s| in Python ints, with sub adding,
    at all-ones arguments, which bound every basis point (0/1 coordinates).
    Each operation is monotone in its arguments' bounds and bounds the
    absolute value of its result; its terms are nonnegative, so every
    partial sum is at most its result. So peak, the largest result met,
    bounds every value and partial sum of the int64 run. It is infinite
    after a constant that is not an integer, which int64 cannot hold.

    Object arrays of Python ints would be exact without a proof, but are
    slower than reading point by point: on the dim-8 Q Hurwitz tower,
    standard-products took 52 ms on them against 41 ms point by point and
    4.8 ms in int64 with this proof, and composition 15, 6.7 and 1.2 ms
    (best of 10 on one core of an Intel Xeon).
    """

    def __init__(self, a: AlgebraTable):
        self.peak = 0
        super().__init__(a, 0)

    sub = BatchArithmetic.add

    @staticmethod
    def _coded(entries):
        return abs(entries)

    def _r(self, v):
        self.peak = max(self.peak, int(np.max(v)))
        return v

    def element(self, v):
        if not all(map(_integral, v)):
            self.peak = math.inf
        return super().element(v)

    def fits(self, forms) -> bool:
        """Whether every value of forms at basis points, and every partial
        sum, lies within int64; forms must compute in this arithmetic."""
        ones = np.ones(self.dim, dtype=object)
        for form in forms:
            form.g(*[ones] * form.arity)
        return self.peak <= INT64_MAX
