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

checkers imports this module when a scan runs, as length imports gf2orbits,
the other numpy module, when an orbit census runs; so importing the package
needs neither module nor numpy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .algebra import AlgebraTable, QuadraticForm
from .fields import Field

SCAN_CHUNK_BYTES = 4 * 2**20  # one chunk's block of n(xy) - n(x)n(y) values
SCAN_Y_BLOCK = 1024  # y elements per block of that chunk


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


def split_array(quad: QuadraticForm, gf, p: int):
    """split[w]: the GF(p) form with x split[w] x^T = coefficient w of n(x)."""
    n, m = quad.dim, quad.dim * len(gf)
    s = np.zeros((n, n), dtype=np.int64)
    s[np.arange(n), np.arange(n)] = quad.diag
    for (i, j), c in quad.polar.items():
        s[i, j] = c
    return np.moveaxis(_restrict(s, gf, p).reshape(m, m, len(gf)), 2, 0)


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
            values = (coef @ monomials(y0, min(y0 + block, n_elems))).astype(np.int64)
            values %= p
            bad = (values != 0).reshape(stop - start, k, -1)
            fresh = (first_y < 0) & bad.any(axis=2).any(axis=1)
            first_y[fresh] = y0 + bad[fresh].any(axis=1).argmax(axis=1)
        failing = np.flatnonzero(first_y >= 0)
        if failing.size:
            y_idx = int(first_y[failing[0]])
            y = element_grid(p, m, y_idx, y_idx + 1)[0]
            return tuple(_scalars(np.stack([xs[failing[0]], y]), p, k))
        start, step = stop, min(2 * step, rows_cap)
    return None
