"""Vectorized scans over every element of an algebra over a prime field.

Elements are the rows of an int64 grid in enumeration order (last coordinate
fastest), the order of checkers._elements_in_order. This is the package's
only numpy code; checkers imports it when a scan runs, so importing the
package needs neither this module nor numpy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .algebra import AlgebraTable, QuadraticForm

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


def table_array(a: AlgebraTable):
    """table[i, j, k]: coordinate k of e_i e_j, as int64 residues."""
    return np.array(
        [[[int(c) for c in a.table[i][j]] for j in range(a.dim)] for i in range(a.dim)],
        dtype=np.int64,
    )


def grid_norms(quad: QuadraticForm, elems, p: int):
    """n(x) mod p for every row x of an element grid."""
    diag = np.array([int(d) for d in quad.diag], dtype=np.int64)
    acc = (elems * elems) @ diag
    for (i, j), c in quad.polar.items():
        acc = acc + int(c) * elems[:, i] * elems[:, j]
    return acc % p


def _field_element(a: AlgebraTable, row) -> tuple:
    return tuple(a.field.from_int(int(v)) for v in row)


def element_scan(a: AlgebraTable, what: str) -> list:
    """Every nonzero idempotent (what="idempotent") or isotropic vector."""
    p = a.field.characteristic()
    n_elems = p**a.dim
    table = table_array(a)
    found = []
    chunk = 65536
    for start in range(0, n_elems, chunk):
        elems = element_grid(p, a.dim, start, min(start + chunk, n_elems))
        if what == "idempotent":
            prods = np.einsum("bi,bj,ijk->bk", elems, elems, table) % p
            hits = np.all(prods == elems, axis=1)
        else:
            hits = grid_norms(a.quad, elems, p) == 0
        hits &= np.any(elems != 0, axis=1)
        found.extend(_field_element(a, row) for row in elems[hits])
    return found


def composition_scan(a: AlgebraTable):
    """The first (x, y) with n(xy) != n(x)n(y), or None, over all pairs.

    For fixed x, y -> n(xy) is a quadratic form in y whose coefficients are
    read off x's left-multiplication matrix, so one chunk of x rows against
    one block of y is one matrix product of coefficient rows against the
    monomials y_j y_k, with -n(x) against n(y) as one more column. Chunks grow
    geometrically from a single x, so an early failure stays cheap, up to
    SCAN_CHUNK_BYTES of values per block; the y blocks are rebuilt per chunk
    rather than kept, so memory stays at one block. The first failure is the
    smallest x index, then the smallest y index, as in the pair loop.

    The products run in floating point, which is exact here: every entry is
    a residue below p or a monomial below p**2, so every partial sum is an
    integer of at most (dim(dim+1)/2 + 1)(p-1)**3. float32 is used when that
    is below 2**24, float64 otherwise; checkers.PRIME_PAIR_CAP keeps it far
    below 2**53.
    """
    p = a.field.characteristic()
    dim = a.dim
    n_elems = p**dim
    table = table_array(a)
    split = np.zeros((dim, dim), dtype=np.int64)
    split[np.arange(dim), np.arange(dim)] = [int(d) for d in a.quad.diag]
    for (i, j), c in a.quad.polar.items():
        split[i, j] = int(c)
    ju, ku = np.triu_indices(dim)
    off = (ju != ku).astype(np.int64)
    n_terms = ju.size + 1
    exact = np.float32 if n_terms * (p - 1) ** 3 < 2**24 else np.float64

    def monomials(start, stop):
        # column y holds y_j y_k for every pair j <= k, then n(y)
        ys = element_grid(p, dim, start, stop)
        out = np.empty((n_terms, stop - start), dtype=exact)
        out[:-1] = (ys[:, ju] * ys[:, ku]).T
        out[-1] = grid_norms(a.quad, ys, p)
        return out

    block = min(n_elems, SCAN_Y_BLOCK)
    rows_cap = max(1, SCAN_CHUNK_BYTES // (np.dtype(exact).itemsize * block))
    start, step = 0, 1
    while start < n_elems:
        stop = min(start + step, n_elems)
        xs = element_grid(p, dim, start, stop)
        left = np.einsum("xi,ijk->xjk", xs, table) % p  # left[x, j] = x * e_j
        gram = left @ split @ left.transpose(0, 2, 1)  # n(xy) = y gram y^T
        coef = np.empty((stop - start, n_terms), dtype=exact)
        coef[:, :-1] = (gram[:, ju, ku] + off * gram[:, ku, ju]) % p
        coef[:, -1] = (-grid_norms(a.quad, xs, p)) % p
        first_y = np.full(stop - start, -1, dtype=np.int64)
        for y0 in range(0, n_elems, block):
            values = (coef @ monomials(y0, min(y0 + block, n_elems))).astype(np.int64)
            values %= p
            bad = values != 0
            fresh = (first_y < 0) & bad.any(axis=1)
            first_y[fresh] = y0 + bad[fresh].argmax(axis=1)
        failing = np.flatnonzero(first_y >= 0)
        if failing.size:
            y_idx = int(first_y[failing[0]])
            return (
                _field_element(a, xs[failing[0]]),
                _field_element(a, element_grid(p, dim, y_idx, y_idx + 1)[0]),
            )
        start, step = stop, min(2 * step, rows_cap)
    return None
