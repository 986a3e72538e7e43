"""The GF(2) census as a sum over automorphism orbits.

An automorphism g of A maps Lin_k(S) onto Lin_k(gS), so S and gS have the
same difference sequence, and the census over all subspaces of one dimension
is a sum over the orbits of any group of automorphisms, each orbit weighted
by its size (isomorph rejection: B. D. McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998; A. Kerber, Applied Finite Group
Actions, Springer 1999). A smaller group gives more orbits, never a wrong
count. The automorphisms come from gf2autos.find_automorphisms, as lists of
basis images; vectors are bitmasks (bit i is coordinate i).

orbit_source numbers the k-dimensional subspaces in enumeration order (the
order of length._forms) and keeps one int32 label per subspace. For each
automorphism it streams the subspaces in chunks of CHUNK, maps their rows,
reduces the images to echelon form and finds their numbers by
arithmetic (a table keyed by pivot set and row), and joins each subspace with
its image in a union-find whose root is the smallest number of its set. So
the representative of an orbit is its first subspace in enumeration order,
and the representatives come out in that order: the first maximal one is the
search's witness. Memory grows with the largest Gaussian binomial [n, k]_2,
4 bytes a subspace: 0.8 MB at dim 8, 13 MB at dim 9 (3 309 747 subspaces of
dimension 4 and of dimension 5), besides a number table of 4^n int32. This
module and numpy load only when such a census has automorphisms to use.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from .gf2autos import _apply
from .length import _mask_row, _row_fills

CHUNK = 2048  # subspaces per streamed block of images; peak memory grows with it


# --- the orbit pass -----------------------------------------------------------------


def _patterns(n: int, k: int) -> list:
    """(offset, size, pivot mask, fills, shifts) of every k-row echelon
    pattern in enumeration order, fills from length._row_fills on bitmasks.
    A form's number is its pattern's offset plus its rows' fill indices
    packed, row r's shifted left by shifts[r], the last row lowest."""
    out, offset = [], 0
    for pivots, fills in _row_fills(range(n), k, 2, _mask_row):
        widths = [len(f).bit_length() - 1 for f in fills]
        shifts = [sum(widths[r + 1:]) for r in range(k)]
        size = 1 << sum(widths)
        out.append((offset, size, sum(1 << p for p in pivots), fills, shifts))
        offset += size
    return out


def _number_table(n: int, patterns: list):
    """number[pivot mask << n | row]: the share of a reduced echelon row in the
    number of its form, its pattern's offset included in the first row's;
    patterns[k - 1] holds the k-row patterns."""
    number = np.zeros(1 << 2 * n, dtype=np.int32)
    for offset, _, mask, fills, shifts in itertools.chain(*patterns):
        for r, (fill, shift) in enumerate(zip(fills, shifts)):
            share = np.arange(len(fill), dtype=np.int32) << shift
            share += offset if r == 0 else 0
            number[np.array(fill) | mask << n] = share
    return number


def _find(label, x):
    """The roots of x, with every x pointed straight at its root."""
    r = label[x]
    while True:
        up = label[r]
        if np.array_equal(up, r):
            label[x] = r
            return r
        r = up


def _join(label, i, j) -> None:
    """Join the sets of i[t] and j[t] for every t, the smaller root on top."""
    while True:
        a, b = _find(label, i), _find(label, j)
        apart = a != b
        if not apart.any():
            return
        a, b, i, j = a[apart], b[apart], i[apart], j[apart]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))


def _echelon(rows: list):
    """Reduce independent bitmask rows in place to reduced echelon form, the
    pivot of a row its lowest bit, pivots increasing; returns their union."""
    mask = 0
    for i, row in enumerate(rows):
        rest = row
        for r in rows[i + 1:]:
            rest = rest | r
        piv = rest & -rest
        mask = mask | piv
        for r in rows[i + 1:]:
            # row i takes the lowest remaining pivot if it lacks it
            row ^= r * ((r & piv != 0) & (row & piv == 0))
        for j, r in enumerate(rows):
            if j != i:
                r ^= row * (r & piv != 0)
    return mask


def _orbit_labels(n: int, autos: list, patterns: list, number):
    """label[s] < 0 for the first subspace s of an orbit, minus the orbit's
    size, and the number of that first subspace for every other s."""
    total = patterns[-1][0] + patterns[-1][1]
    label = np.arange(total, dtype=np.int32)
    for phi in autos:
        image = np.array([_apply(phi, x) for x in range(1 << n)], dtype=np.int64)
        for offset, size, _, fills, shifts in patterns:
            tables = [image[fill] for fill in fills]
            for start in range(0, size, CHUNK):
                local = np.arange(start, min(start + CHUNK, size), dtype=np.int64)
                rows = [t[local >> s & len(t) - 1] for t, s in zip(tables, shifts)]
                pivots = _echelon(rows) << n
                _join(label, local + offset, sum(number[pivots | r] for r in rows))
    # roots point at themselves; turn each into minus its set's size
    for start in range(0, total, CHUNK):
        _find(label, np.arange(start, min(start + CHUNK, total)))
    for start in range(0, total, CHUNK):
        block = label[start:start + CHUNK]
        block[block == np.arange(start, start + len(block))] = -1
    for start in range(0, total, CHUNK):
        block = label[start:start + CHUNK]
        np.subtract.at(label, block[block >= 0], 1)
    return label


def orbit_source(n: int, autos: list) -> Iterator[tuple]:
    """(rows, orbit size) of the first subspace of each orbit, dimension 1 to
    n, in enumeration order; the sizes of one dimension sum to its count."""
    patterns = [_patterns(n, k) for k in range(1, n + 1)]
    number = _number_table(n, patterns)
    for of_k in patterns:
        label = _orbit_labels(n, autos, of_k, number)
        for offset, size, _, fills, shifts in of_k:
            for start in range(0, size, CHUNK):
                block = label[offset + start:offset + min(start + CHUNK, size)]
                for s in np.flatnonzero(block < 0).tolist():
                    weight = -int(block[s])
                    s += start
                    rows = tuple(f[s >> t & len(f) - 1] for f, t in zip(fills, shifts))
                    yield rows, weight
        del label, block  # a view keeps the whole array alive
