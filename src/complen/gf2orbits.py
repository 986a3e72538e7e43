"""The GF(2) census as a sum over automorphism orbits.

An automorphism g of A maps Lin_k(S) onto Lin_k(gS), so S and gS have the
same difference sequence, and the census over all subspaces of one dimension
is a sum over the orbits of any group of automorphisms, each orbit weighted
by its size (isomorph rejection: B. D. McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998; A. Kerber, Applied Finite Group
Actions, Springer 1999). A smaller group gives more orbits, never a wrong
count. The automorphisms come from gf2autos.find_automorphisms, as lists of
basis images; vectors are bitmasks (bit i is coordinate i).

orbit_forms(columns, k, n, autos) is a forms for length._exhaustive_source:
it yields (rows, orbit size) for the first subspace of each orbit among the
k-dimensional subspaces on the given columns of GF(2)^n, in enumeration
order (the order of length._forms), so one call covers one dimension. The
maps must permute those subspaces: automorphisms on every column, and over
a unital table the maps that length reduces modulo the unit, on a
hyperplane. It numbers the subspaces in enumeration order and keeps one
int32 label per subspace. For each map it streams all echelon patterns of
the dimension as one index space in blocks of CHUNK numbers (a block finds
each number's pattern by binary search over the patterns' offsets and reads
row r from row r's fills of every pattern, concatenated), maps the rows,
reduces the images to echelon form and finds their numbers by arithmetic (a
table keyed by pivot set and row), and joins each subspace with its image
in a union-find whose root is the smallest number of its set. So the
representative of an orbit is its first subspace in enumeration order, and
the representatives come out in that order: the first maximal one is the
search's witness. Memory grows with the largest Gaussian binomial [n, k]_2,
4 bytes a subspace: 0.8 MB at dim 8, 13 MB at dim 9 (3 309 747 subspaces of
dimension 4 and of dimension 5), besides a number table of 4^n int32. This
module and numpy load only when such a census has automorphisms to use.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .gf2autos import _apply
from .length import _mask_row, _row_fills

CHUNK = 2048  # subspaces per streamed block of images; peak memory grows with it


# --- the orbit pass -----------------------------------------------------------------


def _patterns(columns, k: int) -> tuple:
    """(offsets, masks, rows) of the k-row echelon patterns on columns, in
    enumeration order, from length._row_fills on bitmasks, as arrays over
    the patterns. A form of pattern j has number offsets[j] plus its rows'
    fill indices packed, row r's shifted left by shift[j], the last row
    lowest; offsets[-1] counts the forms and masks[j] is the pivot mask.
    rows[r] is (fills, base, shift, width): row r's fills of every pattern
    concatenated, pattern j's width[j] of them from base[j]."""
    offsets, masks, rows = [0], [], [([], [], [], []) for _ in range(k)]
    for pivots, fills in _row_fills(columns, k, 2, _mask_row):
        masks.append(sum(1 << p for p in pivots))
        shift = 0
        for (cat, base, shifts, widths), fill in reversed(list(zip(rows, fills))):
            base.append(len(cat))
            shifts.append(shift)
            widths.append(len(fill))
            cat += fill
            shift += len(fill).bit_length() - 1
        offsets.append(offsets[-1] + (1 << shift))
    return np.array(offsets), np.array(masks), [tuple(map(np.array, row)) for row in rows]


def _rows_at(s, offsets, rows, tables) -> list:
    """Row r of the forms numbered s, read from tables[r], which runs along
    row r's concatenated fills."""
    j = np.searchsorted(offsets, s, side="right") - 1
    local = s - offsets[j]
    return [
        t[base[j] + (local >> shift[j] & width[j] - 1)]
        for t, (_, base, shift, width) in zip(tables, rows)
    ]


def _number_table(n: int, offsets, masks, rows):
    """number[pivot mask << n | row]: the share of a reduced echelon row in the
    number of its form, its pattern's offset included in the first row's."""
    number = np.zeros(1 << 2 * n, dtype=np.int32)
    for r, (fills, base, shift, width) in enumerate(rows):
        j = np.repeat(np.arange(len(masks)), width)
        share = (np.arange(len(fills)) - base[j]) << shift[j]
        number[fills | masks[j] << n] = share + offsets[j] if r == 0 else share
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


def _orbit_labels(n: int, autos: list, offsets, rows, number):
    """label[s] < 0 for the first subspace s of an orbit, minus the orbit's
    size, and the number of that first subspace for every other s."""
    total = int(offsets[-1])
    label = np.arange(total, dtype=np.int32)
    for phi in autos:
        image = np.array([_apply(phi, x) for x in range(1 << n)], dtype=np.int64)
        tables = [image[fills] for fills, *_ in rows]
        for start in range(0, total, CHUNK):
            s = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
            mapped = _rows_at(s, offsets, rows, tables)
            pivots = _echelon(mapped) << n
            _join(label, s, sum(number[pivots | r] for r in mapped))
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


def orbit_forms(columns, k: int, n: int, autos: list) -> Iterator[tuple]:
    """(rows, orbit size) of the first subspace of each orbit of the maps
    autos among the k-dimensional subspaces on the given columns of GF(2)^n,
    in enumeration order; the sizes sum to the number of those subspaces."""
    if k == 0:
        yield (), 1  # the zero subspace, fixed by every map
        return
    offsets, masks, rows = _patterns(columns, k)
    label = _orbit_labels(n, autos, offsets, rows, _number_table(n, offsets, masks, rows))
    fills = [f for f, *_ in rows]
    for start in range(0, len(label), CHUNK):
        block = label[start:start + CHUNK]
        first = np.flatnonzero(block < 0)
        reps = _rows_at(first + start, offsets, rows, fills)
        yield from zip(zip(*(r.tolist() for r in reps)), (-block[first]).tolist())
