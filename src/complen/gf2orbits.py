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
hyperplane. It numbers the subspaces in enumeration order. For each map it
streams all echelon patterns of the dimension as one index space in blocks
of CHUNK numbers (a block finds each number's pattern by binary search over
the patterns' offsets and reads row r from row r's fills of every pattern,
concatenated), maps the rows, reduces the images to echelon form and finds
their numbers by arithmetic (a table keyed by pivot set and row): perm[s] is
the number of the image of s. Labels start at label[s] = s; block by block,
label = min(label, label[perm]) for every map and then label = min(label,
label[label]) (pointer jumping), until no label moves. At that fixed point
label[s] <= label[g(s)] for every map g, so the label is constant on each
cycle of each map, hence on each orbit; it only takes numbers in the orbit
and never exceeds s, so it is the orbit's smallest number. np.unique then
gives the first subspace of each orbit, in enumeration order, and the orbit
sizes: the first maximal one is the search's witness. Memory is (maps + 1)
int32 arrays of the largest Gaussian binomial [n, k]_2: 3.2 MB at dim 8 and
53 MB at dim 9 with three maps (3 309 747 subspaces of dimension 4 and of
dimension 5), besides a number table of 4^n int32. This module and numpy load only when
such a census has automorphisms to use.
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
    """label[s]: the smallest number in the orbit of subspace s."""
    total = int(offsets[-1])
    perms = []
    for phi in autos:
        image = np.array([_apply(phi, x) for x in range(1 << n)], dtype=np.int64)
        tables = [image[fills] for fills, *_ in rows]
        perm = np.empty(total, dtype=np.int32)  # perm[s]: the number of phi(s)
        for start in range(0, total, CHUNK):
            mapped = _rows_at(np.arange(start, min(start + CHUNK, total)), offsets, rows, tables)
            pivots = _echelon(mapped) << n
            perm[start:start + CHUNK] = sum(number[pivots | r] for r in mapped)
        perms.append(perm)
    label = np.arange(total, dtype=np.int32)
    moved = True
    while moved:
        moved = False
        for start in range(0, total, CHUNK):
            block = label[start:start + CHUNK]
            low = block.copy()
            for perm in perms:
                np.minimum(low, label[perm[start:start + CHUNK]], out=low)
            np.minimum(low, label[low], out=low)  # pointer jumping
            if (low != block).any():
                block[:] = low
                moved = True
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
    first, sizes = np.unique(label, return_counts=True)  # sorted: enumeration order
    reps = _rows_at(first, offsets, rows, [f for f, *_ in rows])
    yield from zip(zip(*(r.tolist() for r in reps)), sizes.tolist())
