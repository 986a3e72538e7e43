"""The GF(2) census as a sum over automorphism orbits.

An automorphism g of A maps Lin_k(S) onto Lin_k(gS), so S and gS have the
same difference sequence, and the census over all subspaces of one dimension
is a sum over the orbits of any group of automorphisms, each orbit weighted
by its size (isomorph rejection: B. D. McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998; A. Kerber, Applied Finite Group
Actions, Springer 1999). A smaller group gives more orbits, never a wrong
count. The automorphisms come from gf2autos.find_automorphisms, as lists of
basis images; vectors are bitmasks (bit i is coordinate i).

orbit_forms(columns, k, n, images) is a forms for length._exhaustive_source:
it yields (rows, orbit size) for the first subspace of each orbit among the
k-dimensional subspaces on the given columns of GF(2)^n, in enumeration
order (the order of length._forms), so one call covers one dimension. The
maps must permute those subspaces: automorphisms on every column, and over a
unital table the maps that length reduces modulo the unit, on a hyperplane.
images = image_table(n, autos) holds the (maps, 2^n) images of every vector,
built once per census by doubling. orbit_forms numbers the subspaces in
enumeration order and streams all echelon patterns of the dimension as one
index space in blocks of CHUNK numbers. Each block is read once for every
map: it finds each number's pattern by binary search over the patterns'
offsets and reads row r from row r's fills of every pattern, concatenated;
the image table maps row r to a (maps, block) array; one _echelon call
reduces the images under every map to echelon form, and one lookup per row
finds their numbers by arithmetic (a table keyed by pivot set and row).
perms[m, s] is the number of the image of s under map m. Rows are int16,
exact for n <= 15 (the default cost cap of 10^7 subspaces keeps a GF(2)
census at n <= 9); the table index pivots << n | row is int32. Labels start
at label[s] = s; block by block, label = min(label, label[perm]) for every
map and then label = min(label, label[label]) (pointer jumping), until no
label moves. At that fixed point label[s] <= label[g(s)] for every map g, so
the label is constant on each cycle of each map, hence on each orbit; it
only takes numbers in the orbit and never exceeds s, so it is the orbit's
smallest number. np.unique then gives the first subspace of each orbit, in
enumeration order, and the orbit sizes: the first maximal one is the
search's witness. Memory is (maps + 1) int32 arrays of the largest Gaussian
binomial [n, k]_2, besides a number table of 4^n int32 and the blocks: with
three maps the tracemalloc peak of the whole dim-8 census on the isotropic
Okubo table is 4.4 MB, and that of the pass over the 3 309 747 subspaces of
dimension 4 at dim 9 is 54 MB. This module and numpy load only when such a
census has automorphisms to use.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .length import _mask_row, _row_fills

CHUNK = 8192  # subspaces per streamed block; peak memory grows with it


# --- the orbit pass -----------------------------------------------------------------


def _patterns(columns, k: int) -> tuple:
    """(offsets, masks, rows) of the k-row echelon patterns on columns, in
    enumeration order, from length._row_fills on bitmasks, as arrays over
    the patterns. A form of pattern j has number offsets[j] plus its rows'
    fill indices packed, row r's shifted left by shift[j], the last row
    lowest; offsets[-1] counts the forms and masks[j] is the pivot mask.
    rows[r] is (fills, base, shift, width): row r's fills of every pattern
    concatenated (int16), pattern j's width[j] of them from base[j]."""
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
    return np.array(offsets), np.array(masks), [
        (np.array(cat, dtype=np.int16), *map(np.array, rest)) for cat, *rest in rows
    ]


def _rows_at(s, offsets, rows) -> list:
    """Row r of the forms numbered s, read from row r's concatenated fills."""
    j = np.searchsorted(offsets, s, side="right") - 1
    local = s - offsets[j]
    return [
        fills[base[j] + (local >> shift[j] & width[j] - 1)] for fills, base, shift, width in rows
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
    pivot of a row its lowest bit, pivots increasing; returns their union.
    Each row is an array, elementwise one set of rows: (maps, block) int16
    in the orbit pass."""
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


def image_table(n: int, autos: list):
    """images[m, x]: the image of vector x under map m, built by doubling
    (the image of x + e_i is the image of x plus map m's image of e_i)."""
    images = np.zeros((len(autos), 1 << n), dtype=np.int16)
    for i in range(n):
        basis = np.array([phi[i] for phi in autos], dtype=np.int16)
        images[:, 1 << i:2 << i] = images[:, :1 << i] ^ basis[:, None]
    return images


def _orbit_labels(n: int, images, offsets, rows, number):
    """label[s]: the smallest number in the orbit of subspace s."""
    total = int(offsets[-1])
    perms = np.empty((len(images), total), dtype=np.int32)  # perms[m, s]: the number of m(s)
    for start in range(0, total, CHUNK):
        s = np.arange(start, min(start + CHUNK, total))
        mapped = [images.take(r, axis=1) for r in _rows_at(s, offsets, rows)]
        pivots = _echelon(mapped).astype(np.int32) << n
        perms[:, start:start + CHUNK] = sum(number.take(pivots | r) for r in mapped)
    label = np.arange(total, dtype=np.int32)
    moved = True
    while moved:
        moved = False
        for start in range(0, total, CHUNK):
            block = label[start:start + CHUNK]
            low = block.copy()
            for perm in perms:
                np.minimum(low, label.take(perm[start:start + CHUNK]), out=low)
            np.minimum(low, label.take(low), out=low)  # pointer jumping
            if (low != block).any():
                block[:] = low
                moved = True
    return label


def orbit_forms(columns, k: int, n: int, images) -> Iterator[tuple]:
    """(rows, orbit size) of the first subspace of each orbit of the maps
    whose image_table is images among the k-dimensional subspaces on the
    given columns of GF(2)^n, in enumeration order; the sizes sum to the
    number of those subspaces."""
    if k == 0:
        yield (), 1  # the zero subspace, fixed by every map
        return
    offsets, masks, rows = _patterns(columns, k)
    label = _orbit_labels(n, images, offsets, rows, _number_table(n, offsets, masks, rows))
    first, sizes = np.unique(label, return_counts=True)  # sorted: enumeration order
    reps = _rows_at(first, offsets, rows)
    yield from zip(zip(*(r.tolist() for r in reps)), sizes.tolist())
