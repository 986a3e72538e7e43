"""The census as a sum over automorphism orbits, over any prime field GF(p).

An automorphism g of A maps Lin_k(S) onto Lin_k(gS), so S and gS have the
same difference sequence, and the census over all subspaces of one dimension
is a sum over the orbits of any group of automorphisms, each orbit weighted
by its size (isomorph rejection: B. D. McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998; A. Kerber, Applied Finite Group
Actions, Springer 1999). A smaller group gives more orbits, never a wrong
count. The automorphisms come from autos.find_automorphisms, as lists of
basis images; a vector is the base-p integer below p^n whose digit i is
coordinate i (the bitmask over GF(2)).

orbit_forms(columns, k, n, p, images) is a forms for length._exhaustive_source:
it yields (rows, orbit size) for the first subspace of each orbit among the
k-dimensional subspaces on the given columns of GF(p)^n, in enumeration
order (the order of length._forms), rows as base-p integers, so one call
covers one dimension. The maps must permute those subspaces: automorphisms
on every column, and over a unital table the maps reduced modulo the unit,
on a hyperplane. images = image_table(n, p, autos, unit) holds the
(maps, p^n) images of every vector, built once per census. orbit_forms
numbers the subspaces in enumeration order and streams all echelon patterns
of the dimension as one index space in blocks of CHUNK numbers. Each block
is read once for every map: it finds each number's pattern by binary search
over the patterns' offsets and reads row r from row r's fills of every
pattern, concatenated; the image table maps row r to a (maps, block) array;
one echelon call reduces the images under every map to echelon form, and one
lookup per row finds their numbers (a table keyed by pivot set and row: a
reduced row's share of its form's number is its free-cell digits read as a
base-p number, times the number of fills of the rows below it). Only that
echelon depends on p: XOR on bitmasks over GF(2), where a paired census-gf2
measurement read the digit form slower, and digit arrays mod p otherwise.
perms[m, s] is the number of the image of s under map m. Rows are int16 while
p^n <= 2^15 and int32 above; the table index is int32. Labels start at
label[s] = s; block by block, label = min(label, label[perm]) for every map
and then label = min(label, label[label]) (pointer jumping), until no label
moves. At that fixed point label[s] <= label[g(s)] for every map g, so the
label is constant on each cycle of each map, hence on each orbit; it only
takes numbers in the orbit and never exceeds s, so it is the orbit's
smallest number. np.unique then gives the first subspace of each orbit, in
enumeration order, and the orbit sizes: the first maximal one is the
search's witness. Memory is (maps + 1) int32 arrays of the largest Gaussian
binomial [n, k]_p, besides a number table of 2^n p^n int32 and the blocks:
with three maps the tracemalloc peak of the whole dim-8 census on the
isotropic Okubo table over F2 is 4.4 MB, and that of the pass over the
3 309 747 subspaces of dimension 4 at dim 9 is 54 MB. This module and numpy
load only when such a census has automorphisms to use.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .length import _echelon_patterns

CHUNK = 8192  # subspaces per streamed block; peak memory grows with it


def _row_dtype(p: int, n: int):
    return np.int16 if p**n <= 1 << 15 else np.int32


# --- the orbit pass -----------------------------------------------------------------


def _fills(p: int, pivot: int, cols) -> np.ndarray:
    """p^pivot plus every filling of the free columns cols by 0..p-1, in the
    order of length._row_fills (the last column fastest), by p-fold doubling:
    each column repeats the fills so far once per value."""
    fills = np.array([p**pivot], dtype=np.int64)
    for c in cols:
        fills = (fills[:, None] + np.arange(0, p * p**c, p**c)).ravel()
    return fills


def _patterns(columns, k: int, p: int, n: int) -> tuple:
    """(offsets, masks, rows) of the k-row echelon patterns on columns of
    GF(p)^n, in enumeration order, as arrays over the patterns. A form of
    pattern j has number offsets[j] plus each row's fill index times
    stride[j], the last row's stride 1; offsets[-1] counts the forms and
    masks[j] is the pivot mask. rows[r] is (fills, base, stride, width): row
    r's fills of every pattern concatenated, pattern j's width[j] of them
    from base[j]."""
    offsets, masks = [0], []
    rows = [([], [0], [], []) for _ in range(k)]
    for pivots, cells in _echelon_patterns(columns, k):
        masks.append(sum(1 << c for c in pivots))
        stride = 1
        for r in reversed(range(k)):
            cat, base, strides, widths = rows[r]
            fills = _fills(p, pivots[r], [c for row, c in cells if row == r])
            cat.append(fills)
            base.append(base[-1] + len(fills))
            strides.append(stride)
            widths.append(len(fills))
            stride *= len(fills)
        offsets.append(offsets[-1] + stride)
    dtype = _row_dtype(p, n)
    return np.array(offsets), np.array(masks), [
        (np.concatenate(cat).astype(dtype), np.array(base[:-1]), np.array(strides),
         np.array(widths))
        for cat, base, strides, widths in rows
    ]


def _rows_at(s, offsets, rows, p: int) -> list:
    """Row r of the forms numbered s, read from row r's concatenated fills:
    fill (s - offset) // stride % width of its pattern's. Over GF(2) stride
    and width are powers of 2, and a shift and a mask read a block several
    times faster than integer division (CHANGES.md)."""
    j = np.searchsorted(offsets, s, side="right") - 1
    local = s - offsets[j]
    if p == 2:
        return [fills[base[j] + (local >> np.log2(stride).astype(np.int64)[j] & width[j] - 1)]
                for fills, base, stride, width in rows]
    return [fills[base[j] + local // stride[j] % width[j]] for fills, base, stride, width in rows]


def _number_table(n: int, p: int, offsets, masks, rows):
    """number[pivot mask * p^n + row]: the share of a reduced echelon row in
    the number of its form, its pattern's offset included in the first row's."""
    number = np.zeros(p**n << n, dtype=np.int32)
    for r, (fills, base, stride, width) in enumerate(rows):
        j = np.repeat(np.arange(len(masks)), width)
        share = (np.arange(len(fills)) - base[j]) * stride[j]
        number[fills + masks[j] * p**n] = share + offsets[j] if r == 0 else share
    return number


def _xor_echelon(rows: list):
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


def _digit_echelon(rows: list, p: int, n: int):
    """_xor_echelon over GF(p): reduce independent rows of base-p integers in
    place to reduced echelon form, the pivot of a row its lowest nonzero
    digit, made 1, pivots increasing; returns the pivot mask. The
    elimination runs on each row's n digits."""
    weights = p ** np.arange(n)
    inverse = np.array([0] + [pow(c, -1, p) for c in range(1, p)])
    digits = [row[..., None] // weights % p for row in rows]
    mask = 0
    for i, d in enumerate(digits):
        rest = d != 0
        for e in digits[i + 1:]:
            rest |= e != 0
        piv = rest.argmax(axis=-1)[..., None]
        mask = mask | 1 << piv[..., 0]
        for e in digits[i + 1:]:
            # row i takes the lowest remaining pivot if it lacks it
            d += e * ((np.take_along_axis(d, piv, -1) == 0) & (np.take_along_axis(e, piv, -1) != 0))
        d *= inverse[np.take_along_axis(d, piv, -1) % p]
        d %= p
        for j, e in enumerate(digits):
            if j != i:
                e -= np.take_along_axis(e, piv, -1) * d
                e %= p
    for row, d in zip(rows, digits):
        row[...] = d @ weights
    return mask


def image_table(n: int, p: int, autos: list, unit=None):
    """images[m, x]: the image of vector x under map m. With a unit e, each
    map is reduced modulo e first: g(x) minus its multiple of e, read at e's
    first nonzero coordinate, which maps the hyperplane where that
    coordinate vanishes to itself (see length._exhaustive_source)."""
    weights = p ** np.arange(n)
    # phi[m, i]: the digits of map m's image of e_i
    phi = np.array(autos, dtype=np.int64).reshape(len(autos), n, 1) // weights % p
    if unit is not None:
        e = np.array(unit, dtype=np.int64)
        t = int(np.flatnonzero(e)[0])
        phi = (phi - (phi[:, :, t] * pow(int(e[t]), -1, p) % p)[..., None] * e) % p
    x = np.arange(p**n)[:, None] // weights % p
    return (x @ phi % p @ weights).astype(_row_dtype(p, n))


def _orbit_labels(n: int, p: int, images, offsets, rows, number):
    """label[s]: the smallest number in the orbit of subspace s."""
    total = int(offsets[-1])
    perms = np.empty((len(images), total), dtype=np.int32)  # perms[m, s]: the number of m(s)
    for start in range(0, total, CHUNK):
        s = np.arange(start, min(start + CHUNK, total))
        mapped = [images.take(r, axis=1) for r in _rows_at(s, offsets, rows, p)]
        mask = _xor_echelon(mapped) if p == 2 else _digit_echelon(mapped, p, n)
        pivots = mask.astype(np.int32) * p**n
        perms[:, start:start + CHUNK] = sum(number.take(pivots + r) for r in mapped)
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


def orbit_forms(columns, k: int, n: int, p: int, images) -> Iterator[tuple]:
    """(rows, orbit size) of the first subspace of each orbit of the maps
    whose image_table is images among the k-dimensional subspaces on the
    given columns of GF(p)^n, in enumeration order, rows as base-p integers;
    the sizes sum to the number of those subspaces."""
    if k == 0:
        yield (), 1  # the zero subspace, fixed by every map
        return
    offsets, masks, rows = _patterns(columns, k, p, n)
    number = _number_table(n, p, offsets, masks, rows)
    label = _orbit_labels(n, p, images, offsets, rows, number)
    first, sizes = np.unique(label, return_counts=True)  # sorted: enumeration order
    reps = _rows_at(first, offsets, rows, p)
    yield from zip(zip(*(r.tolist() for r in reps)), sizes.tolist())
