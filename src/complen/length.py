"""Nested spans of words, difference sequences, and length search.

One recursion computes every chain: the defining Lin_k = Lin_{k-1} + sum of
product spans. A plateau is NOT a stopping criterion for arbitrary algebras,
whose lengths can grow exponentially in the dimension. lin_spans has two
modes that run this same chain: "general", and "descending", which refuses
to run unless the algebra carries a descending certificate. The certificate
proves that the descending laws validate_report checks (no plateau before
the chain's end, the flexible and alternative length floors) hold for the
chain; it selects no algorithm.

The recursion is incremental. Inserting into an echelon never rewrites a
stored row, so the rows a level adds (those whose pivots the level below
lacks) span it modulo that level. Lin_k is built from products of rows added
at levels i and k-i, so the chain stops as soon as the span is the whole
algebra, or when k > 2L, L the last level that added rows: past 2L one
factor of every pair is empty, and the chain is stable there. The chain runs
on the integer lane's echelon: over Q fraction-free, over GF(p) mod p, and
over GF(p^k) on the restriction of scalars to GF(p).

The length search is one loop of three parts. A source yields weighted
items in a fixed order: seeded random subspaces, or those of the one
exhaustive source, fed a dimension at a time by pluggable forms: every
subspace, or over a prime field one per orbit of a few proved automorphisms
(autos.py, orbits.py: one search and one pass for every prime, GF(2)
included). An item is the tuple of a subspace's encoded reduced echelon
rows; one generator, _row_fills, makes them in that order for the forms,
the witness walk and enumerate_subspaces, and the orbit pass builds the
same fills in numpy in the same order. A lane evaluates each item by the
recursion: "gf2-bitmask" in an exhaustive census over F2, on bitmask rows
with product lookup tables, and the integer lane everywhere else, on rows of
ints with integer products ("gfp-int" over a finite field, reduced mod p in
the echelon; "q-int" over Q, fraction-free). The loop itself is the one
accumulator: it adds each weight to the census and to the covered count,
checks that the weights of an exhaustive search cover every nonzero
subspace, keeps the witness, and builds the SearchResult.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
import weakref
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .algebra import AlgebraTable, Element
from .checkers import DESCENDING, descending_kinds, validate_report
from .errors import (
    CostCapExceeded,
    DimensionMismatch,
    InfiniteField,
    InvariantViolation,
    ModeUnjustified,
    ParseError,
)
from .fields import Field, cost_cap
from .linalg import Subspace, gaussian_binomial


@dataclass
class LengthReport:
    d: tuple
    length: int
    generating: bool
    spans: tuple
    mode: str

    def as_dict(self) -> dict:
        return {
            "d": list(self.d),
            "length": self.length,
            "generating": self.generating,
            "mode": self.mode,
            "dims": [s.dim for s in self.spans],
        }


@dataclass
class SearchResult:
    best_length: int
    witness: Optional[Subspace]
    enumerated: int
    mode: str
    exact: bool
    stats: dict = dc_field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "best_length": self.best_length,
            "enumerated": self.enumerated,
            "mode": self.mode,
            "exact": self.exact,
            "witness": None,
            "stats": {
                **self.stats,
                "d_census": {
                    " ".join(map(str, d)): c
                    for d, c in sorted(self.stats["d_census"].items())
                },
            },
        }
        if self.witness is not None:
            f = self.witness.field
            out["witness"] = [[f.format(x) for x in row] for row in self.witness.rows]
        return out


def _trim(d: Sequence[int]) -> tuple:
    """d without trailing zeros (but never empty), so l = len(d) - 1."""
    last = max((k for k, x in enumerate(d) if x != 0), default=0)
    return tuple(d[: last + 1])


def has_descending_certificate(a: AlgebraTable) -> bool:
    return any(name in a.certificates for name in DESCENDING)


def _int_spans(a: AlgebraTable, s: Sequence[Element]) -> list:
    """The spans of the chain of s, from the integer lane's chain."""
    for v in s:
        if len(v) != a.dim:
            raise DimensionMismatch(f"vector length {len(v)} in ambient {a.dim}")
    return _int_lane(a).chain(s)


def lin_spans(a: AlgebraTable, s: Sequence[Element], mode: str = "general") -> LengthReport:
    """Nested spans and difference sequence of a set of elements.

    Both modes run the general recursion, on the integer lane (_int_spans)
    over every field. mode "descending" also requires a cached descending
    certificate on the algebra, the proof that the descending laws apply to
    the chain, and raises ModeUnjustified without one.
    """
    if mode not in ("general", "descending"):
        raise ModeUnjustified(f"unknown mode {mode!r}")
    if mode == "descending" and not has_descending_certificate(a):
        raise ModeUnjustified(
            "descending mode needs a descending certificate on the algebra; "
            "run check_descending or acquire_descending_certificates first"
        )
    spans = _int_spans(a, s)
    dims = [sp.dim for sp in spans]
    d = _trim([dims[0]] + [dims[k] - dims[k - 1] for k in range(1, len(dims))])
    return LengthReport(
        d=d,
        length=len(d) - 1,
        generating=sum(d) == a.dim,
        spans=tuple(spans),
        mode=mode,
    )


def count_subspaces(field: Field, ambient: int, dims: Iterable[int]) -> int:
    q = field.cardinality()
    return sum(gaussian_binomial(ambient, k, q) for k in dims)


# --- subspace sources ----------------------------------------------------------


def _echelon_patterns(columns: Sequence[int], k: int) -> Iterator[tuple]:
    """(pivots, free cells) of every k-row reduced echelon pattern on columns.

    Pivot sets come in lexicographic order. The free cells of a pattern are
    the (row, column) positions right of the row's pivot and outside every
    pivot column, in row-major order; columns not listed stay zero.
    """
    for pivots in itertools.combinations(columns, k):
        pivset = set(pivots)
        cells = [
            (r, c)
            for r in range(k)
            for c in columns
            if c > pivots[r] and c not in pivset
        ]
        yield pivots, cells


def _row_fills(columns: Sequence[int], k: int, q: int, encode: Callable) -> Iterator[tuple]:
    """(pivots, fills) of every k-row echelon pattern on the given coordinates
    of GF(q)^n, in the order of _echelon_patterns: fills[r] lists
    encode(pivot, cells) for every filling of row r's free cells by the
    scalars 0..q-1, its last free cell fastest; cells pairs each free column
    with its value. The one generator of reduced echelon forms."""
    for pivots, cells in _echelon_patterns(columns, k):
        fills = []
        for r, p in enumerate(pivots):
            cols = [c for row, c in cells if row == r]
            fills.append([
                encode(p, zip(cols, values))
                for values in itertools.product(range(q), repeat=len(cols))
            ])
        yield pivots, fills


def _forms(columns: Sequence[int], k: int, q: int, encode: Callable) -> Iterator[tuple]:
    """Every k-dimensional subspace on the given coordinates of GF(q)^n as
    the tuple of its encoded reduced echelon rows, in enumeration order."""
    # the product runs the last row fastest, which is the last cell of the form
    for _, fills in _row_fills(columns, k, q, encode):
        yield from itertools.product(*fills)


def _mask_row(p: int, cells) -> int:
    """encode over GF(2): the row as a bitmask, bit i coordinate i."""
    return sum((b << c for c, b in cells), 1 << p)


def _scalar_row(field: Field, ambient: int, p: int, cells) -> tuple:
    """encode over any field: the row as a tuple of scalars, one at p."""
    row = [0] * ambient
    row[p] = field.one()
    for c, x in cells:
        row[c] = x
    return tuple(row)


def enumerate_subspaces(field: Field, ambient: int, k: int) -> Iterator[Subspace]:
    """All k-dimensional subspaces, each exactly once, in a fixed order.

    Order: pivot-column combinations lexicographically, then the free cells
    running through the field's enumeration order, the last cell fastest.
    Rows come out directly in reduced echelon form. k = 0 gives the zero
    subspace.
    """
    if not field.is_finite():
        raise InfiniteField("subspace enumeration needs a finite field")
    encode = functools.partial(_scalar_row, field, ambient)
    for rows in _forms(range(ambient), k, field.cardinality(), encode):
        pivots = tuple(next(c for c, x in enumerate(row) if x) for row in rows)
        yield Subspace(field, ambient, rows, pivots)


def _random_subspace(
    field: Field, ambient: int, rng: random.Random, patterns: dict, encode: Callable
) -> tuple:
    """Uniform dimension, then the rows of a uniform reduced echelon form,
    each row as encode(pivot, cells) gives it (_row_fills's encode).

    Finite fields: pivot sets weighted by how many echelon forms they carry,
    free entries uniform. Rationals: uniform pivot set, small integer entries.
    patterns caches, per dimension, the echelon patterns and over a finite
    field their cumulative weights, for the draws of one search.
    """
    k = rng.randint(1, ambient)
    q = field.cardinality()  # None over Q
    if k not in patterns:
        listed = list(_echelon_patterns(range(ambient), k))
        patterns[k] = listed, q and list(itertools.accumulate(q ** len(c) for _, c in listed))
    listed, cum_weights = patterns[k]
    if q:
        pivots, cells = rng.choices(listed, cum_weights=cum_weights)[0]
        values = [rng.randrange(q) for _ in cells]
    else:
        pivots, cells = listed[rng.randrange(len(listed))]
        values = [field.from_int(rng.randint(-3, 3)) for _ in cells]
    return tuple(
        encode(p, [(c, x) for (row, c), x in zip(cells, values) if row == r])
        for r, p in enumerate(pivots)
    )


def _plain_forms(columns: Sequence[int], k: int, q: int, encode: Callable) -> Iterator[tuple]:
    """Forms for _exhaustive_source: every item of _forms, with count 1."""
    return zip(_forms(columns, k, q, encode), itertools.repeat(1))


def _exhaustive_source(a: AlgebraTable, forms) -> Iterator[tuple]:
    """(item, weight) pairs in enumeration order; the weights count the
    nonzero subspaces each item stands for and sum to all of them.

    forms(columns, k) yields (item, count) pairs for the k-dimensional
    subspaces on the given columns, the counts summing to their number:
    _plain_forms counts each subspace once, orbits.orbit_forms gives the
    first subspace of each orbit of a few automorphisms its orbit's size
    (an automorphism g maps Lin_k(S) onto Lin_k(gS)). Without a unit an
    item weighs its count. With a unit e, p its first nonzero coordinate,
    the items are the subspaces U of H = {x_p = 0}, the zero subspace
    included. Every lane starts from Lin_0 = <e> and
    Lin_m*e = e*Lin_m = Lin_m, so S and S + <e> have the same chain;
    T = <e> + U is every subspace containing e exactly once, and a nonzero S
    has S + <e> = T for S = T and the q^dim U hyperplanes of T that miss e,
    so an item weighs its count times 1 + q^dim U (1 for U = 0). An
    automorphism g fixes e and maps <e> + U onto <e> + gU, and g(x) minus
    its multiple of e permutes the subspaces of H, keeping their dimension:
    orbits over H are exact too.
    """
    n = a.dim
    e = a.unit_element()
    if e is None:
        columns, dims = range(n), range(1, n + 1)
    else:
        p = next(i for i, x in enumerate(e) if x)
        columns, dims = [c for c in range(n) if c != p], range(n)
    q = a.field.cardinality()
    for k in dims:
        weight = 1 + q**k if e is not None and k else 1
        for item, count in forms(columns, k):
            yield item, count * weight


# --- evaluator lanes -------------------------------------------------------------
#
# A lane evaluates one kind of item. evaluate(item) gives the trimmed difference
# sequence of a generating item and None otherwise; encode is the row encoder
# that _forms(columns, k, q, encode) builds the lane's items with, an item being
# the tuple of its rows; as_subspace(item) turns the witness item into a
# Subspace; products are what the automorphism search multiplies with, the
# GF(2) lane's product table prod[x][y] or the integer lane's structure
# constants, and the integer lane keeps its chain for lin_spans.


@dataclass(frozen=True)
class _Lane:
    name: str
    evaluate: Callable
    encode: Callable
    as_subspace: Callable
    products: list
    chain: Optional[Callable] = None


def _chain_d(dim: int, d0: int, first: list, red: list, level: Callable):
    """The recursion on a lane's echelon red, which holds Lin_0 (d0 rows) and
    the rows first that S added: the trimmed difference sequence, or None
    when the chain stops short of dim, and the rows new.

    level(red, new, k, room) inserts the products of the rows first added at
    levels i and k - i (new[i] and new[k - i]) into red and returns the rows
    it added, stopping at room rows. d[k] counts the rows first added at
    level k, so the span's rank is sum(d); new[k] lists them (level 1 and
    the levels that added rows), for lin_spans's snapshots.
    """
    d = [d0, len(first)]
    new, last = {1: first}, 1 if first else 0
    while sum(d) < dim and len(d) <= 2 * last:
        k = len(d)
        fresh = level(red, new, k, dim - sum(d))
        if fresh:
            new[k], last = fresh, k
        d.append(len(fresh))
    return (_trim(d) if sum(d) == dim else None), new


def _gf2_lane(a: AlgebraTable) -> _Lane:
    """Bitmask-row items over the two-element field, with product lookups.

    The recursion on bitmasks: level k adds prod[x][y] for x and y among the
    rows first added at levels i and k - i.
    """
    dim = a.dim
    size = 1 << dim

    def mask(vec) -> int:
        return sum(1 << i for i, x in enumerate(vec) if x)

    # prod[x][y] = x*y: rows[i][y] = e_i*y, and the row of x is the row of x
    # without its lowest bit plus the row of that bit
    bm = [[mask(a.table[i][j]) for j in range(dim)] for i in range(dim)]
    rows = []
    for i in range(dim):
        row = [0] * size
        for y in range(1, size):
            low = y & -y
            row[y] = row[y ^ low] ^ bm[i][low.bit_length() - 1]
        rows.append(row)
    prod = [[0] * size]
    for x in range(1, size):
        low = x & -x
        prod.append([u ^ v for u, v in zip(prod[x ^ low], rows[low.bit_length() - 1])])
    # Lin_0 in an echelon keyed by most-significant bit
    red0 = [0] * dim
    e = a.unit_element()
    if e is not None:
        red0[mask(e).bit_length() - 1] = mask(e)
    d0 = int(e is not None)

    def level(red: list, new: dict, k: int, room: int) -> list:
        """The rows level k adds to the echelon red, stopping at room rows."""
        fresh = []
        for i, xs in new.items():
            ys = new.get(k - i, ())
            for x in xs:
                px = prod[x]
                for y in ys:
                    v = px[y]
                    while v:
                        p = v.bit_length() - 1
                        w = red[p]
                        if w == 0:
                            red[p] = v
                            fresh.append(v)
                            if len(fresh) == room:
                                return fresh
                            break
                        v ^= w
        return fresh

    def evaluate(s_rows: tuple):
        red = red0.copy()
        first = []
        for v in s_rows:
            while v:
                p = v.bit_length() - 1
                w = red[p]
                if w == 0:
                    red[p] = v
                    first.append(v)
                    break
                v ^= w
        return _chain_d(dim, d0, first, red, level)[0]

    def as_subspace(s_rows: tuple) -> Subspace:
        rows = [tuple(a.field.from_int(m >> i & 1) for i in range(dim)) for m in s_rows]
        return Subspace.span(a.field, dim, rows)

    return _Lane("gf2-bitmask", evaluate, _mask_row, as_subspace, prod)


# each table's integer lane, built once: nothing changes a table's structure
# constants or unit after construction, and the lane holds no reference to it
_LANES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _int_lane(a: AlgebraTable) -> _Lane:
    """Rows of ints with integer products over Q and every finite field: the
    chain of lin_spans, and the search lane but in an exhaustive census over F2.

    The recursion on ints, as _gf2_lane runs it on bitmasks: a product sums
    the nonzero structure constants e_i*e_j = sum c_k e_k in plain ints. Over
    GF(p) the echelon does the only reduction mod p; its row at pivot k is
    reduced and 1 at k. Over Q the table is scaled by the lcm of its
    denominators (Lin_k depends only on lines), and the echelon is
    fraction-free (Bareiss): v = w[k]*v - v[k]*w, stored over its gcd, pivot positive.

    Over GF(q), q = p^k, it runs on the restriction of scalars (primescan):
    dimension nk over GF(p) on f_(i*k+u) = e_i X^u, coordinate i*k + u being
    digit u of coordinate i's index. An item's row is the k rows v, Xv, ...,
    X^(k-1)v, whose GF(p)-span is the GF(q)-span of v (k = 1: the row v).
    Products are GF(q)-bilinear, so each Lin_j is one set over both fields,
    and each d_j over GF(p) is k times its value over GF(q): evaluate
    divides, and raises InvariantViolation where k does not divide.
    chain(vectors) gives lin_spans's Lin_0, Lin_1, ...: each the Subspace of
    the rows levels 0..j added (0 left of distinct pivots is all
    Subspace.reduce needs), read back, k digits to a scalar, over their pivot
    entries; over GF(q) the rows at the first digit (i, 0) of each GF(q)
    pivot i, which span Lin_j since the echelon has every (i, u).
    """
    if a in _LANES:
        return _LANES[a]
    f, n, one = a.field, a.dim, a.field.one()
    p, k = f.characteristic(), f.spec.k
    m = n * k
    powers = [p ** (k - 1 - u) for u in range(k)]  # X^u as an index: [1] over Q and GF(p)

    @functools.cache
    def spread(x) -> list:
        """The digits of x, Xx, ..., X^(k-1)x; [[x]] over Q."""
        return [[f.mul(xu, x) // xw % p for xw in powers] for xu in powers] if p else [[x]]

    def restrict(v) -> tuple:
        """The k rows of v, Xv, ..., X^(k-1)v; over Q, v scaled to ints on its line."""
        if k > 1:
            cols = [spread(x) for x in v]
            return tuple(tuple(c for col in cols for c in col[u]) for u in range(k))
        if p:
            return (tuple(v),)
        den = math.lcm(*(x.denominator for x in v))
        return ([x.numerator * (den // x.denominator) for x in v],)

    # consts[r] lists (s, t, c) for the nonzero structure constants of f_r:
    # f_r*f_s = sum c f_t; grouped by r, this measured faster than one flat
    # list of (r, s, ((t, c), ...)) on the F5 and F7 twists
    consts = [[(j * k + v, t * k + w, c) for j, e_ij in enumerate(a.table[i]) for v in range(k)
               for t, x in enumerate(e_ij) if x
               for w, c in enumerate(spread(f.mul(powers[u], x))[v]) if c]
              for i in range(n) for u in range(k)]
    if not p:
        den = math.lcm(*(c.denominator for cs in consts for _, _, c in cs))
        consts = [[(j, t, c.numerator * (den // c.denominator)) for j, t, c in cs]
                  for cs in consts]

    def multiply(x, y) -> list:
        v = [0] * m
        for i, xi in enumerate(x):
            if xi:
                for j, t, c in consts[i]:
                    yj = y[j]
                    if yj:
                        v[t] += xi * yj * c
        return v

    def insert_mod_p(red: list, v) -> Optional[tuple]:
        """Reduce v by the echelon red and store what is left: the new row,
        or None when v lies in the span."""
        for t in range(m):
            c = v[t] % p
            if c:
                w = red[t]
                if w is None:
                    c = pow(c, -1, p)
                    red[t] = w = tuple([x * c % p for x in v])
                    return w
                v = [x - c * y for x, y in zip(v, w)]
        return None

    def insert_q(red: list, v) -> Optional[tuple]:
        for t in range(m):
            c = v[t]
            if c:
                w = red[t]
                if w is None:
                    g = math.gcd(*v) if c > 0 else -math.gcd(*v)
                    red[t] = w = tuple([x // g for x in v])
                    return w
                b = w[t]
                v = [b * x - c * y for x, y in zip(v, w)]
        return None

    insert = insert_mod_p if p else insert_q
    red0 = [None] * m
    e = a.unit_element()
    lin0 = [] if e is None else [insert(red0, r) for r in restrict(e)]
    d0 = len(lin0)

    def level(red: list, new: dict, j: int, room: int) -> list:
        """The rows level j adds to the echelon red, stopping at room rows."""
        fresh = []
        for i, xs in new.items():
            ys = new.get(j - i, ())
            for x in xs:
                for y in ys:
                    w = insert(red, multiply(x, y))
                    if w is not None:
                        fresh.append(w)
                        if len(fresh) == room:
                            return fresh
        return fresh

    def evaluate(s_rows: tuple):
        red = red0.copy()
        rows = s_rows if k == 1 else itertools.chain(*s_rows)
        first = [w for v in rows if (w := insert(red, v)) is not None]
        d = _chain_d(m, d0, first, red, level)[0]
        if k == 1 or d is None:
            return d
        if any(x % k for x in d):
            raise InvariantViolation(f"d = {d} over GF({p}) is not {k} times a d over GF({p}^{k})")
        return tuple(x // k for x in d)

    def encode(pivot: int, cells):
        rows = restrict(_scalar_row(f, n, pivot, cells))
        return rows[0] if k == 1 else rows

    def read_back(w: tuple) -> Optional[tuple]:
        t = next(i for i, x in enumerate(w) if x)
        if k > 1:
            if t % k:
                return None
            t, w = t // k, tuple(sum(c * xu for c, xu in zip(w[i : i + k], powers))
                                 for i in range(0, m, k))
        c = w[t]
        if c == one:
            return t, w
        if not p:
            return t, tuple(x // c if x % c == 0 else Fraction(x, c) for x in w)
        c = f.inv(c)
        return t, tuple(f.mul(c, x) for x in w)

    def as_subspace(s_rows: tuple) -> Subspace:
        # an item's row v is 1 at its pivot, and its first residue row reads back to v
        return Subspace.span(f, n, s_rows if k == 1 else [read_back(r[0])[1] for r in s_rows])

    def chain(vectors) -> list:
        red = red0.copy()
        first = [w for v in vectors for r in restrict(v) if (w := insert(red, r)) is not None]
        new = {0: lin0, **_chain_d(m, d0, first, red, level)[1]}
        rows, spans = [], []  # (pivot, row) pairs
        for j in range(max(new) + 1):
            rows += filter(None, map(read_back, new.get(j, ())))
            rows.sort()
            spans.append(Subspace(f, n, tuple(r for _, r in rows), tuple(t for t, _ in rows)))
        return spans

    name = "gfp-int" if p else "q-int"
    lane = _LANES[a] = _Lane(name, evaluate, encode, as_subspace, consts, chain)
    return lane


# --- the search loop ---------------------------------------------------------------

# the fewest plain items that take the orbit forms over GF(2): the GF(2) lane
# evaluates 10^4 items in about the 0.1 s that loading numpy and the orbit
# module takes
ORBIT_FLOOR = 10_000
# the same over an odd prime field, where the orbit forms run only once numpy
# is loaded. In 11 alternating in-process pairs per table (numpy loaded, 2
# cores, Python 3.11) the orbit forms lost every pair on the unital F3, F5
# and F7 quaternions (28-116 items: 0.8-2.4 ms plain, 5.9-17.4 ms with the
# search) and on the F3 twists (211 items: 5.3 against 6.5 ms), and won every
# pair on the F5 twists (1 119 items: 27 against 12 ms) and F7 twists (3 651)
PRIME_ORBIT_FLOOR = 500
# the most vectors p^n of an orbit census: the search filters and the image
# table maps each vector, and the number table holds 2^n entries per vector
ORBIT_VECTORS = 1 << 16


def _orbits_pay(q: int, n: int, items: int) -> bool:
    """Whether an exhaustive census over GF(q), q prime, whose plain forms
    evaluate items items looks for automorphisms first. Over GF(2) from
    ORBIT_FLOOR items on: the search is plain Python, and numpy loads only
    when it finds a map. Over an odd prime from PRIME_ORBIT_FLOOR items on,
    and only when numpy is already loaded (as checkers' batched checks), so
    that a one-shot census never pays for the import."""
    if q**n > ORBIT_VECTORS:
        return False
    if q == 2:
        return items >= ORBIT_FLOOR
    return items >= PRIME_ORBIT_FLOOR and "numpy" in sys.modules


def _residue_rows(forms: Callable, p: int, n: int) -> Callable:
    """forms with each base-p integer row as the integer lane's tuple of residues."""

    def residue_forms(columns, k):
        for rows, count in forms(columns, k):
            yield tuple(tuple(v // p**i % p for i in range(n)) for v in rows), count

    return residue_forms


def _validate_census(a: AlgebraTable, census: Counter) -> list:
    """Difference-sequence laws for each distinct generating d observed."""
    kinds = descending_kinds(a)
    unital = a.is_unital()
    problems = []
    for d, count in sorted(census.items()):
        errs = validate_report(d, len(d) - 1, True, a.dim, unital, kinds=kinds)
        for e in errs:
            problems.append(f"d={d} (x{count}): {e}")
    return problems


def length_of_algebra(
    a: AlgebraTable,
    mode: str = "exhaustive",
    seed: int = 0,
    budget: int = 2000,
) -> SearchResult:
    """Maximize l(S) over subspaces; exhaustive mode gives the exact value.

    Exhaustive mode covers every nonzero subspace (the length of a set
    depends only on its span) and needs a finite field plus a subspace count
    within cost_cap(). Random mode samples budget >= 1 subspaces and yields
    a lower bound marked exact=False.

    Every search is one loop: a source yields (item, weight) pairs in a fixed
    order, a lane evaluates each item, and the loop adds the weight to the
    census of generating difference sequences and to ``enumerated``, the
    subspaces covered. Random mode gives every subspace weight 1; an
    exhaustive search takes _exhaustive_source, over A/<e> with a unit e.
    Over a prime field, when _orbits_pay says so (over GF(2) from
    ORBIT_FLOOR plain items on; over an odd prime from PRIME_ORBIT_FLOOR
    items on, once numpy is loaded), it first looks for automorphisms
    (autos; ``stats["automorphisms"]`` counts the proved maps it uses) and,
    when it finds some, evaluates one item per orbit (orbits), each map
    reduced modulo a unit first. An exhaustive search whose weights do not sum to
    the number of nonzero subspaces raises InvariantViolation. ``stats``
    names the lane and counts the items it evaluated. Both lanes run the
    general recursion (``gf2-bitmask`` in an exhaustive census over F2, the
    integer lane otherwise); certificates only choose the laws
    ``violations`` checks.

    The witness is the first subspace of maximal length in enumeration
    order. Orbit forms yield each orbit's first item, in enumeration order,
    so the first maximal item is the first maximal subspace, or under the
    quotient the first maximal U. Under the quotient, let t be the least
    dimension of a maximal <e> + U (the first maximal U has dimension
    t - 1). A subspace of dimension below t - 1 spans less than t with e, so
    the witness is the first maximal subspace of dimension max(t - 1, 1),
    found by a walk through that dimension alone.
    """
    f = a.field
    quotient = False
    extra = {}
    if mode == "exhaustive":
        if not f.is_finite():
            raise InfiniteField("exhaustive search needs a finite field")
        total = count_subspaces(f, a.dim, range(1, a.dim + 1))
        cap = cost_cap()
        if total > cap:
            raise CostCapExceeded(
                f"enumeration of {total} subspaces exceeds the cost cap {cap}",
                estimate=total,
            )
        q = f.cardinality()
        lane = _gf2_lane(a) if q == 2 else _int_lane(a)
        forms = functools.partial(_plain_forms, q=q, encode=lane.encode)
        quotient = a.is_unital()
        items = count_subspaces(f, a.dim - 1, range(a.dim)) if quotient else total
        # prime fields only: a map of GF(p^k)'s restriction need not be GF(p^k)-linear
        if q == f.characteristic() and _orbits_pay(q, a.dim, items):
            from .autos import find_automorphisms

            autos = find_automorphisms(lane.products, a.dim, q)
            extra["automorphisms"] = len(autos)
            if autos:
                from . import orbits

                # over a unit, each map is reduced modulo it (see _exhaustive_source)
                unit = a.unit_element() if quotient else None
                images = orbits.image_table(a.dim, q, autos, unit)
                forms = functools.partial(orbits.orbit_forms, n=a.dim, p=q, images=images)
                if q != 2:
                    forms = _residue_rows(forms, q, a.dim)
        source = _exhaustive_source(a, forms)
    elif mode == "random":
        if budget < 1:
            raise ParseError(f"random search needs a budget of at least 1, got {budget}")
        # never the GF(2) lane: its 2^n x 2^n table is not bounded by cost_cap()
        lane, rng, patterns = _int_lane(a), random.Random(seed), {}
        source = ((_random_subspace(f, a.dim, rng, patterns, lane.encode), 1)
                  for _ in range(budget))
    else:
        raise ModeUnjustified(f"unknown search mode {mode!r}")

    census: Counter = Counter()
    enumerated = evaluated = 0
    best_len, best = -1, None
    for item, weight in source:
        evaluated += 1
        enumerated += weight
        d = lane.evaluate(item)
        if d is None:
            continue
        census[d] += weight
        if len(d) - 1 > best_len:
            best_len, best = len(d) - 1, item
    if mode == "exhaustive" and enumerated != total:
        raise InvariantViolation(
            f"the search covered {enumerated} of the {total} nonzero subspaces"
        )
    if quotient and best is not None:
        # the witness walk: best is the first maximal U, of dimension t - 1
        for s in _forms(range(a.dim), max(len(best), 1), q, lane.encode):
            d = lane.evaluate(s)
            if d is not None and len(d) - 1 == best_len:
                best = s
                break
    stats = {
        "lane": lane.name,
        **extra,
        "evaluated": evaluated,
        "generating": sum(census.values()),
        "d_census": dict(census),
        "violations": _validate_census(a, census),
    }
    return SearchResult(
        best_length=max(best_len, 0),
        witness=None if best is None else lane.as_subspace(best),
        enumerated=enumerated,
        mode=mode if mode == "exhaustive" else f"random(seed={seed},budget={budget})",
        exact=mode == "exhaustive",
        stats=stats,
    )
