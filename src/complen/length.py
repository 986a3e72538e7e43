"""Nested spans of words, difference sequences, and length search.

Two evaluation modes exist for a reason. The general mode follows the
defining recursion Lin_k = Lin_{k-1} + sum of product spans and stops only
when the span equals the subalgebra generated by S (a plateau is NOT a
stopping criterion for arbitrary algebras). The descending mode uses the
one-sided recursion Lin_{m+1} = Lin_m + Lin_m*S + S*Lin_m and stops at the
first plateau; both steps are only valid on algebras carrying a descending
certificate, so the mode refuses to run without one unless overridden.

Both modes are incremental. Each level is a Subspace snapshot, and inserting
into a Subspace never rewrites a stored row, so the rows a level adds (those
whose pivots the level below lacks) span it modulo that level. Products of
rows added at earlier levels were already taken then: the general mode
builds Lin_k from products of rows added at levels i and k-i, and the
descending mode multiplies only the rows added at the last level against a
basis of span(S), in both orders.

The length search is one loop of three parts. A source yields subspaces in
a fixed order: every nonzero subspace (as Subspace objects, or over GF(2) as
bitmask rows) or seeded random ones. A lane evaluates each: lin_spans, or
the bitmask recursion with product lookup tables. The loop itself is the one
accumulator of the census, the witness and the count of truncated chains,
and builds the SearchResult.
"""

from __future__ import annotations

import itertools
import os
import random
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .algebra import AlgebraTable, Element, subalgebra_closure
from .checkers import descending_kinds, validate_report
from .errors import CostCapExceeded, InfiniteField, ModeUnjustified, ParseError
from .fields import Field
from .linalg import Subspace, gaussian_binomial

DEFAULT_COST_CAP = 10**7
GENERAL_MAX_K_FACTOR = 2


def cost_cap() -> int:
    raw = os.environ.get("COMPLEN_COST_CAP", str(DEFAULT_COST_CAP))
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"COMPLEN_COST_CAP must be an integer, got {raw!r}") from None


@dataclass
class LengthReport:
    d: tuple
    length: int
    generating: bool
    spans: tuple
    mode: str
    truncated: bool = False

    def as_dict(self) -> dict:
        return {
            "d": list(self.d),
            "length": self.length,
            "generating": self.generating,
            "mode": self.mode,
            "truncated": self.truncated,
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
    return bool({"descending-flexible", "descending-alternative"} & a.certificates)


def _lin0(a: AlgebraTable) -> Subspace:
    e = a.unit_element()
    return Subspace.span(a.field, a.dim, [] if e is None else [e])


def _new_rows(old: Subspace, new: Subspace) -> list:
    """Rows of new whose pivots old lacks: new = old + their span, because
    inserting into a forward-reduced store never rewrites a stored row."""
    have = set(old.pivots)
    return [r for r, p in zip(new.basis, new.pivots) if p not in have]


def _general_spans(a: AlgebraTable, s: Sequence[Element], max_k: int):
    lin0 = _lin0(a)
    target = subalgebra_closure(a, s).sum(lin0)
    spans = [lin0, lin0.sum(Subspace.span(a.field, a.dim, s))]
    # new[i] spans Lin_i modulo Lin_{i-1}; the unit row of Lin_0 only ever
    # yields shorter words, so Lin_k = Lin_{k-1} + sum over i+j=k of new[i]*new[j]
    new = [[], _new_rows(*spans)]
    while spans[-1] != target and len(spans) - 1 < max_k:
        k = len(spans)
        acc = spans[-1]
        for i in range(1, k):
            for x in new[i]:
                for y in new[k - i]:
                    acc = acc.insert(a.multiply(x, y))
        new.append(_new_rows(spans[-1], acc))
        spans.append(acc)
    return spans, spans[-1] != target


def _descending_spans(a: AlgebraTable, s: Sequence[Element], max_k: int):
    lin0 = _lin0(a)
    # product partners must span Lin(S) itself, not Lin(S) reduced modulo the
    # unit, so S gets its own reduction
    s_span = Subspace.span(a.field, a.dim, s)
    spans = [lin0, lin0.sum(s_span)]
    while len(spans) - 1 < max_k:
        lin = spans[-1]
        nxt = lin
        for r in _new_rows(spans[-2], lin):
            for srow in s_span.basis:
                nxt = nxt.insert(a.multiply(r, srow)).insert(a.multiply(srow, r))
        if nxt is lin:
            break
        spans.append(nxt)
    return spans


def lin_spans(
    a: AlgebraTable,
    s: Sequence[Element],
    mode: str = "general",
    max_k: Optional[int] = None,
    assume_descending: bool = False,
) -> LengthReport:
    """Nested spans and difference sequence of a set of elements.

    mode "descending" requires a cached descending certificate on the algebra
    (or assume_descending=True to override at the caller's own risk).
    """
    if mode not in ("general", "descending"):
        raise ModeUnjustified(f"unknown mode {mode!r}")
    if max_k is None:
        max_k = GENERAL_MAX_K_FACTOR * a.dim
    truncated = False
    if mode == "descending":
        if not (assume_descending or has_descending_certificate(a)):
            raise ModeUnjustified(
                "descending mode needs a descending certificate on the algebra; "
                "run check_descending first or pass assume_descending"
            )
        spans = _descending_spans(a, s, max_k)
    else:
        spans, truncated = _general_spans(a, s, max_k)
    dims = [sp.dim for sp in spans]
    d = _trim([dims[0]] + [dims[k] - dims[k - 1] for k in range(1, len(dims))])
    return LengthReport(
        d=d,
        length=len(d) - 1,
        generating=sum(d) == a.dim,
        spans=tuple(spans),
        mode=mode,
        truncated=truncated,
    )


def length_of_set(
    a: AlgebraTable, s: Sequence[Element], assume_descending: bool = False
) -> LengthReport:
    """Length report for one set, under the strongest justified mode."""
    if assume_descending or has_descending_certificate(a):
        return lin_spans(a, s, mode="descending", assume_descending=assume_descending)
    return lin_spans(a, s, mode="general")


def count_subspaces(field: Field, ambient: int, dims: Iterable[int]) -> int:
    q = field.cardinality()
    return sum(gaussian_binomial(ambient, k, q) for k in dims)


# --- subspace sources ----------------------------------------------------------


def _echelon_patterns(ambient: int, k: int) -> Iterator[tuple]:
    """(pivots, free cells) of every k-row reduced echelon pattern.

    Pivot sets come in lexicographic order. The free cells of a pattern are
    the (row, column) positions right of the row's pivot and outside every
    pivot column, in row-major order.
    """
    for pivots in itertools.combinations(range(ambient), k):
        pivset = set(pivots)
        cells = [
            (r, c)
            for r in range(k)
            for c in range(pivots[r] + 1, ambient)
            if c not in pivset
        ]
        yield pivots, cells


def _echelon_form(field: Field, ambient: int, pivots: tuple, cells: list, values) -> Subspace:
    rows = [[field.zero()] * ambient for _ in pivots]
    for r, p in enumerate(pivots):
        rows[r][p] = field.one()
    for (r, c), x in zip(cells, values):
        rows[r][c] = x
    return Subspace(field, ambient, tuple(map(tuple, rows)), pivots)


def enumerate_subspaces(field: Field, ambient: int, k: int) -> Iterator[Subspace]:
    """All k-dimensional subspaces, each exactly once, in a fixed order.

    Order: pivot-column combinations lexicographically, then the free cells
    running through the field's enumeration order, the last cell fastest.
    Rows come out directly in reduced echelon form.
    """
    if not field.is_finite():
        raise InfiniteField("subspace enumeration needs a finite field")
    elems = list(field.enumerate())
    for pivots, cells in _echelon_patterns(ambient, k):
        for fill in itertools.product(elems, repeat=len(cells)):
            yield _echelon_form(field, ambient, pivots, cells, fill)


def _random_subspace(field: Field, ambient: int, rng: random.Random) -> Subspace:
    """Uniform dimension, then a uniform reduced echelon form of that dimension.

    Finite fields: pivot sets weighted by how many echelon forms they carry,
    free entries uniform. Rationals: uniform pivot set, small integer entries.
    """
    k = rng.randint(1, ambient)
    patterns = list(_echelon_patterns(ambient, k))
    if field.is_finite():
        q = field.cardinality()
        pivots, cells = rng.choices(patterns, weights=[q ** len(c) for _, c in patterns])[0]
        elems = list(field.enumerate())
        values = [elems[rng.randrange(q)] for _ in cells]
    else:
        pivots, cells = patterns[rng.randrange(len(patterns))]
        values = [Fraction(rng.randint(-3, 3)) for _ in cells]
    return _echelon_form(field, ambient, pivots, cells, values)


def _gf2_subspaces(dim: int) -> Iterator[tuple]:
    """Every nonzero subspace of GF(2)^dim as bitmask rows (bit i is
    coordinate i), in the order of enumerate_subspaces."""
    for k in range(1, dim + 1):
        for pivots, cells in _echelon_patterns(dim, k):
            # each row's fills, its last cell fastest; the product then runs
            # the last row fastest, which is the last cell of the whole form
            fills = []
            for r, p in enumerate(pivots):
                cols = [c for row, c in cells if row == r]
                fills.append([
                    sum((b << c for b, c in zip(bits, cols)), 1 << p)
                    for bits in itertools.product((0, 1), repeat=len(cols))
                ])
            yield from itertools.product(*fills)


# --- evaluator lanes -------------------------------------------------------------
#
# A lane is a pair (evaluate, as_subspace). evaluate(item) gives (d, truncated),
# d the trimmed difference sequence of a generating item and None otherwise;
# as_subspace(item) turns the witness item into a Subspace.


def _span_lane(a: AlgebraTable):
    """Subspace items through lin_spans, under the strongest justified mode."""
    mode = "descending" if has_descending_certificate(a) else "general"

    def evaluate(sub: Subspace):
        rep = lin_spans(a, sub.basis, mode=mode)
        return (rep.d if rep.generating else None), rep.truncated

    return evaluate, lambda sub: sub


def _gf2_product_tables(a: AlgebraTable):
    """Full product lookup PROD[x][y] = x*y on bitmask elements, plus transpose."""
    f = a.field
    one = f.one()
    dim = a.dim
    size = 1 << dim

    def mask(vec) -> int:
        m = 0
        for i, x in enumerate(vec):
            if x == one:
                m |= 1 << i
        return m

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
        src = prod[x ^ low]
        r = rows[low.bit_length() - 1]
        prod.append([src[y] ^ r[y] for y in range(size)])
    tprod = [[prod[x][y] for x in range(size)] for y in range(size)]
    return prod, tprod, mask


def _gf2_lane(a: AlgebraTable):
    """Bitmask-row items over the two-element field, with product lookups.

    Valid only under a descending certificate: the per-subspace iteration is
    the descending recursion with first-plateau stop.
    """
    f = a.field
    dim = a.dim
    prod, tprod, mask = _gf2_product_tables(a)
    e = a.unit_element()
    unit_mask = mask(e) if e is not None else 0
    d0 = 1 if unit_mask else 0

    def evaluate(s_rows: tuple):
        # forward echelon keyed by most-significant bit
        red = [0] * dim
        if unit_mask:
            red[unit_mask.bit_length() - 1] = unit_mask
        rank = d0
        new = []
        for v in s_rows:
            while v:
                p = v.bit_length() - 1
                w = red[p]
                if w == 0:
                    red[p] = v
                    new.append(v)
                    rank += 1
                    break
                v ^= w
        d = [d0, rank - d0]
        while new and rank < dim:
            fresh = []
            for r in s_rows:
                pr = prod[r]
                tr = tprod[r]
                for x in new:
                    for v in (pr[x], tr[x]):
                        while v:
                            p = v.bit_length() - 1
                            w = red[p]
                            if w == 0:
                                red[p] = v
                                fresh.append(v)
                                rank += 1
                                break
                            v ^= w
            if not fresh:
                break
            d.append(len(fresh))
            new = fresh
        return (_trim(d) if rank == dim else None), False

    def as_subspace(s_rows: tuple) -> Subspace:
        one, zero = f.one(), f.zero()
        return Subspace.span(
            f, dim, [tuple(one if m >> i & 1 else zero for i in range(dim)) for m in s_rows]
        )

    return evaluate, as_subspace


# --- the search loop ---------------------------------------------------------------


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
    cap: Optional[int] = None,
) -> SearchResult:
    """Maximize l(S) over subspaces; exhaustive mode gives the exact value.

    Exhaustive mode enumerates every nonzero subspace (the length of a set
    depends only on its span) and needs a finite field plus an enumeration
    count within the cost cap. Random mode samples subspaces and yields a
    lower bound marked exact=False.

    Every search is one loop: a source yields subspaces in a fixed order, a
    lane evaluates each, and the loop accumulates the census of generating
    difference sequences and the witness, the first subspace of maximal
    length in source order. A general-mode chain cut at its level cap is
    neither generating nor silently dropped: it is counted in
    stats["truncated"] and the result is not exact.
    """
    if cap is None:
        cap = cost_cap()
    f = a.field
    if mode == "exhaustive":
        if not f.is_finite():
            raise InfiniteField("exhaustive search needs a finite field")
        total = count_subspaces(f, a.dim, range(1, a.dim + 1))
        if total > cap:
            raise CostCapExceeded(
                f"enumeration of {total} subspaces exceeds the cost cap {cap}",
                estimate=total,
            )
        if f.cardinality() == 2 and has_descending_certificate(a):
            source = _gf2_subspaces(a.dim)
            evaluate, as_subspace = _gf2_lane(a)
        else:
            source = (
                sub for k in range(1, a.dim + 1) for sub in enumerate_subspaces(f, a.dim, k)
            )
            evaluate, as_subspace = _span_lane(a)
    elif mode == "random":
        rng = random.Random(seed)
        source = (_random_subspace(f, a.dim, rng) for _ in range(budget))
        evaluate, as_subspace = _span_lane(a)
    else:
        raise ModeUnjustified(f"unknown search mode {mode!r}")

    census: Counter = Counter()
    enumerated = truncated = 0
    best_len, best = -1, None
    for item in source:
        enumerated += 1
        d, cut = evaluate(item)
        truncated += cut
        if d is None:
            continue
        census[d] += 1
        if len(d) - 1 > best_len:
            best_len, best = len(d) - 1, item
    stats = {
        "generating": sum(census.values()),
        "d_census": dict(census),
        "violations": _validate_census(a, census),
    }
    if truncated:
        stats["truncated"] = truncated
    return SearchResult(
        best_length=max(best_len, 0),
        witness=None if best is None else as_subspace(best),
        enumerated=enumerated,
        mode=mode if mode == "exhaustive" else f"random(seed={seed},budget={budget})",
        exact=mode == "exhaustive" and not truncated,
        stats=stats,
    )
