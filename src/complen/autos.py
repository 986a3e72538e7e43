"""Automorphisms of an algebra over a prime field GF(p), found by closing graphs.

A vector of GF(p)^n is the base-p integer below p^n whose digit i is
coordinate i; over GF(2) that is the bitmask, bit i coordinate i. The lane
supplies the products: over GF(2) its product table prod[x][y], over an odd
prime the integer lane's structure constants (length._int_lane). Only the
row arithmetic depends on p: _Bits holds vectors as bitmasks, adds by XOR
and reads products from the table; _Digits holds them as tuples of digits
and works mod p, with numpy for the filter below. A paired census-gf2
measurement read _Digits slower than _Bits over GF(2) (CHANGES.md).

find_automorphisms looks for a few automorphisms by closing graphs: the graph
{(x, g(x))} of an automorphism is a subalgebra of A x A, so it fixes the image
of one generator of A at a time, closes the span of the pairs under products,
and drops a choice as soon as the span is no longer the graph of an injective
map. The generators come greedily from the basis: each the first basis vector
to enlarge the subalgebra most. Before it closes any candidate image u of a
generator x, the search filters every vector at once by the linear relations
that the closure would have to respect: those among x's short words x, x x,
x (x x), (x x) x and (x x)(x x), and x's products with the graph's rows
(b, g(b)) so far, b x and x b, and those rows. g maps each such term of x to
the same term of u, so a relation among the x sides that fails on the u sides
puts a pair (0, nonzero) in the closure. The filter is only a necessary
condition: every candidate that passes it still goes through the closure.
The search's choices are deterministic (the candidates of each choice in one
seeded shuffle of every nonzero vector), and it stops after CLOSURE_BUDGET
closures with what it has. Every map it returns is proved on all dim^2 basis
products and shown to be invertible. length imports this module for an
exhaustive census that may use the orbits (length._orbits_pay), and orbits,
with numpy, only when the search finds a map; over GF(2) the search is plain
Python. It holds no reference cycle, so the product table it reads dies with
the census.
"""

from __future__ import annotations

import random
from typing import Sequence

# maps searched for: on the isotropic Okubo table over F2 the first two found
# leave 17 657 orbits, three leave 2 158; on the F2 octonions, over the unit
# quotient, one leaves 9 812 items and two or three 56. Each map adds one
# row of images to every block of the orbit pass and one permutation array
AUTOMORPHISMS = 3
# graph closures before the search keeps what it has. Only candidates that
# pass the filter are closed: the dim-8 tables of the tests need at most 205
# closures to find three maps without it, and far fewer with it
CLOSURE_BUDGET = 4000


class _Bits:
    """Row arithmetic over GF(2): a vector is its bitmask, a pair (x, u) of
    A x A is x << n | u, and products are lookups in the lane's table."""

    p = 2

    def __init__(self, prod, n: int):
        self.prod, self.n, self.low = prod, n, (1 << n) - 1
        self.words = None  # words[i][u]: short word i of every vector u, made on first use

    def vector(self, x: int) -> int:
        return x

    def number(self, v: int) -> int:
        return v

    def digits(self, v: int) -> list:
        return [v >> i & 1 for i in range(self.n)]

    def key(self, v: int) -> int:
        """1 + the highest coordinate of v, 0 for v = 0: the echelon's key."""
        return v.bit_length()

    def normal(self, v: int) -> int:
        return v

    def neg(self, v: int) -> int:
        return v

    def reduce(self, red: dict, v: int) -> int:
        """v reduced by the echelon red, whose rows are keyed by key()."""
        while v and v.bit_length() in red:
            v ^= red[v.bit_length()]
        return v

    def mul(self, x: int, y: int) -> int:
        return self.prod[x][y]

    def pair(self, x: int, u: int) -> int:
        return x << self.n | u

    def split(self, v: int) -> tuple:
        return v >> self.n, v & self.low

    def apply(self, phi: Sequence[int], x: int) -> int:
        """phi(x) for the linear map with phi[i] the image of basis vector i."""
        out, i = 0, 0
        while x:
            if x & 1:
                out ^= phi[i]
            x >>= 1
            i += 1
        return out

    def satisfying(self, relations: list, terms: list, among=None) -> frozenset:
        """The vectors u, of among or of all, with sum c_t term_t(u) = 0 for
        every relation c, a term being ("linear", rows), sum u_i rows[i];
        ("word", i), short word i of u (1 to 4); or ("const", v), v. A column
        of values, one per vector u, is packed into one int, u's value in
        byte slot u; a linear column is a sum of packed digit columns times
        rows, so a relation costs a few big-int operations."""
        prod, n, size = self.prod, self.n, 1 << self.n
        width = (n + 7) // 8  # bytes per value

        def packed(column) -> int:
            data = bytes(column) if width == 1 else b"".join(
                v.to_bytes(width, "little") for v in column)
            return int.from_bytes(data, "little")

        if self.words is None:
            squares = [row[x] for x, row in enumerate(prod)]
            self.words = [None] + [packed(column) for column in (
                squares,
                [prod[x][s] for x, s in enumerate(squares)],
                [prod[s][x] for x, s in enumerate(squares)],
                [prod[s][s] for s in squares],
            )]
            # ones[i]: 1 in the slot of every u with u_i = 1; ones[n]: in every slot
            self.ones = [packed([x >> i & 1 for x in range(size)]) for i in range(n)]
            self.ones.append(packed([1] * size))
        ones = self.ones

        def column(kind, v) -> int:
            if kind == "word":
                return self.words[v]
            if kind == "const":
                return ones[n] * v
            out = 0
            for i, row in enumerate(v):
                out ^= ones[i] * row
            return out

        columns, bad = {}, 0
        for rel in relations:
            acc = 0
            for t, c in enumerate(rel):
                if c:
                    if t not in columns:
                        columns[t] = column(*terms[t])
                    acc ^= columns[t]
            bad |= acc
        bad = bad.to_bytes(size * width, "little")
        return frozenset(u for u in (range(size) if among is None else among)
                         if not any(bad[u * width:(u + 1) * width]))


class _Digits:
    """Row arithmetic over GF(p), any prime p: a vector is the tuple of its n
    digits, a pair (x, u) the tuple u + x, so that its key, 1 + its highest
    nonzero coordinate, lies in x whenever x is nonzero, as in _Bits. consts[i]
    lists (j, k, c) for the nonzero structure constants e_i e_j = sum c e_k."""

    def __init__(self, consts, n: int, p: int):
        self.consts, self.n, self.p = consts, n, p
        self.words = None  # words[i]: digits of short word i of every vector, made on first use
        self.rows = {}  # among: (its vectors, their words), for satisfying

    def vector(self, x: int) -> tuple:
        p = self.p
        return tuple(x // p**i % p for i in range(self.n))

    def number(self, v: tuple) -> int:
        return sum(c * self.p**i for i, c in enumerate(v))

    def digits(self, v: tuple) -> list:
        return list(v)

    def key(self, v: tuple) -> int:
        for i in range(len(v), 0, -1):
            if v[i - 1]:
                return i
        return 0

    def normal(self, v: tuple) -> tuple:
        """v scaled to lead with 1."""
        c = pow(v[self.key(v) - 1], -1, self.p)
        return tuple([x * c % self.p for x in v])

    def neg(self, v: tuple) -> tuple:
        return tuple([-x % self.p for x in v])

    def reduce(self, red: dict, v: tuple) -> tuple:
        p = self.p
        while True:
            k = self.key(v)
            w = red.get(k) if k else None
            if w is None:
                return v
            c = v[k - 1]
            v = tuple([(x - c * y) % p for x, y in zip(v, w)])

    def mul(self, x: tuple, y: tuple) -> tuple:
        v = [0] * self.n
        for i, xi in enumerate(x):
            if xi:
                for j, k, c in self.consts[i]:
                    yj = y[j]
                    if yj:
                        v[k] += xi * yj * c
        return tuple([c % self.p for c in v])

    def pair(self, x: tuple, u: tuple) -> tuple:
        return u + x

    def split(self, v: tuple) -> tuple:
        return v[self.n:], v[:self.n]

    def apply(self, phi: Sequence[int], x: tuple) -> tuple:
        out = [0] * self.n
        for xi, image in zip(x, phi):
            if xi:
                for k, c in enumerate(self.vector(image)):
                    out[k] += xi * c
        return tuple([c % self.p for c in out])

    def satisfying(self, relations: list, terms: list, among=None) -> frozenset:
        """As _Bits.satisfying, with numpy on the digits of the vectors of
        among (or of all): the linear terms of each relation are combined
        into one matrix first, so all relations take one product."""
        import numpy as np

        p, n = self.p, self.n
        if self.words is None:
            table = np.zeros((n, n, n), dtype=np.int64)  # table[i, j, k]: e_i e_j = sum e_k
            for i, cs in enumerate(self.consts):
                for j, k, c in cs:
                    table[i, j, k] = c

            def mul(x, y):
                return (x[:, :, None] * y[:, None, :]).reshape(len(x), n * n) @ table.reshape(
                    n * n, n) % p

            x = np.arange(p**n, dtype=np.int64)[:, None] // p ** np.arange(n) % p
            s = mul(x, x)
            self.words = [x, s, mul(x, s), mul(s, x), mul(s, s)]
        if among not in self.rows:
            at = np.arange(p**n) if among is None else np.array(sorted(among), dtype=np.int64)
            self.rows[among] = at, [w[at] for w in self.words]
        at, words = self.rows[among]
        if not relations:
            return frozenset(at.tolist())
        rel = np.array(relations, dtype=np.int64)
        linear = [t for t, (kind, _) in enumerate(terms) if kind == "linear"]
        const = [t for t, (kind, _) in enumerate(terms) if kind == "const"]
        combined = np.tensordot(rel[:, linear], np.array([terms[t][1] for t in linear]), axes=1)
        # sums[u, r, k]: coordinate k of relation r's sum at vector u
        sums = (words[0] @ (combined % p).transpose(1, 0, 2).reshape(n, -1)).reshape(
            len(at), len(rel), n)
        if const:
            sums += rel[:, const] @ np.array([terms[t][1] for t in const])
        for t, (kind, v) in enumerate(terms):
            if kind == "word" and rel[:, t].any():
                sums += rel[:, t, None] * words[v][:, None, :]
        return frozenset(at[~(sums % p).reshape(len(at), -1).any(axis=1)].tolist())


def _arithmetic(products, n: int, p: int):
    return _Bits(products, n) if p == 2 else _Digits(products, n, p)


def _closure(ar, red: dict, x) -> dict:
    """The echelon of the subalgebra that x and the subalgebra with echelon
    red generate: products of the new rows with every row, red's among
    themselves lying in red already."""
    red, queue = dict(red), [x]
    while queue:
        v = ar.reduce(red, queue.pop())
        if ar.key(v):
            v = red[ar.key(v)] = ar.normal(v)
            queue += [ar.mul(v, b) for b in red.values()] + [ar.mul(b, v) for b in red.values()]
    return red


def _generators(ar) -> list:
    """Basis vectors that generate A, each the first to enlarge the
    subalgebra most; the first that reaches A ends the scan."""
    gens, red = [], {}
    while len(red) < ar.n:
        best = red
        for i in range(ar.n):
            x = ar.vector(ar.p**i)
            closed = _closure(ar, red, x)
            if len(closed) > len(best):
                best, first = closed, x
                if len(best) == ar.n:
                    break
        gens.append(first)
        red = best
    return gens


def _kernel(ar, vectors: list) -> list:
    """A basis of the relations c, sum c_t vectors_t = 0, over GF(p): each
    vector's digits beside its unit vector, eliminated on the digits."""
    p, n, m = ar.p, ar.n, len(vectors)
    rows = [ar.digits(v) + [int(t == s) for s in range(m)] for t, v in enumerate(vectors)]
    for col in range(n):
        piv = next((r for r in rows if r[col]), None)
        if piv is None:
            continue
        rows.remove(piv)
        c = pow(piv[col], -1, p)
        piv = [v * c % p for v in piv]
        rows = [[(v - r[col] * w) % p for v, w in zip(r, piv)] for r in rows]
    return [r[n:] for r in rows]


def _filter(ar, graph: dict, x) -> tuple:
    """(relations, terms) that every image u of x must satisfy, for
    satisfying: the relations among the terms' x sides, which the closure of
    the graph plus (x, u) maps to the terms at u."""
    s = ar.mul(x, x)
    basis = [ar.vector(ar.p**i) for i in range(ar.n)]
    sides = [x, s, ar.mul(x, s), ar.mul(s, x), ar.mul(s, s)]
    terms = [("linear", basis)] + [("word", i) for i in range(1, 5)]
    for b in graph.values():
        bx, bu = ar.split(b)
        sides += [bx, ar.mul(x, bx), ar.mul(bx, x)]
        terms += [
            ("const", bu),
            ("linear", [ar.mul(e, bu) for e in basis]),  # u b = sum u_i e_i b
            ("linear", [ar.mul(bu, e) for e in basis]),
        ]
    return _kernel(ar, sides), terms


def _close(ar, state: tuple, x, u):
    """The closure of the graph state plus (x, u) under products, or None once
    it is not the graph of an injective map. state: the echelons of the graph
    and of its images. The graph's echelon has a row for each dimension of its
    projection on x as long as no pair (0, u) with u nonzero lies in it, that
    is, while it is a map."""
    n = ar.n
    graph, images = dict(state[0]), dict(state[1])
    queue = [ar.pair(x, u)]
    while queue:
        v = ar.reduce(graph, queue.pop())
        key = ar.key(v)
        if not key:
            continue
        w = ar.reduce(images, ar.split(v)[1])
        if key <= n or not ar.key(w):
            return None  # 0 -> nonzero is no map; nonzero -> 0 is not injective
        v = graph[key] = ar.normal(v)
        images[ar.key(w)] = ar.normal(w)
        vx, vu = ar.split(v)
        for b in graph.values():
            bx, bu = ar.split(b)
            queue.append(ar.pair(ar.mul(vx, bx), ar.mul(vu, bu)))
            queue.append(ar.pair(ar.mul(bx, vx), ar.mul(bu, vu)))
    return graph, images


def _maps(ar, gens: list):
    """Each new map the depth-first search finds, as the list of its basis
    images, the search starting afresh after each; it ends when the search
    is exhausted or CLOSURE_BUDGET closures are spent. The frames sit on an
    explicit stack: (graph state, the level's filter, iterator over its
    shuffled candidates)."""
    n, size = ar.n, ar.p**ar.n
    rng = random.Random(0)
    identity = [ar.p**i for i in range(n)]
    zero = ar.vector(0)
    seen, spent, base = [], 0, {}

    def frame(state: tuple, level: int) -> tuple:
        """A new level: its state, the images that pass the filter, and its
        candidates. A level's filter without the graph is made once; with
        the graph it is read on those images alone."""
        order = list(range(1, size))
        rng.shuffle(order)
        x = gens[level]
        if level not in base:
            base[level] = ar.satisfying(*_filter(ar, {}, x))
        ok = ar.satisfying(*_filter(ar, state[0], x), base[level]) if state[0] else base[level]
        return state, ok, iter(order)

    while True:
        frames = [frame(({}, {}), 0)]
        while frames:
            state, ok, order = frames[-1]
            level = len(frames) - 1
            for u in order:
                if u in ok:
                    spent += 1
                    if spent > CLOSURE_BUDGET:
                        return
                    nxt = _close(ar, state, gens[level], ar.vector(u))
                    if nxt is not None:
                        break
            else:
                frames.pop()
                continue
            if level + 1 < len(gens):
                frames.append(frame(nxt, level + 1))
                continue
            # the graph's row for x = e_i reduces e_i to minus its image
            phi = [
                ar.number(ar.neg(ar.split(ar.reduce(nxt[0], ar.pair(ar.vector(e), zero)))[1]))
                for e in identity
            ]
            if phi not in seen and phi != identity:
                seen.append(phi)
                yield phi
                break
        else:
            return


def _proved(ar, phi: Sequence[int]) -> bool:
    images = [ar.vector(v) for v in phi]
    red = {}
    for v in images:
        v = ar.reduce(red, v)
        if not ar.key(v):
            return False
        red[ar.key(v)] = ar.normal(v)
    basis = [ar.vector(ar.p**i) for i in range(ar.n)]
    return all(
        ar.apply(phi, ar.mul(x, y)) == ar.mul(images[i], images[j])
        for i, x in enumerate(basis)
        for j, y in enumerate(basis)
    )


def is_automorphism(products, n: int, phi: Sequence[int], p: int = 2) -> bool:
    """Whether the linear map with basis images phi (base-p integers) is an
    invertible homomorphism: phi(e_i e_j) = phi(e_i) phi(e_j) for every i and
    j. products: the lane's, as find_automorphisms takes them."""
    return _proved(_arithmetic(products, n, p), phi)


def find_automorphisms(products, n: int, p: int = 2) -> list:
    """Up to AUTOMORPHISMS proved automorphisms other than the identity, as
    lists of basis images (base-p integers); fewer when CLOSURE_BUDGET graph
    closures find no more. products: the GF(2) lane's product table, or over
    an odd prime the integer lane's structure constants."""
    ar = _arithmetic(products, n, p)
    found = []
    for phi in _maps(ar, _generators(ar)):
        found.append(phi)
        if len(found) == AUTOMORPHISMS:
            break
    return [phi for phi in found if _proved(ar, phi)]
