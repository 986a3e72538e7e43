"""Automorphisms of an algebra over GF(2), found by closing graphs.

Vectors are bitmasks (bit i is coordinate i) and prod[x][y] is the product
table of the GF(2) lane in length.py. find_automorphisms looks for a few
automorphisms by closing graphs: the graph {(x, g(x))} of an automorphism is
a subalgebra of A x A, so it fixes the image of one generator of A at a time,
closes the span of the pairs under products, and drops a choice as soon as
the span is no longer the graph of an injective map. Its choices are
deterministic and it stops after CLOSURE_BUDGET closures with what it has.
Every map it returns is proved on all dim^2 basis products and shown to be
invertible. The search is plain Python: length imports this module for an
exhaustive GF(2) census of at least length.ORBIT_FLOOR items, with a unit
or without, and gf2orbits, with numpy, only when the search finds a map.
"""

from __future__ import annotations

import random
from typing import Sequence

# maps searched for: on the isotropic Okubo table over F2 the first two found
# leave 17 657 orbits, three leave 2 158; on the F2 octonions, over the unit
# quotient, one leaves 9 812 items and two or three 56. Each map adds one
# row of images to every block of the orbit pass and one permutation array
AUTOMORPHISMS = 3
# graph closures before the search keeps what it has; the dim-8 tables of the
# tests need at most 205 to find three maps, and the whole budget takes
# 0.03-0.04 s on them. On dense-8 and sparse-8 no image of the first generator
# closes, so a fruitless search ends after 255 closures in about 0.013 s
CLOSURE_BUDGET = 4000


def _apply(phi: Sequence[int], x: int) -> int:
    """phi(x) for the linear map with phi[i] the image of basis vector i."""
    out, i = 0, 0
    while x:
        if x & 1:
            out ^= phi[i]
        x >>= 1
        i += 1
    return out


def _reduce(red: dict, v: int) -> int:
    """v reduced by the echelon red, whose rows are keyed by their top bit."""
    while v and v.bit_length() in red:
        v ^= red[v.bit_length()]
    return v


def _closure(prod, red: dict, x: int) -> dict:
    """The echelon of the subalgebra that x and the subalgebra with echelon
    red generate: products of the new rows with every row, red's among
    themselves lying in red already."""
    red, queue = dict(red), [x]
    while queue:
        v = _reduce(red, queue.pop())
        if v:
            red[v.bit_length()] = v
            queue += [prod[v][b] for b in red.values()] + [prod[b][v] for b in red.values()]
    return red


def _generators(prod, n: int) -> list:
    """Elements that generate A, each the first to enlarge the subalgebra
    most; the first that reaches A ends the scan, none can do better."""
    gens, red = [], {}
    while len(red) < n:
        best = red
        for x in range(1, 1 << n):
            closed = _closure(prod, red, x)
            if len(closed) > len(best):
                best, first = closed, x
                if len(best) == n:
                    break
        gens.append(first)
        red = best
    return gens


def is_automorphism(prod, n: int, phi: Sequence[int]) -> bool:
    """Whether the linear map with basis images phi is an invertible
    homomorphism: phi(e_i e_j) = phi(e_i) phi(e_j) for every i and j."""
    red = {}
    for v in phi:
        v = _reduce(red, v)
        if not v:
            return False
        red[v.bit_length()] = v
    return all(
        _apply(phi, prod[1 << i][1 << j]) == prod[phi[i]][phi[j]]
        for i in range(n)
        for j in range(n)
    )


class _Spent(Exception):
    pass


def find_automorphisms(prod, n: int) -> list:
    """Up to AUTOMORPHISMS proved automorphisms other than the identity, as
    lists of basis images; fewer when CLOSURE_BUDGET graph closures find no
    more.

    A pair (x, u) is the bitmask x << n | u, so the graph's echelon, keyed by
    top bit, has a row for each dimension of its projection on x as long as
    no pair (0, u) with u nonzero lies in it, that is, while it is a map.
    """
    gens = _generators(prod, n)
    low = (1 << n) - 1
    rng = random.Random(0)
    spent = 0

    def close(state, x: int, u: int):
        """The closure of the graph state plus (x, u) under products, or None
        once it is not the graph of an injective map. state: the echelons of
        the graph and of its images."""
        nonlocal spent
        spent += 1
        if spent > CLOSURE_BUDGET:
            raise _Spent
        graph, images = dict(state[0]), dict(state[1])
        queue = [x << n | u]
        while queue:
            v = _reduce(graph, queue.pop())
            if not v:
                continue
            w = _reduce(images, v & low)
            if v <= low or not w:
                return None  # 0 -> nonzero is no map; nonzero -> 0 is not injective
            graph[v.bit_length()] = v
            images[w.bit_length()] = w
            vx, vu = v >> n, v & low
            for b in graph.values():
                bx, bu = b >> n, b & low
                queue.append(prod[vx][bx] << n | prod[vu][bu])
                queue.append(prod[bx][vx] << n | prod[bu][vu])
        return graph, images

    found = []

    def dfs(level: int, state) -> bool:
        if level == len(gens):
            # the graph's row for x = e_i reduces e_i to its image
            phi = [_reduce(state[0], 1 << n + i) for i in range(n)]
            if phi in found or phi == [1 << i for i in range(n)]:
                return False
            found.append(phi)
            return True
        order = list(range(1, 1 << n))
        rng.shuffle(order)
        for u in order:
            nxt = close(state, gens[level], u)
            if nxt is not None and dfs(level + 1, nxt):
                return True
        return False

    try:
        while len(found) < AUTOMORPHISMS and dfs(0, ({}, {})):
            pass
    except _Spent:
        pass
    return [phi for phi in found if is_automorphism(prod, n, phi)]
