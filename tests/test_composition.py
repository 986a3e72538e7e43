"""The composition law, the polarized proof and the numpy scans against Python loops."""

import itertools
from functools import lru_cache

import pytest

from complen import primescan
from complen.algebra import AlgebraTable, QuadraticForm
from complen.checkers import (
    _elements_in_order,
    check_composition,
    check_identity_direct,
    find_idempotents,
    find_isotropic,
)
from complen.constructors import (
    cayley_dickson_double,
    make_hurwitz_tower,
    make_okubo_idempotent,
    make_okubo_isotropic,
    make_quadratic_etale,
    standard_twist,
)
from complen.errors import CostCapExceeded
from complen.fields import field_make

F2 = field_make("F2")
F3 = field_make("F3")
F5 = field_make("F5")
Q = field_make("Q")
GF4 = field_make("F2^2:1,1,1")
GF8 = field_make("F2^3:1,1,0,1")
GF9 = field_make("F3^2:1,0,1")
GF16 = field_make("F2^4:1,1,0,0,1")
GF25 = field_make("F5^2:2,0,1")


def _variant(a: AlgebraTable, quad: QuadraticForm = None, table=None) -> AlgebraTable:
    return AlgebraTable(
        a.field, a.dim, a.labels, a.table if table is None else table,
        unit=a.unit, quad=a.quad if quad is None else quad, name=a.name,
    )


def _perturbed(a: AlgebraTable) -> list:
    """The norm with one diag entry raised by 1, for each entry, and one polar entry."""
    f = a.field
    out = []
    for k in range(a.dim):
        diag = list(a.quad.diag)
        diag[k] = f.add(diag[k], f.one())
        out.append(_variant(a, QuadraticForm(f, a.dim, diag, a.quad.polar)))
    if a.dim > 1:
        polar = dict(a.quad.polar)
        key = (0, a.dim - 1)
        polar[key] = f.add(polar.get(key, f.zero()), f.one())
        out.append(_variant(a, QuadraticForm(f, a.dim, a.quad.diag, polar)))
    return out


@lru_cache(maxsize=None)
def _tower(f, dim):
    """The Cayley-Dickson tower of dimension dim: from K(1) in characteristic 2, else from f."""
    doubles = (f.one(), f.from_int(-1), f.one())
    if f.characteristic() == 2:
        return make_hurwitz_tower(f, f.one(), doubles[: dim.bit_length() - 2])
    return make_hurwitz_tower(f, None, doubles[: dim.bit_length() - 1])


def _check_counterexample(a: AlgebraTable, v) -> None:
    """The counterexample re-evaluates to the stored nonzero value."""
    f = a.field
    x, y = v.counterexample["args"]
    value = f.sub(a.quad_eval(a.multiply(x, y)), f.mul(a.quad_eval(x), a.quad_eval(y)))
    assert value != f.zero()
    assert value == v.counterexample["value"]


def _finite_families():
    fams = [(f"hurwitz-F2-dim{d}", lambda d=d: _tower(F2, d)) for d in (2, 4, 8)]
    fams += [(f"hurwitz-F3-dim{d}", lambda d=d: _tower(F3, d)) for d in (1, 2, 4, 8)]
    for fname, f, dim in (("F2", F2, 8), ("F3", F3, 4)):
        for t in ("I", "II", "III", "IV"):
            fams.append((f"twist-{t}-{fname}-dim{dim}",
                         lambda f=f, dim=dim, t=t: standard_twist(_tower(f, dim), t)))
    fams.append(("okubo-isotropic-F2", lambda: make_okubo_isotropic(F2, F2.one(), F2.one())))
    fams.append(("okubo-isotropic-F3", lambda: make_okubo_isotropic(F3, F3.one(), F3.from_int(2))))
    gf4 = list(GF4.enumerate())
    fams.append(("quaternion-GF4", lambda: make_hurwitz_tower(GF4, gf4[2], (gf4[3],))))
    return fams


FINITE = _finite_families()


@pytest.mark.parametrize("build", [b for _, b in FINITE], ids=[n for n, _ in FINITE])
def test_polarized_agrees_with_exhaustive(build):
    a = build()
    for b in [a] + _perturbed(a):
        p = check_composition(b, strategy="polarized")
        assert p.certificate == "polarized-basis"
        assert p.holds == check_composition(b, strategy="exhaustive").holds
        if b is a:
            assert p.holds
        else:
            assert not p.holds
            _check_counterexample(b, p)
            assert set(p.counterexample) == {"args", "value", "indices", "coefficient"}


def _q_families():
    fams = [(f"hurwitz-Q-dim{d}", lambda d=d: _tower(Q, d)) for d in (1, 2, 4, 8)]
    for t in ("II", "IV"):
        fams.append((f"twist-{t}-Q", lambda t=t: standard_twist(_tower(Q, 8), t)))
    fams.append(("okubo-isotropic-Q", lambda: make_okubo_isotropic(Q, Q.one(), Q.from_int(-1))))
    fams.append(("okubo-idempotent-Q", lambda: make_okubo_idempotent(Q, Q.from_int(2), Q.one())))
    return fams


QFAMS = _q_families()


@pytest.mark.parametrize("build", [b for _, b in QFAMS], ids=[n for n, _ in QFAMS])
def test_polarized_proves_over_rationals(build):
    a = build()
    assert check_composition(a, strategy="polarized").holds
    for b in _perturbed(a):
        v = check_composition(b, strategy="polarized")
        assert not v.holds
        _check_counterexample(b, v)


def _point(a: AlgebraTable, i: int, k: int):
    return a.basis_element(i) if i == k else a.add(a.basis_element(i), a.basis_element(k))


def _coefficient_reader(a: AlgebraTable):
    """First nonzero coefficient of n(xy) - n(x)n(y) in point order, or None.

    A reference that reads the table and the form and multiplies no element.
    Returns (i, k, j, l, c) for the coefficient c of x_i x_k y_j y_l; the
    index pairs run (i, i) for every i, then (i, k) for i < k, x outer. With
    n(u) = u^T B u for the upper-triangular B of the form, c is the sum of
    (e_a e_c)^T B (e_b e_d) over the orderings (a, b) of (i, k) and (c, d) of
    (j, l), minus n_ik n_jl, n_ik the coefficient of x_i x_k in n(x).
    """
    f = a.field
    dim = a.dim
    split = [{} for _ in range(dim)]  # u^T B v = sum_r sum_s u_r split[r][s] v_s
    for i, d in enumerate(a.quad.diag):
        if d:
            split[i][i] = d
    for (i, j), c in a.quad.polar.items():
        split[i][j] = c
    coords = [[[(s, v) for s, v in enumerate(a.table[r][c]) if v]
               for c in range(dim)] for r in range(dim)]
    pushed = []  # the coordinates of (e_r e_c)^T B
    for r in range(dim):
        row = []
        for c in range(dim):
            w: dict = {}
            for t, u in coords[r][c]:
                for s, m in split[t].items():
                    w[s] = f.add(w[s], f.mul(u, m)) if s in w else f.mul(u, m)
            row.append(w)
        pushed.append(row)
    pairs = [(i, i) for i in range(dim)] + list(itertools.combinations(range(dim), 2))
    orders = {(i, k): ((i, k),) if i == k else ((i, k), (k, i)) for i, k in pairs}
    for (i, k), xo in orders.items():
        for (j, l), yo in orders.items():
            coeff = f.zero()
            for x1, x2 in xo:
                for y1, y2 in yo:
                    w = pushed[x1][y1]
                    for s, v in coords[x2][y2]:
                        if s in w:
                            coeff = f.add(coeff, f.mul(w[s], v))
            if k in split[i] and l in split[j]:
                coeff = f.sub(coeff, f.mul(split[i][k], split[j][l]))
            if coeff:
                return i, k, j, l, coeff
    return None


@pytest.mark.parametrize("build", [b for _, b in FINITE + QFAMS],
                         ids=[n for n, _ in FINITE + QFAMS])
def test_polarized_counterexample_is_the_coefficient(build):
    # the first nonzero coefficient in point order is the value at its points
    a = build()
    assert _coefficient_reader(a) is None
    for b in _perturbed(a):
        v = check_composition(b, strategy="polarized")
        assert not v.holds
        cx = v.counterexample
        i, k, j, l, coeff = _coefficient_reader(b)
        assert cx["indices"] == (i, k, j, l)
        assert cx["args"] == (_point(b, i, k), _point(b, j, l))
        assert cx["value"] == cx["coefficient"] == coeff
        _check_counterexample(b, v)


SMALL = {
    "K1-F2": lambda: make_quadratic_etale(F2, F2.one()),
    "K1-F3": lambda: make_quadratic_etale(F3, F3.one()),
    "quaternion-F2": lambda: _tower(F2, 4),
}


@pytest.mark.parametrize("build", SMALL.values(), ids=SMALL.keys())
def test_direct_exhaustive_composition_agrees_with_polarized(build):
    a = build()
    for b in [a] + _perturbed(a):
        d = check_identity_direct(b, "composition", "exhaustive")
        assert d.holds == check_composition(b, strategy="polarized").holds == (b is a)
        if not d.holds:
            # the first failing pair in element order, as the numpy scan finds it
            assert d.counterexample["args"] == check_composition(
                b, strategy="exhaustive").counterexample["args"]


def test_polarized_rejects_the_dim16_double():
    a = cayley_dickson_double(_tower(Q, 8), Q.from_int(2))
    assert a.dim == 16
    v = check_composition(a, strategy="polarized")
    assert not v.holds
    _check_counterexample(a, v)


def test_constructors_prove_composition_over_rationals(monkeypatch):
    import complen.constructors as cons

    seen = []
    real = cons.check_composition

    def spy(a, *args, **kwargs):
        v = real(a, *args, **kwargs)
        seen.append(v.certificate)
        return v

    monkeypatch.setattr(cons, "check_composition", spy)
    make_hurwitz_tower(Q, None, (Q.one(), Q.from_int(-1)))
    assert seen == ["polarized-basis"] * 3


# --- the restricted scans against the Python loops ---------------------------


def _pair_loop(a: AlgebraTable):
    """Exhaustive n(xy) = n(x)n(y) by the pair loop: the first failing (x, y)."""
    elems = _elements_in_order(a)
    norms = {x: a.quad_eval(x) for x in elems}
    f = a.field
    for x in elems:
        nx = norms[x]
        for y in elems:
            if a.quad_eval(a.multiply(x, y)) != f.mul(nx, norms[y]):
                return x, y
    return None


def _element_loop(a: AlgebraTable, keep) -> list:
    return [x for x in _elements_in_order(a) if not a.is_zero(x) and keep(x)]


def _quaternions(f):
    mu = f.one() if f.characteristic() != 5 else f.from_int(2)
    return make_hurwitz_tower(f, mu, (f.from_int(-1),))


# K(mu) with mu = 1 as an index, the scalar X^(k-1), outside the prime field
SCAN_TABLES = {
    "F3": lambda: _quaternions(F3),
    "F5": lambda: _quaternions(F5),
    "K-GF4": lambda: make_quadratic_etale(GF4, 1),
    "K-GF8": lambda: make_quadratic_etale(GF8, 1),
    "K-GF9": lambda: make_quadratic_etale(GF9, 1),
    "K-GF16": lambda: make_quadratic_etale(GF16, 1),
    "K-GF25": lambda: make_quadratic_etale(GF25, 1),
    "quaternion-GF4": lambda: make_hurwitz_tower(GF4, 2, (3,)),
    "hurwitz-F2-dim2": lambda: _tower(F2, 2),
    "hurwitz-F2-dim4": lambda: _tower(F2, 4),
    "twist-II-F2-dim4": lambda: standard_twist(_tower(F2, 4), "II"),
    "hurwitz-F3-dim1": lambda: _tower(F3, 1),
    "hurwitz-F3-dim2": lambda: _tower(F3, 2),
    "K-F5": lambda: make_quadratic_etale(F5, F5.from_int(2)),
    "K-F7": lambda: make_quadratic_etale(field_make("F7"), 3),
}


@pytest.mark.parametrize("build", SCAN_TABLES.values(), ids=SCAN_TABLES.keys())
def test_batched_scan_matches_pair_loop_on_perturbed_norms(build):
    a = build()
    assert primescan.composition_scan(a) is None
    for b in _perturbed(a):
        bad = _pair_loop(b)
        assert bad is not None
        assert primescan.composition_scan(b) == bad


# small blocks and chunks spread a failing x's y values over several blocks
@pytest.mark.parametrize(
    "y_block,chunk_bytes", ((1024, 4 * 2**20), (7, 64)), ids=("default", "small-blocks")
)
def test_batched_scan_matches_pair_loop_on_late_failures(y_block, chunk_bytes, monkeypatch):
    monkeypatch.setattr(primescan, "SCAN_Y_BLOCK", y_block)
    monkeypatch.setattr(primescan, "SCAN_CHUNK_BYTES", chunk_bytes)
    # a wrong square of e_i leaves every x with x_i = 0 intact; the first x
    # with x_i != 0 has index q^(dim-1-i), past the first chunks
    for a, rows in ((_quaternions(F3), range(4)), (_quaternions(F5), (1, 2)),
                    (make_quadratic_etale(GF9, 1), range(2)),
                    (make_hurwitz_tower(GF4, 2, (3,)), (2, 3))):
        f = a.field
        for i in rows:
            table = [list(r) for r in a.table]
            entry = list(table[i][i])
            entry[0] = f.add(entry[0], f.one())
            table[i][i] = tuple(entry)
            b = _variant(a, table=table)
            bad = _pair_loop(b)
            assert bad is not None
            assert primescan.composition_scan(b) == bad


@pytest.mark.parametrize("build", SCAN_TABLES.values(), ids=SCAN_TABLES.keys())
def test_element_scans_match_element_loop(build):
    a = build()
    assert find_idempotents(a) == (_element_loop(a, lambda x: a.multiply(x, x) == x), True)
    for b in [a] + _perturbed(a):
        assert find_isotropic(b) == (_element_loop(b, lambda x: not b.quad_eval(x)), True)


def test_auto_proves_the_gf9_quaternions_exhaustively():
    a = _quaternions(GF9)
    v = check_composition(a)
    assert v.holds and v.certificate == "exhaustive"
    b = _perturbed(a)[1]
    v = check_composition(b, strategy="exhaustive")
    assert not v.holds and v.certificate == "exhaustive"
    _check_counterexample(b, v)


def test_exhaustive_over_the_gf16_quaternions_is_capped():
    with pytest.raises(CostCapExceeded) as e:
        check_composition(_quaternions(GF16), strategy="exhaustive")
    assert e.value.estimate == 65536**2


def test_auto_route_unchanged():
    b = _perturbed(_tower(F3, 8))[0]
    v = check_composition(b)
    assert not v.holds and v.certificate == "exhaustive"
    _check_counterexample(b, v)
