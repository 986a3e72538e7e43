"""The composition law: the polarized proof against the pointwise scans."""

from functools import lru_cache

import pytest

from complen import primescan
from complen.algebra import AlgebraTable, QuadraticForm
from complen.checkers import _composition_scan_pairs, check_composition
from complen.constructors import (
    cayley_dickson_double,
    make_hurwitz_tower,
    make_okubo_idempotent,
    make_okubo_isotropic,
    standard_twist,
)
from complen.fields import field_make

F2 = field_make("F2")
F3 = field_make("F3")
F5 = field_make("F5")
Q = field_make("Q")
GF4 = field_make("F2^2:1,1,1")


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


# --- the batched prime-field scan against the pair loop ----------------------


def _quaternions(f):
    mu = f.one() if f.characteristic() != 5 else f.from_int(2)
    return make_hurwitz_tower(f, mu, (f.from_int(-1),))


@pytest.mark.parametrize("field", (F3, F5), ids=("F3", "F5"))
def test_batched_scan_matches_pair_loop_on_perturbed_norms(field):
    a = _quaternions(field)
    assert primescan.composition_scan(a) is None
    for b in _perturbed(a):
        bad = _composition_scan_pairs(b)
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
    # with x_i != 0 has index p^(3-i), past the first chunks
    for field, rows in ((F3, range(4)), (F5, (1, 2))):
        a = _quaternions(field)
        for i in rows:
            table = [list(r) for r in a.table]
            entry = list(table[i][i])
            entry[0] = field.add(entry[0], field.one())
            table[i][i] = tuple(entry)
            b = _variant(a, table=table)
            bad = _composition_scan_pairs(b)
            assert bad is not None
            assert primescan.composition_scan(b) == bad


def test_auto_route_unchanged():
    b = _perturbed(_tower(F3, 8))[0]
    v = check_composition(b)
    assert not v.holds and v.certificate == "exhaustive"
    _check_counterexample(b, v)
