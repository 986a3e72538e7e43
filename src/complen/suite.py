"""Executable verification cases behind the verify-paper subcommand.

Each case binds a documented fact about these algebras (a length value, a
worked product list, a counterexample, a recovered norm) to a deterministic
run whose measured string must equal the expected string exactly. Provenance
is either "claimed" (the fact as stated by its source) or "derived" (a value
established independently by an oracle in this repository). Cases that have
no constructible instance are registered as skips, never silently dropped.

Report rows are ordered by case id. The seconds column is wall-clock and is
the only nondeterministic part of a report.
"""

from __future__ import annotations

import fnmatch
import json
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .algebra import AlgebraTable
from .checkers import (
    check_composition,
    check_descending,
    check_polarized_identity,
    descending_kinds,
    find_idempotents,
    length_upper_bound,
    recover_norm,
    validate_report,
)
from .constructors import (
    make_hurwitz_tower,
    make_okubo_idempotent,
    make_okubo_isotropic,
    make_pseudo_octonion,
    make_quadratic_etale,
    make_two_dim_form,
    standard_twist,
)
from .errors import ComplenError, InvariantViolation
from .fields import field_make
from .length import length_of_algebra, lin_spans
from .linalg import Subspace

PROVENANCES = ("claimed", "derived")


@dataclass(frozen=True)
class SuiteCase:
    id: str
    expected: str
    provenance: str
    run: Optional[Callable[[int], str]] = None  # seed -> measured
    skip: str = ""  # nonempty: registered but not runnable


@dataclass(frozen=True)
class CaseOutcome:
    id: str
    status: str  # PASS | FAIL | SKIP
    expected: str
    measured: str
    seconds: float


# --- small helpers -----------------------------------------------------------


def _vec(a: AlgebraTable, coeffs: dict) -> tuple:
    z = a.field.zero()
    v = [z] * a.dim
    for i, c in coeffs.items():
        v[i] = c
    return tuple(v)


def _dstr(d: Sequence[int]) -> str:
    return "(" + ",".join(str(x) for x in d) + ")"


def _hurwitz(field_text: str, dim: int) -> AlgebraTable:
    """Tower of the given dimension; characteristic 2 starts at the etale
    level K(1), elsewhere at the field itself."""
    f = field_make(field_text)
    k = dim.bit_length() - 1
    if f.characteristic() == 2:
        return make_hurwitz_tower(f, f.one(), (f.one(),) * (k - 1))
    return make_hurwitz_tower(f, None, (f.one(),) * k)


def _standard(field_text: str, ttype: str, dim: int) -> AlgebraTable:
    a = _hurwitz(field_text, dim)
    return a if ttype == "I" else standard_twist(a, ttype)


def _etale_twist(field_text: str, mu_int: int, ttype: str) -> AlgebraTable:
    f = field_make(field_text)
    return standard_twist(make_quadratic_etale(f, f.from_int(mu_int)), ttype)


# --- case bodies -------------------------------------------------------------


def _run_exhaustive_length(build: Callable[[], AlgebraTable], seed: int) -> str:
    res = length_of_algebra(build(), mode="exhaustive")
    return f"l={res.best_length};violations={len(res.stats['violations'])}"


def _run_okubo_gf2(seed: int) -> str:
    f = field_make("F2")
    a = make_okubo_isotropic(f, f.one(), f.one())
    res = length_of_algebra(a, mode="exhaustive")
    return (
        f"l={res.best_length};subspaces={res.enumerated};"
        f"violations={len(res.stats['violations'])}"
    )


def _run_witness_bound(
    build: Callable[[], AlgebraTable], idxs: Sequence[int], seed: int
) -> str:
    a = build()
    s = [a.basis_element(i) for i in idxs]
    rep = lin_spans(a, s, mode="descending")
    kinds = descending_kinds(a)
    ub = min(length_upper_bound(a.dim, rep.d[0], k) for k in kinds)
    laws = validate_report(
        rep.d, rep.length, rep.generating, a.dim, a.is_unital(),
        kinds=kinds, rank=len(s),
    )
    exact = rep.generating and not laws and rep.length == ub
    return f"l={rep.length};upper={ub};exact={exact}"


def _run_iso_witness(field_text: str, alpha: int, beta: int, seed: int) -> str:
    f = field_make(field_text)
    al, be = f.from_int(alpha), f.from_int(beta)
    A = make_okubo_isotropic(f, al, be)
    a, b = A.basis_element(2), A.basis_element(0)  # x_{0,1}, x_{1,0}
    mul, one = A.multiply, f.one()
    aa, bb, ab, ba = mul(a, a), mul(b, b), mul(a, b), mul(b, a)
    checks = [
        (aa, {3: f.neg(be)}),
        (bb, {1: f.neg(al)}),
        (ab, {4: one}),
        (ba, {}),
        (mul(a, ab), {7: be}),
        (mul(a, bb), {}),
        (mul(ba, a), {}),
        (mul(bb, a), {6: f.neg(al)}),
        (mul(aa, bb), {5: f.mul(al, be)}),
    ]
    products = "ok" if all(got == _vec(A, want) for got, want in checks) else "bad"
    rep = lin_spans(A, [a, b], mode="general")
    laws = validate_report(
        rep.d, rep.length, rep.generating, A.dim, A.is_unital(),
        kinds=descending_kinds(A), rank=2,
    )
    return f"d={_dstr(rep.d)};l={rep.length};products={products};laws={len(laws)}"


def _run_idem_witness(seed: int) -> str:
    f = field_make("Q")
    one = f.one()
    A = make_okubo_idempotent(f, one, one)
    a = A.basis_element(1)
    b = A.add(A.basis_element(3), A.basis_element(7))
    mul = A.multiply
    aa, ab, ba, bb = mul(a, a), mul(a, b), mul(b, a), mul(b, b)
    i = f.from_int
    checks = [
        (aa, {1: i(1)}),
        (ab, {2: i(-1), 7: i(-1)}),
        (ba, {2: i(1), 3: i(1), 7: i(-1)}),
        (bb, {0: i(1), 1: i(-1), 4: i(-1), 5: i(-2)}),
        (mul(a, ab), {2: i(-1), 3: i(-1), 7: i(1)}),
        (mul(a, bb), {0: i(-1), 1: i(-2), 4: i(-2), 5: i(-1)}),
        (mul(ba, a), {2: i(1), 7: i(1)}),
        (mul(bb, a), {0: i(-1), 1: i(-2), 4: i(1), 5: i(-1)}),
        (A.sub(mul(bb, a), mul(a, bb)), {4: i(3)}),
        (mul(mul(bb, a), b), {2: i(3), 3: i(3), 6: i(3), 7: i(3)}),
    ]
    products = "ok" if all(got == _vec(A, want) for got, want in checks) else "bad"
    rep = lin_spans(A, [a, b], mode="general")
    sp3, sp4 = rep.spans[3], rep.spans[4]
    lin3 = (
        sp3.dim == 7
        and all(sp3.contains(A.basis_element(i)) for i in (0, 1, 2, 3, 4, 5, 7))
        and not sp3.contains(A.basis_element(6))
        and sp4.dim == 8
    )
    laws = validate_report(
        rep.d, rep.length, rep.generating, A.dim, A.is_unital(),
        kinds=descending_kinds(A), rank=2,
    )
    return (
        f"d={_dstr(rep.d)};l={rep.length};products={products};"
        f"lin3={'ok' if lin3 else 'bad'};laws={len(laws)}"
    )


def _run_iso_not_alternative(seed: int) -> str:
    f = field_make("F5")
    al, be = f.from_int(2), f.from_int(3)
    A = make_okubo_isotropic(f, al, be)
    a, b = A.basis_element(0), A.basis_element(3)  # x_{1,0}, x_{0,-1}
    mul = A.multiply
    aa, ab, ba = mul(a, a), mul(a, b), mul(b, a)
    probe = mul(a, ab)
    products = (
        aa == _vec(A, {1: f.neg(al)})
        and ab == _vec(A, {7: f.one()})
        and ba == _vec(A, {})
        and probe == _vec(A, {5: al})
    )
    v = check_descending(A, "alternative", candidates=[(a, b)])
    sp = Subspace.span(f, A.dim, [a, b, aa, ab, ba])
    nonmember = not sp.contains(probe)
    cond = v.counterexample["condition"] if v.counterexample else "-"
    return (
        f"holds={v.holds};condition={cond};"
        f"products={'ok' if products else 'bad'};nonmember={nonmember}"
    )


def _run_idem_not_alternative(seed: int) -> str:
    f = field_make("Q")
    A = make_okubo_idempotent(f, f.one(), f.one())
    a, b = A.basis_element(3), A.basis_element(6)
    mul, i = A.multiply, f.from_int
    aa, ab, ba = mul(a, a), mul(a, b), mul(b, a)
    probe = mul(a, ab)
    products = (
        aa == _vec(A, {0: i(1)})
        and ab == _vec(A, {5: i(1)})
        and ba == _vec(A, {4: i(-1)})
        and probe == _vec(A, {7: i(1)})
    )
    v = check_descending(A, "alternative", candidates=[(a, b)])
    sp = Subspace.span(f, A.dim, [a, b, aa, ab, ba])
    nonmember = not sp.contains(probe)
    return (
        f"holds={v.holds};products={'ok' if products else 'bad'};"
        f"nonmember={nonmember}"
    )


def _run_a4_not_descending(gammas: Sequence[int], seed: int) -> str:
    f = field_make("Q")
    A = make_hurwitz_tower(f, None, tuple(f.from_int(g) for g in gammas))
    a = A.add(A.basis_element(1), A.basis_element(10))
    b = A.add(A.basis_element(3), A.basis_element(15))
    vf = check_descending(A, "flexible", candidates=[(a, b)])
    va = check_descending(A, "alternative", candidates=[(a, b)])
    mul = A.multiply
    aa, ab, ba = mul(a, a), mul(a, b), mul(b, a)
    p = mul(ab, a)
    mag = abs(p[4])
    sp = Subspace.span(f, A.dim, [A.unit_element(), a, b, aa, ab, ba])
    nonmember = not sp.contains(p)
    return (
        f"flexible={vf.holds};alternative={va.holds};"
        f"e4magnitude={mag};nonmember={nonmember}"
    )


def _run_hurwitz_identities(field_text: str, seed: int) -> str:
    fails = []
    for dim in (2, 4, 8):
        a = _hurwitz(field_text, dim)
        for ident in ("quadratic", "regular-involution", "alternative", "two-product"):
            v = check_polarized_identity(a, ident)
            if not v.holds:
                fails.append(f"{dim}:{ident}")
    return "identities=pass" if not fails else "identities=fail:" + ",".join(fails)


def _run_symmetric_identities(
    builders: Sequence[Callable[[], AlgebraTable]], seed: int
) -> str:
    fails = []
    for build in builders:
        a = build()
        for ident in ("symmetric", "form-associativity"):
            v = check_polarized_identity(a, ident)
            if not v.holds:
                fails.append(f"{a.name}:{ident}")
    return "identities=pass" if not fails else "identities=fail:" + ",".join(fails)


def _run_norm_recovery(build: Callable[[], AlgebraTable], seed: int) -> str:
    a = build()
    probe = AlgebraTable(a.field, a.dim, a.labels, a.table, name=a.name)
    q = recover_norm(probe)
    match = list(q.diag) == list(a.quad.diag) and dict(q.polar) == dict(a.quad.polar)
    nondeg = q.is_strictly_nondegenerate()
    checked = AlgebraTable(a.field, a.dim, a.labels, a.table, quad=q, name=a.name)
    v = check_composition(checked, strategy="auto", seed=seed)
    kind = "exhaustive" if v.certificate == "exhaustive" else "sampled"
    return f"match={match};nondegenerate={nondeg};composition={v.holds}:{kind}"


def _run_two_dim_form(seed: int) -> str:
    f = field_make("F5")
    a = make_two_dim_form(f, f.one())
    res = length_of_algebra(a, mode="exhaustive")
    idems, exhaustive = find_idempotents(a)
    scope = "exhaustive" if exhaustive else "partial"
    return (
        f"l={res.best_length};violations={len(res.stats['violations'])};"
        f"idempotents={len(idems)}:{scope}"
    )


# --- the case table ----------------------------------------------------------


def all_cases() -> list:
    cases = []

    def add(cid, expected, provenance, run=None, skip=""):
        if provenance not in PROVENANCES:
            raise InvariantViolation(
                f"case {cid}: provenance must be one of {PROVENANCES}"
            )
        cases.append(SuiteCase(cid, expected, provenance, run, skip))

    add(
        "okubo-gf2-exhaustive",
        "l=4;subspaces=417198;violations=0",
        "claimed",
        _run_okubo_gf2,
    )
    add(
        "okubo-isotropic-F5-witness",
        "d=(0,2,3,2,1);l=4;products=ok;laws=0",
        "claimed",
        lambda s: _run_iso_witness("F5", 2, 3, s),
    )
    add(
        "okubo-isotropic-Q-witness",
        "d=(0,2,3,2,1);l=4;products=ok;laws=0",
        "claimed",
        lambda s: _run_iso_witness("Q", 1, 1, s),
    )
    add(
        "okubo-idempotent-Q-witness",
        "d=(0,2,3,2,1);l=4;products=ok;lin3=ok;laws=0",
        "claimed",
        _run_idem_witness,
    )
    add(
        "okubo-isotropic-not-alternative",
        "holds=False;condition=a(ab);products=ok;nonmember=True",
        "claimed",
        _run_iso_not_alternative,
    )
    add(
        "okubo-idempotent-not-alternative",
        "holds=False;products=ok;nonmember=True",
        "claimed",
        _run_idem_not_alternative,
    )
    add(
        "a4-not-descending",
        "flexible=False;alternative=False;e4magnitude=2;nonmember=True",
        "claimed",
        lambda s: _run_a4_not_descending((1, 1, 1, 1), s),
    )
    add(
        "a4-not-descending-gamma2357",
        "flexible=False;alternative=False;e4magnitude=84;nonmember=True",
        "derived",
        lambda s: _run_a4_not_descending((2, 3, 5, 7), s),
    )

    # the five two-dimensional tables over F2, including the three length-1
    # exceptions K(0) types II/III and K(1) type IV
    for cid, mu, ttype, expect in (
        ("standard-F2-K0-II", 0, "II", "l=1;violations=0"),
        ("standard-F2-K0-III", 0, "III", "l=1;violations=0"),
        ("standard-F2-K1-IV", 1, "IV", "l=1;violations=0"),
        ("standard-F2-K1-II", 1, "II", "l=2;violations=0"),
        ("standard-F2-K0-IV", 0, "IV", "l=2;violations=0"),
    ):
        add(
            cid,
            expect,
            "claimed",
            lambda s, mu=mu, t=ttype: _run_exhaustive_length(
                lambda: _etale_twist("F2", mu, t), s
            ),
        )

    exhaustive_grid = (
        ("F2", "I", 2, 1), ("F2", "I", 4, 2), ("F2", "I", 8, 3),
        ("F2", "II", 4, 2), ("F2", "III", 4, 2), ("F2", "IV", 4, 2),
        ("F2", "II", 8, 3), ("F2", "IV", 8, 3),
        ("F3", "I", 1, 0), ("F3", "I", 2, 1), ("F3", "I", 4, 2),
        ("F3", "II", 2, 2), ("F3", "IV", 2, 2),
        ("F3", "II", 4, 2), ("F3", "IV", 4, 2),
    )
    for ft, ttype, dim, expect_l in exhaustive_grid:
        add(
            f"standard-{ft}-{ttype}-dim{dim}",
            f"l={expect_l};violations=0",
            "claimed",
            lambda s, ft=ft, t=ttype, d=dim: _run_exhaustive_length(
                lambda: _standard(ft, t, d), s
            ),
        )

    witness_sets = {1: (0,), 2: (1,), 4: (1, 2), 8: (1, 2, 4)}
    bound_grid = (
        ("F3", "I", 8, 3), ("F3", "II", 8, 3), ("F3", "IV", 8, 3),
        ("Q", "I", 1, 0), ("Q", "I", 2, 1), ("Q", "I", 4, 2), ("Q", "I", 8, 3),
        ("Q", "II", 2, 2), ("Q", "II", 4, 2), ("Q", "II", 8, 3),
        ("Q", "IV", 2, 2), ("Q", "IV", 4, 2), ("Q", "IV", 8, 3),
    )
    for ft, ttype, dim, expect_l in bound_grid:
        add(
            f"standard-{ft}-{ttype}-dim{dim}-bound",
            f"l={expect_l};upper={expect_l};exact=True",
            "claimed",
            lambda s, ft=ft, t=ttype, d=dim: _run_witness_bound(
                lambda: _standard(ft, t, d), witness_sets[d], s
            ),
        )

    for ft in ("F2", "F3", "F5", "Q"):
        add(
            f"identities-hurwitz-{ft}",
            "identities=pass",
            "claimed",
            lambda s, ft=ft: _run_hurwitz_identities(ft, s),
        )
    add(
        "identities-okubo-isotropic",
        "identities=pass",
        "claimed",
        lambda s: _run_symmetric_identities(
            [
                lambda: _iso("F2", 1, 1), lambda: _iso("F3", 1, 2),
                lambda: _iso("F5", 2, 3), lambda: _iso("Q", 1, 1),
            ],
            s,
        ),
    )
    add(
        "identities-okubo-idempotent",
        "identities=pass",
        "claimed",
        lambda s: _run_symmetric_identities(
            [
                lambda: _idem("F2", 1, 1), lambda: _idem("F5", 1, 1),
                lambda: _idem("Q", 1, 1),
            ],
            s,
        ),
    )
    add(
        "identities-pseudo-octonion-F7",
        "identities=pass",
        "claimed",
        lambda s: _run_symmetric_identities([_po7], s),
    )

    add(
        "norm-recovery-isotropic-F2",
        "match=True;nondegenerate=True;composition=True:exhaustive",
        "claimed",
        lambda s: _run_norm_recovery(lambda: _iso("F2", 1, 1), s),
    )
    add(
        "norm-recovery-isotropic-F3",
        "match=True;nondegenerate=True;composition=True:exhaustive",
        "claimed",
        lambda s: _run_norm_recovery(lambda: _iso("F3", 1, 2), s),
    )
    add(
        "norm-recovery-isotropic-Q",
        "match=True;nondegenerate=True;composition=True:sampled",
        "claimed",
        lambda s: _run_norm_recovery(lambda: _iso("Q", 1, 1), s),
    )
    add(
        "norm-recovery-idempotent-F2",
        "match=True;nondegenerate=True;composition=True:exhaustive",
        "claimed",
        lambda s: _run_norm_recovery(lambda: _idem("F2", 1, 1), s),
    )
    add(
        "norm-recovery-idempotent-Q",
        "match=True;nondegenerate=True;composition=True:sampled",
        "claimed",
        lambda s: _run_norm_recovery(lambda: _idem("Q", 1, 1), s),
    )
    add(
        "norm-recovery-pseudo-octonion-F7",
        "match=True;nondegenerate=True;composition=True:sampled",
        "claimed",
        lambda s: _run_norm_recovery(_po7, s),
    )

    add(
        "two-dim-form-F5",
        "l=2;violations=0;idempotents=0:exhaustive",
        "claimed",
        _run_two_dim_form,
    )
    add(
        "okubo-exceptional-length3",
        "l=3",
        "claimed",
        skip="no constructible instance at desk scale",
    )
    return cases


def _iso(field_text: str, alpha: int, beta: int) -> AlgebraTable:
    f = field_make(field_text)
    return make_okubo_isotropic(f, f.from_int(alpha), f.from_int(beta))


def _idem(field_text: str, beta: int, gamma: int) -> AlgebraTable:
    f = field_make(field_text)
    return make_okubo_idempotent(f, f.from_int(beta), f.from_int(gamma))


def _po7() -> AlgebraTable:
    f = field_make("F7")
    return make_pseudo_octonion(f, f.from_int(2))


# --- the runner --------------------------------------------------------------


def run_case(case: SuiteCase, seed: int = 0) -> CaseOutcome:
    if case.skip:
        return CaseOutcome(case.id, "SKIP", case.expected, f"skip: {case.skip}", 0.0)
    t0 = time.perf_counter()
    try:
        measured = case.run(seed)
    except Exception as e:  # a crashed case is a FAIL row, not a crashed suite
        measured = f"error: {type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    status = "PASS" if measured == case.expected else "FAIL"
    return CaseOutcome(case.id, status, case.expected, measured, seconds)


def _outcome_by_id(case_id: str, seed: int) -> tuple:
    # module-level so process pools can pickle the call
    matches = [c for c in all_cases() if c.id == case_id]
    if not matches:
        return (case_id, "FAIL", "?", "error: unknown case id", 0.0)
    o = run_case(matches[0], seed)
    return (o.id, o.status, o.expected, o.measured, o.seconds)


def select_cases(filter_glob: Optional[str] = None) -> list:
    cases = sorted(all_cases(), key=lambda c: c.id)
    if filter_glob:
        cases = [c for c in cases if fnmatch.fnmatch(c.id, filter_glob)]
    return cases


def run_suite(
    filter_glob: Optional[str] = None,
    jobs: int = 1,
    seed: int = 0,
    fmt: str = "tsv",
) -> int:
    cases = select_cases(filter_glob)
    if not cases:
        raise ComplenError(f"no suite case matches the filter {filter_glob!r}")
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_outcome_by_id, [c.id for c in cases], [seed] * len(cases)))
        outcomes = [CaseOutcome(*r) for r in raw]
    else:
        outcomes = [run_case(c, seed) for c in cases]
    outcomes.sort(key=lambda o: o.id)
    failures = sum(1 for o in outcomes if o.status == "FAIL")

    if fmt == "json":
        doc = {
            "seed": seed,
            "cases": [
                {
                    "id": o.id,
                    "status": o.status,
                    "expected": o.expected,
                    "measured": o.measured,
                    "seconds": round(o.seconds, 2),
                }
                for o in outcomes
            ],
            "failures": failures,
        }
        print(json.dumps(doc, indent=1))
    else:
        print(f"# seed={seed}")
        print("id\tstatus\texpected\tmeasured\tseconds")
        for o in outcomes:
            print(
                f"{o.id}\t{o.status}\t{o.expected}\t{o.measured}\t{o.seconds:.2f}"
            )
        print(f"# {len(outcomes)} cases, {failures} failures")
    return 0 if failures == 0 else 1
