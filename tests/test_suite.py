"""The bundled verification suite: case registry and runner mechanics."""

import json

from complen.suite import SuiteCase, all_cases, run_case, run_suite, select_cases

CHEAP_CASE = "standard-F3-I-dim1"


def test_case_ids_unique_and_tagged():
    cases = all_cases()
    ids = [c.id for c in cases]
    assert len(ids) == len(set(ids))
    assert all(c.provenance in ("claimed", "derived") for c in cases)
    assert all(c.expected for c in cases)
    for c in cases:
        assert (c.run is None) == bool(c.skip), c.id


def test_registry_covers_every_family():
    ids = [c.id for c in all_cases()]
    for prefix in (
        "okubo-gf2-exhaustive",
        "standard-F2-",
        "standard-F3-",
        "standard-Q-",
        "identities-hurwitz-",
        "identities-okubo-",
        "identities-pseudo-octonion",
        "norm-recovery-",
        "two-dim-form-",
        "okubo-isotropic-F5-witness",
        "okubo-idempotent-Q-witness",
        "okubo-isotropic-not-alternative",
        "a4-not-descending",
        "okubo-exceptional-length3",
    ):
        assert any(i.startswith(prefix) for i in ids), prefix


def test_select_cases_sorted_and_filtered():
    every = select_cases()
    assert [c.id for c in every] == sorted(c.id for c in every)
    some = select_cases("identities-*")
    assert some and all(c.id.startswith("identities-") for c in some)
    assert select_cases("no-such-case-*") == []


def test_run_case_pass_and_determinism():
    case = next(c for c in all_cases() if c.id == CHEAP_CASE)
    o1 = run_case(case)
    o2 = run_case(case)
    assert o1.status == "PASS"
    assert o1.measured == o1.expected == o2.measured


def test_run_case_skip():
    case = next(c for c in all_cases() if c.id == "okubo-exceptional-length3")
    out = run_case(case)
    assert out.status == "SKIP"
    assert out.expected == "l=3"
    assert out.measured.startswith("skip: ")
    assert out.seconds == 0.0


def test_run_case_crash_becomes_fail_row():
    def boom():
        raise ValueError("synthetic")

    case = SuiteCase("synthetic-crash", "ok", "derived", boom)
    out = run_case(case)
    assert out.status == "FAIL"
    assert out.measured == "error: ValueError: synthetic"


def test_run_case_mismatch_is_fail():
    case = SuiteCase("synthetic-mismatch", "l=9", "derived", lambda: "l=1")
    out = run_case(case)
    assert out.status == "FAIL" and out.measured == "l=1"


def test_process_pool_prints_the_same_rows(capsys):
    # --jobs 2 runs the cases by id in worker processes (_outcome_by_id)
    rows = {}
    for jobs in (1, 2):
        assert run_suite("standard-F3-*-dim[12]", jobs=jobs, fmt="json") == 0
        doc = json.loads(capsys.readouterr().out)
        rows[jobs] = [(c["id"], c["status"], c["expected"], c["measured"]) for c in doc["cases"]]
    assert rows[2] == rows[1]
    assert [(i, status) for i, status, _, _ in rows[1]] == [
        ("standard-F3-I-dim1", "PASS"),
        ("standard-F3-I-dim2", "PASS"),
        ("standard-F3-II-dim2", "PASS"),
        ("standard-F3-IV-dim2", "PASS"),
    ]


# The verify-paper contract: every (id, provenance, expected) triple, in
# registration order. A rewrite of the case table must leave it unchanged.
CONTRACT = (
    ("okubo-gf2-exhaustive", "claimed",
     "l=4;subspaces=417198;violations=0"),
    ("okubo-isotropic-F5-witness", "claimed",
     "d=(0,2,3,2,1);l=4;products=ok;laws=0"),
    ("okubo-isotropic-Q-witness", "claimed",
     "d=(0,2,3,2,1);l=4;products=ok;laws=0"),
    ("okubo-idempotent-Q-witness", "claimed",
     "d=(0,2,3,2,1);l=4;products=ok;lin3=ok;laws=0"),
    ("okubo-isotropic-not-alternative", "claimed",
     "holds=False;condition=a(ab);products=ok;nonmember=True"),
    ("okubo-idempotent-not-alternative", "claimed",
     "holds=False;products=ok;nonmember=True"),
    ("a4-not-descending", "claimed",
     "flexible=False;alternative=False;e4magnitude=2;nonmember=True"),
    ("a4-not-descending-gamma2357", "derived",
     "flexible=False;alternative=False;e4magnitude=84;nonmember=True"),
    ("standard-F2-K0-II", "claimed",
     "l=1;violations=0"),
    ("standard-F2-K0-III", "claimed",
     "l=1;violations=0"),
    ("standard-F2-K1-IV", "claimed",
     "l=1;violations=0"),
    ("standard-F2-K1-II", "claimed",
     "l=2;violations=0"),
    ("standard-F2-K0-IV", "claimed",
     "l=2;violations=0"),
    ("standard-F2-I-dim2", "claimed",
     "l=1;violations=0"),
    ("standard-F2-I-dim4", "claimed",
     "l=2;violations=0"),
    ("standard-F2-I-dim8", "claimed",
     "l=3;violations=0"),
    ("standard-F2-II-dim4", "claimed",
     "l=2;violations=0"),
    ("standard-F2-III-dim4", "claimed",
     "l=2;violations=0"),
    ("standard-F2-IV-dim4", "claimed",
     "l=2;violations=0"),
    ("standard-F2-II-dim8", "claimed",
     "l=3;violations=0"),
    ("standard-F2-IV-dim8", "claimed",
     "l=3;violations=0"),
    ("standard-F3-I-dim1", "claimed",
     "l=0;violations=0"),
    ("standard-F3-I-dim2", "claimed",
     "l=1;violations=0"),
    ("standard-F3-I-dim4", "claimed",
     "l=2;violations=0"),
    ("standard-F3-II-dim2", "claimed",
     "l=2;violations=0"),
    ("standard-F3-IV-dim2", "claimed",
     "l=2;violations=0"),
    ("standard-F3-II-dim4", "claimed",
     "l=2;violations=0"),
    ("standard-F3-IV-dim4", "claimed",
     "l=2;violations=0"),
    ("standard-F3-I-dim8-bound", "claimed",
     "l=3;upper=3;exact=True"),
    ("standard-F3-II-dim8-bound", "claimed",
     "l=3;upper=3;exact=True"),
    ("standard-F3-IV-dim8-bound", "claimed",
     "l=3;upper=3;exact=True"),
    ("standard-Q-I-dim1-bound", "claimed",
     "l=0;upper=0;exact=True"),
    ("standard-Q-I-dim2-bound", "claimed",
     "l=1;upper=1;exact=True"),
    ("standard-Q-I-dim4-bound", "claimed",
     "l=2;upper=2;exact=True"),
    ("standard-Q-I-dim8-bound", "claimed",
     "l=3;upper=3;exact=True"),
    ("standard-Q-II-dim2-bound", "claimed",
     "l=2;upper=2;exact=True"),
    ("standard-Q-II-dim4-bound", "claimed",
     "l=2;upper=2;exact=True"),
    ("standard-Q-II-dim8-bound", "claimed",
     "l=3;upper=3;exact=True"),
    ("standard-Q-IV-dim2-bound", "claimed",
     "l=2;upper=2;exact=True"),
    ("standard-Q-IV-dim4-bound", "claimed",
     "l=2;upper=2;exact=True"),
    ("standard-Q-IV-dim8-bound", "claimed",
     "l=3;upper=3;exact=True"),
    ("identities-hurwitz-F2", "claimed",
     "identities=pass"),
    ("identities-hurwitz-F3", "claimed",
     "identities=pass"),
    ("identities-hurwitz-F5", "claimed",
     "identities=pass"),
    ("identities-hurwitz-Q", "claimed",
     "identities=pass"),
    ("identities-okubo-isotropic", "claimed",
     "identities=pass"),
    ("identities-okubo-idempotent", "claimed",
     "identities=pass"),
    ("identities-pseudo-octonion-F7", "claimed",
     "identities=pass"),
    ("norm-recovery-isotropic-F2", "claimed",
     "match=True;nondegenerate=True;composition=True:exhaustive"),
    ("norm-recovery-isotropic-F3", "claimed",
     "match=True;nondegenerate=True;composition=True:exhaustive"),
    ("norm-recovery-isotropic-Q", "claimed",
     "match=True;nondegenerate=True;composition=True:sampled"),
    ("norm-recovery-idempotent-F2", "claimed",
     "match=True;nondegenerate=True;composition=True:exhaustive"),
    ("norm-recovery-idempotent-Q", "claimed",
     "match=True;nondegenerate=True;composition=True:sampled"),
    ("norm-recovery-pseudo-octonion-F7", "claimed",
     "match=True;nondegenerate=True;composition=True:sampled"),
    ("two-dim-form-F5", "claimed",
     "l=2;violations=0;idempotents=0:exhaustive"),
    ("okubo-exceptional-length3", "claimed",
     "l=3"),
)


def test_registry_is_the_contract():
    assert [(c.id, c.provenance, c.expected) for c in all_cases()] == list(CONTRACT)
