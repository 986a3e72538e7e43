"""Algebra files and the command-line interface."""

import ast
import json
import os
import string
import subprocess
import sys
import time
import types
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import complen
from complen.algebra import AlgebraTable, QuadraticForm
from complen.cli import main, parse_vector_set
from complen.checkers import acquire_descending_certificates
from complen.constructors import (
    make_hurwitz_tower,
    make_okubo_isotropic,
    make_two_dim_form,
    standard_twist,
)
from complen.errors import ComplenError, InvariantViolation, ParseError
from complen.fields import field_make
from complen.iofmt import (
    algebra_from_dict,
    algebra_to_dict,
    dump_algebra,
    load_algebra,
    parse_algebra,
    save_algebra,
)

F2 = field_make("F2")
F3 = field_make("F3")
F5 = field_make("F5")
Q = field_make("Q")


# --- file format ---------------------------------------------------------------


def _quaternion_twist(f, ttype):
    # dim 4: K(1) doubled once in characteristic 2, F doubled twice elsewhere
    mu = f.one() if f.characteristic() == 2 else None
    return standard_twist(make_hurwitz_tower(f, mu, (f.one(),) * (1 if mu else 2)), ttype)


def test_roundtrip_is_byte_identical(tmp_path):
    for a in (
        make_hurwitz_tower(Q, None, (Q.one(), Q.from_int(-2))),
        make_okubo_isotropic(F5, F5.from_int(2), F5.from_int(3)),
        make_two_dim_form(F5, F5.one()),
        _quaternion_twist(F3, "IV"),
    ):
        p = tmp_path / "alg.json"
        save_algebra(a, str(p))
        first = dump_algebra(load_algebra(str(p)))
        assert first == p.read_text()
        assert dump_algebra(parse_algebra(first)) == first
        b = load_algebra(str(p))
        assert b.table == a.table
        assert b.quad == a.quad
        assert b.unit_element() == a.unit_element()
        assert b.labels == a.labels
        assert (b.twist_type, b.parent_unit) == (a.twist_type, a.parent_unit)
        assert ('"twist"' in first) == (a.twist_type is not None)


def test_dump_does_not_depend_on_the_rational_encoding():
    def fractions(v):
        return tuple(Fraction(x) for x in v)

    a = make_hurwitz_tower(Q, None, (Q.one(), Q.from_int(-2), Q.parse("3/4")))
    q = a.quad
    b = AlgebraTable(
        Q, a.dim, a.labels, [[fractions(e) for e in row] for row in a.table],
        unit=fractions(a.unit_element()),
        quad=QuadraticForm(Q, a.dim, fractions(q.diag), {k: Fraction(v) for k, v in q.polar.items()}),
        name=a.name,
    )
    assert any(type(x) is int for row in a.table for e in row for x in e)
    assert all(type(x) is Fraction for row in b.table for e in row for x in e)
    assert dump_algebra(b) == dump_algebra(a)


def test_loaded_algebra_multiplies_identically():
    a = make_okubo_isotropic(F5, F5.from_int(2), F5.from_int(3))
    b = parse_algebra(dump_algebra(a))
    x = a.add(a.basis_element(0), a.scale(F5.from_int(3), a.basis_element(5)))
    y = a.basis_element(7)
    assert b.multiply(x, y) == a.multiply(x, y)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_algebra('{"name": }')
    assert exc.value.line == 1
    assert exc.value.column is not None


def test_unknown_top_level_key_rejected():
    a = make_two_dim_form(F5, F5.one())
    doc = algebra_to_dict(a)
    doc["flavor"] = "mild"
    with pytest.raises(ParseError, match="flavor"):
        algebra_from_dict(doc)


def test_missing_and_malformed_fields_rejected():
    a = make_two_dim_form(F5, F5.one())
    good = algebra_to_dict(a)
    for mutate in (
        lambda d: d.pop("mul"),
        lambda d: d.__setitem__("dim", "2"),
        lambda d: d.__setitem__("labels", ["u"]),
        lambda d: d["mul"][0].pop(),
        lambda d: d.__setitem__("quad", {"diag": good["quad"]["diag"]}),
        lambda d: d.__setitem__("twist", "IV"),
        lambda d: d.__setitem__("twist", {"type": "V", "parent_unit": ["1", "0"]}),
        lambda d: d.__setitem__("twist", {"type": "IV", "parent_unit": ["1"]}),
        lambda d: d.__setitem__("twist", {"type": "IV", "parent_unit": [1, 0]}),
        lambda d: d.__setitem__("twist", {"type": "IV"}),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(ParseError):
            algebra_from_dict(doc)


def test_bad_polar_triples_rejected():
    a = make_two_dim_form(F5, F5.one())
    doc = algebra_to_dict(a)
    doc["quad"]["polar"] = [[1, 0, "1"]]
    with pytest.raises(ParseError, match="polar"):
        algebra_from_dict(doc)
    doc["quad"]["polar"] = [[0, 1, "1"], [0, 1, "2"]]
    with pytest.raises(ParseError, match="duplicate"):
        algebra_from_dict(doc)


def test_false_unit_claim_rejected():
    a = make_okubo_isotropic(F5, F5.from_int(2), F5.from_int(3))
    doc = algebra_to_dict(a)
    doc["unit"] = ["1"] + ["0"] * 7
    with pytest.raises(InvariantViolation):
        algebra_from_dict(doc)


@pytest.mark.parametrize("ttype", ("I", "II", "III", "IV"))
@pytest.mark.parametrize("field", ("F2", "F3", "Q"))
def test_twist_file_earns_the_certificates_of_the_table_it_saved(tmp_path, field, ttype):
    a = _quaternion_twist(field_make(field), ttype)
    path = tmp_path / "t.json"
    save_algebra(a, str(path))
    b = load_algebra(str(path))
    assert (b.twist_type, b.parent_unit) == (ttype, a.parent_unit)
    assert b.certificates == {}
    acquire_descending_certificates(b)
    assert b.certificates == a.certificates == dict.fromkeys(
        ("descending-flexible", "descending-alternative"), "closed-forms"
    )


@pytest.mark.parametrize(
    "forge",
    (
        lambda tw: tw.__setitem__("type", "I"),
        lambda tw: tw.__setitem__("type", "III"),
        lambda tw: tw.__setitem__("type", "IV"),
        lambda tw: tw["parent_unit"].__setitem__(1, "1"),
    ),
    ids=("type-I", "type-III", "type-IV", "perturbed-unit"),
)
def test_forged_twist_claim_earns_no_closed_forms(monkeypatch, forge):
    doc = algebra_to_dict(_quaternion_twist(F3, "II"))
    forge(doc["twist"])
    b = algebra_from_dict(doc)
    monkeypatch.setenv("COMPLEN_COST_CAP", "10")  # keep the enumeration off
    acquire_descending_certificates(b)
    assert "closed-forms" not in b.certificates.values()


# --- vector-set grammar ----------------------------------------------------------


def test_parse_vector_set_prime_field():
    vs = parse_vector_set(F5, 3, "1,0,2; 0,4,0")
    assert vs == [
        (F5.one(), F5.zero(), F5.from_int(2)),
        (F5.zero(), F5.from_int(4), F5.zero()),
    ]


def test_parse_vector_set_extension_scalars():
    F4 = field_make("F2^2:1,1,1")
    vs = parse_vector_set(F4, 2, "[1,1],[0,1]; 1,0")
    assert vs == [(F4.parse("1,1"), F4.parse("0,1")), (F4.one(), F4.zero())]


def test_parse_vector_set_errors():
    with pytest.raises(ParseError):
        parse_vector_set(F5, 3, "1,2")  # wrong arity
    with pytest.raises(ParseError):
        parse_vector_set(F5, 2, "[1,2")  # unbalanced bracket
    with pytest.raises(ParseError):
        parse_vector_set(F5, 2, "")


# --- CLI ---------------------------------------------------------------------


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_construct_and_check(tmp_path, capsys):
    path = str(tmp_path / "iso.json")
    code, out, _ = _run(
        capsys,
        "construct", "--family", "okubo-isotropic", "--field", "F3",
        "--params", "1,2", "--out", path,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 8 and doc["field"] == "F3" and not doc["unital"]
    assert doc["out"] == path

    code, out, _ = _run(capsys, "check", "--algebra", path, "--what", "composition",
                        "--strategy", "exhaustive")
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True and doc["certificate"] == "exhaustive"


def test_cli_check_reports_failure_with_exit_zero(tmp_path, capsys):
    path = str(tmp_path / "iso.json")
    _run(capsys, "construct", "--family", "okubo-isotropic", "--field", "F2",
         "--params", "1,1", "--out", path)
    code, out, _ = _run(capsys, "check", "--algebra", path, "--what", "alternative",
                        "--strategy", "exhaustive")
    assert code == 0  # the check completed; the property just fails
    doc = json.loads(out)
    assert doc["holds"] is False
    assert doc["counterexample"] is not None


def test_cli_twist_requires_flag_consistency(tmp_path, capsys):
    path = str(tmp_path / "t.json")
    code, _, err = _run(capsys, "construct", "--family", "twist", "--field", "F3",
                        "--params", "1,1", "--out", path)
    assert code == 1
    assert json.loads(err)["error"] == "UnknownFamily"
    code, out, _ = _run(capsys, "construct", "--family", "twist", "--field", "F3",
                        "--params", "1,1", "--twist", "IV", "--out", path)
    assert code == 0
    assert json.loads(out)["unital"] is False


def test_cli_para_hurwitz_is_twist_iv(tmp_path, capsys):
    para, twist = str(tmp_path / "p.json"), str(tmp_path / "t.json")
    _run(capsys, "construct", "--family", "para-hurwitz", "--field", "Q",
         "--params", "from-field,1", "--out", para)
    _run(capsys, "construct", "--family", "twist", "--twist", "IV", "--field", "Q",
         "--params", "from-field,1", "--out", twist)
    assert load_algebra(para).table == load_algebra(twist).table


def test_cli_prints_certificate_routes(tmp_path, capsys):
    path = str(tmp_path / "iso.json")
    code, out, _ = _run(capsys, "construct", "--family", "okubo-isotropic", "--field", "F3",
                        "--params", "1,2", "--out", path)
    assert code == 0
    routes = {"descending-flexible": "symmetric-law"}
    assert json.loads(out)["certificates"] == routes
    # a loaded file carries none until a command acquires them
    code, out, _ = _run(capsys, "length-set", "--algebra", path, "--set", "1,0,0,0,0,0,0,0")
    assert code == 0 and json.loads(out)["certificates"] == {}
    code, out, _ = _run(capsys, "length-set", "--algebra", path, "--set", "1,0,0,0,0,0,0,0",
                        "--mode", "descending")
    assert code == 0 and json.loads(out)["certificates"] == routes
    code, out, _ = _run(capsys, "length-algebra", "--algebra", path,
                        "--mode", "random", "--budget", "3")
    assert code == 0 and json.loads(out)["certificates"] == routes
    code, out, _ = _run(capsys, "construct", "--family", "hurwitz", "--field", "F2",
                        "--params", "1", "--out", str(tmp_path / "k.json"))
    assert json.loads(out)["certificates"] == {
        "descending-alternative": "closed-forms", "descending-flexible": "closed-forms",
    }


def test_cli_descending_check_prints_the_proof_route(tmp_path, capsys):
    # a loaded file carries no certificate: the check earns its own
    quat, iso = str(tmp_path / "quat.json"), str(tmp_path / "iso.json")
    save_algebra(make_hurwitz_tower(F3, None, (F3.one(),)), quat)
    save_algebra(make_okubo_isotropic(F3, F3.one(), F3.from_int(2)), iso)
    for path, what, route in (
        (quat, "descending-flexible", "closed-forms"),
        (quat, "descending-alternative", "closed-forms"),
        (iso, "descending-flexible", "symmetric-law"),
    ):
        code, out, _ = _run(capsys, "check", "--algebra", path, "--what", what)
        assert code == 0
        doc = json.loads(out)
        assert doc["holds"] is True and doc["certificate"] == route


def test_cli_length_set_general(tmp_path, capsys):
    path = str(tmp_path / "iso.json")
    _run(capsys, "construct", "--family", "okubo-isotropic", "--field", "F5",
         "--params", "2,3", "--out", path)
    code, out, _ = _run(capsys, "length-set", "--algebra", path,
                        "--set", "0,0,1,0,0,0,0,0; 1,0,0,0,0,0,0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == [0, 2, 3, 2, 1]
    assert doc["length"] == 4 and doc["generating"] is True


def test_cli_length_set_reads_fractions(tmp_path, capsys):
    # over Q lin_spans runs the integer lane; fractional entries and a table
    # with fractional structure constants give the report the Subspace chain gave
    path = str(tmp_path / "quat.json")
    _run(capsys, "construct", "--family", "hurwitz", "--field", "Q",
         "--params", "from-field,1/2,-3", "--out", path)
    code, out, _ = _run(capsys, "length-set", "--algebra", path, "--set", "1/2,1,0,-3/4")
    assert code == 0
    assert json.loads(out) == {
        "certificates": {}, "d": [1, 1], "dims": [1, 2], "generating": False, "length": 1,
        "mode": "general", "set": [["1/2", "1", "0", "-3/4"]],
    }
    code, out, _ = _run(capsys, "length-set", "--algebra", path,
                        "--set", "0,1/2,0,0;0,0,2/3,0", "--mode", "descending")
    assert code == 0
    routes = {"descending-alternative": "closed-forms", "descending-flexible": "closed-forms"}
    assert json.loads(out) == {
        "certificates": routes, "d": [1, 2, 1], "dims": [1, 3, 4], "generating": True,
        "length": 2, "mode": "descending", "set": [["0", "1/2", "0", "0"], ["0", "0", "2/3", "0"]],
    }
    # a vector of the wrong length is refused while the set is parsed
    code, out, err = _run(capsys, "length-set", "--algebra", path, "--set", "1,0,0")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ParseError", "message": "vector '1,0,0' has 3 coordinates, need 4",
    }


def test_cli_length_set_descending_modes(tmp_path, capsys):
    # a dim-16 doubling carries no descending certificate and none is acquirable
    path = str(tmp_path / "a16.json")
    _run(capsys, "construct", "--family", "hurwitz", "--field", "Q",
         "--params", "from-field,1,1,1,1", "--out", path)
    vec16 = ",".join(["0", "1"] + ["0"] * 14)
    code, _, err = _run(capsys, "length-set", "--algebra", path,
                        "--set", vec16, "--mode", "descending")
    assert code == 1
    assert json.loads(err)["error"] == "ModeUnjustified"
    code, out, err = _run(capsys, "length-set", "--algebra", path,
                          "--set", vec16, "--mode", "descending", "--assume-descending")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParseError"


def test_cli_length_algebra_exhaustive(tmp_path, capsys):
    path = str(tmp_path / "k.json")
    _run(capsys, "construct", "--family", "hurwitz", "--field", "F2",
         "--params", "1", "--out", path)
    code, out, _ = _run(capsys, "length-algebra", "--algebra", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["best_length"] == 1 and doc["exact"] is True
    assert doc["enumerated"] == 4
    # K(1) is unital: one item per subspace of a line, the zero one included
    assert doc["stats"]["lane"] == "gf2-bitmask" and doc["stats"]["evaluated"] == 2


def test_cli_length_algebra_nonpositive_budget_is_json_error(tmp_path, capsys):
    path = str(tmp_path / "k.json")
    _run(capsys, "construct", "--family", "hurwitz", "--field", "F2",
         "--params", "1", "--out", path)
    code, out, err = _run(capsys, "length-algebra", "--algebra", path,
                          "--mode", "random", "--budget", "-3")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ParseError" and "budget" in doc["message"]


def test_cli_length_algebra_cost_cap(tmp_path, capsys):
    path = str(tmp_path / "iso3.json")
    _run(capsys, "construct", "--family", "okubo-isotropic", "--field", "F3",
         "--params", "1,2", "--out", path)
    code, _, err = _run(capsys, "length-algebra", "--algebra", path)
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "CostCapExceeded"
    assert doc["estimate"] > 10**7


def test_cli_two_dim_form_with_a_huge_rational_parameter(tmp_path, capsys):
    t = time.perf_counter()
    code, out, _ = _run(capsys, "construct", "--family", "two-dim-form", "--field", "Q",
                        "--params", "1000000000000000000000007", "--out", str(tmp_path / "a.json"))
    assert time.perf_counter() - t < 1.0
    assert code == 0 and json.loads(out)["name"] == "two-dim-form(1000000000000000000000007)"


def test_cli_missing_algebra_file_is_json_error(tmp_path, capsys):
    code, out, err = _run(capsys, "length-algebra", "--algebra", str(tmp_path / "absent.json"))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_cli_bad_cost_cap_is_json_error(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "k.json")
    _run(capsys, "construct", "--family", "hurwitz", "--field", "F2",
         "--params", "1", "--out", path)
    for raw in ("abc", "-5"):
        monkeypatch.setenv("COMPLEN_COST_CAP", raw)
        code, out, err = _run(capsys, "length-algebra", "--algebra", path)
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "ParseError" and "COMPLEN_COST_CAP" in doc["message"]


def test_cli_zero_cost_cap_is_a_cap(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "k.json")
    _run(capsys, "construct", "--family", "hurwitz", "--field", "F2",
         "--params", "1", "--out", path)
    monkeypatch.setenv("COMPLEN_COST_CAP", "0")
    code, out, err = _run(capsys, "length-algebra", "--algebra", path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "CostCapExceeded"


@pytest.mark.parametrize("what,estimate", (("descending-flexible", 729), ("flexible", 81)))
def test_cli_exhaustive_checks_honour_the_cost_cap(tmp_path, capsys, monkeypatch, what, estimate):
    # K(1) over F3: 9 elements, so 81 pairs and 729 triples, all over a cap of 10
    path = str(tmp_path / "k.json")
    _run(capsys, "construct", "--family", "hurwitz", "--field", "F3",
         "--params", "1", "--out", path)
    monkeypatch.setenv("COMPLEN_COST_CAP", "10")
    code, out, err = _run(capsys, "check", "--algebra", path, "--what", what,
                          "--strategy", "exhaustive")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "CostCapExceeded" and doc["estimate"] == estimate


@pytest.mark.parametrize(
    "argv,named",
    (
        (("construct", "--family", "hurwitz", "--field", "F2", "--params", "1",
          "--out", "k.json", "--bogus"), "--bogus"),
        (("construct", "--family", "nope", "--field", "F2", "--out", "k.json"), "nope"),
        (("length-set", "--algebra", "k.json"), "--set"),
        (("verify-paper", "--seed", "1"), "--seed"),
    ),
    ids=("unknown-flag", "bad-family", "missing-required", "verify-paper-seed"),
)
def test_cli_usage_errors_are_json_errors(capsys, argv, named):
    # argparse would print usage text and exit with status 2, the cost-cap code
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ParseError" and named in doc["message"]


@pytest.mark.parametrize(
    "argv,named",
    ((("--bogus",), "--bogus"), ((), "a command is required")),
    ids=("unknown-flag", "no-arguments"),
)
def test_cli_without_a_command_is_a_json_error(capsys, argv, named):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ParseError" and named in doc["message"]


@pytest.mark.parametrize("params", ("1,,1", "1,1,", ",1"))
def test_cli_empty_params_token_is_parse_error(tmp_path, capsys, params):
    code, out, err = _run(capsys, "construct", "--family", "hurwitz", "--field", "F3",
                          "--params", params, "--out", str(tmp_path / "a.json"))
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ParseError" and "empty scalar token" in doc["message"]


def test_cli_bad_set_is_parse_error(tmp_path, capsys):
    path = str(tmp_path / "k.json")
    _run(capsys, "construct", "--family", "hurwitz", "--field", "F2",
         "--params", "1", "--out", path)
    code, _, err = _run(capsys, "length-set", "--algebra", path, "--set", "1")
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"


def test_cli_verify_paper_single_case(capsys):
    code, out, _ = _run(capsys, "verify-paper", "--filter", "standard-F3-I-dim1")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 2  # header + one case
    fields = lines[1].split("\t")
    assert fields[0] == "standard-F3-I-dim1"
    assert fields[1] == "PASS"


def test_cli_verify_paper_empty_selection_is_json_error(capsys):
    code, out, err = _run(capsys, "verify-paper", "--filter", "nomatch*")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ComplenError" and "nomatch*" in doc["message"]


def test_cli_verify_paper_json(capsys):
    code, out, _ = _run(capsys, "verify-paper", "--filter", "standard-F3-I-dim1",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert len(doc["cases"]) == 1
    assert doc["cases"][0]["status"] == "PASS"


# --- polarized composition from the CLI ------------------------------------------


def test_cli_check_composition_polarized(tmp_path, capsys):
    path = str(tmp_path / "quat.json")
    _run(capsys, "construct", "--family", "hurwitz", "--field", "Q",
         "--params", "from-field,1,-1", "--out", path)
    code, out, _ = _run(capsys, "check", "--algebra", path, "--what", "composition",
                        "--strategy", "polarized")
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True and doc["certificate"] == "polarized-basis"

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["quad"]["diag"][1] = "2"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, out, _ = _run(capsys, "check", "--algebra", path, "--what", "composition",
                        "--strategy", "polarized")
    assert code == 0
    ce = json.loads(out)["counterexample"]
    assert len(ce["args"]) == 2 and ce["value"] != "0" and ce["coefficient"] != "0"
    assert len(ce["indices"]) == 4


@pytest.mark.parametrize("what", ("flexible", "idempotents", "descending-flexible"))
def test_cli_polarized_strategy_needs_composition(tmp_path, capsys, what):
    path = str(tmp_path / "k.json")
    _run(capsys, "construct", "--family", "hurwitz", "--field", "F2",
         "--params", "1", "--out", path)
    code, out, err = _run(capsys, "check", "--algebra", path, "--what", what,
                          "--strategy", "polarized")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "UnknownIdentity" and "composition" in doc["message"]


def test_python_dash_m_complen_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "complen", "verify-paper", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "--filter" in proc.stdout


def test_import_leaves_numpy_out():
    # the scans and the orbit census import numpy lazily; importing the package must not.
    # Nor may it load the command line or the suite: every module imported at start-up
    # is compiled afresh by each process that caches no bytecode
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, complen; "
        "print(*(m in sys.modules for m in "
        "('numpy', 'complen.primescan', 'complen.autos', 'complen.orbits', "
        "'complen.cli', 'complen.suite')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * 6


def _census_modules(table: str, field: str = "F2") -> list:
    """Run an exhaustive census with ORBIT_FLOOR = PRIME_ORBIT_FLOOR = 0 in a
    fresh interpreter on the table that the code table builds over field F
    (from rng, or with the constructors), dim 4 to 6: the automorphisms found
    (None when no search ran), the items evaluated, and whether autos, orbits
    and numpy were loaded."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import random, sys\n"
        "import complen.length as length\n"
        "from complen.algebra import AlgebraTable\n"
        "from complen.constructors import make_hurwitz_tower, standard_twist\n"
        "from complen.fields import field_make\n"
        f"F, rng = field_make({field!r}), random.Random(4)\n"
        "F2 = F\n"
        f"table = {table}\n"
        "length.ORBIT_FLOOR = length.PRIME_ORBIT_FLOOR = 0\n"
        "res = length.length_of_algebra(AlgebraTable(F, len(table), list('abcdef')[:len(table)], "
        "table), mode='exhaustive')\n"
        "print(res.stats.get('automorphisms'), res.stats['evaluated'], "
        "*(m in sys.modules for m in ('complen.autos', 'complen.orbits', 'numpy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_census_without_automorphisms_leaves_numpy_out():
    # the automorphism search is plain Python; numpy loads only for maps to use
    table = (
        "[[tuple(F2.from_int(int(rng.random() < 0.1)) for _ in range(5))\n"
        "          for _ in range(5)] for _ in range(5)]"
    )
    assert _census_modules(table) == ["0", "373", "True", "False", "False"]


def test_unital_census_without_automorphisms_leaves_numpy_out():
    # unit e_0 and seeded products on e_1..e_5: the search finds no map, and
    # the plain forms evaluate the 374 subspaces of the hyperplane
    table = (
        "[[tuple(int(k == j) if i == 0 else int(k == i) if j == 0\n"
        "        else int(k > 0 and rng.random() < 0.1) for k in range(6))\n"
        "  for j in range(6)] for i in range(6)]"
    )
    assert _census_modules(table) == ["0", "374", "True", "False", "False"]


def test_odd_prime_census_without_numpy_evaluates_every_item():
    # over an odd prime the orbit census runs only once numpy is loaded: a
    # one-shot census of twist IV of the F7 quaternions, which has maps,
    # neither searches nor loads numpy, and evaluates all 3 651 subspaces
    table = "standard_twist(make_hurwitz_tower(F, None, (1, 1)), 'IV').table"
    assert _census_modules(table, "F7") == ["None", "3651", "False", "False", "False"]


def test_one_shot_builds_leave_numpy_out():
    # polarized checks batch only once numpy is loaded, so a fresh dim-8 build
    # reads its laws point by point and loads neither numpy nor primescan
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "from complen.constructors import make_hurwitz_tower, make_okubo_isotropic\n"
        "from complen.fields import field_make\n"
        "F3, F5 = field_make('F3'), field_make('F5')\n"
        "make_hurwitz_tower(F3, None, (1, 1, 1))\n"
        "make_okubo_isotropic(F5, 1, 2)\n"
        "print(*(m in sys.modules for m in ('numpy', 'complen.primescan')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_public_surface_is_exactly_what_init_binds():
    init = os.path.join(os.path.dirname(complen.__file__), "__init__.py")
    with open(init, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {
        name for name in bound
        if not name.startswith("_") and not isinstance(getattr(complen, name), types.ModuleType)
    }
    assert len(complen.__all__) == len(set(complen.__all__))
    assert all(hasattr(complen, name) for name in complen.__all__)
    assert set(complen.__all__) == public


@pytest.mark.parametrize("what", ("composition", "descending-flexible"))
def test_cli_exhaustive_over_the_rationals_is_an_infinite_field_error(tmp_path, capsys, what):
    path = str(tmp_path / "k.json")
    _run(capsys, "construct", "--family", "hurwitz", "--field", "Q", "--params", "1,1",
         "--out", path)
    code, out, err = _run(capsys, "check", "--algebra", path, "--what", what,
                          "--strategy", "exhaustive")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InfiniteField"


# --- fuzzing the parsers ---------------------------------------------------------

FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# explicit alphabets: hypothesis builds a slow unicode table for free text
_TEXT_ALPHABET = string.printable + "\x00\u00e9\u2028\U0001f600"
_JSONISH = '{}[]":,0123456789 -./eFQ^abdefgilmnpqrstu'

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=False)
    | st.text(alphabet="01-2/,F^:Qxe[]", max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(alphabet=_JSONISH, max_size=5), inner, max_size=4),
    max_leaves=12,
)


def _valid_doc() -> dict:
    f = field_make("F3")
    return algebra_to_dict(make_hurwitz_tower(f, f.one()))


def _mutate(doc, path, value):
    """Replace the node at path (a list of child picks) by value."""
    if not path or not isinstance(doc, (dict, list)) or not doc:
        return value
    keys = sorted(doc) if isinstance(doc, dict) else list(range(len(doc)))
    key = keys[path[0] % len(keys)]
    doc[key] = _mutate(doc[key], path[1:], value)
    return doc


def _parses_or_complen_error(text: str) -> None:
    try:
        out = parse_algebra(text)
    except ComplenError:
        return
    assert isinstance(out, AlgebraTable)


@FUZZ
@given(st.text(alphabet=_TEXT_ALPHABET, max_size=120) | st.text(alphabet=_JSONISH, max_size=120))
def test_fuzz_parse_algebra_text(text):
    _parses_or_complen_error(text)


@FUZZ
@given(_json_values)
def test_fuzz_parse_algebra_json_document(doc):
    _parses_or_complen_error(json.dumps(doc))


@FUZZ
@given(st.lists(st.integers(0, 50), max_size=5), _json_values)
def test_fuzz_parse_algebra_mutated_file(path, value):
    _parses_or_complen_error(json.dumps(_mutate(_valid_doc(), path, value)))


@FUZZ
@given(
    st.sampled_from(("Q", "F5", "F2^2:1,1,1")),
    st.integers(1, 3),
    st.text(alphabet="0123456789,;[]/- .ex", max_size=40),
)
def test_fuzz_parse_vector_set(spec, dim, text):
    f = field_make(spec)
    try:
        vectors = parse_vector_set(f, dim, text)
    except ComplenError:
        return
    assert all(len(v) == dim for v in vectors)


def test_cli_refuted_gf4_composition_is_pinned(tmp_path, capsys):
    # captured when GF(p^k) scalars were coefficient tuples: elements print as
    # lists of "c0,c1" and the scalar value as one string
    gf4 = field_make("F2^2:1,1,1")
    elems = list(gf4.enumerate())
    a = make_hurwitz_tower(gf4, elems[2], (elems[3],))
    diag = list(a.quad.diag)
    diag[1] = gf4.add(diag[1], gf4.one())
    path = str(tmp_path / "gf4.json")
    save_algebra(
        AlgebraTable(gf4, 4, a.labels, a.table, unit=a.unit,
                     quad=QuadraticForm(gf4, 4, diag, a.quad.polar), name=a.name),
        path,
    )
    code, out, _ = _run(capsys, "check", "--algebra", path, "--what", "composition",
                        "--strategy", "exhaustive")
    assert code == 0
    assert json.loads(out) == {
        "certificate": "exhaustive",
        "counterexample": {
            "args": [["0,0", "0,0", "0,0", "0,1"], ["0,0", "0,0", "0,1", "0,0"]],
            "value": "1,1",
        },
        "holds": False,
        "identity": "composition",
        "seed": 0,
    }


@pytest.mark.parametrize("family,params", (("two-dim-form", "1"), ("pseudo-octonion", "auto")))
def test_cli_root_search_over_a_huge_prime_field_is_capped(tmp_path, capsys, family, params):
    t = time.perf_counter()
    code, out, err = _run(capsys, "construct", "--family", family, "--field", "F1000000007",
                          "--params", params, "--out", str(tmp_path / "a.json"))
    assert time.perf_counter() - t < 2.0
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "CostCapExceeded" and doc["estimate"] == 1000000007


@pytest.mark.parametrize("field", ("F257^2:3,0,1", "F1009^4:11,0,0,0,1"))
def test_cli_extension_field_above_the_size_limit_is_json_error(tmp_path, capsys, field):
    code, out, err = _run(capsys, "construct", "--family", "hurwitz", "--field", field,
                          "--params", "from-field", "--out", str(tmp_path / "a.json"))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "FieldSpecError"
