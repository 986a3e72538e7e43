"""Algebra files: a canonical JSON layout for structure-constant tables.

The document is a single object with keys name, field, dim, labels, mul and
optionally unit, quad and twist. A table that standard_twist built keeps its
type and parent unit under twist, {"type": "IV", "parent_unit": [...]}: a
hint that lets the checkers try the standard closed forms again, never a
certificate (none is written). Every scalar travels as a string in the
field's own textual form, so files stay exact over the rationals and over
extension fields alike. Dumps are canonical (sorted keys, fixed indentation, polar
triples sorted), which makes load -> save -> load the identity on bytes.
"""

from __future__ import annotations

import json

from .algebra import AlgebraTable, QuadraticForm, unit_law_failure
from .errors import InvariantViolation, ParseError
from .fields import Field, FieldSpec, field_make

_TOP_KEYS = {"name", "field", "dim", "labels", "mul", "unit", "quad", "twist"}
_TWIST_TYPES = ("I", "II", "III", "IV")


def _scalar_list(f: Field, items, what: str, expect: int) -> tuple:
    if not isinstance(items, list) or len(items) != expect:
        raise ParseError(f"{what} must be a list of {expect} scalars")
    out = []
    for s in items:
        if not isinstance(s, str):
            raise ParseError(f"{what}: scalar entries must be strings, got {s!r}")
        out.append(f.parse(s))
    return tuple(out)


def algebra_to_dict(a: AlgebraTable) -> dict:
    f = a.field
    doc: dict = {
        "name": a.name,
        "field": f.spec.format(),
        "dim": a.dim,
        "labels": list(a.labels),
        "mul": [
            [[f.format(c) for c in a.table[i][j]] for j in range(a.dim)]
            for i in range(a.dim)
        ],
    }
    e = a.unit_element()
    if e is not None:
        doc["unit"] = [f.format(c) for c in e]
    if a.quad is not None:
        doc["quad"] = {
            "diag": [f.format(c) for c in a.quad.diag],
            "polar": [
                [i, j, f.format(v)]
                for (i, j), v in sorted(a.quad.polar.items())
            ],
        }
    if a.twist_type is not None:
        doc["twist"] = {
            "type": a.twist_type,
            "parent_unit": [f.format(c) for c in a.parent_unit],
        }
    return doc


def dump_algebra(a: AlgebraTable) -> str:
    return json.dumps(algebra_to_dict(a), sort_keys=True, indent=1) + "\n"


def save_algebra(a: AlgebraTable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_algebra(a))


def algebra_from_dict(doc) -> AlgebraTable:
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}")
    for key in ("name", "field", "dim", "labels", "mul"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    name = doc["name"]
    if not isinstance(name, str):
        raise ParseError("name must be a string")
    if not isinstance(doc["field"], str):
        raise ParseError("field must be a field spec string")
    f = field_make(FieldSpec.parse(doc["field"]))
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("dim must be a positive integer")
    labels = doc["labels"]
    if (
        not isinstance(labels, list)
        or len(labels) != dim
        or not all(isinstance(x, str) for x in labels)
    ):
        raise ParseError(f"labels must be a list of {dim} strings")
    mul = doc["mul"]
    if not isinstance(mul, list) or len(mul) != dim:
        raise ParseError(f"mul must be a {dim}x{dim} table of vectors")
    table = []
    for i, row in enumerate(mul):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"mul row {i} must hold {dim} vectors")
        table.append(
            tuple(
                _scalar_list(f, row[j], f"mul[{i}][{j}]", dim) for j in range(dim)
            )
        )
    unit = None
    if "unit" in doc:
        unit = _scalar_list(f, doc["unit"], "unit", dim)
    quad = None
    if "quad" in doc:
        qd = doc["quad"]
        if not isinstance(qd, dict) or set(qd) != {"diag", "polar"}:
            raise ParseError("quad must be an object with keys diag and polar")
        diag = _scalar_list(f, qd["diag"], "quad.diag", dim)
        if not isinstance(qd["polar"], list):
            raise ParseError("quad.polar must be a list of [i, j, value] triples")
        polar = {}
        for t in qd["polar"]:
            if not (isinstance(t, list) and len(t) == 3 and isinstance(t[2], str)):
                raise ParseError(f"bad polar triple {t!r}")
            i, j, v = t
            if not (isinstance(i, int) and isinstance(j, int) and 0 <= i < j < dim):
                raise ParseError(f"polar indices ({i},{j}) must satisfy 0 <= i < j < dim")
            if (i, j) in polar:
                raise ParseError(f"duplicate polar entry ({i},{j})")
            polar[(i, j)] = f.parse(v)
        quad = QuadraticForm(f, dim, diag, polar)
    a = AlgebraTable(
        f, dim, tuple(labels), tuple(table), unit=unit, quad=quad, name=name
    )
    if unit is not None:
        j = unit_law_failure(a, unit)
        if j is not None:
            raise InvariantViolation(
                f"declared unit fails the unit law on basis vector {labels[j]}"
            )
    if "twist" in doc:
        tw = doc["twist"]
        if not isinstance(tw, dict) or set(tw) != {"type", "parent_unit"}:
            raise ParseError("twist must be an object with keys type and parent_unit")
        if tw["type"] not in _TWIST_TYPES:
            raise ParseError(f"twist.type must be one of {'/'.join(_TWIST_TYPES)}")
        a.twist_type = tw["type"]
        a.parent_unit = _scalar_list(f, tw["parent_unit"], "twist.parent_unit", dim)
    return a


def parse_algebra(text: str) -> AlgebraTable:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, column=e.colno) from None
    return algebra_from_dict(doc)


def load_algebra(path: str) -> AlgebraTable:
    with open(path, encoding="utf-8") as fh:
        return parse_algebra(fh.read())

