"""Command-line entry point.

Subcommands: construct (build an algebra file), check (run one certification),
length-set (difference sequence of one set), length-algebra (search over all
or sampled subspaces), verify-paper (the bundled theorem/example suite).
Everything prints JSON except verify-paper, whose default format is TSV.

Exit codes: 0 success (and --help), 2 cost-cap exceeded, 1 any other failure
(including usage errors and suite FAIL rows). Failures print a JSON error
object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .algebra import AlgebraTable
from .checkers import (
    Verdict,
    acquire_descending_certificates,
    check_composition,
    check_descending,
    check_identity_direct,
    check_polarized_identity,
    find_idempotents,
    find_isotropic,
    recover_norm,
)
from .constructors import (
    make_hurwitz_tower,
    make_okubo_idempotent,
    make_okubo_isotropic,
    make_pseudo_octonion,
    make_two_dim_form,
    standard_twist,
)
from .errors import ComplenError, CostCapExceeded, ParseError, UnknownFamily, UnknownIdentity
from .fields import Field, field_make
from .iofmt import load_algebra, save_algebra
from .length import length_of_algebra, lin_spans

FAMILIES = (
    "hurwitz",
    "twist",
    "okubo-isotropic",
    "okubo-idempotent",
    "pseudo-octonion",
    "two-dim-form",
    "para-hurwitz",
)
CHECK_WHAT = (
    "composition",
    "flexible",
    "alternative",
    "symmetric",
    "quadratic",
    "descending-flexible",
    "descending-alternative",
    "idempotents",
    "isotropic",
)
MAX_LISTED_ELEMENTS = 16


def _split_brackets(text: str, sep: str) -> list[str]:
    """Split on sep outside [...] groups; brackets are for extension scalars."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced ']' in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced '[' in {text!r}")
    parts.append("".join(cur))
    return parts


def _parse_scalar(f: Field, token: str):
    token = token.strip()
    if token.startswith("[") and token.endswith("]"):
        token = token[1:-1]
    if not token:
        raise ParseError("empty scalar token")
    return f.parse(token)


def parse_vector_set(f: Field, dim: int, text: str) -> list[tuple]:
    """Semicolon-separated vectors; coordinates comma-separated; extension
    scalars bracketed as [c0,c1,...]."""
    vectors = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty vector in set")
        coords = [t for t in _split_brackets(chunk, ",")]
        if len(coords) != dim:
            raise ParseError(
                f"vector {chunk!r} has {len(coords)} coordinates, need {dim}"
            )
        vectors.append(tuple(_parse_scalar(f, t) for t in coords))
    return vectors


def _fmt_maybe_element(a: AlgebraTable, v):
    """An element (a tuple) as its coordinates' text forms, a scalar as its own."""
    if isinstance(v, tuple):
        return [a.field.format(c) for c in v]
    return a.field.format(v)


def _verdict_json(a: AlgebraTable, v: Verdict, seed: Optional[int] = None) -> dict:
    out = {"identity": v.identity, "holds": v.holds, "certificate": v.certificate}
    if seed is not None:
        out["seed"] = seed
    if v.counterexample:
        ce = {}
        for k, val in v.counterexample.items():
            if k == "args":
                ce[k] = [_fmt_maybe_element(a, x) for x in val]
            elif k in ("value", "coefficient"):
                ce[k] = _fmt_maybe_element(a, val)
            else:
                ce[k] = val
        out["counterexample"] = ce
    return out


def _emit(doc) -> None:
    print(json.dumps(doc, indent=1, sort_keys=True))


def _ensure_quad(a: AlgebraTable) -> bool:
    if a.quad is None:
        a.quad = recover_norm(a)
        return True
    return False


def _cmd_construct(args) -> int:
    f = field_make(args.field)
    tokens = [t.strip() for t in _split_brackets(args.params, ",")] if args.params else []
    fam = args.family
    if args.twist and fam != "twist":
        raise UnknownFamily("--twist applies only to --family twist")
    if fam in ("hurwitz", "twist", "para-hurwitz"):
        if not tokens:
            raise UnknownFamily(
                "hurwitz families need params: <mu|from-field>[,alpha1,...]"
            )
        mu = None if tokens[0] == "from-field" else _parse_scalar(f, tokens[0])
        doubles = [_parse_scalar(f, t) for t in tokens[1:]]
        a = make_hurwitz_tower(f, mu, doubles)
        if fam == "twist":
            if not args.twist:
                raise UnknownFamily("--family twist needs --twist I|II|III|IV")
            a = standard_twist(a, args.twist)
        elif fam == "para-hurwitz":
            a = standard_twist(a, "IV")
    elif fam == "pseudo-octonion":
        if not tokens or tokens == ["auto"]:
            mu = None
        elif len(tokens) == 1:
            mu = _parse_scalar(f, tokens[0])
        else:
            raise UnknownFamily("pseudo-octonion takes one param (mu) or auto")
        a = make_pseudo_octonion(f, mu)
    else:
        params = [_parse_scalar(f, t) for t in tokens]
        if fam == "okubo-isotropic":
            if len(params) != 2:
                raise UnknownFamily("okubo-isotropic needs params alpha,beta")
            a = make_okubo_isotropic(f, params[0], params[1])
        elif fam == "okubo-idempotent":
            if len(params) != 2:
                raise UnknownFamily("okubo-idempotent needs params beta,gamma")
            a = make_okubo_idempotent(f, params[0], params[1])
        elif fam == "two-dim-form":
            if len(params) != 1:
                raise UnknownFamily("two-dim-form needs one param: lambda")
            a = make_two_dim_form(f, params[0])
        else:
            raise UnknownFamily(f"unknown family {fam!r}")
    save_algebra(a, args.out)
    _emit(
        {
            "name": a.name,
            "field": f.spec.format(),
            "dim": a.dim,
            "unital": a.is_unital(),
            "certificates": a.certificates,
            "out": args.out,
        }
    )
    return 0


def _cmd_check(args) -> int:
    a = load_algebra(args.algebra)
    what = args.what
    recovered = False
    doc: dict
    if args.strategy == "polarized" and what != "composition":
        raise UnknownIdentity(
            f"--strategy polarized applies only to --what composition, not {what!r}"
        )
    if what == "composition":
        recovered = _ensure_quad(a)
        v = check_composition(a, strategy=args.strategy, seed=args.seed)
        doc = _verdict_json(a, v, args.seed)
    elif what in ("flexible", "alternative", "symmetric", "quadratic"):
        if what == "symmetric":
            recovered = _ensure_quad(a)
        if args.strategy == "auto":
            v = check_polarized_identity(a, what)
        else:
            v = check_identity_direct(
                a, what, strategy=args.strategy, seed=args.seed
            )
        doc = _verdict_json(a, v, args.seed)
    elif what in ("descending-flexible", "descending-alternative"):
        kind = what.split("-", 1)[1]
        v = check_descending(a, kind, strategy=args.strategy, seed=args.seed)
        doc = _verdict_json(a, v, args.seed)
    elif what in ("idempotents", "isotropic"):
        if what == "isotropic":
            recovered = _ensure_quad(a)
            found, exhaustive = find_isotropic(a)
        else:
            found, exhaustive = find_idempotents(a)
        doc = {
            "what": what,
            "count": len(found),
            "exhaustive": exhaustive,
            "elements": [
                _fmt_maybe_element(a, x) for x in found[:MAX_LISTED_ELEMENTS]
            ],
            "listed_all": len(found) <= MAX_LISTED_ELEMENTS,
            "seed": args.seed,
        }
    else:
        raise UnknownFamily(f"unknown check {what!r}")
    if recovered:
        doc["norm"] = "recovered"
    _emit(doc)
    return 0


def _cmd_length_set(args) -> int:
    a = load_algebra(args.algebra)
    vectors = parse_vector_set(a.field, a.dim, args.set)
    if args.mode == "descending":
        acquire_descending_certificates(a)
    rep = lin_spans(a, vectors, mode=args.mode)
    doc = rep.as_dict()
    doc["set"] = [[a.field.format(c) for c in v] for v in vectors]
    doc["certificates"] = a.certificates
    _emit(doc)
    return 0


def _cmd_length_algebra(args) -> int:
    a = load_algebra(args.algebra)
    acquire_descending_certificates(a)
    res = length_of_algebra(a, mode=args.mode, seed=args.seed, budget=args.budget)
    _emit({**res.as_dict(), "certificates": a.certificates})
    return 0


def _cmd_verify_paper(args) -> int:
    from .suite import run_suite

    return run_suite(filter_glob=args.filter, jobs=args.jobs, fmt=args.format)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ParseError (a JSON error,
    exit 1) instead of printing usage text and exiting with status 2."""

    def error(self, message: str):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="complen",
        description="Exact construction, certification, and length computation "
        "for composition algebras.",
    )
    # not required: argparse would report a missing command before an
    # unrecognized argument, so main reports the missing command itself
    sub = p.add_subparsers(dest="command")

    c = sub.add_parser("construct", help="build an algebra and write its file")
    c.add_argument("--family", required=True, choices=FAMILIES)
    c.add_argument("--field", required=True, help="Q, F<p>, or F<p>^<k>:<c0>,...")
    c.add_argument("--params", default="", help="comma-separated scalars; "
                   "hurwitz: <mu|from-field>[,alpha...]; pseudo-octonion: mu or auto")
    c.add_argument("--twist", choices=("I", "II", "III", "IV"))
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_construct)

    k = sub.add_parser("check", help="run one certification on an algebra file")
    k.add_argument("--algebra", required=True)
    k.add_argument("--what", required=True, choices=CHECK_WHAT)
    k.add_argument(
        "--strategy", default="auto", choices=("auto", "exhaustive", "sampled", "polarized"),
        help="polarized (composition only): prove n(xy) = n(x)n(y) from the basis",
    )
    k.add_argument("--seed", type=int, default=0)
    k.set_defaults(fn=_cmd_check)

    ls = sub.add_parser("length-set", help="difference sequence of one set")
    ls.add_argument("--algebra", required=True)
    ls.add_argument("--set", required=True,
                    help="vectors ';'-separated, coordinates ','-separated, "
                    "extension scalars bracketed [c0,c1]")
    ls.add_argument("--mode", default="general", choices=("general", "descending"))
    ls.set_defaults(fn=_cmd_length_set)

    la = sub.add_parser("length-algebra", help="maximize length over subspaces")
    la.add_argument("--algebra", required=True)
    la.add_argument("--mode", default="exhaustive", choices=("exhaustive", "random"))
    la.add_argument("--seed", type=int, default=0)
    la.add_argument("--budget", type=int, default=2000)
    la.set_defaults(fn=_cmd_length_algebra)

    vp = sub.add_parser("verify-paper", help="run the bundled theorem/example suite")
    vp.add_argument("--filter", default=None, help="glob over case ids")
    vp.add_argument("--jobs", type=int, default=1)
    vp.add_argument("--format", default="tsv", choices=("tsv", "json"))
    vp.set_defaults(fn=_cmd_verify_paper)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command is None:
            raise ParseError("complen: a command is required")
        return args.fn(args)
    except CostCapExceeded as e:
        print(
            json.dumps({"error": "CostCapExceeded", "message": str(e),
                        "estimate": e.estimate}),
            file=sys.stderr,
        )
        return 2
    except (ComplenError, OSError) as e:
        print(
            json.dumps({"error": type(e).__name__, "message": str(e)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
