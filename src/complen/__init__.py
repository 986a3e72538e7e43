"""Exact-arithmetic composition algebras: construction, certification, lengths.

The package builds multiplication tables for Hurwitz algebras and their
standard twists, the two eight-dimensional symmetric (Okubo) tables, the
pseudo-octonion matrix model, and a two-dimensional symmetric family; checks
their defining identities at basis points or by enumeration; recovers norms from
products; and computes length functions of generating sets exactly over Q and
finite fields.
"""

from .algebra import AlgebraTable, QuadraticForm, product_span, subalgebra_closure
from .checkers import (
    Verdict,
    acquire_descending_certificates,
    alternative_floor,
    check_composition,
    check_descending,
    check_identity_direct,
    check_polarized_identity,
    find_idempotents,
    find_isotropic,
    flexible_floor,
    length_upper_bound,
    recover_norm,
    validate_report,
)
from .constructors import (
    cayley_dickson_double,
    make_base_algebra,
    make_hurwitz_tower,
    make_okubo_idempotent,
    make_okubo_isotropic,
    make_pseudo_octonion,
    make_quadratic_etale,
    make_two_dim_form,
    standard_twist,
)
from .errors import (
    CharacteristicForbidden,
    ComplenError,
    CostCapExceeded,
    InvariantViolation,
    ModeUnjustified,
    ParseError,
)
from .fields import Field, FieldSpec, field_make, solve_quadratic
from .iofmt import (
    algebra_from_dict,
    algebra_to_dict,
    dump_algebra,
    load_algebra,
    parse_algebra,
    save_algebra,
)
from .length import (
    LengthReport,
    SearchResult,
    count_subspaces,
    enumerate_subspaces,
    length_of_algebra,
    lin_spans,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraTable",
    "CharacteristicForbidden",
    "ComplenError",
    "CostCapExceeded",
    "Field",
    "FieldSpec",
    "InvariantViolation",
    "LengthReport",
    "ModeUnjustified",
    "ParseError",
    "QuadraticForm",
    "SearchResult",
    "Verdict",
    "acquire_descending_certificates",
    "algebra_from_dict",
    "algebra_to_dict",
    "alternative_floor",
    "cayley_dickson_double",
    "check_composition",
    "check_descending",
    "check_identity_direct",
    "check_polarized_identity",
    "count_subspaces",
    "dump_algebra",
    "enumerate_subspaces",
    "field_make",
    "find_idempotents",
    "find_isotropic",
    "flexible_floor",
    "length_of_algebra",
    "length_upper_bound",
    "lin_spans",
    "load_algebra",
    "make_base_algebra",
    "make_hurwitz_tower",
    "make_okubo_idempotent",
    "make_okubo_isotropic",
    "make_pseudo_octonion",
    "make_quadratic_etale",
    "make_two_dim_form",
    "parse_algebra",
    "product_span",
    "recover_norm",
    "save_algebra",
    "solve_quadratic",
    "standard_twist",
    "subalgebra_closure",
    "validate_report",
]
