"""Structure tables: arithmetic, quadratic forms, units, spans, closures."""

import pytest

from complen.algebra import AlgebraTable, QuadraticForm, product_span, subalgebra_closure
from complen.constructors import make_hurwitz_tower, make_quadratic_etale, standard_twist
from complen.errors import DimensionMismatch, MissingQuadraticForm, MissingUnit
from complen.fields import field_make
from complen.linalg import Subspace

F2 = field_make("F2")
Q = field_make("Q")


def _quaternions():
    return make_hurwitz_tower(Q, None, (Q.one(), Q.one()))


def test_quadratic_form_eval_char_zero():
    # n(x, y) = x^2 - y^2
    q = QuadraticForm(Q, 2, [Q.one(), Q.from_int(-1)], {})
    assert q.eval((Q.from_int(3), Q.from_int(2))) == Q.from_int(5)
    # polarization of a diagonal form doubles the diagonal
    assert q.polar_eval((Q.one(), Q.zero()), (Q.one(), Q.zero())) == Q.from_int(2)
    assert q.polar_eval((Q.one(), Q.zero()), (Q.zero(), Q.one())) == Q.zero()


def test_quadratic_form_char2_polar_part():
    # hyperbolic plane n(x, y) = xy over F2: diagonal zero, polar off-diagonal one
    q = QuadraticForm(F2, 2, [F2.zero(), F2.zero()], {(0, 1): F2.one()})
    assert q.eval((F2.one(), F2.one())) == F2.one()
    assert q.eval((F2.one(), F2.zero())) == F2.zero()
    assert q.polar_eval((F2.one(), F2.zero()), (F2.zero(), F2.one())) == F2.one()
    assert q.is_strictly_nondegenerate()


def test_quadratic_form_degenerate_rank():
    q = QuadraticForm(Q, 2, [Q.one(), Q.zero()], {})
    assert q.gram_rank() == 1
    assert not q.is_strictly_nondegenerate()


def test_table_shape_validation():
    one, zero = Q.one(), Q.zero()
    with pytest.raises(DimensionMismatch):
        AlgebraTable(Q, 2, ("a",), [[(one, zero)] * 2] * 2)
    with pytest.raises(DimensionMismatch):
        AlgebraTable(Q, 2, ("a", "b"), [[(one,)] * 2] * 2)
    with pytest.raises(DimensionMismatch):
        AlgebraTable(Q, 0, (), [])


def test_element_helpers():
    a = _quaternions()
    x = a.basis_element(1)
    y = a.basis_element(2)
    assert a.add(x, y) == (Q.zero(), Q.one(), Q.one(), Q.zero())
    assert a.sub(x, x) == a.zero_element()
    assert a.neg(x) == a.scale(Q.from_int(-1), x)
    assert a.is_zero(a.zero_element()) and not a.is_zero(x)


def test_multiply_is_bilinear():
    a = _quaternions()
    f = a.field
    x, y = a.basis_element(1), a.basis_element(2)
    z = a.add(a.basis_element(0), a.basis_element(3))
    c = f.from_int(7)
    left = a.multiply(a.add(a.scale(c, x), y), z)
    right = a.add(a.scale(c, a.multiply(x, z)), a.multiply(y, z))
    assert left == right
    left = a.multiply(z, a.add(x, a.scale(c, y)))
    right = a.add(a.multiply(z, x), a.scale(c, a.multiply(z, y)))
    assert left == right


def test_multiply_rejects_wrong_length():
    a = _quaternions()
    with pytest.raises(DimensionMismatch):
        a.multiply((Q.one(),), a.basis_element(0))


def test_unit_is_solved_when_not_given():
    one, zero = Q.one(), Q.zero()
    # same table as the quadratic etale K(1) but without declaring the unit
    table = [
        [(one, zero), (zero, one)],
        [(zero, one), (one, one)],
    ]
    a = AlgebraTable(Q, 2, ("e0", "e1"), table)
    assert a.unit_element() == (one, zero)
    assert a.is_unital()


def test_nonunital_table_has_no_unit():
    a = AlgebraTable(Q, 1, ("z",), [[(Q.zero(),)]])
    assert a.unit_element() is None
    with pytest.raises(MissingUnit):
        a.conjugate((Q.one(),))


def test_quad_eval_requires_form():
    a = AlgebraTable(Q, 1, ("z",), [[(Q.zero(),)]])
    with pytest.raises(MissingQuadraticForm):
        a.quad_eval((Q.one(),))


def test_conjugate_and_trace_on_quaternions():
    a = _quaternions()
    e0 = a.basis_element(0)
    assert a.conjugate(e0) == e0
    assert a.trace(e0) == Q.from_int(2)
    for i in (1, 2, 3):
        x = a.basis_element(i)
        assert a.conjugate(x) == a.neg(x)
        assert a.trace(x) == Q.zero()
    # x + conj(x) = trace(x) * unit holds for mixed elements too
    x = a.add(a.basis_element(0), a.basis_element(2))
    assert a.add(x, a.conjugate(x)) == a.scale(a.trace(x), e0)


def test_norm_is_multiplicative_on_quaternions():
    a = _quaternions()
    x = a.add(a.basis_element(0), a.scale(Q.from_int(3), a.basis_element(1)))
    y = a.sub(a.basis_element(2), a.basis_element(3))
    assert a.quad_eval(a.multiply(x, y)) == Q.mul(a.quad_eval(x), a.quad_eval(y))


def test_twist_keeps_parent_metadata():
    k = make_quadratic_etale(Q, Q.one())
    t = standard_twist(k, "IV")
    assert not t.is_unital()
    assert t.parent_unit == k.unit_element()
    assert t.twist_type == "IV"


def test_product_span():
    a = _quaternions()
    u = Subspace.span(Q, 4, [a.basis_element(1)])
    v = Subspace.span(Q, 4, [a.basis_element(2)])
    w = product_span(a, u, v)
    assert w.dim == 1
    assert w.contains(a.multiply(a.basis_element(1), a.basis_element(2)))


def test_product_span_of_zero_is_zero():
    a = _quaternions()
    z = Subspace.zero(Q, 4)
    u = Subspace.span(Q, 4, [a.basis_element(1)])
    assert product_span(a, z, u).dim == 0


def test_subalgebra_closure_quaternions():
    a = _quaternions()
    # e1 squares to the unit's line, so {e1} closes at dimension 2
    c = subalgebra_closure(a, [a.basis_element(1)])
    assert c.dim == 2
    assert c.contains(a.basis_element(0))
    # two anticommuting generators close to the whole algebra
    c = subalgebra_closure(a, [a.basis_element(1), a.basis_element(2)])
    assert c.dim == 4


def test_certificates_not_part_of_value():
    a = _quaternions()
    assert "descending-flexible" in a.certificates or "flexible" in a.certificates
    # mutating the cache must not affect the structure table
    before = a.table
    a.certificates["scratch"] = "exhaustive"
    assert a.table is before
