import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from diolic.poly import (DiolicElement, ParseError, Poly, PolyMat, PolyVec, dot,
                         monomials_up_to, parse_poly)
from diolic.ops import MatrixOp, ScalarOp, VectorField
from diolic.derivations import Der0, Der1
from diolic.diffops import DiffOp0, DiffOp1
from diolic.symbols import (DiolicSymbol0, DiolicSymbol1, DiolicSymbolNeg1,
                            smbl_scalar)

import helpers as h
from helpers import rng, rand_poly


def test_parse_basic():
    p = parse_poly("x1^2 - 1/2*x2", 2)
    assert p.terms == {(2, 0): Fraction(1), (0, 1): Fraction(-1, 2)}


def test_parse_zero():
    assert parse_poly("0", 1).terms == {}


def test_parse_rejects_index_zero():
    with pytest.raises(ParseError, match="must be >= 1"):
        parse_poly("x0", 2)


def test_parse_rejects_out_of_range_index():
    with pytest.raises(ParseError, match="out of range"):
        parse_poly("x3", 2)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("x1 + @", 1)
    assert exc.value.position == 5


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_poly("x1 x2", 2)
    with pytest.raises(ParseError):
        parse_poly("2*3", 1)
    with pytest.raises(ParseError):
        parse_poly("1/0", 1)


def test_parse_accepts_leading_sign_and_coefficients():
    assert parse_poly("-x1 + 1", 1) == Poly(1, {(1,): -1, (0,): 1})
    assert parse_poly("3/2*x1*x2^2", 2) == Poly(2, {(1, 2): Fraction(3, 2)})


def test_print_parse_round_trip_random():
    r = rng(101)
    for _ in range(200):
        n = r.randint(1, 3)
        p = rand_poly(r, n, 4, 5)
        assert parse_poly(str(p), n) == p


def test_non_rational_coefficients_rejected():
    for c in (0.1, 1.0, True, "1/2", 1j, None):
        with pytest.raises(ValueError, match="int or a Fraction"):
            Poly(1, {(1,): c})
        with pytest.raises(ValueError, match="int or a Fraction"):
            Poly.const(1, c)
        with pytest.raises(ValueError, match="int or a Fraction"):
            Poly.monomial(1, (1,), c)


def test_mul_examples():
    x1 = Poly.var(1, 1)
    assert x1 * x1 == Poly(1, {(2,): 1})
    # distributive expansion: (x1+1)(x1-1) = x1^2 - 1
    assert (x1 + 1) * (x1 - 1) == Poly(1, {(2,): 1, (0,): -1})
    assert (x1 * Poly.zero(1)).is_zero()


def test_mul_degree_additivity():
    r = rng(7)
    for _ in range(50):
        p, q = rand_poly(r, 2, 3), rand_poly(r, 2, 3)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).degree() == p.degree() + q.degree()


def test_mismatched_variable_counts():
    with pytest.raises(ValueError):
        Poly.var(1, 1) * Poly.var(2, 1)


def test_ring_axioms_random():
    r = rng(11)
    for _ in range(100):
        n = r.randint(1, 3)
        p, q, s = (rand_poly(r, n, 4) for _ in range(3))
        assert (p * q) * s == p * (q * s)
        assert p * q == q * p
        assert p * (q + s) == p * q + p * s


def test_partial_examples():
    p = Poly(2, {(2, 1): 1})  # x1^2 x2
    assert p.partial(1) == Poly(2, {(1, 1): 2})
    assert Poly.var(2, 1).partial(2).is_zero()
    assert (Fraction(3, 2) * Poly.var(1, 1)).partial(1) == Poly.const(1, Fraction(3, 2))


def test_partials_commute_random():
    r = rng(13)
    for _ in range(60):
        p = rand_poly(r, 3, 4)
        for i in range(1, 4):
            for j in range(1, 4):
                assert p.partial(i).partial(j) == p.partial(j).partial(i)


def test_partial_index_out_of_range():
    with pytest.raises(ValueError):
        Poly.var(2, 1).partial(3)


def test_monomials_up_to_order_and_count():
    assert monomials_up_to(2, 1) == [(0, 0), (1, 0), (0, 1)]
    assert len(monomials_up_to(2, 2)) == 6
    assert monomials_up_to(1, 0) == [(0,)]
    for n in range(1, 4):
        for d in range(4):
            assert len(monomials_up_to(n, d)) == math.comb(n + d, d)


def test_polyvec_and_polymat_arithmetic():
    v = PolyVec(2, [Poly.var(2, 1), Poly.one(2)])
    w = Poly.var(2, 2) * v
    assert w.comps[0] == Poly(2, {(1, 1): 1})
    g = PolyMat.identity(2, 2)
    assert g @ v == v
    h = PolyMat.unit(2, 2, 0, 1)  # e1 <- p^2
    assert (h @ v).comps[0] == Poly.one(2)
    assert (h @ h).is_zero()
    assert PolyMat.block_diag(g, h).m == 4


def test_polymat_multiplication_associative():
    r = rng(17)
    from helpers import rand_poly_mat
    for _ in range(20):
        a, b, c = (rand_poly_mat(r, 2, 2, 2) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)


# ---------------------------------------------------------------------------
# the shared linear structure of every value class


def _symbol(r, n, k):
    return smbl_scalar(h.rand_scalar_op(r, n, k, 2, 3), k)


def _values():
    """{class name: (make(r, n, m), shape change (n, m) -> (n', m'), a value
    of another class)}.  Der0 + Der1, DerNeg1 + Der0, DiffOp0 + DiffOp1,
    PolyVec + Poly and PolyMat + PolyVec raised AttributeError before the
    classes shared one base."""
    more_m = lambda n, m: (n, m + 1)
    more_n = lambda n, m: (n + 1, m)
    return {
        "PolyVec": (lambda r, n, m: h.rand_poly_vec(r, n, m, 2), more_m,
                    Poly.one(2)),
        "PolyMat": (lambda r, n, m: h.rand_poly_mat(r, n, m, 2), more_m,
                    PolyVec.basis(2, 2, 0)),
        "VectorField": (lambda r, n, m: h.rand_vector_field(r, n), more_n,
                        Poly.one(2)),
        "ScalarOp": (lambda r, n, m: h.rand_scalar_op(r, n, 2), more_n, Poly.one(2)),
        "MatrixOp": (lambda r, n, m: h.rand_matrix_op(r, n, m, 1), more_m,
                     ScalarOp.identity(2)),
        "DiolicElement": (lambda r, n, m: h.rand_diolic_element(r, n, m), more_m,
                          PolyVec.basis(2, 2, 0)),
        "Der0": (lambda r, n, m: h.rand_der0(r, n, m), more_m, Der1.zero(2, 2)),
        "Der1": (lambda r, n, m: h.rand_der1(r, n, m), more_m, Der0.zero(2, 2)),
        "DerNeg1": (lambda r, n, m: h.rand_derneg1(r, n), more_n, Der0.zero(2, 1)),
        "DiffOp0": (lambda r, n, m: h.rand_diffop0(r, n, m, 2), more_m,
                    DiffOp1.zero(2, 2)),
        "DiffOp1": (lambda r, n, m: h.rand_diffop1(r, n, m, 2), more_m,
                    DiffOp0.zero(2, 2)),
        "DiffOpNeg1": (lambda r, n, m: h.rand_diffopneg1(r, n, 2), more_n,
                       DiffOp0.zero(2, 1)),
        "DiolicSymbol0": (lambda r, n, m: DiolicSymbol0(
            2, _symbol(r, n, 2), [[_symbol(r, n, 1) for _ in range(m)] for _ in range(m)]),
            more_m, MatrixOp.zero(2, 2)),
        "DiolicSymbol1": (lambda r, n, m: DiolicSymbol1(
            2, [_symbol(r, n, 2) for _ in range(m)]), more_m, VectorField.zero(2)),
        "DiolicSymbolNeg1": (lambda r, n, m: DiolicSymbolNeg1(2, _symbol(r, n, 2)),
                             more_n, Poly.one(2)),
        "SymbolPoly": (lambda r, n, m: _symbol(r, n, 2), more_n, Poly.one(2)),
    }


@pytest.mark.parametrize("name", sorted(_values()))
def test_linear_value_contract(name):
    make, reshape, foreign = _values()[name]
    r = rng(sum(map(ord, name)))
    n, m = 2, 2 if name not in ("DerNeg1", "DiffOpNeg1", "DiolicSymbolNeg1") else 1
    for _ in range(5):
        x, y = make(r, n, m), make(r, n, m)
        assert type(x).__name__ == name
        assert (x - x).is_zero()
        assert -(-x) == x
        assert 2 * x == x + x
        assert Fraction(1, 2) * (x + y) + Fraction(1, 2) * (x - y) == x
        assert Poly.one(n) * x == x
        assert x * Poly.var(n, 1) == Poly.var(n, 1) * x
        assert (x == 0) is False
        assert (x + y) - y == x
    other_shape = make(r, *reshape(n, m))
    with pytest.raises(ValueError):
        x + other_shape
    with pytest.raises(ValueError):
        x - other_shape
    assert x != other_shape
    with pytest.raises(TypeError):
        x + foreign
    with pytest.raises(TypeError):
        x - foreign


GRADED_MAPS = ("Der0", "Der1", "DerNeg1", "DiffOp0", "DiffOp1", "DiffOpNeg1")


@pytest.mark.parametrize("name", GRADED_MAPS)
def test_graded_map_action_rule(name):
    """One action rule: a degree-g map sends A to degree g and P to degree
    g + 1, and the images in degree -1 or 2 are zero."""
    make = _values()[name][0]
    r = rng(sum(map(ord, name)) + 1)
    n, m = 2, 1 if name.endswith("Neg1") else 2
    for _ in range(5):
        x, e = make(r, n, m), h.rand_diolic_element(r, n, m)
        on_a, on_p = x(e.a), x(e.p)
        if x.grade == -1:
            assert on_a == Poly.zero(n)
            assert x(e) == DiolicElement.from_a(on_p, m)
        elif x.grade == 1:
            assert on_p == PolyVec.zero(n, m)
            assert x(e) == DiolicElement.from_p(on_a)
        else:
            assert x(e) == DiolicElement(on_a, on_p)
    with pytest.raises(TypeError, match="^%s acts on Poly, PolyVec or DiolicElement$" % name):
        x(5)


def test_order_tag_is_not_a_linear_part():
    """k does not enter ==; a sum takes the larger k; -x and 2*x keep it."""
    r = rng(5)
    for x in (h.rand_diffop0(r, 2, 2, 1), h.rand_diffop1(r, 2, 2, 1),
              h.rand_diffopneg1(r, 2, 1)):
        high = x.embed(3)
        assert high == x
        assert (x + high).k == (high - x).k == 3
        assert (-high).k == (2 * high).k == 3


# -- the coefficient kernel: properties and a differential test against sympy


@st.composite
def polys(draw, n):
    """A polynomial in n variables of degree <= 3 with up to five terms whose
    coefficients have denominators 1, 2, 3 and 5."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        sigma = tuple(draw(st.integers(0, 3)) for _ in range(n))
        terms[sigma] = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2, 3, 5])))
    return Poly(n, terms)


@st.composite
def poly_triples(draw):
    n = draw(st.integers(1, 3))
    return n, [draw(polys(n)) for _ in range(3)]


def assert_stored(p):
    """Every stored coefficient is a nonzero int, or a Fraction that is not
    one; every key is an exponent tuple of length n."""
    for sigma, c in p.terms.items():
        assert len(sigma) == p.n and all(type(e) is int and e >= 0 for e in sigma)
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (sigma, c)
        assert c != 0


KERNEL_EXAMPLES = settings(max_examples=150, derandomize=True, deadline=None, database=None)


@KERNEL_EXAMPLES
@given(poly_triples(), st.sampled_from([2, -3, Fraction(1, 2), Fraction(-10, 5)]))
def test_kernel_properties(triple, c):
    n, (p, q, s) = triple
    zero, one = Poly.zero(n), Poly.one(n)
    for v in (p, q, p + q, p - q, -p, p * q, p * c, c * q, (p * q).partial(n),
              p.partial_sigma((1,) * n), parse_poly(str(p * q), n)):
        assert_stored(v)
    assert (p * q) * s == p * (q * s)
    assert p * q == q * p
    assert p * (q + s) == p * q + p * s
    assert (p + q) + s == p + (q + s)
    assert p + q == q + p
    assert p + zero == p and p * one == p and (p * zero).is_zero()
    assert (p - p).is_zero()
    assert p * c == p * Poly.const(n, c)
    for i in range(1, n + 1):
        assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)
    for v in (p, p * q, p * c):
        assert parse_poly(str(v), n) == v
        assert str(parse_poly(str(v), n)) == str(v)


def _to_sympy(p, xs):
    expr = sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[x ** e for x, e in zip(xs, sigma)])
                for sigma, c in p.terms.items()), sympy.Integer(0))
    return sympy.Poly(expr, *xs, domain="QQ")


@KERNEL_EXAMPLES
@given(poly_triples())
def test_kernel_matches_sympy(triple):
    n, (p, q, _) = triple
    xs = sympy.symbols("x1:%d" % (n + 1))
    sp, sq = _to_sympy(p, xs), _to_sympy(q, xs)
    assert _to_sympy(p + q, xs) == sp + sq
    assert _to_sympy(p * q, xs) == sp * sq
    for i in range(n):
        assert _to_sympy(p.partial(i + 1), xs) == sp.diff(xs[i])


# -- the sum-of-products kernel `dot`


def _rand_dot_poly(r, n):
    """A sparse polynomial whose coefficients have denominators 1, 2, 3, 5
    or 7, so that the pairs of one `dot` have different denominators."""
    terms = {}
    for _ in range(r.randint(0, 4)):
        sigma = tuple(r.randint(0, 2) for _ in range(n))
        terms[sigma] = Fraction(r.randint(-5, 5), r.choice([1, 2, 3, 5, 7]))
    return Poly(n, terms)


def test_dot_matches_products_and_sympy():
    r = rng(313)
    for _ in range(60):
        n = r.randint(1, 3)
        xs = sympy.symbols("x1:%d" % (n + 1))
        pairs = [(_rand_dot_poly(r, n), _rand_dot_poly(r, n)) for _ in range(r.randint(0, 4))]
        if pairs and r.random() < 0.3:  # a pair and its negative cancel exactly
            a, b = pairs[0]
            pairs.append((-a, b))
        got = dot(n, pairs)
        assert_stored(got)
        assert got == sum((a * b for a, b in pairs), Poly.zero(n))
        want = sympy.expand(sum((_to_sympy(a, xs).as_expr() * _to_sympy(b, xs).as_expr()
                                 for a, b in pairs), sympy.Integer(0)))
        assert _to_sympy(got, xs).as_expr() - want == 0


def test_dot_edge_cases():
    n = 2
    p, q = parse_poly("1/2*x1 + 2/3*x2^2", n), parse_poly("3/5*x1*x2 - 1/7", n)
    zero = Poly.zero(n)
    assert dot(n, []) == zero and dot(n, []).terms == {}
    assert dot(n, [(p, q)]) == p * q
    assert dot(n, [(zero, q), (p, zero)]).terms == {}
    assert dot(n, [(p, q), (-p, q)]).terms == {}
    assert dot(n, [(p, q), (zero, p), (q, p)]) == 2 * (p * q)
    # different denominators: 1/2 * 4/3 + 1/3 * 1 = 1, stored as the int 1
    one = dot(n, [(Poly.const(n, Fraction(1, 2)), Poly.const(n, Fraction(4, 3))),
                  (Poly.const(n, Fraction(1, 3)), Poly.one(n))])
    assert one.terms == {(0, 0): 1} and type(one.terms[(0, 0)]) is int
    with pytest.raises(ValueError, match="mismatched variable counts"):
        dot(n, [(p, Poly.one(3))])


@st.composite
def poly_pairs(draw):
    n = draw(st.integers(1, 3))
    return n, [(draw(polys(n)), draw(polys(n))) for _ in range(draw(st.integers(0, 4)))]


@KERNEL_EXAMPLES
@given(poly_pairs())
def test_dot_is_the_sum_of_products(case):
    n, pairs = case
    got = dot(n, pairs)
    assert_stored(got)
    assert got == sum((a * b for a, b in pairs), Poly.zero(n))
