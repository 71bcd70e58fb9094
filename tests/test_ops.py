from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from diolic.poly import Poly, PolyVec, monomials_up_to
from diolic.ops import (MatrixOp, ScalarOp, commutator, delta, delta_nest,
                        verify_order)
from diolic.diffops import block_commutator
from diolic.symbols import scalar_from_symbol, smbl_scalar

from helpers import (oracle_block_commutator, oracle_commutator, oracle_compose,
                     oracle_delta, oracle_matrix_compose, rng, rand_der0, rand_der1,
                     rand_derneg1, rand_diffop0, rand_diffop1, rand_diffopneg1, rand_poly,
                     rand_scalar_op, rand_matrix_op, rand_poly_vec)


def d(n, i):
    return ScalarOp.partial(n, i)


def test_apply_examples():
    assert d(1, 1)(Poly(1, {(2,): 1})) == Poly(1, {(1,): 2})
    x1d1 = ScalarOp(1, {(1,): Poly.var(1, 1)})
    assert x1d1(Poly(1, {(3,): 1})) == Poly(1, {(3,): 3})
    p = rand_poly(rng(1), 2, 3)
    assert ScalarOp.identity(2)(p) == p


def test_apply_mismatch():
    with pytest.raises(ValueError):
        d(1, 1)(Poly.var(2, 1))


def test_compose_examples():
    n = 1
    x1 = Poly.var(n, 1)
    got = d(n, 1) @ ScalarOp.mult(x1)
    assert got == ScalarOp(n, {(1,): x1, (0,): Poly.one(n)})
    assert d(2, 1) @ d(2, 2) == ScalarOp(2, {(1, 1): Poly.one(2)})
    x1d1 = ScalarOp(n, {(1,): x1})
    assert (d(n, 1) @ x1d1).order() == 2


def test_compose_agrees_with_pointwise_application():
    r = rng(23)
    for _ in range(40):
        n = r.randint(1, 2)
        a = rand_scalar_op(r, n, 2)
        b = rand_scalar_op(r, n, 2)
        comp = a @ b
        for sigma in monomials_up_to(n, max(a.order() + b.order() + 1, 0)):
            probe = Poly.monomial(n, sigma)
            assert comp(probe) == a(b(probe))


def test_compose_matches_oracle_loop():
    r = rng(31)
    for _ in range(150):
        n = r.randint(1, 3)
        a = rand_scalar_op(r, n, r.randint(0, 3), coeff_deg=r.randint(0, 3), terms=4)
        b = rand_scalar_op(r, n, r.randint(0, 3), coeff_deg=r.randint(0, 3), terms=4)
        got = a @ b
        assert got == oracle_compose(a, b)
        assert str(got) == str(oracle_compose(a, b))


def test_compose_associative():
    r = rng(29)
    for _ in range(30):
        n = r.randint(1, 2)
        a, b, c = (rand_scalar_op(r, n, 2) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)


# -- the operator kernel against sympy, and its algebraic laws --------------


def _sympy_poly(p, xs):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[x ** e for x, e in zip(xs, s)])
                for s, c in p.terms.items()), sympy.Integer(0))


def _sympy_apply(op, f, xs):
    """op applied to the sympy expression f: sum_sigma a_sigma diff(f, sigma)."""
    out = sympy.Integer(0)
    for sigma, a in op.coeffs.items():
        d = f
        for x, e in zip(xs, sigma):
            if e:
                d = sympy.diff(d, x, e)
        out += _sympy_poly(a, xs) * d
    return sympy.expand(out)


def test_compose_and_apply_match_sympy():
    """(A o B)(f) and the sympy action of A o B both equal A(B(f)) taken
    with sympy.diff, on seeded operators with rational coefficients."""
    r = rng(43)
    for _ in range(25):
        n = r.randint(1, 3)
        xs = sympy.symbols(" ".join("x%d" % (i + 1) for i in range(n)), seq=True)
        a = rand_scalar_op(r, n, r.randint(0, 3), coeff_deg=2, terms=3)
        b = rand_scalar_op(r, n, r.randint(0, 3), coeff_deg=2, terms=3)
        f = rand_poly(r, n, 6, 5)
        want = _sympy_apply(a, _sympy_apply(b, _sympy_poly(f, xs), xs), xs)
        assert sympy.expand(_sympy_poly((a @ b)(f), xs) - want) == 0
        assert sympy.expand(_sympy_apply(a @ b, _sympy_poly(f, xs), xs) - want) == 0


@st.composite
def scalar_ops(draw, n):
    """An operator of order <= 2 in n variables with up to three terms."""
    coeffs = {}
    for _ in range(draw(st.integers(0, 3))):
        sigma = [0] * n
        for _ in range(draw(st.integers(0, 2))):
            sigma[draw(st.integers(0, n - 1))] += 1
        mu = tuple(draw(st.integers(0, 2)) for _ in range(n))
        c = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        coeffs.setdefault(tuple(sigma), {})[mu] = c
    return ScalarOp(n, {s: Poly(n, t) for s, t in coeffs.items()})


@st.composite
def operator_triples(draw):
    n = draw(st.integers(1, 3))
    f = Poly(n, {tuple(draw(st.integers(0, 3)) for _ in range(n)): draw(st.integers(1, 3))
                 for _ in range(draw(st.integers(1, 3)))})
    return n, [draw(scalar_ops(n)) for _ in range(3)], f


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(operator_triples())
def test_operator_kernel_properties(triple):
    n, (a, b, c), f = triple
    assert (a @ b) @ c == a @ (b @ c)
    assert (a @ b)(f) == a(b(f))
    assert ScalarOp(n, a.coeffs) == a
    k = max(a.order(), 0)
    s = smbl_scalar(a, k)
    assert smbl_scalar(scalar_from_symbol(s), k) == s


def test_commutator_examples():
    n = 1
    x1 = Poly.var(n, 1)
    assert commutator(d(n, 1), ScalarOp.mult(x1)) == ScalarOp.identity(n)
    assert commutator(d(2, 1), d(2, 2)).is_zero()
    x1d1 = ScalarOp(n, {(1,): x1})
    x1sqd1 = ScalarOp(n, {(1,): x1 * x1})
    assert commutator(x1d1, x1sqd1) == x1sqd1


def test_commutator_jacobi_random():
    r = rng(31)
    for _ in range(40):
        n = r.randint(1, 2)
        a, b, c = (rand_scalar_op(r, n, 2) for _ in range(3))
        jac = (commutator(a, commutator(b, c))
               + commutator(b, commutator(c, a))
               + commutator(c, commutator(a, b)))
        assert jac.is_zero()


def test_commutator_order_drop():
    r = rng(37)
    for _ in range(40):
        n = r.randint(1, 2)
        a = rand_scalar_op(r, n, 2)
        b = rand_scalar_op(r, n, 2)
        if a.is_zero() or b.is_zero():
            continue
        assert commutator(a, b).order() <= a.order() + b.order() - 1


def _scalar_or_zero(r, n, order):
    return ScalarOp.zero(n) if r.random() < 0.15 else rand_scalar_op(r, n, order, terms=4)


def _matrix_or_zero(r, n, m, order):
    return MatrixOp(n, [[_scalar_or_zero(r, n, order) for _ in range(m)] for _ in range(m)])


def _graded(r, g, n, m, k):
    """A seeded operator (or, at k = 0, a derivation) of grade g."""
    if k == 0:
        return {0: lambda: rand_der0(r, n, m), 1: lambda: rand_der1(r, n, m),
                -1: lambda: rand_derneg1(r, n)}[g]()
    return {0: lambda: rand_diffop0(r, n, m, k), 1: lambda: rand_diffop1(r, n, m, k),
            -1: lambda: rand_diffopneg1(r, n, k)}[g]()


def test_commutators_match_compose_and_subtract():
    """The scalar bracket, the matrix commutator at m = 1..3, delta and
    block_commutator equal two full compositions and a subtraction on
    seeded operands of orders 0..3, zero operands included; block pairs
    cover the four canonical grade pairs and their swaps."""
    r = rng(2103)
    for _ in range(40):
        n, k, l = r.randint(1, 3), r.randint(0, 3), r.randint(0, 3)
        a, b = _scalar_or_zero(r, n, k), _scalar_or_zero(r, n, l)
        assert commutator(a, b) == oracle_commutator(a, b)
        f = rand_poly(r, n, 2)
        assert delta(f, a) == oracle_delta(f, a)
        m = r.randint(1, 3)
        U, V = _matrix_or_zero(r, n, m, k), _matrix_or_zero(r, n, m, l)
        assert commutator(U, V) == oracle_commutator(U, V)
        assert delta(f, U) == oracle_delta(f, U)
    for a in (ScalarOp.zero(2), rand_scalar_op(r, 2, 3)):
        assert commutator(a, ScalarOp.zero(2)).is_zero()
        assert commutator(ScalarOp.zero(2), a).is_zero()
    for gu, gv in ((0, 0), (0, 1), (0, -1), (1, -1)):
        for _ in range(6):
            n, m = r.randint(1, 2), 1 if -1 in (gu, gv) else r.randint(1, 2)
            u, v = _graded(r, gu, n, m, r.randint(0, 3)), _graded(r, gv, n, m, r.randint(0, 3))
            for x, y in ((u, v), (v, u)):
                assert block_commutator(x, y) == oracle_block_commutator(x, y)


def test_commutator_applied_matches_sympy():
    """[A, B](f) = A(B(f)) - B(A(f)) with the actions taken in sympy."""
    r = rng(2107)
    for _ in range(6):
        n = r.randint(1, 2)
        xs = sympy.symbols(" ".join("x%d" % (i + 1) for i in range(n)), seq=True)
        a, b = rand_scalar_op(r, n, r.randint(1, 3)), rand_scalar_op(r, n, r.randint(1, 3))
        f = _sympy_poly(rand_poly(r, n, 4, 4), xs)
        want = _sympy_apply(a, _sympy_apply(b, f, xs), xs) \
            - _sympy_apply(b, _sympy_apply(a, f, xs), xs)
        assert sympy.expand(_sympy_apply(commutator(a, b), f, xs) - want) == 0


def test_commutator_errors():
    a, b = rand_scalar_op(rng(3), 1, 2), rand_scalar_op(rng(5), 2, 2)
    with pytest.raises(ValueError):
        commutator(a, b)
    with pytest.raises(ValueError):
        commutator(MatrixOp.zero(1, 2), MatrixOp.zero(2, 2))
    with pytest.raises(ValueError):
        commutator(MatrixOp.zero(1, 2), MatrixOp.zero(1, 3))
    with pytest.raises(ValueError):
        delta(Poly.var(1, 1), b)
    for x, y in ((a, MatrixOp.zero(1, 1)), (MatrixOp.zero(1, 1), a)):
        with pytest.raises(TypeError):
            commutator(x, y)


def test_delta_examples():
    n = 1
    x1 = Poly.var(n, 1)
    assert delta(x1, d(n, 1)) == ScalarOp.mult(Poly.const(n, -1))
    a, b = rand_poly(rng(3), n, 2), rand_poly(rng(4), n, 2)
    assert delta(a, ScalarOp.mult(b)).is_zero()
    assert delta(x1, delta(x1, d(n, 1))).is_zero()


def test_delta_lowers_order():
    r = rng(41)
    for _ in range(30):
        op = rand_scalar_op(r, 2, 3)
        if op.order() < 1:
            continue
        a = rand_poly(r, 2, 2)
        assert delta(a, op).order() <= op.order() - 1


def test_deltas_commute():
    r = rng(43)
    for _ in range(20):
        op = rand_scalar_op(r, 2, 3)
        a, b = rand_poly(r, 2, 2), rand_poly(r, 2, 2)
        assert delta(a, delta(b, op)) == delta(b, delta(a, op))


def test_delta_is_derivation_of_composition():
    r = rng(47)
    for _ in range(25):
        n = r.randint(1, 2)
        a = rand_poly(r, n, 2)
        op1 = rand_scalar_op(r, n, 2)
        op2 = rand_scalar_op(r, n, 2)
        lhs = delta(a, op1 @ op2)
        rhs = delta(a, op1) @ op2 + op1 @ delta(a, op2)
        assert lhs == rhs


def test_verify_order_examples():
    d1d2 = ScalarOp(2, {(1, 1): Poly.one(2)})
    assert not verify_order(d1d2, 1)
    assert verify_order(d1d2, 2)
    assert verify_order(ScalarOp.mult(Poly.var(1, 1)), 0)
    assert verify_order(ScalarOp.zero(2), 0)


def test_verify_order_random_against_inspection():
    r = rng(53)
    for _ in range(30):
        n = r.randint(1, 2)
        op = rand_scalar_op(r, n, 3)
        for k in range(4):
            assert verify_order(op, k) == (op.order() <= k)


def test_verify_order_matrix():
    mop = MatrixOp(2, [[ScalarOp.partial(2, 1), ScalarOp.zero(2)],
                       [ScalarOp.zero(2), ScalarOp(2, {(1, 1): Poly.one(2)})]])
    assert not verify_order(mop, 1)
    assert verify_order(mop, 2)


def test_verify_order_minus_one_is_zero_test():
    r = rng(59)
    ops = [ScalarOp.zero(2), MatrixOp.zero(2, 2), ScalarOp.mult(Poly.one(1)),
           MatrixOp(1, [[ScalarOp.zero(1), ScalarOp.partial(1, 1)],
                        [ScalarOp.zero(1), ScalarOp.zero(1)]])]
    for _ in range(10):
        n = r.randint(1, 2)
        ops += [rand_scalar_op(r, n, 2), rand_matrix_op(r, n, 2, 1)]
    for op in ops:
        assert verify_order(op, -1) == op.is_zero()
    with pytest.raises(ValueError):
        verify_order(ScalarOp.zero(1), -2)


def test_matrix_apply_examples():
    n, m = 1, 2
    x1 = Poly.var(n, 1)
    dd = MatrixOp.scalar_times_identity(d(n, 1), m)
    v = PolyVec(n, [x1, x1 * x1])
    assert dd @ v == PolyVec(n, [Poly.one(n), 2 * x1])
    e12 = MatrixOp(n, [[ScalarOp.zero(n), ScalarOp.identity(n)],
                       [ScalarOp.zero(n), ScalarOp.zero(n)]])
    assert e12 @ v == PolyVec(n, [x1 * x1, Poly.zero(n)])
    # compose(diag(d1, d1), x1*I) = x1 d1 I + I
    got = dd @ MatrixOp.scalar_times_identity(ScalarOp.mult(x1), m)
    want = MatrixOp.scalar_times_identity(ScalarOp(n, {(1,): x1, (0,): Poly.one(n)}), m)
    assert got == want


def test_matrix_compose_agrees_with_application():
    r = rng(59)
    for _ in range(15):
        a = rand_matrix_op(r, 2, 2, 1)
        b = rand_matrix_op(r, 2, 2, 1)
        v = rand_poly_vec(r, 2, 2, 2)
        assert (a @ b) @ v == a @ (b @ v)


def _masked_matrix_op(r, n, m, shape):
    """A seeded m x m MatrixOp whose zero entries follow shape."""
    z = ScalarOp.zero(n)
    zero_row, zero_col = r.randrange(m), r.randrange(m)
    half = r.randint(1, m)

    def kept(i, j):
        if shape == "all-zero":
            return False
        if shape == "zero-row":
            return i != zero_row
        if shape == "zero-col":
            return j != zero_col
        if shape == "block-diagonal":
            return (i < half) == (j < half)
        return r.random() < 0.5  # scattered zeros

    return MatrixOp(n, [[rand_scalar_op(r, n, r.randint(0, 2)) if kept(i, j) else z
                         for j in range(m)] for i in range(m)])


def test_matrix_compose_skipping_zeros_matches_triple_loop():
    r = rng(67)
    shapes = ("scattered", "zero-row", "zero-col", "all-zero", "block-diagonal")
    for m in range(1, 5):
        for sa in shapes:
            for sb in shapes:
                n = r.randint(1, 2)
                a, b = _masked_matrix_op(r, n, m, sa), _masked_matrix_op(r, n, m, sb)
                got = a @ b
                assert got == oracle_matrix_compose(a, b)
                v = rand_poly_vec(r, n, m, 2)
                assert got @ v == a @ (b @ v)


def test_vector_field_bracket_matches_operator_commutator():
    r = rng(61)
    from helpers import rand_vector_field
    for _ in range(20):
        x = rand_vector_field(r, 2)
        y = rand_vector_field(r, 2)
        assert x.bracket(y).to_scalar_op() == commutator(x.to_scalar_op(), y.to_scalar_op())


def test_delta_nest():
    n = 1
    x1 = Poly.var(n, 1)
    op = ScalarOp(n, {(2,): Poly.one(n)})
    assert delta_nest([x1], op) == ScalarOp(n, {(1,): Poly.const(n, -2)})
