import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from diolic.poly import ParseError, Poly, PolyMat, monomials_up_to
from diolic.ops import MatrixOp, ScalarOp, commutator, verify_order
from diolic.diffops import DiffOp0, DiffOp1, graded_commutator_diff
from diolic.symbols import (DiolicSymbol0, DiolicSymbol1, DiolicSymbolNeg1, SymbolPoly,
                            diolic_poisson_bracket, diolic_symbol0,
                            diolic_symbol1, diolic_symbol_neg1,
                            hamiltonian_apply, lambda_k, parse_symbol,
                            poisson_bracket, scalar_from_symbol, smbl_scalar,
                            star)

from helpers import (rng, rand_diffop0, rand_diffop1, rand_diffopneg1,
                     rand_poly, rand_scalar_op, rand_matrix_op)


def test_parse_and_print_symbols():
    s = parse_symbol("x1*k1^2", 1)
    assert str(s) == "x1*k1^2"
    assert s.k == 2
    with pytest.raises(ParseError, match="homogeneous"):
        parse_symbol("k1 + k1^2", 1)
    assert parse_symbol("0", 2).is_zero()


def test_smbl_scalar_examples():
    n = 2
    op = ScalarOp(n, {(2, 0): Poly.var(n, 1), (0, 1): Poly.one(n)})
    assert smbl_scalar(op, 2) == parse_symbol("x1*k1^2", n)
    assert smbl_scalar(ScalarOp.partial(n, 2), 2).is_zero()
    a = rand_poly(rng(3), n, 2)
    assert smbl_scalar(ScalarOp.mult(a), 0) == SymbolPoly.from_poly(a)
    with pytest.raises(ValueError):
        smbl_scalar(op, 1)


def test_star_is_multiplicative_on_symbols():
    n = 1
    s1 = parse_symbol("k1", n)
    s2 = parse_symbol("x1*k1", n)
    assert star(s1, s2) == parse_symbol("x1*k1^2", n)
    assert star(s1, SymbolPoly.zero(n)).is_zero()


def test_symbol_homomorphism_random():
    r = rng(5)
    for _ in range(30):
        n = r.randint(1, 2)
        a = rand_scalar_op(r, n, 2)
        b = rand_scalar_op(r, n, 2)
        ka, kb = max(a.order(), 0), max(b.order(), 0)
        assert smbl_scalar(a @ b, ka + kb) == star(smbl_scalar(a, ka), smbl_scalar(b, kb))


def test_poisson_bracket_examples():
    n = 1
    assert poisson_bracket(parse_symbol("k1", n), parse_symbol("x1", n)) \
        == SymbolPoly.from_poly(Poly.one(n))
    assert poisson_bracket(parse_symbol("k1", 2), parse_symbol("k2", 2)).is_zero()
    s = parse_symbol("x1*k1", n)
    assert poisson_bracket(s, s).is_zero()


def test_poisson_morphism_random():
    r = rng(7)
    for _ in range(30):
        n = r.randint(1, 2)
        a = rand_scalar_op(r, n, 2)
        b = rand_scalar_op(r, n, 2)
        ka, kb = max(a.order(), 0), max(b.order(), 0)
        lhs = smbl_scalar(commutator(a, b), max(ka + kb - 1, 0))
        rhs = poisson_bracket(smbl_scalar(a, ka), smbl_scalar(b, kb))
        assert lhs == rhs


def test_bracket_axioms_random():
    r = rng(11)
    for _ in range(20):
        n = r.randint(1, 2)
        ops = [rand_scalar_op(r, n, 2) for _ in range(3)]
        s, t, u = (smbl_scalar(o, max(o.order(), 0)) for o in ops)
        assert (poisson_bracket(s, t) + poisson_bracket(t, s)).is_zero()
        # Leibniz over the product
        assert poisson_bracket(s, star(t, u)) \
            == star(poisson_bracket(s, t), u) + star(t, poisson_bracket(s, u))
        # Jacobi
        jac = (poisson_bracket(s, poisson_bracket(t, u))
               + poisson_bracket(t, poisson_bracket(u, s))
               + poisson_bracket(u, poisson_bracket(s, t)))
        assert jac.is_zero()


def test_hamiltonian_examples():
    n = 1
    h = hamiltonian_apply(parse_symbol("k1", n), parse_symbol("x1^2", n))
    assert h == parse_symbol("2*x1", n)
    assert hamiltonian_apply(parse_symbol("x1*k1", n),
                             SymbolPoly.from_poly(Poly.one(n))).is_zero()


def test_diolic_symbol0_examples():
    n, m = 2, 2
    dd = ScalarOp(n, {(2, 0): Poly.one(n)})
    # order-0 matrix entries drop out of the xi-degree-1 matrix symbol
    b1 = DiffOp0(2, dd, MatrixOp.from_polymat(
        PolyMat.unit(n, m, 0, 1, Poly.var(n, 1))))
    s1 = diolic_symbol0(b1)
    assert s1.s == parse_symbol("k1^2", n)
    assert all(e.is_zero() for row in s1.Ms for e in row)
    # a first-order entry survives
    b2 = DiffOp0(2, dd, MatrixOp(n, [[ScalarOp.zero(n), ScalarOp.partial(n, 2)],
                                     [ScalarOp.zero(n), ScalarOp.zero(n)]]))
    s2 = diolic_symbol0(b2)
    assert s2.Ms[0][1] == parse_symbol("k2", n)
    # lower-order operators have zero symbol
    b3 = DiffOp0(2, ScalarOp.partial(n, 1), MatrixOp.zero(n, m))
    assert diolic_symbol0(b3).is_zero()


def test_diolic_symbol1_example():
    n, m = 2, 2
    b = DiffOp1(1, [ScalarOp.partial(n, 1), ScalarOp.partial(n, 2)])
    s = diolic_symbol1(b)
    assert s.comps[0] == parse_symbol("k1", n)
    assert s.comps[1] == parse_symbol("k2", n)


def test_diolic_symbol_sequence_exactness():
    # every (s, Ms) pair is hit by the diagonal split plus a matrix lift,
    # and kernel elements are exactly the lower-order operators
    r = rng(13)
    n, m, k = 2, 2, 2
    for _ in range(10):
        sop = rand_scalar_op(r, n, k)
        mop = rand_matrix_op(r, n, m, k - 1)
        s = smbl_scalar(sop, k)
        ms = [[smbl_scalar(mop.entries[i][j], k - 1) for j in range(m)]
              for i in range(m)]
        b = DiffOp0(k, sop, mop)
        got = diolic_symbol0(b)
        assert got.s == s
        assert all(got.Ms[i][j] == ms[i][j] for i in range(m) for j in range(m))
        if got.is_zero():
            assert sop.order() <= k - 1 and mop.order() <= k - 2


def test_scalar_from_symbol_section():
    r = rng(17)
    for _ in range(20):
        n = r.randint(1, 2)
        op = rand_scalar_op(r, n, 2)
        k = max(op.order(), 0)
        s = smbl_scalar(op, k)
        assert smbl_scalar(scalar_from_symbol(s), k) == s


def test_diolic_poisson_bracket_01_example():
    n, m = 1, 1
    s = DiolicSymbol0(2, parse_symbol("k1^2", n), [[SymbolPoly.zero(n, 1)]])
    t = DiolicSymbol1(1, [parse_symbol("x1*k1", n)])
    got = diolic_poisson_bracket(s, t)
    assert got.comps[0] == parse_symbol("2*k1^2", n)


def test_diolic_poisson_bracket_matrix_only():
    n, m = 2, 2
    z1 = SymbolPoly.zero(n, 1)
    ms = [[parse_symbol("k1", n), parse_symbol("k2", n)],
          [z1, parse_symbol("k1", n)]]
    s = DiolicSymbol0(2, SymbolPoly.zero(n, 2), ms)
    t = DiolicSymbol1(1, [parse_symbol("k2", n), parse_symbol("k1", n)])
    got = diolic_poisson_bracket(s, t)
    assert got.comps[0] == star(ms[0][0], t.comps[0]) + star(ms[0][1], t.comps[1])
    assert got.comps[1] == star(ms[1][1], t.comps[1])


def test_diolic_poisson_bracket_equals_commutator_symbol():
    r = rng(19)
    for _ in range(15):
        n, m = r.randint(1, 2), r.randint(1, 2)
        k, l = r.randint(1, 2), r.randint(1, 2)
        b0 = rand_diffop0(r, n, m, k)
        b1 = rand_diffop1(r, n, m, l)
        lhs = diolic_poisson_bracket(diolic_symbol0(b0), diolic_symbol1(b1))
        comm = graded_commutator_diff(b0, b1)
        rhs = DiolicSymbol1(k + l - 1, [smbl_scalar(o, k + l - 1) for o in comm.ops])
        assert lhs == rhs


def test_diolic_poisson_bracket_00_equals_commutator_symbol():
    r = rng(23)
    for _ in range(15):
        n, m = r.randint(1, 2), r.randint(1, 2)
        k, l = r.randint(1, 2), r.randint(1, 2)
        a = rand_diffop0(r, n, m, k)
        b = rand_diffop0(r, n, m, l)
        lhs = diolic_poisson_bracket(diolic_symbol0(a), diolic_symbol0(b))
        c = graded_commutator_diff(a, b)
        want = DiolicSymbol0(k + l - 1, smbl_scalar(c.boxA, k + l - 1),
                             [[smbl_scalar(c.M.entries[i][j], k + l - 2)
                               for j in range(m)] for i in range(m)]) \
            if k + l - 1 > 0 else None
        if want is None:
            assert lhs.is_zero()
        else:
            assert lhs == want


def test_diolic_poisson_bracket_skew_degree0():
    r = rng(29)
    for _ in range(10):
        n, m = r.randint(1, 2), r.randint(1, 2)
        a = rand_diffop0(r, n, m, 2)
        b = rand_diffop0(r, n, m, 1)
        u, v = diolic_symbol0(a), diolic_symbol0(b)
        lhs = diolic_poisson_bracket(u, v)
        rhs = diolic_poisson_bracket(v, u)
        assert (lhs.s + rhs.s).is_zero()
        assert all((lhs.Ms[i][j] + rhs.Ms[i][j]).is_zero()
                   for i in range(m) for j in range(m))


def test_diolic_poisson_bracket_neg1_matches_commutator():
    r = rng(31)
    for _ in range(10):
        n, m = r.randint(1, 2), 1
        k, l = r.randint(1, 2), r.randint(1, 2)
        b0 = rand_diffop0(r, n, m, k)
        bn = rand_diffopneg1(r, n, l)
        lhs = diolic_poisson_bracket(diolic_symbol0(b0), diolic_symbol_neg1(bn))
        c = graded_commutator_diff(b0, bn)
        assert lhs.s == smbl_scalar(c.op, k + l - 1)


def test_symbol_neg1_rejects_wrong_degree_and_non_symbols():
    with pytest.raises(ValueError, match="xi-degree"):
        DiolicSymbolNeg1(5, SymbolPoly.xi(2, 1))
    with pytest.raises(ValueError, match="SymbolPoly"):
        DiolicSymbolNeg1(0, Poly.var(2, 1))
    assert DiolicSymbolNeg1(5, SymbolPoly.zero(2)).k == 5  # zero takes any order
    r = rng(41)
    for k, l in itertools.product(range(3), repeat=2):
        n = r.randint(1, 2)
        bn = rand_diffopneg1(r, n, l)
        sn = diolic_symbol_neg1(bn)
        assert isinstance(sn, DiolicSymbolNeg1) and sn.k == l
        out = diolic_poisson_bracket(diolic_symbol0(rand_diffop0(r, n, 1, k)), sn)
        assert isinstance(out, DiolicSymbolNeg1) and out.k == max(k + l - 1, 0)


def test_symbol_sum_takes_the_order_of_its_nonzero_operand():
    """A zero operand of another order k adds as zero, in either order, for
    every graded symbol class; two nonzero operands of different orders
    still raise."""
    n = 2
    xi1, xi2 = SymbolPoly.xi(n, 1), SymbolPoly.xi(n, 2)
    s, t = xi1 * xi2, xi1 * xi1 * xi2  # xi-degrees 2 and 3
    z2, z3 = SymbolPoly.zero(n, 2), SymbolPoly.zero(n, 3)
    cases = [(DiolicSymbol0(2, s, [[xi1]]), DiolicSymbol0(3, z3, [[z2]]),
              DiolicSymbol0(3, t, [[s]])),
             (DiolicSymbol1(2, [s]), DiolicSymbol1(3, [z3]), DiolicSymbol1(3, [t])),
             (DiolicSymbolNeg1(2, s), DiolicSymbolNeg1(3, z3), DiolicSymbolNeg1(3, t))]
    for x, zero, other in cases:
        for total in (x + zero, zero + x):
            assert total == x and total.k == 2
        assert zero - x == -x and (zero - x).k == 2
        for a, b in ((x, other), (other, x)):
            with pytest.raises(ValueError):
                a + b


def test_diolic_poisson_bracket_degree_two_is_zero():
    r = rng(37)
    u = diolic_symbol1(rand_diffop1(r, 1, 1, 1))
    assert diolic_poisson_bracket(u, u) == 0


def test_lambda_k_basic_example():
    n, m = 2, 2
    b = DiffOp0(2, ScalarOp(n, {(2, 0): Poly.one(n)}), MatrixOp.zero(n, m))
    out = lambda_k(b, [Poly.var(n, 1)])
    assert out.X.comps[0] == Poly.const(n, -2)
    assert out.X.comps[1].is_zero()
    assert out.G.is_zero()


def test_lambda_k_kills_lower_order():
    n, m = 2, 2
    b = DiffOp0(2, ScalarOp.partial(n, 1), MatrixOp.zero(n, m))
    for sigma in monomials_up_to(n, 2):
        out = lambda_k(b, [Poly.monomial(n, sigma)])
        assert out.is_zero()


def test_lambda_k_argument_symmetry():
    r = rng(41)
    for _ in range(10):
        n, m = r.randint(1, 2), r.randint(1, 2)
        b = rand_diffop0(r, n, m, 3)
        a1, a2 = rand_poly(r, n, 2), rand_poly(r, n, 2)
        assert lambda_k(b, [a1, a2]) == lambda_k(b, [a2, a1])


def test_lambda_k_wrong_arity():
    b = rand_diffop0(rng(43), 1, 1, 2)
    with pytest.raises(ValueError):
        lambda_k(b, [])


def test_lambda_k_kernel_theorem():
    r = rng(47)
    for _ in range(25):
        n, m = r.randint(1, 2), r.randint(1, 2)
        k = r.randint(1, 3)
        b = rand_diffop0(r, n, m, k)
        vanishes = all(
            lambda_k(b, [Poly.monomial(n, s) for s in args]).is_zero()
            for args in _arg_tuples(n, k - 1, k))
        in_lower = verify_order(b.boxA, k - 1) and verify_order(b.M, max(k - 2, 0)) \
            if k >= 2 else verify_order(b.boxA, 0) and b.M.is_zero()
        # for k = 1 the kernel is boxA of order <= 0 with zero matrix part
        if k == 1:
            in_lower = b.boxA.order() <= 0 and b.M.is_zero()
            vanishes = lambda_k(b, []).is_zero()
        assert vanishes == in_lower


def _arg_tuples(n, length, deg):
    import itertools
    monos = monomials_up_to(n, deg)
    return itertools.product(monos, repeat=length)


# -- the symbol kernel: properties and a differential test against sympy ----


@st.composite
def symbols(draw, n, k):
    """A xi-degree-k symbol in n variables with up to three terms."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        xs = tuple(draw(st.integers(0, 2)) for _ in range(n))
        ks = [0] * n
        for _ in range(k):
            ks[draw(st.integers(0, n - 1))] += 1
        terms[xs + tuple(ks)] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return SymbolPoly(n, k, Poly(2 * n, terms))


@st.composite
def symbol_triples(draw):
    n = draw(st.integers(1, 3))
    return n, [draw(symbols(n, draw(st.integers(0, 2)))) for _ in range(3)]


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(symbol_triples())
def test_symbol_print_parse_bracket_properties(triple):
    n, (s, t, u) = triple
    assert parse_symbol(str(s), n) == s
    assert poisson_bracket(s, t) == -poisson_bracket(t, s)
    assert poisson_bracket(s, star(t, u)) == \
        star(poisson_bracket(s, t), u) + star(t, poisson_bracket(s, u))


def _sympy_symbol(s, xs, ks):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[x ** e for x, e in zip(xs, ex)])
                * sympy.Mul(*[k ** e for k, e in zip(ks, ek)])
                for (ex, ek), c in s.terms.items()), sympy.Integer(0))


def test_poisson_bracket_and_star_match_sympy():
    r = random.Random(41)
    nonzero = 0
    for _ in range(20):
        n = r.randint(1, 3)
        xs = sympy.symbols(" ".join("x%d" % (i + 1) for i in range(n)), seq=True)
        ks = sympy.symbols(" ".join("k%d" % (i + 1) for i in range(n)), seq=True)
        s, t = (smbl_scalar(rand_scalar_op(r, n, k, 2, 3), k)
                for k in (r.randint(0, 2), r.randint(0, 2)))
        nonzero += not (s.is_zero() or t.is_zero())
        fs, ft = _sympy_symbol(s, xs, ks), _sympy_symbol(t, xs, ks)
        pb = sum((sympy.diff(fs, k) * sympy.diff(ft, x) - sympy.diff(fs, x) * sympy.diff(ft, k)
                  for x, k in zip(xs, ks)), sympy.Integer(0))
        assert sympy.expand(_sympy_symbol(poisson_bracket(s, t), xs, ks) - pb) == 0
        assert sympy.expand(_sympy_symbol(star(s, t), xs, ks) - fs * ft) == 0
    assert nonzero >= 10
