"""Seeded random generators shared across the test modules.

Generators produce sparse objects: the acceptance criteria bound sizes
from above (order <= 3, degree <= 3, ...) and sparse samples cover the
identity checks exactly while keeping the exact-arithmetic suites fast.
"""

from fractions import Fraction
import itertools
import random

from diolic.poly import Poly, PolyMat, PolyVec, monomials_up_to
from diolic.ops import MatrixOp, ScalarOp, VectorField
from diolic.derivations import Der0, Der1, DerNeg1, DiolicElement
from diolic.diffops import DiffOp0, DiffOp1, DiffOpNeg1
from diolic.brackets import BiDer0


def rng(seed):
    return random.Random(seed)


def rand_fraction(r, zero_ok=True):
    if zero_ok and r.random() < 0.2:
        return Fraction(0)
    num = r.randint(-4, 4) or 1
    den = r.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def rand_poly(r, n, deg, terms=3):
    monos = monomials_up_to(n, deg)
    acc = {}
    for _ in range(r.randint(1, terms)):
        sigma = r.choice(monos)
        acc[sigma] = acc.get(sigma, Fraction(0)) + rand_fraction(r)
    return Poly(n, acc)


def rand_poly_vec(r, n, m, deg, terms=2):
    return PolyVec(n, [rand_poly(r, n, deg, terms) for _ in range(m)])


def rand_poly_mat(r, n, m, deg, terms=2):
    return PolyMat(n, [[rand_poly(r, n, deg, terms) for _ in range(m)]
                       for _ in range(m)])


def rand_scalar_op(r, n, order, coeff_deg=2, terms=3):
    monos = monomials_up_to(n, order)
    coeffs = {}
    for _ in range(r.randint(1, terms)):
        sigma = r.choice(monos)
        p = rand_poly(r, n, coeff_deg, 2)
        coeffs[sigma] = coeffs.get(sigma, Poly.zero(n)) + p
    return ScalarOp(n, coeffs)


def rand_matrix_op(r, n, m, order, coeff_deg=2):
    return MatrixOp(n, [[rand_scalar_op(r, n, order, coeff_deg, 2)
                         for _ in range(m)] for _ in range(m)])


def rand_vector_field(r, n, deg=2):
    return VectorField(n, [rand_poly(r, n, deg, 2) for _ in range(n)])


def rand_der0(r, n, m, deg=2):
    return Der0(rand_vector_field(r, n, deg), rand_poly_mat(r, n, m, deg))


def rand_der1(r, n, m, deg=2):
    return Der1([rand_vector_field(r, n, deg) for _ in range(m)])


def rand_derneg1(r, n, deg=2):
    return DerNeg1([rand_poly(r, n, deg)])


def rand_diolic_element(r, n, m, deg=2):
    return DiolicElement(rand_poly(r, n, deg), rand_poly_vec(r, n, m, deg))


def rand_diffop0(r, n, m, k, coeff_deg=2):
    boxa = rand_scalar_op(r, n, k, coeff_deg)
    mat = rand_matrix_op(r, n, m, max(k - 1, 0), coeff_deg) if k > 0 \
        else MatrixOp.zero(n, m)
    return DiffOp0(k, boxa, mat)


def rand_diffop1(r, n, m, k, coeff_deg=2):
    return DiffOp1(k, [rand_scalar_op(r, n, k, coeff_deg, 2) for _ in range(m)])


def rand_diffopneg1(r, n, k, coeff_deg=2):
    return DiffOpNeg1(k, rand_scalar_op(r, n, k, coeff_deg, 2))


def rand_bider0(r, n, m, deg=2):
    z = Poly.zero(n)
    aa = [[z] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = rand_poly(r, n, deg, 2)
            aa[i][j] = p
            aa[j][i] = -p
    return BiDer0(aa, [rand_poly_mat(r, n, m, deg) for _ in range(n)])


def rand_cochain(r, l, p):
    """A sparse random p-cochain of the CE data l: {increasing p-tuple: vector}."""
    tau = {}
    for idx in itertools.combinations(range(l.r), p):
        if r.random() < 0.6:
            tau[idx] = [rand_fraction(r) if r.random() < 0.3 else Fraction(0)
                        for _ in range(l.d1)]
    return tau


def der_vector(v, maxdeg):
    """The coefficient vector of a PolyVec in the basis of der_differential."""
    monos = monomials_up_to(v.n, maxdeg)
    return [comp.terms.get(mu, Fraction(0)) for comp in v.comps for mu in monos]
