"""A SHA-256 digest of the printed outputs of seeded operator algebra whose
coefficients are Fraction(+-1..5, 1..5).  The shipped problems are almost
all integral; this digest pins the text of non-integral results, whatever
form the coefficients take inside a Poly."""

import hashlib
import itertools
import random
from fractions import Fraction

from diolic.poly import Poly, PolyMat, monomials_up_to
from diolic.ops import MatrixOp, ScalarOp, VectorField, commutator, delta_nest
from diolic.derivations import Der0, Der1, DerNeg1, graded_commutator_der
from diolic.diffops import DiffOp0, DiffOp1, DiffOpNeg1, graded_commutator_diff
from diolic.symbols import poisson_bracket, smbl_scalar

GOLDEN = "fffd37c9e443595f05ca2024f3e7d5e4ac875bb937fa73303eeb62b2c1942d46"


def _coeff(r):
    return Fraction(r.choice((-1, 1)) * r.randint(1, 5), r.randint(1, 5))


def _poly(r, n, deg=2, terms=2):
    monos = monomials_up_to(n, deg)
    return Poly(n, [(r.choice(monos), _coeff(r)) for _ in range(terms)])


def _op(r, n, order, terms=2):
    monos = monomials_up_to(n, order)
    return ScalarOp(n, [(r.choice(monos), _poly(r, n)) for _ in range(terms)])


def _matrix_op(r, n, m, order):
    return MatrixOp(n, [[_op(r, n, order) for _ in range(m)] for _ in range(m)])


def _vector_field(r, n):
    return VectorField(n, [_poly(r, n) for _ in range(n)])


def _der(r, grade, n, m):
    if grade == 0:
        return Der0(_vector_field(r, n),
                    PolyMat(n, [[_poly(r, n) for _ in range(m)] for _ in range(m)]))
    if grade == 1:
        return Der1([_vector_field(r, n) for _ in range(m)])
    return DerNeg1([_poly(r, n)])


def _diff(r, grade, n, m):
    if grade == 0:
        return DiffOp0(2, _op(r, n, 2), _matrix_op(r, n, m, 1))
    if grade == 1:
        return DiffOp1(1, [_op(r, n, 1) for _ in range(m)])
    return DiffOpNeg1(1, _op(r, n, 1))


def printed_outputs(seed=2026):
    """The printed results, one line each, of seeded fractional operator
    algebra in n = 1, 2 variables."""
    r = random.Random(seed)
    lines = []
    for n in (1, 2):
        for _ in range(4):
            a, b = _op(r, n, 2), _op(r, n, 2)
            lines += [a @ b, commutator(a, b),
                      delta_nest([_poly(r, n), _poly(r, n)], a)]
            u, v = _matrix_op(r, n, 2, 1), _matrix_op(r, n, 2, 1)
            lines += [u @ v, commutator(u, v), delta_nest([_poly(r, n)], u)]
            s, t = smbl_scalar(a, 2), smbl_scalar(b, 2)
            lines += [s, t, poisson_bracket(s, t)]
        for gx, gy in itertools.product((0, 1, -1), repeat=2):
            m = 1 if -1 in (gx, gy) else 2
            lines.append(graded_commutator_der(_der(r, gx, n, m), _der(r, gy, n, m)))
            lines.append(graded_commutator_diff(_diff(r, gx, n, 1), _diff(r, gy, n, 1)))
    return "\n".join(str(x) for x in lines) + "\n"


def test_printed_fractional_outputs_are_pinned():
    text = printed_outputs()
    assert "/" in text  # non-integral coefficients reach the output
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN
