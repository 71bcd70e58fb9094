"""The one graded skew rule shared by the brackets of derivations,
differential operators and symbols (`ops.graded_operands`), and the
derivations induced on functors of P."""

import itertools

import pytest

from diolic.poly import Poly, PolyVec
from diolic.ops import ScalarOp
from diolic.derivations import Der0, artificial_der, graded_commutator_der
from diolic.diffops import graded_commutator_diff
from diolic.symbols import (diolic_poisson_bracket, diolic_symbol0, diolic_symbol1,
                            diolic_symbol_neg1)

from helpers import (oracle_artificial_der, rng, rand_der0, rand_der1,
                     rand_derneg1, rand_diffop0, rand_diffop1, rand_diffopneg1,
                     rand_poly_mat)

GRADES = (0, 1, -1)


def _der(r, g, n, m):
    return {0: lambda: rand_der0(r, n, m), 1: lambda: rand_der1(r, n, m),
            -1: lambda: rand_derneg1(r, n)}[g]()


def _diff(r, g, n, m):
    return {0: lambda: rand_diffop0(r, n, m, 2), 1: lambda: rand_diffop1(r, n, m, 1),
            -1: lambda: rand_diffopneg1(r, n, 1)}[g]()


def _symbol(r, g, n, m):
    return {0: diolic_symbol0, 1: diolic_symbol1, -1: diolic_symbol_neg1}[g](
        _diff(r, g, n, m))


FAMILIES = [pytest.param(graded_commutator_der, _der, id="der"),
            pytest.param(graded_commutator_diff, _diff, id="diff"),
            pytest.param(diolic_poisson_bracket, _symbol, id="symbol")]


@pytest.mark.parametrize("bracket, make", FAMILIES)
def test_skew_sign_and_vanishing_pairs(bracket, make):
    r = rng(211)
    for gx, gy in itertools.product(GRADES, repeat=2):
        for _ in range(3):
            x, y = make(r, gx, 2, 1), make(r, gy, 2, 1)
            xy, yx = bracket(x, y), bracket(y, x)
            if abs(gx + gy) > 1:
                assert type(xy) is int and xy == 0 and type(yx) is int and yx == 0
            elif gx * gy % 2:
                assert yx == xy
            else:
                assert yx == -xy


@pytest.mark.parametrize("bracket, make", FAMILIES)
def test_dimension_and_rank_errors(bracket, make):
    # n is compared first, m only between grades 0 and 1, and then grade -1
    # needs rank 1 of the other operand; vanishing pairs are checked too
    r = rng(223)
    for gx, gy in itertools.product(GRADES, repeat=2):
        x, y = make(r, gx, 1, 2), make(r, gy, 2, 1)
        mismatched = [(x, y), (y, x)]
        if -1 not in (gx, gy):
            x, y = make(r, gx, 2, 2), make(r, gy, 2, 1)
            mismatched += [(x, y), (y, x)]
        for u, v in mismatched:
            with pytest.raises(ValueError, match="^dimension mismatch$"):
                bracket(u, v)
    for g in (0, 1):
        x, y = make(r, g, 2, 2), make(r, -1, 2, 1)
        for u, v in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="^degree -1 requires rank 1$"):
                bracket(u, v)


def test_symbol_bracket_checks_dimensions():
    r = rng(227)
    u = diolic_symbol0(rand_diffop0(r, 2, 1, 1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        diolic_poisson_bracket(u, diolic_symbol1(rand_diffop1(r, 1, 1, 1)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        diolic_poisson_bracket(u, diolic_symbol0(rand_diffop0(r, 2, 2, 1)))


@pytest.mark.parametrize("bracket, make", FAMILIES)
def test_operands_without_a_grade_or_of_two_families_raise_type_error(bracket, make):
    # elements of A (+) P carry a grade but are not operands of these brackets
    r = rng(229)
    x = make(r, 0, 2, 1)
    a, p = Poly.var(2, 1), PolyVec.basis(2, 1, 0)
    for other in (ScalarOp.identity(2), 5, a, p, _der(r, 0, 2, 1) if make is not _der
                  else _diff(r, 0, 2, 1)):
        with pytest.raises(TypeError):
            bracket(x, other)
        with pytest.raises(TypeError):
            bracket(other, x)
    for u, v in ((a, a), (p, p), (a, p)):
        with pytest.raises(TypeError):
            bracket(u, v)


def test_symbol_bracket_odd_pair_is_symbol_of_anticommutator():
    r = rng(233)
    for k, l in itertools.product(range(3), repeat=2):
        b1, bn = rand_diffop1(r, 2, 1, k), rand_diffopneg1(r, 2, l)
        got = diolic_poisson_bracket(diolic_symbol1(b1), diolic_symbol_neg1(bn))
        assert got == diolic_symbol0(graded_commutator_diff(b1, bn))
        assert got.k == k + l


def test_artificial_der_matches_hand_written_loops():
    r = rng(239)
    for m in (1, 2, 3):
        for _ in range(3):
            d = rand_der0(r, 2, m)
            d2 = Der0(d.X, rand_poly_mat(r, 2, r.randint(1, 3), 2))
            for kind in ("sum", "tensor", "hom"):
                assert artificial_der(kind, d, d2) == oracle_artificial_der(kind, d, d2)
            for k in range(m + 1):
                assert artificial_der("wedge", d, k=k) == oracle_artificial_der("wedge", d, k=k)
            for k in range(4):
                assert artificial_der("sym", d, k=k) == oracle_artificial_der("sym", d, k=k)
