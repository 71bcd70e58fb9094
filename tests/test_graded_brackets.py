"""The one graded skew rule shared by the brackets of derivations,
differential operators and symbols (`ops.graded_operands`), the one
compose-and-subtract route of the derivation and operator commutators,
and the derivations induced on functors of P."""

import itertools

import pytest

from diolic.poly import Poly, PolyVec
from diolic.ops import RouteError, ScalarOp, VectorField
from diolic.derivations import Der0, artificial_der, graded_commutator_der
from diolic.diffops import DiffOp0, DiffOp1, DiffOpNeg1, graded_commutator_diff
from diolic.symbols import (diolic_poisson_bracket, diolic_symbol0, diolic_symbol1,
                            diolic_symbol_neg1)

from helpers import (oracle_artificial_der, oracle_graded_commutator_der,
                     oracle_graded_commutator_diff, rng, rand_der0, rand_der1,
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


def _diff_of_order(r, g, n, m, k):
    return {0: lambda: rand_diffop0(r, n, m, k), 1: lambda: rand_diffop1(r, n, m, k),
            -1: lambda: rand_diffopneg1(r, n, k)}[g]()


def test_der_commutator_matches_two_route_oracle():
    r = rng(241)
    for gx, gy in itertools.product(GRADES, repeat=2):
        for n in (1, 2, 3):
            for m in ((1,) if -1 in (gx, gy) else (1, 2, 3)):
                x, y = _der(r, gx, n, m), _der(r, gy, n, m)
                for u, v in ((x, y), (y, x)):
                    assert graded_commutator_der(u, v) == oracle_graded_commutator_der(u, v)


def test_diff_commutator_matches_two_route_oracle():
    r = rng(251)
    for gx, gy in itertools.product(GRADES, repeat=2):
        for n, k, l in itertools.product((1, 2), range(3), range(3)):
            for m in ((1,) if -1 in (gx, gy) else (1, 2)):
                x, y = _diff_of_order(r, gx, n, m, k), _diff_of_order(r, gy, n, m, l)
                for u, v in ((x, y), (y, x)):
                    assert graded_commutator_diff(u, v) == oracle_graded_commutator_diff(u, v)


# Route 1 is the closed form, route 2 the block compose-and-subtract; each
# test below corrupts route 1 alone and expects the route check to name the
# canonical pair.  Derivations: the vector-field bracket, or a vector field
# applied to a polynomial.  Operators: the constructor of the output class,
# which shifts the first component by the identity.

def _shifted_bracket(orig):
    return lambda self, other: orig(self, other) + VectorField.coordinate(self.n, 1)


def _shifted_call(orig):
    return lambda self, p: (orig(self, p) + Poly.one(self.n) if isinstance(p, Poly)
                            else orig(self, p))


def _shifted_diffop0(orig):
    return lambda self, k, boxA, M: orig(self, k, boxA + ScalarOp.identity(boxA.n), M)


def _shifted_diffop1(orig):
    def init(self, k, ops):
        ops = list(ops)
        orig(self, k, [ops[0] + ScalarOp.identity(ops[0].n)] + ops[1:])
    return init


def _shifted_diffopneg1(orig):
    return lambda self, k, op, m=1: orig(self, k, op + ScalarOp.identity(op.n), m)


CANONICAL = [((0, 0), "Der0/Der0", "DiffOp0/DiffOp0"),
             ((0, 1), "Der0/Der1", "DiffOp0/DiffOp1"),
             ((0, -1), "Der0/DerNeg1", "DiffOp0/DiffOpNeg1"),
             ((1, -1), "Der1/DerNeg1", "DiffOp1/DiffOpNeg1")]
ROUTE_CASES = [pytest.param(grades, der_label, diff_label, swap,
                            id="%d,%d-%s" % (grades + ("vu" if swap else "uv",)))
               for grades, der_label, diff_label in CANONICAL for swap in (False, True)]


def _route_error(label):
    return pytest.raises(RouteError, match="^commutator formula disagrees with "
                         "compose-and-subtract for %s$" % label)


@pytest.mark.parametrize("grades, der_label, diff_label, swap", ROUTE_CASES)
def test_der_commutator_route_disagreement(monkeypatch, grades, der_label, diff_label, swap):
    r = rng(257)
    m = 1 if -1 in grades else 2
    u, v = _der(r, grades[0], 2, m), _der(r, grades[1], 2, m)
    name, corrupt = (("bracket", _shifted_bracket) if -1 not in grades
                     else ("__call__", _shifted_call))
    monkeypatch.setattr(VectorField, name, corrupt(getattr(VectorField, name)))
    with _route_error(der_label):
        graded_commutator_der(*((v, u) if swap else (u, v)))


@pytest.mark.parametrize("grades, der_label, diff_label, swap", ROUTE_CASES)
def test_diff_commutator_route_disagreement(monkeypatch, grades, der_label, diff_label, swap):
    r = rng(263)
    m = 1 if -1 in grades else 2
    u, v = _diff_of_order(r, grades[0], 2, m, 1), _diff_of_order(r, grades[1], 2, m, 1)
    cls, corrupt = {0: (DiffOp0, _shifted_diffop0), 1: (DiffOp1, _shifted_diffop1),
                    -1: (DiffOpNeg1, _shifted_diffopneg1)}[(grades[0] + grades[1])]
    monkeypatch.setattr(cls, "__init__", corrupt(cls.__init__))
    with _route_error(diff_label):
        graded_commutator_diff(*((v, u) if swap else (u, v)))
