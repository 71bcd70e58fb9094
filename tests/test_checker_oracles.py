"""The structure checkers of diolic.brackets against the enumerating probe
loops they replaced (the oracles of helpers.py): shipped problems, the
acceptance suite's structures and derandomized hypothesis draws with
n <= 2 and m <= 2 give the same verdicts, and every residual a checker
names is an oracle residual of the same value.  Also: the algebroid route
check, and the cost of each bracket kind at the default caps n = 4, m = 3.
"""

import itertools
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from diolic.poly import DiolicElement, Poly, PolyMat, PolyVec, monomials_up_to
from diolic.ops import MatrixOp, RouteError, ScalarOp, VectorField
from diolic.derivations import Der0
from diolic.cli import DEFAULT_CAPS, parse_problem
from diolic.brackets import (BiDer0, BiDerNeg1, JacobiNeg1, JacobiOp0,
                             _adjoint_curvature, is_jacobi0, is_lie_algebroid,
                             is_poisson0, jacobi_from_poisson,
                             jacobi_neg1_residuals, schouten_probe_suite)

from helpers import (RawJacobi0, oracle_is_jacobi0, oracle_is_lie_algebroid,
                     oracle_jacobi_from_poisson, oracle_jacobi_neg1_residuals,
                     oracle_poisson_pde, oracle_schouten_probe_suite,
                     oracle_validate_jacobi0, rand_bider0, raw_jacobi_problem, raw_lift,
                     rng)
from test_acceptance import (Budget, _broken_bundle, _so3_bundle,
                             _suite_structures, _tangent)

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")
EXAMPLES = settings(max_examples=25, derandomize=True, deadline=None, database=None)


def assert_agrees(checked, oracle):
    """(ok, residuals) of a checker against its oracle's: one verdict, and
    each named residual is an oracle residual with the same value."""
    (ok, residuals), (oracle_ok, oracle_residuals) = checked, oracle
    assert ok == oracle_ok
    assert ok == (residuals == [])
    named = dict(oracle_residuals)
    for name, value in residuals:
        assert named[name] == value, name


def as_verdict(residuals):
    return not residuals, residuals


def _shipped(kind, raw=False):
    """The shipped problems of one kind, parsed; with raw, each paired with
    its raw Jacobi tables."""
    with open(os.path.join(PROBLEMS, "manifest.json")) as fh:
        names = sorted(json.load(fh))
    out = []
    for name in names:
        with open(os.path.join(PROBLEMS, name)) as fh:
            data = json.load(fh)
        if data["kind"] == kind:
            obj = parse_problem(data, dict(DEFAULT_CAPS))[1]
            out.append(pytest.param((obj, raw_jacobi_problem(data)) if raw else obj, id=name))
    return out


# -- shipped problems and the acceptance structures ---------------------------


@pytest.mark.parametrize("pi", _shipped("poisson0"))
def test_shipped_poisson_probe_suite_matches_oracle(pi):
    suite = schouten_probe_suite(pi, degree=2)
    assert suite == oracle_schouten_probe_suite(pi, degree=2)
    assert (suite == []) == is_poisson0(pi)[0]
    assert_agrees(is_jacobi0(jacobi_from_poisson(pi)),
                  oracle_is_jacobi0(raw_lift(pi), probe_degree=2))


@pytest.mark.parametrize("pair", _shipped("jacobi0", raw=True))
def test_shipped_jacobi0_matches_oracle(pair):
    b, raw = pair
    assert_agrees(is_jacobi0(b), oracle_is_jacobi0(raw))


@pytest.mark.parametrize("pair", _shipped("jacobi_neg1", raw=True))
def test_shipped_jacobi_neg1_matches_oracle(pair):
    j, raw = pair
    assert_agrees(as_verdict(jacobi_neg1_residuals(j)),
                  as_verdict(oracle_jacobi_neg1_residuals(raw)))


@pytest.mark.parametrize("l", _shipped("algebroid"))
def test_shipped_algebroid_matches_oracle(l):
    assert_agrees(is_lie_algebroid(l), oracle_is_lie_algebroid(l))


@pytest.mark.parametrize("index", range(len(_suite_structures())))
def test_suite_structure_matches_oracles(index):
    pi = _suite_structures()[index]
    assert schouten_probe_suite(pi, degree=1) == oracle_schouten_probe_suite(pi, degree=1)
    assert (schouten_probe_suite(pi, degree=2) == []) == is_poisson0(pi)[0]
    assert_agrees(is_jacobi0(jacobi_from_poisson(pi)),
                  oracle_is_jacobi0(raw_lift(pi), probe_degree=2 if pi.n > 2 else 3))


@pytest.mark.parametrize("pi", _shipped("poisson0") + [
    pytest.param(pi, id="suite-%d" % i) for i, pi in enumerate(_suite_structures())])
def test_jacobi_from_poisson_matches_hand_assembled_lift(pi):
    """The unchecked lift (pi, 0) is the pair that the table constructor
    derives, with its check, from the hand-assembled tables."""
    lift, oracle = jacobi_from_poisson(pi), oracle_jacobi_from_poisson(pi)
    assert list(lift.b.table.items()) == list(oracle.b.table.items())
    assert lift.e == oracle.e and lift.e.is_zero()


@pytest.mark.parametrize("pi", _shipped("poisson0") + [
    pytest.param(pi, id="suite-%d" % i) for i, pi in enumerate(_suite_structures())])
def test_poisson_pde_residuals_are_schouten_generator_values(pi):
    """[[Pi,Pi]] = 2 Jac_Pi on generators: unfolding Jac_Pi gives
    [[Pi,Pi]](x_i, x_j, x_k) = -2 poisson_pde[i,j,k] and
    [[Pi,Pi]](x_j, x_k, e_b) = 2 sum_a compat_pde[j,k](a,b) e_a.  Both
    sides read the same generator Jacobiators, so this checks the labels,
    rotations and factor of the Schouten table; the PDE itself is checked
    against the hand-written oracle below."""
    n, m = pi.n, pi.m
    suite = dict(schouten_probe_suite(pi, degree=1))
    residuals = dict(is_poisson0(pi)[1])
    x = [str(Poly.var(n, i + 1)) for i in range(n)]
    for i, j, k in itertools.combinations(range(n), 3):
        value = suite.get("[[Pi,Pi]](%s, %s, %s)" % (x[i], x[j], x[k]))
        pde = residuals.get("poisson_pde[%d,%d,%d]" % (i + 1, j + 1, k + 1))
        assert value == (None if pde is None else DiolicElement.from_a(-2 * pde, m))
    for j, k in itertools.combinations(range(n), 2):
        for beta in range(m):
            value = suite.get("[[Pi,Pi]](%s, %s, 1*e%d)" % (x[j], x[k], beta + 1))
            compat = [residuals.get("compat_pde[%d,%d](%d,%d)"
                                    % (j + 1, k + 1, alpha + 1, beta + 1), Poly.zero(n))
                      for alpha in range(m)]
            assert value == (None if all(c.is_zero() for c in compat)
                             else DiolicElement.from_p(2 * PolyVec(n, compat)))


def _pde_draws():
    """Seeded degree-0 biderivations with random, mostly non-commuting end
    parts, m = 2 or 3; most are not Poisson."""
    r = rng(29)
    return [rand_bider0(r, n, m, deg=deg)
            for deg in (1, 2) for n, m in ((2, 2), (3, 2), (2, 3), (3, 3))]


@pytest.mark.parametrize("pi", _shipped("poisson0") + [
    pytest.param(pi, id="suite-%d" % i) for i, pi in enumerate(_suite_structures())] + [
    pytest.param(pi, id="draw-%d" % i) for i, pi in enumerate(_pde_draws())])
def test_poisson_pde_residuals_match_hand_written_pde(pi):
    """The PDE residuals of is_poisson0, read off generator Jacobiators, are
    those of the PDE written out in coordinates: names, order and text."""
    pde = [(name, str(v)) for name, v in is_poisson0(pi)[1]
           if not name.startswith("curvature")]
    assert pde == [(name, str(v)) for name, v in oracle_poisson_pde(pi)]


def test_pde_draws_reach_both_families():
    """The draws give nonzero residuals of both PDE families, and end parts
    that do not commute."""
    names = [name for pi in _pde_draws() for name, _ in oracle_poisson_pde(pi)]
    assert sum(name.startswith("poisson_pde") for name in names) >= 3
    assert sum(name.startswith("compat_pde") for name in names) >= 20
    assert sum(not pi.end[0].commutator(pi.end[1]).is_zero() for pi in _pde_draws()) >= 6


def test_poisson_route_disagreement_raises(monkeypatch):
    n, m = 2, 2
    z, one = Poly.zero(n), Poly.one(n)
    pi = BiDer0.from_upper(n, m, {(1, 2): one},
                           [PolyMat(n, [[z, one], [z, z]]), PolyMat(n, [[z, z], [one, z]])])
    assert not is_poisson0(pi)[0]
    # a second route whose Hamiltonians are all zero passes any structure
    monkeypatch.setattr(BiDer0, "hamiltonian", lambda self, a: Der0.zero(self.n, self.m))
    with pytest.raises(RouteError):
        is_poisson0(pi)


@pytest.mark.parametrize("l", [_tangent(2), _so3_bundle(), _broken_bundle()],
                         ids=["tangent", "so3", "broken"])
def test_acceptance_algebroids_match_oracle(l):
    assert_agrees(is_lie_algebroid(l), oracle_is_lie_algebroid(l))


# -- hypothesis draws, n <= 2 and m <= 2 --------------------------------------


def polys(n, deg):
    return st.dictionaries(st.sampled_from(monomials_up_to(n, deg)),
                           st.integers(-2, 2), max_size=2).map(lambda t: Poly(n, t))


def poly_mats(draw, n, m, deg):
    return PolyMat(n, [[draw(polys(n, deg)) for _ in range(m)] for _ in range(m)])


@st.composite
def poisson_structures(draw):
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    upper = {(1, 2): draw(polys(n, 2))} if n == 2 else {}
    end = [poly_mats(draw, n, m, 1) if draw(st.booleans()) else PolyMat.zero(n, m)
           for _ in range(n)]
    return BiDer0.from_upper(n, m, upper, end)


def skew_first_order(draw, n):
    """A skew table {(sigma, tau): Poly} with |sigma|, |tau| <= 1."""
    caa = {}
    for s, t in itertools.combinations(monomials_up_to(n, 1), 2):
        c = draw(polys(n, 1))
        caa[(s, t)], caa[(t, s)] = c, -c
    return caa


def second_slot_ops(draw, n, m, caa, extra_order):
    """D_sigma = (sum_tau c_(sigma,tau) d^tau) I + N_sigma, which shares the
    scalar behaviour of caa when N_sigma has order 0."""
    dmap = {}
    for s in monomials_up_to(n, 1):
        scalar = ScalarOp(n, {t: c for (s2, t), c in caa.items() if s2 == s})
        extra = MatrixOp(n, [[ScalarOp(n, {sigma: draw(polys(n, 1)) for sigma in
                                          monomials_up_to(n, extra_order)})
                              for _ in range(m)] for _ in range(m)])
        dmap[s] = MatrixOp.scalar_times_identity(scalar, m) + extra
    return dmap


@st.composite
def jacobi_structures(draw):
    """A bracket and its raw tables."""
    if draw(st.booleans()):
        pi = draw(poisson_structures())
        return jacobi_from_poisson(pi), raw_lift(pi)
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    caa = skew_first_order(draw, n)
    raw = RawJacobi0(n, m, caa, second_slot_ops(draw, n, m, caa, 0))
    return raw.build(), raw


@st.composite
def raw_jacobi_data(draw):
    """(n, m, caa, dmap) whose P-part may break the shared scalar behaviour."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    caa = skew_first_order(draw, n)
    return n, m, caa, second_slot_ops(draw, n, m, caa, draw(st.integers(0, 1)))


@st.composite
def algebroids(draw):
    """Anchors of degree <= 1 or zero, structure functions of degree <= 1;
    at n = 1 the rank goes up to 3, so that basis triples exist."""
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 3 if n == 1 else 2))
    if draw(st.booleans()):
        rho = [VectorField(n, [draw(polys(n, 1)) for _ in range(n)]) for _ in range(m)]
    else:
        rho = [VectorField.zero(n)] * m
    z = Poly.zero(n)
    rows = [[[z] * m for _ in range(m)] for _ in range(m)]
    for a, b in itertools.combinations(range(m), 2):
        for g in range(m):
            c = draw(polys(n, 1))
            rows[a][g][b], rows[b][g][a] = c, -c
    return BiDerNeg1(rho, [PolyMat(n, r) for r in rows])


@EXAMPLES
@given(poisson_structures())
def test_drawn_poisson_probe_suite_matches_oracle(pi):
    assert schouten_probe_suite(pi, degree=1) == oracle_schouten_probe_suite(pi, degree=1)
    assert (schouten_probe_suite(pi, degree=2) == []) == is_poisson0(pi)[0]


@EXAMPLES
@given(jacobi_structures())
def test_drawn_jacobi0_matches_oracle(pair):
    b, raw = pair
    assert_agrees(is_jacobi0(b), oracle_is_jacobi0(raw))


@EXAMPLES
@given(raw_jacobi_data())
def test_drawn_jacobi0_validation_matches_oracle(data):
    def error(check):
        try:
            check()
        except ValueError as exc:
            return str(exc)
        return None

    assert error(lambda: JacobiOp0(*data)) == \
        error(lambda: oracle_validate_jacobi0(RawJacobi0(*data)))


@st.composite
def jacobi_neg1_tables(draw):
    # in one variable every such bracket is Jacobi, so draw n = 2
    return skew_first_order(draw, 2)


@settings(EXAMPLES, max_examples=10)  # the costliest oracle of this file
@given(jacobi_neg1_tables())
def test_drawn_jacobi_neg1_matches_oracle(caa):
    assert_agrees(as_verdict(jacobi_neg1_residuals(JacobiNeg1(2, caa))),
                  as_verdict(oracle_jacobi_neg1_residuals(RawJacobi0(2, 1, caa))))


@EXAMPLES
@given(algebroids())
def test_drawn_algebroid_matches_oracle(l):
    assert_agrees(is_lie_algebroid(l), oracle_is_lie_algebroid(l))
    # the second route's curvature is minus the anchor defect on A and minus
    # the Jacobiator on the basis sections of P
    n, m = l.n, l.m
    e = [PolyVec.basis(n, m, a) for a in range(m)]
    for a, b in itertools.combinations(range(m), 2):
        curv = _adjoint_curvature(l, a, b)
        assert curv.X == l.rho[a].bracket(l.rho[b]) - l.anchor(l.eval(e[a], e[b]))
        for g in range(m):
            jac = (l.eval(l.eval(e[a], e[b]), e[g])
                   + l.eval(l.eval(e[b], e[g]), e[a])
                   + l.eval(l.eval(e[g], e[a]), e[b]))
            assert curv.apply_p(e[g]) == -jac


def test_algebroid_route_disagreement_raises(monkeypatch):
    ok, _ = is_lie_algebroid(_broken_bundle())
    assert not ok
    # a second route that sees no bracket at all passes the broken bundle
    monkeypatch.setattr(BiDerNeg1, "der0_of", lambda self, p: Der0.zero(self.n, self.m))
    with pytest.raises(RouteError):
        is_lie_algebroid(_broken_bundle())


# -- cost at the default caps --------------------------------------------------


def test_each_bracket_kind_at_the_caps():
    n, m = DEFAULT_CAPS["n"], DEFAULT_CAPS["m"]
    x = [Poly.var(n, i + 1) for i in range(n)]
    unit = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    zero = (0,) * n
    with Budget("bracket kinds at n = 4, m = 3", 10):
        # the so(3) bivector on x1..x3 with a constant end part along x4
        so3 = {(1, 2): x[2], (2, 3): x[0], (1, 3): -x[1]}
        end = [PolyMat.zero(n, m)] * 3 + [PolyMat.unit(n, m, 0, 1)]
        pi = BiDer0.from_upper(n, m, so3, end)
        assert is_poisson0(pi) == (True, [])
        assert schouten_probe_suite(pi) == []
        assert is_jacobi0(jacobi_from_poisson(pi)) == (True, [])
        bad = BiDer0.from_upper(n, m, {**so3, (3, 4): x[3] ** 2}, end)
        assert not is_poisson0(bad)[0] and schouten_probe_suite(bad) != []
        assert not is_jacobi0(jacobi_from_poisson(bad))[0]

        # the so(3) Lie-Poisson bracket is Jacobi at rank 1; adding the
        # Reeb-like field d/dx4 breaks [Lambda, Lambda] = 2 E ^ Lambda
        caa = {}
        for (i, j), c in so3.items():
            caa[(unit[i - 1], unit[j - 1])], caa[(unit[j - 1], unit[i - 1])] = c, -c
        assert jacobi_neg1_residuals(JacobiNeg1(n, caa)) == []
        caa[(zero, unit[3])], caa[(unit[3], zero)] = Poly.one(n), -Poly.one(n)
        assert jacobi_neg1_residuals(JacobiNeg1(n, caa)) != []

        # so(3) bundle over n = 4, then a non-constant twist of [e1, e2]
        z, one = Poly.zero(n), Poly.one(n)
        rows = [[[z] * m for _ in range(m)] for _ in range(m)]
        for a, b, g in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            rows[a][g][b], rows[b][g][a] = one, -one
        bundle = BiDerNeg1([VectorField.zero(n)] * m, [PolyMat(n, r) for r in rows])
        assert is_lie_algebroid(bundle) == (True, [])
        rows[0][0][1], rows[1][0][0] = x[3], -x[3]
        assert not is_lie_algebroid(BiDerNeg1([VectorField.zero(n)] * m,
                                              [PolyMat(n, r) for r in rows]))[0]
