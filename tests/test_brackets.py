import hashlib
import json
import os
from fractions import Fraction

import pytest

from diolic.poly import DiolicElement, Poly, PolyMat, PolyVec, monomials_up_to
from diolic.ops import MatrixOp, ScalarOp, VectorField
from diolic.cli import DEFAULT_CAPS, parse_problem
from diolic.derivations import graded_commutator_der
from diolic.brackets import (BiDer0, BiDer1, BiDerNeg1, BiDerNeg2,
                             JacobiNeg1, JacobiOp0, is_jacobi0, is_jacobi_neg1,
                             is_lie_algebroid, is_poisson0,
                             jacobi_from_poisson, jacobiator0,
                             schouten_probe_suite, schouten_self_eval)
from diolic.brackets import _contract, _leibniz_terms

from helpers import (oracle_bider_eval, rng, rand_bider0, rand_jacobi0_tables, rand_poly,
                     rand_poly_vec)


def so3_bider(m=1, end=None):
    n = 3
    upper = {(1, 2): Poly.var(n, 3), (2, 3): Poly.var(n, 1),
             (1, 3): -Poly.var(n, 2)}
    return BiDer0.from_upper(n, m, upper, end)


def symplectic_bider(m=1, end=None):
    return BiDer0.from_upper(2, m, {(1, 2): Poly.one(2)}, end)


def witt_caa(n=1):
    s0 = (0,) * n
    s1 = tuple(1 if i == 0 else 0 for i in range(n))
    return {(s0, s1): Poly.one(n), (s1, s0): -Poly.one(n)}


def witt_lift(weight_shift=0):
    n = 1
    d = ScalarOp.partial(n, 1)
    dmap = {(0,): MatrixOp(n, [[d]]),
            (1,): MatrixOp(n, [[(weight_shift - 1) * ScalarOp.identity(n)]])}
    return JacobiOp0(n, 1, witt_caa(), dmap)


# -- biderivation evaluation ------------------------------------------------


def test_bider0_eval_constant_symplectic():
    pi = symplectic_bider()
    assert pi.eval(Poly.var(2, 1), Poly.var(2, 2)) == Poly.one(2)


def test_bider0_eval_so3():
    pi = so3_bider()
    assert pi.eval(Poly.var(3, 1), Poly.var(3, 2)) == Poly.var(3, 3)


def test_bider0_eval_skew():
    r = rng(3)
    for _ in range(20):
        pi = rand_bider0(r, 2, 2)
        a, b = rand_poly(r, 2, 2), rand_poly(r, 2, 2)
        assert (pi.eval(a, b) + pi.eval(b, a)).is_zero()


def test_bider0_second_slot_der_leibniz():
    r = rng(5)
    for _ in range(20):
        pi = rand_bider0(r, 2, 2)
        a, b = rand_poly(r, 2, 2), rand_poly(r, 2, 2)
        p = rand_poly_vec(r, 2, 2, 2)
        lhs = pi.eval(a, b * p)
        rhs = pi.eval(a, b) * p + b * pi.eval(a, p)
        assert lhs == rhs


def test_bider0_rejects_non_skew():
    with pytest.raises(ValueError):
        one = Poly.one(2)
        BiDer0([[Poly.zero(2), one], [one, Poly.zero(2)]],
               [PolyMat.zero(2, 1), PolyMat.zero(2, 1)])


def test_bider1_eval_and_skew():
    n, m = 2, 2
    v = rand_poly_vec(rng(7), n, m, 1)
    z = PolyVec.zero(n, m)
    pi = BiDer1([[z, v], [-v, z]])
    a, b = Poly.var(n, 1), Poly.var(n, 2)
    assert pi.eval(a, b) == v
    assert pi.eval(b, a) == -v
    with pytest.raises(ValueError):
        BiDer1([[z, v], [v, z]])


def test_bider_neg2():
    g = Poly.var(1, 1)
    b = BiDerNeg2(g)
    p = PolyVec(1, [Poly.one(1)])
    q = PolyVec(1, [Poly.var(1, 1)])
    assert b.eval(p, q) == Poly(1, {(2,): 1})
    assert b.eval(q, p) == b.eval(p, q)
    x = PolyVec(1, [Poly.var(1, 1)])
    assert BiDerNeg2(Poly.one(1)).eval(x, x) == Poly(1, {(2,): 1})
    with pytest.raises(ValueError):
        BiDerNeg2(g, m=2)


def _rand_biderivations(r, n, m):
    """One biderivation of each of the four classes (BiDerNeg2 at m = 1)."""
    pi1 = [[PolyVec.zero(n, m)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rand_poly_vec(r, n, m, 2)
            pi1[i][j], pi1[j][i] = v, -v
    z = Poly.zero(n)
    rows = [[[z] * m for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            for g in range(m):
                c = rand_poly(r, n, 1)
                rows[a][g][b], rows[b][g][a] = c, -c
    rho = [VectorField(n, [rand_poly(r, n, 1) for _ in range(n)]) for _ in range(m)]
    return [rand_bider0(r, n, m), BiDer1(pi1),
            BiDerNeg1(rho, [PolyMat(n, rs) for rs in rows]), BiDerNeg2(rand_poly(r, n, 2))]


def test_bider_eval_matches_closed_formulas():
    # the shared Leibniz contraction against each class's own formula, on
    # all four grade pairs, with the zero of the value's grade
    r = rng(47)
    for _ in range(12):
        n, m = r.randint(1, 3), r.randint(1, 3)
        for b in _rand_biderivations(r, n, m):
            k = b.m
            args = [rand_poly(r, n, 2), rand_poly(r, n, 2),
                    rand_poly_vec(r, n, k, 2), rand_poly_vec(r, n, k, 2)]
            for z1 in (args[0], args[2]):
                for z2 in (args[1], args[3]):
                    got, want = b.eval(z1, z2), oracle_bider_eval(b, z1, z2)
                    assert type(got) is type(want) and got == want, (b, z1, z2)
                    if z1.grade + z2.grade + b.grade != 1:
                        assert type(got) is Poly
            with pytest.raises(ValueError):
                b.eval(args[0], rand_poly_vec(r, n, k + 1, 1))
            with pytest.raises(ValueError):
                b.eval(rand_poly(r, n + 1, 1), args[3])
            with pytest.raises(TypeError):
                b.eval(args[0], DiolicElement.from_a(args[1], k))


def test_contract_constant_coefficients_scale_without_a_product():
    # generator arguments give constant Leibniz coefficients, handed over as
    # values; contracting with them must equal the general product path on
    # the same coefficients given as constant Polys
    n, m = 2, 2
    x1, x2 = Poly.var(n, 1), Poly.var(n, 2)
    e1, e2 = PolyVec.basis(n, m, 0), PolyVec.basis(n, m, 1)
    assert _leibniz_terms(x1, n) == {0: 1}
    assert _leibniz_terms(2 * x1 + Fraction(1, 3) * x2, n) == {0: 2, 1: Fraction(1, 3)}
    assert _leibniz_terms(2 * e2, n) == {n + 1: 2}
    assert _leibniz_terms(x1 * e1, n) == {0: e1, n: x1}
    r = rng(59)
    table = {(k, l): rand_poly(r, n, 2) if k < n and l < n else rand_poly_vec(r, n, m, 2)
             for k in range(n + m) for l in range(n + m) if k != l and min(k, l) < n}
    third, two = Poly.const(n, Fraction(1, 3)), Poly.const(n, 2)
    for z in (x1, 2 * x1 + third * x2, x1 * x2 + x2, e1 + two * e2,
              PolyVec(n, [third, x1]), PolyVec(n, [x2, third])):
        consts = _leibniz_terms(z, n)
        general = {k: Poly.const(n, c) if isinstance(c, (int, Fraction)) else c
                   for k, c in consts.items()}
        assert _contract(consts, table) == _contract(general, table)
        want = {}
        for (k, l), v in table.items():
            c = general.get(k)
            if c is not None and c.grade + v.grade < 2:  # P * P = 0
                want.setdefault((l,), []).append(c * v)
        want = {rest: sum(vs[1:], vs[0]) for rest, vs in want.items()}
        assert _contract(consts, table) == {rest: v for rest, v in want.items()
                                            if not v.is_zero()}


# -- the Schouten square ----------------------------------------------------


def test_schouten_kills_constants():
    pi = rand_bider0(rng(11), 2, 2)
    one = Poly.one(2)
    assert schouten_self_eval(pi, one, one, one).is_zero()


def test_schouten_constant_symplectic_vanishes():
    pi = symplectic_bider()
    a, b = Poly.var(2, 1), Poly.var(2, 2)
    assert schouten_self_eval(pi, a, b, a * b).is_zero()
    assert schouten_probe_suite(pi) == []


def test_schouten_so3_vanishes():
    pi = so3_bider()
    args = [Poly.var(3, i) for i in (1, 2, 3)]
    assert schouten_self_eval(pi, *args).is_zero()


def test_schouten_antisymmetry_realizable_patterns():
    r = rng(13)
    for _ in range(10):
        pi = rand_bider0(r, 2, 2)
        a, b, c = (rand_poly(r, 2, 2) for _ in range(3))
        p = rand_poly_vec(r, 2, 2, 2)
        v = schouten_self_eval
        assert (v(pi, a, b, c) + v(pi, b, a, c)).is_zero()
        assert (v(pi, a, b, c) + v(pi, a, c, b)).is_zero()
        assert (v(pi, a, b, p) + v(pi, b, a, p)).is_zero()
        assert (v(pi, a, b, p) + v(pi, a, p, b)).is_zero()
        assert (v(pi, a, p, b) + v(pi, p, a, b)).is_zero()


def test_schouten_square_formula_all_even():
    # [[Pi,Pi]](a,b,-) = 2 Pi(Pi(a,b), -) - 2 [Pi(a,-), Pi(b,-)], on A and on P
    r = rng(17)
    for _ in range(10):
        pi = rand_bider0(r, 2, 2)
        a, b, c = (rand_poly(r, 2, 2) for _ in range(3))
        p = rand_poly_vec(r, 2, 2, 2)
        ham = pi.hamiltonian(pi.eval(a, b)) - graded_commutator_der(
            pi.hamiltonian(a), pi.hamiltonian(b))
        assert schouten_self_eval(pi, a, b, c) == \
            DiolicElement.from_a(2 * ham.apply_a(c), pi.m)
        assert schouten_self_eval(pi, a, b, p) == DiolicElement.from_p(2 * ham.apply_p(p))


def test_schouten_two_p_arguments_vanish():
    r = rng(19)
    pi = rand_bider0(r, 2, 2)
    p, q = rand_poly_vec(r, 2, 2, 2), rand_poly_vec(r, 2, 2, 2)
    a = rand_poly(r, 2, 2)
    assert schouten_self_eval(pi, p, q, a).is_zero()
    assert schouten_self_eval(pi, a, p, q).is_zero()


def _problem(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "problems", name)
    with open(path) as fh:
        return parse_problem(json.load(fh), dict(DEFAULT_CAPS))[1]


@pytest.mark.parametrize("name, count, first, last, digest", [
    ("poisson_broken_bivector.json", 1224,
     "[[Pi,Pi]](x1, x2, x3) = (4*x1*x2 | (0))",
     "[[Pi,Pi]](x3^2, x2*x3, x1*x3*e1) = (0 | (-8*x1*x2*x3^3))",
     "22da50779719256cf86ec7a0a25e592f292f0f0f7d42b90884bca371421000a2"),
    ("poisson_noncommuting_end.json", 576,
     "[[Pi,Pi]](1*e1, x1, x2) = (0 | (-2, 0))",
     "[[Pi,Pi]](x2^2, x1*x2, x2^2*e2) = (0 | (0, -4*x2^4))",
     "2e78be49f16ce144ee45a8f2302b506c1d3df7d50c1e45e547ab0f79e4381fd3"),
])
def test_schouten_probe_suite_golden(name, count, first, last, digest):
    # labels, order and printed values as produced by the inductive recursion
    lines = ["%s = %s" % (label, value)
             for label, value in schouten_probe_suite(_problem(name), degree=2)]
    assert len(lines) == count
    assert lines[0] == first and lines[-1] == last
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def test_schouten_probe_suite_matches_self_eval():
    r = rng(43)
    total = 0
    for n, m in ((2, 2), (3, 1), (2, 1), (2, 3)):  # (2, 1) is Poisson
        pi = rand_bider0(r, n, m, deg=2)
        monos = [Poly.monomial(n, s) for s in monomials_up_to(n, 1)]
        a_elems = [(str(a), a) for a in monos]
        p_elems = [("%s*e%d" % (a, j + 1), a * PolyVec.basis(n, m, j))
                   for a in monos for j in range(m)]
        reported = dict(schouten_probe_suite(pi, degree=1))
        for s1, s2, s3 in ((a_elems, a_elems, a_elems), (p_elems, a_elems, a_elems),
                           (a_elems, p_elems, a_elems), (a_elems, a_elems, p_elems)):
            for l1, z1 in s1:
                for l2, z2 in s2:
                    for l3, z3 in s3:
                        label = "[[Pi,Pi]](%s, %s, %s)" % (l1, l2, l3)
                        value = schouten_self_eval(pi, z1, z2, z3)
                        if label in reported:
                            assert reported.pop(label) == value
                            total += 1
                        else:
                            assert value.is_zero(), label
        assert reported == {}
    assert total > 0


# -- Poisson checker ---------------------------------------------------------


def test_is_poisson0_passes():
    ok, res = is_poisson0(so3_bider())
    assert ok and res == []
    ok, res = is_poisson0(symplectic_bider(
        m=1, end=[PolyMat(2, [[Poly.const(2, 3)]]),
                  PolyMat(2, [[Poly.const(2, Fraction(1, 2))]])]))
    assert ok and res == []


def test_is_poisson0_spec_failure_case():
    # bivector x1 in the (1,2) slot, single end entry x2 at slot 3
    n, m = 3, 2
    end = [PolyMat.zero(n, m), PolyMat.zero(n, m),
           PolyMat(n, [[Poly.var(n, 2), Poly.zero(n)],
                       [Poly.zero(n), Poly.zero(n)]])]
    pi = BiDer0.from_upper(n, m, {(1, 2): Poly.var(n, 1)}, end)
    ok, res = is_poisson0(pi)
    assert not ok
    assert any(name.startswith("compat_pde") for name, _ in res)


def test_is_poisson0_noncommuting_constant_end_fails():
    n, m = 2, 2
    end = [
        PolyMat(n, [[Poly.zero(n), Poly.one(n)], [Poly.zero(n), Poly.zero(n)]]),
        PolyMat(n, [[Poly.zero(n), Poly.zero(n)], [Poly.one(n), Poly.zero(n)]])]
    pi = BiDer0.from_upper(n, m, {(1, 2): Poly.one(n)}, end)
    ok, res = is_poisson0(pi)
    assert not ok
    assert any(name.startswith("compat_pde") for name, _ in res)
    assert any(name.startswith("curvature") for name, _ in res)
    # the Schouten oracle agrees that this is not Poisson
    assert schouten_probe_suite(pi) != []


def test_poisson_equivalence_on_designed_suite():
    r = rng(23)
    structures = [
        so3_bider(),
        so3_bider(m=2, end=[PolyMat.zero(3, 2)] * 3),
        symplectic_bider(),
        symplectic_bider(m=1, end=[PolyMat(2, [[Poly.one(2)]]),
                                   PolyMat(2, [[Poly.var(2, 1) * 0]])]),
        BiDer0.from_upper(3, 1, {(1, 2): Poly.var(3, 2) ** 2,
                                 (2, 3): Poly.var(3, 1)}),
        BiDer0.from_upper(2, 1, {(1, 2): Poly.var(2, 1)}),
    ]
    for _ in range(4):
        structures.append(rand_bider0(r, 2, 2))
    assert len(structures) >= 10
    for pi in structures:
        verdict, _ = is_poisson0(pi)
        assert verdict == (schouten_probe_suite(pi, degree=2) == [])


# -- Jacobi checkers ---------------------------------------------------------


def test_jacobiator_poisson_type_on_unit():
    pi = so3_bider()
    b = jacobi_from_poisson(pi)
    one = Poly.one(3)
    a1, a2 = Poly.var(3, 1), Poly.var(3, 2)
    assert jacobiator0(b, one, a1, a2).is_zero()


def test_jacobiator_witt_vanishes():
    b = witt_lift()
    x = Poly.var(1, 1)
    assert jacobiator0(b, x, x * x, x * x * x).is_zero()


def test_jacobiator_graded_skew_in_arguments():
    r = rng(41)
    b = jacobi_from_poisson(rand_bider0(r, 2, 2, deg=1))
    for _ in range(10):
        a1, a2, a3 = (rand_poly(r, 2, 2) for _ in range(3))
        p = rand_poly_vec(r, 2, 2, 1)
        assert (jacobiator0(b, a1, a2, a3) + jacobiator0(b, a2, a1, a3)).is_zero()
        assert (jacobiator0(b, a1, a2, a3) + jacobiator0(b, a1, a3, a2)).is_zero()
        assert (jacobiator0(b, a1, a2, p) + jacobiator0(b, a2, a1, p)).is_zero()
        assert (jacobiator0(b, a1, a2, p) + jacobiator0(b, a1, p, a2)).is_zero()
        assert (jacobiator0(b, a1, p, a2) + jacobiator0(b, p, a1, a2)).is_zero()


def test_jacobi_constructor_rejects_symmetric_defect():
    n = 1
    with pytest.raises(ValueError, match="skew"):
        JacobiOp0(n, 1, {((0,), (0,)): Poly.one(n)}, {})


def test_jacobi_constructor_rejects_incompatible_components():
    # AA part is the Witt bracket but the P-part ignores it entirely
    n = 1
    dmap = {(0,): MatrixOp(n, [[ScalarOp.mult(Poly.var(n, 1))]])}
    with pytest.raises(ValueError, match="scalar"):
        JacobiOp0(n, 1, witt_caa(), dmap)


def test_jacobi0_pair_matches_table_formulas():
    """B.eval(z1, z2) + z1 E(z2) - E(z1) z2 against the closed formulas of
    the raw tables on A-A, A-P and P-A arguments, mostly with
    E = Pi(1, -) != 0."""
    r = rng(47)
    nonzero_e = 0
    for n, m in ((1, 1), (2, 1), (2, 2), (3, 2)) * 3:
        raw = rand_jacobi0_tables(r, n, m)
        b = raw.build()
        nonzero_e += not b.e.is_zero()
        one = Poly.one(n)
        for _ in range(3):
            a, c = rand_poly(r, n, 2), rand_poly(r, n, 2)
            p = rand_poly_vec(r, n, m, 2)
            assert b.eval(a, c) == raw.eval_aa(a, c)
            assert b.eval(a, p) == raw.eval_ap(a, p)
            assert b.eval(p, a) == -raw.eval_ap(a, p)
            assert b.e(a) == raw.eval_aa(one, a) and b.e(p) == raw.eval_ap(one, p)
    assert nonzero_e >= 10


def test_jacobiator_is_first_order_in_each_a_slot():
    """The order fact behind the degree-1 probes of is_jacobi0: the
    second-order delta J(xyf) - x J(yf) - y J(xf) + xy J(f) vanishes in
    every A slot, also for brackets that are not Jacobi."""
    r = rng(53)
    nonzero = 0
    for n, m in ((2, 1), (2, 2), (3, 1)) * 2:
        b = rand_jacobi0_tables(r, n, m).build()
        a1, a2, a3 = (rand_poly(r, n, 2) for _ in range(3))
        p = rand_poly_vec(r, n, m, 1)
        x, y = Poly.var(n, r.randint(1, n)), Poly.var(n, r.randint(1, n))
        for args in ((a1, a2, a3), (a1, a2, p), (p, a1, a2)):
            nonzero += not jacobiator0(b, *args).is_zero()
            for k, f in enumerate(args):
                if f.grade:
                    continue

                def jac(g):
                    return jacobiator0(b, *(args[:k] + (g,) + args[k + 1:]))
                delta = jac(x * y * f) - x * jac(y * f) - y * jac(x * f) + x * y * jac(f)
                assert delta.is_zero()
    assert nonzero >= 6  # the draws include Jacobiators that do not vanish


def test_is_jacobi0_witt_and_weight_shifts():
    ok, res = is_jacobi0(witt_lift())
    assert ok and res == []
    # shifting the density weight by a constant stays Jacobi
    ok, _ = is_jacobi0(witt_lift(weight_shift=2))
    assert ok


def test_is_jacobi0_poisson_lifts_pass():
    for pi in (so3_bider(), symplectic_bider()):
        b = jacobi_from_poisson(pi)
        ok, res = is_jacobi0(b)
        assert ok and res == []


def test_is_jacobi0_designed_violation_fails():
    n, m = 2, 2
    z = ScalarOp.zero(n)
    i1 = ScalarOp.identity(n)
    d1, d2 = ScalarOp.partial(n, 1), ScalarOp.partial(n, 2)
    caa = {((1, 0), (0, 1)): Poly.one(n), ((0, 1), (1, 0)): -Poly.one(n)}
    dmap = {(1, 0): MatrixOp(n, [[d2, i1], [z, d2]]),
            (0, 1): MatrixOp(n, [[-d1, z], [i1, -d1]])}
    b = JacobiOp0(n, m, caa, dmap)
    ok, res = is_jacobi0(b)
    assert not ok
    assert any(name.startswith("jacobi_pde") for name, _ in res)
    assert any(name.startswith("jacobiator") for name, _ in res)
    # each P-part value is reported once, with the section in the last slot
    for name, _ in res:
        if name.startswith("jacobiator("):
            args = name[len("jacobiator("):-1].split("; ")
            assert not any(a.startswith("e") for a in args[:2]), name


def test_is_jacobi_neg1():
    assert is_jacobi_neg1(JacobiNeg1(1, witt_caa()))
    assert is_jacobi_neg1(JacobiNeg1(1, {}))
    # x1-scaled variant, decided by the exact Jacobiator: f -> x f d/dx is an
    # injective morphism onto a bracket-closed family, so it stays Jacobi
    x = Poly.var(1, 1)
    scaled = JacobiNeg1(1, {((0,), (1,)): x, ((1,), (0,)): -x})
    assert is_jacobi_neg1(scaled) is True
    # in one variable every such bracket is u(x) times the derivative bracket
    # and stays Jacobi, so u = 1 + x^2 passes as well
    w = Poly.one(1) + x * x
    assert is_jacobi_neg1(JacobiNeg1(1, {((0,), (1,)): w, ((1,), (0,)): -w}))


def test_is_jacobi_neg1_detects_failure():
    # bivector d1 ^ d2 paired with the vector field x1 d1: the mixed
    # compatibility fails, so the bracket is not Jacobi
    n = 2
    one, x1 = Poly.one(n), Poly.var(n, 1)
    j = JacobiNeg1(n, {((1, 0), (0, 1)): one, ((0, 1), (1, 0)): -one,
                       ((0, 0), (1, 0)): x1, ((1, 0), (0, 0)): -x1})
    assert is_jacobi_neg1(j) is False


def test_poisson_lift_preserves_residual_freeness():
    r = rng(29)
    for _ in range(5):
        pi = rand_bider0(r, 2, 1, deg=1)
        if not is_poisson0(pi)[0]:
            continue
        ok, _ = is_jacobi0(jacobi_from_poisson(pi))
        assert ok


# -- Lie algebroids ----------------------------------------------------------


def tangent_algebroid(n):
    rho = [VectorField.coordinate(n, i + 1) for i in range(n)]
    c = [PolyMat.zero(n, n) for _ in range(n)]
    return BiDerNeg1(rho, c)


def so3_bundle():
    n, m = 1, 3
    z = Poly.zero(n)
    one = Poly.one(n)
    cmats = [PolyMat.zero(n, m) for _ in range(m)]
    rows = [[[z] * m for _ in range(m)] for _ in range(m)]
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2; C_alpha entry (gamma, beta)
    for (a, b, g) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        rows[a][g][b] = one
        rows[b][g][a] = -one
    cmats = [PolyMat(n, rows[a]) for a in range(m)]
    return BiDerNeg1([VectorField.zero(n)] * m, cmats)


def test_algebroid_tangent_passes():
    ok, res = is_lie_algebroid(tangent_algebroid(2))
    assert ok and res == []


def test_algebroid_so3_bundle_passes():
    ok, res = is_lie_algebroid(so3_bundle())
    assert ok and res == []


def test_algebroid_broken_structure_fails():
    n, m = 1, 3
    z, one = Poly.zero(n), Poly.one(n)
    rows = [[[z] * m for _ in range(m)] for _ in range(m)]
    # [e1,e2]=e3 and [e1,e3]=e1: the Jacobiator on (e1,e2,e3) is -e3
    rows[0][2][1] = one
    rows[1][2][0] = -one
    rows[0][0][2] = one
    rows[2][0][0] = -one
    l = BiDerNeg1([VectorField.zero(n)] * m, [PolyMat(n, r) for r in rows])
    ok, res = is_lie_algebroid(l)
    assert not ok
    assert any(name.startswith("jacobiator") for name, _ in res)


def test_algebroid_broken_anchor_fails():
    n, m = 1, 2
    rho = [VectorField.coordinate(n, 1),
           VectorField(n, [Poly.var(n, 1)])]
    l = BiDerNeg1(rho, [PolyMat.zero(n, m)] * m)
    ok, res = is_lie_algebroid(l)
    assert not ok
    assert any(name.startswith("anchor") for name, _ in res)


def test_algebroid_constructor_requires_antisymmetry():
    n, m = 1, 2
    one = Poly.one(n)
    bad = [PolyMat(n, [[one, one], [one, one]]) for _ in range(m)]
    with pytest.raises(ValueError):
        BiDerNeg1([VectorField.zero(n)] * m, bad)


def test_algebroid_bracket_leibniz():
    l = tangent_algebroid(2)
    r = rng(31)
    p = rand_poly_vec(r, 2, 2, 2)
    q = rand_poly_vec(r, 2, 2, 2)
    b = rand_poly(r, 2, 2)
    lhs = l.eval(p, b * q)
    rhs = b * l.eval(p, q) + l.anchor(p)(b) * q
    assert lhs == rhs


def test_algebroid_graded_jacobi_via_bracket_recursion():
    # the induced degree -1 bracket of a valid algebroid satisfies the
    # graded Jacobi identity on mixed homogeneous triples
    r = rng(37)
    for l in (tangent_algebroid(2), so3_bundle()):
        n, m = l.n, l.m
        for _ in range(20):
            zs = []
            for _ in range(3):
                if r.random() < 0.6:
                    zs.append(rand_poly_vec(r, n, m, 1))
                else:
                    zs.append(rand_poly(r, n, 2))
            if all(isinstance(z, Poly) for z in zs):
                continue
            assert jacobiator0(l, *zs).is_zero()
