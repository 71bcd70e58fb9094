"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints its own PASS line (visible with -s; the pytest verdict
line carries the same information) and enforces the stated wall-clock
budget where one is given.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

from diolic.poly import Poly, PolyMat, monomials_up_to
from diolic.ops import MatrixOp, ScalarOp, VectorField, commutator, verify_order
from diolic.derivations import (Der0, Der1, DerNeg1, graded_commutator_der,
                                rank_one_obstruction)
from diolic.diffops import (DiffOp0, DiffOp1, DiffOpNeg1, atiyah_project,
                            atiyah_split, graded_commutator_diff)
from diolic.symbols import (lambda_k, poisson_bracket, smbl_scalar, star)
from diolic.brackets import (BiDer0, JacobiNeg1, JacobiOp0, is_jacobi0,
                             is_jacobi_neg1, is_lie_algebroid, is_poisson0,
                             jacobi_from_poisson, schouten_probe_suite)
from diolic.complexes import (CEData, ce_cochain_dimensions, ce_cohomology,
                              der_cochain_dimensions, der_cohomology_truncated,
                              der_differential)
from diolic.cli import DEFAULT_CAPS, canonical_problem_json

from helpers import (dense_ce_differential, rng, rand_bider0, rand_cochain, rand_der0,
                     rand_der1, rand_derneg1, rand_diffop0, rand_diffop1, rand_diffopneg1,
                     rand_scalar_op)

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        if exc_type is None:
            assert elapsed < self.seconds, \
                "%s exceeded its %.0f s budget (%.1f s)" % (self.name, self.seconds, elapsed)
            print("ACCEPTANCE %s: PASS (%.2f s)" % (self.name, elapsed))


def test_criterion_01_symbol_commutator_homomorphism():
    r = rng(1001)
    with Budget("C1 symbol-commutator homomorphism", 10):
        for _ in range(200):
            n = r.randint(1, 3)
            a = rand_scalar_op(r, n, r.randint(0, 3), coeff_deg=3)
            b = rand_scalar_op(r, n, r.randint(0, 3), coeff_deg=3)
            ka, kb = max(a.order(), 0), max(b.order(), 0)
            sa, sb = smbl_scalar(a, ka), smbl_scalar(b, kb)
            assert smbl_scalar(a @ b, ka + kb) == star(sa, sb)
            assert smbl_scalar(commutator(a, b), max(ka + kb - 1, 0)) \
                == poisson_bracket(sa, sb)


def _suite_structures():
    so3_upper = {(1, 2): Poly.var(3, 3), (2, 3): Poly.var(3, 1),
                 (1, 3): -Poly.var(3, 2)}
    e12 = PolyMat(2, [[Poly.zero(2), Poly.one(2)], [Poly.zero(2), Poly.zero(2)]])
    e21 = PolyMat(2, [[Poly.zero(2), Poly.zero(2)], [Poly.one(2), Poly.zero(2)]])
    structures = [
        # passes
        BiDer0.from_upper(3, 1, so3_upper),
        BiDer0.from_upper(3, 2, so3_upper, [PolyMat.zero(3, 2)] * 3),
        BiDer0.from_upper(2, 1, {(1, 2): Poly.one(2)},
                          [PolyMat(2, [[Poly.const(2, 3)]]),
                           PolyMat(2, [[Poly.const(2, Fraction(1, 2))]])]),
        BiDer0.from_upper(2, 2, {(1, 2): Poly.one(2)}, [e12, e12]),
        BiDer0.from_upper(2, 1, {(1, 2): Poly.var(2, 1)}),
        # designed failures
        BiDer0.from_upper(3, 1, {(1, 2): Poly.var(3, 2) ** 2,
                                 (2, 3): Poly.var(3, 1)}),
        BiDer0.from_upper(3, 2, {(1, 2): Poly.var(3, 1)},
                          [PolyMat.zero(3, 2), PolyMat.zero(3, 2),
                           PolyMat(3, [[Poly.var(3, 2), Poly.zero(3)],
                                       [Poly.zero(3), Poly.zero(3)]])]),
        BiDer0.from_upper(2, 2, {(1, 2): Poly.one(2)}, [e12, e21]),
    ]
    r = rng(1002)
    structures.append(rand_bider0(r, 2, 2, deg=1))
    structures.append(rand_bider0(r, 3, 1, deg=1))
    return structures


def test_criterion_02_poisson_theorem_equivalence():
    structures = _suite_structures()
    assert len(structures) >= 10
    with Budget("C2 Poisson PDE <-> Schouten equivalence", 30):
        verdicts = []
        for pi in structures:
            pde_verdict, _ = is_poisson0(pi)
            schouten_verdict = schouten_probe_suite(pi, degree=2) == []
            assert pde_verdict == schouten_verdict
            verdicts.append(pde_verdict)
        assert verdicts[0] and verdicts[2]          # so(3), constant symplectic
        assert sum(1 for v in verdicts if not v) >= 3   # designed failures


def test_criterion_03_jacobi_suite():
    with Budget("C3 Jacobi suite", 10):
        one1 = Poly.one(1)
        witt = {((0,), (1,)): one1, ((1,), (0,)): -one1}
        assert is_jacobi_neg1(JacobiNeg1(1, witt))
        lift = JacobiOp0(1, 1, witt,
                         {(0,): MatrixOp(1, [[ScalarOp.partial(1, 1)]]),
                          (1,): MatrixOp(1, [[-ScalarOp.identity(1)]])})
        ok, res = is_jacobi0(lift)
        assert ok and res == []
        # every Poisson structure in the suite lifts to a Jacobi structure
        for pi in _suite_structures():
            if is_poisson0(pi)[0]:
                okp, resp = is_jacobi0(jacobi_from_poisson(pi))
                assert okp and resp == []
        # designed violation of the first-order compatibility equation
        n, m = 2, 2
        z, i1 = ScalarOp.zero(n), ScalarOp.identity(n)
        d1, d2 = ScalarOp.partial(n, 1), ScalarOp.partial(n, 2)
        caa = {((1, 0), (0, 1)): Poly.one(n), ((0, 1), (1, 0)): -Poly.one(n)}
        bad = JacobiOp0(n, m, caa,
                        {(1, 0): MatrixOp(n, [[d2, i1], [z, d2]]),
                         (0, 1): MatrixOp(n, [[-d1, z], [i1, -d1]])})
        okb, resb = is_jacobi0(bad)
        assert not okb
        assert any(name.startswith("jacobi_pde") for name, _ in resb)
        assert all(not _value_is_zero(v) for _, v in resb)


def _value_is_zero(v):
    return v.is_zero() if hasattr(v, "is_zero") else not v


def _der_degree(x):
    if isinstance(x, Der0):
        return 0
    return 1 if isinstance(x, Der1) else -1


def _diff_degree(x):
    if isinstance(x, DiffOp0):
        return 0
    return 1 if isinstance(x, DiffOp1) else -1


def _bk(op, a, b):
    if a == 0 or b == 0:
        return 0
    return op(a, b)


def _combine(a, b, subtract=False):
    if b == 0:
        return a
    if a == 0:
        return -b if subtract else b
    return a - b if subtract else a + b


def _is_zero(a):
    return a == 0 or a.is_zero()


def test_criterion_04_graded_lie_structure():
    r = rng(1004)
    with Budget("C4 graded skew-symmetry and Jacobi", 20):
        for trial in range(100):
            if trial % 2 == 0:
                n, m = r.randint(1, 2), r.choice([1, 1, 2])
                gens = [lambda: rand_der0(r, n, m), lambda: rand_der1(r, n, m)]
                if m == 1:
                    gens.append(lambda: rand_derneg1(r, n))
                bracket = graded_commutator_der
                degree = _der_degree
            else:
                n, m = r.randint(1, 2), r.choice([1, 1, 2])
                gens = [lambda: rand_diffop0(r, n, m, r.randint(0, 2)),
                        lambda: rand_diffop1(r, n, m, r.randint(0, 2))]
                if m == 1:
                    gens.append(lambda: rand_diffopneg1(r, n, r.randint(0, 2)))
                bracket = graded_commutator_diff
                degree = _diff_degree
            a, b, c = (r.choice(gens)() for _ in range(3))
            # graded skew-symmetry
            ab = _bk(bracket, a, b)
            ba = _bk(bracket, b, a)
            sign = (-1) ** (degree(a) * degree(b))
            assert _is_zero(_combine(ab, ba, subtract=(sign < 0)))
            # degree-1 x degree-1 brackets vanish identically
            if degree(a) == degree(b) == 1:
                assert ab == 0
            # graded Jacobi identity
            sign = (-1) ** (degree(a) * degree(b))
            lhs = _bk(bracket, a, _bk(bracket, b, c))
            rhs = _combine(_bk(bracket, _bk(bracket, a, b), c),
                           _bk(bracket, b, _bk(bracket, a, c)),
                           subtract=(sign < 0))
            assert _is_zero(_combine(lhs, rhs, subtract=True))


def test_criterion_05_order_arithmetic():
    r = rng(1005)
    with Budget("C5 commutator order bounds", 60):
        for _ in range(100):
            n, m = r.randint(1, 2), r.randint(1, 2)
            k, l = r.randint(0, 3), r.randint(0, 3)
            b1 = rand_diffop0(r, n, m, k)
            b2 = rand_diffop0(r, n, m, l)
            out = graded_commutator_diff(b1, b2)
            assert atiyah_project(out).order() <= max(k + l - 1, -1)
            assert out.M.order() <= max(k + l - 2, -1)


def test_criterion_06_atiyah_sequences():
    r = rng(1006)
    with Budget("C6 Atiyah sequences and rank-one boundary", 60):
        for k in (1, 2, 3):
            n, m = 2, 2
            for sigma in monomials_up_to(n, k):
                gen = ScalarOp.partial_sigma(n, sigma)
                assert atiyah_project(atiyah_split(gen, k, m)) == gen
            # kernel elements are exactly the matrix operators of order <= k-1
            from helpers import rand_matrix_op
            for _ in range(5):
                mat = rand_matrix_op(r, n, m, k - 1)
                elt = DiffOp0(k, ScalarOp.zero(n), mat)
                assert atiyah_project(elt).is_zero()
                assert elt.M.order() <= k - 1
                assert elt.boxP() == mat
        # degree -1 objects exist iff m = 1
        DerNeg1([Poly.var(1, 1)])
        DiffOpNeg1(1, ScalarOp.partial(1, 1), m=1)
        for bad_rank in (2, 3):
            try:
                DerNeg1([Poly.var(1, 1)] * bad_rank)
                raise AssertionError("rank %d DerNeg1 accepted" % bad_rank)
            except ValueError:
                pass
            try:
                DiffOpNeg1(1, ScalarOp.partial(1, 1), m=bad_rank)
                raise AssertionError("rank %d DiffOpNeg1 accepted" % bad_rank)
            except ValueError:
                pass
        witness = rank_one_obstruction(2)
        assert set(witness) == {0, 1}


def test_criterion_07_lambda_kernel_theorem():
    r = rng(1007)
    with Budget("C7 lambda kernel theorem", 60):
        for trial in range(50):
            n, m = r.randint(1, 2), r.randint(1, 2)
            k = r.randint(1, 3)
            if trial % 3 == 0:
                # force kernel members so both verdicts are exercised
                b = DiffOp0(k, rand_scalar_op(r, n, k - 1),
                            rand_matrix_op_low(r, n, m, k - 2))
            else:
                b = rand_diffop0(r, n, m, k)
            monos = monomials_up_to(n, k)
            vanishes = all(
                lambda_k(b, [Poly.monomial(n, s) for s in args]).is_zero()
                for args in itertools.product(monos, repeat=k - 1))
            in_lower = (verify_order(b.boxA, k - 1)
                        and (b.M.is_zero() if k < 2 else verify_order(b.M, k - 2)))
            assert vanishes == in_lower


def rand_matrix_op_low(r, n, m, order):
    from helpers import rand_matrix_op
    if order < 0:
        return MatrixOp.zero(n, m)
    return rand_matrix_op(r, n, m, order)


def test_criterion_08_complexes():
    r = rng(1008)
    with Budget("C8 complexes", 30):
        for _ in range(100):
            n, m = r.randint(1, 2), r.randint(1, 2)
            k = r.randint(0, 2)
            l = der_differential(n, m, 2)
            w = rand_cochain(r, l, k)
            assert dense_ce_differential(l, k + 1, dense_ce_differential(l, k, w)) == {}
        assert der_cohomology_truncated(1, 1, 3) == [0, 0, 0]
        c_sl2 = [[[0, 0, 0], [0, 2, 0], [0, 0, -2]],
                 [[0, -2, 0], [0, 0, 0], [1, 0, 0]],
                 [[0, 0, 2], [-1, 0, 0], [0, 0, 0]]]
        ad = [[[c_sl2[i][j][k] for j in range(3)] for k in range(3)]
              for i in range(3)]
        abelian = CEData(2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], 1,
                         [[[0]], [[0]]])
        sl2_ad = CEData(3, c_sl2, 3, ad)
        sl2_triv = CEData(3, c_sl2, 1, [[[0]], [[0]], [[0]]])
        assert ce_cohomology(abelian) == [1, 2, 1]
        assert ce_cohomology(sl2_ad) == [0, 0, 0, 0]
        assert ce_cohomology(sl2_triv) == [1, 0, 0, 1]
        # Euler identity in every run
        for l in (abelian, sl2_ad, sl2_triv):
            betti, dims = ce_cohomology(l), ce_cochain_dimensions(l)
            assert sum(b if i % 2 == 0 else -b for i, b in enumerate(betti)) \
                == sum(d if i % 2 == 0 else -d for i, d in enumerate(dims))
        for (n, m, d) in [(1, 1, 3), (1, 2, 1)]:
            betti = der_cohomology_truncated(n, m, d)
            dims = der_cochain_dimensions(n, m, d)
            assert sum(b if i % 2 == 0 else -b for i, b in enumerate(betti)) \
                == sum(x if i % 2 == 0 else -x for i, x in enumerate(dims))


def test_criterion_09_lie_algebroid_checker():
    with Budget("C9 Lie algebroid checker", 5):
        n = 2
        tangent = _tangent(n)
        ok, res = is_lie_algebroid(tangent)
        assert ok and res == []
        ok, res = is_lie_algebroid(_so3_bundle())
        assert ok and res == []
        ok, res = is_lie_algebroid(_broken_bundle())
        assert not ok
        assert any(name.startswith("jacobiator") and not _value_is_zero(v)
                   for name, v in res)


def _tangent(n):
    from diolic.brackets import BiDerNeg1
    rho = [VectorField.coordinate(n, i + 1) for i in range(n)]
    return BiDerNeg1(rho, [PolyMat.zero(n, n) for _ in range(n)])


def _so3_bundle():
    from diolic.brackets import BiDerNeg1
    n, m = 1, 3
    z, one = Poly.zero(n), Poly.one(n)
    rows = [[[z] * m for _ in range(m)] for _ in range(m)]
    for (a, b, g) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        rows[a][g][b] = one
        rows[b][g][a] = -one
    return BiDerNeg1([VectorField.zero(n)] * m,
                     [PolyMat(n, rows[a]) for a in range(m)])


def _broken_bundle():
    from diolic.brackets import BiDerNeg1
    n, m = 1, 3
    z, one = Poly.zero(n), Poly.one(n)
    rows = [[[z] * m for _ in range(m)] for _ in range(m)]
    rows[0][2][1] = one
    rows[1][2][0] = -one
    rows[0][0][2] = one
    rows[2][0][0] = -one
    return BiDerNeg1([VectorField.zero(n)] * m,
                     [PolyMat(n, r) for r in rows])


def test_criterion_10_cli_determinism():
    with Budget("C10 CLI determinism and round trip", 120):
        with open(os.path.join(PROBLEMS, "manifest.json")) as fh:
            manifest = json.load(fh)
        caps = dict(DEFAULT_CAPS)
        for name, expected in sorted(manifest.items()):
            path = os.path.join(PROBLEMS, name)
            runs = [subprocess.run(
                [sys.executable, "-m", "diolic", "check", path],
                capture_output=True, text=True) for _ in range(2)]
            assert runs[0].returncode == expected, name
            assert runs[1].returncode == expected, name
            assert runs[0].stdout == runs[1].stdout, name
            # parse-print round trip in canonical form
            with open(path) as fh:
                data = json.load(fh)
            canon = canonical_problem_json(data, caps)
            assert canonical_problem_json(canon, caps) == canon, name
        # one bracket and two cohomology invocations, byte for byte
        der0 = [json.dumps({"X": ["x1", "1"], "G": [["x2", "0"], ["1", "x1"]]}),
                json.dumps({"X": ["x2^2", "x1"], "G": [["0", "x1*x2"], ["1", "0"]]})]
        for args in (["bracket", "--kind", "der0"] + der0,
                     ["cohomology", "--der", "2", "2", "1"],
                     ["cohomology", "--ce", os.path.join(PROBLEMS, "ce_sl2_adjoint.json")]):
            runs = [subprocess.run([sys.executable, "-m", "diolic"] + args,
                                   capture_output=True, text=True) for _ in range(2)]
            assert runs[0].returncode == runs[1].returncode == 0, args
            assert runs[0].stdout and runs[0].stdout == runs[1].stdout, args
