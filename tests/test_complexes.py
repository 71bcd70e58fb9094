import json
import os
from fractions import Fraction

import pytest

from diolic.poly import Poly, PolyVec
from diolic.complexes import (CEData, FatForm, ResourceCapError,
                              ce_cochain_dimensions, ce_cohomology,
                              ce_differential, der_cochain_dimensions,
                              der_cohomology_truncated, der_differential,
                              diolic_lie_check, rank)

from helpers import rng, rand_fatform


SL2_C = [[[0, 0, 0], [0, 2, 0], [0, 0, -2]],
         [[0, -2, 0], [0, 0, 0], [1, 0, 0]],
         [[0, 0, 2], [-1, 0, 0], [0, 0, 0]]]
SL2_AD = [[[SL2_C[i][j][k] for j in range(3)] for k in range(3)]
          for i in range(3)]


def sl2_adjoint():
    return CEData(3, SL2_C, 3, SL2_AD)


def sl2_trivial():
    return CEData(3, SL2_C, 1, [[[0]], [[0]], [[0]]])


def abelian2_trivial():
    return CEData(2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], 1, [[[0]], [[0]]])


# -- exact rank --------------------------------------------------------------


def test_rank_basics():
    assert rank([]) == 0
    assert rank([[Fraction(0), Fraction(0)]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 2], [3, 4]]) == 2
    assert rank([[Fraction(1, 2), Fraction(1, 3)],
                 [Fraction(1, 4), Fraction(1, 6)]]) == 1


# -- the Der-complex ---------------------------------------------------------


def test_der_degree_zero_differential():
    # n = m = 1, w = d0(x1): values on (nabla, E) are (1, x1)
    w = FatForm.from_section(PolyVec(1, [Poly.var(1, 1)]))
    dw = der_differential(w)
    assert dw.value((0,)) == PolyVec(1, [Poly.one(1)])
    assert dw.value((1,)) == PolyVec(1, [Poly.var(1, 1)])


def test_der_degree_one_formula():
    # w(nabla) = f, w(E) = g: (dw)(nabla, E) = g' - f
    f = Poly(1, {(2,): 1})
    g = Poly(1, {(3,): 1})
    w = FatForm(1, 1, 1, {(0,): PolyVec(1, [f]), (1,): PolyVec(1, [g])})
    assert der_differential(w).value((0, 1)) == PolyVec(1, [g.partial(1) - f])


def test_der_dd_zero_random():
    r = rng(3)
    for _ in range(60):
        n, m = r.randint(1, 2), r.randint(1, 2)
        k = r.randint(0, 2)
        w = rand_fatform(r, n, m, k, deg=2)
        assert der_differential(der_differential(w)).is_zero()


def test_der_differential_preserves_coefficient_degree():
    r = rng(5)
    for _ in range(30):
        n, m = r.randint(1, 2), r.randint(1, 2)
        w = rand_fatform(r, n, m, r.randint(0, 2), deg=2)
        if w.is_zero():
            continue
        dw = der_differential(w)
        assert dw.coefficient_degree() <= max(w.coefficient_degree(), -1)


def test_der_antisymmetric_evaluation():
    r = rng(7)
    w = rand_fatform(r, 2, 2, 2, deg=1)
    size = 2 + 4
    for i in range(size):
        for j in range(size):
            assert (w.value((i, j)) + w.value((j, i))).is_zero()


def test_der_cohomology_golden_values():
    assert der_cohomology_truncated(1, 1, 3) == [0, 0, 0]
    # golden value, pinned after cross-checking the ranks against an
    # independent elimination
    assert der_cohomology_truncated(1, 2, 1) == [0, 0, 0, 0, 0, 0]


def test_der_cohomology_euler_identity():
    for (n, m, d) in [(1, 1, 3), (1, 1, 0), (2, 1, 2), (1, 2, 1)]:
        betti = der_cohomology_truncated(n, m, d)
        dims = der_cochain_dimensions(n, m, d)
        s_b = sum(b if i % 2 == 0 else -b for i, b in enumerate(betti))
        s_d = sum(b if i % 2 == 0 else -b for i, b in enumerate(dims))
        assert s_b == s_d


def test_der_cochain_dimensions():
    # (1,1,3): basis size 2, coefficient space dim 4
    assert der_cochain_dimensions(1, 1, 3) == [4, 8, 4]


def test_der_h0_vanishes_for_line_module():
    for n in (1, 2):
        betti = der_cohomology_truncated(n, 1, 3)
        assert betti[0] == 0


def test_der_cohomology_resource_guard():
    with pytest.raises(ResourceCapError):
        der_cohomology_truncated(3, 3, 4, max_dim=100)


# -- Chevalley-Eilenberg -----------------------------------------------------


def test_diolic_lie_check():
    assert diolic_lie_check(sl2_adjoint())
    assert diolic_lie_check(abelian2_trivial())
    # abelian with commuting matrices is fine
    com = CEData(2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], 2,
                 [[[1, 0], [0, 2]], [[3, 0], [0, 4]]])
    assert diolic_lie_check(com)
    # perturbed representation fails
    bad = [[list(r) for r in m] for m in SL2_AD]
    bad[0][0][0] = 7
    assert not diolic_lie_check(CEData(3, SL2_C, 3, bad))
    # broken Jacobi: [e1,e2]=e3, [e1,e3]=e1
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2] = 1
    c[1][0][2] = -1
    c[0][2][0] = 1
    c[2][0][0] = -1
    assert not diolic_lie_check(CEData(3, c, 1, [[[0]], [[0]], [[0]]]))


def test_ce_differential_abelian_trivial_is_zero():
    l = abelian2_trivial()
    tau = {(0,): [Fraction(1)], (1,): [Fraction(2)]}
    assert ce_differential(l, 1, tau) == {}


def test_ce_r1_identity_rep():
    l = CEData(1, [[[0]]], 1, [[[1]]])
    assert ce_cohomology(l) == [0, 0]


def test_ce_dd_zero_random():
    r = rng(11)
    datasets = [sl2_adjoint(), sl2_trivial(), abelian2_trivial()]
    for l in datasets:
        for _ in range(10):
            p = r.randint(0, l.r - 1)
            tau = {}
            import itertools
            for idx in itertools.combinations(range(l.r), p):
                tau[idx] = [Fraction(r.randint(-3, 3)) for _ in range(l.d1)]
            once = ce_differential(l, p, tau)
            twice = ce_differential(l, p + 1, once)
            assert twice == {}


def test_ce_cohomology_golden_values():
    assert ce_cohomology(abelian2_trivial()) == [1, 2, 1]
    assert ce_cohomology(sl2_adjoint()) == [0, 0, 0, 0]
    assert ce_cohomology(sl2_trivial()) == [1, 0, 0, 1]


def test_ce_cohomology_rejects_negative_betti():
    # rho of the shipped invalid file is no representation: d o d != 0, and
    # dims - ranks came out as [0, -2, -2, 0]
    path = os.path.join(os.path.dirname(__file__), os.pardir, "problems",
                        "ce_invalid_rep.json")
    with open(path) as fh:
        doc = json.load(fh)
    with pytest.raises(ValueError, match="negative Betti"):
        ce_cohomology(CEData(doc["dim"], doc["c"], doc["rep_dim"], doc["rho"]))


def test_ce_euler_identity():
    for l in (abelian2_trivial(), sl2_adjoint(), sl2_trivial()):
        betti = ce_cohomology(l)
        dims = ce_cochain_dimensions(l)
        s_b = sum(b if i % 2 == 0 else -b for i, b in enumerate(betti))
        s_d = sum(b if i % 2 == 0 else -b for i, b in enumerate(dims))
        assert s_b == s_d


def test_cedata_validates_shapes():
    with pytest.raises(ValueError):
        CEData(2, [[[0, 0], [0, 0]]], 1, [[[0]], [[0]]])
    with pytest.raises(ValueError):
        CEData(1, [[[1]]], 1, [[[0]]])  # c must be antisymmetric
