import importlib.util
import itertools
import json
import os
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings, strategies as st

from diolic import complexes
from diolic.poly import Poly, PolyVec, monomials_up_to
from diolic.complexes import (CEData, ResourceCapError, _lie_products, _weight0_bases,
                              ce_cochain_dimensions, ce_cohomology,
                              der_cochain_dimensions,
                              der_cohomology_truncated, der_differential,
                              diolic_lie_check, diolic_lie_residuals, rank)

from helpers import (dense_ce_differential, der_vector, oracle_ce_cohomology,
                     oracle_diolic_lie_residuals, oracle_rank, rand_cochain, rand_fraction, rng,
                     so3_poly_rep)


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
    assert rank([{0: Fraction(0), 1: Fraction(0)}]) == 0
    assert rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
    assert rank([{0: 1, 1: 2}, {0: 3, 1: 4}]) == 2
    assert rank([{0: Fraction(1, 2), 1: Fraction(1, 3)},
                 {0: Fraction(1, 4), 1: Fraction(1, 6)}]) == 1


def test_rank_matches_sympy():
    r = rng(17)
    for _ in range(30):
        nrows, ncols = r.randint(1, 9), r.randint(1, 9)
        rows = [{c: rand_fraction(r, zero_ok=False) for c in range(ncols)
                 if r.random() < 0.35} for _ in range(nrows)]
        # plant dependent rows so that the rank falls short of the shape
        for _ in range(r.randint(0, 3)):
            a, b = r.choice(rows), r.choice(rows)
            f = rand_fraction(r)
            rows.append({c: a.get(c, 0) + f * b.get(c, 0) for c in set(a) | set(b)})
        r.shuffle(rows)
        dense = sympy.Matrix([[sympy.Rational(row.get(c, 0)) for c in range(ncols)]
                              for row in rows])
        assert rank(rows) == dense.rank()


def _rank_case(r, nfree, ncols, nplant, density, entry):
    """nfree seeded rows, nplant combinations of two of them and two zero
    rows, shuffled."""
    rows = [{c: entry() for c in range(ncols) if r.random() < density}
            for _ in range(nfree)]
    for _ in range(nplant):
        a, b = r.choice(rows), r.choice(rows)
        f, g = entry(), entry()
        rows.append({c: f * a.get(c, 0) + g * b.get(c, 0) for c in set(a) | set(b)})
    rows += [{}, {c: 0 for c in range(0, ncols, 3)}]
    r.shuffle(rows)
    return rows


@pytest.mark.parametrize("seed, kind, shape", [
    (1, "int", "sparse"), (2, "int", "dense"), (3, "fraction", "sparse"),
    (4, "fraction", "dense"), (5, "big", "sparse"), (6, "big", "dense")])
def test_rank_matches_oracle_and_sympy(seed, kind, shape):
    """The fraction-free rank against the Fraction elimination and sympy's
    rank over QQ (Matrix.rank takes minutes at 40 x 40 with 10^30 entries),
    on int rows, Fraction rows and rows with entries around 10^30; the dense
    40 x 40 cases have 30 free rows, so their rank falls short."""
    r = rng(seed)
    entry = {"int": lambda: r.randint(-9, 9),
             "fraction": lambda: Fraction(r.randint(-9, 9), r.choice([1, 2, 3, 7])),
             "big": lambda: r.randint(-10 ** 30, 10 ** 30)}[kind]
    if shape == "dense":
        cases = [_rank_case(r, 30, 40, 8, 1.0, entry)]
    else:
        cases = [_rank_case(r, r.randint(1, 12), r.randint(1, 15), r.randint(0, 4), 0.3, entry)
                 for _ in range(10)]
    for rows in cases:
        ncols = 1 + max((c for row in rows for c in row), default=0)
        dense = DomainMatrix([[sympy.QQ(row.get(c, 0)) for c in range(ncols)]
                              for row in rows], (len(rows), ncols), sympy.QQ)
        assert rank(rows) == oracle_rank(rows) == dense.rank()


# -- the Der-complex ---------------------------------------------------------


def test_der_degree_zero_differential():
    # n = m = 1: d(x1*e1) is (e1, x1*e1) on (nabla, E)
    x1 = PolyVec(1, [Poly.var(1, 1)])
    dw = dense_ce_differential(der_differential(1, 1, 1), 0, {(): der_vector(x1, 1)})
    assert dw == {(0,): der_vector(PolyVec(1, [Poly.one(1)]), 1),
                  (1,): der_vector(x1, 1)}


def test_der_degree_one_formula():
    # w(nabla) = f, w(E) = g: (dw)(nabla, E) = g' - f
    f = Poly(1, {(2,): 1})
    g = Poly(1, {(3,): 1})
    w = {(0,): der_vector(PolyVec(1, [f]), 3), (1,): der_vector(PolyVec(1, [g]), 3)}
    dw = dense_ce_differential(der_differential(1, 1, 3), 1, w)
    assert dw[(0, 1)] == der_vector(PolyVec(1, [g.partial(1) - f]), 3)


def test_der_dd_zero_random():
    r = rng(3)
    for _ in range(60):
        n, m = r.randint(1, 2), r.randint(1, 2)
        k = r.randint(0, 2)
        l = der_differential(n, m, 2)
        w = rand_cochain(r, l, k)
        assert dense_ce_differential(l, k + 1, dense_ce_differential(l, k, w)) == {}


def test_der_differential_preserves_coefficient_degree():
    # every rho maps the coefficient-degree <= D' truncation into itself
    maxdeg = 3
    for n, m in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        l = der_differential(n, m, maxdeg)
        degree = [sum(mu) for mu in monomials_up_to(n, maxdeg)] * m
        for low in range(maxdeg + 1):
            for mat in l.rho:
                for a, b in itertools.product(range(l.d1), repeat=2):
                    if mat[a][b] and degree[b] <= low:
                        assert degree[a] <= low


def test_der_data_is_a_lie_algebra_representation():
    for size in [(1, 1, 0), (1, 1, 3), (2, 1, 2), (3, 1, 1), (1, 2, 1),
                 (2, 2, 1), (1, 3, 0)]:
        assert diolic_lie_check(der_differential(*size)), size


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


def test_der_cohomology_vanishes_by_central_character():
    # sum_a E^{aa} is central and acts by 1, so it kills all cohomology
    for n, m, d in [(3, 2, 1), (3, 2, 2), (1, 3, 0), (1, 3, 1)]:
        assert der_cohomology_truncated(n, m, d) == [0] * (n + m * m + 1)


def test_der_cohomology_resource_guard():
    # max cochain dimension 97,020
    with pytest.raises(ResourceCapError):
        der_cohomology_truncated(3, 3, 4)


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


def test_lie_product_count_is_the_dense_formula():
    # each product of the sparse check pairs two nonzero entries: c c for
    # the Jacobiators, c rho and rho rho for the representation defects
    r = rng(13)
    for _ in range(40):
        dim, d1 = r.randint(1, 5), r.randint(1, 4)
        c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j in itertools.combinations(range(dim), 2):
            for k in range(dim):
                c[i][j][k] = r.choice([0, 0, 1, -2])
                c[j][i][k] = -c[i][j][k]
        rho = [[[r.choice([0, 0, 1, 3]) for _ in range(d1)] for _ in range(d1)]
               for _ in range(dim)]
        l = CEData(dim, c, d1, rho)
        nz = lambda v: 1 if v else 0  # noqa: E731
        want = sum(nz(c[u][v][t]) * nz(c[t][w][s])
                   for i, j, k in itertools.combinations(range(dim), 3)
                   for u, v, w in ((i, j, k), (j, k, i), (k, i, j))
                   for t in range(dim) for s in range(dim))
        want += sum(nz(c[i][j][k]) * nz(rho[k][a][b])
                    for i, j in itertools.combinations(range(dim), 2)
                    for k in range(dim) for a in range(d1) for b in range(d1))
        want += sum(nz(rho[i][a][t]) * nz(rho[j][t][b]) + nz(rho[j][a][t]) * nz(rho[i][t][b])
                    for i, j in itertools.combinations(range(dim), 2)
                    for a in range(d1) for t in range(d1) for b in range(d1))
        pairs = [[[(t, v) for t, v in enumerate(c[i][j]) if v] for j in range(dim)]
                 for i in range(dim)]
        assert _lie_products(l, pairs) == want


def test_ce_differential_abelian_trivial_is_zero():
    l = abelian2_trivial()
    tau = {(0,): [Fraction(1)], (1,): [Fraction(2)]}
    assert dense_ce_differential(l, 1, tau) == {}


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
            for idx in itertools.combinations(range(l.r), p):
                tau[idx] = [Fraction(r.randint(-3, 3)) for _ in range(l.d1)]
            once = dense_ce_differential(l, p, tau)
            twice = dense_ce_differential(l, p + 1, once)
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
    l = CEData(doc["dim"], doc["c"], doc["rep_dim"], doc["rho"])
    # the weight-0 assembly finds d leaving the weight-0 subcomplex first
    with pytest.raises(ValueError, match="d o d != 0"):
        ce_cohomology(l)
    with pytest.raises(ValueError, match="negative Betti"):
        oracle_ce_cohomology(l)


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


def test_cedata_stores_rationals_as_poly_does():
    l = CEData(1, [[[Fraction(0)]]], 1, [[[Fraction(4, 2)]]])
    assert type(l.rho[0][0][0]) is int and l.rho[0][0][0] == 2
    assert CEData(1, [[[0]]], 1, [[[Fraction(1, 3)]]]).rho[0][0][0] == Fraction(1, 3)
    for bad in (0.1, True, "1/2"):
        with pytest.raises(ValueError):
            CEData(1, [[[0]]], 1, [[[bad]]])
    with pytest.raises(ValueError):
        CEData(1, [[[0.0]]], 1, [[[0]]])


# -- the weight-0 subcomplex and the sparse check against their oracles ------

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


def _load_families():
    """perfbench/families.py, loaded from its file: the Lie algebra data of
    the cohomology benchmark, with Betti numbers known by hand."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "families.py")
    spec = importlib.util.spec_from_file_location("perfbench_families", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


families = _load_families()
LIE_FAMILIES = families.lie_families()


def ce_data(c, rho):
    return CEData(len(c), c, len(rho[0]), rho)


def shipped_ce():
    with open(os.path.join(PROBLEMS, "manifest.json")) as fh:
        names = sorted(json.load(fh))
    out = []
    for name in names:
        with open(os.path.join(PROBLEMS, name)) as fh:
            doc = json.load(fh)
        if doc["kind"] == "ce":
            out.append(pytest.param(
                CEData(doc["dim"], doc["c"], doc["rep_dim"], doc["rho"]), id=name))
    return out


def so3_real():
    """[e1, e2] = e3, [e2, e3] = e1, [e3, e1] = e2: no generator acts
    diagonally, so the weight-0 subcomplex is the whole complex."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i][j][k], c[j][i][k] = 1, -1
    return c


def perturbations(c, rho):
    """Every single-entry change by +1 of c (with its antisymmetric partner)
    and of rho."""
    r, d1 = len(c), len(rho[0])
    for i, j in itertools.combinations(range(r), 2):
        for k in range(r):
            c2 = [[list(row) for row in block] for block in c]
            c2[i][j][k] += 1
            c2[j][i][k] -= 1
            yield c2, rho
    for i in range(r):
        for a, b in itertools.product(range(d1), repeat=2):
            rho2 = [[list(row) for row in mat] for mat in rho]
            rho2[i][a][b] += 1
            yield c, rho2


@pytest.mark.parametrize("l", shipped_ce())
def test_shipped_ce_residuals_match_oracle(l):
    assert diolic_lie_residuals(l) == oracle_diolic_lie_residuals(l)


def halved(c, rho):
    """The data in the basis e_i / 2 of g0: c and rho scale by 1/2."""
    half = Fraction(1, 2)
    return ([[[v * half for v in row] for row in block] for block in c],
            [[[v * half for v in row] for row in mat] for mat in rho])


@pytest.mark.parametrize("index", range(len(LIE_FAMILIES)))
def test_halved_family_betti_match_oracle(index):
    c, rho, betti = LIE_FAMILIES[index]
    l = ce_data(*halved(c, rho))
    assert ce_cohomology(l) == oracle_ce_cohomology(l) == betti


def test_halved_sl2_residuals_match_oracle():
    texts = []
    for c, rho in perturbations(*halved(SL2_C, SL2_AD)):
        l = ce_data(c, rho)
        residuals = diolic_lie_residuals(l)
        assert residuals == oracle_diolic_lie_residuals(l)
        texts += [text for _, text in residuals]
    assert any("/" in text for text in texts)


@pytest.mark.parametrize("index", range(len(LIE_FAMILIES)))
def test_perturbed_family_residuals_match_oracle(index):
    c, rho, _ = LIE_FAMILIES[index]
    for c2, rho2 in perturbations(c, rho):
        l = ce_data(c2, rho2)
        assert diolic_lie_residuals(l) == oracle_diolic_lie_residuals(l)


def test_so3_real_form_residuals_match_oracle():
    c = so3_real()
    for c2, rho2 in itertools.chain([(c, families.adjoint(c))],
                                    perturbations(c, families.adjoint(c))):
        l = ce_data(c2, rho2)
        assert diolic_lie_residuals(l) == oracle_diolic_lie_residuals(l)


@pytest.mark.parametrize("index", range(len(LIE_FAMILIES)))
def test_family_betti_match_oracle(index):
    c, rho, betti = LIE_FAMILIES[index]
    r = random.Random(index)
    for c2, rho2 in [(c, rho)] + [families.move_lie(c, rho, r) for _ in range(3)]:
        l = ce_data(c2, rho2)
        assert ce_cohomology(l) == oracle_ce_cohomology(l) == betti


@pytest.mark.parametrize("rho, betti", [
    (families.adjoint(so3_real()), [0, 0, 0, 0]),
    ([[[0]]] * 3, [1, 0, 0, 1])], ids=["adjoint", "trivial"])
def test_torus_free_betti_match_oracle(rho, betti):
    l = ce_data(so3_real(), rho)
    assert [len(basis) for basis in _weight0_bases(l)] == ce_cochain_dimensions(l)
    assert ce_cohomology(l) == oracle_ce_cohomology(l) == betti


@pytest.mark.parametrize("deg", range(9))
def test_so3_polynomial_rep_betti_match_oracle(deg):
    """Real so(3) on the degree-deg polynomials in x, y, z: torus-free,
    sparse, d1 >> r; the invariants (x^2 + y^2 + z^2)^(deg/2) exist in even
    degree only."""
    l = ce_data(*so3_poly_rep(deg))
    assert diolic_lie_check(l)
    assert [len(basis) for basis in _weight0_bases(l)] == ce_cochain_dimensions(l)
    betti = [1, 0, 0, 1] if deg % 2 == 0 else [0, 0, 0, 0]
    assert ce_cohomology(l) == oracle_ce_cohomology(l) == betti


def sparse_rows(tensor):
    return [[{k: v for k, v in enumerate(row) if v} for row in block] for block in tensor]


def test_sparse_and_dense_constructors_agree():
    cases = [(c, rho) for c, rho, _ in LIE_FAMILIES] + [
        so3_poly_rep(3), halved(SL2_C, SL2_AD), (so3_real(), families.adjoint(so3_real()))]
    for c, rho in cases:
        dense = ce_data(c, rho)
        sparse = CEData.sparse(len(c), sparse_rows(c), len(rho[0]), sparse_rows(rho))
        assert dense.c == sparse.c == tuple(tuple(map(tuple, block)) for block in c)
        assert dense.rho == sparse.rho == tuple(tuple(map(tuple, mat)) for mat in rho)
        assert (dense._cols, dense._brackets) == (sparse._cols, sparse._brackets)
    with pytest.raises(ValueError, match="antisymmetric"):
        CEData.sparse(2, [[{}, {0: 1}], [{}, {}]], 1, [[{}], [{}]])
    with pytest.raises(ValueError, match="r matrices"):
        CEData.sparse(1, [[{}]], 2, [[{}]])


def test_ce_cohomology_calls_ce_differential_by_module_name(monkeypatch):
    """The benchmark's per-layer rows for the CE layer wrap the module
    global complexes.ce_differential; ce_cohomology must reach it there."""
    calls = []
    original = complexes.ce_differential

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(complexes, "ce_differential", counted)
    assert ce_cohomology(sl2_adjoint()) == [0, 0, 0, 0]
    assert calls and set(calls) <= {0, 1, 2}


@pytest.mark.parametrize("size", [(1, 1, 3), (2, 1, 2), (1, 2, 1), (2, 2, 1), (1, 3, 0)])
def test_der_betti_match_oracle(size):
    l = der_differential(*size)
    assert ce_cohomology(l) == oracle_ce_cohomology(l) == [0] * (l.r + 1)


def test_weight0_dims():
    # gl(2) adjoint: E11 and E22 are diagonal
    c, rho, _ = LIE_FAMILIES[5]
    assert [len(basis) for basis in _weight0_bases(ce_data(c, rho))] == [2, 6, 8, 6, 2]
    # every basis cochain of the Der data has weight 1 under sum_a E^{aa}
    for size in [(3, 3, 1), (2, 3, 2), (1, 3, 1)]:
        assert not any(_weight0_bases(der_differential(*size)))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_betti_invariant_under_signed_permutations(data):
    """A permutation with signs of the basis of g0 and of g1 is an
    isomorphism of CE data; the Betti numbers do not change."""
    c, rho, betti = data.draw(st.sampled_from(LIE_FAMILIES + [
        (so3_real(), families.adjoint(so3_real()), [0, 0, 0, 0])]))
    r, d1 = len(c), len(rho[0])
    perm = data.draw(st.permutations(range(r)))
    mperm = data.draw(st.permutations(range(d1)))
    s = data.draw(st.lists(st.sampled_from([1, -1]), min_size=r, max_size=r))
    t = data.draw(st.lists(st.sampled_from([1, -1]), min_size=d1, max_size=d1))
    # new e_i = s_i e_perm(i) and new v_a = t_a v_mperm(a)
    c2 = [[[c[perm[i]][perm[j]][perm[k]] * s[i] * s[j] * s[k] for k in range(r)]
           for j in range(r)] for i in range(r)]
    rho2 = [[[rho[perm[i]][mperm[a]][mperm[b]] * s[i] * t[a] * t[b] for b in range(d1)]
             for a in range(d1)] for i in range(r)]
    l = ce_data(c2, rho2)
    assert diolic_lie_check(l)
    assert ce_cohomology(l) == betti

