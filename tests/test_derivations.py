import pytest

from diolic.poly import DiolicElement, Poly, PolyMat, PolyVec, monomials_up_to
from diolic.ops import ScalarOp, VectorField
from diolic.derivations import (Der0, Der1, DerNeg1, TruncatedDiolicModule, artificial_der,
                                check_phi_der, der0_split,
                                graded_commutator_der, p_action,
                                rank_one_obstruction, symbol_sigma,
                                tensor_basis, hom_basis, wedge_basis)

from helpers import (rng, rand_der0, rand_der1, rand_derneg1,
                     rand_diolic_element, rand_poly, rand_poly_vec,
                     rand_poly_mat, rand_vector_field)


def test_diolic_product_law():
    n, m = 2, 2
    r = rng(3)
    e1 = rand_diolic_element(r, n, m)
    e2 = rand_diolic_element(r, n, m)
    prod = e1 * e2
    assert prod.a == e1.a * e2.a
    assert prod.p == e1.a * e2.p + e2.a * e1.p


def test_der0_apply_example():
    n, m = 2, 2
    d = Der0(VectorField.coordinate(n, 1), PolyMat.zero(n, m))
    e = DiolicElement(Poly.var(n, 1), PolyVec(n, [Poly.var(n, 1), Poly.zero(n)]))
    got = d(e)
    assert got.a == Poly.one(n)
    assert got.p == PolyVec(n, [Poly.one(n), Poly.zero(n)])


def test_der0_identity_endomorphism():
    n, m = 2, 2
    d = Der0(VectorField.zero(n), PolyMat.identity(n, m))
    p = rand_poly_vec(rng(5), n, m, 2)
    assert d(DiolicElement.from_p(p)) == DiolicElement.from_p(p)


def test_der0_graded_leibniz_random():
    r = rng(7)
    for _ in range(30):
        n, m = r.randint(1, 2), r.randint(1, 2)
        d = rand_der0(r, n, m)
        e, f = rand_diolic_element(r, n, m), rand_diolic_element(r, n, m)
        assert d(e * f) == d(e) * f + e * d(f)


def test_der1_apply_examples():
    n, m = 2, 2
    z = Der1([VectorField.coordinate(n, 1), VectorField.coordinate(n, 2)])
    a = Poly.var(n, 1) * Poly.var(n, 2)
    assert z(a) == PolyVec(n, [Poly.var(n, 2), Poly.var(n, 1)])
    assert z(Poly.const(n, 5)).is_zero()
    b = rand_poly(rng(9), n, 2)
    assert z(a + b) == z(a) + z(b)


def test_der1_graded_leibniz_random():
    r = rng(11)
    for _ in range(30):
        n, m = r.randint(1, 2), r.randint(1, 2)
        z = rand_der1(r, n, m)
        a, b = rand_poly(r, n, 2), rand_poly(r, n, 2)
        # plain Leibniz on degree-0 arguments
        assert z(a * b) == b * z(a) + a * z(b)
        # a degree-0 times degree-1 product lands in the trivial degree 2
        p = rand_poly_vec(r, n, m, 2)
        assert z(DiolicElement.from_a(a, m) * DiolicElement.from_p(p)).is_zero()


def test_commutator_der0_der0_example():
    n, m = 1, 1
    d1 = Der0(VectorField.coordinate(n, 1), PolyMat.zero(n, m))
    d2 = Der0(VectorField(n, [Poly.var(n, 1)]), PolyMat.zero(n, m))
    got = graded_commutator_der(d1, d2)
    assert got == Der0(VectorField.coordinate(n, 1), PolyMat.zero(n, m))


def test_commutator_der1_der1_is_zero():
    r = rng(13)
    z1, z2 = rand_der1(r, 2, 2), rand_der1(r, 2, 2)
    assert graded_commutator_der(z1, z2) == 0


def test_commutator_mixed_example():
    # m=1, n=2: [(d1, g), Z=(x2 d1)] has component g*x2*d1 since [d1, x2 d1] = 0
    n, m = 2, 1
    g = rand_poly(rng(17), n, 2)
    d = Der0(VectorField.coordinate(n, 1), PolyMat(n, [[g]]))
    z = Der1([VectorField(n, [Poly.var(n, 2), Poly.zero(n)])])
    got = graded_commutator_der(d, z)
    want = Der1([VectorField(n, [g * Poly.var(n, 2), Poly.zero(n)])])
    assert got == want


def test_commutator_degree_neg1_cases():
    n = 1
    r = rng(19)
    d0 = rand_der0(r, n, 1)
    phi = rand_derneg1(r, n)
    z = rand_der1(r, n, 1)
    out = graded_commutator_der(d0, phi)
    assert isinstance(out, DerNeg1)
    assert graded_commutator_der(phi, d0) == -out
    mix = graded_commutator_der(phi, z)
    assert isinstance(mix, Der0)
    assert graded_commutator_der(z, phi) == mix
    assert graded_commutator_der(phi, phi) == 0


def test_graded_skew_symmetry():
    r = rng(23)
    for _ in range(20):
        n, m = r.randint(1, 2), r.randint(1, 2)
        d1, d2 = rand_der0(r, n, m), rand_der0(r, n, m)
        z = rand_der1(r, n, m)
        assert graded_commutator_der(d1, d2) == -graded_commutator_der(d2, d1)
        lhs = graded_commutator_der(d1, z)
        assert lhs == -graded_commutator_der(z, d1)


def _deg(x):
    if isinstance(x, Der0):
        return 0
    if isinstance(x, Der1):
        return 1
    return -1


def _bk(a, b):
    if a == 0 or b == 0:
        return 0
    return graded_commutator_der(a, b)


def _add(a, b):
    if a == 0:
        return b
    if b == 0:
        return a
    return a + b


def _neg(a):
    return 0 if a == 0 else -a


def _is_zero(a):
    return a == 0 or a.is_zero()


def test_graded_jacobi_identity_random():
    r = rng(29)
    for _ in range(60):
        m = r.randint(1, 2)
        n = r.randint(1, 2)
        choices = [lambda: rand_der0(r, n, m), lambda: rand_der1(r, n, m)]
        if m == 1:
            choices.append(lambda: rand_derneg1(r, n))
        a, b, c = (r.choice(choices)() for _ in range(3))
        # [[a, [b, c]]] = [[[a, b], c]] + (-1)^(deg a deg b) [[b, [a, c]]]
        lhs = _bk(a, _bk(b, c))
        sign = (-1) ** (_deg(a) * _deg(b))
        rhs = _add(_bk(_bk(a, b), c),
                   _bk(b, _bk(a, c)) if sign > 0 else _neg(_bk(b, _bk(a, c))))
        assert _is_zero(_add(lhs, _neg(rhs)))


def test_symbol_sigma_morphism():
    r = rng(31)
    for _ in range(20):
        n, m = r.randint(1, 2), r.randint(1, 2)
        d1, d2 = rand_der0(r, n, m), rand_der0(r, n, m)
        assert symbol_sigma(d1) == d1.X
        assert symbol_sigma(der0_split(d1.X, m)) == d1.X
        got = symbol_sigma(graded_commutator_der(d1, d2))
        assert got == d1.X.bracket(d2.X)


def test_symbol_kernel_closed_under_bracket():
    r = rng(37)
    n, m = 2, 2
    g, h = rand_poly_mat(r, n, m, 2), rand_poly_mat(r, n, m, 2)
    k1 = Der0(VectorField.zero(n), g)
    k2 = Der0(VectorField.zero(n), h)
    got = graded_commutator_der(k1, k2)
    assert got.X.is_zero()
    assert got.G == g.commutator(h)


def test_derneg1_rejected_above_rank_one():
    with pytest.raises(ValueError):
        DerNeg1([Poly.var(1, 1), Poly.one(1)])


def test_rank_one_obstruction_witness():
    for m in (2, 3):
        forced = rank_one_obstruction(m)
        assert set(forced) == set(range(m))
        for comp, (alpha, beta, where) in forced.items():
            assert comp in (alpha, beta) and where in (alpha, beta)
    with pytest.raises(ValueError):
        rank_one_obstruction(1)


def test_p_action_examples():
    n, m = 2, 2
    d = Der0(VectorField.coordinate(n, 1), rand_poly_mat(rng(41), n, m, 2))
    e1 = PolyVec.basis(n, m, 0)
    z = p_action(e1, d)
    assert z(Poly.var(n, 1)) == e1
    assert p_action(PolyVec.zero(n, m), d).is_zero()
    a = rand_poly(rng(43), n, 2)
    p = rand_poly_vec(rng(44), n, m, 2)
    assert p_action(a * p, d) == a * p_action(p, d)
    # the defining relation (p . d)(b) = X(b) p on monomials
    for sigma in monomials_up_to(n, 2):
        b = Poly.monomial(n, sigma)
        assert p_action(p, d)(b) == d.X(b) * p


def test_artificial_sum():
    r = rng(47)
    n = 2
    x = rand_vector_field(r, n)
    d1 = Der0(x, rand_poly_mat(r, n, 2, 2))
    d2 = Der0(x, rand_poly_mat(r, n, 3, 2))
    out = artificial_der("sum", d1, d2)
    assert out.m == 5
    assert out.G == PolyMat.block_diag(d1.G, d2.G)
    assert symbol_sigma(out) == x
    # block action matches the componentwise definition
    p1 = rand_poly_vec(r, n, 2, 2)
    p2 = rand_poly_vec(r, n, 3, 2)
    joint = PolyVec(n, list(p1.comps) + list(p2.comps))
    got = out.apply_p(joint)
    assert list(got.comps) == list(d1.apply_p(p1).comps) + list(d2.apply_p(p2).comps)


def test_artificial_tensor_leibniz_on_basis():
    r = rng(53)
    n = 2
    x = rand_vector_field(r, n)
    d1 = Der0(x, rand_poly_mat(r, n, 2, 2))
    d2 = Der0(x, rand_poly_mat(r, n, 2, 2))
    out = artificial_der("tensor", d1, d2)
    basis = tensor_basis(2, 2)
    pos = {b: i for i, b in enumerate(basis)}
    for (gamma, delta) in basis:
        image = out.apply_p(PolyVec.basis(n, 4, pos[(gamma, delta)]))
        # expected: d1(e_gamma) (x) e_delta + e_gamma (x) d2(e_delta)
        want = [Poly.zero(n)] * 4
        for alpha in range(2):
            want[pos[(alpha, delta)]] = want[pos[(alpha, delta)]] + d1.G.rows[alpha][gamma]
        for beta in range(2):
            want[pos[(gamma, beta)]] = want[pos[(gamma, beta)]] + d2.G.rows[beta][delta]
        assert image == PolyVec(n, want)


def test_artificial_hom_on_identity():
    n = 2
    x = VectorField.coordinate(n, 1)
    d = der0_split(x, 2)
    out = artificial_der("hom", d, d)
    basis = hom_basis(2, 2)
    # the identity morphism has constant coefficients delta_{nu mu}
    ident = PolyVec(n, [Poly.one(n) if nu == mu else Poly.zero(n)
                        for (nu, mu) in basis])
    assert out.apply_p(ident).is_zero()


def test_artificial_hom_conjugation_rule():
    r = rng(59)
    n = 2
    x = rand_vector_field(r, n)
    d1 = Der0(x, rand_poly_mat(r, n, 2, 2))
    d2 = Der0(x, rand_poly_mat(r, n, 2, 2))
    out = artificial_der("hom", d1, d2)
    basis = hom_basis(2, 2)
    pos = {b: i for i, b in enumerate(basis)}
    for (beta, alpha) in basis:
        image = out.apply_p(PolyVec.basis(n, 4, pos[(beta, alpha)]))
        want = [Poly.zero(n)] * 4
        for nu in range(2):
            want[pos[(nu, alpha)]] = want[pos[(nu, alpha)]] + d2.G.rows[nu][beta]
        for mu in range(2):
            want[pos[(beta, mu)]] = want[pos[(beta, mu)]] - d1.G.rows[alpha][mu]
        assert image == PolyVec(n, want)


def test_artificial_wedge_and_sym_ranks_and_symbol():
    r = rng(61)
    n, m = 2, 3
    d = rand_der0(r, n, m)
    w = artificial_der("wedge", d, k=2)
    assert w.m == 3 and symbol_sigma(w) == d.X
    s = artificial_der("sym", d, k=2)
    assert s.m == 6 and symbol_sigma(s) == d.X


def test_artificial_wedge_leibniz_on_basis():
    r = rng(67)
    n, m = 2, 3
    d = rand_der0(r, n, m)
    out = artificial_der("wedge", d, k=2)
    basis = wedge_basis(m, 2)
    pos = {b: i for i, b in enumerate(basis)}
    for (i, j) in basis:
        image = out.apply_p(PolyVec.basis(n, 3, pos[(i, j)]))
        want = [Poly.zero(n)] * 3
        for mu in range(m):
            # d(e_i) ^ e_j
            if mu != j:
                key = (mu, j) if mu < j else (j, mu)
                sgn = 1 if mu < j else -1
                want[pos[key]] = want[pos[key]] + sgn * d.G.rows[mu][i]
            # e_i ^ d(e_j)
            if mu != i:
                key = (i, mu) if i < mu else (mu, i)
                sgn = 1 if i < mu else -1
                want[pos[key]] = want[pos[key]] + sgn * d.G.rows[mu][j]
        assert image == PolyVec(n, want)


def test_artificial_rejects_mismatched_symbols():
    r = rng(71)
    d1 = Der0(VectorField.coordinate(2, 1), rand_poly_mat(r, 2, 2, 1))
    d2 = Der0(VectorField.coordinate(2, 2), rand_poly_mat(r, 2, 2, 1))
    with pytest.raises(ValueError):
        artificial_der("tensor", d1, d2)
    with pytest.raises(ValueError):
        artificial_der("wedge", d1, k=5)


def test_check_phi_der_self_module():
    r = rng(73)
    n, m = 2, 2
    mod = TruncatedDiolicModule.self_module(n, m)
    d = rand_der0(r, n, m)
    xa = [d.X.to_scalar_op()]
    mop = d.as_diffop().boxP()
    xp = [[mop.entries[i][j] for j in range(m)] for i in range(m)]
    assert check_phi_der(mod, xa, xp)


def _wedge_module(n, m):
    # Q0 = one-forms on A (rank n), Q1 = P-valued one-forms (rank n*m),
    # phi(e_alpha (x) dx_i) = dx_i (x) e_alpha at slot i*m + alpha
    one, zero = Poly.one(n), Poly.zero(n)
    phi = [[[one if j == i * m + alpha else zero for j in range(n * m)]
            for i in range(n)] for alpha in range(m)]
    return TruncatedDiolicModule(n, m, n, n * m, phi)


def test_check_phi_der_covariant_differential():
    n, m = 2, 2
    mod = _wedge_module(n, m)
    xa = [ScalarOp.partial(n, i + 1) for i in range(n)]  # the universal differential
    zero = ScalarOp.zero(n)
    xp = [[ScalarOp.partial(n, i + 1) if alpha == beta else zero
           for beta in range(m)]
          for i in range(n) for alpha in [0, 1]]
    # row index is i*m + alpha; build accordingly
    xp = [[ScalarOp.partial(n, (row // m) + 1) if (row % m) == beta else zero
           for beta in range(m)] for row in range(n * m)]
    assert check_phi_der(mod, xa, xp)


def test_check_phi_der_detects_defect():
    n, m = 2, 2
    mod = _wedge_module(n, m)
    xa = [ScalarOp.partial(n, i + 1) for i in range(n)]
    zero = ScalarOp.zero(n)
    xp = [[ScalarOp.partial(n, (row // m) + 1) if (row % m) == beta else zero
           for beta in range(m)] for row in range(n * m)]
    # a stray first-order term not matched through the structure map
    xp[0][0] = xp[0][0] + ScalarOp.partial(n, 2)
    assert not check_phi_der(mod, xa, xp)


def test_check_phi_der_probes_up_to_the_order_of_xp():
    # XP = d^3 on P = A: the defect at a = x^3, p = e_1 is d^3(x^3) = 6,
    # and no monomial of degree <= 2 sees it
    mod = TruncatedDiolicModule.self_module(1, 1)
    assert not check_phi_der(mod, [ScalarOp.zero(1)], [[ScalarOp.partial_sigma(1, (3,))]])


def test_check_phi_der_rejects_non_derivation():
    n, m = 1, 1
    mod = TruncatedDiolicModule.self_module(n, m)
    with pytest.raises(ValueError):
        check_phi_der(mod, [ScalarOp.identity(n)], [[ScalarOp.identity(n)]])
