import pytest

from diolic.poly import DiolicElement, Poly, PolyMat, PolyVec, monomials_up_to
from diolic.ops import MatrixOp, RouteError, ScalarOp
from diolic.diffops import (DiffOp0, DiffOp1, DiffOpNeg1, atiyah_project,
                            atiyah_split, beta_diff, check_k_connection,
                            graded_commutator_diff, verify_diolic_diffop)

from helpers import (oracle_verify_diolic_diffop, rng, rand_diffop0,
                     rand_diffop1, rand_diffopneg1, rand_poly, rand_poly_vec,
                     rand_scalar_op, rand_matrix_op)


def test_apply_example():
    n, m = 2, 2
    b = DiffOp0(2, ScalarOp(n, {(2, 0): Poly.one(n)}), MatrixOp.zero(n, m))
    e = DiolicElement(Poly(n, {(2, 0): 1}),
                      Poly.var(n, 1) * PolyVec.basis(n, m, 0))
    got = b(e)
    assert got.a == Poly.const(n, 2)
    assert got.p.is_zero()


def test_apply_order_zero_is_module_action():
    n, m = 2, 2
    a = rand_poly(rng(3), n, 2)
    b = DiffOp0(0, ScalarOp.mult(a), MatrixOp.zero(n, m))
    e = DiolicElement(Poly.var(n, 1), rand_poly_vec(rng(5), n, m, 2))
    assert b(e) == DiolicElement(a * e.a, a * e.p)


def test_matrix_only_operator():
    n, m = 2, 2
    mat = rand_matrix_op(rng(7), n, m, 0)
    b = DiffOp0(1, ScalarOp.zero(n), mat)
    e = DiolicElement(Poly.var(n, 1), rand_poly_vec(rng(9), n, m, 2))
    assert b(e) == DiolicElement(Poly.zero(n), mat @ e.p)


def test_verify_diolic_diffop_examples():
    n, m = 2, 2
    box = ScalarOp(n, {(2, 0): Poly.one(n)})
    good = MatrixOp.scalar_times_identity(box, m) + MatrixOp(
        n, [[ScalarOp.zero(n), ScalarOp.mult(Poly.var(n, 1))],
            [ScalarOp.zero(n), ScalarOp.zero(n)]])
    assert verify_diolic_diffop(box, good, 2)
    bad = MatrixOp.scalar_times_identity(ScalarOp.partial(n, 2), 1)
    assert not verify_diolic_diffop(ScalarOp.partial(n, 1), bad, 1)
    a = rand_poly(rng(11), n, 2)
    assert verify_diolic_diffop(ScalarOp.mult(a),
                                MatrixOp.scalar_times_identity(ScalarOp.mult(a), m), 0)


def test_from_pair_rejects_bad_pairs():
    n = 2
    with pytest.raises(ValueError):
        DiffOp0.from_pair(ScalarOp.partial(n, 1),
                          MatrixOp.scalar_times_identity(ScalarOp.partial(n, 2), 1), 1)


def test_every_diffop_passes_own_verification():
    r = rng(13)
    for _ in range(20):
        n, m, k = r.randint(1, 2), r.randint(1, 2), r.randint(0, 3)
        b = rand_diffop0(r, n, m, k)
        assert verify_diolic_diffop(b.boxA, b.boxP(), k)


def _raw_pair(r, n, m, k):
    """A raw pair (boxA, boxP) at order k: boxA*I plus a matrix part of
    order <= k-1 (valid), of order <= k (mostly invalid), or with a part
    one order too high (rejected before any nest)."""
    box = rand_scalar_op(r, n, k)
    kind = r.choice(["valid", "valid", "top", "high"])
    if kind == "valid":
        extra = rand_matrix_op(r, n, m, k - 1) if k else MatrixOp.zero(n, m)
    elif kind == "top":
        extra = rand_matrix_op(r, n, m, k)
    else:
        extra = MatrixOp.zero(n, m)
        if r.random() < 0.5:
            box = box + ScalarOp.partial_sigma(n, (k + 1,) + (0,) * (n - 1))
        else:
            extra = rand_matrix_op(r, n, m, k + 1)
    return box, MatrixOp.scalar_times_identity(box, m) + extra


def test_verify_diolic_diffop_matches_diagonal_nest_oracle():
    r = rng(29)
    verdicts = []
    for _ in range(120):
        n, m, k = r.randint(1, 2), r.randint(1, 2), r.randint(0, 3)
        box, boxp = _raw_pair(r, n, m, k)
        verdict = verify_diolic_diffop(box, boxp, k)
        assert verdict == oracle_verify_diolic_diffop(box, boxp, k)
        verdicts.append(verdict)
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30


def test_commutator_degree_01_example():
    # m=1: [DiffOp0(d1^2, 0), DiffOp1(x1 d1)] = DiffOp1(2 d1^2)
    n, m = 1, 1
    b0 = DiffOp0(2, ScalarOp(n, {(2,): Poly.one(n)}), MatrixOp.zero(n, m))
    b1 = DiffOp1(1, [ScalarOp(n, {(1,): Poly.var(n, 1)})])
    got = graded_commutator_diff(b0, b1)
    assert got == DiffOp1(2, [ScalarOp(n, {(2,): Poly.const(n, 2)})])
    assert got.k == 2


def test_commutator_skew_and_trivial_degrees():
    r = rng(17)
    b = rand_diffop0(r, 2, 2, 2)
    assert graded_commutator_diff(b, b).is_zero()
    u = rand_diffop1(r, 2, 2, 1)
    v = rand_diffop1(r, 2, 2, 2)
    assert graded_commutator_diff(u, v) == 0


def test_commutator_order_bounds_random():
    r = rng(19)
    for _ in range(40):
        n, m = r.randint(1, 2), r.randint(1, 2)
        k, l = r.randint(0, 3), r.randint(0, 3)
        b1, b2 = rand_diffop0(r, n, m, k), rand_diffop0(r, n, m, l)
        out = graded_commutator_diff(b1, b2)
        # the zero operator reports order -1
        assert out.boxA.order() <= max(k + l - 1, -1)
        assert out.M.order() <= max(k + l - 2, -1)


def test_commutator_degree_neg1_cases():
    r = rng(23)
    n = 1
    b0 = rand_diffop0(r, n, 1, 2)
    bn = rand_diffopneg1(r, n, 1)
    b1d = rand_diffop1(r, n, 1, 1)
    out = graded_commutator_diff(b0, bn)
    assert isinstance(out, DiffOpNeg1)
    # compose-and-subtract directly: boxA o op - op o boxP
    want = b0.boxA @ bn.op - bn.op @ b0.boxP().entries[0][0]
    assert out.op == want
    assert graded_commutator_diff(bn, b0).op == -want
    for _ in range(10):
        n, k, l = r.randint(1, 2), r.randint(1, 3), r.randint(0, 2)
        b0, bn = rand_diffop0(r, n, 1, k), rand_diffopneg1(r, n, l)
        want = b0.boxA @ bn.op - bn.op @ b0.boxP().entries[0][0]
        for out, sign in ((graded_commutator_diff(b0, bn), 1),
                          (graded_commutator_diff(bn, b0), -1)):
            assert isinstance(out, DiffOpNeg1)
            assert out.k == max(k + l - 1, 0)
            assert out.op == sign * want
    mixed = graded_commutator_diff(b1d, bn)
    assert isinstance(mixed, DiffOp0)
    assert mixed.boxA == bn.op @ b1d.ops[0]
    assert mixed.boxP().entries[0][0] == b1d.ops[0] @ bn.op
    assert graded_commutator_diff(bn, bn) == 0


def test_commutator_degree_neg1_is_verified(monkeypatch):
    """Both orders of (0, -1) check the split formula against compose-and-subtract."""
    r = rng(31)
    b0, bn = rand_diffop0(r, 1, 1, 2), rand_diffopneg1(r, 1, 1)
    shifted = MatrixOp(1, [[b0.boxP().entries[0][0] + ScalarOp.partial(1, 1)]])
    monkeypatch.setattr(DiffOp0, "boxP", lambda self: shifted)
    for pair in ((b0, bn), (bn, b0)):
        with pytest.raises(RouteError, match="DiffOp0/DiffOpNeg1"):
            graded_commutator_diff(*pair)


def _deg(b):
    if isinstance(b, DiffOp0):
        return 0
    return 1 if isinstance(b, DiffOp1) else -1


def test_graded_jacobi_001_random():
    r = rng(29)
    for _ in range(30):
        n, m = r.randint(1, 2), r.randint(1, 2)
        a = rand_diffop0(r, n, m, r.randint(0, 2))
        b = rand_diffop0(r, n, m, r.randint(0, 2))
        c = rand_diffop1(r, n, m, r.randint(0, 2))
        lhs = graded_commutator_diff(a, graded_commutator_diff(b, c))
        rhs = (graded_commutator_diff(graded_commutator_diff(a, b), c)
               + graded_commutator_diff(b, graded_commutator_diff(a, c)))
        assert lhs == rhs


def test_atiyah_projection_and_split():
    r = rng(31)
    n, m = 2, 2
    b = rand_diffop0(r, n, m, 2)
    assert atiyah_project(b) == b.boxA
    box = rand_scalar_op(r, n, 2)
    assert atiyah_project(atiyah_split(box, 2, m)) == box
    with pytest.raises(ValueError):
        atiyah_split(ScalarOp.partial_sigma(n, (3, 0)), 2, m)


def test_atiyah_split_is_a_linear():
    r = rng(37)
    n, m = 2, 2
    a = rand_poly(r, n, 2)
    box = rand_scalar_op(r, n, 2)
    assert atiyah_split(a * box, 2, m) == a * atiyah_split(box, 2, m)


def test_atiyah_kernel_is_lower_order_matrix():
    r = rng(41)
    n, m, k = 2, 2, 2
    mat = rand_matrix_op(r, n, m, k - 1)
    kernel_elt = DiffOp0(k, ScalarOp.zero(n), mat)
    assert atiyah_project(kernel_elt).is_zero()
    assert kernel_elt.M.order() <= k - 1
    # uniqueness: the matrix part is exactly the stored operator
    assert kernel_elt.boxP() == mat


def test_exactness_at_desk_scale():
    # every scalar operator of order <= k lifts, and a kernel element is
    # recovered from its matrix part alone
    r = rng(43)
    n, m, k = 2, 2, 3
    for _ in range(10):
        box = rand_scalar_op(r, n, k)
        lift = atiyah_split(box, k, m)
        assert atiyah_project(lift) == box
        ker = lift - lift
        assert ker.boxA.is_zero() and ker.M.is_zero()


def test_order_filtration_embedding_commutes():
    r = rng(47)
    for _ in range(15):
        n, m = r.randint(1, 2), r.randint(1, 2)
        b1 = rand_diffop0(r, n, m, 1)
        b2 = rand_diffop0(r, n, m, 2)
        small = graded_commutator_diff(b1, b2)
        big = graded_commutator_diff(b1.embed(3), b2.embed(4))
        assert small == big
        assert big.k >= small.k


def test_beta_diff_examples():
    n, m = 2, 2
    b = DiffOp0(2, ScalarOp(n, {(2, 0): Poly.one(n)}), MatrixOp.zero(n, m))
    out = beta_diff(PolyVec.basis(n, m, 0), b)
    assert out.ops[0] == b.boxA and out.ops[1].is_zero()
    assert beta_diff(PolyVec.zero(n, m), b).is_zero()
    a = rand_poly(rng(53), n, 2)
    p = rand_poly_vec(rng(54), n, m, 2)
    assert beta_diff(a * p, b) == a * beta_diff(p, b)
    # order preserved and action matches a -> boxA(a) p on monomials
    for sigma in monomials_up_to(n, 2):
        probe = Poly.monomial(n, sigma)
        assert beta_diff(p, b)(probe) == b.boxA(probe) * p


def _diag_connection(n, m, k, shifts=()):
    table = {}
    for sigma in monomials_up_to(n, k):
        if sum(sigma) == 0:
            continue
        box = ScalarOp.partial_sigma(n, sigma)
        mat = MatrixOp.zero(n, m)
        for s, extra in shifts:
            if s == sigma:
                mat = mat + extra
        table[sigma] = DiffOp0(k, box, mat)
    return table


def test_k_connection_diagonal():
    for k in (1, 2, 3):
        table = _diag_connection(2, 2, k)
        assert check_k_connection(table, k, 2, 2)


def test_k_connection_allows_kernel_shift():
    n, m, k = 2, 2, 2
    shift = MatrixOp.from_polymat(PolyMat.unit(n, m, 0, 1))
    table = _diag_connection(n, m, k, shifts=[((1, 0), shift)])
    assert check_k_connection(table, k, n, m)


def test_k_connection_rejects_wrong_section():
    n, m, k = 2, 1, 1
    table = _diag_connection(n, m, k)
    table[(1, 0)] = DiffOp0(k, ScalarOp.partial(n, 2), MatrixOp.zero(n, m))
    assert not check_k_connection(table, k, n, m)


def test_k_connection_missing_generator():
    table = _diag_connection(2, 1, 2)
    del table[(1, 1)]
    with pytest.raises(ValueError, match="missing generator"):
        check_k_connection(table, 2, 2, 1)


def test_diffopneg1_requires_rank_one():
    with pytest.raises(ValueError):
        DiffOpNeg1(1, ScalarOp.partial(2, 1), m=2)
    b = DiffOpNeg1(1, ScalarOp.partial(1, 1), m=1)
    assert b(PolyVec(1, [Poly(1, {(2,): 1})])) == Poly(1, {(1,): 2})
