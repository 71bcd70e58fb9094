"""Graded derivations of the two-component algebra A (+) P.

The algebra has A = Q[x1..xn] in degree 0 and the free module P = A^m in
degree 1, with P*P = 0.  Its homogeneous derivations live in degrees
-1, 0, 1 only:

  * degree 0: pairs (X, G) acting as X on A and as X + G on P, the
    covariant-derivative-like operators ("X + G" in the fixed basis);
  * degree 1: P-valued derivations of A, an m-tuple of vector fields;
  * degree -1: A-linear functionals P -> A, which exist only when m = 1.

Every commutator computed from the split coordinate formulas is
re-verified here against compose-and-subtract of the underlying
operators; in normal form that comparison is an exact identity check.
"""

from __future__ import annotations

import itertools

from .poly import Poly, PolyMat, PolyVec, _Linear, monomials_up_to
from .ops import MatrixOp, RouteError, ScalarOp, VectorField


class DiolicElement(_Linear):
    """Homogeneous-or-mixed element (a, p) of A (+) P."""

    __slots__ = ("a", "p")

    def __init__(self, a, p):
        if not isinstance(a, Poly) or not isinstance(p, PolyVec) or a.n != p.n:
            raise ValueError("need (Poly, PolyVec) over the same variables")
        self.a = a
        self.p = p

    @classmethod
    def zero(cls, n, m):
        return cls(Poly.zero(n), PolyVec.zero(n, m))

    @classmethod
    def from_a(cls, a, m):
        return cls(a, PolyVec.zero(a.n, m))

    @classmethod
    def from_p(cls, p):
        return cls(Poly.zero(p.n), p)

    def _parts(self):
        return (self.a, self.p)

    def _rebuild(self, parts, other=None):
        return DiolicElement(*parts)

    def __mul__(self, other):
        if not isinstance(other, DiolicElement):
            return _Linear.__mul__(self, other)
        # (a, p)(b, q) = (ab, aq + bp); the P*P component is dropped
        return DiolicElement(self.a * other.a, self.a * other.p + other.a * self.p)

    def __str__(self):
        return "(%s | %s)" % (self.a, self.p)

    __repr__ = __str__


class Der0(_Linear):
    """Degree-0 derivation: X on A, X + G on P."""

    __slots__ = ("n", "m", "X", "G")

    def __init__(self, X, G):
        if not isinstance(X, VectorField) or not isinstance(G, PolyMat) or X.n != G.n:
            raise ValueError("need (VectorField, PolyMat) over the same variables")
        self.n = X.n
        self.m = G.m
        self.X = X
        self.G = G

    @classmethod
    def zero(cls, n, m):
        return cls(VectorField.zero(n), PolyMat.zero(n, m))

    def apply_a(self, a):
        return self.X(a)

    def apply_p(self, p):
        return self.X(p) + self.G @ p

    def __call__(self, e):
        if isinstance(e, Poly):
            return self.apply_a(e)
        if isinstance(e, PolyVec):
            return self.apply_p(e)
        if isinstance(e, DiolicElement):
            return DiolicElement(self.apply_a(e.a), self.apply_p(e.p))
        raise TypeError("Der0 acts on Poly, PolyVec or DiolicElement")

    def to_matrix_op(self):
        return (MatrixOp.scalar_times_identity(self.X.to_scalar_op(), self.m)
                + MatrixOp.from_polymat(self.G))

    def _parts(self):
        return (self.X, self.G)

    def _rebuild(self, parts, other=None):
        return Der0(*parts)

    def __str__(self):
        return "Der0(X=%s, G=%s)" % (self.X, self.G)

    __repr__ = __str__


class Der1(_Linear):
    """Degree-1 derivation a -> sum_alpha Z^alpha(a) e_alpha; kills P."""

    __slots__ = ("n", "m", "Z")

    def __init__(self, Z):
        Z = tuple(Z)
        if not Z or any(not isinstance(z, VectorField) for z in Z):
            raise ValueError("need a tuple of VectorField components")
        n = Z[0].n
        if any(z.n != n for z in Z):
            raise ValueError("mismatched variable counts")
        self.n = n
        self.m = len(Z)
        self.Z = Z

    @classmethod
    def zero(cls, n, m):
        return cls([VectorField.zero(n)] * m)

    def __call__(self, e):
        if isinstance(e, Poly):
            return PolyVec(self.n, [z(e) for z in self.Z])
        if isinstance(e, PolyVec):
            return PolyVec.zero(self.n, self.m)  # lands in degree 2 = 0
        if isinstance(e, DiolicElement):
            return DiolicElement.from_p(self(e.a))
        raise TypeError("Der1 acts on Poly, PolyVec or DiolicElement")

    def to_column(self):
        return [z.to_scalar_op() for z in self.Z]

    def _parts(self):
        return self.Z

    def _rebuild(self, parts, other=None):
        return Der1(parts)

    def __str__(self):
        return "Der1(%s)" % (", ".join(str(z) for z in self.Z))

    __repr__ = __str__


class DerNeg1(_Linear):
    """Degree -1 derivation: the A-linear functional p -> sum phi_a p^a.

    Exists only for m = 1.  For m >= 2 the graded Leibniz rule on the
    square-zero products p*q forces the functional to vanish; see
    `rank_one_obstruction` for the explicit relations.
    """

    __slots__ = ("n", "m", "phi")

    def __init__(self, phi):
        phi = tuple(phi)
        if len(phi) != 1:
            raise ValueError(
                "degree -1 derivations exist only at rank 1 "
                "(the relation phi_a p^b = phi_b p^a on basis pairs forces phi = 0)")
        if not isinstance(phi[0], Poly):
            raise ValueError("phi must hold Poly entries")
        self.n = phi[0].n
        self.m = 1
        self.phi = phi

    @classmethod
    def zero(cls, n):
        return cls([Poly.zero(n)])

    def __call__(self, e):
        if isinstance(e, PolyVec):
            if e.m != 1:
                raise ValueError("dimension mismatch")
            return self.phi[0] * e.comps[0]
        if isinstance(e, Poly):
            return Poly.zero(self.n)  # degree -1 on A lands in degree -1 = 0
        if isinstance(e, DiolicElement):
            return DiolicElement.from_a(self(e.p), 1)
        raise TypeError("DerNeg1 acts on Poly, PolyVec or DiolicElement")

    def to_scalar_op(self):
        # as operator P -> A with P identified with A at rank 1
        return ScalarOp.mult(self.phi[0])

    def _parts(self):
        return self.phi

    def _rebuild(self, parts, other=None):
        return DerNeg1(parts)

    def __str__(self):
        return "DerNeg1(%s)" % self.phi[0]

    __repr__ = __str__


def rank_one_obstruction(m):
    """Forced-vanishing witness for would-be degree -1 derivations, m >= 2.

    The Leibniz rule on p*q = 0 demands phi_a * p^b = phi_b * p^a on basis
    pairs; comparing components shows every phi_gamma is forced to zero.
    Returns {component: (alpha, beta, component_index)} where evaluating
    the relation for the basis pair (e_alpha, e_beta) at the given
    component reads phi_component = 0.  All indices are 0-based.
    """
    if m < 2:
        raise ValueError("the obstruction concerns ranks m >= 2")
    forced = {}
    for alpha in range(m):
        for beta in range(m):
            if alpha == beta:
                continue
            # phi(e_alpha) e_beta - e_alpha phi(e_beta) = 0; its beta-component
            # is phi_alpha, its alpha-component is -phi_beta.
            forced.setdefault(alpha, (alpha, beta, beta))
            forced.setdefault(beta, (alpha, beta, alpha))
    return forced


def degree_of(d):
    if isinstance(d, Der0):
        return 0
    if isinstance(d, Der1):
        return 1
    if isinstance(d, DerNeg1):
        return -1
    raise TypeError("not a homogeneous diolic derivation: %r" % (d,))


def symbol_sigma(d):
    """Projection of a degree-0 derivation onto its vector-field part."""
    if not isinstance(d, Der0):
        raise TypeError("symbol_sigma expects a Der0")
    return d.X


def der0_split(X, m):
    """The canonical section X -> (X, 0) of the symbol projection."""
    return Der0(X, PolyMat.zero(X.n, m))


def p_action(p, d):
    """Left P-module action on degree-0 derivations: (p . d)(a) = X(a) p."""
    if not isinstance(d, Der0):
        raise TypeError("p_action expects a Der0")
    if p.n != d.n or p.m != d.m:
        raise ValueError("dimension mismatch")
    return Der1([VectorField(d.n, [p.comps[alpha] * x for x in d.X.comps])
                 for alpha in range(d.m)])


# ---------------------------------------------------------------------------
# commutators


def _column_compose_matrix(mat, col):
    # (M o col)_a = sum_b M_ab o col_b : operators A -> P
    return [sum((mat.entries[a][b] @ col[b] for b in range(mat.m)),
                ScalarOp.zero(mat.n)) for a in range(mat.m)]


def _column_compose_scalar(col, s):
    return [c @ s for c in col]


def _verify(cond, what):
    if not cond:
        raise RouteError("commutator formula disagrees with "
                             "compose-and-subtract for %s" % what)


def graded_commutator_der(d1, d2):
    """Graded commutator of homogeneous derivations.

    Degree sums with no homogeneous component (|sum| >= 2) give the zero
    derivation, returned as the integer 0.  Every computed output is
    checked against compose-and-subtract of the underlying operators.
    """
    if d1 == 0 or d2 == 0:
        return 0
    g1, g2 = degree_of(d1), degree_of(d2)
    if d1.n != d2.n or (g1 != -1 and g2 != -1 and d1.m != d2.m):
        raise ValueError("dimension mismatch")
    n = d1.n

    if (g1, g2) == (0, 0):
        X, Y, G, H = d1.X, d2.X, d1.G, d2.G
        out = Der0(X.bracket(Y), X(H) - Y(G) + G.commutator(H))
        lhs = d1.to_matrix_op() @ d2.to_matrix_op() - d2.to_matrix_op() @ d1.to_matrix_op()
        _verify(lhs == out.to_matrix_op(), "Der0/Der0")
        return out

    if (g1, g2) in ((0, 1), (1, 0)):
        d0, z, sign = (d1, d2, 1) if g1 == 0 else (d2, d1, -1)
        comps = []
        for alpha in range(d0.m):
            v = d0.X.bracket(z.Z[alpha])
            for beta in range(d0.m):
                v = v + d0.G.rows[alpha][beta] * z.Z[beta]
            comps.append(v)
        out = Der1(comps)
        # A -> P check: d0^P o Z - Z o d0^A
        raw = [a - b for a, b in zip(
            _column_compose_matrix(d0.to_matrix_op(), z.to_column()),
            _column_compose_scalar(z.to_column(), d0.X.to_scalar_op()))]
        _verify(raw == out.to_column(), "Der0/Der1")
        return out if sign > 0 else -out

    if (g1, g2) == (1, 1) or (g1, g2) == (-1, -1):
        return 0

    if (g1, g2) in ((0, -1), (-1, 0)):
        d0, phi, sign = (d1, d2, 1) if g1 == 0 else (d2, d1, -1)
        if d0.m != 1:
            raise ValueError("degree -1 requires rank 1")
        f = phi.phi[0]
        g = d0.G.rows[0][0]
        out = DerNeg1([d0.X(f) - f * g])
        # P -> A check: d0^A o phi - phi o d0^P
        raw = (d0.X.to_scalar_op() @ phi.to_scalar_op()
               - phi.to_scalar_op() @ (d0.X.to_scalar_op() + ScalarOp.mult(g)))
        _verify(raw == out.to_scalar_op(), "Der0/DerNeg1")
        return out if sign > 0 else -out

    if (g1, g2) in ((1, -1), (-1, 1)):
        z, phi = (d1, d2) if g1 == 1 else (d2, d1)
        if z.m != 1:
            raise ValueError("degree -1 requires rank 1")
        f = phi.phi[0]
        zvf = z.Z[0]
        out = Der0(f * zvf, PolyMat(n, [[zvf(f)]]))
        # odd-odd bracket is the anticommutator; its two composites act on
        # the two homogeneous components: phi o Z on A, Z o phi on P
        raw_a = ScalarOp.mult(f) @ zvf.to_scalar_op()
        raw_p = zvf.to_scalar_op() @ ScalarOp.mult(f)
        _verify(raw_a == out.X.to_scalar_op()
                and raw_p == out.to_matrix_op().entries[0][0], "Der1/DerNeg1")
        return out

    raise RouteError("unhandled degree pair (%d, %d)" % (g1, g2))


# ---------------------------------------------------------------------------
# artificial two-component algebras: derivations induced on functors of P


def tensor_basis(m1, m2):
    """Index pairs for P (x) P' in lexicographic order."""
    return [(a, b) for a in range(m1) for b in range(m2)]


def hom_basis(m1, m2):
    """Index pairs (target nu, source mu) for Hom(P, P')."""
    return [(nu, mu) for nu in range(m2) for mu in range(m1)]


def wedge_basis(m, k):
    return list(itertools.combinations(range(m), k))


def sym_basis(m, k):
    return list(itertools.combinations_with_replacement(range(m), k))


def artificial_der(kind, d, d2=None, k=None):
    """Degree-0 derivation induced on a functor of the module P.

    kind is one of "sum", "tensor", "hom" (binary; d2 required, and the
    vector-field parts of d and d2 must agree) or "wedge", "sym" (unary;
    k required, 0 <= k <= m for "wedge").  The result acts on the free
    module with the induced monomial basis and has the shared symbol.
    """
    if kind in ("sum", "tensor", "hom"):
        if d2 is None:
            raise ValueError("kind %r needs two derivations" % kind)
        if d.n != d2.n:
            raise ValueError("dimension mismatch")
        if d.X != d2.X:
            raise ValueError("the two derivations must share their symbol")
    else:
        if kind not in ("wedge", "sym"):
            raise ValueError("unknown kind %r" % kind)
        if k is None:
            raise ValueError("kind %r needs the power k" % kind)

    n, X = d.n, d.X
    z = Poly.zero(n)

    if kind == "sum":
        return Der0(X, PolyMat.block_diag(d.G, d2.G))

    if kind == "tensor":
        basis = tensor_basis(d.m, d2.m)
        pos = {b: i for i, b in enumerate(basis)}
        rows = [[z] * len(basis) for _ in range(len(basis))]
        for (gamma, delta_) in basis:
            col = pos[(gamma, delta_)]
            for alpha in range(d.m):
                rows[pos[(alpha, delta_)]][col] = rows[pos[(alpha, delta_)]][col] + d.G.rows[alpha][gamma]
            for beta in range(d2.m):
                rows[pos[(gamma, beta)]][col] = rows[pos[(gamma, beta)]][col] + d2.G.rows[beta][delta_]
        return Der0(X, PolyMat(n, rows))

    if kind == "hom":
        # Hom(d, d2)(u^{beta,alpha}) = d2 o u - u o d in the basis u^{nu,mu}
        basis = hom_basis(d.m, d2.m)
        pos = {b: i for i, b in enumerate(basis)}
        rows = [[z] * len(basis) for _ in range(len(basis))]
        for (beta, alpha) in basis:
            col = pos[(beta, alpha)]
            for nu in range(d2.m):
                rows[pos[(nu, alpha)]][col] = rows[pos[(nu, alpha)]][col] + d2.G.rows[nu][beta]
            for mu in range(d.m):
                rows[pos[(beta, mu)]][col] = rows[pos[(beta, mu)]][col] - d.G.rows[alpha][mu]
        return Der0(X, PolyMat(n, rows))

    if kind == "wedge":
        if not 0 <= k <= d.m:
            raise ValueError("wedge power out of range")
        basis = wedge_basis(d.m, k)
        pos = {b: i for i, b in enumerate(basis)}
        rows = [[z] * len(basis) for _ in range(len(basis))]
        for idx in basis:
            col = pos[idx]
            for t in range(k):
                for mu in range(d.m):
                    g = d.G.rows[mu][idx[t]]
                    if g.is_zero():
                        continue
                    word = idx[:t] + (mu,) + idx[t + 1:]
                    if len(set(word)) < k:
                        continue
                    sign, sorted_word = _sort_with_sign(word)
                    row = pos[sorted_word]
                    rows[row][col] = rows[row][col] + sign * g
        return Der0(X, PolyMat(n, rows))

    # kind == "sym"
    if k < 0:
        raise ValueError("symmetric power out of range")
    basis = sym_basis(d.m, k)
    pos = {b: i for i, b in enumerate(basis)}
    rows = [[z] * len(basis) for _ in range(len(basis))]
    for idx in basis:
        col = pos[idx]
        for t in range(k):
            for mu in range(d.m):
                g = d.G.rows[mu][idx[t]]
                if g.is_zero():
                    continue
                word = tuple(sorted(idx[:t] + (mu,) + idx[t + 1:]))
                rows[pos[word]][col] = rows[pos[word]][col] + g
    return Der0(X, PolyMat(n, rows))


def _sort_with_sign(idx):
    """Sort a tuple; return the sign of the sorting permutation with it."""
    idx = list(idx)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    return sign, tuple(idx)


# ---------------------------------------------------------------------------
# truncated two-component modules and the twisted Leibniz check


class TruncatedDiolicModule:
    """Free two-component module Q0 (+) Q1 with structure map P x Q0 -> Q1.

    phi[alpha][i][j] is the coefficient of the j-th Q1 basis vector in
    phi(e_alpha (x) q_i); A-bilinearity is automatic in this encoding.
    """

    __slots__ = ("n", "m", "rank0", "rank1", "phi")

    def __init__(self, n, m, rank0, rank1, phi):
        phi = tuple(tuple(tuple(r) for r in block) for block in phi)
        if len(phi) != m or any(len(b) != rank0 for b in phi) or any(
                len(r) != rank1 for b in phi for r in b):
            raise ValueError("phi must be m x rank0 x rank1")
        for b in phi:
            for r in b:
                for p in r:
                    if not isinstance(p, Poly) or p.n != n:
                        raise ValueError("phi entries must be Poly in %d variables" % n)
        self.n = n
        self.m = m
        self.rank0 = rank0
        self.rank1 = rank1
        self.phi = phi

    @classmethod
    def self_module(cls, n, m):
        """A (+) P over itself: Q0 = A, Q1 = P, phi(e_a (x) 1) = e_a."""
        one, zero = Poly.one(n), Poly.zero(n)
        phi = [[[one if j == alpha else zero for j in range(m)]] for alpha in range(m)]
        return cls(n, m, 1, m, phi)

    def phi_apply(self, p, q0):
        """phi(p (x) q0) for p a PolyVec and q0 a list of Q0 coefficients."""
        out = [Poly.zero(self.n) for _ in range(self.rank1)]
        for alpha in range(self.m):
            pa = p.comps[alpha]
            if pa.is_zero():
                continue
            for i in range(self.rank0):
                qi = q0[i]
                if qi.is_zero():
                    continue
                for j in range(self.rank1):
                    c = self.phi[alpha][i][j]
                    if not c.is_zero():
                        out[j] = out[j] + pa * qi * c
        return out


def check_phi_der(module, xa, xp):
    """Twisted Leibniz check: XP(a p) = phi(XA(a) (x) p) + a XP(p).

    xa is the operator A -> Q0 (a list of rank0 ScalarOps) and must be a
    derivation (order <= 1, killing constants); xp is the operator
    P -> Q1 as a rank1 x m matrix of ScalarOps.  For a fixed basis
    section p the defect a -> XP(a p) - phi(XA(a) (x) p) - a XP(p) is an
    operator in a of order <= max(1, order of the XP entries), so checking
    it on all monomials a of that degree against all basis sections p
    decides the identity exactly.
    """
    n, m = module.n, module.m
    if len(xa) != module.rank0 or len(xp) != module.rank1 or any(
            len(row) != m for row in xp):
        raise ValueError("dimension mismatch")
    one = Poly.one(n)
    for op in xa:
        if op.order() > 1 or not op(one).is_zero():
            raise ValueError("XA must be a derivation into Q0")

    def xp_apply(p):
        return [sum((xp[j][alpha](p.comps[alpha]) for alpha in range(m)),
                    Poly.zero(n)) for j in range(module.rank1)]

    probe_degree = max([1] + [op.order() for row in xp for op in row])
    for sigma in monomials_up_to(n, probe_degree):
        a = Poly.monomial(n, sigma)
        xa_a = [op(a) for op in xa]
        for alpha in range(m):
            p = PolyVec.basis(n, m, alpha)
            lhs = xp_apply(a * p)
            twist = module.phi_apply(p, xa_a)
            rhs = [t + a * v for t, v in zip(twist, xp_apply(p))]
            if any((x - y) != Poly.zero(n) for x, y in zip(lhs, rhs)):
                return False
    return True
