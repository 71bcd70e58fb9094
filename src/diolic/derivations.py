"""Graded derivations of the two-component algebra A (+) P.

The algebra has A = Q[x1..xn] in degree 0 and the free module P = A^m in
degree 1, with P*P = 0.  Its homogeneous derivations live in degrees
-1, 0, 1 only:

  * degree 0: pairs (X, G) acting as X on A and as X + G on P, the
    covariant-derivative-like operators ("X + G" in the fixed basis);
  * degree 1: P-valued derivations of A, an m-tuple of vector fields;
  * degree -1: A-linear functionals P -> A, which exist only when m = 1.

A derivation is a differential operator of order <= 1 that kills 1; each
class embeds as one through `as_diffop`, and holds its degree in the class
attribute `grade`.  The graded commutator takes its operand order and skew
sign from `ops.graded_operands`, the rule [y, x] = -(-1)^(|x||y|) [x, y] of
the operator and symbol brackets.
Every commutator computed from the closed vector-field formulas is
re-verified against the one block compose-and-subtract of the embedded
operators in `diffops`; in normal form that is an exact identity check.
"""

from __future__ import annotations

import itertools

from .poly import GradedMap, Poly, PolyMat, PolyVec, monomials_up_to
from .ops import MatrixOp, ScalarOp, VectorField, graded_operands
from .diffops import DiffOp0, DiffOp1, DiffOpNeg1, verify_commutator


class Der0(GradedMap):
    """Degree-0 derivation: X on A, X + G on P."""

    __slots__ = ("n", "m", "X", "G")
    grade = 0

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

    def as_diffop(self):
        return DiffOp0(1, self.X.to_scalar_op(), MatrixOp.from_polymat(self.G))

    def _parts(self):
        return (self.X, self.G)

    def _rebuild(self, parts, other=None):
        return Der0(*parts)

    def __str__(self):
        return "Der0(X=%s, G=%s)" % (self.X, self.G)

    __repr__ = __str__


class Der1(GradedMap):
    """Degree-1 derivation a -> sum_alpha Z^alpha(a) e_alpha; kills P."""

    __slots__ = ("n", "m", "Z")
    grade = 1

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

    def apply_a(self, a):
        return PolyVec(self.n, [z(a) for z in self.Z])

    def as_diffop(self):
        return DiffOp1(1, [z.to_scalar_op() for z in self.Z])

    def _parts(self):
        return self.Z

    def _rebuild(self, parts, other=None):
        return Der1(parts)

    def __str__(self):
        return "Der1(%s)" % (", ".join(str(z) for z in self.Z))

    __repr__ = __str__


class DerNeg1(GradedMap):
    """Degree -1 derivation: the A-linear functional p -> sum phi_a p^a.

    Exists only for m = 1.  For m >= 2 the graded Leibniz rule on the
    square-zero products p*q forces the functional to vanish; see
    `rank_one_obstruction` for the explicit relations.
    """

    __slots__ = ("n", "m", "phi")
    grade = -1

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

    def apply_p(self, p):
        if p.m != 1:
            raise ValueError("dimension mismatch")
        return self.phi[0] * p.comps[0]

    def as_diffop(self):
        return DiffOpNeg1(0, ScalarOp.mult(self.phi[0]))

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


def graded_commutator_der(d1, d2):
    """Graded commutator of homogeneous derivations.

    Degree sums with no homogeneous component (|sum| >= 2) give the zero
    derivation, returned as the integer 0.  Every computed output is
    checked against compose-and-subtract of the embedded operators.
    """
    if d1 == 0 or d2 == 0:
        return 0
    pair = graded_operands(d1, d2)
    if pair is None:
        return 0
    u, v, sign = pair
    grades = (u.grade, v.grade)

    if grades == (0, 0):
        X, Y, G, H = u.X, v.X, u.G, v.G
        out = Der0(X.bracket(Y), X(H) - Y(G) + G.commutator(H))
    elif grades == (0, 1):
        comps = []
        for alpha in range(u.m):
            w = u.X.bracket(v.Z[alpha])
            for beta in range(u.m):
                w = w + u.G.rows[alpha][beta] * v.Z[beta]
            comps.append(w)
        out = Der1(comps)
    elif grades == (0, -1):
        f = v.phi[0]
        out = DerNeg1([u.X(f) - f * u.G.rows[0][0]])
    else:
        f = v.phi[0]
        zvf = u.Z[0]
        out = Der0(f * zvf, PolyMat(u.n, [[zvf(f)]]))
    verify_commutator(u, v, out)
    return out if sign > 0 else -out


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

    if kind == "sum":
        return Der0(d.X, PolyMat.block_diag(d.G, d2.G))
    if kind == "tensor":
        return _induced(d, tensor_basis(d.m, d2.m), [d.G, d2.G], lambda w: (1, w))
    if kind == "hom":
        # Hom(d, d2)(u) = d2 o u - u o d: the source slot takes -G^T
        minus_gt = PolyMat(d.n, zip(*(-d.G).rows))
        return _induced(d, hom_basis(d.m, d2.m), [d2.G, minus_gt], lambda w: (1, w))
    if kind == "wedge":
        if not 0 <= k <= d.m:
            raise ValueError("wedge power out of range")
        return _induced(d, wedge_basis(d.m, k), [d.G] * k, _sort_with_sign)
    if k < 0:
        raise ValueError("symmetric power out of range")
    return _induced(d, sym_basis(d.m, k), [d.G] * k, lambda w: (1, tuple(sorted(w))))


def _induced(d, basis, slot_matrices, normalise):
    """Der0 (X, G') on the free module with the given basis of index words:
    G' sends the word w to the sum over slots t and letters mu of
    slot_matrices[t][mu][w[t]] times the word with mu in slot t, brought
    into the basis by normalise(word) -> (sign, basis word); sign 0 drops it.
    """
    pos = {b: i for i, b in enumerate(basis)}
    z = Poly.zero(d.n)
    rows = [[z] * len(basis) for _ in basis]
    for col, word in enumerate(basis):
        for t, g in enumerate(slot_matrices):
            for mu in range(g.m):
                c = g.rows[mu][word[t]]
                if c.is_zero():
                    continue
                sign, target = normalise(word[:t] + (mu,) + word[t + 1:])
                if sign:
                    rows[pos[target]][col] += sign * c
    return Der0(d.X, PolyMat(d.n, rows))


def _sort_with_sign(idx):
    """Sort a tuple; return the sign of the sorting permutation (the parity
    of its inversions) with it, or 0 when an index repeats."""
    if len(set(idx)) < len(idx):
        return 0, idx
    inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
    return (-1) ** inversions, tuple(sorted(idx))


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
