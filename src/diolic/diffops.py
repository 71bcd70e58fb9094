"""Graded differential operators on A (+) P of arbitrary finite order.

A degree-0 operator of order k is stored in split normal form
(boxA, M): boxA is a scalar operator of order <= k acting on A and
diagonally on P, while M is a matrix operator of order <= k-1.  The
split form makes the defining shared-scalar-symbol condition for raw
pairs (boxA, boxP) a representation invariant: a raw pair is accepted
iff boxP - boxA*I has order <= k-1, equivalently iff the k-fold
delta-nests of both parts agree.

Degree 1 operators of order k are columns of scalar operators A -> P;
degree -1 operators (P -> A) exist only at rank 1.  Each class holds its
degree in `grade`; the commutator orders its operands by `ops.graded_operands`.
The second route of this commutator and of the derivation commutator is
the one block commutator `block_commutator`, on A (+) P = A^(1+m);
`verify_commutator` compares it with the closed-form output.  It never
calls the split formulas, so a wrong formula cannot agree with its own
check; the routes share only the kernel `ops.commutator`, which the tests
pin against a compose-and-subtract oracle, and `Poly` arithmetic, whose
sums of products are all one `poly.dot`.
"""

from __future__ import annotations

from .poly import DiolicElement, GradedMap, Poly, PolyVec, monomials_up_to
from .ops import MatrixOp, RouteError, ScalarOp, commutator, graded_operands, verify_order


def _sum_order(a, b=None):
    """Order k of a sum or difference of a and b; of a alone if b is None."""
    return a.k if b is None else max(a.k, b.k)


class DiffOp0(GradedMap):
    """Degree-0 operator boxA*I + M of order k in split normal form."""

    __slots__ = ("n", "m", "k", "boxA", "M")
    grade = 0

    def __init__(self, k, boxA, M):
        if not isinstance(boxA, ScalarOp) or not isinstance(M, MatrixOp):
            raise TypeError("need (ScalarOp, MatrixOp)")
        if boxA.n != M.n:
            raise ValueError("dimension mismatch")
        if k < 0:
            raise ValueError("order must be >= 0")
        if boxA.order() > k:
            raise ValueError("scalar part exceeds order %d" % k)
        if M.order() > k - 1:
            raise ValueError("matrix part must have order <= %d" % (k - 1))
        self.n = boxA.n
        self.m = M.m
        self.k = k
        self.boxA = boxA
        self.M = M

    @classmethod
    def zero(cls, n, m, k=0):
        return cls(k, ScalarOp.zero(n), MatrixOp.zero(n, m))

    @classmethod
    def from_pair(cls, boxA, boxP, k):
        """Build from a raw pair, verifying the degree-0 operator condition."""
        if not verify_diolic_diffop(boxA, boxP, k):
            raise ValueError("pair (boxA, boxP) is not a degree-0 operator of order %d" % k)
        return cls(k, boxA, boxP - MatrixOp.scalar_times_identity(boxA, boxP.m))

    def boxP(self):
        return MatrixOp.scalar_times_identity(self.boxA, self.m) + self.M

    def apply_a(self, a):
        return self.boxA(a)

    def apply_p(self, p):
        return self.boxP() @ p

    def embed(self, k):
        """The same operator viewed at order k >= self.k."""
        if k < self.k:
            raise ValueError("cannot embed into a lower order")
        return DiffOp0(k, self.boxA, self.M)

    def _parts(self):
        return (self.boxA, self.M)

    def _rebuild(self, parts, other=None):
        return DiffOp0(_sum_order(self, other), *parts)

    def __str__(self):
        return "DiffOp0(k=%d, boxA=%s, M=%s)" % (self.k, self.boxA, self.M)

    __repr__ = __str__


class DiffOp1(GradedMap):
    """Degree-1 operator A -> P of order k: a column of scalar operators."""

    __slots__ = ("n", "m", "k", "ops")
    grade = 1

    def __init__(self, k, ops):
        ops = tuple(ops)
        if not ops or any(not isinstance(o, ScalarOp) for o in ops):
            raise TypeError("need a tuple of ScalarOp components")
        n = ops[0].n
        if any(o.n != n for o in ops):
            raise ValueError("dimension mismatch")
        if any(o.order() > k for o in ops):
            raise ValueError("component exceeds order %d" % k)
        self.n = n
        self.m = len(ops)
        self.k = k
        self.ops = ops

    @classmethod
    def zero(cls, n, m, k=0):
        return cls(k, [ScalarOp.zero(n)] * m)

    def apply_a(self, a):
        return PolyVec(self.n, [o(a) for o in self.ops])

    def order(self):
        return max((o.order() for o in self.ops), default=-1)

    def embed(self, k):
        if k < self.k:
            raise ValueError("cannot embed into a lower order")
        return DiffOp1(k, self.ops)

    def _parts(self):
        return self.ops

    def _rebuild(self, parts, other=None):
        return DiffOp1(_sum_order(self, other), parts)

    def __str__(self):
        return "DiffOp1(k=%d, %s)" % (self.k, ", ".join(str(o) for o in self.ops))

    __repr__ = __str__


class DiffOpNeg1(GradedMap):
    """Degree -1 operator P -> A of order k; exists only at rank 1."""

    __slots__ = ("n", "m", "k", "op")
    grade = -1

    def __init__(self, k, op, m=1):
        if m != 1:
            raise ValueError("degree -1 operators exist only at rank 1")
        if not isinstance(op, ScalarOp):
            raise TypeError("need a ScalarOp")
        if op.order() > k:
            raise ValueError("component exceeds order %d" % k)
        self.n = op.n
        self.m = 1
        self.k = k
        self.op = op

    def apply_p(self, p):
        if p.m != 1:
            raise ValueError("dimension mismatch")
        return self.op(p.comps[0])

    def _parts(self):
        return (self.op,)

    def _rebuild(self, parts, other=None):
        return DiffOpNeg1(_sum_order(self, other), *parts)

    def embed(self, k):
        if k < self.k:
            raise ValueError("cannot embed into a lower order")
        return DiffOpNeg1(k, self.op)

    def __str__(self):
        return "DiffOpNeg1(k=%d, %s)" % (self.k, self.op)

    __repr__ = __str__


def verify_diolic_diffop(boxA, boxP, k):
    """True iff (boxA, boxP) form a degree-0 operator of order k.

    That is the order condition on boxP - boxA*I, decided by the dual-route
    `verify_order` at k-1.  Its coordinate route is the shared-scalar-symbol
    condition itself: delta is linear and acts entrywise, so the depth-k
    coordinate nests of boxP - boxA*I are the nests of boxP minus the
    nests of boxA times I, and they vanish iff the two parts agree.
    """
    if not isinstance(boxA, ScalarOp) or not isinstance(boxP, MatrixOp):
        raise TypeError("need (ScalarOp, MatrixOp)")
    if boxA.n != boxP.n:
        raise ValueError("dimension mismatch")
    if boxA.order() > k or boxP.order() > k:
        return False
    return verify_order(boxP - MatrixOp.scalar_times_identity(boxA, boxP.m), k - 1)


def atiyah_project(b):
    """The scalar-part projection of the order-k sequence."""
    if not isinstance(b, DiffOp0):
        raise TypeError("atiyah_project expects a DiffOp0")
    return b.boxA


def atiyah_split(box, k, m):
    """Canonical diagonal section box -> (box, 0) at order k."""
    if box.order() > k:
        raise ValueError("operator order exceeds %d" % k)
    return DiffOp0(k, box, MatrixOp.zero(box.n, m))


def beta_diff(p, b):
    """Left P-action p (x) B -> the degree-1 operator a -> boxA(a) p."""
    if not isinstance(b, DiffOp0):
        raise TypeError("beta_diff expects a DiffOp0")
    if p.n != b.n or p.m != b.m:
        raise ValueError("dimension mismatch")
    return DiffOp1(b.k, [p.comps[alpha] * b.boxA for alpha in range(b.m)])


def check_k_connection(nabla, k, n, m):
    """Validate a table {sigma: DiffOp0} as an order-k connection.

    The table must cover every generator d^sigma with 1 <= |sigma| <= k;
    each value must project back onto d^sigma and kill the unit (1, 0).
    The A-linear extension to arbitrary operators is definitional, so
    only the generator conditions are checked.
    """
    table = {tuple(s): v for s, v in nabla.items()}
    for sigma in monomials_up_to(n, k):
        if sum(sigma) == 0:
            continue
        if sigma not in table:
            raise ValueError("missing generator %r" % (sigma,))
        b = table[sigma]
        if b.n != n or b.m != m:
            raise ValueError("dimension mismatch at generator %r" % (sigma,))
        if b.boxA != ScalarOp.partial_sigma(n, sigma):
            return False
        if not b(DiolicElement(Poly.one(n), PolyVec.zero(n, m))).is_zero():
            return False
    return True


def _block(b):
    """b as its (m+1) x (m+1) block matrix of scalar operators on
    A (+) P = A^(1+m), A first; a derivation enters through `as_diffop`."""
    if not isinstance(b, (DiffOp0, DiffOp1, DiffOpNeg1)):
        b = b.as_diffop()
    z = ScalarOp.zero(b.n)
    if b.grade == 0:
        return MatrixOp(b.n, [[b.boxA] + [z] * b.m]
                        + [[z] + list(row) for row in b.boxP().entries])
    if b.grade == 1:
        return MatrixOp(b.n, [[z] * (b.m + 1)] + [[o] + [z] * b.m for o in b.ops])
    return MatrixOp(b.n, [[z, b.op], [z, z]])


def block_commutator(u, v):
    """The graded commutator of the blocks of u and v, [U, V] by
    `ops.commutator`, or the anticommutator U@V + V@U when both are odd."""
    U, V = _block(u), _block(v)
    if u.grade % 2 and v.grade % 2:
        return U @ V + V @ U
    return commutator(U, V)


def verify_commutator(u, v, out, raw=None):
    """Second route of both graded commutators: raise RouteError unless the
    closed-form output out of the canonical pair (u, v) has the block
    `block_commutator(u, v)`, passed as raw when the caller has it."""
    if raw is None:
        raw = block_commutator(u, v)
    if _block(out) != raw:
        raise RouteError("commutator formula disagrees with compose-and-subtract "
                         "for %s/%s" % (type(u).__name__, type(v).__name__))


def graded_commutator_diff(b1, b2):
    """Graded commutator of homogeneous operators, split-form output.

    Degree pairs summing outside {-1, 0, 1} return the integer 0.  The
    split-coordinate formulas are used and every output is re-verified
    against `block_commutator`, whose blocks also give the scalar part of
    a degree-0 pair and both parts of the odd pair.
    """
    if b1 == 0 or b2 == 0:
        return 0
    pair = graded_operands(b1, b2)
    if pair is None:
        return 0
    u, v, sign = pair
    grades = (u.grade, v.grade)
    raw = block_commutator(u, v)
    k = max(u.k + v.k - 1, 0)

    if grades == (0, 0):
        mat = (v.M.map(lambda e: commutator(u.boxA, e))
               + u.M.map(lambda e: commutator(e, v.boxA)) + commutator(u.M, v.M))
        out = DiffOp0(k, raw.entries[0][0], mat)
    elif grades == (0, 1):
        comps = []
        for j in range(u.m):
            c = commutator(u.boxA, v.ops[j])
            for beta in range(u.m):
                c = c + u.M.entries[j][beta] @ v.ops[beta]
            comps.append(c)
        out = DiffOp1(k, comps)
    elif grades == (0, -1):
        box, op = u.boxA, v.op
        out = DiffOpNeg1(k, commutator(box, op) - op @ u.M.entries[0][0])
    else:
        # odd-odd pair: the anticommutator, phi o Z on A and Z o phi on P,
        # checked as a degree-0 operator by from_pair
        out = DiffOp0.from_pair(raw.entries[0][0], MatrixOp(u.n, [[raw.entries[1][1]]]),
                                u.k + v.k)
    verify_commutator(u, v, out, raw)
    return out if sign > 0 else -out
