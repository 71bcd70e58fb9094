"""Scalar and matrix linear differential operators on Q[x1..xn].

A scalar operator sum_sigma a_sigma(x) d^sigma in normal form (all
coefficients to the left) is stored as its total symbol
sum_sigma a_sigma(x) xi^sigma: one Poly `p` in the 2n variables
x1..xn, xi_1..xi_n, the layout of `symbols.SymbolPoly`.  Equality of
operators is equality of total symbols.  Composition is the finite, exact
normal-ordered product

    sigma(A o B) = sum_alpha (1/alpha!) d_xi^alpha sigma(A) * d_x^alpha sigma(B)

(Hormander, The Analysis of Linear Partial Differential Operators III,
Section 18.1; Coutinho, A Primer of Algebraic D-Modules, 1995), the
generalized Leibniz rule summed over the xi-exponents of A.

Its alpha = 0 term is the commutative product sigma(A) sigma(B); the rest,
the tail T(A, B), has xi-degree <= ord A + ord B - 1.  In A o B - B o A the
two products are equal and cancel exactly, so `commutator` never forms them:
[A, B] = T(A, B) - T(B, A).  Multiplication by a has xi-degree 0, so
T(a, op) = 0 and delta_a(op) = -T(op, a).  In a matrix commutator only the
terms U_ii o V_ii - V_ii o U_ii pair up this way; the anticommutator
U o V + V o U of two odd operators adds the products: nothing cancels.

`_tail_pairs` gives the tail as factor pairs, a divided xi-derivative of
sigma(A) with an x-derivative of sigma(B), with a sign folded into the
first factor.  A composition, a bracket, `delta` and each entry of a
matrix composition or commutator is then one `poly.dot` over its pairs:
one accumulation of integer products over one denominator.  The action
of an operator or a vector field on a polynomial is one `dot` as well.

Conventions fixed here and used throughout the package:

  * delta_a(op) = (mult by a) o op - op o (mult by a); it lowers the order
    by at least one.
  * An operator of order <= k on the polynomial ring vanishes iff it kills
    every monomial of degree <= k (its coefficients are reconstructible
    from those values), so identity checks on spanning monomial sets are
    exact, not probabilistic.
"""

from __future__ import annotations

import itertools
import math

from .poly import Poly, PolyMat, PolyVec, _Linear, _normal, dot, mi_sub, monomials_up_to


class RouteError(AssertionError):
    """Two independent routes to the same value disagree: an engine bug."""


def _binom(sigma, rho):
    c = 1
    for a, b in zip(sigma, rho):
        c *= math.comb(a, b)
    return c


def _subindices(sigma):
    return itertools.product(*(range(e + 1) for e in sigma))


def lift(a):
    """The polynomial a(x) as a Poly in (x, xi) of xi-degree 0."""
    z = (0,) * a.n
    return _normal(2 * a.n, {s + z: c for s, c in a.num.items()}, a.den)


class ScalarOp(_Linear):
    """Operator sum_sigma a_sigma(x) d^sigma acting on Poly, stored as its
    total symbol `p`: the term c x^mu xi^sigma of p is c x^mu d^sigma."""

    __slots__ = ("n", "p")

    def __init__(self, n, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        merged = {}
        for sigma, a in items:
            sigma = tuple(sigma)
            if len(sigma) != n or any(e < 0 for e in sigma):
                raise ValueError("bad multi-index %r" % (sigma,))
            if not isinstance(a, Poly):
                a = Poly.const(n, a)
            if a.n != n:
                raise ValueError("coefficient variable count mismatch")
            merged[sigma] = merged[sigma] + a if sigma in merged else a
        den = math.lcm(*(a.den for a in merged.values()))
        self.n = n
        self.p = _normal(2 * n, {mu + sigma: c * (den // a.den) for sigma, a in merged.items()
                                 for mu, c in a.num.items()}, den)

    # -- constructors --------------------------------------------------

    @classmethod
    def _trusted(cls, n, p):
        """The operator whose total symbol is p, a Poly in 2n variables."""
        out = cls.__new__(cls)
        out.n = n
        out.p = p
        return out

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def identity(cls, n):
        return cls(n, {(0,) * n: Poly.one(n)})

    @classmethod
    def mult(cls, a):
        """Multiplication by the polynomial a (an order-0 operator)."""
        return cls._trusted(a.n, lift(a))

    @classmethod
    def partial(cls, n, i):
        """The derivation d/dx_i, 1 <= i <= n."""
        if not 1 <= i <= n:
            raise ValueError("variable index out of range: %d" % i)
        sigma = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls(n, {sigma: Poly.one(n)})

    @classmethod
    def partial_sigma(cls, n, sigma):
        return cls(n, {tuple(sigma): Poly.one(n)})

    # -- queries ---------------------------------------------------------

    @property
    def coeffs(self):
        """Read-only view {sigma: a_sigma} of the nonzero coefficients."""
        n = self.n
        out = {}
        for s, c in self.p.num.items():
            out.setdefault(s[n:], {})[s[:n]] = c
        return {sigma: _normal(n, t, self.p.den) for sigma, t in out.items()}

    def order(self):
        """Max |sigma| over stored terms; -1 for the zero operator."""
        n = self.n
        return max((sum(s[n:]) for s in self.p.num), default=-1)

    def first_order_part(self):
        """The |sigma| = 1 coefficients as a VectorField."""
        coeffs = self.coeffs
        comps = []
        for i in range(self.n):
            e = tuple(1 if j == i else 0 for j in range(self.n))
            comps.append(coeffs.get(e, Poly.zero(self.n)))
        return VectorField(self.n, comps)

    def constant_coeff(self):
        return self.coeffs.get((0,) * self.n, Poly.zero(self.n))

    # -- action and algebra ----------------------------------------------

    def __call__(self, f):
        """The sum of a_sigma d^sigma(f) over the coefficients a_sigma."""
        return dot(self.n, self._action_pairs(f))

    def _action_pairs(self, f):
        """The factor pairs (a_sigma, d^sigma f) of self(f)."""
        if not isinstance(f, Poly) or f.n != self.n:
            raise ValueError("argument must be a Poly in %d variables" % self.n)
        return [(a, f.partial_sigma(sigma)) for sigma, a in self.coeffs.items()]

    def _parts(self):
        return (self.p,)

    def _rebuild(self, parts, other=None):
        return ScalarOp._trusted(self.n, parts[0])

    def __rmul__(self, other):
        """Left multiplication by a function or scalar: (a * op)(f) = a * op(f)."""
        return _Linear.__rmul__(self, lift(other) if isinstance(other, Poly) else other)

    __mul__ = __rmul__

    def __matmul__(self, other):
        """Composition self o other: sigma(self) sigma(other) + T(self, other)."""
        if not isinstance(other, ScalarOp):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("mismatched variable counts")
        return _op_dot(self.n, _compose_pairs(self, other))

    def __str__(self):
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        bits = []
        for sigma in sorted(coeffs, key=lambda s: (sum(s), s)):
            ds = "*".join("d%d" % (i + 1) + ("^%d" % e if e > 1 else "")
                          for i, e in enumerate(sigma) if e)
            bits.append("(%s)%s" % (coeffs[sigma], "*" + ds if ds else ""))
        return " + ".join(bits)

    __repr__ = __str__


def _tail_pairs(a, b, sign=1):
    """The factor pairs of sign * T(a, b): for each alpha > 0, the divided
    xi-derivative (sign/alpha!) d_xi^alpha sigma(a) with the x-derivative
    d_x^alpha sigma(b), where that is nonzero."""
    n = a.n
    zero = (0,) * n
    divided = {}  # alpha -> numerators of (sign/alpha!) d_xi^alpha sigma(a)
    for s, c in a.p.num.items():
        ks = s[n:]
        for alpha in itertools.islice(_subindices(ks), 1, None):
            divided.setdefault(alpha, {})[mi_sub(s, zero + alpha)] = \
                c * sign * _binom(ks, alpha)
    pairs = []
    for alpha, num in divided.items():
        d = b.p.partial_sigma(alpha + zero)
        if d.num:
            pairs.append((_normal(2 * n, num, a.p.den), d))
    return pairs


def _compose_pairs(a, b, sign=1):
    """The factor pairs of sign * (a o b): sigma(a) sigma(b) and T(a, b);
    none when a factor is zero."""
    if not (a.p.num and b.p.num):
        return []
    return [(a.p if sign == 1 else -a.p, b.p)] + _tail_pairs(a, b, sign)


def _bracket_pairs(a, b):
    """The factor pairs of [a, b] = T(a, b) - T(b, a), without the product
    that cancels."""
    return _tail_pairs(a, b) + _tail_pairs(b, a, -1)


def _op_dot(n, pairs):
    """The ScalarOp in n variables whose total symbol is the sum of the
    products of the factor pairs."""
    return ScalarOp._trusted(n, dot(2 * n, pairs))


def _bracket(a, b):
    """[a, b] of two ScalarOps in n variables."""
    return _op_dot(a.n, _bracket_pairs(a, b))


def commutator(op1, op2):
    """[op1, op2] = op1 o op2 - op2 o op1 (both scalar or both matrix); matrix entry
    (i, j) is one dot over the factor pairs of U_il o V_lj - V_il o U_lj, those of
    l = i = j by `_bracket_pairs`."""
    scalar = isinstance(op1, ScalarOp) and isinstance(op2, ScalarOp)
    if not scalar and not (isinstance(op1, MatrixOp) and isinstance(op2, MatrixOp)):
        raise TypeError("commutator expects two ScalarOps or two MatrixOps")
    if op1.n != op2.n or not scalar and op1.m != op2.m:
        raise ValueError("dimension mismatch")
    if scalar:
        return _bracket(op1, op2)
    n, m, U, V = op1.n, op1.m, op1.entries, op2.entries
    out = []
    for i, j in itertools.product(range(m), repeat=2):
        pairs = _bracket_pairs(U[i][i], V[i][i]) if i == j else []
        for l in range(m):
            if not i == j == l:
                pairs += _compose_pairs(U[i][l], V[l][j]) + _compose_pairs(V[i][l], U[l][j], -1)
        out.append(_op_dot(n, pairs))
    return MatrixOp(n, [out[i * m:(i + 1) * m] for i in range(m)])


def graded_operands(x, y):
    """(u, v, sign) with [x, y] = sign [u, v] for a graded bracket of two
    homogeneous derivations, operators or symbols, or None when the grades
    (the class attribute `grade`) sum outside {-1, 0, 1}: the bracket is 0.

    Skew-symmetry [y, x] = -(-1)^(|x||y|) [x, y] gives the canonical order
    (|u|, |v|) in (0, 0), (0, 1), (0, -1), (1, -1).  Raises TypeError unless
    both operands have a grade and one module (elements of A (+) P are not
    operands), then ValueError on a dimension mismatch (m is not compared
    with grade -1) or when grade -1 meets rank m != 1.
    """
    gx, gy = getattr(x, "grade", None), getattr(y, "grade", None)
    if gx is None or gy is None or isinstance(x, (Poly, PolyVec)) \
            or type(x).__module__ != type(y).__module__:
        raise TypeError("not homogeneous values of one graded family: %r, %r" % (x, y))
    if x.n != y.n or (gx != -1 and gy != -1 and x.m != y.m):
        raise ValueError("dimension mismatch")
    if abs(gx + gy) > 1:
        return None
    sign = 1
    if gx % 3 > gy % 3:  # the canonical grade order is 0, 1, -1
        x, y, sign = y, x, (1 if gx * gy % 2 else -1)
    if y.grade == -1 and x.m != 1:
        raise ValueError("degree -1 requires rank 1")
    return x, y, sign


def delta(a, op):
    """delta_a(op) = (mult by a) o op - op o (mult by a).

    Works for ScalarOp and MatrixOp (entrywise, since multiplication by a
    acts diagonally).
    """
    if not isinstance(op, (ScalarOp, MatrixOp)):
        raise TypeError("delta expects a ScalarOp or MatrixOp")
    if a.n != op.n:
        raise ValueError("dimension mismatch")
    ma = ScalarOp.mult(a)
    if isinstance(op, ScalarOp):
        return _bracket(ma, op)
    return op.map(lambda e: _bracket(ma, e))


def delta_nest(args, op):
    """delta_{a_1} o ... o delta_{a_k} applied to op."""
    for a in reversed(args):
        op = delta(a, op)
    return op


def verify_order(op, k):
    """True iff op has order <= k; k = -1 asks whether op is zero.

    Runs two independent routes and insists that they agree: direct
    coefficient inspection, and vanishing of all coordinate delta-nests of
    depth k+1 evaluated on a spanning monomial set.  (Nests over the
    coordinate functions already separate orders on the polynomial ring:
    the nest indexed by a multiset gamma, |gamma| = k+1, maps a_sigma
    d^sigma to a nonzero multiple of a_sigma d^(sigma-gamma) precisely
    when gamma <= sigma.  At k = -1 the only nest is op itself.)
    """
    if k < -1:
        raise ValueError("order bound must be >= -1")
    by_coeff = op.order() <= k
    n = op.n
    probe_deg = max(k + 1, op.order())
    probes = [Poly.monomial(n, s) for s in monomials_up_to(n, probe_deg)]
    by_delta = True
    for combo in itertools.combinations_with_replacement(range(1, n + 1), k + 1):
        nest = delta_nest([Poly.var(n, i) for i in combo], op)
        if isinstance(nest, ScalarOp):
            if any(not nest(p).is_zero() for p in probes):
                by_delta = False
                break
        else:
            vecs = [PolyVec.basis(n, nest.m, j) * p for p in probes for j in range(nest.m)]
            if any(not (nest @ v).is_zero() for v in vecs):
                by_delta = False
                break
    if by_coeff != by_delta:
        raise RouteError("order checks disagree; operator storage is corrupt")
    return by_coeff


class MatrixOp(_Linear):
    """m x m matrix of scalar operators, acting on PolyVec."""

    __slots__ = ("n", "m", "entries")

    def __init__(self, n, entries):
        entries = tuple(tuple(r) for r in entries)
        m = len(entries)
        for r in entries:
            if len(r) != m:
                raise ValueError("matrix must be square")
            for e in r:
                if not isinstance(e, ScalarOp) or e.n != n:
                    raise ValueError("entries must be ScalarOp in %d variables" % n)
        self.n = n
        self.m = m
        self.entries = entries

    @classmethod
    def zero(cls, n, m):
        z = ScalarOp.zero(n)
        return cls(n, [[z] * m for _ in range(m)])

    @classmethod
    def scalar_times_identity(cls, op, m):
        z = ScalarOp.zero(op.n)
        return cls(op.n, [[op if i == j else z for j in range(m)] for i in range(m)])

    @classmethod
    def from_polymat(cls, g):
        return cls(g.n, [[ScalarOp.mult(a) for a in r] for r in g.rows])

    def order(self):
        return max((e.order() for r in self.entries for e in r), default=-1)

    def map(self, fn):
        return MatrixOp(self.n, [[fn(e) for e in r] for r in self.entries])

    def _parts(self):
        return self.entries

    def _rebuild(self, parts, other=None):
        return MatrixOp(self.n, parts)

    def __matmul__(self, other):
        if not isinstance(other, (PolyVec, MatrixOp)):
            return NotImplemented
        if self.n != other.n or self.m != other.m:
            raise ValueError("dimension mismatch")
        n = self.n
        if isinstance(other, PolyVec):
            return PolyVec(n, [dot(n, [pair for a, f in zip(row, other.comps)
                                       for pair in a._action_pairs(f)])
                               for row in self.entries])
        cols = list(zip(*other.entries))
        return MatrixOp(n, [[_op_dot(n, [pair for a, b in zip(row, col)
                                         for pair in _compose_pairs(a, b)])
                             for col in cols] for row in self.entries])

    def order_zero_polymat(self):
        """Read the order-0 part off as a PolyMat (entries must be order <= 0)."""
        rows = []
        for r in self.entries:
            row = []
            for e in r:
                if e.order() > 0:
                    raise ValueError("entry has positive order")
                row.append(e.constant_coeff())
            rows.append(row)
        return PolyMat(self.n, rows)

    def __str__(self):
        return "[" + "; ".join(", ".join(str(e) for e in r) for r in self.entries) + "]"

    __repr__ = __str__


class VectorField(_Linear):
    """Derivation sum_i X_i d/dx_i of A; annihilates constants."""

    __slots__ = ("n", "comps")

    def __init__(self, n, comps):
        comps = tuple(comps)
        if len(comps) != n or any(not isinstance(p, Poly) or p.n != n for p in comps):
            raise ValueError("need %d Poly components" % n)
        self.n = n
        self.comps = comps

    @classmethod
    def zero(cls, n):
        return cls(n, [Poly.zero(n)] * n)

    @classmethod
    def coordinate(cls, n, i):
        """d/dx_i as a vector field."""
        return cls(n, [Poly.one(n) if j == i - 1 else Poly.zero(n) for j in range(n)])

    def to_scalar_op(self):
        acc = {}
        for i, a in enumerate(self.comps):
            if not a.is_zero():
                acc[tuple(1 if j == i else 0 for j in range(self.n))] = a
        return ScalarOp(self.n, acc)

    def __call__(self, p):
        if isinstance(p, Poly):
            return dot(self.n, self._action_pairs(p))
        if isinstance(p, PolyVec):
            return PolyVec(self.n, [self(c) for c in p.comps])
        if isinstance(p, PolyMat):
            return p.map(self)
        raise TypeError("vector field acts on Poly, PolyVec or PolyMat")

    def bracket(self, other):
        if self.n != other.n:
            raise ValueError("mismatched variable counts")
        neg = -other
        return VectorField(self.n, [dot(self.n, self._action_pairs(y) + neg._action_pairs(x))
                                    for x, y in zip(self.comps, other.comps)])

    def _action_pairs(self, p):
        """The factor pairs (X_i, d_i p) of X(p)."""
        return [(a, p.partial(i + 1)) for i, a in enumerate(self.comps) if a.num]

    def _parts(self):
        return self.comps

    def _rebuild(self, parts, other=None):
        return VectorField(self.n, parts)

    def __str__(self):
        return "(" + ", ".join(str(a) for a in self.comps) + ")"

    __repr__ = __str__
