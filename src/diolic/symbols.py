"""The graded symbol algebra on (x, xi) and its canonical Poisson bracket.

A scalar operator is stored as its total symbol, a Poly in (x, xi) (see
`ops`), so its order-k symbol sum_{|sigma|=k} a_sigma(x) xi^sigma is a
filter: the terms of the stored total symbol of xi-degree k.  A symbol is
homogeneous of degree k in the momentum variables xi_1..xi_n (written
k1..kn in text form).  Symbols multiply commutatively, and

    {F, G} = sum_i dF/dxi_i dG/dx_i - dF/dx_i dG/dxi_i

is the unique bracket satisfying {smbl(D), smbl(E)} = smbl([D, E]).

Degree-0 diolic symbols are pairs (s, Ms) of a scalar symbol of xi-degree
k and an m x m matrix of xi-degree k-1 symbols, mirroring the split form
of degree-0 operators; degree-1 symbols are columns.  Each class holds its
degree in `grade`; the bracket orders its operands by `ops.graded_operands`.
In a sum of symbols of any class a zero operand takes the xi-degree k of
the other (`_sum_degree`).
"""

from __future__ import annotations

from .poly import (ParseError, Poly, _Linear, _normal, dot, format_terms, parse_terms, sum_terms,
                   var_names)
from .ops import RouteError, ScalarOp, delta_nest, graded_operands, lift
from .derivations import Der0
from .diffops import DiffOp0, DiffOp1, DiffOpNeg1


def _sum_degree(a, b=None):
    """xi-degree k of a sum or difference of a and b (of a alone if b is
    None): a zero operand takes the k of the other; two nonzero operands
    of different k raise ValueError."""
    if b is None:
        return a.k
    if a.is_zero():
        return b.k
    if b.k != a.k and not b.is_zero():
        raise ValueError("cannot add symbols of different xi-degrees")
    return a.k


class SymbolPoly(_Linear):
    """Polynomial on (x, xi), homogeneous of degree k in xi.

    Stored as a Poly `p` in the 2n variables x1..xn, xi_1..xi_n.  A zero
    symbol takes the degree of the other operand in a sum, and zero
    symbols of different nominal degrees are equal.
    """

    __slots__ = ("n", "k", "p")

    def __init__(self, n, k, p=None):
        p = Poly.zero(2 * n) if p is None else p
        if p.n != 2 * n:
            raise ValueError("a symbol in %d variables is a Poly in %d" % (n, 2 * n))
        if any(sum(s[n:]) != k for s in p.num):
            raise ValueError("term is not xi-homogeneous of degree %d" % k)
        self.n = n
        self.k = k
        self.p = p

    @classmethod
    def zero(cls, n, k=0):
        return cls(n, k)

    @classmethod
    def from_poly(cls, p):
        """A polynomial in x viewed as a xi-degree-0 symbol."""
        return cls(p.n, 0, lift(p))

    @classmethod
    def xi(cls, n, i):
        """The momentum variable xi_i, 1 <= i <= n."""
        return cls(n, 1, Poly.var(2 * n, n + i))

    @property
    def terms(self):
        """Read-only view {(x exponents, xi exponents): coefficient}."""
        n = self.n
        return {(s[:n], s[n:]): c for s, c in self.p.terms.items()}

    def _parts(self):
        return (self.p,)

    def _rebuild(self, parts, other=None):
        return SymbolPoly(self.n, _sum_degree(self, other), parts[0])

    def __mul__(self, other):
        """The commutative symbol product; a Poly in x is a xi-degree-0 symbol."""
        if isinstance(other, Poly):
            other = SymbolPoly.from_poly(other)
        if not isinstance(other, SymbolPoly):
            return _Linear.__mul__(self, other)
        return SymbolPoly(self.n, self.k + other.k, self.p * other.p)

    __rmul__ = __mul__

    def dx(self, i):
        """d/dx_i."""
        return SymbolPoly(self.n, self.k, self.p.partial(i))

    def dxi(self, i):
        """d/dxi_i; lowers the xi-degree by one."""
        return SymbolPoly(self.n, max(self.k - 1, 0), self.p.partial(self.n + i))

    def __str__(self):
        return format_terms(self.p.num, self.p.den,
                            var_names("x", self.n) + var_names("k", self.n))

    __repr__ = __str__


def parse_symbol(text, n):
    """Parse the poly grammar extended with momentum variables k1..kn."""
    terms = parse_terms(text, n, ("x", "k"))
    p = sum_terms(2 * n, terms)
    degs = {sum(s[n:]) for s in p.num}
    if len(degs) > 1:
        raise ParseError("symbol is not homogeneous in the momentum variables", 0)
    if not degs and any(sum(sigma[n:]) for _, _, sigma in terms):
        raise ParseError("the momentum terms cancel; write 0 for the zero symbol", 0)
    return SymbolPoly(n, degs.pop() if degs else 0, p)


def smbl_scalar(op, k):
    """The order-k symbol sum_{|sigma|=k} a_sigma xi^sigma of a scalar
    operator: the xi-degree-k terms of its total symbol."""
    if op.order() > k:
        raise ValueError("operator order %d exceeds %d" % (op.order(), k))
    n = op.n
    return SymbolPoly(n, k, _normal(2 * n, {s: c for s, c in op.p.num.items()
                                            if sum(s[n:]) == k}, op.p.den))


def scalar_from_symbol(s):
    """The canonical coefficients-left operator with the given top symbol."""
    return ScalarOp._trusted(s.n, s.p)


def star(s1, s2):
    """Commutative product on symbols; smbl(D o E) = smbl(D) * smbl(E)."""
    return s1 * s2


def poisson_bracket(s1, s2):
    """{s1, s2} = sum_i ds1/dxi_i ds2/dx_i - ds1/dx_i ds2/dxi_i."""
    if s1.n != s2.n:
        raise ValueError("dimension mismatch")
    n, p1, p2 = s1.n, s1.p, s2.p
    pairs = []
    for i in range(1, n + 1):
        pairs += [(p1.partial(n + i), p2.partial(i)), (-p1.partial(i), p2.partial(n + i))]
    return SymbolPoly(n, max(s1.k + s2.k - 1, 0), dot(2 * n, pairs))


def hamiltonian_apply(s, t):
    """The derivation {s, -} applied to t."""
    return poisson_bracket(s, t)


# ---------------------------------------------------------------------------
# diolic symbols


class DiolicSymbol0(_Linear):
    """Pair (s, Ms): scalar xi-degree-k symbol plus matrix of degree k-1."""

    __slots__ = ("n", "m", "k", "s", "Ms")
    grade = 0

    def __init__(self, k, s, Ms):
        Ms = tuple(tuple(r) for r in Ms)
        m = len(Ms)
        if any(len(r) != m for r in Ms):
            raise ValueError("matrix part must be square")
        for r in Ms:
            for e in r:
                if not isinstance(e, SymbolPoly) or e.n != s.n:
                    raise ValueError("bad matrix symbol entry")
                if not e.is_zero() and e.k != k - 1:
                    raise ValueError("matrix entries must have xi-degree k-1")
        if not s.is_zero() and s.k != k:
            raise ValueError("scalar part must have xi-degree k")
        self.n = s.n
        self.m = m
        self.k = k
        self.s = s
        self.Ms = Ms

    def _parts(self):
        return (self.s, self.Ms)

    def _rebuild(self, parts, other=None):
        return DiolicSymbol0(_sum_degree(self, other), *parts)

    def __str__(self):
        return "(%s | %s)" % (self.s, "; ".join(
            ", ".join(str(e) for e in r) for r in self.Ms))

    __repr__ = __str__


class DiolicSymbol1(_Linear):
    """Column of m scalar symbols of xi-degree k."""

    __slots__ = ("n", "m", "k", "comps")
    grade = 1

    def __init__(self, k, comps):
        comps = tuple(comps)
        if not comps:
            raise ValueError("empty column")
        n = comps[0].n
        for c in comps:
            if not isinstance(c, SymbolPoly) or c.n != n:
                raise ValueError("bad component")
            if not c.is_zero() and c.k != k:
                raise ValueError("components must have xi-degree k")
        self.n = n
        self.m = len(comps)
        self.k = k
        self.comps = comps

    def _parts(self):
        return self.comps

    def _rebuild(self, parts, other=None):
        return DiolicSymbol1(_sum_degree(self, other), parts)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.comps) + ")"

    __repr__ = __str__


class DiolicSymbolNeg1(_Linear):
    """Scalar symbol of a degree -1 operator (rank 1 only)."""

    __slots__ = ("n", "k", "s")
    grade = -1

    def __init__(self, k, s):
        if not isinstance(s, SymbolPoly):
            raise ValueError("need a SymbolPoly")
        if not s.is_zero() and s.k != k:
            raise ValueError("symbol must have xi-degree k")
        self.n = s.n
        self.k = k
        self.s = s

    def _parts(self):
        return (self.s,)

    def _rebuild(self, parts, other=None):
        return DiolicSymbolNeg1(_sum_degree(self, other), *parts)

    def __str__(self):
        return str(self.s)

    __repr__ = __str__


def diolic_symbol0(b):
    """Order-k symbol of a degree-0 operator: (smbl_k(boxA), smbl_{k-1}(M))."""
    if not isinstance(b, DiffOp0):
        raise TypeError("expected a DiffOp0")
    s = smbl_scalar(b.boxA, b.k)
    kM = max(b.k - 1, 0)
    Ms = [[smbl_scalar(b.M.entries[i][j], kM) if b.k > 0 else SymbolPoly.zero(b.n, 0)
           for j in range(b.m)] for i in range(b.m)]
    return DiolicSymbol0(b.k, s, Ms)


def diolic_symbol1(b):
    if not isinstance(b, DiffOp1):
        raise TypeError("expected a DiffOp1")
    return DiolicSymbol1(b.k, [smbl_scalar(o, b.k) for o in b.ops])


def diolic_symbol_neg1(b):
    if not isinstance(b, DiffOpNeg1):
        raise TypeError("expected a DiffOpNeg1")
    return DiolicSymbolNeg1(b.k, smbl_scalar(b.op, b.k))


def diolic_poisson_bracket(u, v):
    """Graded Poisson bracket of diolic symbols.

    Implements the component formulas induced by the graded commutator of
    representative operators, so that the bracket of the symbols equals
    the symbol of the commutator.  Degree sums outside {-1, 0, 1} give 0.
    """
    pair = graded_operands(u, v)
    if pair is None:
        return 0
    u, v, sign = pair
    grades = (u.grade, v.grade)
    k = max(u.k + v.k - 1, 0)
    if grades == (0, 0):
        s = poisson_bracket(u.s, v.s)
        m = u.m
        Ms = []
        for i in range(m):
            row = []
            for j in range(m):
                e = poisson_bracket(u.s, v.Ms[i][j]) - poisson_bracket(v.s, u.Ms[i][j])
                for l in range(m):
                    e = e + u.Ms[i][l] * v.Ms[l][j] - v.Ms[i][l] * u.Ms[l][j]
                row.append(e)
            Ms.append(row)
        out = DiolicSymbol0(k, s, Ms)
    elif grades == (0, 1):
        comps = []
        for j in range(v.m):
            c = poisson_bracket(u.s, v.comps[j])
            for beta in range(u.m):
                c = c + u.Ms[j][beta] * v.comps[beta]
            comps.append(c)
        out = DiolicSymbol1(k, comps)
    elif grades == (0, -1):
        out = DiolicSymbolNeg1(k, poisson_bracket(u.s, v.s) - v.s * u.Ms[0][0])
    else:
        # the anticommutator (phi o Z, Z o phi) has symbols phi Z and {Z, phi}
        z = u.comps[0]
        out = DiolicSymbol0(u.k + v.k, z * v.s, [[poisson_bracket(z, v.s)]])
    return out if sign > 0 else -out


def lambda_k(b, args):
    """Nested delta of a degree-0 order-k operator, materialized as a Der0.

    Applies delta_{a_1} o ... o delta_{a_(k-1)} to both split parts; the
    derivation part of the scalar nest becomes the vector field, the
    matrix nest (order 0 by then) the endomorphism part.  The order-0
    component of the scalar nest is a multiplication operator shared by
    both parts and cancels out of the induced map, so it is discarded.
    Symmetric in the arguments; vanishes for every argument tuple iff
    boxA has order <= k-1 and M has order <= k-2.
    """
    if not isinstance(b, DiffOp0):
        raise TypeError("expected a DiffOp0")
    args = list(args)
    if len(args) != b.k - 1:
        raise ValueError("expected %d arguments, got %d" % (b.k - 1, len(args)))
    nest_a = delta_nest(args, b.boxA)
    nest_m = delta_nest(args, b.M)
    if nest_a.order() > 1 or nest_m.order() > 0:
        raise RouteError("delta nest failed to reduce the order")
    return Der0(nest_a.first_order_part(), nest_m.order_zero_polymat())
