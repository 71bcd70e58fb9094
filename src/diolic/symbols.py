"""The graded symbol algebra on (x, xi) and its canonical Poisson bracket.

The top-order part of a scalar operator of order k is the polynomial
sum_{|sigma|=k} a_sigma(x) xi^sigma, homogeneous of degree k in the
momentum variables xi_1..xi_n (written k1..kn in text form).  Symbols
multiply commutatively, and

    {F, G} = sum_i dF/dxi_i dG/dx_i - dF/dx_i dG/dxi_i

is the unique bracket satisfying {smbl(D), smbl(E)} = smbl([D, E]).

Degree-0 diolic symbols are pairs (s, Ms) of a scalar symbol of xi-degree
k and an m x m matrix of xi-degree k-1 symbols, mirroring the split form
of degree-0 operators; degree-1 symbols are columns.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import ParseError, Poly, mi_add, parse_terms
from .ops import ScalarOp
from .derivations import Der0
from .diffops import DiffOp0, DiffOp1, DiffOpNeg1


class SymbolPoly:
    """Polynomial on (x, xi), homogeneous of degree k in xi."""

    __slots__ = ("n", "k", "terms")

    def __init__(self, n, k, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        for (xs, ks), c in items:
            xs, ks = tuple(xs), tuple(ks)
            if len(xs) != n or len(ks) != n:
                raise ValueError("bad exponent pair")
            if sum(ks) != k:
                raise ValueError("term is not xi-homogeneous of degree %d" % k)
            c = Fraction(c)
            if c:
                key = (xs, ks)
                prev = acc.get(key)
                c = c if prev is None else prev + c
                if c:
                    acc[key] = c
                elif key in acc:
                    del acc[key]
        self.n = n
        self.k = k
        self.terms = acc

    @classmethod
    def zero(cls, n, k=0):
        return cls(n, k)

    @classmethod
    def from_poly(cls, p):
        """A polynomial in x viewed as a xi-degree-0 symbol."""
        z = (0,) * p.n
        return cls(p.n, 0, {(s, z): c for s, c in p.terms.items()})

    @classmethod
    def xi(cls, n, i):
        """The momentum variable xi_i, 1 <= i <= n."""
        ks = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls(n, 1, {((0,) * n, ks): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")

    def __add__(self, other):
        if not isinstance(other, SymbolPoly):
            return NotImplemented
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.k != other.k:
            raise ValueError("cannot add symbols of different xi-degrees")
        acc = dict(self.terms)
        for key, c in other.terms.items():
            v = acc.get(key, Fraction(0)) + c
            if v:
                acc[key] = v
            elif key in acc:
                del acc[key]
        return SymbolPoly(self.n, self.k, acc)

    def __neg__(self):
        return SymbolPoly(self.n, self.k, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SymbolPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """The commutative symbol product."""
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return SymbolPoly(self.n, self.k,
                              {key: v * c for key, v in self.terms.items()})
        if not isinstance(other, SymbolPoly):
            return NotImplemented
        self._check(other)
        acc = {}
        for (xs1, ks1), c1 in self.terms.items():
            for (xs2, ks2), c2 in other.terms.items():
                key = (mi_add(xs1, xs2), mi_add(ks1, ks2))
                v = acc.get(key, Fraction(0)) + c1 * c2
                if v:
                    acc[key] = v
                elif key in acc:
                    del acc[key]
        return SymbolPoly(self.n, self.k + other.k, acc)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SymbolPoly):
            return NotImplemented
        # zero symbols of different nominal degrees are still equal
        return self.n == other.n and self.terms == other.terms and (
            not self.terms or self.k == other.k)

    __hash__ = None

    def dx(self, i):
        """d/dx_i."""
        j = i - 1
        acc = {}
        for (xs, ks), c in self.terms.items():
            e = xs[j]
            if e:
                key = (xs[:j] + (e - 1,) + xs[j + 1:], ks)
                acc[key] = acc.get(key, Fraction(0)) + c * e
        return SymbolPoly(self.n, self.k, acc)

    def dxi(self, i):
        """d/dxi_i; lowers the xi-degree by one."""
        j = i - 1
        acc = {}
        for (xs, ks), c in self.terms.items():
            e = ks[j]
            if e:
                key = (xs, ks[:j] + (e - 1,) + ks[j + 1:])
                acc[key] = acc.get(key, Fraction(0)) + c * e
        return SymbolPoly(self.n, max(self.k - 1, 0), acc)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (xs, ks) in sorted(self.terms,
                               key=lambda t: (-sum(t[0]) - sum(t[1]),
                                              tuple(-e for e in t[0] + t[1]))):
            c = self.terms[(xs, ks)]
            factors = []
            for j, e in enumerate(xs):
                if e:
                    factors.append("x%d" % (j + 1) + ("^%d" % e if e > 1 else ""))
            for j, e in enumerate(ks):
                if e:
                    factors.append("k%d" % (j + 1) + ("^%d" % e if e > 1 else ""))
            mag = abs(c)
            if factors:
                body = "*".join(factors) if mag == 1 else "%s*%s" % (mag, "*".join(factors))
            else:
                body = str(mag)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    __repr__ = __str__


def parse_symbol(text, n):
    """Parse the poly grammar extended with momentum variables k1..kn."""
    acc = {}
    for coeff, expos in parse_terms(text, n, ("x", "k")):
        key = (expos["x"], expos["k"])
        acc[key] = acc.get(key, Fraction(0)) + coeff
    degs = {sum(ks) for (_, ks), c in acc.items() if c}
    if len(degs) > 1:
        raise ParseError("symbol is not homogeneous in the momentum variables", 0)
    if not degs and any(sum(ks) for _, ks in acc):
        raise ParseError("the momentum terms cancel; write 0 for the zero symbol", 0)
    k = degs.pop() if degs else 0
    return SymbolPoly(n, k, acc)


def smbl_scalar(op, k):
    """The order-k symbol sum_{|sigma|=k} a_sigma xi^sigma of a scalar operator."""
    if op.order() > k:
        raise ValueError("operator order %d exceeds %d" % (op.order(), k))
    acc = {}
    for sigma, a in op.coeffs.items():
        if sum(sigma) == k:
            for mu, c in a.terms.items():
                acc[(mu, sigma)] = c
    return SymbolPoly(op.n, k, acc)


def scalar_from_symbol(s):
    """The canonical coefficients-left operator with the given top symbol."""
    coeffs = {}
    for (xs, ks), c in s.terms.items():
        coeffs.setdefault(ks, Poly.zero(s.n))
        coeffs[ks] = coeffs[ks] + Poly.monomial(s.n, xs, c)
    return ScalarOp(s.n, coeffs)


def star(s1, s2):
    """Commutative product on symbols; smbl(D o E) = smbl(D) * smbl(E)."""
    return s1 * s2


def poisson_bracket(s1, s2):
    """{s1, s2} = sum_i ds1/dxi_i ds2/dx_i - ds1/dx_i ds2/dxi_i."""
    if s1.n != s2.n:
        raise ValueError("dimension mismatch")
    n = s1.n
    out = SymbolPoly.zero(n, max(s1.k + s2.k - 1, 0))
    for i in range(1, n + 1):
        out = out + s1.dxi(i) * s2.dx(i) - s1.dx(i) * s2.dxi(i)
    return out


def hamiltonian_apply(s, t):
    """The derivation {s, -} applied to t."""
    return poisson_bracket(s, t)


# ---------------------------------------------------------------------------
# diolic symbols


class DiolicSymbol0:
    """Pair (s, Ms): scalar xi-degree-k symbol plus matrix of degree k-1."""

    __slots__ = ("n", "m", "k", "s", "Ms")

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

    def is_zero(self):
        return self.s.is_zero() and all(e.is_zero() for r in self.Ms for e in r)

    def __eq__(self, other):
        if not isinstance(other, DiolicSymbol0):
            return NotImplemented
        return self.s == other.s and all(
            a == b for r1, r2 in zip(self.Ms, other.Ms) for a, b in zip(r1, r2))

    __hash__ = None

    def __str__(self):
        return "(%s | %s)" % (self.s, "; ".join(
            ", ".join(str(e) for e in r) for r in self.Ms))

    __repr__ = __str__


class DiolicSymbol1:
    """Column of m scalar symbols of xi-degree k."""

    __slots__ = ("n", "m", "k", "comps")

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

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

    def __eq__(self, other):
        if not isinstance(other, DiolicSymbol1):
            return NotImplemented
        return all(a == b for a, b in zip(self.comps, other.comps))

    __hash__ = None

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.comps) + ")"

    __repr__ = __str__


class DiolicSymbolNeg1:
    """Scalar symbol of a degree -1 operator (rank 1 only)."""

    __slots__ = ("n", "k", "s")

    def __init__(self, k, s):
        self.n = s.n
        self.k = k
        self.s = s

    def is_zero(self):
        return self.s.is_zero()

    def __eq__(self, other):
        if not isinstance(other, DiolicSymbolNeg1):
            return NotImplemented
        return self.s == other.s

    __hash__ = None

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
    if isinstance(u, DiolicSymbol0) and isinstance(v, DiolicSymbol1):
        comps = []
        for j in range(v.m):
            c = poisson_bracket(u.s, v.comps[j])
            for beta in range(u.m):
                c = c + u.Ms[j][beta] * v.comps[beta]
            comps.append(c)
        return DiolicSymbol1(max(u.k + v.k - 1, 0), comps)
    if isinstance(u, DiolicSymbol1) and isinstance(v, DiolicSymbol0):
        w = diolic_poisson_bracket(v, u)
        return DiolicSymbol1(w.k, [-c for c in w.comps])
    if isinstance(u, DiolicSymbol0) and isinstance(v, DiolicSymbol0):
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
        return DiolicSymbol0(max(u.k + v.k - 1, 0), s, Ms)
    if isinstance(u, DiolicSymbol0) and isinstance(v, DiolicSymbolNeg1):
        if u.m != 1:
            raise ValueError("degree -1 requires rank 1")
        return DiolicSymbolNeg1(max(u.k + v.k - 1, 0),
                                poisson_bracket(u.s, v.s) - v.s * u.Ms[0][0])
    if isinstance(u, DiolicSymbolNeg1) and isinstance(v, DiolicSymbol0):
        w = diolic_poisson_bracket(v, u)
        return DiolicSymbolNeg1(w.k, -w.s)
    if isinstance(u, DiolicSymbol1) and isinstance(v, DiolicSymbol1):
        return 0
    if isinstance(u, DiolicSymbolNeg1) and isinstance(v, DiolicSymbolNeg1):
        return 0
    raise TypeError("unsupported operand pair")


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
    nest_a = b.boxA
    nest_m = b.M
    for a in args:
        ma = ScalarOp.mult(a)
        nest_a = ma @ nest_a - nest_a @ ma
        nest_m = nest_m.map(lambda e: ma @ e - e @ ma)
    if nest_a.order() > 1 or nest_m.order() > 0:
        raise AssertionError("delta nest failed to reduce the order")
    return Der0(nest_a.first_order_part(), nest_m.order_zero_polymat())
