"""Sparse multivariate polynomials over Q, plus vector and matrix forms.

Coefficients are rationals and all arithmetic is exact.  A Poly stores
them in content form, as `fmpq_poly` of FLINT does: integer numerators
`num` (multi-index -> nonzero int) over one denominator `den` >= 1, in
lowest terms (gcd(den, every numerator) = 1), so that equal polynomials
are equal pairs.  `_normal` is the one place that reduces a pair.
`Poly.terms` is a read-only view with an int where a coefficient is
integral and a Fraction otherwise; both have `.numerator` and
`.denominator`.  Only ints and Fractions are accepted from outside;
anything else, a float included, raises ValueError.

A sum of products sum_k a_k * b_k (`dot`; a product is its one-pair case)
raises each pair's numerator products to the lcm D of the pairs'
denominators, sums every monomial product into one dict of Python ints,
and reduces the result over D once.

A multi-index is a plain tuple of non-negative ints whose length is the
ambient variable count n; variables are named x1..xn (1-based in text and
in the public API, 0-based inside exponent tuples).

Text grammar (shared with the CLI):

    poly   := ('+'|'-')? term (('+'|'-') term)*
    term   := (coeff | factor) ('*' factor)*
    factor := 'x'INDEX ('^'EXP)?
    coeff  := INT | INT'/'INT

Whitespace is insignificant.  Printing is canonical (descending
graded-lex), and parse(print(p)) == p.  Both work on the content form:
the parser reads each coefficient as an integer numerator and denominator
and `sum_terms` puts them over the lcm of the denominators, and the
printer reduces each numerator against `den` by one gcd; neither builds a
Fraction.

`_Linear` is the one base of every value class of the package that adds,
negates, scales and compares part by part (vectors, matrices, operators,
derivations, symbols).  `GradedMap` is the one rule by which derivations
and differential operators act on an element of A (+) P, `DiolicElement`.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from fractions import Fraction
from math import gcd, lcm, perm


class ParseError(ValueError):
    """Malformed polynomial text; `position` is the 0-based offset."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


def grlex_key(sigma):
    """Sort key for ascending graded-lex order: (1,0) before (0,1)."""
    return (sum(sigma), tuple(-e for e in sigma))


def _print_key(sigma):
    # descending total degree, x1-major inside each degree block
    return (-sum(sigma), tuple(-e for e in sigma))


def monomials_up_to(n, d):
    """All multi-indices sigma with |sigma| <= d in graded-lex order.

    The list has length C(n+d, d).
    """
    if n < 1:
        raise ValueError("variable count must be >= 1")
    if d < 0:
        raise ValueError("degree bound must be >= 0")
    return list(_monomials(n, d))


@functools.lru_cache(maxsize=64)
def _monomials(n, d):
    return tuple(sorted((s for s in itertools.product(range(d + 1), repeat=n)
                         if sum(s) <= d), key=grlex_key))


def mi_add(s, t):
    return tuple(map(operator.add, s, t))


def mi_sub(s, t):
    return tuple(map(operator.sub, s, t))


def _rational(c):
    """The value of an outside coefficient: an int when it is integral, else
    a Fraction.  Anything but an int (not a bool) or a Fraction raises
    ValueError, since a float would enter as its binary expansion."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int) and not isinstance(c, bool):
        return int(c)
    raise ValueError("coefficient must be an int or a Fraction, not %r" % (c,))


def _mismatch(n, k):
    return ValueError("mismatched variable counts: %d vs %d" % (n, k))


def _operand(n, other):
    """other as a Poly in n variables if it is a Poly, an int or a Fraction."""
    if isinstance(other, (int, Fraction)):
        return Poly.const(n, other)
    return other if isinstance(other, Poly) else None


def _normal(n, num, den=1):
    """The Poly num / den (num: exponent tuples of length n -> nonzero
    ints, den >= 1), reduced to lowest terms here and nowhere else;
    derived values come from here and skip the checks of Poly.__init__."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {s: v // g for s, v in num.items()}
            den //= g
    out = object.__new__(Poly)
    out.n, out.num, out.den = n, num, den
    return out


def dot(n, pairs):
    """The Poly sum of a * b over the pairs (a, b) of Polys in n variables:
    the numerator products of each pair are raised to the lcm D of the
    pairs' denominators and summed into one dict of ints over D."""
    scaled = []
    d = 1
    for a, b in pairs:
        if a.n != n or b.n != n:
            raise _mismatch(n, b.n if a.n == n else a.n)
        if a.num and b.num:
            dk = a.den * b.den
            scaled.append((dk, a.num.items(), b.num.items()))
            d = lcm(d, dk)
    acc = {}
    get = acc.get
    add = operator.add
    for dk, items1, items2 in scaled:
        f = d // dk
        for s1, c1 in items1:
            if f != 1:
                c1 *= f
            for s2, c2 in items2:
                s = tuple(map(add, s1, s2))
                acc[s] = get(s, 0) + c1 * c2
    return _normal(n, {s: v for s, v in acc.items() if v}, d)


class Poly:
    """Element of Q[x1..xn]: the numerators `num`, a map multi-index ->
    nonzero int, over the one denominator `den` >= 1, in lowest terms."""

    __slots__ = ("n", "num", "den")
    grade = 0

    def __init__(self, n, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        integral = True
        for sigma, c in items:
            sigma = tuple(sigma)
            if len(sigma) != n or any(e < 0 for e in sigma):
                raise ValueError("bad multi-index %r for n=%d" % (sigma, n))
            c = _rational(c)
            if c:
                if type(c) is not int:
                    integral = False
                c += acc.get(sigma, 0)
                if c:
                    acc[sigma] = c
                else:
                    del acc[sigma]
        den = 1
        if not integral:
            # in lowest terms: the coefficient whose denominator holds the
            # full power of a prime of den has a numerator prime to it
            den = lcm(*(c.denominator for c in acc.values()))
            acc = {s: c.numerator * (den // c.denominator) for s, c in acc.items()}
        self.n, self.num, self.den = n, acc, den

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def const(cls, n, c):
        return cls(n, {(0,) * n: c})

    @classmethod
    def one(cls, n):
        return cls.const(n, 1)

    @classmethod
    def var(cls, n, i):
        """The variable x_i, 1 <= i <= n."""
        if not 1 <= i <= n:
            raise ValueError("variable index out of range: %d" % i)
        sigma = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls(n, {sigma: 1})

    @classmethod
    def monomial(cls, n, sigma, c=1):
        return cls(n, {tuple(sigma): c})

    # -- queries -----------------------------------------------------

    @property
    def terms(self):
        """Read-only view {multi-index: nonzero coefficient}, each an int
        when it is integral, else a Fraction; it is `num` itself when den
        is 1, so it must not be changed."""
        if self.den == 1:
            return self.num
        return {s: _rational(Fraction(v, self.den)) for s, v in self.num.items()}

    def is_zero(self):
        return not self.num

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(s) for s in self.num), default=-1)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        if type(other) is not Poly:
            other = _operand(self.n, other)
            if other is None:
                return NotImplemented
        if self.n != other.n:
            raise _mismatch(self.n, other.n)
        a, b = self.den, other.den
        if a == b:
            den, f, acc = a, 1, dict(self.num)
        else:
            den = lcm(a, b)
            f = den // b
            acc = {s: v * (den // a) for s, v in self.num.items()}
        get = acc.get
        for s, c in other.num.items():
            if f != 1:
                c *= f
            v = get(s)
            if v is None:
                acc[s] = c
                continue
            v += c
            if v:
                acc[s] = v
            else:
                del acc[s]
        return _normal(self.n, acc, den)

    __radd__ = __add__

    def __neg__(self):
        return _normal(self.n, {s: -v for s, v in self.num.items()}, self.den)

    def __sub__(self, other):
        if type(other) is not Poly:
            other = _operand(self.n, other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction)):
                if not other:
                    return Poly.zero(self.n)
                k = other.numerator
                return _normal(self.n, {s: v * k for s, v in self.num.items()},
                               self.den * other.denominator)
            if not isinstance(other, Poly):
                return NotImplemented
        return dot(self.n, ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power")
        out = Poly.one(self.n)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        if type(other) is not Poly:
            other = _operand(self.n, other)
            if other is None:
                return NotImplemented
        return self.n == other.n and self.den == other.den and self.num == other.num

    __hash__ = None

    # -- calculus ----------------------------------------------------

    def partial(self, i):
        """Formal partial derivative with respect to x_i, 1 <= i <= n."""
        if not 1 <= i <= self.n:
            raise ValueError("variable index out of range: %d" % i)
        j = i - 1
        num = {}
        for s, v in self.num.items():
            e = s[j]
            if e:
                num[s[:j] + (e - 1,) + s[j + 1:]] = v * e
        return _normal(self.n, num, self.den)

    def partial_sigma(self, sigma):
        """Iterated derivative d^sigma: c x^s goes to
        c prod_i s_i!/(s_i - sigma_i)! x^(s - sigma) when s >= sigma, and
        to 0 otherwise."""
        sigma = tuple(sigma)
        if len(sigma) != self.n:
            raise ValueError("bad multi-index %r for n=%d" % (sigma, self.n))
        steps = [(i, k) for i, k in enumerate(sigma) if k]
        if not steps:
            return self
        num = {}
        for s, v in self.num.items():
            f = 1
            for i, k in steps:
                if s[i] < k:
                    break
                f *= perm(s[i], k)
            else:
                num[tuple(map(operator.sub, s, sigma))] = v * f
        return _normal(self.n, num, self.den)

    # -- printing ----------------------------------------------------

    def __str__(self):
        return format_terms(self.num, self.den, var_names("x", self.n))

    def __repr__(self):
        return "Poly(%d, %s)" % (self.n, str(self))


@functools.lru_cache(maxsize=None)
def var_names(letter, n):
    """The names letter1..letter<n> (a tuple; one per variable count)."""
    return tuple("%s%d" % (letter, j + 1) for j in range(n))


def coefficient_text(c):
    """str(c) of an int or a Fraction, also past Python's int-to-str digit
    limit (sys.get_int_max_str_digits)."""
    try:
        return str(c)
    except ValueError:
        if type(c) is not int:
            return coefficient_text(c.numerator) + "/" + coefficient_text(c.denominator)
        k = abs(c).bit_length() * 3 // 20  # about half the digits: log10(2) > 0.3
        hi, lo = divmod(abs(c), 10 ** k)
        return "-" * (c < 0) + coefficient_text(hi) + coefficient_text(lo).zfill(k)


def format_terms(num, den, names):
    """Canonical text of the polynomial {exponent tuple: nonzero int} / den
    in the named variables: descending total degree, first variable major;
    each coefficient is reduced by its own gcd with den."""
    if not num:
        return "0"
    parts = []
    for sigma in sorted(num, key=_print_key):
        c = num[sigma]
        factors = []
        for x, e in zip(names, sigma):
            if e:
                factors.append(x if e == 1 else "%s^%d" % (x, e))
        body = "*".join(factors)
        mag = abs(c)
        if not body or mag != den:
            if den == 1:
                text = coefficient_text(mag)
            else:
                g = gcd(mag, den)
                text = coefficient_text(mag // g)
                if g != den:
                    text += "/" + coefficient_text(den // g)
            body = text + "*" + body if body else text
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# parsing


_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<var>[A-Za-z]\d+)|(?P<int>\d+)|(?P<op>[-+*/^])")


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        mo = _TOKEN.match(text, pos)
        if mo is None:
            raise ParseError("unexpected character %r" % text[pos], pos)
        if mo.lastgroup != "ws":
            tokens.append((mo.lastgroup, mo.group(), pos))
        pos = mo.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, n, letters):
        self.tokens = tokenize(text)
        self.i = 0
        self.n = n
        # the exponents of letters[t] fill positions t*n .. t*n + n - 1
        self.offsets = {letter: t * n for t, letter in enumerate(letters)}

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_int(self, what):
        kind, val, pos = self.next()
        if kind != "int":
            raise ParseError("expected %s" % what, pos)
        return int(val)

    def parse(self):
        """Return a list of (numerator, denominator >= 1, exponent tuple)
        terms, the exponents of the letters one after the other."""
        terms = []
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
            elif terms:
                raise ParseError("expected '+' or '-'", pos)
            terms.append(self.term(-1 if val == "-" else 1))
            if self.peek()[0] == "end":
                return terms

    def term(self, sign):
        num, den = sign, 1
        expo = [0] * (self.n * len(self.offsets))
        kind, val, pos = self.peek()
        if kind == "int":
            self.next()
            num *= int(val)
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.next()
                dpos = self.peek()[2]
                den = self.expect_int("denominator")
                if den == 0:
                    raise ParseError("zero denominator", dpos)
        elif kind == "var":
            self.factor(expo)
        else:
            raise ParseError("expected a term", pos)
        while self.peek()[:2] == ("op", "*"):
            self.next()
            self.factor(expo)
        return num, den, tuple(expo)

    def factor(self, expo):
        kind, val, pos = self.next()
        if kind != "var":
            raise ParseError("expected a variable", pos)
        letter, idx = val[0], int(val[1:])
        offset = self.offsets.get(letter)
        if offset is None:
            raise ParseError("unknown variable letter %r" % letter, pos)
        if idx < 1:
            raise ParseError("variable index must be >= 1", pos)
        if idx > self.n:
            raise ParseError("variable index out of range: %d > n=%d" % (idx, self.n), pos)
        exp = 1
        kind2, val2, _ = self.peek()
        if kind2 == "op" and val2 == "^":
            self.next()
            epos = self.peek()[2]
            exp = self.expect_int("exponent")
            if exp < 0:
                raise ParseError("negative exponent", epos)
        expo[offset + idx - 1] += exp


def parse_terms(text, n, letters=("x",)):
    return _Parser(text, n, letters).parse()


def sum_terms(n, terms):
    """The Poly sum of num/den * x^sigma over parsed terms (num, den, sigma)
    in n variables: numerators over the lcm of the denominators."""
    d = lcm(*(den for _, den, _ in terms))
    acc = {}
    for num, den, sigma in terms:
        if num:
            acc[sigma] = acc.get(sigma, 0) + num * (d // den)
    return _normal(n, {s: v for s, v in acc.items() if v}, d)


def parse_poly(text, n):
    """Parse the shared polynomial grammar into a Poly."""
    return sum_terms(n, parse_terms(text, n, ("x",)))


# ---------------------------------------------------------------------------
# linear values, vectors and matrices


def _each(fn, parts):
    return tuple([_each(fn, x) if type(x) is tuple else fn(x) for x in parts])


def _pairwise(fn, a, b):
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return tuple([_pairwise(fn, x, y) if type(x) is tuple else fn(x, y)
                  for x, y in zip(a, b)])


def _all_zero(parts):
    return all(_all_zero(x) if type(x) is tuple else x.is_zero() for x in parts)


class _Linear:
    """A value that adds, negates, scales and compares part by part.

    A subclass supplies `_parts()`, a tuple of its parts (values with
    their own arithmetic, or nested tuples of them), and
    `_rebuild(parts, other=None)`, the value of the same class with new
    parts; `other` is the second operand of a sum or difference.  A value
    of another class gives NotImplemented, so `x == 0` is False and
    `x + y` raises TypeError; parts of different lengths raise ValueError.
    """

    __slots__ = ()

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._rebuild(_pairwise(operator.add, self._parts(), other._parts()), other)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._rebuild(_pairwise(operator.sub, self._parts(), other._parts()), other)

    def __neg__(self):
        return self._rebuild(_each(operator.neg, self._parts()))

    def __rmul__(self, other):
        """Scaling by an int, a Fraction or a polynomial function."""
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return self._rebuild(_each(functools.partial(operator.mul, other), self._parts()))

    __mul__ = __rmul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._parts() == other._parts()

    __hash__ = None

    def is_zero(self):
        return _all_zero(self._parts())


class PolyVec(_Linear):
    """Element of P = A^m: a tuple of m polynomials."""

    __slots__ = ("n", "m", "comps")
    grade = 1

    def __init__(self, n, comps):
        comps = tuple(comps)
        for p in comps:
            if not isinstance(p, Poly) or p.n != n:
                raise ValueError("components must be Poly in %d variables" % n)
        self.n = n
        self.m = len(comps)
        self.comps = comps

    @classmethod
    def zero(cls, n, m):
        return cls(n, [Poly.zero(n)] * m)

    @classmethod
    def basis(cls, n, m, j):
        """Basis section e_{j+1} (j is 0-based)."""
        if not 0 <= j < m:
            raise ValueError("basis index out of range")
        return cls(n, [Poly.one(n) if i == j else Poly.zero(n) for i in range(m)])

    def _parts(self):
        return self.comps

    def _rebuild(self, parts, other=None):
        return PolyVec(self.n, parts)

    def partial(self, i):
        return PolyVec(self.n, [p.partial(i) for p in self.comps])

    def degree(self):
        return max((p.degree() for p in self.comps), default=-1)

    def __str__(self):
        return "(" + ", ".join(str(p) for p in self.comps) + ")"

    __repr__ = __str__


class PolyMat(_Linear):
    """m x m matrix over A, i.e. an endomorphism of P in the fixed basis."""

    __slots__ = ("n", "m", "rows")

    def __init__(self, n, rows):
        rows = tuple(tuple(r) for r in rows)
        m = len(rows)
        for r in rows:
            if len(r) != m:
                raise ValueError("matrix must be square")
            for p in r:
                if not isinstance(p, Poly) or p.n != n:
                    raise ValueError("entries must be Poly in %d variables" % n)
        self.n = n
        self.m = m
        self.rows = rows

    @classmethod
    def zero(cls, n, m):
        z = Poly.zero(n)
        return cls(n, [[z] * m for _ in range(m)])

    @classmethod
    def identity(cls, n, m):
        return cls.scalar(n, m, Poly.one(n))

    @classmethod
    def scalar(cls, n, m, a):
        z = Poly.zero(n)
        return cls(n, [[a if i == j else z for j in range(m)] for i in range(m)])

    @classmethod
    def unit(cls, n, m, i, j, a=None):
        """Matrix with single entry a (default 1) at 0-based (i, j)."""
        a = Poly.one(n) if a is None else a
        z = Poly.zero(n)
        return cls(n, [[a if (r, c) == (i, j) else z for c in range(m)] for r in range(m)])

    @classmethod
    def block_diag(cls, a, b):
        if a.n != b.n:
            raise ValueError("dimension mismatch")
        n, m1, m2 = a.n, a.m, b.m
        z = Poly.zero(n)
        rows = []
        for i in range(m1):
            rows.append(list(a.rows[i]) + [z] * m2)
        for i in range(m2):
            rows.append([z] * m1 + list(b.rows[i]))
        return cls(n, rows)

    def _parts(self):
        return self.rows

    def _rebuild(self, parts, other=None):
        return PolyMat(self.n, parts)

    def __matmul__(self, other):
        if not isinstance(other, (PolyVec, PolyMat)):
            return NotImplemented
        if self.n != other.n or self.m != other.m:
            raise ValueError("dimension mismatch")
        n, rows = self.n, self.rows
        if isinstance(other, PolyVec):
            return PolyVec(n, [dot(n, zip(r, other.comps)) for r in rows])
        cols = list(zip(*other.rows))
        return PolyMat(n, [[dot(n, zip(r, c)) for c in cols] for r in rows])

    def commutator(self, other):
        return self @ other - other @ self

    def map(self, fn):
        return PolyMat(self.n, [[fn(a) for a in r] for r in self.rows])

    def __str__(self):
        return "[" + "; ".join(", ".join(str(p) for p in r) for r in self.rows) + "]"

    __repr__ = __str__


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


class GradedMap(_Linear):
    """A map of A (+) P of degree `grade` in {-1, 0, 1}: a subclass gives
    `apply_a` on A unless its grade is -1 and `apply_p` on P unless it is 1,
    since those images lie in degree -1 or 2, where A (+) P is zero."""

    __slots__ = ()

    def __call__(self, e):
        g = self.grade
        if isinstance(e, Poly):
            return Poly.zero(self.n) if g == -1 else self.apply_a(e)
        if isinstance(e, PolyVec):
            return PolyVec.zero(self.n, self.m) if g == 1 else self.apply_p(e)
        if isinstance(e, DiolicElement):
            if g == 1:
                return DiolicElement.from_p(self.apply_a(e.a))
            if g == -1:
                return DiolicElement.from_a(self.apply_p(e.p), self.m)
            return DiolicElement(self.apply_a(e.a), self.apply_p(e.p))
        raise TypeError("%s acts on Poly, PolyVec or DiolicElement" % type(self).__name__)
