"""Sparse multivariate polynomials over Q, plus vector and matrix forms.

Coefficients are rationals and all arithmetic is exact.  A stored
coefficient is an `int` when it is integral and otherwise a
`fractions.Fraction` with denominator > 1; zeros are never stored.  An int
equals, hashes and prints like the Fraction of the same value, so readers
of `Poly.terms` may treat every coefficient as a Fraction (both have
`.numerator` and `.denominator`).  Only ints and Fractions are accepted
from outside; anything else, a float included, raises ValueError.

A sum of products sum_k a_k * b_k clears denominators once (`dot`; a
product is its one-pair case): each operand is scaled to integer
numerators over the lcm of its denominators, each pair's numerator
products are raised to the lcm D of the pairs' denominators, every
monomial product is summed into one dict of Python ints, and each output
coefficient is divided by D at the end, with one gcd.

A multi-index is a plain tuple of non-negative ints whose length is the
ambient variable count n; variables are named x1..xn (1-based in text and
in the public API, 0-based inside exponent tuples).

Text grammar (shared with the CLI):

    poly   := ('+'|'-')? term (('+'|'-') term)*
    term   := (coeff | factor) ('*' factor)*
    factor := 'x'INDEX ('^'EXP)?
    coeff  := INT | INT'/'INT

Whitespace is insignificant.  Printing is canonical (descending
graded-lex), and parse(print(p)) == p.

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
    """The stored form of an outside coefficient; anything but an int (not
    a bool) or a Fraction raises ValueError, since a float would enter as
    its binary expansion."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int) and not isinstance(c, bool):
        return int(c)
    raise ValueError("coefficient must be an int or a Fraction, not %r" % (c,))


def _integral(terms):
    """(d, [(sigma, c * d)]) for stored terms, with d the lcm of their
    denominators, so that every c * d is an int."""
    d = 1
    for c in terms.values():
        if type(c) is not int:
            d = lcm(d, c.denominator)
    if d == 1:
        return 1, terms.items()
    return d, [(s, c * d if type(c) is int else c.numerator * (d // c.denominator))
               for s, c in terms.items()]


def _scaled(terms, c):
    """{sigma: v * c} in stored form, for a nonzero int or Fraction c."""
    out = {}
    for s, v in terms.items():
        v *= c
        if type(v) is not int and v.denominator == 1:
            v = v.numerator
        out[s] = v
    return out


def _mismatch(n, k):
    return ValueError("mismatched variable counts: %d vs %d" % (n, k))


def dot(n, pairs):
    """The Poly sum of a * b over the pairs (a, b) of Polys in n variables,
    accumulated as integer numerators over one common denominator."""
    scaled = []
    d = 1
    for a, b in pairs:
        if a.n != n or b.n != n:
            raise _mismatch(n, b.n if a.n == n else a.n)
        if a.terms and b.terms:
            d1, items1 = _integral(a.terms)
            d2, items2 = _integral(b.terms)
            scaled.append((d1 * d2, items1, items2))
            d = lcm(d, d1 * d2)
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
    if d == 1:
        return Poly._trusted(n, {s: v for s, v in acc.items() if v})
    terms = {}
    for s, v in acc.items():
        if v:
            g = gcd(v, d)
            terms[s] = v // d if g == d else Fraction(v // g, d // g)
    return Poly._trusted(n, terms)


class Poly:
    """Element of Q[x1..xn]: a finite map multi-index -> nonzero rational."""

    __slots__ = ("n", "terms")
    grade = 0

    def __init__(self, n, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        for sigma, c in items:
            sigma = tuple(sigma)
            if len(sigma) != n or any(e < 0 for e in sigma):
                raise ValueError("bad multi-index %r for n=%d" % (sigma, n))
            c = _rational(c)
            if c:
                c0 = acc.get(sigma)
                c = c if c0 is None else _rational(c0 + c)
                if c:
                    acc[sigma] = c
                elif sigma in acc:
                    del acc[sigma]
        self.n = n
        self.terms = acc

    # -- constructors ------------------------------------------------

    @classmethod
    def _trusted(cls, n, terms):
        """The Poly over terms that are already in stored form (exponent
        tuples of length n, no zeros, int-or-Fraction coefficients); derived
        values come from here and skip the validation of __init__."""
        out = cls.__new__(cls)
        out.n = n
        out.terms = terms
        return out

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

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(s) for s in self.terms), default=-1)

    def coeff(self, sigma):
        return self.terms.get(tuple(sigma), 0)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction)):
                other = Poly.const(self.n, other)
            elif not isinstance(other, Poly):
                return NotImplemented
        if self.n != other.n:
            raise _mismatch(self.n, other.n)
        acc = dict(self.terms)
        get = acc.get
        for s, c in other.terms.items():
            v = get(s)
            if v is None:
                acc[s] = c
                continue
            v += c
            if not v:
                del acc[s]
            elif type(v) is not int and v.denominator == 1:
                acc[s] = v.numerator
            else:
                acc[s] = v
        return Poly._trusted(self.n, acc)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.n, {s: -c for s, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction)):
                other = Poly.const(self.n, other)
            elif not isinstance(other, Poly):
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction)):
                if not other:
                    return Poly.zero(self.n)
                return Poly._trusted(self.n, _scaled(self.terms, other))
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
            if isinstance(other, (int, Fraction)):
                other = Poly.const(self.n, other)
            elif not isinstance(other, Poly):
                return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    # -- calculus ----------------------------------------------------

    def partial(self, i):
        """Formal partial derivative with respect to x_i, 1 <= i <= n."""
        if not 1 <= i <= self.n:
            raise ValueError("variable index out of range: %d" % i)
        j = i - 1
        terms = {}
        for s, c in self.terms.items():
            e = s[j]
            if e:
                c *= e
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                terms[s[:j] + (e - 1,) + s[j + 1:]] = c
        return Poly._trusted(self.n, terms)

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
        terms = {}
        for s, c in self.terms.items():
            f = 1
            for i, k in steps:
                if s[i] < k:
                    break
                f *= perm(s[i], k)
            else:
                c *= f
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                terms[tuple(map(operator.sub, s, sigma))] = c
        return Poly._trusted(self.n, terms)

    # -- printing ----------------------------------------------------

    def __str__(self):
        return format_terms(self.terms, var_names("x", self.n))

    def __repr__(self):
        return "Poly(%d, %s)" % (self.n, str(self))


@functools.lru_cache(maxsize=None)
def var_names(letter, n):
    """The names letter1..letter<n> (a tuple; one per variable count)."""
    return tuple("%s%d" % (letter, j + 1) for j in range(n))


def format_terms(terms, names):
    """Canonical text of {exponent tuple: nonzero Fraction} in the named
    variables: descending total degree, first variable major."""
    if not terms:
        return "0"
    parts = []
    for sigma in sorted(terms, key=_print_key):
        c = terms[sigma]
        factors = []
        for x, e in zip(names, sigma):
            if e:
                factors.append(x if e == 1 else "%s^%d" % (x, e))
        body = "*".join(factors)
        mag = abs(c)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = "%s*%s" % (mag, body)
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
        if mo.lastgroup == "var":
            tokens.append(("var", mo.group(), pos))
        elif mo.lastgroup == "int":
            tokens.append(("int", mo.group(), pos))
        elif mo.lastgroup == "op":
            tokens.append(("op", mo.group(), pos))
        pos = mo.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, n, letters):
        self.tokens = tokenize(text)
        self.i = 0
        self.n = n
        self.letters = letters

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
        """Return a list of (int or Fraction, {letter: exponent tuple}) terms."""
        terms = []
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        terms.append(self.term(sign))
        while True:
            kind, val, pos = self.peek()
            if kind == "end":
                return terms
            if kind != "op" or val not in "+-":
                raise ParseError("expected '+' or '-'", pos)
            self.next()
            terms.append(self.term(-1 if val == "-" else 1))

    def term(self, sign):
        coeff = sign
        expos = {letter: [0] * self.n for letter in self.letters}
        kind, val, pos = self.peek()
        if kind == "int":
            self.next()
            num = int(val)
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.next()
                dpos = self.peek()[2]
                den = self.expect_int("denominator")
                if den == 0:
                    raise ParseError("zero denominator", dpos)
                coeff *= Fraction(num, den)
            else:
                coeff *= num
        elif kind == "var":
            self.factor(expos)
        else:
            raise ParseError("expected a term", pos)
        while self.peek()[:2] == ("op", "*"):
            self.next()
            self.factor(expos)
        return coeff, {letter: tuple(v) for letter, v in expos.items()}

    def factor(self, expos):
        kind, val, pos = self.next()
        if kind != "var":
            raise ParseError("expected a variable", pos)
        letter, idx = val[0], int(val[1:])
        if letter not in self.letters:
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
        expos[letter][idx - 1] += exp


def parse_terms(text, n, letters=("x",)):
    return _Parser(text, n, letters).parse()


def parse_poly(text, n):
    """Parse the shared polynomial grammar into a Poly."""
    acc = {}
    for coeff, expos in parse_terms(text, n, ("x",)):
        sigma = expos["x"]
        acc[sigma] = acc.get(sigma, 0) + coeff
    return Poly(n, acc)


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
