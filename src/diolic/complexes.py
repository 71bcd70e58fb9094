"""Alternating-form complexes with exact rational cohomology.

Two complexes are computed here.

The Der-complex: alternating A-multilinear forms on the derivation
module of P with values in P, over the generating family
{nabla_1..nabla_n} (componentwise d/dx_i) and {E^{ab}} (the constant
basis endomorphisms, acting by (E^{ab} p) = p^b e_a).  The bracket table
of the generators is [nabla_i, nabla_j] = 0, [nabla_i, E^{ab}] = 0 and
[E^{ab}, E^{cd}] = delta^{bc} E^{ad} - delta^{da} E^{cb}.  The
differential follows the 0-based alternating-sum convention

    (dw)(D_0..D_k) = sum_i (-1)^i D_i(w(..^i..))
                   + sum_{i<j} (-1)^{i+j} w([D_i, D_j], ..^i..^j..)

which squares to zero (verified in the test suite).  Full cohomology
over the polynomial ring is a module question; what is computed here is
the Q-vector-space cohomology of the coefficient-degree <= D truncation,
which the differential preserves.

The Chevalley-Eilenberg complex of a finite-dimensional Lie algebra
acting on a finite-dimensional space uses the same convention, with
exact rank computation over Q throughout.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .poly import Poly, PolyVec, monomials_up_to
from .derivations import _sort_with_sign


class ResourceCapError(RuntimeError):
    """A requested computation exceeds the configured size cap."""


def rank(rows):
    """Rank of a matrix given as a list of rows of Fractions, exactly."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


# ---------------------------------------------------------------------------
# the Der-complex


def _basis_size(n, m):
    return n + m * m


def _basis_label(n, m, idx):
    if idx < n:
        return "nabla%d" % (idx + 1)
    a, b = divmod(idx - n, m)
    return "E(%d,%d)" % (a + 1, b + 1)


def _basis_apply(n, m, idx, vec):
    if idx < n:
        return vec.partial(idx + 1)
    a, b = divmod(idx - n, m)
    return vec.comps[b] * PolyVec.basis(n, m, a)


def _basis_bracket(n, m, i, j):
    """[D_i, D_j] expanded in the generator basis: list of (index, coeff)."""
    if i < n or j < n:
        return []
    a, b = divmod(i - n, m)
    c, d = divmod(j - n, m)
    out = []
    if b == c:
        out.append((n + a * m + d, 1))
    if d == a:
        out.append((n + c * m + b, -1))
    return out


class FatForm:
    """Alternating form of degree k on the derivation generators, P-valued."""

    __slots__ = ("n", "m", "k", "coeffs")

    def __init__(self, n, m, k, coeffs=()):
        # degrees above the basis size are allowed; only zero lives there
        size = _basis_size(n, m)
        if k < 0:
            raise ValueError("form degree out of range")
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        acc = {}
        for idx, vec in items:
            idx = tuple(idx)
            if len(idx) != k or any(not 0 <= t < size for t in idx):
                raise ValueError("bad index tuple %r" % (idx,))
            if len(set(idx)) != k or list(idx) != sorted(idx):
                raise ValueError("index tuples must be strictly increasing")
            if not isinstance(vec, PolyVec) or vec.n != n or vec.m != m:
                raise ValueError("values must be PolyVec of matching shape")
            if not vec.is_zero():
                acc[idx] = acc.get(idx, PolyVec.zero(n, m)) + vec
        self.n = n
        self.m = m
        self.k = k
        self.coeffs = {i: v for i, v in acc.items() if not v.is_zero()}

    @classmethod
    def zero(cls, n, m, k):
        return cls(n, m, k)

    @classmethod
    def from_section(cls, p):
        """Degree-0 form, i.e. just a section of P."""
        return cls(p.n, p.m, 0, {(): p})

    def value(self, idx):
        """Evaluate on an arbitrary generator tuple (antisymmetric extension)."""
        idx = tuple(idx)
        if len(set(idx)) != len(idx):
            return PolyVec.zero(self.n, self.m)
        perm_sign, key = _sort_with_sign(idx)
        base = self.coeffs.get(key)
        if base is None:
            return PolyVec.zero(self.n, self.m)
        return base if perm_sign > 0 else -base

    def __add__(self, other):
        self._check(other)
        acc = dict(self.coeffs)
        for i, v in other.coeffs.items():
            acc[i] = acc.get(i, PolyVec.zero(self.n, self.m)) + v
        return FatForm(self.n, self.m, self.k, acc)

    def __sub__(self, other):
        self._check(other)
        return self + (-other)

    def __neg__(self):
        return FatForm(self.n, self.m, self.k, {i: -v for i, v in self.coeffs.items()})

    def _check(self, other):
        if (self.n, self.m, self.k) != (other.n, other.m, other.k):
            raise ValueError("shape mismatch")

    def __eq__(self, other):
        if not isinstance(other, FatForm):
            return NotImplemented
        return (self.n, self.m, self.k) == (other.n, other.m, other.k) \
            and self.coeffs == other.coeffs

    __hash__ = None

    def is_zero(self):
        return not self.coeffs

    def coefficient_degree(self):
        return max((v.degree() for v in self.coeffs.values()), default=-1)


def der_differential(w):
    """The degree k+1 differential of a fat form."""
    n, m, k = w.n, w.m, w.k
    size = _basis_size(n, m)
    acc = {}
    for idx in itertools.combinations(range(size), k + 1):
        val = PolyVec.zero(n, m)
        for t in range(k + 1):
            rest = idx[:t] + idx[t + 1:]
            inner = w.value(rest)
            if not inner.is_zero():
                term = _basis_apply(n, m, idx[t], inner)
                val = val + term if t % 2 == 0 else val - term
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                br = _basis_bracket(n, m, idx[s], idx[t])
                if not br:
                    continue
                rest = tuple(u for r, u in enumerate(idx) if r not in (s, t))
                for bidx, c in br:
                    term = c * w.value((bidx,) + rest)
                    if not term.is_zero():
                        val = val + term if (s + t) % 2 == 0 else val - term
        if not val.is_zero():
            acc[idx] = val
    return FatForm(n, m, k + 1, acc)


def _der_cochain_basis(n, m, k, maxdeg):
    size = _basis_size(n, m)
    monos = monomials_up_to(n, maxdeg)
    return [(idx, alpha, mu)
            for idx in itertools.combinations(range(size), k)
            for alpha in range(m)
            for mu in monos]


def der_cochain_dimensions(n, m, maxdeg):
    size = _basis_size(n, m)
    nmono = len(monomials_up_to(n, maxdeg))
    from math import comb
    return [comb(size, k) * m * nmono for k in range(size + 1)]


def _betti(dims, ranks):
    """dims[k] - rank d_k - rank d_(k-1), where ranks[k] = rank d_k.

    d o d = 0 makes the image of d_(k-1) a subspace of the kernel of d_k,
    so a negative entry means the assembled differential does not square
    to zero (for CE data: c is not a Lie bracket or rho not a representation).
    """
    padded = [0] + list(ranks) + [0]
    betti = [d - padded[k] - padded[k + 1] for k, d in enumerate(dims)]
    if any(b < 0 for b in betti):
        raise ValueError("d o d != 0: negative Betti numbers %r" % (betti,))
    return betti


def der_cohomology_truncated(n, m, maxdeg, max_dim=20000):
    """Betti numbers over Q of the coefficient-degree <= maxdeg truncation.

    The differential lowers-or-keeps coefficient degree, so the truncated
    spaces form a subcomplex.  Raises if a cochain space would exceed
    max_dim.
    """
    if n < 1 or m < 1 or maxdeg < 0:
        raise ValueError("need n, m >= 1 and maxdeg >= 0")
    dims = der_cochain_dimensions(n, m, maxdeg)
    if max(dims) > max_dim:
        raise ResourceCapError("cochain dimension %d exceeds cap %d"
                               % (max(dims), max_dim))
    size = _basis_size(n, m)
    bases = [_der_cochain_basis(n, m, k, maxdeg) for k in range(size + 1)]
    ranks = []
    for k in range(size):
        pos = {key: i for i, key in enumerate(bases[k + 1])}
        cols = []
        for (idx, alpha, mu) in bases[k]:
            w = FatForm(n, m, k, {idx: Poly.monomial(n, mu) * PolyVec.basis(n, m, alpha)})
            dw = der_differential(w)
            col = [Fraction(0)] * len(bases[k + 1])
            for jdx, vec in dw.coeffs.items():
                for beta in range(m):
                    for nu, c in vec.comps[beta].terms.items():
                        col[pos[(jdx, beta, nu)]] += c
            cols.append(col)
        # rank of the transpose equals the rank
        ranks.append(rank(cols) if cols else 0)
    return _betti(dims, ranks)


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg cohomology of a finite-dimensional representation


class CEData:
    """Structure constants c[i][j][k] of a Lie algebra of dimension r and
    matrices rho[i] (d1 x d1) of a representation, all over Q."""

    __slots__ = ("r", "c", "d1", "rho")

    def __init__(self, r, c, d1, rho):
        c = tuple(tuple(tuple(Fraction(v) for v in row) for row in block) for block in c)
        if len(c) != r or any(len(b) != r for b in c) or any(
                len(row) != r for b in c for row in b):
            raise ValueError("structure constants must be r x r x r")
        rho = tuple(tuple(tuple(Fraction(v) for v in row) for row in mat) for mat in rho)
        if len(rho) != r or any(len(mat) != d1 for mat in rho) or any(
                len(row) != d1 for mat in rho for row in mat):
            raise ValueError("representation must give r matrices of size d1")
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    if c[i][j][k] != -c[j][i][k]:
                        raise ValueError("structure constants must be antisymmetric")
        self.r = r
        self.c = c
        self.d1 = d1
        self.rho = rho

    def bracket(self, u, v):
        """[u, v] of coefficient vectors."""
        out = [Fraction(0)] * self.r
        for i in range(self.r):
            if not u[i]:
                continue
            for j in range(self.r):
                if v[j]:
                    for k in range(self.r):
                        out[k] += u[i] * v[j] * self.c[i][j][k]
        return out

    def act(self, i, vec):
        """rho(e_i) applied to a coefficient vector of g1."""
        return [sum((self.rho[i][a][b] * vec[b] for b in range(self.d1)),
                    Fraction(0)) for a in range(self.d1)]


def diolic_lie_residuals(l):
    """Named nonzero obstructions to the data being a graded Lie algebra:
    Jacobiators of the structure constants and representation defects."""
    r = l.r
    out = []
    e = [[Fraction(1) if t == i else Fraction(0) for t in range(r)] for i in range(r)]
    for i, j, k in itertools.combinations(range(r), 3):
        jac = [a + b + c for a, b, c in zip(
            l.bracket(l.bracket(e[i], e[j]), e[k]),
            l.bracket(l.bracket(e[j], e[k]), e[i]),
            l.bracket(l.bracket(e[k], e[i]), e[j]))]
        if any(jac):
            out.append(("jacobi[%d,%d,%d]" % (i + 1, j + 1, k + 1),
                        "(" + ", ".join(str(v) for v in jac) + ")"))
    for i in range(r):
        for j in range(r):
            lhs = [[sum((l.c[i][j][k] * l.rho[k][a][b] for k in range(r)), Fraction(0))
                    for b in range(l.d1)] for a in range(l.d1)]
            comm = [[sum((l.rho[i][a][t] * l.rho[j][t][b]
                          - l.rho[j][a][t] * l.rho[i][t][b]
                          for t in range(l.d1)), Fraction(0))
                     for b in range(l.d1)] for a in range(l.d1)]
            if lhs != comm:
                diff = [[str(x - y) for x, y in zip(r1, r2)]
                        for r1, r2 in zip(lhs, comm)]
                out.append(("representation[%d,%d]" % (i + 1, j + 1), str(diff)))
    return out


def diolic_lie_check(l):
    """True iff the data assembles into a two-component graded Lie algebra:
    c satisfies the Jacobi identity and rho is a representation."""
    return not diolic_lie_residuals(l)


def ce_differential(l, p, tau):
    """d of a p-cochain tau: {increasing p-tuple: g1 coefficient vector}."""
    r, d1 = l.r, l.d1
    zero = [Fraction(0)] * d1

    def value(idx):
        sign, key = _sort_with_sign(idx)
        if len(set(idx)) != len(idx):
            return zero
        v = tau.get(key)
        if v is None:
            return zero
        return v if sign > 0 else [-a for a in v]

    out = {}
    for idx in itertools.combinations(range(r), p + 1):
        acc = [Fraction(0)] * d1
        for t in range(p + 1):
            rest = idx[:t] + idx[t + 1:]
            inner = value(rest)
            if any(inner):
                term = l.act(idx[t], inner)
                s = 1 if t % 2 == 0 else -1
                acc = [a + s * b for a, b in zip(acc, term)]
        for s_ in range(p + 1):
            for t in range(s_ + 1, p + 1):
                rest = tuple(u for w, u in enumerate(idx) if w not in (s_, t))
                for k in range(r):
                    ck = l.c[idx[s_]][idx[t]][k]
                    if ck:
                        inner = value((k,) + rest)
                        if any(inner):
                            sg = 1 if (s_ + t) % 2 == 0 else -1
                            acc = [a + sg * ck * b for a, b in zip(acc, inner)]
        if any(acc):
            out[idx] = acc
    return out


def ce_cohomology(l):
    """Betti numbers of the cochain complex Hom(Lambda^p g0, g1), p = 0..r."""
    r, d1 = l.r, l.d1
    from math import comb
    dims = [comb(r, p) * d1 for p in range(r + 1)]
    ranks = []
    for p in range(r):
        basis_p = [(idx, a) for idx in itertools.combinations(range(r), p)
                   for a in range(d1)]
        basis_q = [(idx, a) for idx in itertools.combinations(range(r), p + 1)
                   for a in range(d1)]
        pos = {key: i for i, key in enumerate(basis_q)}
        cols = []
        for (idx, a) in basis_p:
            tau = {idx: [Fraction(1) if t == a else Fraction(0) for t in range(d1)]}
            d = ce_differential(l, p, tau)
            col = [Fraction(0)] * len(basis_q)
            for jdx, vec in d.items():
                for b in range(d1):
                    if vec[b]:
                        col[pos[(jdx, b)]] += vec[b]
            cols.append(col)
        ranks.append(rank(cols) if cols else 0)
    return _betti(dims, ranks)


def ce_cochain_dimensions(l):
    from math import comb
    return [comb(l.r, p) * l.d1 for p in range(l.r + 1)]
