"""Chevalley-Eilenberg cohomology over Q, with the Der complex as one case.

A CE datum is a Lie algebra g0 of dimension r, given by structure
constants c[i][j][k] (the e_k coefficient of [e_i, e_j]), and a
representation rho of g0 on g1 = Q^d1.  A p-cochain is an alternating
p-form on g0 with values in g1, stored as {increasing p-tuple of generator
indices: coefficient vector of length d1}.  The differential follows the
0-based alternating-sum convention

    (dw)(D_0..D_p) = sum_i (-1)^i rho(D_i) w(..^i..)
                   + sum_{i<j} (-1)^{i+j} w([D_i, D_j], ..^i..^j..)

which squares to zero when c is a Lie bracket and rho a representation.
It is assembled sparsely: each entry of a cochain is scattered only to the
(p+1)-tuples it reaches, through the nonzero columns of rho and the nonzero
structure constants, and the ranks come from exact elimination over Q.

The Der complex -- alternating A-multilinear forms on the derivation
module of P with values in P, over the generating family nabla_1..nabla_n
(componentwise d/dx_i) and E^{ab} (the constant basis endomorphisms,
E^{ab} p = p^b e_a) -- is the CE complex of the Lie algebra these
generators span, Q^n (+) gl(m), with the bracket table

    [nabla_i, nabla_j] = 0,   [nabla_i, E^{ab}] = 0,
    [E^{ab}, E^{cd}] = delta^{bc} E^{ad} - delta^{da} E^{cb}.

Neither action raises coefficient degree, so the coefficient-degree <= D
truncation Q[x]_{<=D} (x) Q^m is a finite-dimensional module, and its CE
complex is the truncated Der complex; its Q-vector-space cohomology is what
is computed here (full cohomology over the polynomial ring is a module
question).  sum_a E^{aa} is central and acts by 1, so by the Cartan
homotopy every Betti number of a truncation is zero; the tests use this as
an oracle.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import comb

from .poly import monomials_up_to

# largest cochain space either complex may assemble
MAX_COCHAIN_DIM = 20000

ZERO, ONE = Fraction(0), Fraction(1)


class ResourceCapError(RuntimeError):
    """A requested computation exceeds the configured size cap."""


def rank(rows):
    """Rank over Q of a matrix given as a list of sparse rows {column: value}.

    Exact elimination: each row is reduced by the pivot rows at its
    leading column until it vanishes or leads at a new pivot column.
    """
    pivots = {}
    for row in rows:
        row = {col: v for col, v in row.items() if v}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = ONE / row[lead]
                pivots[lead] = {col: v * inv for col, v in row.items()}
                break
            f = row[lead]
            for col, v in pivot.items():
                w = row.get(col, ZERO) - f * v
                if w:
                    row[col] = w
                else:
                    del row[col]
    return len(pivots)


def check_cap(dims):
    """Raise ResourceCapError if a cochain space is larger than MAX_COCHAIN_DIM."""
    if max(dims) > MAX_COCHAIN_DIM:
        raise ResourceCapError("cochain dimension %d exceeds cap %d"
                               % (max(dims), MAX_COCHAIN_DIM))


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


class CEData:
    """Structure constants c[i][j][k] of a Lie algebra of dimension r and
    matrices rho[i] (d1 x d1) of a representation, all over Q."""

    __slots__ = ("r", "c", "d1", "rho", "_cols", "_brackets")

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
        # _cols[i][b]: the nonzero (a, rho[i][a][b]) of column b
        self._cols = tuple(tuple(tuple((a, mat[a][b]) for a in range(d1) if mat[a][b])
                                 for b in range(d1)) for mat in rho)
        # _brackets[k]: the (i, j, c[i][j][k]) with i < j and c[i][j][k] != 0
        self._brackets = tuple(tuple((i, j, c[i][j][k])
                                     for i, j in itertools.combinations(range(r), 2)
                                     if c[i][j][k]) for k in range(r))


def diolic_lie_residuals(l):
    """Named nonzero obstructions to the data being a graded Lie algebra:
    Jacobiators of the structure constants and representation defects."""
    r, c = l.r, l.c
    out = []
    for i, j, k in itertools.combinations(range(r), 3):
        # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
        jac = [sum((c[i][j][t] * c[t][k][s] + c[j][k][t] * c[t][i][s]
                    + c[k][i][t] * c[t][j][s] for t in range(r)), Fraction(0))
               for s in range(r)]
        if any(jac):
            out.append(("jacobi[%d,%d,%d]" % (i + 1, j + 1, k + 1),
                        "(" + ", ".join(str(v) for v in jac) + ")"))
    for i in range(r):
        for j in range(r):
            lhs = [[sum((c[i][j][k] * l.rho[k][a][b] for k in range(r)), Fraction(0))
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
    """d of a p-cochain tau: {increasing p-tuple: g1 coefficient vector}.

    An entry at I reaches I + {i} through rho(e_i), with the sign of the
    position of i, and I - {k} + {i, j} through each c[i][j][k] != 0 with
    k in I, with the signs of the positions of k in I and of i, j in the
    target.
    """
    out = {}

    def target(idx):
        vec = out.get(idx)
        if vec is None:
            vec = out[idx] = [ZERO] * l.d1
        return vec

    for key, vec in tau.items():
        entries = [(b, v) for b, v in enumerate(vec) if v]
        if not entries:
            continue
        for i, cols in enumerate(l._cols):
            t = bisect_left(key, i)
            if t < p and key[t] == i:
                continue
            acc = target(key[:t] + (i,) + key[t:])
            for b, v in entries:
                if t % 2:
                    v = -v
                for a, x in cols[b]:
                    acc[a] += x * v
        for q, k in enumerate(key):
            rest = key[:q] + key[q + 1:]
            for i, j, ck in l._brackets[k]:
                if i in rest or j in rest:
                    continue
                s = bisect_left(rest, i)
                t = bisect_left(rest, j) + 1
                idx = rest[:s] + (i,) + rest[s:t - 1] + (j,) + rest[t - 1:]
                f = -ck if (q + s + t) % 2 else ck
                acc = target(idx)
                for b, v in entries:
                    acc[b] += f * v
    return {idx: vec for idx, vec in out.items() if any(vec)}


def ce_cochain_dimensions(l):
    return [comb(l.r, p) * l.d1 for p in range(l.r + 1)]


def ce_cohomology(l):
    """Betti numbers of the cochain complex Hom(Lambda^p g0, g1), p = 0..r.

    Raises ResourceCapError before any assembly if a cochain space is
    larger than MAX_COCHAIN_DIM.
    """
    dims = ce_cochain_dimensions(l)
    check_cap(dims)
    r, d1 = l.r, l.d1
    ranks = []
    for p in range(r):
        start = {idx: t * d1 for t, idx in
                 enumerate(itertools.combinations(range(r), p + 1))}
        rows = []
        for idx in itertools.combinations(range(r), p):
            for a in range(d1):
                unit = [ZERO] * d1
                unit[a] = ONE
                d = ce_differential(l, p, {idx: unit})
                rows.append({start[jdx] + b: v for jdx, vec in d.items()
                             for b, v in enumerate(vec) if v})
        ranks.append(rank(rows))
    return _betti(dims, ranks)


# ---------------------------------------------------------------------------
# the Der complex


def der_differential(n, m, maxdeg):
    """The CE data whose differential is the Der differential of the
    coefficient-degree <= maxdeg truncation.

    Generator i < n is nabla_(i+1) and generator n + a*m + b is E^{ab}
    (0-based a, b).  Basis vector alpha*nmono + s of g1 is x^mu e_alpha,
    where mu is the s-th of the nmono multi-indices of
    monomials_up_to(n, maxdeg).
    """
    monos = monomials_up_to(n, maxdeg)
    nmono = len(monos)
    at = {mu: s for s, mu in enumerate(monos)}
    r, d1 = n + m * m, m * nmono
    c = [[[0] * r for _ in range(r)] for _ in range(r)]
    for a, b, e, f in itertools.product(range(m), repeat=4):
        block = c[n + a * m + b][n + e * m + f]
        if b == e:
            block[n + a * m + f] += 1
        if f == a:
            block[n + e * m + b] -= 1
    rho = [[[0] * d1 for _ in range(d1)] for _ in range(r)]
    for i in range(n):
        for s, mu in enumerate(monos):
            if mu[i]:
                t = at[mu[:i] + (mu[i] - 1,) + mu[i + 1:]]
                for alpha in range(m):
                    rho[i][alpha * nmono + t][alpha * nmono + s] = mu[i]
    for a, b in itertools.product(range(m), repeat=2):
        for s in range(nmono):
            rho[n + a * m + b][a * nmono + s][b * nmono + s] = 1
    return CEData(r, c, d1, rho)


def der_cochain_dimensions(n, m, maxdeg):
    nmono = len(monomials_up_to(n, maxdeg))
    return [comb(n + m * m, k) * m * nmono for k in range(n + m * m + 1)]


def der_cohomology_truncated(n, m, maxdeg):
    """Betti numbers over Q of the coefficient-degree <= maxdeg truncation.

    Raises ResourceCapError, before the CE data are built, if a cochain
    space is larger than MAX_COCHAIN_DIM.
    """
    if n < 1 or m < 1 or maxdeg < 0:
        raise ValueError("need n, m >= 1 and maxdeg >= 0")
    check_cap(der_cochain_dimensions(n, m, maxdeg))
    return ce_cohomology(der_differential(n, m, maxdeg))
