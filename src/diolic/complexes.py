"""Chevalley-Eilenberg cohomology over Q, with the Der complex as one case.

A CE datum is a Lie algebra g0 of dimension r, given by structure
constants c[i][j][k] (the e_k coefficient of [e_i, e_j]), and a
representation rho of g0 on g1 = Q^d1 with basis v_1..v_d1.  `CEData`
keeps only the nonzero structure constants and the nonzero entries of each
rho column; the `ce` file reader in `cli` hands over nonzeros only, so
after its one scan of each row of the file the work grows with the
nonzeros and with d1, not with the d1^2 entries of a matrix.  A
p-cochain is an alternating p-form on g0 with values in g1, stored as
{increasing p-tuple of generator indices: {a: nonzero coefficient of
v_a}}.  The differential follows the 0-based alternating-sum convention

    (dw)(D_0..D_p) = sum_i (-1)^i rho(D_i) w(..^i..)
                   + sum_{i<j} (-1)^{i+j} w([D_i, D_j], ..^i..^j..)

which squares to zero when c is a Lie bracket and rho a representation.
It is assembled sparsely: each entry of a cochain is scattered only to the
(p+1)-tuples it reaches, through the nonzero columns of rho and the nonzero
structure constants, and the ranks come from fraction-free elimination
over Z, which gives the rank over Q exactly (see `rank`).  Integral data
stay in Python ints from the first entry to the last pivot; a Fraction
appears only where the data hold one.

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
question).

Only the weight-0 subcomplex of a torus is assembled (Hochschild-Serre,
"Cohomology of Lie algebras", 1953).  Call a generator h diagonal when its
slice c[h] and its matrix rho(h) are both diagonal, with mu_i(h) = c[h][i][i]
and lambda_a(h) = rho(h)[a][a].  Diagonal generators commute: [h, h'] is a
multiple of e_h' and, by antisymmetry, of e_h.  On the basis cochain
e^I (x) v_a (the cochain with value v_a on e_I and 0 on the other tuples)
the Lie derivative L_h w = rho(h) w - sum_k w(.., [h, D_k], ..) acts by the
scalar

    lambda_a(h) - sum_{i in I} mu_i(h),

so the diagonal generators split every cochain space into joint weight
spaces.  When c is a Lie bracket and rho a representation, Cartan's
formula L_h = d i_h + i_h d holds with the contraction
(i_h w)(D_1..D_p) = w(h, D_1..D_p); so d commutes with each L_h, the weight
spaces are subcomplexes, and on one where some L_h acts by a scalar
w != 0 the identity is (d i_h + i_h d) / w, null-homotopic: its cohomology
is zero.  All cohomology lives in the joint weight-0 subcomplex.  With no
diagonal generator (so(3) in its real form) that is the whole complex.
The reported cochain dimensions stay the full ones.

On invalid data d need not preserve weights: an image entry outside the
weight-0 basis raises the same "d o d != 0" error as a negative Betti
number, and is never dropped.

For the Der data E^{11}..E^{mm} are diagonal, and summing the weight of
e^I (x) x^mu e_alpha over them gives 1: the action sum_a E^{aa} = 1 on g1
against the bracket weights sum_a (delta^{ac} - delta^{da}) = 0 of E^{cd}
(nabla_i has weight 0).  So the weight-0 subcomplex is empty and every
Betti number of a truncation is zero, without assembly -- the Cartan
argument for the central element sum_a E^{aa}, as a special case.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter, defaultdict
from math import comb, gcd, lcm
from operator import add

from .poly import _rational, coefficient_text, monomials_up_to

# largest cochain space either complex may assemble
MAX_COCHAIN_DIM = 20000
# most scalar products the Lie data check may multiply
MAX_LIE_PRODUCTS = 10 ** 6
# bits by which `rank` lets a row under reduction grow before dividing out
# its content
MAX_GROWTH_BITS = 64


class ResourceCapError(RuntimeError):
    """A requested computation exceeds the configured size cap."""


def rank(rows):
    """Rank over Q of a matrix given as a list of sparse rows {column: value}.

    Fraction-free elimination over Z (cf. Bareiss, Math. Comp. 22, 1968).
    Each row is scaled once by the lcm of its denominators, so that it holds
    ints, and is then reduced by the pivot rows at its leading column, as
    row <- p*row - f*pivot with p the pivot's and f the row's leading entry
    after cancelling gcd(f, p), until it vanishes or leads at a new pivot
    column.  Every step multiplies a row by a nonzero rational and adds to
    it a multiple of an earlier row, so the span over Q of the rows seen so
    far never changes; the pivot rows lead at distinct columns, so they are
    independent and their number is the rank over Q.

    Entries stay small by dividing out contents (gcds of entries), which is
    again scaling by a nonzero rational.  A new pivot row is stored
    primitive, with a positive leading entry; by Cramer's rule its entries
    then divide minors of the scaled input rows, the size that Bareiss's
    exact division keeps.  A row under reduction is made primitive whenever
    the factors p it took since its last division reach MAX_GROWTH_BITS.
    """
    pivots = {}
    for row in rows:
        if all(type(v) is int for v in row.values()):
            row = {col: v for col, v in row.items() if v}
        else:
            d = lcm(*(v.denominator for v in row.values()))
            row = {col: v.numerator * (d // v.denominator) for col, v in row.items() if v}
        grown = 0
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                g = gcd(*row.values())
                if row[lead] < 0:
                    g = -g
                pivots[lead] = {col: v // g for col, v in row.items()} if g != 1 else row
                break
            f, p = row[lead], pivot[lead]
            g = gcd(f, p)
            if g != 1:
                f //= g
                p //= g
            if p != 1:
                row = {col: p * v for col, v in row.items()}
            for col, v in pivot.items():
                w = row.get(col, 0) - f * v
                if w:
                    row[col] = w
                else:
                    del row[col]
            if p != 1:
                grown += p.bit_length()
                if grown >= MAX_GROWTH_BITS and row:
                    grown = 0
                    g = gcd(*row.values())
                    if g != 1:
                        row = {col: v // g for col, v in row.items()}
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
    """A Lie algebra g0 of dimension r and a representation rho of it on
    Q^d1, stored by their nonzero entries, all ints or Fractions as
    `poly._rational` gives them:

        _brackets[k]: the (i, j, c[i][j][k]) with i < j and c[i][j][k] != 0,
        _cols[i][b]:  the (a, rho[i][a][b]) with rho[i][a][b] != 0, by a.

    CEData(r, c, d1, rho) takes the dense tensors c[i][j][k] and
    rho[i][a][b]; CEData.sparse takes their rows as {index: nonzero value}
    dicts, the form the `ce` file reader hands over.  `c` and `rho` are
    read-only dense views, built on each access."""

    __slots__ = ("r", "d1", "_cols", "_brackets")

    def __init__(self, r, c, d1, rho):
        self._store(r, _sparse_rows(c, r, "structure constants must be r x r x r"),
                    d1, _sparse_rows(rho, d1, "representation must give r matrices of size d1"))

    @classmethod
    def sparse(cls, r, c, d1, rho):
        """From sparse rows: c[i][j] = {k: c[i][j][k]} and rho[i][a] =
        {b: rho[i][a][b]}, nonzero entries only."""
        self = object.__new__(cls)
        self._store(r, c, d1, rho)
        return self

    def _store(self, r, c, d1, rho):
        if len(c) != r or any(len(block) != r for block in c):
            raise ValueError("structure constants must be r x r x r")
        if len(rho) != r or any(len(mat) != d1 for mat in rho):
            raise ValueError("representation must give r matrices of size d1")
        brackets = [[] for _ in range(r)]
        for i, block in enumerate(c):
            for j, row in enumerate(block):
                for k, v in row.items():
                    if c[j][i].get(k, 0) != -v:
                        raise ValueError("structure constants must be antisymmetric")
                    if i < j:
                        brackets[k].append((i, j, v))
        cols = []
        for mat in rho:
            by_col = [[] for _ in range(d1)]
            for a, row in enumerate(mat):
                for b, v in row.items():
                    by_col[b].append((a, v))
            cols.append(by_col)
        self.r, self.d1, self._cols, self._brackets = r, d1, cols, brackets

    @property
    def c(self):
        r = self.r
        c = [[[0] * r for _ in range(r)] for _ in range(r)]
        for k, brackets in enumerate(self._brackets):
            for i, j, v in brackets:
                c[i][j][k] = v
                c[j][i][k] = -v
        return tuple(tuple(map(tuple, block)) for block in c)

    @property
    def rho(self):
        d1 = self.d1
        rho = [[[0] * d1 for _ in range(d1)] for _ in range(self.r)]
        for mat, cols in zip(rho, self._cols):
            for b, col in enumerate(cols):
                for a, v in col:
                    mat[a][b] = v
        return tuple(tuple(map(tuple, mat)) for mat in rho)


def _sparse_rows(tensor, n, message):
    """The rows of a dense tensor, whose rows have length n, as
    {index: nonzero value} dicts; ValueError(message) on a bad shape."""
    if any(len(row) != n for block in tensor for row in block):
        raise ValueError(message)
    return [[{k: v for k, v in enumerate(map(_rational, row)) if v} for row in block]
            for block in tensor]


def diolic_lie_residuals(l):
    """Named nonzero obstructions to the data being a graded Lie algebra:
    Jacobiators of the structure constants and representation defects.

    Both are summed over the nonzero structure constants and the nonzero
    entries of the rho columns only; representation[j,i] is the negation
    of representation[i,j], computed once.  Raises ResourceCapError before
    any product if they would take more than MAX_LIE_PRODUCTS of them."""
    r, d1, cols = l.r, l.d1, l._cols
    # pairs[i][j]: the (t, c[i][j][t]) with c[i][j][t] != 0
    pairs = [[[] for _ in range(r)] for _ in range(r)]
    for t, brackets in enumerate(l._brackets):
        for i, j, v in brackets:
            pairs[i][j].append((t, v))
            pairs[j][i].append((t, -v))
    products = _lie_products(l, pairs)
    if products > MAX_LIE_PRODUCTS:
        raise ResourceCapError("the Lie data check needs %d scalar products, cap %d"
                               % (products, MAX_LIE_PRODUCTS))
    out = []
    for i, j, k in itertools.combinations(range(r), 3):
        # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
        jac = [0] * r
        for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
            for t, x in pairs[u][v]:
                for s, y in pairs[t][w]:
                    jac[s] += x * y
        if any(jac):
            out.append(("jacobi[%d,%d,%d]" % (i + 1, j + 1, k + 1),
                        "(" + ", ".join(map(coefficient_text, jac)) + ")"))
    # defect[i, j], i < j: sum_k c[i][j][k] rho_k - [rho_i, rho_j] as
    # {(a, b): value}, kept where it is nonzero
    defect = {}
    for i, j in itertools.combinations(range(r), 2):
        diff = defaultdict(int)
        for k, x in pairs[i][j]:
            for b, col in enumerate(cols[k]):
                for a, y in col:
                    diff[a, b] += x * y
        for b in range(d1):
            # column b of rho_i rho_j - rho_j rho_i
            for t, y in cols[j][b]:
                for a, x in cols[i][t]:
                    diff[a, b] -= x * y
            for t, y in cols[i][b]:
                for a, x in cols[j][t]:
                    diff[a, b] += x * y
        if any(diff.values()):
            defect[i, j] = diff
    for i in range(r):
        for j in range(r):
            diff = defect.get((min(i, j), max(i, j)))
            if diff is not None:
                sign = 1 if i < j else -1
                out.append(("representation[%d,%d]" % (i + 1, j + 1),
                            str([[coefficient_text(sign * diff[a, b]) for b in range(d1)]
                                 for a in range(d1)])))
    return out


def _lie_products(l, pairs):
    """The number of scalar products `diolic_lie_residuals` multiplies,
    counted from the nonzero entries alone."""
    col_nnz = [list(map(len, cols)) for cols in l._cols]
    row_nnz = [Counter(a for col in cols for a, _ in col) for cols in l._cols]
    count = sum(len(pairs[t][w]) for i, j, k in itertools.combinations(range(l.r), 3)
                for u, v, w in ((i, j, k), (j, k, i), (k, i, j)) for t, _ in pairs[u][v])
    for i, j in itertools.combinations(range(l.r), 2):
        count += sum(sum(col_nnz[k]) for k, _ in pairs[i][j])
        count += sum(nnz * col_nnz[i][t] for t, nnz in row_nnz[j].items())
        count += sum(nnz * col_nnz[j][t] for t, nnz in row_nnz[i].items())
    return count


def diolic_lie_check(l):
    """True iff the data assembles into a two-component graded Lie algebra:
    c satisfies the Jacobi identity and rho is a representation."""
    return not diolic_lie_residuals(l)


def ce_differential(l, p, tau):
    """d of a p-cochain tau, {increasing p-tuple: {b: coefficient of v_b}},
    in the same form: only nonzero coefficients, only tuples that keep one.

    An entry at I reaches I + {i} through rho(e_i), with the sign of the
    position of i, and I - {k} + {i, j} through each c[i][j][k] != 0 with
    k in I, with the signs of the positions of k in I and of i, j in the
    target.
    """
    out = {}
    for key, vec in tau.items():
        entries = [(b, v) for b, v in vec.items() if v]
        if not entries:
            continue
        for i, cols in enumerate(l._cols):
            t = bisect_left(key, i)
            if t < p and key[t] == i:
                continue
            terms = [(a, x * v) for b, v in entries for a, x in cols[b]]
            if terms:
                acc = out.setdefault(key[:t] + (i,) + key[t:], {})
                for a, y in terms:
                    acc[a] = acc.get(a, 0) + (-y if t % 2 else y)
        for q, k in enumerate(key):
            rest = key[:q] + key[q + 1:]
            for i, j, ck in l._brackets[k]:
                if i in rest or j in rest:
                    continue
                s = bisect_left(rest, i)
                t = bisect_left(rest, j) + 1
                idx = rest[:s] + (i,) + rest[s:t - 1] + (j,) + rest[t - 1:]
                f = -ck if (q + s + t) % 2 else ck
                acc = out.setdefault(idx, {})
                for b, v in entries:
                    acc[b] = acc.get(b, 0) + f * v
    for idx, acc in list(out.items()):
        if not all(acc.values()):
            acc = {a: v for a, v in acc.items() if v}
            if acc:
                out[idx] = acc
            else:
                del out[idx]
    return out


def ce_cochain_dimensions(l):
    return [comb(l.r, p) * l.d1 for p in range(l.r + 1)]


def _weight0_bases(l):
    """The joint weight-0 basis cochains of the diagonal generators, per
    degree p = 0..r: lists of (increasing p-tuple, a) for e^I (x) v_a."""
    # h is diagonal unless c[h][i][k] != 0 or rho[h][a][b] != 0 with i != k
    # or a != b; diag[h, i] = c[h][i][i]
    off, diag = set(), {}
    for k, brackets in enumerate(l._brackets):
        for i, j, v in brackets:
            if j != k:
                off.add(i)
            else:
                diag[i, k] = v
            if i != k:
                off.add(j)
            else:
                diag[j, k] = -v
    torus = [h for h in range(l.r) if h not in off
             and all(a == b for b, col in enumerate(l._cols[h]) for a, _ in col)]
    mu = [tuple(diag.get((h, i), 0) for h in torus) for i in range(l.r)]
    # lam[t][a] = rho[torus[t]][a][a]
    lam = [dict(entry for col in l._cols[h] for entry in col) for h in torus]
    by_weight = {}
    for a in range(l.d1):
        by_weight.setdefault(tuple(lam_h.get(a, 0) for lam_h in lam), []).append(a)
    bases = []
    # the increasing p-tuples with their weights, each extended by a larger index
    level = [((), (0,) * len(torus))]
    for _ in range(l.r + 1):
        bases.append([(idx, a) for idx, w in level for a in by_weight.get(w, ())])
        level = [(idx + (i,), tuple(map(add, w, mu[i]))) for idx, w in level
                 for i in range(idx[-1] + 1 if idx else 0, l.r)]
    return bases


def ce_cohomology(l):
    """Betti numbers of the cochain complex Hom(Lambda^p g0, g1), p = 0..r,
    from its weight-0 subcomplex (see the module docstring).

    Raises ResourceCapError before any assembly if a cochain space is
    larger than MAX_COCHAIN_DIM, and ValueError("d o d != 0: ...") when
    d leaves the weight-0 subcomplex or a Betti number comes out negative.
    """
    check_cap(ce_cochain_dimensions(l))
    bases = _weight0_bases(l)
    ranks = []
    for p in range(l.r):
        column = {key: t for t, key in enumerate(bases[p + 1])}
        rows = []
        for idx, a in bases[p]:
            row = {}
            for jdx, vec in ce_differential(l, p, {idx: {a: 1}}).items():
                for b, v in vec.items():
                    t = column.get((jdx, b))
                    if t is None:
                        raise ValueError(
                            "d o d != 0: d of e^%r (x) v%d leaves the weight-0 subcomplex"
                            % (tuple(i + 1 for i in idx), a + 1))
                    row[t] = v
            rows.append(row)
        ranks.append(rank(rows))
    return _betti([len(basis) for basis in bases], ranks)


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
    c = [[{} for _ in range(r)] for _ in range(r)]
    for a, b, e, f in itertools.product(range(m), repeat=4):
        row = c[n + a * m + b][n + e * m + f]
        if b == e:
            row[n + a * m + f] = 1
        if f == a:
            k = n + e * m + b
            if row.get(k, 0) == 1:
                del row[k]  # [E^{aa}, E^{aa}] = E^{aa} - E^{aa}
            else:
                row[k] = -1
    rho = [[{} for _ in range(d1)] for _ in range(r)]
    for i in range(n):
        for s, mu in enumerate(monos):
            if mu[i]:
                t = at[mu[:i] + (mu[i] - 1,) + mu[i + 1:]]
                for alpha in range(m):
                    rho[i][alpha * nmono + t][alpha * nmono + s] = mu[i]
    for a, b in itertools.product(range(m), repeat=2):
        for s in range(nmono):
            rho[n + a * m + b][a * nmono + s][b * nmono + s] = 1
    return CEData.sparse(r, c, d1, rho)


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
