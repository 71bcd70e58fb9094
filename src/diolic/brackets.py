"""Graded biderivations of A (+) P and the bracket-based structure checkers.

The Schouten bracket of multiderivations is defined by the inductive rules

    [[D, a]]      = D(a)
    [[a, D]]      = (-1)^(|a|*h + w) D(a)
    [[D, E]](a)   = [[D, E(a)]] - (-1)^(|a|*h_E + w_E) [[D(a), E]]

where w is the multiderivation weight, h the internal degree, and
evaluation always plugs into the first slot.  For a degree-0
biderivation Pi the rules unfold to the closed form

    [[Pi, Pi]](z1, z2, z3) = 2 Jac_Pi(z1, z2, z3)

with Jac_Pi the graded Jacobiator of `jacobiator0`; the value vanishes
for degree reasons once two arguments lie in P.  `schouten_self_eval`
evaluates the closed form.

A multiderivation is fixed by its values on the generators
g = (x_1..x_n, e_1..e_m), by the Leibniz rule in each slot, and that is
the one evaluation rule here: D(z) = sum_k c_k D(g_k) for every
derivation D (`_leibniz_terms`), and `_contract` puts an argument into
the first slot of a table of values on generator tuples.  The
biderivations share one `eval` over their tables on generator pairs, a
first-order Jacobi bracket is a degree-0 biderivation B plus a
derivation E, Pi(z1, z2) = B(z1, z2) + z1 E(z2) - E(z1) z2, and
`_jacobiators` is the one Jacobiator on generator triples: the Poisson,
Jacobi and algebroid residuals are its values, and `schouten_probe_suite`
contracts 2 Jac_Pi from them.  No graded sign enters at any degree
(1, 0, -1, -2 for the biderivations): A is even, so the Leibniz rule
only splits products f e_alpha with f in A, and moving a coefficient
past a value changes the sign only when both are odd, that is in P,
where their product lies in P*P = 0 and is dropped.

Every checker decides its identity on a finite argument set that makes
the verdict exact, using two more facts:

  * a multi-differential operator of order <= k in one slot vanishes iff
    it kills the monomials of degree <= k in that slot: its coefficient
    of d^sigma is read off triangularly from the values on x^mu with
    |mu| <= k (the rule of `ops.py`), and the other slots follow one at
    a time;
  * an alternating trilinear form vanishes iff it vanishes on the
    triples s_a, s_b, s_c with a < b < c of a spanning set; a form that
    is alternating in two slots needs the pairs a < b there.

The enumerating probe loops and per-class formulas that these rules
replace are kept in the tests as oracles.  Checker outputs pair a
verdict with a deterministic list of named nonzero residuals, and the
Poisson and algebroid verdicts are cross-checked against an
independently computed derivation commutator.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .poly import DiolicElement, Poly, PolyMat, PolyVec, dot, monomials_up_to
from .ops import MatrixOp, RouteError, ScalarOp, VectorField
from .derivations import Der0, graded_commutator_der


# ---------------------------------------------------------------------------
# the Leibniz contraction


def _leibniz_terms(z, n):
    """{k: c} with D(z) = sum c D(g_k) for every derivation D, where
    g = (x_1..x_n, e_1..e_m): c = d_i z at x_i, and at e_alpha the
    coefficient z^alpha when z lies in P.  Zero coefficients are dropped,
    and a constant one is given as its int or Fraction value."""
    terms = {i: z.partial(i + 1) for i in range(n)}
    if z.grade:
        terms.update((n + alpha, c) for alpha, c in enumerate(z.comps))
    return {k: _constant(c) for k, c in terms.items() if not c.is_zero()}


def _constant(c):
    """The value of c when it is a constant Poly, else c."""
    if type(c) is Poly and len(c.terms) == 1:
        (s, k), = c.terms.items()
        if not any(s):
            return k
    return c


def _contract(terms, table):
    """The table {rest: sum_k c * table[k, *rest]} over the Leibniz terms
    {k: c} of one argument, with its zero values dropped: the argument
    put into the first slot.  A product of two factors in P lies in
    P*P = 0 and is skipped (the grades sum to 2); a constant c, which
    every generator argument gives, scales v without a product."""
    out = {}
    for key, v in table.items():
        c = terms.get(key[0])
        if c is None:
            continue
        if isinstance(c, (int, Fraction)):
            cv = v if c == 1 else c * v
        elif c.grade + v.grade > 1:
            continue
        else:
            cv = c * v
        rest = key[1:]
        out[rest] = out[rest] + cv if rest in out else cv
    return {k: v for k, v in out.items() if not v.is_zero()}


def _skew(table, key, v):
    """Enter a nonzero v at key, and -v at key with its first two indices
    swapped."""
    if not v.is_zero():
        table[key] = v
        table[(key[1], key[0]) + key[2:]] = -v


# ---------------------------------------------------------------------------
# structures


def _combine(n, coeffs, mats):
    """The PolyMat sum_k coeffs[k] * mats[k], each entry one sum of products."""
    m = mats[0].m
    return PolyMat(n, [[dot(n, [(c, g.rows[i][j]) for c, g in zip(coeffs, mats)])
                        for j in range(m)] for i in range(m)])


class _BiDer:
    """A biderivation of degree `grade`, given by `table`: its nonzero
    values {(k, l): value} on the generator pairs (g_k, g_l)."""

    __slots__ = ()

    def eval(self, z1, z2):
        """The value on homogeneous arguments (Poly or PolyVec), contracted
        slot by slot from the table.  It has grade |z1| + |z2| + grade; a
        zero is a PolyVec when that grade is 1 and a Poly otherwise, since
        A (+) P is zero outside grades 0 and 1."""
        n, m = self.n, self.m
        for z in (z1, z2):
            if not isinstance(z, (Poly, PolyVec)):
                raise TypeError("arguments must be Poly or PolyVec")
            if z.n != n or (z.grade and z.m != m):
                raise ValueError("arguments must lie in A (+) P with n=%d, m=%d" % (n, m))
        t = _contract(_leibniz_terms(z2, n), _contract(_leibniz_terms(z1, n), self.table))
        if () in t:
            return t[()]
        return PolyVec.zero(n, m) if z1.grade + z2.grade + self.grade == 1 else Poly.zero(n)


class BiDer0(_BiDer):
    """Degree-0 biderivation: bivector Pi^{ij} plus matrix parts Pi^i.

    Pi(a, b)   = sum_{ij} Pi^{ij} d_i(a) d_j(b)
    Pi(a, p)   = sum_i d_i(a) (sum_j Pi^{ij} d_j(p) + Pi^i p)

    Its table: Pi(x_i, x_j) = Pi^{ij}, and Pi(x_i, e_alpha) = column alpha
    of Pi^i, entered skew.
    """

    __slots__ = ("n", "m", "aa", "end", "table")
    grade = 0

    def __init__(self, aa, end):
        aa = tuple(tuple(r) for r in aa)
        n = len(aa)
        if any(len(r) != n for r in aa):
            raise ValueError("bivector matrix must be n x n")
        for i in range(n):
            for j in range(n):
                if not isinstance(aa[i][j], Poly) or aa[i][j].n != n:
                    raise ValueError("bivector entries must be Poly in %d variables" % n)
                if (aa[i][j] + aa[j][i]) != Poly.zero(n):
                    raise ValueError("bivector must be antisymmetric")
        end = tuple(end)
        if len(end) != n or any(not isinstance(g, PolyMat) or g.n != n for g in end):
            raise ValueError("need n endomorphism parts")
        m = end[0].m
        if any(g.m != m for g in end):
            raise ValueError("dimension mismatch in endomorphism parts")
        self.n = n
        self.m = m
        self.aa = aa
        self.end = end
        self.table = {}
        for i in range(n):
            for j in range(i + 1, n):
                _skew(self.table, (i, j), aa[i][j])
            for alpha in range(m):
                _skew(self.table, (i, n + alpha), PolyVec(n, [r[alpha] for r in end[i].rows]))

    @classmethod
    def from_upper(cls, n, m, upper, end=None):
        """Build from {(i, j): Poly} with 1 <= i < j <= n (1-based)."""
        z = Poly.zero(n)
        aa = [[z] * n for _ in range(n)]
        for (i, j), p in upper.items():
            if not 1 <= i < j <= n:
                raise ValueError("upper-triangle index out of range: %r" % ((i, j),))
            aa[i - 1][j - 1] = p
            aa[j - 1][i - 1] = -p
        if end is None:
            end = [PolyMat.zero(n, m) for _ in range(n)]
        return cls(aa, end)

    def hamiltonian(self, a):
        """The degree-0 derivation Pi(a, -)."""
        n = self.n
        da = [a.partial(i + 1) for i in range(n)]
        comps = [dot(n, zip(col, da)) for col in zip(*self.aa)]
        return Der0(VectorField(n, comps), _combine(n, da, self.end))


class BiDer1(_BiDer):
    """P-valued bivector: Pi[i][j] is a PolyVec, antisymmetric in (i, j);
    its table is Pi(x_i, x_j) = Pi[i][j]."""

    __slots__ = ("n", "m", "pi", "table")
    grade = 1

    def __init__(self, pi):
        pi = tuple(tuple(r) for r in pi)
        n = len(pi)
        if any(len(r) != n for r in pi):
            raise ValueError("need an n x n array")
        m = pi[0][0].m
        for i in range(n):
            for j in range(n):
                v = pi[i][j]
                if not isinstance(v, PolyVec) or v.n != n or v.m != m:
                    raise ValueError("entries must be PolyVec of matching shape")
                if not (v + pi[j][i]).is_zero():
                    raise ValueError("must be antisymmetric in the first two indices")
        self.n = n
        self.m = m
        self.pi = pi
        self.table = {}
        for i, j in itertools.combinations(range(n), 2):
            _skew(self.table, (i, j), pi[i][j])


class BiDerNeg1(_BiDer):
    """Anchor-and-bracket data: e_alpha -> Der0(rho_alpha, C_alpha).

    rho is a list of m vector fields; C[alpha] is the PolyMat with entry
    (gamma, beta) the structure function of [e_alpha, e_beta] along
    e_gamma.  Antisymmetry C[alpha](gamma, beta) = -C[beta](gamma, alpha)
    is enforced.  The table: [e_alpha, x_i] = rho_alpha^i, entered skew,
    and [e_alpha, e_beta] = column beta of C[alpha].
    """

    __slots__ = ("n", "m", "rho", "c", "table")
    grade = -1

    def __init__(self, rho, c):
        rho = tuple(rho)
        c = tuple(c)
        m = len(rho)
        if m == 0 or len(c) != m:
            raise ValueError("need matching anchor and bracket data")
        n = rho[0].n
        for v in rho:
            if not isinstance(v, VectorField) or v.n != n:
                raise ValueError("anchor components must be VectorField")
        for g in c:
            if not isinstance(g, PolyMat) or g.n != n or g.m != m:
                raise ValueError("bracket components must be m x m PolyMat")
        for alpha in range(m):
            for beta in range(m):
                for gamma in range(m):
                    if (c[alpha].rows[gamma][beta] + c[beta].rows[gamma][alpha]) != Poly.zero(n):
                        raise ValueError("structure functions must be antisymmetric")
        self.n = n
        self.m = m
        self.rho = rho
        self.c = c
        self.table = {}
        for alpha in range(m):
            for i in range(n):
                _skew(self.table, (n + alpha, i), rho[alpha].comps[i])
            for beta in range(alpha + 1, m):
                _skew(self.table, (n + alpha, n + beta),
                      PolyVec(n, [r[beta] for r in c[alpha].rows]))

    def anchor(self, p):
        n = self.n
        return VectorField(n, [dot(n, zip(p.comps, col))
                               for col in zip(*(r.comps for r in self.rho))])

    def der0_of(self, p):
        return Der0(self.anchor(p), _combine(self.n, p.comps, self.c))


class BiDerNeg2(_BiDer):
    """Degree -2 pairing (p, q) -> g p q on a rank-1 module; its table is
    the value g at (e_1, e_1).

    The graded sign rule for two degree-1 arguments makes the pairing
    symmetric under swapping them; its self-bracket vanishes identically
    for degree reasons.
    """

    __slots__ = ("n", "m", "g", "table")
    grade = -2

    def __init__(self, g, m=1):
        if m != 1:
            raise ValueError("degree -2 biderivations exist only at rank 1")
        self.n = g.n
        self.m = 1
        self.g = g
        self.table = {} if g.is_zero() else {(g.n, g.n): g}


# ---------------------------------------------------------------------------
# the Jacobiator and the Schouten square


def _generators(n, m, one=False):
    """The generators x_1..x_n, e_1..e_m; with one, 1 in front of them."""
    units = [Poly.monomial(n, s) for s in monomials_up_to(n, 1)]
    return units[not one:] + [PolyVec.basis(n, m, j) for j in range(m)]


def _jacobiators(bracket, elems, triples):
    """{(i, j, k): J} for the nonzero cyclic Jacobiators
    J = [[u, v], w] + [[v, w], u] - [[u, w], v] of a skew bracket at
    (u, v, w) = (elems[i], elems[j], elems[k]), over the given triples
    i < j < k, in their order; each pair i < j is bracketed once, lazily.
    For a degree-0 bracket and at most one argument in P this is
    `jacobiator0`, whose sign e is then +1."""
    pair = functools.cache(lambda i, j: bracket(elems[i], elems[j]))
    out = {}
    for i, j, k in triples:
        out[i, j, k] = (bracket(pair(i, j), elems[k]) + bracket(pair(j, k), elems[i])
                        - bracket(pair(i, k), elems[j]))
    return {t: v for t, v in out.items() if not v.is_zero()}


def _poisson_jacobiators(pi):
    """J of Pi on the generator triples with at most one e: j < n."""
    return _jacobiators(pi.eval, _generators(pi.n, pi.m), [
        t for t in itertools.combinations(range(pi.n + pi.m), 3) if t[1] < pi.n])


def jacobiator0(b, z1, z2, z3):
    """Jac(z1, z2, z3) = B(B(z1,z2),z3) - B(z1,B(z2,z3)) + e B(z2,B(z1,z3))
    for a bracket B of degree s = b.grade, with e = (-1)^((g1+s)(g2+s)).

    For all-even arguments of a degree-0 bracket this is the cyclic
    Jacobiator; e is the sign compatible with graded skewness of B, which
    is skew in the shifted degrees g + s of its arguments.
    """
    s = b.grade
    out = b.eval(b.eval(z1, z2), z3)
    out = out - b.eval(z1, b.eval(z2, z3))
    term = b.eval(z2, b.eval(z1, z3))
    return out - term if (z1.grade + s) * (z2.grade + s) % 2 else out + term


def _homogeneous(z):
    if isinstance(z, (Poly, PolyVec)):
        return z
    if isinstance(z, DiolicElement):
        if z.p.is_zero():
            return z.a
        if z.a.is_zero():
            return z.p
        raise ValueError("arguments must be homogeneous")
    raise TypeError("arguments must be Poly, PolyVec or homogeneous DiolicElement")


def _as_diolic(v, m):
    return DiolicElement.from_a(v, m) if isinstance(v, Poly) else DiolicElement.from_p(v)


def schouten_self_eval(pi, z1, z2, z3):
    """[[Pi, Pi]] evaluated on three homogeneous arguments, as 2 Jac_Pi."""
    zs = [_homogeneous(z) for z in (z1, z2, z3)]
    return _as_diolic(2 * jacobiator0(pi, *zs), pi.m)


def schouten_probe_suite(pi, degree=2):
    """Nonzero values of [[Pi,Pi]] on all monomial triples of degree
    <= degree with at most one slot in P; returns [(label, DiolicElement)].

    [[Pi, Pi]] is a multiderivation, so its values are contracted from
    its table on generator triples, built once per call: 2 J on the
    triples of `_poisson_jacobiators`, at their rotations and, skew in two
    slots that hold at most one P argument, at their swaps.  The table is
    contracted by z1, then by z2 once per argument pair, then by each
    third argument.  A zero table gives no values at all.
    """
    n, m = pi.n, pi.m
    table = {}
    for (i, j, k), v in _poisson_jacobiators(pi).items():
        for key in ((i, j, k), (j, k, i), (k, i, j)):
            _skew(table, key, 2 * v)
    if not table:
        return []

    monos = [Poly.monomial(n, s) for s in monomials_up_to(n, degree)]
    a_elems = [(str(a), _leibniz_terms(a, n)) for a in monos]
    p_elems = [("%s*e%d" % (a, j + 1), _leibniz_terms(a * PolyVec.basis(n, m, j), n))
               for a in monos for j in range(m)]
    bad = []
    patterns = [(a_elems, a_elems, a_elems), (p_elems, a_elems, a_elems),
                (a_elems, p_elems, a_elems), (a_elems, a_elems, p_elems)]
    for s1, s2, s3 in patterns:
        for l1, t1 in s1:
            by1 = _contract(t1, table)
            if not by1:
                continue
            for l2, t2 in s2:
                by2 = _contract(t2, by1)
                if not by2:
                    continue
                for l3, t3 in s3:
                    val = _contract(t3, by2)
                    if val:
                        bad.append(("[[Pi,Pi]](%s, %s, %s)" % (l1, l2, l3),
                                    _as_diolic(val[()], m)))
    return bad


# ---------------------------------------------------------------------------
# Poisson / Jacobi / algebroid checkers


def is_poisson0(pi):
    """Exact degree-0 Poisson test; returns (verdict, named residuals).

    [[Pi, Pi]] = 2 Jac_Pi is a multiderivation, so its values on the
    generators decide it; it vanishes on two arguments in P and is
    alternating otherwise, so the J of `_poisson_jacobiators` decide it.
    By [f, x_k] = sum_l d_l(f) Pi^{lk}, J(x_i, x_j, x_k) is the cyclic sum
    of sum_l Pi^{lk} d_l Pi^{ij}, minus the bivector PDE
    poisson_pde[i,j,k] = sum_l Pi^{il} d_l Pi^{jk} + cyclic.  By
    [f, e_b] = sum_i d_i(f) Pi^i e_b and [p, x_j] = -sum_l Pi^{jl} d_l p -
    Pi^j p, J(x_j, x_k, e_b) = R e_b for the compatibility PDE of the end
    parts, R = sum_i (d_i Pi^{jk} Pi^i + Pi^{ij} d_i Pi^k - Pi^{ik} d_i Pi^j)
    - [Pi^j, Pi^k], whose entry (a, b) is compat_pde[j,k](a,b).

    The second route, without `eval`, is the Hamiltonian curvature
    [Pi(x_i, -), Pi(x_j, -)] - Pi(Pi(x_i, x_j), -) through the derivation
    commutator.  The two verdicts must agree.
    """
    n, m = pi.n, pi.m
    jac = _poisson_jacobiators(pi)
    residuals = [("poisson_pde[%d,%d,%d]" % (i + 1, j + 1, k + 1), -v)
                 for (i, j, k), v in jac.items() if k < n]
    for j, k in itertools.combinations(range(n), 2):
        cols = [(b, jac[j, k, n + b]) for b in range(m) if (j, k, n + b) in jac]
        residuals += [("compat_pde[%d,%d](%d,%d)" % (j + 1, k + 1, a + 1, b + 1), v.comps[a])
                      for a in range(m) for b, v in cols if not v.comps[a].is_zero()]

    pde_ok = not residuals

    curv_ok = True
    ham = [pi.hamiltonian(Poly.var(n, i + 1)) for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        curv = graded_commutator_der(ham[i], ham[j]) - pi.hamiltonian(pi.aa[i][j])
        if not curv.is_zero():
            curv_ok = False
            for l, c in enumerate(curv.X.comps):
                if not c.is_zero():
                    residuals.append(("curvature[%d,%d].X%d" % (i + 1, j + 1, l + 1), c))
            for a in range(m):
                for b in range(m):
                    c = curv.G.rows[a][b]
                    if not c.is_zero():
                        residuals.append(("curvature[%d,%d].G(%d,%d)"
                                          % (i + 1, j + 1, a + 1, b + 1), c))

    if pde_ok != curv_ok:
        raise RouteError("PDE residuals disagree with the commutator oracle")
    return pde_ok, residuals


def _skew_table(n, caa):
    """Check a first-order coefficient table {(sigma, tau): Poly} for
    |sigma|, |tau| <= 1 and skew-symmetry; return it with tuple keys."""
    caa = {(tuple(s), tuple(t)): p for (s, t), p in caa.items()}
    z = Poly.zero(n)
    for (s, t), p in caa.items():
        if len(s) != n or len(t) != n or sum(s) > 1 or sum(t) > 1:
            raise ValueError("coefficient indices must have |sigma| <= 1")
        if not isinstance(p, Poly) or p.n != n:
            raise ValueError("coefficients must be Poly in %d variables" % n)
    for s, t in caa:
        if not (caa[s, t] + caa.get((t, s), z)).is_zero():
            raise ValueError("coefficient table must be skew-symmetric")
    return caa


def _from_table(n, caa, ends, g):
    """(B, E) of a checked table caa: B's bivector is c(x_i, x_j) and E on A
    is sum_j c(1, x_j) d_j; ends are B's matrix parts and g is E's."""
    z = Poly.zero(n)
    one, *units = monomials_up_to(n, 1)
    b = BiDer0([[caa.get((s, t), z) for t in units] for s in units], ends)
    return b, Der0(VectorField(n, [caa.get((one, t), z) for t in units]), g)


class _BracketPair:
    """The bracket Pi(z1, z2) = B(z1, z2) + z1 E(z2) - E(z1) z2 of a
    degree-0 biderivation B (a `BiDer0`) and a degree-0 derivation E (a
    `Der0`), evaluated through the generator table of B."""

    __slots__ = ("n", "m", "b", "e")

    def _pair(self, b, e):
        self.n, self.m, self.b, self.e = b.n, b.m, b, e
        return self

    def eval(self, z1, z2):
        """The value on Poly or PolyVec; two in P give the zero Poly."""
        out = self.b.eval(z1, z2)
        if z1.grade and z2.grade:
            return out
        return out + z1 * self.e(z2) - self.e(z1) * z2


class JacobiOp0(_BracketPair):
    """Skew first-order bidifferential bracket on A (+) P, degree 0.

    caa maps (sigma, tau) with |sigma|, |tau| <= 1 to the coefficient
    c(sigma, tau) of d^sigma(a) d^tau(b) and must be skew; dmap sends sigma
    to the order <= 1 matrix operator D_sigma of
    Pi(a, p) = sum_sigma d^sigma(a) D_sigma(p).  The two must share their
    scalar behaviour: Pi(a, bp) - b Pi(a, p) = (Pi(a, b) - b Pi(a, 1)) p.

    Pi is stored as E = Pi(1, -) and B(a, z) = Pi(a, z) - a E(z) + E(a) z,
    on A the Jacobi pair (Lambda, E) of Lichnerowicz ("Les varietes de
    Jacobi et leurs algebres de Lie associees", 1978) and of Kirillov's
    local Lie algebras ("Local Lie algebras", 1976).  Let R_sigma =
    sum_tau c(sigma, tau) d^tau and N_sigma = D_sigma - R_sigma I.  As
    [R_sigma, b] multiplies by V_sigma(b) = sum_j c(sigma, x_j) d_j b, the
    identity reads sum_sigma d^sigma(a) [N_sigma, b](p) = 0; with a = 1,
    then a = x_i, it holds iff each N_sigma has order <= 0.  Those n + 1
    order tests name the first failing (a, b, e_j) on the monomials of
    degree <= 1: a = x^sigma, b = x_k, e_j the first column with a d_k
    term.  Then E kills 1, as Pi(1, 1) = 0, and is the Der0 with X = R_1
    on A and X I + N_1 on P.  The terms of Pi with sigma or tau = 1 cancel
    in B, so B(a, b) = sum_ij c(x_i, x_j) d_i(a) d_j(b) and B(a, p) =
    sum_i d_i(a) (D_x_i + E(x_i))(p), where D_x_i + E(x_i) =
    sum_j c(x_i, x_j) d_j I + N_x_i: B is the BiDer0 with matrix parts N_x_i.
    """

    __slots__ = ()
    grade = 0

    def __init__(self, n, m, caa, dmap):
        dmap = {tuple(s): op for s, op in dmap.items()}
        for s, op in dmap.items():
            if len(s) != n or sum(s) > 1:
                raise ValueError("first-slot indices must have |sigma| <= 1")
            if not isinstance(op, MatrixOp) or op.n != n or op.m != m:
                raise ValueError("second-slot operators must be m x m MatrixOp")
            if op.order() > 1:
                raise ValueError("second-slot operators must have order <= 1")
        caa = _skew_table(n, caa)
        _, *units = monos = monomials_up_to(n, 1)
        parts = []
        for s in monos:
            row = ScalarOp(n, {t: c for (s2, t), c in caa.items() if s2 == s})
            n_s = dmap.get(s, MatrixOp.zero(n, m)) - MatrixOp.scalar_times_identity(row, m)
            if n_s.order() > 0:
                k, j = min((k, j) for r in n_s.entries for j, e in enumerate(r)
                           for k, t in enumerate(units) if t in e.coeffs)
                raise ValueError(
                    "components do not share scalar behaviour at (a, b, p) = (%s, %s, e%d)"
                    % (Poly.monomial(n, s), Poly.var(n, k + 1), j + 1))
            parts.append(n_s.order_zero_polymat())
        self._pair(*_from_table(n, caa, parts[1:], parts[0]))


def is_jacobi0(b):
    """Exact degree-0 Jacobi test; returns (verdict, named residuals).

    J = `jacobiator0` vanishes once two arguments lie in P, and is
    alternating in its A slots.  It is first order in each A slot: by
    skewness, J(-, z2, z3) = [L_z3, L_z2] + L_Pi(z2,z3) with L_y = Pi(y, -),
    and [L_y, a] multiplies by the element Pi(y, a) - a Pi(y, 1) of
    A (+) P (on P by the shared scalars of JacobiOp0), so
    [[[L_u, L_v], a], b] = [[L_u, a], [L_v, b]] + [[L_u, b], [L_v, a]]
    commutes multiplications and vanishes (Grabowski and Marmo, "Jacobi
    structures revisited", 2001, on A).  By the order fact of this module, the
    monomials 1, x_1..x_n then decide each A slot.  The residuals:

      * the A-part: J on their triples a1 < a2 < a3, C(n+1, 3) of them;
      * the P-part: J(a1, a2, e_j) on their pairs a1 < a2, C(n+1, 2) m
        values, reported once, as jacobiator(a1; a2; e_j): unfolding the
        evaluation rules gives the two placements of e_j in another slot
        the same value up to sign, so they add nothing;
      * jacobi_pde[i,j](e_k) = J(x_i, x_j, e_k), the first-order
        compatibility PDE on coordinate pairs.

    In the P slot constant sections suffice: the shared scalars unfold to
    J(a1, a2, bp) = b J(a1, a2, p) + (J(a1, a2, b) - b J(a1, a2, 1)) p, so
    once the A-part vanishes J(a1, a2, -) is A-linear on P and fixed by
    its values on e_1..e_m; while it does not, the verdict is fail anyway.
    """
    residuals, pde = _first_order_jacobiators(b, b.m)
    return not residuals, residuals + pde  # each pde value is a P-part residual


def _first_order_jacobiators(b, m):
    """The residuals of `is_jacobi0` with e_1..e_m, and its pde list."""
    n = b.n
    gens = _generators(n, m, one=True)
    labels = [str(a) for a in gens[:n + 1]] + ["e%d" % (j + 1) for j in range(m)]
    jac = _jacobiators(b.eval, gens, list(itertools.combinations(range(n + 1), 3)) + [
        (i, k, n + 1 + j) for i, k in itertools.combinations(range(n + 1), 2) for j in range(m)])
    return ([("jacobiator(%s; %s; %s)" % tuple(labels[i] for i in t), v) for t, v in jac.items()],
            [("jacobi_pde[%d,%d](e%d)" % (i, k, l - n), v)
             for (i, k, l), v in jac.items() if l > n and i])  # gens[i] = x_i


class JacobiNeg1(_BracketPair):
    """Degree -1 Jacobi data on a rank-1 module: {f p0, g p0} = J(f, g) p0,
    with J the bracket of the first-order skew table caa on A, stored as
    the pair (B, E) of `JacobiOp0` with zero matrix parts."""

    __slots__ = ()

    def __init__(self, n, caa):
        zero = PolyMat.zero(n, 1)
        self._pair(*_from_table(n, _skew_table(n, caa), [zero] * n, zero))


def jacobi_neg1_residuals(j):
    """Nonzero Jacobiators of the rank-1 bracket on the triples f < g < h
    of 1, x_1..x_n.  As in `is_jacobi0` (on A, where [L_y, a] multiplies
    by a function) the Jacobiator is alternating and first order in each
    slot, so these C(n+1, 3) triples decide it."""
    return _first_order_jacobiators(j, 0)[0]


def is_jacobi_neg1(j):
    """True iff the rank-1 bracket satisfies the Jacobi identity (skewness
    is structural); decided by `jacobi_neg1_residuals`."""
    return not jacobi_neg1_residuals(j)


def jacobi_from_poisson(pi):
    """Lift a degree-0 Poisson biderivation to the Jacobi-type bracket
    with Pi(1, -) = 0: the pair (pi, 0), valid with no check."""
    return JacobiOp0.__new__(JacobiOp0)._pair(pi, Der0.zero(pi.n, pi.m))


def _adjoint_curvature(l, alpha, beta):
    """[D_alpha, D_beta] - ad_[e_alpha, e_beta] through the derivation
    commutator, where D_alpha = der0_of(e_alpha) = ad_e_alpha.

    ad_p = [p, -] is the Der0 (rho_p, sum_a p^a C_a - M_p) with
    M_p[gamma][beta] = rho_beta(p^gamma): the correction to der0_of(p) is
    needed because ad_p is not A-linear in p.  The X part of the result
    is minus the anchor defect on (e_alpha, e_beta), and its G part sends
    e_gamma to minus the Jacobiator on (e_alpha, e_beta, e_gamma).
    """
    n, m = l.n, l.m
    c = PolyVec(n, [l.c[alpha].rows[g][beta] for g in range(m)])
    correction = PolyMat(n, [[l.rho[b](c.comps[g]) for b in range(m)] for g in range(m)])
    ad_c = l.der0_of(c) - Der0(VectorField.zero(n), correction)
    basis = [l.der0_of(PolyVec.basis(n, m, a)) for a in (alpha, beta)]
    return graded_commutator_der(*basis) - ad_c


def is_lie_algebroid(l):
    """Exact algebroid test; returns (verdict, named residuals).

    A-linearity of the anchor and the Leibniz rule
    [p, fq] = f[p, q] + rho_p(f) q hold by construction of the data, so,
    with J the cyclic Jacobiator of `_jacobiators`:

      * the anchor defect rho[p, q] - [rho p, rho q] is A-bilinear, and the
        basis pairs e_a < e_b decide it; by [f, e_b] = -rho_b(f) and
        [p, x_i] = rho(p)^i its component anchor[a,b].Xi is
        rho([e_a, e_b])^i - rho_a(rho_b^i) + rho_b(rho_a^i) = J(x_i, e_a, e_b);
      * the Jacobiator satisfies Jac(p, q, fr) = f Jac(p, q, r) +
        (rho[p, q] - [rho p, rho q])(f) r and is alternating, so once the
        anchor defect vanishes it is A-trilinear and the C(m, 3) basis
        triples decide it, jacobiator(1*ea; 1*eb; 1*ec) = J(e_a, e_b, e_c);
        for m < 3 nothing is left to check.  While the anchor defect does
        not vanish the verdict is fail either way.

    The second route checks [D_alpha, D_beta] = ad_[e_alpha, e_beta] on
    the basis pairs through `graded_commutator_der`
    (see `_adjoint_curvature`), without `eval`; its verdict must agree.
    """
    n, m = l.n, l.m
    es = range(n, n + m)
    jac = _jacobiators(l.eval, _generators(n, m),
                       [(i, a, b) for a, b in itertools.combinations(es, 2) for i in range(n)]
                       + list(itertools.combinations(es, 3)))
    residuals = [("anchor[%d,%d].X%d" % (t[1] - n + 1, t[2] - n + 1, t[0] + 1) if t[0] < n
                  else "jacobiator(%s)" % "; ".join("1*e%d" % (i - n + 1) for i in t), v)
                 for t, v in jac.items()]

    ok = not residuals
    route_ok = all(_adjoint_curvature(l, alpha, beta).is_zero()
                   for alpha, beta in itertools.combinations(range(m), 2))
    if ok != route_ok:
        raise RouteError("algebroid residuals disagree with the derivation commutator")
    return ok, residuals
