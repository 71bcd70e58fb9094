"""Designed inputs whose verdicts are known from the mathematics alone.

Every input here is a hand-designed structure (the acceptance suite's
C2, C3 and C9 structures, the shipped problem families, Lie algebra data)
moved by a seeded *isomorphism*: a diagonal change of coordinates, a
diagonal change of basis of P or of the Lie algebra, or a constant
rescaling of the whole bracket.  Each of these maps Poisson structures to
Poisson structures, Lie algebroids to Lie algebroids and so on, and maps
failures to failures, so the expected verdict and Betti numbers are those
of the designed structure and never come from the engine.  Isomorphisms
keep the sparsity pattern, so the cost of an input does not depend on
the seed.

Polynomials are kept as plain ``{exponent tuple: Fraction}`` dicts and
printed in the engine's text grammar by :func:`pstr`, so generating the
inputs exercises no engine code.
"""

from fractions import Fraction

F = Fraction


# ---------------------------------------------------------------------------
# neutral polynomials


def mono(n, i=None, c=1, e=1):
    """c * x_i^e in n variables (a constant when i is None); i is 1-based."""
    expo = tuple(e if j == (i or 0) - 1 else 0 for j in range(n))
    return {expo: F(c)}


def pscale(p, c):
    return {k: v * c for k, v in p.items() if v * c}


def coord_scale(p, s):
    """p(x / s): the pull-back of p under the coordinate change y = s x."""
    out = {}
    for mu, c in p.items():
        for e, si in zip(mu, s):
            c = c / si ** e
        out[mu] = c
    return out


def pstr(p):
    """Print a polynomial dict in the engine's text grammar."""
    if not p:
        return "0"
    parts = []
    for mu in sorted(p, key=lambda t: (-sum(t), tuple(-e for e in t))):
        c = p[mu]
        factors = ["x%d" % (j + 1) + ("^%d" % e if e > 1 else "")
                   for j, e in enumerate(mu) if e]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        sign = "-" if c < 0 else "+"
        parts.append(("-" + body) if not parts and c < 0 else
                     body if not parts else "%s %s" % (sign, body))
    return " ".join(parts)


def nonzero_rational(r):
    """A seeded nonzero rational with small numerator and denominator."""
    num = r.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
    return F(num, r.choice([1, 1, 2, 3, 5]))


def scale_factor(r):
    """A seeded factor for an isomorphism; small, so that the size of the
    rationals, and with it the cost of exact arithmetic, hardly depends on
    the seed."""
    return F(r.choice([1, -1, 2, -2, F(1, 2), F(-1, 2)]))


def rand_poly(r, n, monomials):
    """Random nonzero coefficients on a fixed list of monomials."""
    return {tuple(mu): nonzero_rational(r) for mu in monomials}


# ---------------------------------------------------------------------------
# degree-0 Poisson biderivations: (n, m, upper, end, verdict)
#   upper: {(i, j): poly} with 1 <= i < j <= n
#   end:   n matrices (m x m lists of polys), the Pi(x_i, -) parts on P


def _zero_mat(m):
    return [[{} for _ in range(m)] for _ in range(m)]


def _unit(n, m, a, b):
    """The constant matrix unit E_ab of size m, in n variables."""
    mat = _zero_mat(m)
    mat[a][b] = mono(n)
    return mat


def c2_poisson():
    """The eight designed structures of acceptance criterion C2."""
    so3 = {(1, 2): mono(3, 3), (2, 3): mono(3, 1), (1, 3): mono(3, 2, -1)}
    return [
        (3, 1, so3, None, True),
        (3, 2, so3, None, True),
        (2, 1, {(1, 2): mono(2)}, [[[mono(2, c=3)]], [[mono(2, c=F(1, 2))]]], True),
        (2, 2, {(1, 2): mono(2)}, [_unit(2, 2, 0, 1), _unit(2, 2, 0, 1)], True),
        (2, 1, {(1, 2): mono(2, 1)}, None, True),
        (3, 1, {(1, 2): mono(3, 2, e=2), (2, 3): mono(3, 1)}, None, False),
        (3, 2, {(1, 2): mono(3, 1)},
         [_zero_mat(2), _zero_mat(2),
          [[mono(3, 2), {}], [{}, {}]]], False),
        (2, 2, {(1, 2): mono(2)}, [_unit(2, 2, 0, 1), _unit(2, 2, 1, 0)], False),
    ]


def plane_bivector(r):
    """A random quadratic bivector in two variables with zero endomorphism
    part: Poisson, because there is no triple of coordinates."""
    return (2, 1, {(1, 2): rand_poly(r, 2, [(2, 0), (1, 1), (0, 1)])}, None, True)


def line_endomorphism(r):
    """A random rank-2 endomorphism part over one variable: Poisson, because
    there is no pair of coordinates."""
    end = [[rand_poly(r, 1, [(1,)]), rand_poly(r, 1, [(0,)])],
           [{}, rand_poly(r, 1, [(2,)])]]
    return (1, 2, {}, [end], True)


def move_poisson(struct, r):
    """Apply a seeded coordinate change, P-basis change and rescaling."""
    n, m, upper, end, verdict = struct
    s = [scale_factor(r) for _ in range(n)]
    t = [scale_factor(r) for _ in range(m)]
    lam = scale_factor(r)
    new_upper = {(i, j): pscale(coord_scale(p, s), s[i - 1] * s[j - 1] * lam)
                 for (i, j), p in upper.items()}
    new_end = None
    if end is not None:
        new_end = [[[pscale(coord_scale(end[i][a][b], s), s[i] * lam * t[a] / t[b])
                     for b in range(m)] for a in range(m)] for i in range(n)]
    return (n, m, new_upper, new_end, verdict)


def poisson_json(struct):
    n, m, upper, end, _ = struct
    if end is None:
        end = [_zero_mat(m) for _ in range(n)]
    return {"kind": "poisson0", "n": n, "m": m,
            "bivector": {"%d,%d" % k: pstr(p) for k, p in sorted(upper.items())},
            "end_part": [[[pstr(e) for e in row] for row in mat] for mat in end]}


# ---------------------------------------------------------------------------
# Lie algebroids: (n, m, anchor, c, verdict)
#   anchor[alpha] = n polys (the vector field rho_alpha)
#   c[alpha][beta][gamma] = coefficient of e_gamma in [e_alpha, e_beta]


def _structure(m, table, n):
    c = [[[{} for _ in range(m)] for _ in range(m)] for _ in range(m)]
    for (a, b, g), v in table.items():
        c[a][b][g] = mono(n, c=v)
        c[b][a][g] = mono(n, c=-v)
    return c


def c9_algebroids():
    """Tangent bundle of the plane, the so(3) bundle and a broken bundle."""
    tangent = (2, 2, [[mono(2), {}], [{}, mono(2)]], _structure(2, {}, 2), True)
    so3 = (1, 3, [[{}]] * 3,
           _structure(3, {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1}, 1), True)
    broken = (1, 3, [[{}]] * 3, _structure(3, {(0, 1, 2): 1, (0, 2, 0): 1}, 1), False)
    return [tangent, so3, broken]


def light_algebroids():
    """aff(1) acting on the line, and an anchor that is no homomorphism."""
    aff = (1, 2, [[mono(1, 1, -1)], [mono(1)]], _structure(2, {(0, 1, 1): 1}, 1), True)
    bad_anchor = (1, 2, [[mono(1)], [mono(1, 1)]], _structure(2, {}, 1), False)
    return [aff, bad_anchor]


def move_algebroid(struct, r):
    """Seeded basis change e_alpha -> s_alpha e_alpha and rescaling."""
    n, m, anchor, c, verdict = struct
    s = [scale_factor(r) for _ in range(m)]
    lam = scale_factor(r)
    new_anchor = [[pscale(p, s[a] * lam) for p in anchor[a]] for a in range(m)]
    new_c = [[[pscale(c[a][b][g], s[a] * s[b] / s[g] * lam) for g in range(m)]
              for b in range(m)] for a in range(m)]
    return (n, m, new_anchor, new_c, verdict)


def algebroid_json(struct):
    n, m, anchor, c, _ = struct
    return {"kind": "algebroid", "n": n, "m": m,
            "anchor": [[pstr(p) for p in row] for row in anchor],
            "structure": [[[pstr(v) for v in row] for row in block] for block in c]}


# ---------------------------------------------------------------------------
# Jacobi-type brackets (C3), rescaled by a constant: (n, m, caa, dmap, verdict)
#   caa:  {(sigma, tau): poly}
#   dmap: {sigma: m x m matrix of operators}, an operator being {sigma: poly}


def c3_jacobi0(lam):
    one1 = mono(1, c=lam)
    witt = {((0,), (1,)): one1, ((1,), (0,)): pscale(one1, -1)}
    lift = (1, 1, witt, {(0,): [[{(1,): mono(1, c=lam)}]],
                         (1,): [[{(0,): mono(1, c=-lam)}]]}, True)
    c = mono(2, c=lam)
    d1, d2, i1 = {(1, 0): c}, {(0, 1): c}, {(0, 0): c}
    neg = lambda op: {k: pscale(v, -1) for k, v in op.items()}
    bad = (2, 2, {((1, 0), (0, 1)): c, ((0, 1), (1, 0)): pscale(c, -1)},
           {(1, 0): [[d2, i1], [{}, d2]], (0, 1): [[neg(d1), {}], [i1, neg(d1)]]}, False)
    return witt, lift, bad


def _op_json(op):
    return [{"sigma": list(s), "coeff": pstr(p)} for s, p in sorted(op.items())]


def jacobi_neg1_json(witt):
    return {"kind": "jacobi_neg1", "n": 1, "m": 1, "jacobi_aa": _caa_json(witt)}


def _caa_json(caa):
    return [{"sigma": list(s), "tau": list(t), "coeff": pstr(p)}
            for (s, t), p in sorted(caa.items())]


def jacobi0_json(struct):
    n, m, caa, dmap, _ = struct
    return {"kind": "jacobi0", "n": n, "m": m, "jacobi_aa": _caa_json(caa),
            "jacobi_ap": [{"sigma": list(s),
                           "op": [[_op_json(e) for e in row] for row in mat]}
                          for s, mat in sorted(dmap.items())]}


# ---------------------------------------------------------------------------
# degree-0 operator pairs and order-k connections (shipped families)


def diffop_json(lam, valid):
    """The shipped diffop pair rescaled; valid iff boxP - boxA*I has order < k."""
    box = [{"sigma": [2, 0], "coeff": pstr(mono(2, c=lam))}]
    if valid:
        mat = [[box, [{"sigma": [0, 0], "coeff": pstr(mono(2, 1, lam))}]], [[], box]]
        return {"kind": "diolic_diffop", "n": 2, "m": 2, "k": 2, "boxA": box, "M": mat}
    return {"kind": "diolic_diffop", "n": 2, "m": 1, "k": 1,
            "boxA": [{"sigma": [1, 0], "coeff": pstr(mono(2, c=lam))}],
            "M": [[[{"sigma": [0, 1], "coeff": pstr(mono(2, c=lam))}]]]}


def k_connection_json(r, ok):
    """An order-2 connection in two variables; a random first-order part is
    added to each generator's P-part (still a connection), and the bad one
    maps d1 to d2."""
    table = []
    for sigma in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        head = {"sigma": list(sigma), "coeff": "1"}
        extra = [{"sigma": [1, 0], "coeff": pstr(mono(2, 2, nonzero_rational(r)))},
                 {"sigma": [0, 0], "coeff": pstr(mono(2, c=nonzero_rational(r)))}]
        box = [head]
        if not ok and sigma == (1, 0):
            box = [{"sigma": [0, 1], "coeff": "1"}]
        table.append({"sigma": list(sigma), "boxA": box,
                      "M": [[box + (extra if sum(sigma) == 2 else [])]]})
    return {"kind": "k_connection", "n": 2, "m": 1, "k": 2, "nabla": table}


# ---------------------------------------------------------------------------
# Lie algebra data for the Chevalley-Eilenberg complex: (c, rho, betti)


def sl2():
    """Basis (h, e, f): [h, e] = 2e, [h, f] = -2f, [e, f] = h."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j, k), v in {(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1}.items():
        c[i][j][k], c[j][i][k] = v, -v
    return c


def gl2():
    """Basis E11, E12, E21, E22 with [Eij, Ekl] = d_jk Eil - d_li Ekj."""
    idx = [(0, 0), (0, 1), (1, 0), (1, 1)]
    c = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for a, (i, j) in enumerate(idx):
        for b, (k, l) in enumerate(idx):
            if j == k:
                c[a][b][idx.index((i, l))] += 1
            if l == i:
                c[a][b][idx.index((k, j))] -= 1
    std = [[[1 if (p, q) == ij else 0 for q in range(2)] for p in range(2)]
           for ij in idx]
    return c, std


def adjoint(c):
    r = len(c)
    return [[[c[i][j][k] for j in range(r)] for k in range(r)] for i in range(r)]


def lie_families():
    """(c, rho, Betti numbers) known by hand."""
    c_sl2 = sl2()
    c_gl2, std = gl2()
    trivial = lambda r: [[[0]] for _ in range(r)]
    return [
        (c_sl2, trivial(3), [1, 0, 0, 1]),
        (c_sl2, adjoint(c_sl2), [0, 0, 0, 0]),
        ([[[0, 0], [0, 0]], [[0, 0], [0, 0]]], trivial(2), [1, 2, 1]),
        (c_gl2, trivial(4), [1, 1, 0, 1, 1]),
        (c_gl2, std, [0, 0, 0, 0, 0]),
        # gl(2) = sl(2) + centre and ad = ad_sl2 + trivial: Hochschild-Serre
        # gives H(gl2, ad_sl2) = 0 (Whitehead) and H(gl2, k) = [1, 1, 0, 1, 1]
        (c_gl2, adjoint(c_gl2), [1, 1, 0, 1, 1]),
    ]


def move_lie(c, rho, r):
    """Seeded sign changes of the basis of the algebra and of the module and
    of the whole bracket; the cohomology is unchanged.  Signs alone keep the
    cost of every copy the same, so that the percentiles of the cohomology
    workload fall on runs of equal-cost items."""
    dim, d1 = len(c), len(rho[0])
    s = [r.choice([1, -1]) for _ in range(dim)]
    t = [r.choice([1, -1]) for _ in range(d1)]
    lam = r.choice([1, -1])
    c2 = [[[F(c[i][j][k]) * s[i] * s[j] / s[k] * lam for k in range(dim)]
           for j in range(dim)] for i in range(dim)]
    rho2 = [[[F(rho[i][a][b]) * s[i] * lam * t[a] / t[b] for b in range(d1)]
             for a in range(d1)] for i in range(dim)]
    return c2, rho2


def ce_json(c, rho):
    text = lambda v: str(F(v))
    return {"kind": "ce", "dim": len(c), "rep_dim": len(rho[0]),
            "c": [[[text(v) for v in row] for row in block] for block in c],
            "rho": [[[text(v) for v in row] for row in mat] for mat in rho]}
