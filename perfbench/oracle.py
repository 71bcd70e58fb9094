"""Sympy re-derivations of operator-calculus and symbol-bracket results.

Each check rebuilds the inputs as sympy expressions, recomputes the result
by plain differentiation and expansion, and compares it with the engine's
output.  An operator of order <= k on a polynomial ring is zero iff it
kills every monomial of degree <= k, so comparing actions on those
monomials decides equality exactly.  sympy is imported on first use,
outside the timed region.
"""

import itertools
import re

_sp = None


def sp():
    global _sp
    if _sp is None:
        import sympy
        _sp = sympy
    return _sp


def _xs(n, letter="x"):
    return sp().symbols(" ".join("%s%d" % (letter, i + 1) for i in range(n)), seq=True)


def _rat(c):
    return sp().Rational(c.numerator, c.denominator)


def _mono(vars_, expo):
    out = sp().Integer(1)
    for v, e in zip(vars_, expo):
        out *= v ** e
    return out


def poly_expr(p, xs):
    return sum((_rat(c) * _mono(xs, mu) for mu, c in p.terms.items()), sp().Integer(0))


def _diff(f, xs, sigma):
    for v, e in zip(xs, sigma):
        if e:
            f = sp().diff(f, v, e)
    return f


def apply_op(op, f, xs):
    """A ScalarOp, read from its stored coefficients, applied to f."""
    return sp().expand(sum((poly_expr(a, xs) * _diff(f, xs, s)
                            for s, a in op.coeffs.items()), sp().Integer(0)))


def _monomials(n, d):
    return [t for t in itertools.product(range(d + 1), repeat=n) if sum(t) <= d]


def _same(a, b):
    return sp().expand(a - b) == 0


def symbol_expr(op, k, xs, ks):
    """The order-k symbol sum_{|sigma|=k} a_sigma xi^sigma, from the operator."""
    return sp().expand(sum((poly_expr(a, xs) * _mono(ks, s)
                            for s, a in op.coeffs.items() if sum(s) == k), sp().Integer(0)))


def symbolpoly_expr(s, xs, ks):
    return sum((_rat(c) * _mono(xs, x) * _mono(ks, k) for (x, k), c in s.terms.items()),
               sp().Integer(0))


def pb(f, g, xs, ks):
    """The canonical bracket sum_i df/dxi_i dg/dx_i - df/dx_i dg/dxi_i."""
    d = sp().diff
    return sp().expand(sum((d(f, k) * d(g, x) - d(f, x) * d(g, k)
                            for x, k in zip(xs, ks)), sp().Integer(0)))


def check_compose(a, b, out):
    """out = (a o b, [a, b], smbl(a o b), smbl(a) * smbl(b), smbl([a, b]), {smbl a, smbl b})."""
    n = a.n
    xs, ks = _xs(n), _xs(n, "k")
    ab, comm = out[0], out[1]
    for mu in _monomials(n, a.order() + b.order()):
        f = _mono(xs, mu)
        bf, af = apply_op(b, f, xs), apply_op(a, f, xs)
        a_bf, b_af = apply_op(a, bf, xs), apply_op(b, af, xs)
        if not (_same(apply_op(ab, f, xs), a_bf)
                and _same(apply_op(comm, f, xs), a_bf - b_af)):
            return False
    ka, kb = max(a.order(), 0), max(b.order(), 0)
    sa, sb = symbol_expr(a, ka, xs, ks), symbol_expr(b, kb, xs, ks)
    return (_same(symbolpoly_expr(out[3], xs, ks), sa * sb)
            and _same(symbolpoly_expr(out[5], xs, ks), pb(sa, sb, xs, ks)))


def _vec_action(op_rows, vec, xs):
    """Apply a matrix of ScalarOps (rows of entries) to a list of expressions."""
    return [sum((apply_op(e, v, xs) for e, v in zip(row, vec)), sp().Integer(0))
            for row in op_rows]


def _der0_action(d, a, vec, xs):
    """A degree-0 derivation (X, G): a -> X(a), p -> X(p) + G p."""
    X = [poly_expr(c, xs) for c in d.X.comps]
    G = [[poly_expr(c, xs) for c in row] for row in d.G.rows]
    vf = lambda f: sp().expand(sum((c * sp().diff(f, x) for c, x in zip(X, xs)),
                                   sp().Integer(0)))
    return vf(a), [sp().expand(vf(p) + sum((g * q for g, q in zip(row, vec)),
                                           sp().Integer(0)))
                   for p, row in zip(vec, G)]


def _test_elements(n, m, d, xs):
    """(a, 0) and (0, mu e_j) for every monomial mu of degree <= d."""
    zero = [sp().Integer(0)] * m
    for mu in _monomials(n, d):
        f = _mono(xs, mu)
        yield f, zero
        for j in range(m):
            yield sp().Integer(0), [f if i == j else 0 for i in range(m)]


def check_der0(d1, d2, out):
    """[d1, d2] of two degree-0 derivations against compose-and-subtract."""
    xs = _xs(d1.n)
    for a, vec in _test_elements(d1.n, d1.m, 2, xs):
        a2, v2 = _der0_action(d2, a, vec, xs)
        a12, v12 = _der0_action(d1, a2, v2, xs)
        a1, v1 = _der0_action(d1, a, vec, xs)
        a21, v21 = _der0_action(d2, a1, v1, xs)
        ao, vo = _der0_action(out, a, vec, xs)
        if not _same(ao, a12 - a21) or any(not _same(o, x - y)
                                           for o, x, y in zip(vo, v12, v21)):
            return False
    return True


def _diff0_action(b, a, vec, xs):
    """A degree-0 operator in split form: a -> boxA(a), p -> boxA(p) + M p."""
    M = _vec_action(b.M.entries, vec, xs)
    return apply_op(b.boxA, a, xs), [sp().expand(apply_op(b.boxA, p, xs) + q)
                                     for p, q in zip(vec, M)]


def check_diff0(b1, b2, out):
    """[b1, b2] of two degree-0 operators against compose-and-subtract."""
    xs = _xs(b1.n)
    for a, vec in _test_elements(b1.n, b1.m, b1.k + b2.k, xs):
        a2, v2 = _diff0_action(b2, a, vec, xs)
        a12, v12 = _diff0_action(b1, a2, v2, xs)
        a1, v1 = _diff0_action(b1, a, vec, xs)
        a21, v21 = _diff0_action(b2, a1, v1, xs)
        ao, vo = _diff0_action(out, a, vec, xs)
        if not _same(ao, a12 - a21) or any(not _same(o, x - y)
                                           for o, x, y in zip(vo, v12, v21)):
            return False
    return True


# ---------------------------------------------------------------------------
# symbol brackets given as text


def random_symbol(r, n):
    """Text of a symbol homogeneous of degree 1 or 2 in k1..kn, with two or
    three distinct monomials (so that no term cancels)."""
    d = r.choice([1, 2])
    count = r.choice([2, 3])
    monomials = []
    while len(monomials) < count:
        xe = [r.randint(0, 2) for _ in range(n)]
        ke = [0] * n
        for _ in range(d):
            ke[r.randrange(n)] += 1
        if (xe, ke) not in monomials:
            monomials.append((xe, ke))
    terms = []
    for xe, ke in monomials:
        num, den = r.choice([-3, -2, -1, 1, 2, 3]), r.choice([1, 2, 3])
        factors = ["%s%d^%d" % (letter, i + 1, e)
                   for letter, exps in (("x", xe), ("k", ke))
                   for i, e in enumerate(exps) if e]
        terms.append("%s%d/%d*%s" % ("-" if num < 0 else "+", abs(num), den,
                                     "*".join(factors)))
    return " ".join(terms).lstrip("+")


def _parse(text):
    return sp().sympify(text.replace("^", "**"))


def check_symbol_bracket(s1, s2, value):
    """The printed value of ``bracket --kind symbol s1 s2`` against sympy."""
    n = max(int(t) for t in re.findall(r"[xk](\d+)", s1 + s2))
    xs, ks = _xs(n), _xs(n, "k")
    return _same(_parse(value), pb(_parse(s1), _parse(s2), xs, ks))
