"""The four workloads: seeded item lists with independent expected answers.

An *item* is one checker call, one operation group or one CLI invocation.
``build(name, seed, root)`` returns the item list of one *pass*; the
runner repeats whole passes.  Every item carries ``check``, a cheap test
of its output against an answer fixed when the input was designed (see
``families``), and some carry ``oracle``, a sympy re-derivation that the
runner applies to a seeded sample outside the timed region.

Engine functions are always reached through their module attribute
(``brackets.is_poisson0``), so the span recorder in ``spans`` sees every
call the workloads make.
"""

import contextlib
import io
import itertools
import json
import os
import random


import families as fam
import oracle

WORKLOADS = ("structure-suite", "operator-calculus", "cli-problems",
             "cohomology-ladder")

# The engine modules; imported by ``load_engine`` once src/ is on the path.
E = {}


def load_engine():
    import importlib
    for name in ("poly", "ops", "derivations", "diffops", "symbols",
                 "brackets", "complexes", "cli"):
        E[name] = importlib.import_module("diolic." + name)
    return E


class Item:
    """``run()`` computes the output; ``spec`` is the text of the input."""

    __slots__ = ("label", "run", "check", "oracle", "spec")

    def __init__(self, label, run, check, oracle=None, spec=""):
        self.label = label
        self.run = run
        self.check = check
        self.oracle = oracle
        self.spec = spec


def build(name, seed, root):
    r = random.Random("%s/%d" % (name, seed))
    return BUILDERS[name](r, root)


# ---------------------------------------------------------------------------
# conversions from the neutral data of ``families`` to engine objects


def to_poly(n, p):
    return E["poly"].Poly(n, p)


def to_scalar_op(n, op):
    return E["ops"].ScalarOp(n, {s: to_poly(n, p) for s, p in op.items()})


def to_bider0(struct):
    P = E["poly"]
    n, m, upper, end, _ = struct
    mats = None
    if end is not None:
        mats = [P.PolyMat(n, [[to_poly(n, e) for e in row] for row in mat])
                for mat in end]
    return E["brackets"].BiDer0.from_upper(
        n, m, {k: to_poly(n, p) for k, p in upper.items()}, mats)


def to_algebroid(struct):
    n, m, anchor, c, _ = struct
    rho = [E["ops"].VectorField(n, [to_poly(n, p) for p in row]) for row in anchor]
    cmats = [E["poly"].PolyMat(n, [[to_poly(n, c[a][b][g]) for b in range(m)]
                                   for g in range(m)]) for a in range(m)]
    return E["brackets"].BiDerNeg1(rho, cmats)


def to_jacobi0(struct):
    n, m, caa, dmap, _ = struct
    ops = {s: E["ops"].MatrixOp(n, [[to_scalar_op(n, e) for e in row] for row in mat])
           for s, mat in dmap.items()}
    return E["brackets"].JacobiOp0(
        n, m, {k: to_poly(n, p) for k, p in caa.items()}, ops)


# ---------------------------------------------------------------------------
# structure-suite: checker library calls on designed structures


def _poisson_items(label, struct, r):
    B = E["brackets"]
    pi = to_bider0(struct)
    verdict = struct[4]
    spec = repr(struct)
    items = [
        Item("poisson:" + label, lambda: B.is_poisson0(pi),
             lambda out: out[0] == verdict and bool(out[1]) != verdict, spec=spec),
        Item("schouten:" + label, lambda: B.schouten_probe_suite(pi, degree=2),
             lambda out: (out == []) == verdict, spec=spec),
    ]
    if verdict:
        # a Poisson structure lifts to a Jacobi structure, and [[Pi, Pi]]
        # vanishes on every argument triple
        P = E["poly"]
        n, m = pi.n, pi.m
        slots = [P.Poly.monomial(n, [r.randint(0, 2) for _ in range(n)])
                 for _ in range(3)]
        j = r.randrange(4)
        if j < 3:
            slots[j] = slots[j] * P.PolyVec.basis(n, m, r.randrange(m))
        items.append(Item("lift:" + label,
                          lambda: B.is_jacobi0(B.jacobi_from_poisson(pi)),
                          lambda out: out == (True, []), spec=spec))
        items.append(Item("self:" + label,
                          lambda: B.schouten_self_eval(pi, *slots),
                          lambda out: out.is_zero(), spec=spec + repr(slots)))
    return items


def structure_suite(r, root):
    """The C2, C3 and C9 structures, each moved by a seeded isomorphism, and
    small structures that are Poisson or algebroids for structural reasons.

    C2's so(3) structure at rank 2 is left out: its two routes and its
    Jacobi lift take 5 s, more than a third of a pass by themselves, and
    the rank-1 so(3) structure exercises the same code.
    """
    B = E["brackets"]
    items = []
    for i, struct in enumerate(fam.c2_poisson()):
        if i != 1:
            items += _poisson_items("c2-%d" % i, fam.move_poisson(struct, r), r)
    light = [fam.plane_bivector(r)] + [fam.line_endomorphism(r) for _ in range(25)]
    for i, struct in enumerate(light):
        items += _poisson_items("light-%d" % i, fam.move_poisson(struct, r), r)

    witt, lift, bad = fam.c3_jacobi0(fam.scale_factor(r))
    neg1 = B.JacobiNeg1(1, {k: to_poly(1, p) for k, p in witt.items()})
    items.append(Item("c3-witt-neg1", lambda: B.is_jacobi_neg1(neg1),
                      lambda out: out is True, spec=repr(witt)))
    for label, struct in (("c3-witt-lift", lift), ("c3-bad", bad)):
        expect = struct[4]
        items.append(Item(label, lambda s=struct: B.is_jacobi0(to_jacobi0(s)),
                          lambda out, e=expect: out[0] == e and (e or any(
                              name.startswith("jacobi_pde") for name, _ in out[1])),
                          spec=repr(struct)))

    algebroids = [("c9-%d" % i, s) for i, s in enumerate(fam.c9_algebroids())]
    algebroids += [("light-alg-%d-%d" % (copy, i), s) for copy in range(5)
                   for i, s in enumerate(fam.light_algebroids())]
    for label, struct in algebroids:
        moved = fam.move_algebroid(struct, r)
        alg = to_algebroid(moved)
        items.append(Item("algebroid:" + label,
                          lambda a=alg: B.is_lie_algebroid(a),
                          lambda out, e=moved[4]: out[0] == e and bool(out[1]) != e,
                          spec=repr(moved)))
    return items


# ---------------------------------------------------------------------------
# operator-calculus: random operator algebra in the style of C1, C4, C5, C7


def _rand_poly(r, n, deg, terms):
    P = E["poly"]
    monos = P.monomials_up_to(n, deg)
    return P.Poly(n, {tuple(s): fam.nonzero_rational(r)
                      for s in r.sample(monos, min(terms, len(monos)))})


def _rand_op(r, n, order, coeff_deg=2, terms=3):
    """A scalar operator of exact order ``order`` (its top term is forced)."""
    P, O = E["poly"], E["ops"]
    top = [s for s in P.monomials_up_to(n, order) if sum(s) == order]
    rest = P.monomials_up_to(n, order)
    sigmas = {tuple(r.choice(top))}
    while len(sigmas) < min(terms, len(rest)):
        sigmas.add(tuple(r.choice(rest)))
    return O.ScalarOp(n, {s: _rand_poly(r, n, coeff_deg, 2) for s in sorted(sigmas)})


def _rand_matrix_op(r, n, m, order, coeff_deg=2):
    O = E["ops"]
    if order < 0:
        return O.MatrixOp.zero(n, m)
    return O.MatrixOp(n, [[_rand_op(r, n, order, coeff_deg, 2) for _ in range(m)]
                          for _ in range(m)])


def _rand_diffop0(r, n, m, k):
    return E["diffops"].DiffOp0(k, _rand_op(r, n, k), _rand_matrix_op(r, n, m, k - 1))


def _rand_vf(r, n):
    return E["ops"].VectorField(n, [_rand_poly(r, n, 2, 2) for _ in range(n)])


def _rand_der(r, n, m, degree):
    D, P = E["derivations"], E["poly"]
    if degree == 0:
        return D.Der0(_rand_vf(r, n), P.PolyMat(n, [[_rand_poly(r, n, 2, 2)
                                                      for _ in range(m)]
                                                     for _ in range(m)]))
    if degree == 1:
        return D.Der1([_rand_vf(r, n) for _ in range(m)])
    return D.DerNeg1([_rand_poly(r, n, 2, 2)])


def _compose_item(r, n, ka, kb):
    O, S = E["ops"], E["symbols"]
    a, b = _rand_op(r, n, ka, 3), _rand_op(r, n, kb, 3)

    def run():
        ab, comm = a @ b, O.commutator(a, b)
        sa, sb = S.smbl_scalar(a, ka), S.smbl_scalar(b, kb)
        low = max(ka + kb - 1, 0)
        return (ab, comm, S.smbl_scalar(ab, ka + kb), S.star(sa, sb),
                S.smbl_scalar(comm, low), S.poisson_bracket(sa, sb))

    # the symbol map is a homomorphism (C1)
    check = lambda out: out[2] == out[3] and out[4] == out[5]
    return Item("compose:n%d:%d,%d" % (n, ka, kb), run, check,
                lambda out: oracle.check_compose(a, b, out), "%s | %s" % (a, b))


DER_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1), (0, -1), (-1, 0), (1, -1), (-1, 1)]
# degree of the bracket, or None when it vanishes identically
DER_RESULT = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): None, (0, -1): -1,
              (-1, 0): -1, (1, -1): 0, (-1, 1): 0}


def _der_item(r, n, pair):
    D = E["derivations"]
    m = 1 if -1 in pair else 2
    d1, d2 = (_rand_der(r, n, m, g) for g in pair)
    want = {0: D.Der0, 1: D.Der1, -1: D.DerNeg1, None: int}[DER_RESULT[pair]]
    check = lambda out: type(out) is want and (want is not int or out == 0)
    orc = (lambda out: oracle.check_der0(d1, d2, out)) if pair == (0, 0) else None
    return Item("der:n%d:%d,%d" % ((n,) + pair), lambda: D.graded_commutator_der(d1, d2),
                check, orc, "%s | %s" % (d1, d2))


def _diff_item(r, n, m, k, l):
    Df = E["diffops"]
    b1, b2 = _rand_diffop0(r, n, m, k), _rand_diffop0(r, n, m, l)

    def run():
        out = Df.graded_commutator_diff(b1, b2)
        return out, Df.atiyah_project(out)

    # the commutator of orders k and l has order k+l-1, its matrix part k+l-2 (C5)
    check = lambda out: (out[1].order() <= max(k + l - 1, -1)
                         and out[0].M.order() <= max(k + l - 2, -1))
    return Item("diff:n%d:m%d:%d,%d" % (n, m, k, l), run, check,
                lambda out: oracle.check_diff0(b1, b2, out[0]), "%s | %s" % (b1, b2))


def _diff01_item(r, n, m, k, l):
    Df = E["diffops"]
    b0 = _rand_diffop0(r, n, m, k)
    b1 = Df.DiffOp1(l, [_rand_op(r, n, l) for _ in range(m)])
    return Item("diff01:n%d:m%d:%d,%d" % (n, m, k, l),
                lambda: Df.graded_commutator_diff(b0, b1),
                lambda out: isinstance(out, Df.DiffOp1) and out.order() <= k + l - 1,
                spec="%s | %s" % (b0, b1))


def _order_item(r, n, m, j):
    O = E["ops"]
    op = _rand_op(r, n, j) if m == 0 else _rand_matrix_op(r, n, m, j)
    return Item("order:n%d:m%d:%d" % (n, m, j),
                lambda: (O.verify_order(op, j), O.verify_order(op, j - 1)),
                lambda out: out == (True, False), spec=str(op))


def _lambda_item(r, n, m, k, member):
    """C7: the nested deltas of b vanish iff b lies one filtration step down."""
    P, Df, S = E["poly"], E["diffops"], E["symbols"]
    if member:
        b = Df.DiffOp0(k, _rand_op(r, n, k - 1), _rand_matrix_op(r, n, m, k - 2))
    else:
        b = _rand_diffop0(r, n, m, k)
    args = [[P.Poly.monomial(n, s) for s in t]
            for t in itertools.product(P.monomials_up_to(n, k), repeat=k - 1)]
    return Item("lambda:n%d:m%d:%d:%s" % (n, m, k, member),
                lambda: all(S.lambda_k(b, a).is_zero() for a in args),
                lambda out: out == member, spec=str(b))


def _pair_item(r, n, m, k, valid):
    O, Df = E["ops"], E["diffops"]
    box = _rand_op(r, n, k)
    if valid:
        extra = _rand_matrix_op(r, n, m, k - 1)
    else:
        # an order-k entry in boxP - boxA*I
        top = O.ScalarOp.partial_sigma(n, (k,) + (0,) * (n - 1))
        extra = O.MatrixOp(n, [[top if (i, j) == (0, 0) else O.ScalarOp.zero(n)
                                for j in range(m)] for i in range(m)])
    boxp = O.MatrixOp.scalar_times_identity(box, m) + extra
    return Item("pair:n%d:m%d:%d:%s" % (n, m, k, valid),
                lambda: Df.verify_diolic_diffop(box, boxp, k),
                lambda out: out == valid, spec="%s | %s" % (box, boxp))


def _kconn_item(r, n, m, k, ok):
    """An order-k connection: each generator d^sigma with a P-part of the
    same top order; the bad table sends the first generator to the second."""
    P, O, Df = E["poly"], E["ops"], E["diffops"]
    raw = []
    gens = [s for s in P.monomials_up_to(n, k) if sum(s) > 0]
    for sigma in gens:
        target = gens[1] if (not ok and sigma == gens[0]) else sigma
        box = O.ScalarOp.partial_sigma(n, target)
        lower = _rand_matrix_op(r, n, m, k - 1)
        raw.append((sigma, box, O.MatrixOp.scalar_times_identity(box, m) + lower))

    def run():
        table = {s: Df.DiffOp0.from_pair(a, p, k) for s, a, p in raw}
        return Df.check_k_connection(table, k, n, m)

    return Item("kconn:n%d:m%d:%d:%s" % (n, m, k, ok), run, lambda out: out == ok,
                spec=repr([(s, str(p)) for s, _, p in raw]))


def operator_calculus(r, root):
    items = []
    for n, ka, kb in [(1, 2, 3), (1, 3, 3), (2, 1, 2), (2, 2, 2), (2, 3, 1), (3, 1, 1),
                      (3, 2, 1)] * 4:
        items.append(_compose_item(r, n, ka, kb))
    for n in (1, 2, 3):
        for pair in DER_PAIRS:
            items.append(_der_item(r, n, pair))
    for n, m, k, l in [(1, 1, 1, 2), (1, 2, 2, 2), (2, 1, 1, 1), (2, 1, 2, 1),
                       (2, 2, 1, 1), (2, 2, 2, 1)] * 3:
        items.append(_diff_item(r, n, m, k, l))
    for n, m, k, l in [(1, 1, 1, 1), (2, 2, 1, 1), (2, 1, 2, 1)] * 2:
        items.append(_diff01_item(r, n, m, k, l))
    for n, m, j in [(1, 0, 2), (2, 0, 1), (2, 0, 2), (3, 0, 1), (1, 2, 1), (2, 2, 1)] * 2:
        items.append(_order_item(r, n, m, j))
    for n, m, k in [(1, 1, 2), (1, 2, 3), (2, 1, 2), (2, 2, 2)]:
        for member in (True, False):
            items.append(_lambda_item(r, n, m, k, member))
    for n, m, k in [(1, 2, 2), (2, 1, 1), (2, 2, 2)] * 2:
        for valid in (True, False):
            items.append(_pair_item(r, n, m, k, valid))
    for n, m, k, ok in [(1, 1, 2, True), (2, 1, 2, True), (2, 1, 2, False),
                        (1, 2, 2, False)]:
        items.append(_kconn_item(r, n, m, k, ok))
    return items


# ---------------------------------------------------------------------------
# the CLI, in-process


class CliItem(Item):
    """``diolic.cli.main(argv)``; the output is (exit code, stdout)."""

    __slots__ = ()

    def __init__(self, label, argv, check, oracle=None):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = E["cli"].main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, buf.getvalue()
        files = []
        for arg in argv:
            if os.path.isfile(arg):
                with open(arg, encoding="utf-8") as fh:
                    files.append(fh.read())
        super().__init__(label, run, check, oracle, json.dumps([argv, files]))


def _exit_is(code):
    return lambda out: out[0] == code


def _write(work, name, doc):
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def work_dir(root):
    path = os.path.join(root, ".perfbench_work")
    os.makedirs(path, exist_ok=True)
    return path


def _value(out):
    return json.loads(out[1])["value"]


def cli_problems(r, root):
    problems = os.path.join(root, "problems")
    with open(os.path.join(problems, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    items = [CliItem("shipped:" + name, ["check", os.path.join(problems, name)],
                     _exit_is(code)) for name, code in sorted(manifest.items())]

    # generated problems: three copies of the cheap Poisson kind, two of the
    # other cheap kinds, one of the C9 algebroids (which take up to a second)
    # and four of the light ones, whose ~0.13 s lie around the 90th percentile
    work = work_dir(root)
    docs = []
    for copy in range(3):
        for i, s in enumerate(fam.c2_poisson()):
            docs.append(("poisson-%d-%d" % (i, copy),
                         fam.poisson_json(fam.move_poisson(s, r)), s[4]))
    algebroids = fam.c9_algebroids() + 4 * fam.light_algebroids()
    for i, s in enumerate(algebroids):
        docs.append(("algebroid-%d" % i, fam.algebroid_json(fam.move_algebroid(s, r)),
                     s[4]))
    for copy in range(2):
        witt, lift, bad = fam.c3_jacobi0(fam.scale_factor(r))
        docs += [("witt-%d" % copy, fam.jacobi_neg1_json(witt), True),
                 ("witt-lift-%d" % copy, fam.jacobi0_json(lift), True),
                 ("jacobi-bad-%d" % copy, fam.jacobi0_json(bad), False)]
        for valid in (True, False):
            docs.append(("diffop-%s-%d" % (valid, copy),
                         fam.diffop_json(fam.scale_factor(r), valid), valid))
            docs.append(("kconn-%s-%d" % (valid, copy),
                         fam.k_connection_json(r, valid), valid))
        for i, (c, rho, _) in enumerate(fam.lie_families()):
            docs.append(("ce-%d-%d" % (i, copy), fam.ce_json(*fam.move_lie(c, rho, r)),
                         True))
    for label, doc, verdict in docs:
        path = _write(work, "cli-%s.json" % label, doc)
        items.append(CliItem("check:" + label, ["check", path], _exit_is(0 if verdict else 1)))

    items += _bracket_items(r)
    return items


def _bracket_items(r):
    items = []
    zero_value = lambda out: out[0] == 0 and _value(out) == "0"
    for i in range(20):
        n = 1 + i % 3
        s1, s2 = oracle.random_symbol(r, n), oracle.random_symbol(r, n)
        items.append(CliItem("bracket:symbol-%d" % i,
                             ["bracket", "--kind", "symbol", s1, s2], _exit_is(0),
                             lambda out, a=s1, b=s2: oracle.check_symbol_bracket(a, b, _value(out))))
    # [D, lam D] = 0 for every even D, and degree-1 derivations anticommute to 0
    for i in range(6):
        n, m = 1 + i % 2, 1 + (i // 2) % 2
        d = _neutral_der0(r, n, m)
        lam = fam.nonzero_rational(r)
        items.append(CliItem("bracket:der0-%d" % i,
                             ["bracket", "--kind", "der0", json.dumps(_der0_text(d, 1)),
                              json.dumps(_der0_text(d, lam))], zero_value))
    for i in range(4):
        n, m = 2, 1 + i % 2
        z1 = {"Z": [[fam.pstr(fam.rand_poly(r, n, [(1, 0), (0, 2)])) for _ in range(n)]
                    for _ in range(m)]}
        z2 = {"Z": [[fam.pstr(fam.rand_poly(r, n, [(0, 1), (1, 1)])) for _ in range(n)]
                    for _ in range(m)]}
        items.append(CliItem("bracket:der1-der1-%d" % i,
                             ["bracket", "--kind", "der1-der1", json.dumps(z1),
                              json.dumps(z2)], zero_value))
    for i in range(4):
        coeffs = [fam.nonzero_rational(r) for _ in range(3)]
        lam = fam.nonzero_rational(r)
        items.append(CliItem("bracket:diff0-%d" % i,
                             ["bracket", "--kind", "diff0", json.dumps(_diff0_text(coeffs, 1)),
                              json.dumps(_diff0_text(coeffs, lam))], zero_value))
    for i, s in enumerate(s for s in fam.c2_poisson() if s[4]):
        moved = fam.move_poisson(s, r)
        n, m = moved[0], moved[1]
        z = [{"a": fam.pstr(fam.mono(n, 1 + j % n, e=1 + j))} for j in range(3)]
        z[r.randrange(3)] = {"p": [fam.pstr(fam.mono(n, 1 + a % n)) for a in range(m)]}
        items.append(CliItem("bracket:schouten-self-%d" % i,
                             ["bracket", "--kind", "schouten-self",
                              json.dumps(fam.poisson_json(moved)), json.dumps({"z": z})],
                             lambda out: out[0] == 0 and set(_value(out)) <= set("0(|), ")))
    return items


def _neutral_der0(r, n, m):
    monos = [(0,) * n, tuple(1 if j == 0 else 0 for j in range(n))]
    return ([fam.rand_poly(r, n, monos) for _ in range(n)],
            [[fam.rand_poly(r, n, monos[1:]) for _ in range(m)] for _ in range(m)])


def _der0_text(d, lam):
    xs, g = d
    return {"X": [fam.pstr(fam.pscale(p, lam)) for p in xs],
            "G": [[fam.pstr(fam.pscale(p, lam)) for p in row] for row in g]}


def _diff0_text(coeffs, lam):
    """lam times an order-2 operator in two variables at rank 1."""
    a, b, c = (x * lam for x in coeffs)
    box = [{"sigma": [2, 0], "coeff": fam.pstr(fam.mono(2, 2, a))},
           {"sigma": [0, 1], "coeff": fam.pstr(fam.mono(2, 1, b))}]
    return {"k": 2, "boxA": box,
            "M": [[box + [{"sigma": [1, 0], "coeff": fam.pstr(fam.mono(2, c=c))}]]]}


# ---------------------------------------------------------------------------
# cohomology-ladder

# (n, m, D) rungs of ``cohomology --der``; each has H = 0 in every degree.
# Left out at the time of writing: 3 2 1 (3 s; it would push a pass past
# 10 s and a run below three passes), 3 2 2 (16 s), 1 3 0 (102 s) and
# 1 3 1 (over 150 s); m = 3 is not exercised at all.
DER_LADDER = [(1, 1, 6), (2, 1, 6), (3, 1, 4), (4, 1, 2), (1, 2, 0), (1, 2, 1),
              (1, 2, 2), (2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 2, 0)]

# Generated copies per ``families.lie_families`` entry (sl2 trivial and
# adjoint, abelian, gl2 trivial, standard and adjoint; the shipped files
# cover the sl2 adjoint and abelian cases).  The counts put the median
# inside the run of gl2-trivial items (about 4 ms each) and the 90th
# percentile inside the run of gl2-adjoint items (about 25 ms), just below
# the heavy rungs, so that neither falls into a gap between cost levels.
CE_COPIES = [55, 0, 0, 40, 35, 10]


def _betti_is(betti):
    def check(out):
        return out[0] == 0 and json.loads(out[1])["betti"] == betti
    return check


def cohomology_ladder(r, root):
    # one Betti number per form degree 0 .. n + m^2, all of them zero
    items = [CliItem("der:%d,%d,%d" % (n, m, d),
                     ["cohomology", "--der", str(n), str(m), str(d)],
                     _betti_is([0] * (n + m * m + 1)))
             for n, m, d in DER_LADDER]
    problems = os.path.join(root, "problems")
    shipped = {"ce_sl2_trivial.json": [1, 0, 0, 1], "ce_sl2_adjoint.json": [0, 0, 0, 0],
               "ce_abelian2_trivial.json": [1, 2, 1]}
    for name, betti in sorted(shipped.items()):
        items.append(CliItem("ce:" + name, ["cohomology", "--ce",
                                            os.path.join(problems, name)], _betti_is(betti)))
    # invalid representation data is an input error (exit 2)
    items.append(CliItem("ce:ce_invalid_rep.json",
                         ["cohomology", "--ce", os.path.join(problems, "ce_invalid_rep.json")],
                         _exit_is(2)))
    work = work_dir(root)
    for i, (c, rho, betti) in enumerate(fam.lie_families()):
        for copy in range(CE_COPIES[i]):
            path = _write(work, "ce-%d-%d.json" % (i, copy),
                          fam.ce_json(*fam.move_lie(c, rho, r)))
            items.append(CliItem("ce:gen-%d-%d" % (i, copy),
                                 ["cohomology", "--ce", path], _betti_is(betti)))
    return items


BUILDERS = {
    "structure-suite": structure_suite,
    "operator-calculus": operator_calculus,
    "cli-problems": cli_problems,
    "cohomology-ladder": cohomology_ladder,
}
