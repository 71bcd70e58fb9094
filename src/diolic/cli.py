"""Command-line front end: problem files in, machine-readable reports out.

Commands:

    check <file>                       run the checker named by the file's kind
    bracket --kind <kind> <s1> <s2>    graded brackets of inline JSON/text specs
    cohomology --ce <file>             Chevalley-Eilenberg Betti numbers
    cohomology --der <n> <m> <D>       truncated Der-complex Betti numbers

Reports are a single JSON document on stdout with sorted keys, so a
given input always produces byte-identical output.  Timing is emitted
only behind --timing since it would break that determinism.  Exit codes:
0 pass/value, 1 checker fail, 2 input error, 3 resource cap.  Every
malformed input exits 2 (any ValueError, including bracket specs whose sizes
differ and connection tables that miss a generator); exit 1 comes only from
a checker's verdict.
"""

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .poly import ParseError, Poly, PolyMat, PolyVec, parse_poly
from .ops import MatrixOp, ScalarOp, VectorField
from .derivations import (Der0, Der1, DerNeg1, DiolicElement,
                          graded_commutator_der)
from .diffops import (DiffOp0, DiffOp1, check_k_connection,
                      graded_commutator_diff, verify_diolic_diffop)
from .symbols import parse_symbol, poisson_bracket
from .brackets import (BiDer0, BiDerNeg1, JacobiNeg1, JacobiOp0,
                       is_jacobi0, is_lie_algebroid, is_poisson0,
                       jacobi_neg1_residuals, schouten_self_eval)
from .complexes import (CEData, ResourceCapError, ce_cochain_dimensions,
                        ce_cohomology, der_cochain_dimensions,
                        der_cohomology_truncated, diolic_lie_check,
                        diolic_lie_residuals)


class InputError(ValueError):
    pass


DEFAULT_CAPS = {"n": 4, "m": 3, "k": 4, "D": 6}


# ---------------------------------------------------------------------------
# payload readers (strict: unknown keys are rejected)


def _require(data, keys):
    extra = set(data) - set(keys)
    if extra:
        raise InputError("unknown keys: %s" % ", ".join(sorted(extra)))
    missing = [k for k in keys if k not in data]
    if missing:
        raise InputError("missing keys: %s" % ", ".join(missing))


def _as_int(value, name, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError("%s must be an integer" % name)
    if minimum is not None and value < minimum:
        raise InputError("%s must be >= %d" % (name, minimum))
    return value


def _cap(key, value, caps):
    """value, unless it exceeds the size cap caps[key]."""
    if value > caps[key]:
        raise ResourceCapError("%s=%d exceeds cap %d" % (key, value, caps[key]))
    return value


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise InputError("%s: line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg))


def _poly(text, n, name):
    if not isinstance(text, str):
        raise InputError("%s must be a polynomial string" % name)
    try:
        return parse_poly(text, n)
    except ParseError as exc:
        raise InputError("%s: %s" % (name, exc))


def _poly_matrix(data, n, rows, cols, name):
    if not isinstance(data, list) or len(data) != rows or any(
            not isinstance(r, list) or len(r) != cols for r in data):
        raise InputError("%s must be a %d x %d array" % (name, rows, cols))
    return [[_poly(e, n, "%s[%d][%d]" % (name, i + 1, j + 1))
             for j, e in enumerate(row)] for i, row in enumerate(data)]


def _records(data, keys, name):
    """A list of JSON objects, each holding exactly the given keys."""
    if not isinstance(data, list):
        raise InputError("%s must be a list of {%s} records" % (name, ", ".join(keys)))
    for rec in data:
        if not isinstance(rec, dict):
            raise InputError("%s entries must be objects" % name)
        _require(rec, keys)
    return data


def _sigma(value, n, name):
    """A multi-index: a list of n non-negative integers."""
    if (not isinstance(value, list) or len(value) != n
            or any(not isinstance(e, int) or e < 0 for e in value)):
        raise InputError("%s: sigma must be %d non-negative integers" % (name, n))
    return tuple(value)


def _scalar_op(data, n, name):
    return ScalarOp(n, [(_sigma(rec["sigma"], n, name),
                         _poly(rec["coeff"], n, name + ".coeff"))
                        for rec in _records(data, ("sigma", "coeff"), name)])


def _matrix_op(data, n, m, name):
    if not isinstance(data, list) or len(data) != m or any(
            not isinstance(r, list) or len(r) != m for r in data):
        raise InputError("%s must be an m x m array of operators" % name)
    return MatrixOp(n, [[_scalar_op(e, n, "%s[%d][%d]" % (name, i + 1, j + 1))
                         for j, e in enumerate(row)] for i, row in enumerate(data)])


def _scalar_op_json(op):
    return [{"sigma": list(sigma), "coeff": str(op.coeffs[sigma])}
            for sigma in sorted(op.coeffs, key=lambda s: (sum(s), s))]


def _matrix_op_json(mop):
    return [[_scalar_op_json(e) for e in row] for row in mop.entries]


def _fraction(value, name):
    if isinstance(value, bool):
        raise InputError("%s must be a rational" % name)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputError("%s is not a rational: %r" % (name, value))
    raise InputError("%s must be an integer or a rational string" % name)


def _fraction_tensor(data, shape, name):
    if not shape:
        return _fraction(data, name)
    if not isinstance(data, list) or len(data) != shape[0]:
        raise InputError("%s must be an array of length %d" % (name, shape[0]))
    return [_fraction_tensor(e, shape[1:], "%s[%d]" % (name, i + 1))
            for i, e in enumerate(data)]


# ---------------------------------------------------------------------------
# problem kinds: reader, canonical writer and checker of each


def _read_poisson0(data, n, m, caps):
    if not isinstance(data["bivector"], dict):
        raise InputError("bivector must map 'i,j' keys to polynomials")
    upper = {}
    for key, text in sorted(data["bivector"].items()):
        try:
            i, j = (int(t) for t in key.split(","))
        except ValueError:
            raise InputError("bad bivector key %r" % key)
        if not 1 <= i < j <= n:
            raise InputError("bivector key %r out of range" % key)
        upper[(i, j)] = _poly(text, n, "bivector[%s]" % key)
    end = data["end_part"]
    if not isinstance(end, list) or len(end) != n:
        raise InputError("end_part must list n matrices")
    mats = [PolyMat(n, _poly_matrix(end[i], n, m, m, "end_part[%d]" % (i + 1)))
            for i in range(n)]
    return BiDer0.from_upper(n, m, upper, mats)


def _poisson0_json(pi):
    return {"n": pi.n, "m": pi.m,
            "bivector": {"%d,%d" % (i + 1, j + 1): str(pi.aa[i][j])
                         for i in range(pi.n) for j in range(i + 1, pi.n)
                         if not pi.aa[i][j].is_zero()},
            "end_part": [[[str(p) for p in row] for row in g.rows] for g in pi.end]}


def _jacobi_aa(data, n):
    return {(_sigma(rec["sigma"], n, "jacobi_aa"), _sigma(rec["tau"], n, "jacobi_aa")):
            _poly(rec["coeff"], n, "jacobi_aa.coeff")
            for rec in _records(data, ("sigma", "tau", "coeff"), "jacobi_aa")}


def _caa_json(caa):
    return [{"sigma": list(s), "tau": list(t), "coeff": str(caa[(s, t)])}
            for (s, t) in sorted(caa)]


def _read_jacobi0(data, n, m, caps):
    return JacobiOp0(n, m, _jacobi_aa(data["jacobi_aa"], n), {
        _sigma(rec["sigma"], n, "jacobi_ap"): _matrix_op(rec["op"], n, m, "jacobi_ap.op")
        for rec in _records(data["jacobi_ap"], ("sigma", "op"), "jacobi_ap")})


def _jacobi0_json(j):
    return {"n": j.n, "m": j.m, "jacobi_aa": _caa_json(j.caa),
            "jacobi_ap": [{"sigma": list(s), "op": _matrix_op_json(op)}
                          for s, op in sorted(j.dmap.items())]}


def _read_jacobi_neg1(data, n, m, caps):
    if m != 1:
        raise InputError("jacobi_neg1 requires m = 1")
    return JacobiNeg1(n, _jacobi_aa(data["jacobi_aa"], n))


def _read_algebroid(data, n, m, caps):
    anchor = _poly_matrix(data["anchor"], n, m, n, "anchor")
    rho = [VectorField(n, anchor[alpha]) for alpha in range(m)]
    struct = data["structure"]
    if not isinstance(struct, list) or len(struct) != m:
        raise InputError("structure must be an m x m x m array")
    tensor = [_poly_matrix(struct[alpha], n, m, m, "structure[%d]" % (alpha + 1))
              for alpha in range(m)]
    # C_alpha has entry (gamma, beta) = c^gamma_{alpha beta}: the transpose
    return BiDerNeg1(rho, [PolyMat(n, [list(col) for col in zip(*t)]) for t in tensor])


def _algebroid_json(l):
    return {"n": l.n, "m": l.m,
            "anchor": [[str(p) for p in v.comps] for v in l.rho],
            "structure": [[[str(p) for p in col] for col in zip(*c.rows)] for c in l.c]}


def _read_diffop(data, n, m, caps):
    k = _cap("k", _as_int(data["k"], "k", 0), caps)
    return _scalar_op(data["boxA"], n, "boxA"), _matrix_op(data["M"], n, m, "M"), k


def _diffop_json(obj):
    boxa, boxp, k = obj
    return {"n": boxa.n, "m": boxp.m, "k": k,
            "boxA": _scalar_op_json(boxa), "M": _matrix_op_json(boxp)}


def _check_diffop(obj):
    boxa, boxp, k = obj
    if verify_diolic_diffop(boxa, boxp, k):
        return True, []
    diff = boxp - MatrixOp.scalar_times_identity(boxa, boxp.m)
    return False, [("excess_order[%d,%d]" % (i + 1, j + 1), e)
                   for i, row in enumerate(diff.entries)
                   for j, e in enumerate(row) if e.order() > k - 1]


def _read_k_connection(data, n, m, caps):
    k = _cap("k", _as_int(data["k"], "k", 1), caps)
    table = {_sigma(rec["sigma"], n, "nabla"): DiffOp0.from_pair(
                 _scalar_op(rec["boxA"], n, "nabla.boxA"),
                 _matrix_op(rec["M"], n, m, "nabla.M"), k)
             for rec in _records(data["nabla"], ("sigma", "boxA", "M"), "nabla")}
    return table, k, n, m


def _k_connection_json(obj):
    table, k, n, m = obj
    return {"n": n, "m": m, "k": k,
            "nabla": [{"sigma": list(s), "boxA": _scalar_op_json(b.boxA),
                       "M": _matrix_op_json(b.boxP())}
                      for s, b in sorted(table.items())]}


def _check_k_connection(obj):
    table, k, n, m = obj
    if check_k_connection(table, k, n, m):
        return True, []
    residuals = []
    unit = DiolicElement(Poly.one(n), PolyVec.zero(n, m))
    for sigma, b in sorted(table.items()):
        label = ",".join(str(s) for s in sigma)
        want = ScalarOp.partial_sigma(n, sigma)
        if b.boxA != want:
            residuals.append(("section[%s]" % label, b.boxA - want))
        image = b(unit)
        if not image.is_zero():
            residuals.append(("unit[%s]" % label, image))
    return False, residuals


def _read_ce(data, n, m, caps):
    r = _as_int(data["dim"], "dim", 1)
    d1 = _as_int(data["rep_dim"], "rep_dim", 1)
    return CEData(r, _fraction_tensor(data["c"], (r, r, r), "c"),
                  d1, _fraction_tensor(data["rho"], (r, d1, d1), "rho"))


def _ce_json(l):
    return {"dim": l.r, "rep_dim": l.d1,
            "c": [[[str(v) for v in row] for row in block] for block in l.c],
            "rho": [[[str(v) for v in row] for row in mat] for mat in l.rho]}


def _all_zero(residuals):
    return not residuals, residuals


# kind: (payload keys, reader(data, n, m, caps), canonical writer(obj),
#        checker(obj) -> (ok, residuals)); the checkers look the engine up at
#        call time, so that the wrappers of perfbench/spans.py see the calls
KINDS = {
    "poisson0": (("n", "m", "bivector", "end_part"), _read_poisson0, _poisson0_json,
                 lambda pi: is_poisson0(pi)),
    "jacobi0": (("n", "m", "jacobi_aa", "jacobi_ap"), _read_jacobi0, _jacobi0_json,
                lambda j: is_jacobi0(j)),
    "jacobi_neg1": (("n", "m", "jacobi_aa"), _read_jacobi_neg1,
                    lambda j: {"n": j.n, "m": 1, "jacobi_aa": _caa_json(j.caa)},
                    lambda j: _all_zero(jacobi_neg1_residuals(j))),
    "algebroid": (("n", "m", "anchor", "structure"), _read_algebroid, _algebroid_json,
                  lambda l: is_lie_algebroid(l)),
    "diolic_diffop": (("n", "m", "k", "boxA", "M"), _read_diffop, _diffop_json,
                      _check_diffop),
    "k_connection": (("n", "m", "k", "nabla"), _read_k_connection, _k_connection_json,
                     _check_k_connection),
    "ce": (("dim", "c", "rep_dim", "rho"), _read_ce, _ce_json,
           lambda l: _all_zero(diolic_lie_residuals(l))),
}


def parse_problem(data, caps):
    if not isinstance(data, dict):
        raise InputError("problem file must hold a JSON object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise InputError("unknown or missing kind: %r" % (kind,))
    keys, read, _, _ = KINDS[kind]
    n = m = None
    if "n" in keys:
        n = _as_int(data.get("n"), "n", 1)
        m = _as_int(data.get("m"), "m", 1)
        _cap("n", n, caps)
        _cap("m", m, caps)
    _require(data, ("kind",) + keys)
    return kind, read(data, n, m, caps)


def canonical_problem_json(data, caps):
    """Parse then re-emit a problem in canonical form (round-trip check)."""
    kind, obj = parse_problem(data, caps)
    return dict(KINDS[kind][2](obj), kind=kind)


# ---------------------------------------------------------------------------
# commands


def _report(payload, pretty, timing_ms=None):
    doc = dict(payload)
    doc["engine_version"] = __version__
    if timing_ms is not None:
        doc["timing_ms"] = timing_ms
    text = json.dumps(doc, sort_keys=True,
                      indent=2 if pretty else None,
                      separators=None if pretty else (",", ":"))
    sys.stdout.write(text + "\n")


def _residuals_json(residuals):
    return [{"name": name, "value": str(value)} for name, value in residuals]


def cmd_check(path, caps):
    kind, obj = parse_problem(_load(path), caps)
    ok, residuals = KINDS[kind][3](obj)
    return {"kind": kind, "verdict": "pass" if ok else "fail",
            "residuals": _residuals_json(residuals)}, (0 if ok else 1)


def _json_spec(text, name):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("%s is not valid JSON: %s" % (name, exc.msg))
    if not isinstance(data, dict):
        raise InputError("%s must be a JSON object" % name)
    return data


def _infer_n(ops, name):
    """The length of the first sigma list among the records of the operators."""
    for op in ops:
        for rec in op if isinstance(op, list) else ():
            if isinstance(rec, dict) and isinstance(rec.get("sigma"), list):
                return len(rec["sigma"])
    raise InputError("%s: cannot infer the variable count" % name)


def _der0_spec(data, name, caps):
    _require(data, ("X", "G"))
    if not isinstance(data["X"], list) or not data["X"]:
        raise InputError("%s.X must list n polynomials" % name)
    n = len(data["X"])
    x = VectorField(n, [_poly(t, n, name + ".X") for t in data["X"]])
    if not isinstance(data["G"], list) or not data["G"]:
        raise InputError("%s.G must be an m x m array" % name)
    m = len(data["G"])
    g = PolyMat(n, _poly_matrix(data["G"], n, m, m, name + ".G"))
    return Der0(x, g)


def _der1_spec(data, name, caps):
    _require(data, ("Z",))
    rows = data["Z"]
    if not isinstance(rows, list) or not rows or any(
            not isinstance(r, list) or not r for r in rows):
        raise InputError("%s.Z must be an m x n array" % name)
    n = len(rows[0])
    return Der1([VectorField(n, [_poly(t, n, name + ".Z") for t in r]) for r in rows])


def _diff0_spec(data, name, caps):
    _require(data, ("k", "boxA", "M"))
    k = _cap("k", _as_int(data["k"], name + ".k", 0), caps)
    rows = data["M"]
    if not isinstance(rows, list) or not rows:
        raise InputError("%s.M must be an m x m array" % name)
    cells = [cell for row in rows if isinstance(row, list) for cell in row]
    n = _infer_n([data["boxA"]] + cells, name)
    return DiffOp0.from_pair(_scalar_op(data["boxA"], n, name + ".boxA"),
                             _matrix_op(rows, n, len(rows), name + ".M"), k)


def _diff1_spec(data, name, caps):
    _require(data, ("k", "ops"))
    k = _cap("k", _as_int(data["k"], name + ".k", 0), caps)
    ops = data["ops"]
    if not isinstance(ops, list) or not ops:
        raise InputError("%s.ops must list m operators" % name)
    n = _infer_n(ops, name)
    return DiffOp1(k, [_scalar_op(cell, n, name + ".ops") for cell in ops])


def _element_spec(data, n, m, name):
    if not isinstance(data, dict) or set(data) not in ({"a"}, {"p"}):
        raise InputError("%s must be {\"a\": poly} or {\"p\": [poly]}" % name)
    if "a" in data:
        return _poly(data["a"], n, name)
    if not isinstance(data["p"], list) or len(data["p"]) != m:
        raise InputError("%s.p must list m polynomials" % name)
    return PolyVec(n, [_poly(t, n, name) for t in data["p"]])


def _der_value_json(val):
    if val == 0 or (hasattr(val, "is_zero") and val.is_zero()):
        return "0"
    if isinstance(val, Der0):
        return {"X": [str(p) for p in val.X.comps],
                "G": [[str(p) for p in row] for row in val.G.rows]}
    if isinstance(val, Der1):
        return {"Z": [[str(p) for p in z.comps] for z in val.Z]}
    if isinstance(val, DerNeg1):
        return {"phi": [str(p) for p in val.phi]}
    if isinstance(val, DiffOp0):
        return {"k": val.k, "boxA": _scalar_op_json(val.boxA),
                "M": _matrix_op_json(val.boxP())}
    if isinstance(val, DiffOp1):
        return {"k": val.k, "ops": [_scalar_op_json(o) for o in val.ops]}
    return str(val)


def _commutator(read1, read2, spec1, spec2, caps):
    """Graded commutator of two derivations or two differential operators."""
    a = read1(_json_spec(spec1, "spec1"), "spec1", caps)
    b = read2(_json_spec(spec2, "spec2"), "spec2", caps)
    if (a.n, a.m) != (b.n, b.m):
        raise InputError("spec1 has (n, m) = (%d, %d) but spec2 has (%d, %d)"
                         % (a.n, a.m, b.n, b.m))
    if isinstance(a, DiffOp0):
        return _der_value_json(graded_commutator_diff(a, b))
    return _der_value_json(graded_commutator_der(a, b))


def _symbol_bracket(spec1, spec2, caps):
    # infer the variable count from the largest index in either spec
    n = _cap("n", max((int(t) for text in (spec1, spec2)
                       for t in re.findall(r"[xk](\d+)", text)), default=1), caps)
    return str(poisson_bracket(parse_symbol(spec1, n), parse_symbol(spec2, n)))


def _schouten_self(spec1, spec2, caps):
    kind, pi = parse_problem(_json_spec(spec1, "spec1"), caps)
    if kind != "poisson0":
        raise InputError("spec1 must be a poisson0 problem")
    args = _json_spec(spec2, "spec2")
    _require(args, ("z",))
    z = args["z"]
    if not isinstance(z, list) or len(z) != 3:
        raise InputError("spec2.z must list three elements")
    elems = [_element_spec(e, pi.n, pi.m, "spec2.z[%d]" % (i + 1))
             for i, e in enumerate(z)]
    return str(schouten_self_eval(pi, *elems))


# bracket kind: fn(spec1, spec2, caps) -> the report's value; the order is
# that of the --kind choices
BRACKETS = {
    "symbol": _symbol_bracket,
    "der0": functools.partial(_commutator, _der0_spec, _der0_spec),
    "der0-der1": functools.partial(_commutator, _der0_spec, _der1_spec),
    "der1-der1": functools.partial(_commutator, _der1_spec, _der1_spec),
    "diff0": functools.partial(_commutator, _diff0_spec, _diff0_spec),
    "diff0-diff1": functools.partial(_commutator, _diff0_spec, _diff1_spec),
    "schouten-self": _schouten_self,
}


def cmd_bracket(kind, spec1, spec2, caps):
    return {"kind": "bracket/" + kind, "verdict": "value", "residuals": [],
            "value": BRACKETS[kind](spec1, spec2, caps)}, 0


def cmd_cohomology(ce_path, der_args, caps):
    if (ce_path is None) == (der_args is None):
        raise InputError("give exactly one of --ce FILE or --der N M D")
    if ce_path is not None:
        kind, l = parse_problem(_load(ce_path), caps)
        if kind != "ce":
            raise InputError("cohomology --ce expects a ce problem file")
        if not diolic_lie_check(l):
            raise InputError("structure constants / representation are invalid")
        betti, dims = ce_cohomology(l), ce_cochain_dimensions(l)
    else:
        n, m, maxdeg = der_args
        if n < 1 or m < 1 or maxdeg < 0:
            raise InputError("--der needs N, M >= 1 and D >= 0")
        for key, value in zip("nmD", der_args):
            _cap(key, value, caps)
        betti = der_cohomology_truncated(n, m, maxdeg)
        dims = der_cochain_dimensions(n, m, maxdeg)
    euler = sum(b if i % 2 == 0 else -b for i, b in enumerate(betti))
    return {"kind": "cohomology", "verdict": "value", "residuals": [],
            "betti": betti, "cochain_dims": dims, "euler": euler}, 0


# ---------------------------------------------------------------------------
# entry point


def _parse_caps(spec):
    caps = dict(DEFAULT_CAPS)
    if spec:
        for part in spec.split(","):
            if "=" not in part:
                raise InputError("bad --max-dim entry %r" % part)
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in caps:
                raise InputError("unknown --max-dim key %r" % key)
            try:
                caps[key] = int(val)
            except ValueError:
                raise InputError("bad --max-dim value %r" % val)
    return caps


def build_parser():
    ap = argparse.ArgumentParser(
        prog="diolic",
        description="exact calculus over A (+) P: checkers, brackets, cohomology")
    ap.add_argument("--pretty", action="store_true", help="indent the JSON report")
    ap.add_argument("--timing", action="store_true",
                    help="include wall-clock timing in the report "
                         "(breaks byte-for-byte determinism)")
    ap.add_argument("--max-dim", default=None, metavar="SPEC",
                    help="override size caps, e.g. n=5,m=4,k=5,D=8")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the checker named by the problem file")
    p.add_argument("path")

    p = sub.add_parser("bracket", help="graded bracket of two specifications")
    p.add_argument("--kind", required=True, choices=list(BRACKETS))
    p.add_argument("spec1")
    p.add_argument("spec2")

    p = sub.add_parser("cohomology", help="Betti numbers over Q")
    p.add_argument("--ce", metavar="FILE")
    p.add_argument("--der", nargs=3, type=int, metavar=("N", "M", "D"))

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    started = time.monotonic()
    try:
        caps = _parse_caps(args.max_dim)
        if args.command == "check":
            payload, code = cmd_check(args.path, caps)
        elif args.command == "bracket":
            payload, code = cmd_bracket(args.kind, args.spec1, args.spec2, caps)
        else:
            der = tuple(args.der) if args.der else None
            payload, code = cmd_cohomology(args.ce, der, caps)
    except ValueError as exc:  # InputError, ParseError and the engine's alike
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except ResourceCapError as exc:
        sys.stderr.write("resource cap: %s\n" % exc)
        return 3
    timing = int((time.monotonic() - started) * 1000) if args.timing else None
    _report(payload, args.pretty, timing)
    return code


if __name__ == "__main__":
    sys.exit(main())
