"""Command-line front end: problem files in, machine-readable reports out.

Commands:

    check <file>                       run the checker named by the file's kind
    bracket --kind <kind> <s1> <s2>    graded brackets of inline JSON/text specs
    cohomology --ce <file>             Chevalley-Eilenberg Betti numbers
    cohomology --der <n> <m> <D>       truncated Der-complex Betti numbers

Reports are a single JSON document on stdout with sorted keys, so a
given input always produces byte-identical output.  Timing is emitted
only behind --timing since it would break that determinism.  Exit codes:
0 pass/value, 1 checker fail, 2 input error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
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

CHECK_KINDS = ("poisson0", "jacobi0", "jacobi_neg1", "algebroid",
               "diolic_diffop", "k_connection", "ce")


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
    out = []
    for sigma in sorted(op.coeffs, key=lambda s: (sum(s), s)):
        out.append({"sigma": list(sigma), "coeff": str(op.coeffs[sigma])})
    return out


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
# problem parsing


def parse_problem(data, caps):
    if not isinstance(data, dict):
        raise InputError("problem file must hold a JSON object")
    kind = data.get("kind")
    if kind not in CHECK_KINDS:
        raise InputError("unknown or missing kind: %r" % (kind,))

    if kind == "ce":
        _require(data, ("kind", "dim", "c", "rep_dim", "rho"))
        r = _as_int(data["dim"], "dim", 1)
        d1 = _as_int(data["rep_dim"], "rep_dim", 1)
        c = _fraction_tensor(data["c"], (r, r, r), "c")
        rho = _fraction_tensor(data["rho"], (r, d1, d1), "rho")
        try:
            return kind, CEData(r, c, d1, rho)
        except ValueError as exc:
            raise InputError(str(exc))

    n = _as_int(data.get("n"), "n", 1)
    m = _as_int(data.get("m"), "m", 1)
    if n > caps["n"]:
        raise ResourceCapError("n=%d exceeds cap %d" % (n, caps["n"]))
    if m > caps["m"]:
        raise ResourceCapError("m=%d exceeds cap %d" % (m, caps["m"]))

    try:
        if kind == "poisson0":
            _require(data, ("kind", "n", "m", "bivector", "end_part"))
            upper = {}
            if not isinstance(data["bivector"], dict):
                raise InputError("bivector must map 'i,j' keys to polynomials")
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
            return kind, BiDer0.from_upper(n, m, upper, mats)

        if kind == "jacobi0":
            _require(data, ("kind", "n", "m", "jacobi_aa", "jacobi_ap"))
            caa = _jacobi_aa(data["jacobi_aa"], n)
            dmap = {}
            for rec in _records(data["jacobi_ap"], ("sigma", "op"), "jacobi_ap"):
                sigma = _sigma(rec["sigma"], n, "jacobi_ap")
                dmap[sigma] = _matrix_op(rec["op"], n, m, "jacobi_ap.op")
            return kind, JacobiOp0(n, m, caa, dmap)

        if kind == "jacobi_neg1":
            _require(data, ("kind", "n", "m", "jacobi_aa"))
            if m != 1:
                raise InputError("jacobi_neg1 requires m = 1")
            return kind, JacobiNeg1(n, _jacobi_aa(data["jacobi_aa"], n))

        if kind == "algebroid":
            _require(data, ("kind", "n", "m", "anchor", "structure"))
            anchor = _poly_matrix(data["anchor"], n, m, n, "anchor")
            rho = [VectorField(n, anchor[alpha]) for alpha in range(m)]
            struct = data["structure"]
            if not isinstance(struct, list) or len(struct) != m:
                raise InputError("structure must be an m x m x m array")
            cmats = []
            tensor = [_poly_matrix(struct[alpha], n, m, m,
                                   "structure[%d]" % (alpha + 1))
                      for alpha in range(m)]
            for alpha in range(m):
                # C_alpha has entry (gamma, beta) = c^gamma_{alpha beta}
                cmats.append(PolyMat(n, [[tensor[alpha][beta][gamma]
                                          for beta in range(m)]
                                         for gamma in range(m)]))
            return kind, BiDerNeg1(rho, cmats)

        if kind == "diolic_diffop":
            _require(data, ("kind", "n", "m", "k", "boxA", "M"))
            k = _as_int(data["k"], "k", 0)
            if k > caps["k"]:
                raise ResourceCapError("k=%d exceeds cap %d" % (k, caps["k"]))
            boxa = _scalar_op(data["boxA"], n, "boxA")
            boxp = _matrix_op(data["M"], n, m, "M")
            return kind, (boxa, boxp, k)

        # kind == "k_connection"
        _require(data, ("kind", "n", "m", "k", "nabla"))
        k = _as_int(data["k"], "k", 1)
        if k > caps["k"]:
            raise ResourceCapError("k=%d exceeds cap %d" % (k, caps["k"]))
        table = {}
        for rec in _records(data["nabla"], ("sigma", "boxA", "M"), "nabla"):
            sigma = _sigma(rec["sigma"], n, "nabla")
            boxa = _scalar_op(rec["boxA"], n, "nabla.boxA")
            boxp = _matrix_op(rec["M"], n, m, "nabla.M")
            table[sigma] = DiffOp0.from_pair(boxa, boxp, k)
        return kind, (table, k, n, m)
    except ValueError as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(str(exc))


def _jacobi_aa(data, n):
    return {(_sigma(rec["sigma"], n, "jacobi_aa"), _sigma(rec["tau"], n, "jacobi_aa")):
            _poly(rec["coeff"], n, "jacobi_aa.coeff")
            for rec in _records(data, ("sigma", "tau", "coeff"), "jacobi_aa")}


def canonical_problem_json(data, caps):
    """Parse then re-emit a problem in canonical form (round-trip check)."""
    kind, obj = parse_problem(data, caps)
    if kind == "poisson0":
        biv = {"%d,%d" % (i + 1, j + 1): str(obj.aa[i][j])
               for i in range(obj.n) for j in range(i + 1, obj.n)
               if not obj.aa[i][j].is_zero()}
        return {"kind": kind, "n": obj.n, "m": obj.m, "bivector": biv,
                "end_part": [[[str(p) for p in row] for row in g.rows]
                             for g in obj.end]}
    if kind == "jacobi0":
        return {"kind": kind, "n": obj.n, "m": obj.m,
                "jacobi_aa": _caa_json(obj.caa),
                "jacobi_ap": [{"sigma": list(s), "op": _matrix_op_json(op)}
                              for s, op in sorted(obj.dmap.items())]}
    if kind == "jacobi_neg1":
        return {"kind": kind, "n": obj.n, "m": 1, "jacobi_aa": _caa_json(obj.caa)}
    if kind == "algebroid":
        return {"kind": kind, "n": obj.n, "m": obj.m,
                "anchor": [[str(p) for p in v.comps] for v in obj.rho],
                "structure": [[[str(obj.c[alpha].rows[gamma][beta])
                                for gamma in range(obj.m)]
                               for beta in range(obj.m)]
                              for alpha in range(obj.m)]}
    if kind == "diolic_diffop":
        boxa, boxp, k = obj
        return {"kind": kind, "n": boxa.n, "m": boxp.m, "k": k,
                "boxA": _scalar_op_json(boxa), "M": _matrix_op_json(boxp)}
    if kind == "k_connection":
        table, k, n, m = obj
        return {"kind": kind, "n": n, "m": m, "k": k,
                "nabla": [{"sigma": list(s),
                           "boxA": _scalar_op_json(b.boxA),
                           "M": _matrix_op_json(b.boxP())}
                          for s, b in sorted(table.items())]}
    # ce
    return {"kind": kind, "dim": obj.r, "rep_dim": obj.d1,
            "c": [[[str(v) for v in row] for row in block] for block in obj.c],
            "rho": [[[str(v) for v in row] for row in mat] for mat in obj.rho]}


def _caa_json(caa):
    out = []
    for (s, t) in sorted(caa):
        out.append({"sigma": list(s), "tau": list(t), "coeff": str(caa[(s, t)])})
    return out


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise InputError("%s: line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg))
    kind, obj = parse_problem(data, caps)

    residuals = []
    if kind == "poisson0":
        ok, residuals = is_poisson0(obj)
    elif kind == "jacobi0":
        ok, residuals = is_jacobi0(obj)
    elif kind == "jacobi_neg1":
        residuals = jacobi_neg1_residuals(obj)
        ok = not residuals
    elif kind == "algebroid":
        ok, residuals = is_lie_algebroid(obj)
    elif kind == "diolic_diffop":
        boxa, boxp, k = obj
        ok = verify_diolic_diffop(boxa, boxp, k)
        if not ok:
            diff = boxp - MatrixOp.scalar_times_identity(boxa, boxp.m)
            for i in range(boxp.m):
                for j in range(boxp.m):
                    e = diff.entries[i][j]
                    if e.order() > k - 1:
                        residuals.append(
                            ("excess_order[%d,%d]" % (i + 1, j + 1), e))
    elif kind == "k_connection":
        table, k, n, m = obj
        ok = check_k_connection(table, k, n, m)
        if not ok:
            for sigma, b in sorted(table.items()):
                want = ScalarOp.partial_sigma(n, sigma)
                label = ",".join(str(s) for s in sigma)
                if b.boxA != want:
                    residuals.append(("section[%s]" % label, b.boxA - want))
                unit = b(DiolicElement(Poly.one(n), PolyVec.zero(n, m)))
                if not unit.is_zero():
                    residuals.append(("unit[%s]" % label, unit))
    else:  # ce
        residuals = diolic_lie_residuals(obj)
        ok = not residuals

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


def _der0_spec(data, name):
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


def _der1_spec(data, name):
    _require(data, ("Z",))
    rows = data["Z"]
    if not isinstance(rows, list) or not rows or any(
            not isinstance(r, list) or not r for r in rows):
        raise InputError("%s.Z must be an m x n array" % name)
    n = len(rows[0])
    return Der1([VectorField(n, [_poly(t, n, name + ".Z") for t in r]) for r in rows])


def _element_spec(data, n, m, name):
    if set(data) == {"a"}:
        return _poly(data["a"], n, name)
    if set(data) == {"p"}:
        if not isinstance(data["p"], list) or len(data["p"]) != m:
            raise InputError("%s.p must list m polynomials" % name)
        return PolyVec(n, [_poly(t, n, name) for t in data["p"]])
    raise InputError("%s must be {\"a\": poly} or {\"p\": [poly]}" % name)


def _diff0_spec(data, name, caps):
    _require(data, ("k", "boxA", "M"))
    k = _as_int(data["k"], name + ".k", 0)
    if k > caps["k"]:
        raise ResourceCapError("k=%d exceeds cap %d" % (k, caps["k"]))
    if not isinstance(data["M"], list) or not data["M"]:
        raise InputError("%s.M must be an m x m array" % name)
    m = len(data["M"])
    n = None
    for rec in data["boxA"]:
        if isinstance(rec, dict) and isinstance(rec.get("sigma"), list):
            n = len(rec["sigma"])
            break
    if n is None:
        for row in data["M"]:
            for cell in row:
                for rec in cell:
                    if isinstance(rec, dict) and isinstance(rec.get("sigma"), list):
                        n = len(rec["sigma"])
                        break
    if n is None:
        raise InputError("%s: cannot infer the variable count" % name)
    boxa = _scalar_op(data["boxA"], n, name + ".boxA")
    boxp = _matrix_op(data["M"], n, m, name + ".M")
    return DiffOp0.from_pair(boxa, boxp, k)


def _diff1_spec(data, name, caps):
    _require(data, ("k", "ops"))
    k = _as_int(data["k"], name + ".k", 0)
    if k > caps["k"]:
        raise ResourceCapError("k=%d exceeds cap %d" % (k, caps["k"]))
    ops = data["ops"]
    if not isinstance(ops, list) or not ops:
        raise InputError("%s.ops must list m operators" % name)
    n = None
    for cell in ops:
        for rec in cell:
            if isinstance(rec, dict) and isinstance(rec.get("sigma"), list):
                n = len(rec["sigma"])
                break
    if n is None:
        raise InputError("%s: cannot infer the variable count" % name)
    return DiffOp1(k, [_scalar_op(cell, n, name + ".ops") for cell in ops])


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


def cmd_bracket(kind, spec1, spec2, caps):
    if kind == "symbol":
        # infer the variable count from the largest index in either spec
        import re
        indices = [int(t) for text in (spec1, spec2)
                   for t in re.findall(r"[xk](\d+)", text)]
        n = max(indices, default=1)
        if n > caps["n"]:
            raise ResourceCapError("n=%d exceeds cap %d" % (n, caps["n"]))
        try:
            s1 = parse_symbol(spec1, n)
            s2 = parse_symbol(spec2, n)
        except ParseError as exc:
            raise InputError(str(exc))
        value = str(poisson_bracket(s1, s2))
    elif kind == "der0":
        d1 = _der0_spec(_json_spec(spec1, "spec1"), "spec1")
        d2 = _der0_spec(_json_spec(spec2, "spec2"), "spec2")
        value = _der_value_json(graded_commutator_der(d1, d2))
    elif kind == "der0-der1":
        d1 = _der0_spec(_json_spec(spec1, "spec1"), "spec1")
        d2 = _der1_spec(_json_spec(spec2, "spec2"), "spec2")
        value = _der_value_json(graded_commutator_der(d1, d2))
    elif kind == "der1-der1":
        d1 = _der1_spec(_json_spec(spec1, "spec1"), "spec1")
        d2 = _der1_spec(_json_spec(spec2, "spec2"), "spec2")
        value = _der_value_json(graded_commutator_der(d1, d2))
    elif kind == "diff0":
        b1 = _diff0_spec(_json_spec(spec1, "spec1"), "spec1", caps)
        b2 = _diff0_spec(_json_spec(spec2, "spec2"), "spec2", caps)
        value = _der_value_json(graded_commutator_diff(b1, b2))
    elif kind == "diff0-diff1":
        b1 = _diff0_spec(_json_spec(spec1, "spec1"), "spec1", caps)
        b2 = _diff1_spec(_json_spec(spec2, "spec2"), "spec2", caps)
        value = _der_value_json(graded_commutator_diff(b1, b2))
    elif kind == "schouten-self":
        data = _json_spec(spec1, "spec1")
        kind1, pi = parse_problem(data, caps)
        if kind1 != "poisson0":
            raise InputError("spec1 must be a poisson0 problem")
        args = _json_spec(spec2, "spec2")
        _require(args, ("z",))
        z = args["z"]
        if not isinstance(z, list) or len(z) != 3:
            raise InputError("spec2.z must list three elements")
        elems = [_element_spec(e, pi.n, pi.m, "spec2.z[%d]" % (i + 1))
                 for i, e in enumerate(z)]
        value = str(schouten_self_eval(pi, *elems))
    else:
        raise InputError("unknown bracket kind %r" % kind)
    return {"kind": "bracket/" + kind, "verdict": "value",
            "residuals": [], "value": value}, 0


def cmd_cohomology(ce_path, der_args, caps):
    if (ce_path is None) == (der_args is None):
        raise InputError("give exactly one of --ce FILE or --der N M D")
    if ce_path is not None:
        try:
            with open(ce_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InputError("cannot read %s: %s" % (ce_path, exc))
        except json.JSONDecodeError as exc:
            raise InputError("%s: line %d column %d: %s"
                             % (ce_path, exc.lineno, exc.colno, exc.msg))
        kind, l = parse_problem(data, caps)
        if kind != "ce":
            raise InputError("cohomology --ce expects a ce problem file")
        if not diolic_lie_check(l):
            raise InputError("structure constants / representation are invalid")
        betti = ce_cohomology(l)
        dims = ce_cochain_dimensions(l)
    else:
        n, m, maxdeg = der_args
        if n < 1 or m < 1 or maxdeg < 0:
            raise InputError("--der needs N, M >= 1 and D >= 0")
        if n > caps["n"] or m > caps["m"]:
            raise ResourceCapError("n=%d, m=%d exceeds caps" % (n, m))
        if maxdeg > caps["D"]:
            raise ResourceCapError("D=%d exceeds cap %d" % (maxdeg, caps["D"]))
        betti = der_cohomology_truncated(n, m, maxdeg)
        dims = der_cochain_dimensions(n, m, maxdeg)
    euler_dims = sum(d if i % 2 == 0 else -d for i, d in enumerate(dims))
    euler_betti = sum(b if i % 2 == 0 else -b for i, b in enumerate(betti))
    if euler_dims != euler_betti:
        raise AssertionError("Euler characteristic mismatch")
    return {"kind": "cohomology", "verdict": "value", "residuals": [],
            "betti": betti, "cochain_dims": dims, "euler": euler_betti}, 0


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
    p.add_argument("--kind", required=True,
                   choices=["symbol", "der0", "der0-der1", "der1-der1",
                            "diff0", "diff0-diff1", "schouten-self"])
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
    except InputError as exc:
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
