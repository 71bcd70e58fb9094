"""Span recorder for the traced run, kept entirely in the benchmark's files.

``Recorder.install`` replaces every binding of each function in ``SPANS``
(the defining module, each module that imported it, and aliases inside a
class such as ``__radd__ = __add__``) with a wrapper that records a span:
its id, the id of the span that was open when it started, the id of the
item (root span) it belongs to, its name, start and end.  A span's self
time is its duration minus the durations of its direct children, so the
self times of all spans add up to the durations of the root spans.
``COUNTS`` get a cheaper wrapper that only counts calls, because a span
around every polynomial operation would distort the times it measures.
Spans stay in memory and are written out by ``write`` at the end.
"""

import array
import functools
import json
import sys
import time

# (module, attribute path) of every function that gets a span
SPANS = [
    ("cli", "main"), ("cli", "parse_problem"), ("poly", "parse_poly"),
    ("brackets", "is_poisson0"), ("brackets", "schouten_probe_suite"),
    ("brackets", "schouten_self_eval"), ("brackets", "is_jacobi0"),
    ("brackets", "jacobi_neg1_residuals"), ("brackets", "is_lie_algebroid"),
    ("ops", "ScalarOp.__matmul__"), ("ops", "MatrixOp.__matmul__"),
    ("ops", "commutator"), ("ops", "verify_order"),
    ("derivations", "graded_commutator_der"),
    ("diffops", "graded_commutator_diff"), ("diffops", "atiyah_project"),
    ("diffops", "check_k_connection"), ("diffops", "verify_diolic_diffop"),
    ("symbols", "smbl_scalar"), ("symbols", "star"), ("symbols", "poisson_bracket"),
    ("symbols", "lambda_k"),
    ("complexes", "rank"), ("complexes", "der_differential"),
    ("complexes", "ce_differential"), ("complexes", "der_cohomology_truncated"),
    ("complexes", "ce_cohomology"),
]

# (module, attribute path, metric name) of every function that is only counted
COUNTS = [
    ("poly", "Poly.__init__", "poly.Poly.init"), ("poly", "Poly.__mul__", "poly.Poly.mul"),
    ("poly", "Poly.__add__", "poly.Poly.add"),
    ("poly", "Poly.partial_sigma", "poly.Poly.partial_sigma"),
]

MODULES = ("poly", "ops", "derivations", "diffops", "symbols", "brackets",
           "complexes", "cli")

PACKAGE = "diolic"
ROOT = "bench.item"
RANK_ENTRIES = "complexes.rank.entries"


def _rank_entries(rows):
    return len(rows) * len(rows[0]) if rows else 0


class Recorder:
    def __init__(self):
        self.names = []
        self.calls = []
        self.self_s = []
        self.counters = {}
        self.span_id = array.array("q")
        self.parent = array.array("q")
        self.root = array.array("q")
        self.name = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = []
        self._next = 0
        self._undo = []
        # item(fn) runs fn inside one root span: one benchmark item
        self.item = self.wrap(ROOT, lambda fn: fn())

    def _index(self, name):
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def wrap(self, name, fn, measure=None):
        """A wrapper around fn that records one span per call."""
        idx = self._index(name)
        calls, self_s, stack = self.calls, self.self_s, self._stack
        ids, parents, roots, names = self.span_id, self.parent, self.root, self.name
        starts, ends, clock = self.start, self.end, time.perf_counter
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            if stack:
                parent, root = stack[-1][1], stack[-1][2]
            else:
                parent, root = -1, sid
            frame = [0.0, sid, root]
            stack.append(frame)
            if measure is not None:
                key, fn_measure = measure
                counters[key] = counters.get(key, 0) + fn_measure(*args)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                calls[idx] += 1
                self_s[idx] += dur - frame[0]
                ids.append(sid)
                parents.append(parent)
                roots.append(root)
                names.append(idx)
                starts.append(t0)
                ends.append(t1)
        return wrapper

    def counter(self, name, fn):
        idx = self._index(name)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Patch every binding of the listed functions in the loaded package."""
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod, path in SPANS:
            measure = (RANK_ENTRIES, _rank_entries) if path == "rank" else None
            self._patch(mods, PACKAGE + "." + mod, path,
                        lambda fn, name=mod + "." + path: self.wrap(name, fn, measure))
        for mod, path, name in COUNTS:
            self._patch(mods, PACKAGE + "." + mod, path,
                        lambda fn, name=name: self.counter(name, fn))

    def _patch(self, mods, modname, path, make):
        owner = sys.modules[modname]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = make(original)
        targets = [owner] if cls_path else mods
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._undo.append((target, key, value))
                    setattr(target, key, wrapper)

    def uninstall(self):
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def wall(self):
        """Total duration of the root spans."""
        r = self.names.index(ROOT)
        return sum(e - s for e, s, n, p in zip(self.end, self.start, self.name, self.parent)
                   if n == r and p == -1)

    def totals(self):
        """{name: (calls, self seconds)} of every recorded function."""
        return {n: (c, s) for n, c, s in zip(self.names, self.calls, self.self_s)}

    def module_self(self):
        out = {}
        for name, _, s in zip(self.names, self.calls, self.self_s):
            mod = name.split(".")[0]
            out[mod] = out.get(mod, 0.0) + s
        return out

    def write(self, path):
        """Write the spans as JSON: the name table and one array per field."""
        doc = {"names": self.names,
               "fields": ["id", "parent", "root", "name", "start", "end"],
               "spans": [list(self.span_id), list(self.parent), list(self.root),
                         list(self.name), list(self.start), list(self.end)]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
