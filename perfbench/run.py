"""Run one benchmark workload in one process and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``diolic`` from
``src/`` and reads ``problems/``, and writes only under ``.perfbench_work/``.
One closed-loop client runs the workload's seeded item list in whole
passes (the next item starts when the previous one has finished), so
every pass has the same mix of items and the metrics do not depend on
where a run happens to stop.

``--trace 0`` runs at least ``MIN_PASSES`` passes and stops at the pass
boundary nearest to ``--seconds``.  Each item's latency is its best
execution in the run: the machine's speed drifts by up to a third over
seconds, and the best of several executions spread over the run removes
the slow phases that a single measurement or a mean would keep.  It
reports the set-up time (median of several fresh imports of the engine
plus input generation), items per second of a pass made of those best
latencies, their median and 90th percentile over the ``MIN_ITEMS`` or
more items of a pass (so at least ten lie beyond the 90th percentile),
the share of executions whose output matched its independent answer,
and peak resident memory.

``--trace 1`` runs one pass untraced and the same pass with the span
recorder of ``spans`` installed, and reports per-layer calls and self
times, per-module self shares and the tracing overhead.

Every item is checked against its expected answer, stdout of each CLI
item must be byte-identical in every pass, and a seeded sample of items
is re-derived with sympy after the timed part.  The last line of stdout
is the JSON result; the line before it records the Python version, CPU
count, commit and a digest of the engine sources.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads as W  # noqa: E402

SETUPS = 7
MIN_ITEMS = 110
MIN_PASSES = 3
ORACLE_SAMPLE = 4


def engine_present():
    return (os.path.isfile(os.path.join(SRC, "diolic", "__init__.py"))
            and os.path.isfile(os.path.join(ROOT, "problems", "manifest.json")))


def setup(workload, seed):
    """Import the engine afresh and build the seeded item list."""
    for name in [n for n in sys.modules if n == "diolic" or n.startswith("diolic.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    W.load_engine()
    items = W.build(workload, seed, ROOT)
    return items, time.perf_counter() - t0


class Tally:
    """Latencies and failures of every item execution."""

    def __init__(self, items, oracle_sample):
        self.items = items
        self.lat = []
        self.best = [float("inf")] * len(items)
        self.which = []
        self.failed = 0
        self.failures = {}
        self.first = {}
        self.kept = {i: None for i in oracle_sample}

    def run(self, i, call=None):
        item = self.items[i]
        t0 = time.perf_counter()
        try:
            out = item.run() if call is None else call(item.run)
            ok = True
        except Exception as exc:  # an engine error is a failed item
            out, ok = repr(exc), False
        dt = time.perf_counter() - t0
        if ok:
            try:
                ok = bool(item.check(out))
            except Exception:
                ok = False
        if ok and isinstance(item, W.CliItem):
            ok = self.first.setdefault(i, out) == out
        if i in self.kept and self.kept[i] is None:
            self.kept[i] = out
        self.lat.append(dt)
        self.best[i] = min(self.best[i], dt)
        self.which.append(i)
        if not ok:
            self.fail(i, 1)

    def fail(self, i, count):
        self.failed += count
        label = self.items[i].label
        self.failures[label] = self.failures.get(label, 0) + count

    def run_oracles(self):
        """Re-derive the sampled outputs; a mismatch fails every execution."""
        for i, out in sorted(self.kept.items()):
            try:
                ok = self.items[i].oracle(out)
            except Exception:
                ok = False
            if not ok:
                self.fail(i, self.which.count(i))


def oracle_sample(items, seed):
    candidates = [i for i, item in enumerate(items) if item.oracle is not None]
    r = random.Random("oracle/%d" % seed)
    return r.sample(candidates, min(ORACLE_SAMPLE, len(candidates)))


def timed_passes(tally, seconds, seed):
    """At least MIN_PASSES whole passes, ending at the pass boundary
    nearest to `seconds`.  Each pass runs the items in a fresh seeded
    order, so that an item's best latency does not depend on which item
    happened to run before it (and left the caches cold)."""
    r = random.Random("order/%d" % seed)
    order = list(range(len(tally.items)))
    start = time.perf_counter()
    passes = 0
    while True:
        r.shuffle(order)
        for i in order:
            tally.run(i)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed + elapsed / passes / 2 >= seconds:
            return passes


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(tally, setups, rss_mb):
    best = tally.best
    deciles = statistics.quantiles(best, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(best) / sum(best), "1/s"),
        "item_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "item_p90_ms": (deciles[8] * 1e3, "ms"),
        "ok_frac": (1 - tally.failed / len(tally.lat), "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def traced_pass(tally):
    """One pass with the span recorder installed; returns the recorder."""
    rec = spans.Recorder()
    rec.install()
    try:
        for i in range(len(tally.items)):
            tally.run(i, rec.item)
    finally:
        rec.uninstall()
    return rec


def per_layer(rec, untraced):
    """Per-layer metrics of a traced pass; `untraced` is the wall time of
    the same pass without tracing."""
    wall = rec.wall()
    totals = rec.totals()
    out = {}
    for mod, path in spans.SPANS:
        calls, self_s = totals[mod + "." + path]
        out[mod + "." + path + ".calls"] = (calls, "count")
        out[mod + "." + path + ".self_s"] = (self_s, "s")
    for _, _, name in spans.COUNTS:
        out[name + ".calls"] = (totals[name][0], "count")
    out[spans.RANK_ENTRIES] = (rec.counters.get(spans.RANK_ENTRIES, 0), "count")
    shares = rec.module_self()
    for mod in spans.MODULES:
        out[mod + ".self_share"] = (shares.get(mod, 0.0) / wall, "frac")
    out["trace.overhead_frac"] = (wall / untraced - 1, "frac")
    return out


def commit():
    """The checked-out commit, when the checkout is a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "diolic")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not engine_present():
        sys.stderr.write("perfbench: no engine sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)

    setups = []
    for _ in range(SETUPS):
        items, seconds = setup(args.workload, args.seed)
        setups.append(seconds)
    import diolic
    if not os.path.abspath(diolic.__file__).startswith(SRC + os.sep):
        sys.stderr.write("perfbench: imported diolic from %s\n" % diolic.__file__)
        return 2
    if len(items) < MIN_ITEMS:
        sys.stderr.write("perfbench: a pass of %s has %d items, fewer than %d\n"
                         % (args.workload, len(items), MIN_ITEMS))
        return 2

    tally = Tally(items, oracle_sample(items, args.seed))
    if args.trace:
        for i in range(len(items)):
            tally.run(i)
        untraced = sum(tally.lat)
        rec = traced_pass(tally)
        rec.write(os.path.join(W.work_dir(ROOT), "spans-%s-%d.json"
                               % (args.workload, args.seed)))
        tally.run_oracles()
        metrics, passes = per_layer(rec, untraced), 2
    else:
        passes = timed_passes(tally, args.seconds, args.seed)
        rss_mb = peak_rss_mb()
        tally.run_oracles()
        metrics = end_to_end(tally, setups, rss_mb)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "passes": passes, "items_per_pass": len(items), "executions": len(tally.lat),
            "oracle_checked": sorted(items[i].label for i in tally.kept),
            "failures": tally.failures, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit(), "src_sha256": source_digest()}
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": len(tally.lat),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
