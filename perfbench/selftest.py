"""Self-tests of the benchmark; run from the checkout root:

    python3 perfbench/selftest.py

They take about a minute, most of it one traced pass of each workload.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

W.load_engine()

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)

# the workload on which each per-layer metric is expected to move
LAYER_WORKLOAD = {
    "cli-problems": ["cli.main", "cli.parse_problem", "poly.parse_poly"],
    "structure-suite": ["brackets." + f for f in (
        "is_poisson0", "schouten_probe_suite", "schouten_self_eval", "is_jacobi0",
        "jacobi_neg1_residuals", "is_lie_algebroid")] + [
        "poly.Poly.init", "poly.Poly.mul", "poly.Poly.add", "poly.Poly.partial_sigma"],
    "operator-calculus": [
        "ops.ScalarOp.__matmul__", "ops.MatrixOp.__matmul__", "ops.commutator",
        "ops.verify_order", "derivations.graded_commutator_der",
        "diffops.graded_commutator_diff", "diffops.atiyah_project",
        "diffops.check_k_connection", "diffops.verify_diolic_diffop",
        "symbols.smbl_scalar", "symbols.star", "symbols.poisson_bracket",
        "symbols.lambda_k", "poly.Poly.init", "poly.Poly.mul", "poly.Poly.add",
        "poly.Poly.partial_sigma"],
    "cohomology-ladder": ["complexes." + f for f in (
        "rank", "der_differential", "ce_differential", "der_cohomology_truncated",
        "ce_cohomology")],
}


def fingerprint(items):
    return [(item.label, item.spec) for item in items]


def run_pass(items):
    tally = run.Tally(items, [])
    for i in range(len(items)):
        tally.run(i)
    return tally


class Inputs(unittest.TestCase):
    def test_pass_is_large_enough_for_p90(self):
        for name in W.WORKLOADS:
            self.assertGreaterEqual(len(W.build(name, 1, ROOT)), run.MIN_ITEMS, name)

    def test_seed_determines_inputs(self):
        for name in W.WORKLOADS:
            first, again, other = (fingerprint(W.build(name, seed, ROOT))
                                   for seed in (3, 3, 4))
            self.assertEqual(first, again, name)
            self.assertNotEqual(first, other, name)


class Failures(unittest.TestCase):
    def test_wrong_expected_answer_is_counted(self):
        items = W.build("operator-calculus", 1, ROOT)
        right = items[0].check
        items[0] = W.Item(items[0].label, items[0].run, lambda out: not right(out))
        tally = run_pass(items)
        self.assertEqual(tally.failed, 1)
        metrics = run.end_to_end(tally, [0.1], 1.0)
        self.assertEqual(metrics["ok_frac"][0], 1 - 1 / len(items))

    def test_wrong_exit_code_is_counted(self):
        path = os.path.join(ROOT, "problems", "poisson_so3.json")
        items = [W.CliItem("right", ["check", path], lambda out: out[0] == 0),
                 W.CliItem("wrong", ["check", path], lambda out: out[0] == 1)]
        self.assertEqual(run_pass(items).failures, {"wrong": 1})

    def test_oracle_mismatch_fails_every_execution(self):
        items = W.build("operator-calculus", 1, ROOT)
        i = next(i for i, item in enumerate(items) if item.oracle is not None)
        items[i].oracle = lambda out: False
        tally = run.Tally(items, [i])
        for _ in range(2):
            for j in range(len(items)):
                tally.run(j)
        tally.run_oracles()
        self.assertEqual(tally.failed, 2)

    def test_changed_stdout_is_counted(self):
        outputs = iter([(0, "a"), (0, "b")])
        item = W.CliItem("x", ["check", "unused"], lambda out: out[0] == 0)
        item.run = lambda: next(outputs)
        tally = run.Tally([item], [])
        tally.run(0)
        tally.run(0)
        self.assertEqual(tally.failed, 1)


class Tracing(unittest.TestCase):
    def test_every_binding_is_patched_and_restored(self):
        import diolic
        from diolic import brackets, cli
        original = brackets.is_poisson0
        rec = spans.Recorder()
        rec.install()
        try:
            self.assertIsNot(brackets.is_poisson0, original)
            self.assertIs(cli.is_poisson0, brackets.is_poisson0)
            self.assertIs(diolic.is_poisson0, brackets.is_poisson0)
            self.assertIs(diolic.Poly.__radd__, diolic.Poly.__add__)
        finally:
            rec.uninstall()
        self.assertIs(brackets.is_poisson0, original)
        self.assertIs(cli.is_poisson0, original)

    def test_layers_on_their_workloads(self):
        names = {m["name"] for m in BENCH["per_layer"]}
        for workload, functions in LAYER_WORKLOAD.items():
            tally = run.Tally(W.build(workload, 1, ROOT), [])
            rec = run.traced_pass(tally)
            self.assertEqual(tally.failed, 0, workload)
            metrics = run.per_layer(rec, sum(tally.lat))
            self.assertEqual(set(metrics), names)
            for f in functions:
                self.assertGreater(metrics[f + ".calls"][0], 0, (workload, f))
            if workload == "cohomology-ladder":
                self.assertGreater(metrics[spans.RANK_ENTRIES][0], 0)
            # self times of all spans add up to the root spans' wall time
            total_self = sum(s for _, s in rec.totals().values())
            self.assertAlmostEqual(total_self, rec.wall(), delta=1e-6 * rec.wall())


class Contract(unittest.TestCase):
    def test_end_to_end_metric_names(self):
        tally = run_pass(W.build("operator-calculus", 1, ROOT))
        metrics = run.end_to_end(tally, [0.1], 1.0)
        self.assertEqual(set(metrics), {m["name"] for m in BENCH["end_to_end"]})

    def test_fails_without_engine_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(BENCH["command"] + ["--workload", "cli-problems",
                                                      "--seed", "1", "--seconds", "1",
                                                      "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
