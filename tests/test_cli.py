import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from diolic import cli
from diolic.cli import DEFAULT_CAPS, build_parser, canonical_problem_json, main
from diolic.complexes import ce_differential, der_cochain_dimensions
from diolic.poly import _rational

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "diolic", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def manifest():
    with open(os.path.join(PROBLEMS, "manifest.json")) as fh:
        return json.load(fh)


def test_shipped_files_exit_codes_and_determinism():
    for name, expected in sorted(manifest().items()):
        path = os.path.join(PROBLEMS, name)
        code1, out1, _ = run_cli("check", path)
        code2, out2, _ = run_cli("check", path)
        assert code1 == expected, name
        assert code2 == expected, name
        assert out1 == out2, "report for %s is not byte-identical" % name
        doc = json.loads(out1)
        assert doc["verdict"] == ("pass" if expected == 0 else "fail")
        assert (doc["residuals"] == []) == (doc["verdict"] == "pass") or \
            doc["verdict"] == "pass"


def test_shipped_files_round_trip():
    caps = dict(DEFAULT_CAPS)
    for name in sorted(manifest()):
        with open(os.path.join(PROBLEMS, name)) as fh:
            data = json.load(fh)
        canon = canonical_problem_json(data, caps)
        again = canonical_problem_json(json.loads(json.dumps(canon)), caps)
        assert canon == again, name


def test_residuals_listed_on_failure():
    path = os.path.join(PROBLEMS, "poisson_broken_bivector.json")
    code, out, _ = run_cli("check", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["residuals"]
    assert all(set(r) == {"name", "value"} for r in doc["residuals"])


def test_malformed_file_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli("check", str(bad))
    assert code == 2
    assert "line" in err


def test_unknown_keys_rejected(tmp_path):
    f = tmp_path / "extra.json"
    f.write_text(json.dumps({
        "kind": "poisson0", "n": 1, "m": 1, "bivector": {},
        "end_part": [[["0"]]], "surprise": 1}))
    code, _, err = run_cli("check", str(f))
    assert code == 2 and "unknown keys" in err


def test_dimension_caps(tmp_path):
    f = tmp_path / "big.json"
    f.write_text(json.dumps({
        "kind": "poisson0", "n": 9, "m": 1, "bivector": {},
        "end_part": [[["0"]]] * 9}))
    code, _, err = run_cli("check", str(f))
    assert code == 3 and "cap" in err
    code, _, _ = run_cli("--max-dim", "n=9", "check", str(f))
    assert code == 0


def test_bracket_symbol_example():
    code, out, _ = run_cli("bracket", "--kind", "symbol", "k1", "x1*k1")
    assert code == 0
    assert json.loads(out)["value"] == "k1"


def test_bracket_spec_with_leading_minus():
    dashed = run_cli("bracket", "--kind", "symbol", "-x1*k1", "k1")
    assert dashed == run_cli("bracket", "--kind", "symbol", "--", "-x1*k1", "k1")
    assert dashed[0] == 0 and json.loads(dashed[1])["value"] == "k1"


def test_bracket_der0_example():
    s1 = json.dumps({"X": ["1"], "G": [["0"]]})
    s2 = json.dumps({"X": ["x1"], "G": [["0"]]})
    code, out, _ = run_cli("bracket", "--kind", "der0", s1, s2)
    assert code == 0
    assert json.loads(out)["value"] == {"X": ["1"], "G": [["0"]]}


def test_bracket_der1_der1_is_zero():
    s = json.dumps({"Z": [["1", "0"], ["0", "1"]]})
    code, out, _ = run_cli("bracket", "--kind", "der1-der1", s, s)
    assert code == 0
    assert json.loads(out)["value"] == "0"


def test_bracket_der0_der1():
    s1 = json.dumps({"X": ["1", "0"], "G": [["0", "0"], ["0", "0"]]})
    s2 = json.dumps({"Z": [["x1", "0"], ["0", "x2"]]})
    code, out, _ = run_cli("bracket", "--kind", "der0-der1", s1, s2)
    assert code == 0
    assert json.loads(out)["value"] == {"Z": [["1", "0"], ["0", "0"]]}


def test_bracket_diff0():
    b1 = json.dumps({"k": 2, "boxA": [{"sigma": [2], "coeff": "1"}],
                     "M": [[[{"sigma": [2], "coeff": "1"}]]]})
    b2 = json.dumps({"k": 1, "boxA": [{"sigma": [1], "coeff": "x1"}],
                     "M": [[[{"sigma": [1], "coeff": "x1"}]]]})
    code, out, _ = run_cli("bracket", "--kind", "diff0", b1, b2)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"]["k"] == 2
    assert doc["value"]["boxA"] == [{"sigma": [2], "coeff": "2"}]


def test_bracket_schouten_self():
    with open(os.path.join(PROBLEMS, "poisson_so3.json")) as fh:
        spec1 = fh.read()
    spec2 = json.dumps({"z": [{"a": "x1"}, {"a": "x2"}, {"a": "x3"}]})
    code, out, _ = run_cli("bracket", "--kind", "schouten-self", spec1, spec2)
    assert code == 0
    assert json.loads(out)["value"] == "(0 | (0))"


DIFF0 = json.dumps({"k": 1, "boxA": [{"sigma": [1], "coeff": "1"}],
                    "M": [[[{"sigma": [1], "coeff": "1"}]]]})


def shipped(name):
    with open(os.path.join(PROBLEMS, name)) as fh:
        return json.load(fh)


def k_connection_missing_generator():
    doc = shipped("k_connection_ok.json")
    doc["nabla"].pop()
    return doc


@pytest.mark.parametrize("args", [
    ("bracket", "--kind", "symbol", "-x1*k1^2 + x1*k1^2", "x1*k1"),
    ("cohomology", "--der", "0", "1", "1"),
    ("bracket", "--kind", "der0", '{"X":["1"],"G":[["0"]]}', '{"X":["1","0"],"G":[["0"]]}'),
    ("bracket", "--kind", "der1-der1", '{"Z":[["1"]]}', '{"Z":[["1","0"]]}'),
    ("bracket", "--kind", "der0-der1", '{"X":["1"],"G":[["0"]]}', '{"Z":[["1"],["0"]]}'),
    ("bracket", "--kind", "diff0", '{"k":1,"boxA":5,"M":[[[]]]}',
     '{"k":1,"boxA":[],"M":[[[]]]}'),
    ("bracket", "--kind", "diff0-diff1", DIFF0, '{"k":1,"ops":[5]}'),
    ("bracket", "--kind", "diff0", '{"k":1,"boxA":[{"sigma":[1],"coeff":"1"}],"M":[[[]]]}',
     DIFF0),
    ("bracket", "--kind", "schouten-self", json.dumps(shipped("poisson_so3.json")),
     '{"z": [5, 5, 5]}'),
    # a problem document stands for a file holding it
    ("check", k_connection_missing_generator()),
])
def test_parse_time_errors_exit_2(tmp_path, args):
    args = list(args)
    if isinstance(args[-1], dict):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(args[-1]))
        args[-1] = str(path)
    code, out, err = run_cli(*args)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("jacobi_aa", [
    [{"sigma": 5, "tau": [1], "coeff": "1"}],
    [5],
])
def test_malformed_jacobi0_records_exit_2(tmp_path, jacobi_aa):
    f = tmp_path / "jacobi0.json"
    f.write_text(json.dumps({"kind": "jacobi0", "n": 1, "m": 1,
                             "jacobi_aa": jacobi_aa, "jacobi_ap": []}))
    code, out, err = run_cli("check", str(f))
    assert code == 2 and out == ""
    assert err.startswith("error: jacobi_aa") and "Traceback" not in err


def check_doc(tmp_path, capsys, doc):
    """(exit code, stdout, stderr) of an in-process check of doc."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def with_record(name, field, record, first):
    doc = shipped(name)
    doc[field].insert(0 if first else len(doc[field]), record)
    return doc


def so3_with_key(key, value):
    doc = shipped("poisson_so3.json")
    doc["bivector"][key] = value
    return doc


# every reader of a keyed table refuses a key given twice, whatever the
# order or the values; a dict would keep one record and drop the others
@pytest.mark.parametrize("doc, message", [
    (so3_with_key("1, 2", "x3"), "bivector: key [1, 2] given twice"),
    (so3_with_key(" 1,2", "x1"), "bivector: key [1, 2] given twice"),
    (so3_with_key("01,2", "x1"), "bivector: key [1, 2] given twice"),
    (with_record("jacobi_witt_lift.json", "jacobi_aa",
                 {"sigma": [0], "tau": [1], "coeff": "2"}, True),
     "jacobi_aa: key [[0], [1]] given twice"),
    (with_record("jacobi_witt_lift.json", "jacobi_aa",
                 {"sigma": [0], "tau": [1], "coeff": "1"}, False),
     "jacobi_aa: key [[0], [1]] given twice"),
    (with_record("jacobi_neg1_witt.json", "jacobi_aa",
                 {"sigma": [1], "tau": [0], "coeff": "-2"}, False),
     "jacobi_aa: key [[1], [0]] given twice"),
    (with_record("jacobi_witt_lift.json", "jacobi_ap",
                 {"sigma": [0], "op": [[[{"sigma": [1], "coeff": "2"}]]]}, True),
     "jacobi_ap: key [0] given twice"),
    (with_record("jacobi_witt_lift.json", "jacobi_ap",
                 {"sigma": [0], "op": [[[{"sigma": [1], "coeff": "2"}]]]}, False),
     "jacobi_ap: key [0] given twice"),
    (with_record("k_connection_ok.json", "nabla",
                 {"sigma": [1, 0], "boxA": [{"sigma": [1, 0], "coeff": "2"}],
                  "M": [[[{"sigma": [1, 0], "coeff": "2"}]]]}, True),
     "nabla: key [1, 0] given twice"),
    (with_record("k_connection_ok.json", "nabla",
                 {"sigma": [1, 0], "boxA": [{"sigma": [1, 0], "coeff": "2"}],
                  "M": [[[{"sigma": [1, 0], "coeff": "2"}]]]}, False),
     "nabla: key [1, 0] given twice"),
], ids=["bivector-space", "bivector-leading-space", "bivector-leading-zero",
        "jacobi_aa-first", "jacobi_aa-same-value", "jacobi_neg1-last",
        "jacobi_ap-first", "jacobi_ap-last", "nabla-first", "nabla-last"])
def test_repeated_keys_exit_2(tmp_path, capsys, doc, message):
    assert check_doc(tmp_path, capsys, doc) == (2, "", "error: %s\n" % message)


def test_literal_duplicate_json_keys_exit_2(tmp_path, capsys):
    """Two copies of one key in one JSON object are refused while parsing,
    in a file and in a bracket spec; the parser alone would keep the last."""
    text = json.dumps(shipped("poisson_so3.json"))
    assert text.count('"1,2": "x3"') == 1
    path = tmp_path / "twice.json"
    path.write_text(text.replace('"1,2": "x3"', '"1,2": "x3", "1,2": "x1"'))
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == 'error: %s: key "1,2" given twice\n' % path
    spec = '{"X": ["1"], "X": ["x1"], "G": [["0"]]}'
    assert main(["bracket", "--kind", "der0", '{"X": ["1"], "G": [["0"]]}', spec]) == 2
    assert capsys.readouterr() == ("", 'error: spec2: key "X" given twice\n')


def op_spec(n):
    """One scalar operator record list in n variables: the identity."""
    return [{"sigma": [0] * n, "coeff": "1"}]


# bracket specs take n and m from their own sizes, under the caps of problem
# files (n <= 4, m <= 3 by default); the size is checked before the specs
# are compared, so in the diff1 cases only spec2 is over the cap
@pytest.mark.parametrize("kind, spec1, spec2", [
    ("der0", {"X": ["0"] * 8, "G": [["0"]]}, {"X": ["1"] * 8, "G": [["0"]]}),
    ("der0", {"X": ["0"], "G": [["0"] * 5] * 5}, {"X": ["1"], "G": [["0"] * 5] * 5}),
    ("der1-der1", {"Z": [["0"] * 5]}, {"Z": [["1"] * 5]}),
    ("der1-der1", {"Z": [["0"]] * 4}, {"Z": [["1"]] * 4}),
    ("diff0", {"k": 1, "boxA": op_spec(5), "M": [[[]]]},
     {"k": 1, "boxA": [], "M": [[op_spec(5)]]}),
    ("diff0", {"k": 1, "boxA": [], "M": [[op_spec(1)] * 4] * 4},
     {"k": 1, "boxA": op_spec(1), "M": [[[]] * 4] * 4}),
    ("diff0-diff1", json.loads(DIFF0), {"k": 1, "ops": [op_spec(5)]}),
    ("diff0-diff1", json.loads(DIFF0), {"k": 1, "ops": [op_spec(1)] * 4}),
], ids=["der0-n", "der0-m", "der1-n", "der1-m", "diff0-n", "diff0-m", "diff1-n", "diff1-m"])
def test_bracket_specs_obey_the_caps(capsys, kind, spec1, spec2):
    code = main(["bracket", "--kind", kind, json.dumps(spec1), json.dumps(spec2)])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "") and err.startswith("resource cap: ")


def test_bracket_caps_can_be_raised(capsys):
    spec = json.dumps({"X": ["0"] * 8, "G": [["0"]]})
    assert main(["--max-dim", "n=8", "bracket", "--kind", "der0", spec, spec]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "0"


def test_boolean_exponents_exit_2(tmp_path, capsys):
    doc = {"kind": "jacobi_neg1", "n": 1, "m": 1, "jacobi_aa": [
        {"sigma": [False], "tau": [True], "coeff": "1"},
        {"sigma": [True], "tau": [False], "coeff": "-1"}]}
    assert check_doc(tmp_path, capsys, doc) == (
        2, "", "error: jacobi_aa: sigma must be 1 non-negative integers\n")


# sha256 of the `check` report and of the canonical form of each shipped
# problem, so that a change of any report or writer shows here
GOLDEN = {
    "algebroid_broken_anchor.json":
        ("854e93b20e056af9cf827464d8d5afbe11b6b2e603decd21d643fb84a8f066a7",
         "e6188f15a9941dcac9652256e63c9b5e2d45e33cd3c9cf628031a4d345e16ecc"),
    "algebroid_broken_jacobi.json":
        ("4fea079ac348368e44b00f5de88f890209f1e344df58b7df1baafdcca2bdc0c8",
         "2dc11aea20516b844dc0e94189596e4c446732d77b95360d9fa9b822aba9c5cb"),
    "algebroid_so3_bundle.json":
        ("9f05598888adcd6d2105a241b438a1140fc1b431ae7a81ac35ba2ba701428af4",
         "614dc0768cceab491ea5dcf1318642222a0ab67507dcae04cc6317fed5df441b"),
    "algebroid_tangent.json":
        ("9f05598888adcd6d2105a241b438a1140fc1b431ae7a81ac35ba2ba701428af4",
         "f75b158ac8736e4b0c3b7d4a6fff6222324f62f7f6ad2f08359dfe3d0cbf2645"),
    "ce_abelian2_trivial.json":
        ("a1b4382bab5b089123c6c0993a66b1e25686c68a92d9a01e11c4c7f179c9bf6a",
         "cd46e4549fc4ca18ad64c15a307f551a6b83df0ee1075551ac021b7c50107428"),
    "ce_invalid_rep.json":
        ("ebf86ff33af21def3c4eb448757f2eea313e3272deb175e6bb00a424539bb52b",
         "9370c28c353dd50987633f02acce4d94e35a4a37844e65092f1313d530043738"),
    "ce_sl2_adjoint.json":
        ("a1b4382bab5b089123c6c0993a66b1e25686c68a92d9a01e11c4c7f179c9bf6a",
         "a0b49e6b63000917fbcf66c1ac891e381b295f578589718e11ebfdecdb306217"),
    "ce_sl2_trivial.json":
        ("a1b4382bab5b089123c6c0993a66b1e25686c68a92d9a01e11c4c7f179c9bf6a",
         "e47a07b78997ae98c05cca980cfccaa900614476c66a15941ab20d1981850f2a"),
    "diffop_invalid.json":
        ("e9438f64027a2bf5bda8da473b5fef5c6c57b08fa99eefb2e99f6a889e7e8b08",
         "4824dc57e4a0b7231d859c0af4599884dfed25f59222630271e6d6ded678fb40"),
    "diffop_valid.json":
        ("49871a7e22fa599e04c10e461375ffbe46c2b5cfed669fa458ede2336e1530ec",
         "18d227fe1b64b77611fdb9861e45126048c3050ad86f7f1e3bd5c37c1d618f1c"),
    "jacobi_broken_pde.json":
        ("e15b5582992df5aabda2ef8bb207a8e80f055c07ac40935901dd963e96643440",
         "76f976bdcc6275032a0ac9a2cb0e8c73f3962b9b8f5149ed497abe3d2be0a5af"),
    "jacobi_neg1_witt.json":
        ("d0686f7d9cdf573af81006ecd9b2784dd4adaad02d3844d697eeefe65fb2d1b3",
         "017c5efe1b79706139f8c6d696128426e69868fe9e10e2f01246a159a172cc8e"),
    "jacobi_witt_lift.json":
        ("0d2abc9d3ab9cf2684af259a44f50259887ec77cf2981d208b8c1c3f8d1f2e28",
         "876b4a4ab4809b219ab66e9dfddc318026a3b1e6562468c55fc9f4c701a1cefe"),
    "k_connection_bad.json":
        ("6ac9b4d4a0fbe24f9bba6f19d66dad467c7e45421174c9e34bdf33cf0adf555f",
         "5faddba992a8a4d9bd3f8e852033977d514d4278579c42ffbb21ef717a686ca3"),
    "k_connection_ok.json":
        ("5e8684a35f6389c07d86816b5ebe9ae0b647619183e0b2bab280db396957430f",
         "d0b45f4bf8c343c7c46709caefc766d387ec9ea6c61e0b58e060658dd5aa55b4"),
    "poisson_broken_bivector.json":
        ("dfb7a7151cb835554e8c718ff07065e372aa570f23b86602d929bca8f3168d23",
         "18b8cbff06354b4fd39b01d70c2bf23ddfed191a8ea6469aa2fdb0c62310658b"),
    "poisson_broken_end.json":
        ("45a070e13dbc869d82cea05530107c240496b8cc03137471ef06e8b07d1dabcc",
         "d9eda2e865c32f418f6b9d6af65e46dc1d2fb98c15f54c68ee878ef26aaf7c01"),
    "poisson_noncommuting_end.json":
        ("aca4696f34e7ff1e23f47dbecd5cde81b2ceae4e87064b29c03298fb2c714114",
         "6e5df09d852445ace657500c09054c10f731eeff7254730357ad803c60b1cc08"),
    "poisson_so3.json":
        ("9568261e146baae907748bbefce37b7a8c0117c5c3ed562d723674766a507182",
         "cf82d94c3ee3fb77315f5b9cca8cf89fbbfc96c695e4d28d9151c8c14b85f467"),
    "poisson_symplectic_const_end.json":
        ("9568261e146baae907748bbefce37b7a8c0117c5c3ed562d723674766a507182",
         "617bcb2d33b19640763f7085bb5a5538444e33216fec9565f389bff70c8d6482"),
}


@pytest.mark.parametrize("name", sorted(manifest()))
def test_shipped_outputs_golden(name, capsys):
    assert main(["check", os.path.join(PROBLEMS, name)]) == manifest()[name]
    canon = canonical_problem_json(shipped(name), dict(DEFAULT_CAPS))
    assert (hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
            hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()) \
        == GOLDEN[name]


def test_cohomology_ce_files():
    cases = {"ce_sl2_adjoint.json": [0, 0, 0, 0],
             "ce_abelian2_trivial.json": [1, 2, 1],
             "ce_sl2_trivial.json": [1, 0, 0, 1]}
    for name, want in cases.items():
        code, out, _ = run_cli("cohomology", "--ce", os.path.join(PROBLEMS, name))
        assert code == 0
        doc = json.loads(out)
        assert doc["betti"] == want
        dims = doc["cochain_dims"]
        assert doc["euler"] == sum(d if i % 2 == 0 else -d
                                   for i, d in enumerate(dims))


def test_cohomology_der():
    code, out, _ = run_cli("cohomology", "--der", "1", "1", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == [0, 0, 0]
    assert doc["cochain_dims"] == [4, 8, 4]


def test_cohomology_der_cap():
    code, _, err = run_cli("cohomology", "--der", "3", "3", "6")
    assert code == 3


def abelian_trivial_ce(tmp_path, dim, rep_dim=1):
    """An abelian Lie algebra acting by zero on Q^rep_dim, as a ce file."""
    zero = [[["0"] * dim for _ in range(dim)] for _ in range(dim)]
    rho = [[["0"] * rep_dim for _ in range(rep_dim)]] * dim
    path = tmp_path / ("abelian%d_%d.json" % (dim, rep_dim))
    path.write_text(json.dumps({"kind": "ce", "dim": dim, "rep_dim": rep_dim,
                                "c": zero, "rho": rho}))
    return str(path)


# over the cap shared with --der: C(20, 10) = 184,756 and
# C(12, 6) * 30 = 27,720 cochains; the second is refused before its
# validity check, whose work grows with rep_dim^3
@pytest.mark.parametrize("dim, rep_dim", [(20, 1), (12, 30)])
def test_cohomology_ce_cap(tmp_path, dim, rep_dim):
    code, out, err = run_cli("cohomology", "--ce", abelian_trivial_ce(tmp_path, dim, rep_dim))
    assert code == 3 and out == ""
    assert err.startswith("resource cap: ")


def test_check_ce_cap_precedes_validity_check(tmp_path, capsys):
    # the dense validity check of this file took 33.7 s before the cap came first
    path = abelian_trivial_ce(tmp_path, 12, 30)
    started = time.monotonic()
    assert main(["check", path]) == 3
    assert time.monotonic() - started <= 1.0
    assert capsys.readouterr().out == ""


def test_check_ce_below_cap_is_sparse(tmp_path, capsys):
    # 13,860 cochains, under the cap; the dense validity check took 38.9 s
    path = abelian_trivial_ce(tmp_path, 11, 30)
    started = time.monotonic()
    assert main(["check", path]) == 0
    assert time.monotonic() - started <= 1.0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


@pytest.mark.parametrize("command", [["check"], ["cohomology", "--ce"]])
def test_ce_validity_check_caps_its_products(tmp_path, capsys, command):
    # 120/240/120 cochains, far under the cochain cap, but the dense rho
    # commutator needs about 2.5 million products: 4.4 s (check, exit 1)
    # and 3.8 s (cohomology --ce, exit 2) before the product cap
    rnd = random.Random(7)
    rho = [[[rnd.randint(-3, 3) for _ in range(120)] for _ in range(120)] for _ in range(2)]
    path = tmp_path / "dense_2x120.json"
    path.write_text(json.dumps({"kind": "ce", "dim": 2, "rep_dim": 120,
                                "c": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], "rho": rho}))
    started = time.monotonic()
    assert main(command + [str(path)]) == 3
    assert time.monotonic() - started <= 1.0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("size", [(3, 3, 1), (3, 2, 1), (3, 2, 2)])
def test_cohomology_der_weight0_is_empty(size, capsys):
    # the weight-0 subcomplex of the Der data is empty, so nothing is
    # assembled; full assembly of 3 3 1 (11,088 cochains) took 9.5 s.  It
    # needs < 0.5 s of its own; 2 s leaves room for a loaded machine
    started = time.monotonic()
    assert main(["cohomology", "--der"] + [str(v) for v in size]) == 0
    assert time.monotonic() - started < 2.0
    doc = json.loads(capsys.readouterr().out)
    n, m, _ = size
    assert doc["betti"] == [0] * (n + m * m + 1)
    assert doc["cochain_dims"] == der_cochain_dimensions(*size)


def test_cohomology_ce_abelian_12(tmp_path):
    code, out, _ = run_cli("cohomology", "--ce", abelian_trivial_ce(tmp_path, 12))
    assert code == 0
    assert json.loads(out)["betti"] == [math.comb(12, p) for p in range(13)]


def test_cohomology_rejects_invalid_ce():
    code, _, err = run_cli("cohomology", "--ce",
                           os.path.join(PROBLEMS, "ce_invalid_rep.json"))
    assert code == 2 and "invalid" in err


def _fraction_outcome(text):
    try:
        return "value", cli._fraction(text, "v")
    except cli.InputError as exc:
        return "error", str(exc)


def _reference_outcome(text):
    """The stored form of Fraction(text), or the input error it maps to."""
    try:
        return "value", _rational(Fraction(text))
    except (ValueError, ZeroDivisionError):
        return "error", "v is not a rational: %r" % (text,)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(text=st.one_of(st.text(max_size=12),
                      st.from_regex(r"-?[0-9]{1,40}", fullmatch=True),
                      st.from_regex(r"\s?[+-]{0,2}[0-9_]{0,5}(/-?[0-9]{0,3})?\s?",
                                    fullmatch=True)))
@example(text=" 3 ")
@example(text="+3")
@example(text="-0")
@example(text="007")
@example(text="1_000")
@example(text="\u0663\u0664")
@example(text="--3")
@example(text="")
@example(text="1/2")
@example(text="0.5")
@example(text="1e3")
@example(text="3\n")
@example(text="9" * 5000)
def test_fraction_agrees_with_fraction(text):
    """A JSON rational string reads as the stored form of Fraction(text),
    or fails with the same message; ASCII decimal integers read as ints."""
    kind, got = _fraction_outcome(text)
    assert (kind, got) == _reference_outcome(text)
    if kind == "value":
        assert type(_rational(got)) is type(_rational(Fraction(text)))
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit() and len(digits) <= 4300:
        assert type(got) is int


@pytest.mark.parametrize("as_strings", [False, True], ids=["ints", "strings"])
def test_integral_ce_files_stay_in_ints(as_strings):
    """The shipped ce files, with their entries written as JSON ints or as
    strings, are stored and differentiated in ints alone."""
    for name in sorted(manifest()):
        doc = shipped(name)
        if doc["kind"] != "ce":
            continue
        if as_strings:
            for key in ("c", "rho"):
                doc[key] = json.loads(json.dumps(doc[key]), parse_int=str)
        _, l = cli.parse_problem(doc, dict(DEFAULT_CAPS))
        assert all(type(v) is int for block in l.c for row in block for v in row)
        assert all(type(v) is int for mat in l.rho for row in mat for v in row)
        for p in range(l.r):
            for idx in itertools.combinations(range(l.r), p):
                for a in range(l.d1):
                    unit = [0] * l.d1
                    unit[a] = 1
                    image = ce_differential(l, p, {idx: unit})
                    assert all(type(v) is int for vec in image.values() for v in vec)


def test_pretty_flag_stays_deterministic():
    path = os.path.join(PROBLEMS, "poisson_so3.json")
    _, out1, _ = run_cli("--pretty", "check", path)
    _, out2, _ = run_cli("--pretty", "check", path)
    assert out1 == out2
    assert out1.startswith("{\n")


def test_timing_flag_adds_field():
    path = os.path.join(PROBLEMS, "poisson_so3.json")
    _, out, _ = run_cli("--timing", "check", path)
    assert "timing_ms" in json.loads(out)
    _, out2, _ = run_cli("check", path)
    assert "timing_ms" not in json.loads(out2)


def test_main_in_process():
    # exercise the entry point without a subprocess
    assert main(["cohomology", "--der", "1", "1", "1"]) == 0
    assert main(["check", os.path.join(PROBLEMS, "poisson_so3.json")]) == 0
    assert main(["check", os.path.join(PROBLEMS, "ce_invalid_rep.json")]) == 1


def test_main_reuses_one_parser_across_calls(capsys):
    # a usage error leaves the shared parser fit for the next call
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["bracket", "--kind", "symbol", "k1", "x1*k1"]) == 0
    first = capsys.readouterr().out
    assert main(["--pretty", "bracket", "--kind", "symbol", "k1", "x1*k1"]) == 0
    assert main(["bracket", "--kind", "symbol", "k1", "x1*k1"]) == 0
    assert capsys.readouterr().out.endswith(first)
    assert build_parser() is build_parser()


def test_route_disagreement_exits_4(monkeypatch):
    """is_poisson0's commutator route, broken on purpose, disagrees with its
    PDE route: exit 4 with one error line, no report and no traceback."""
    import diolic.brackets
    monkeypatch.setattr(diolic.brackets, "graded_commutator_der", lambda d1, d2: d1)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", os.path.join(PROBLEMS, "poisson_so3.json")])
    assert code == 4
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: internal route disagreement: ")
    assert err.getvalue().count("\n") == 1


# -- fuzz: one JSON leaf of a valid input replaced by a drawn value ----------

FUZZ_BRACKETS = [
    ("der0", {"X": ["1"], "G": [["0"]]}, {"X": ["x1"], "G": [["0"]]}),
    ("der0-der1", {"X": ["1", "0"], "G": [["0", "0"], ["0", "0"]]},
     {"Z": [["x1", "0"], ["0", "x2"]]}),
    ("der1-der1", {"Z": [["1", "0"], ["0", "1"]]}, {"Z": [["x2", "0"], ["0", "x1"]]}),
    ("diff0", {"k": 2, "boxA": [{"sigma": [2], "coeff": "1"}],
               "M": [[[{"sigma": [2], "coeff": "1"}]]]}, json.loads(DIFF0)),
    ("diff0-diff1", json.loads(DIFF0), {"k": 1, "ops": [[{"sigma": [1], "coeff": "x1"}]]}),
]


FUZZ_CASES = ([("check", shipped(name)) for name in sorted(manifest())]
              + [(kind, [s1, s2]) for kind, s1, s2 in FUZZ_BRACKETS])


def leaf_paths(doc, path=()):
    """Paths to the scalars and empty containers of a JSON document."""
    if isinstance(doc, (dict, list)) and doc:
        keys = sorted(doc) if isinstance(doc, dict) else range(len(doc))
        return [p for k in keys for p in leaf_paths(doc[k], path + (k,))]
    return [path]


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.text("x12k+-*/0 ,", max_size=6),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.sampled_from(["sigma", "coeff", "a"]), st.integers(0, 2), max_size=2))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_fuzz_one_leaf_exit_contract(tmp_path_factory, data):
    kind, doc = data.draw(st.sampled_from(FUZZ_CASES))
    doc = replaced(doc, data.draw(st.sampled_from(leaf_paths(doc))), data.draw(FUZZ_VALUES))
    if kind == "check":
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(doc))
        argv = ["check", str(path)]
    else:
        argv = ["bracket", "--kind", kind] + [json.dumps(spec) for spec in doc]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert code != 1 or json.loads(out.getvalue())["verdict"] == "fail"


# -- inputs past Python's own limits


def _one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_deeply_nested_file_exits_2(tmp_path):
    f = tmp_path / "deep.json"
    f.write_text('{"kind": "poisson0", "n": 1, "m": 1, "bivector": {}, "end_part": '
                 + "[" * 100000)
    code, out, err = run_cli("check", str(f))
    assert code == 2 and out == "" and _one_error_line(err)


def test_deeply_nested_spec_exits_2():
    code, out, err = run_cli("bracket", "--kind", "der0", "[" * 100000, "{}")
    assert code == 2 and out == "" and _one_error_line(err)


def test_huge_coefficients_keep_the_verdict(tmp_path):
    # the residual coefficients have 8,001 digits, over the int-to-str limit
    big = "3" + "0" * 4000
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"kind": "poisson0", "n": 3, "m": 1,
                             "bivector": {"1,2": big + "*x2*x3", "2,3": big + "*x1"},
                             "end_part": [[["0"]], [["0"]], [["0"]]]}))
    code, out, err = run_cli("check", str(f))
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["verdict"] == "fail" and doc["residuals"]
    assert any("9" + "0" * 8000 + "*" in r["value"] for r in doc["residuals"])
