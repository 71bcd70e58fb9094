import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from diolic.cli import DEFAULT_CAPS, canonical_problem_json, main

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


def test_cohomology_rejects_invalid_ce():
    code, _, err = run_cli("cohomology", "--ce",
                           os.path.join(PROBLEMS, "ce_invalid_rep.json"))
    assert code == 2 and "invalid" in err


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
