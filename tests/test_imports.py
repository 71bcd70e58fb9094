"""Every module of the package imports on its own in a fresh interpreter, so
an import cycle (derivations imports diffops, never the other way round)
fails here rather than at some caller."""

import subprocess
import sys

import pytest

MODULES = ("diolic", "diolic.poly", "diolic.ops", "diolic.derivations", "diolic.diffops",
           "diolic.symbols", "diolic.brackets", "diolic.complexes", "diolic.cli")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    proc = subprocess.run([sys.executable, "-c", "import " + module],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
