"""The core test files, run again under ``python -O``.

Invariants are enforced by explicit raises rather than ``assert``, so they
must hold with asserts stripped.  pytest rewrites the asserts of the test
modules themselves, so those still fail under ``-O``.  This file is not
among the ones it runs, so the run does not recurse.  A quick check of the
package's source for what ``-O`` strips runs with the fast tests.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import slidingsuffix

from conftest import subprocess_env

TESTS = Path(__file__).resolve().parent
CORE = ("test_tree_core.py", "test_plp.py", "test_credit.py", "test_checks.py",
        "test_matching.py", "test_window.py", "test_stateful.py",
        "test_exhaustive.py")


@pytest.mark.slow
def test_core_tests_pass_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(str(TESTS / name) for name in CORE)],
        env=subprocess_env(), cwd=TESTS.parent, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


def test_package_has_nothing_python_O_strips():
    # ``-O`` removes every assert statement and makes ``__debug__`` false,
    # so either would let an invariant check vanish from optimized runs
    found = []
    for path in sorted(Path(slidingsuffix.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
