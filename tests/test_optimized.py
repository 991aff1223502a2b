"""The core test files, run again under ``python -O``.

Invariants are enforced by explicit raises rather than ``assert``, so they
must hold with asserts stripped.  pytest rewrites the asserts of the test
modules themselves, so those still fail under ``-O``.  This file is not
among the ones it runs, so the run does not recurse.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import slidingsuffix

TESTS = Path(__file__).resolve().parent
CORE = ("test_tree_core.py", "test_plp.py", "test_credit.py", "test_checks.py",
        "test_matching.py", "test_window.py", "test_stateful.py",
        "test_exhaustive.py")


@pytest.mark.slow
def test_core_tests_pass_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(slidingsuffix.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(str(TESTS / name) for name in CORE)],
        env=env, cwd=TESTS.parent, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
