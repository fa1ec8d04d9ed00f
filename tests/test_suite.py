"""The suite's own rule: a skipped test fails the session (tests/conftest.py)."""

import os
import subprocess
import sys
from pathlib import Path

CONFTEST = Path(__file__).resolve().parent / "conftest.py"

CASES = '''
import pytest

def test_passes():
    pass

@pytest.mark.xfail(strict=True)
def test_expected_failure():
    assert False

@pytest.mark.skipif(True, reason="an environment the suite does not run in")
def test_skipped():
    pass
'''


def test_a_skipped_test_fails_the_session(tmp_path):
    (tmp_path / "conftest.py").write_text(CONFTEST.read_text())
    (tmp_path / "test_cases.py").write_text(CASES)
    # no installed plugin is needed, and loading them all takes most of the run
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTEST_")}
    env["PYTEST_DISABLE_PLUGIN_AUTOLOAD"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout
    assert "1 passed, 1 skipped, 1 xfailed" in proc.stdout
    # the skip is named; a strict xfail is not a skip
    named = [line for line in proc.stdout.splitlines() if "no test may skip" in line]
    assert named == ["FAILED (skipped, and no test may skip): test_cases.py::test_skipped"]
