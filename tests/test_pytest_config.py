"""The repository's pytest settings let a failing hypothesis test fail alone.

When a ``@given`` test fails, hypothesis imports libcst to write its patch
file, and a dependency of libcst raises a ``DeprecationWarning`` on import.
Under ``error::DeprecationWarning`` that import aborted the whole run with
an internal error, so no later test ran.
"""

import os
import re
import subprocess
import sys
import textwrap

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def _pytest_settings() -> str:
    """The ``[tool.pytest.ini_options]`` table of the repository's pyproject.toml."""
    with open(PYPROJECT) as fh:
        match = re.search(r"^\[tool\.pytest\.ini_options\]\n(?:(?!\[).*\n?)*", fh.read(), re.M)
    assert match, "pyproject.toml lost its pytest settings"
    return match.group(0)


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "pyproject.toml").write_text(_pytest_settings())
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_order.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_runs_after():
            pass
    """))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout
