"""The pytest configuration reports a failing property test as one failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(n):
    assert n != n
"""


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    # hypothesis's failure reporter imports modules that warn on import, and
    # the "error" filter must not turn that into an INTERNALERROR (exit 3)
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed" in result.stdout, output
