"""The test suite's own settings: a failing property test is reported, not fatal."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_after():
    pass
'''


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    """Under the project's warning filters a shrunk failure is one failure, and later tests run.

    Hypothesis's failure reporter may import libcst, which warns through
    mypy_extensions; were that warning an error, pytest would stop with an
    INTERNALERROR and report nothing after it.
    """
    (tmp_path / "test_pair.py").write_text(FAILING_PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
