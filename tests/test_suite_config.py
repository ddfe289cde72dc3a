"""The test suite's own pytest configuration."""

import subprocess
import sys
from pathlib import Path

FAILING_PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # Hypothesis reports a falsified test through an import that warns; the
    # config's filterwarnings = error must not turn that into an error
    # inside its report hook, which ends the session before the next test
    (tmp_path / "test_pair.py").write_text(FAILING_PAIR)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "Falsifying example" in done.stdout
