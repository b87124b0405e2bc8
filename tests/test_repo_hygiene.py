"""The checkout tracks no build residue.

``.gitignore`` lists what building, testing and running leave behind,
but an ignore rule does nothing for a file that is already tracked —
61 ``__pycache__/*.pyc`` files rode along in commits that way until
PR 16 untracked them.
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def test_no_bytecode_is_tracked():
    if shutil.which("git") is None or not (REPO / ".git").exists():
        pytest.skip("not a git checkout")
    listed = subprocess.run(
        ["git", "ls-files", "*.pyc"], cwd=REPO, capture_output=True, text=True, timeout=30
    )
    if listed.returncode != 0:
        pytest.skip(f"git ls-files failed: {listed.stderr.strip()}")
    assert listed.stdout.split() == []
