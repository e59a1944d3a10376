"""tests/code_lines.py, the source-size count that CI reports."""

import subprocess
import sys
from pathlib import Path

from code_lines import code_lines

SCRIPT = Path(__file__).resolve().parent / "code_lines.py"
ROOT = SCRIPT.parent.parent


def _count(*args, cwd):
    r = subprocess.run([sys.executable, str(SCRIPT), *args], cwd=cwd,
                       capture_output=True, text=True)
    assert r.returncode == 0 and r.stderr == "", r.stderr
    return r.stdout


def test_root_defaults_to_the_checkout_holding_the_script(tmp_path):
    # CI calls it with "." from the checkout's root; without ROOT it counts the
    # same checkout from any directory
    given = _count(".", cwd=ROOT)
    assert given.strip().isdigit() and int(given) > 0
    assert _count(cwd=tmp_path) == given
    by_module = _count("--by-module", cwd=tmp_path)
    assert by_module == _count(".", "--by-module", cwd=ROOT)
    assert by_module.splitlines()[-1] == f"total {given.strip()}"


def test_docstrings_comments_and_blank_lines_are_not_code():
    assert code_lines('"""A module\n\nwith only a docstring."""\n\n# and a comment\n') == 0
    assert code_lines('"""Doc."""\n\nx = 1  # counted\n\n\ndef f():\n    """Doc."""\n'
                      '    return (x +\n            1)\n') == 4
