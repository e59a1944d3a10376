"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import sugeno_bounds

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_prints_its_documented_lines():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    integral, member, verified = out.getvalue().splitlines()
    assert integral.startswith("2.438447")
    assert member == "True"
    holds, margin = verified.split()
    assert holds == "True" and margin.startswith("0.15553")


def test_readme_export_sentence_lists_the_package_root():
    sentence = re.search(r"The package root exports (.*?)\.  Everything else", README.read_text(), re.S)
    assert sentence is not None
    assert sorted(re.findall(r"`(\w+)`", sentence.group(1))) == sorted(sugeno_bounds.__all__)
