"""The README's library example runs and prints what its comments say, and its
sentences that list the package root's exports and count the xfails are current."""

import contextlib
import io
import re
from pathlib import Path

import pytest

import sugeno_bounds
from conftest import DESELECTED

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBERS = ("zero one two three four five six seven eight nine ten eleven twelve thirteen "
           "fourteen fifteen sixteen seventeen eighteen nineteen twenty").split()


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


def test_readme_xfail_count_matches_the_suite(request):
    items = request.session.items
    modules = {path.name for path in Path(__file__).parent.glob("test_*.py")}
    if DESELECTED or not modules <= {item.path.name for item in items}:
        pytest.skip("counts the xfails of a whole-suite run only")
    count = sum(1 for item in items if any(item.iter_markers("xfail")))
    word = re.search(r"(\w+) tests\s+are marked `xfail`", README.read_text()).group(1)
    assert NUMBERS.index(word.lower()) == count, (word, count)
