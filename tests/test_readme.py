"""The ``>>>`` examples of every ```python block in README.md run as
doctests (``python -m doctest README.md`` would read each closing fence as
expected output)."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_HEADING = re.compile(r"^#+ (.*)$", re.M)


def _blocks():
    """(section, line of the block's first line, block body) per ```python
    block.  The section is the heading the block sits under, without its
    backticks and ``openstrings.`` prefix, so that a block keeps its test
    id when the prose above it changes."""
    text = README.read_text(encoding="utf-8")
    # blank out fenced blocks, so that a comment line is no heading
    prose = _FENCE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)
    heads = [(m.start(), m.group(1).strip("`").removeprefix("openstrings."))
             for m in _HEADING.finditer(prose)]
    return [([name for at, name in heads if at < m.start()][-1],
             text.count("\n", 0, m.start()) + 2, m.group(1))
            for m in _BLOCK.finditer(text)]


BLOCKS = _blocks()


def test_readme_has_examples():
    assert sum(">>>" in body for _, _, body in BLOCKS) >= 2


@pytest.mark.parametrize("lineno, body", [(n, body) for _, n, body in BLOCKS],
                         ids=[section for section, _, _ in BLOCKS])
def test_readme_example(lineno, body):
    test = doctest.DocTestParser().get_doctest(
        body, {}, f"README.md:{lineno}", str(README), lineno - 1)
    assert test.examples
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.failed == 0, "".join(report)
