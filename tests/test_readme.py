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


def _blocks():
    """(line of the block's first line, block body) per ```python block."""
    text = README.read_text(encoding="utf-8")
    return [(text.count("\n", 0, m.start()) + 2, m.group(1))
            for m in _BLOCK.finditer(text)]


BLOCKS = _blocks()


def test_readme_has_examples():
    assert sum(">>>" in body for _, body in BLOCKS) >= 2


@pytest.mark.parametrize("lineno, body", BLOCKS,
                         ids=[f"line{n}" for n, _ in BLOCKS])
def test_readme_example(lineno, body):
    test = doctest.DocTestParser().get_doctest(
        body, {}, f"README.md:{lineno}", str(README), lineno - 1)
    assert test.examples
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.failed == 0, "".join(report)
