"""The ``>>>`` examples of the README and the package docstring run as written."""

from __future__ import annotations

import doctest
from pathlib import Path

import scorerlib

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    result = doctest.testfile(
        str(_README), module_relative=False, optionflags=doctest.ELLIPSIS
    )
    assert result.attempted > 0
    assert result.failed == 0


def test_package_docstring_examples():
    result = doctest.testmod(scorerlib, optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0
    assert result.failed == 0
