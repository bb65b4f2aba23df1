"""Every name a module exports in ``__all__`` resolves, so a deleted function
that leaves its export behind fails here, not at ``from ... import *``."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize(
    "module",
    [
        "scorerlib",
        "scorerlib.engine",
        "scorerlib.airy",
        "scorerlib.contour",
        "scorerlib.quadrature",
        "scorerlib.cli",
    ],
)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
