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


def test_the_top_level_is_the_evaluator():
    import scorerlib

    assert sorted(scorerlib.__all__) == sorted([
        "gi", "hi", "gi_hi_pair", "ai_complex", "bi_complex", "ScorerResult", "DomainError",
        "AI_ZERO", "AIP_ZERO", "BI_ZERO", "BIP_ZERO",
        "GI_AT_ZERO", "GI_DERIV_AT_ZERO", "HI_AT_ZERO", "HI_DERIV_AT_ZERO",
        "__version__",
    ])


@pytest.mark.parametrize(
    "module,names",
    [
        (
            "scorerlib.engine",
            [
                "hi_integral_principal", "hi_integral_v_form", "hi_integral_upper",
                "gi_integral", "gi_real_positive",
                "gi_series", "hi_series", "gi_asymptotic", "hi_asymptotic",
            ],
        ),
        (
            "scorerlib.quadrature",
            [
                "integrate_piecewise", "integrate_semi_infinite", "QuadratureConfig",
                "NonFiniteIntegrandError",
            ],
        ),
    ],
)
def test_the_oracles_stay_public_in_their_modules(module, names):
    # The cross-checking entry points left the top level, not the package.
    assert set(names) <= set(importlib.import_module(module).__all__)
