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
        "scorerlib.integrals",
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
        ("scorerlib.engine", ["gi_series", "hi_series", "gi_asymptotic", "hi_asymptotic"]),
        (
            "scorerlib.quadrature",
            [
                "integrate_piecewise", "integrate_semi_infinite", "QuadratureConfig",
                "NonFiniteIntegrandError",
            ],
        ),
        (
            "scorerlib.integrals",
            [
                "hi_integral_principal", "hi_integral_v_form", "hi_integral_upper",
                "gi_integral", "gi_real_positive",
            ],
        ),
    ],
)
def test_the_oracles_stay_public_in_their_modules(module, names):
    # The cross-checking entry points left the top level, not the package.
    assert set(names) <= set(importlib.import_module(module).__all__)


@pytest.mark.parametrize(
    "module,names",
    [
        ("scorerlib", ["gi", "hi", "gi_hi_pair", "ai_complex", "bi_complex"]),
        ("scorerlib.engine", ["gi", "hi", "gi_hi_pair", "integrate_piecewise"]),
        (
            "scorerlib.airy",
            ["ai_complex", "bi_complex", "_ai_info", "_bi_info", "integrate_semi_infinite"],
        ),
        ("scorerlib.quadrature", ["panel_rule", "QuadratureConfig"]),
        ("scorerlib.cli", ["main", "_z_from_polar"]),
    ],
)
def test_every_name_the_benchmark_reads_resolves(module, names):
    # perfbench imports these (its tracer and micro-benchmarks patch some);
    # renaming one stops the benchmark at this checkout.
    mod = importlib.import_module(module)
    assert [name for name in names if not callable(getattr(mod, name, None))] == []


def test_the_benchmark_reads_the_result_fields_and_the_driver_cap():
    from scorerlib import ScorerResult, engine, quadrature

    fields = {"value", "method", "abs_error_estimate", "n_evaluations", "converged", "derivative"}
    assert fields <= set(ScorerResult.__dataclass_fields__)
    assert quadrature.QuadratureConfig().max_subdivisions > 0
    # The tracer wraps engine.integrate_piecewise: it must be the driver itself.
    assert engine.integrate_piecewise.__module__ == "scorerlib.quadrature"


def test_the_adaptive_oracle_lives_in_one_module():
    # No shim: the representations and the contour geometry are reachable
    # only from scorerlib.integrals, which does not import the router.
    from scorerlib import contour, engine, integrals

    assert sorted(contour.__all__) == sorted(
        ["DomainError", "RAY_TOL", "ScorerResult", "combine", "require_finite"]
    )
    assert [n for n in integrals.__all__ if hasattr(engine, n) or hasattr(contour, n)] == []
    assert all(getattr(v, "__name__", None) != "scorerlib.engine" for v in vars(integrals).values())
