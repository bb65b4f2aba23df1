"""Scorer functions Gi and Hi on the whole complex plane.

The package evaluates the two standard particular solutions of the
inhomogeneous Airy equation ``w'' - z w = -+ 1/pi`` in double precision by
routing each argument to a numerically stable representation: Maclaurin
series near the origin, fixed Gauss-Laguerre rules on non-oscillating
integrals in the middle range, rotation connections between sectors, and
large-argument expansions once they are certifiably accurate.

The top level is the evaluator.  ``scorerlib.engine`` holds the router and
its fixed rules, ``scorerlib.integrals`` the paper's adaptive
representations that cross-check it, and ``scorerlib.quadrature`` the
adaptive integrator.

>>> from scorerlib import gi, hi
>>> hi(-1.0).value.real
0.220669606...
"""

from __future__ import annotations

from .airy import (
    AI_ZERO,
    AIP_ZERO,
    BI_ZERO,
    BIP_ZERO,
    ai_complex,
    bi_complex,
)
from .contour import DomainError
from .engine import (
    GI_AT_ZERO,
    GI_DERIV_AT_ZERO,
    HI_AT_ZERO,
    HI_DERIV_AT_ZERO,
    ScorerResult,
    gi,
    gi_hi_pair,
    hi,
)

__version__ = "0.1.0"

__all__ = [
    "AI_ZERO",
    "AIP_ZERO",
    "BI_ZERO",
    "BIP_ZERO",
    "DomainError",
    "GI_AT_ZERO",
    "GI_DERIV_AT_ZERO",
    "HI_AT_ZERO",
    "HI_DERIV_AT_ZERO",
    "ScorerResult",
    "__version__",
    "ai_complex",
    "bi_complex",
    "gi",
    "gi_hi_pair",
    "hi",
]
