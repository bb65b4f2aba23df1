"""What every layer shares, in the package's lowest module: :class:`ScorerResult`,
:func:`combine` (the one rule that builds a result from weighted parts),
:class:`DomainError`, :func:`require_finite` and the ray tolerance :data:`RAY_TOL`.
The contour geometry is in :mod:`scorerlib.integrals`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "DomainError",
    "RAY_TOL",
    "ScorerResult",
    "combine",
    "require_finite",
]

_EPS = sys.float_info.epsilon

#: Phase distance (radians) within which ``z`` counts as lying on the Stokes
#: ray ``2*pi/3``.
RAY_TOL = 1e-12


class DomainError(ValueError):
    """An argument outside a function's domain: a path's sector, the series disc, or not finite."""


def require_finite(z: complex) -> complex:
    """``z`` as a complex number, or :class:`DomainError` if it is NaN or infinite."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("evaluation requires finite z")
    return z


@dataclass(slots=True)
class ScorerResult:
    """A function value together with how it was obtained: the one result
    type of the package, returned by every evaluator, by the Airy rules, by
    the fixed contour rules and by the adaptive quadrature driver.

    A plain slotted record, neither frozen nor hashable: building a frozen
    dataclass costs about four times as much, and a call assembles several
    results (the parts of :func:`combine`).  No code of
    the package changes a result after building it.

    Attributes
    ----------
    value : complex
        The computed function value.
    method : str
        Route tag.  Gi and Hi: ``series``, ``asymptotic``, ``hi_laplace``,
        ``hi_saddle``, ``hi_rotation``, ``gi_rotation``, ``bi_identity``,
        or ``conjugate``, and ``hi_path_u`` where the saddle split
        declines; the representations that the router never takes
        report ``hi_path_v``, ``hi_path_upper``, ``gi_path_u`` and
        ``gi_real_axis``.  Ai and Bi: ``series``,
        ``integral``, ``rotation``, or ``rotation_pair`` (Bi from two
        principal-sector Ai values).  The parts below a route: ``laplace``
        and ``saddle`` for the fixed contour rules, ``quadrature`` for the
        adaptive driver.
    abs_error_estimate : float
        Estimated absolute error (quadrature estimates plus rounding terms).
    n_evaluations : int
        Exact count of quadrature integrand evaluations aggregated over
        every integral that contributed, including the kept nodes of each
        Laplace rule (32, 65 or 131, by rung), the 96 nodes of each saddle
        split and the node count of each Airy rule evaluation (6 to 25,
        the rule sized to its argument; a paired pass counts both of its
        rules, and one evaluation serves two Airy arguments that are
        exact conjugates, wherever they occur, counted once).
    converged : bool
        False when some contributing quadrature missed its tolerance.
    derivative : complex or None
        The first derivative where the route computes one: Ai and Bi from
        ``ai_complex`` and ``bi_complex``.  None for Gi and Hi and for a
        value-only Airy pass (the private dispatchers' default, which the
        Airy terms of Gi and Hi take), which forms no derivative.
    """

    value: complex
    method: str
    abs_error_estimate: float
    n_evaluations: int
    converged: bool = True
    derivative: complex | None = None


def combine(method: str, terms, derivative: complex | None = None) -> ScorerResult:
    """The result ``sum c * part`` over ``terms``, a list of ``(c, part)``.

    Each part is a :class:`ScorerResult`: a route's result, an Airy value,
    a fixed rule's sum or an adaptive quadrature.  The error is the
    weighted sum of the parts' errors plus the rounding of the weighted
    sum, the cost is the parts' total, and the result has converged when
    every part has.  The sum starts from the first term, so a signed zero
    survives a single term.
    """
    value = None
    err = magnitude = 0.0
    n_evaluations = 0
    converged = True
    for c, part in terms:
        term = c * part.value
        value = term if value is None else value + term
        err += abs(c) * part.abs_error_estimate
        magnitude += abs(term)
        n_evaluations += part.n_evaluations
        converged = converged and part.converged
    err += 2.0 * _EPS * (magnitude + abs(value))
    return ScorerResult(value, method, err, n_evaluations, converged, derivative)

