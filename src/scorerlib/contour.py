"""Descent-path geometry for the Scorer integral representations.

Writing the integration variable as ``t = u + i v`` and ``z = x + i y``, each
defining integral has an exponent whose real part must decrease monotonically
along a useful contour while the imaginary part stays constant (no
oscillation).  This module provides those level-line contours explicitly,
``v`` as a function of ``u`` or ``u`` as a function of ``v``, together with
the complex Jacobian factors ``dt/du`` and ``dt/dv`` that convert an integral
over the real parameter back into the contour integral, and the decay
``-Re(exponent)`` that the integrands need.  The substitution ``t -> i t``
maps the oscillatory kernel ``exp(i(z t + t**3/3))`` onto the growing kernel
``exp(z t - t**3/3)``, so the growing kernel's left-valley contour is the
oscillatory kernel's contour turned by ``i``; the engine uses one for both.

All path functions are vectorized over the parameter and raise
:class:`DomainError` naming the violated precondition when called outside
their sector of validity.  Only the closed upper half-plane appears here:
``y < 0`` (a negative-zero ``y`` on the negative real axis too) is rejected,
and the engine's entry points serve it by conjugation.

As the lowest module of the package it also holds what every layer shares:
the :class:`ScorerResult` type and :func:`combine`, the one rule that builds
a result from weighted parts, :class:`DomainError`, :func:`require_finite`
and the ray tolerance :data:`RAY_TOL`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "RAY_TOL",
    "ScorerResult",
    "combine",
    "gi_decay",
    "gi_jacobian_u",
    "gi_path_v_of_u",
    "hi_branch_point",
    "hi_decay",
    "hi_jacobian_u",
    "hi_path_u_of_v",
    "hi_path_v_of_u",
    "require_finite",
    "stokes_path",
]

_SQRT3 = math.sqrt(3.0)
_EPS = float(np.finfo(float).eps)
_TWO_THIRDS_PI = 2.0 * math.pi / 3.0

#: Phase distance (radians) within which ``z`` counts as lying on the Stokes
#: ray ``2*pi/3``.
RAY_TOL = 1e-12


class DomainError(ValueError):
    """A path function was called outside its sector of validity."""


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
        rules, and one evaluation serves the two conjugate rotated
        arguments of Ai(-x) and Bi(x) on the real axis).
    converged : bool
        False when some contributing quadrature missed its tolerance.
    derivative : complex or None
        The first derivative where the route computes one (Ai and Bi),
        else None.
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


def hi_decay(u, v, x: float, y: float):
    """``-Re(z t - t**3/3)`` at ``t = u + iv``: the growing kernel has
    modulus ``exp(-decay)``, and along a valid contour the decay increases."""
    return u**3 / 3.0 - u * v * v - x * u + y * v


def gi_decay(u, v, x: float, y: float):
    """``-Re(i(z t + t**3/3))`` at ``t = u + iv``, the same for the
    oscillatory kernel."""
    return x * v + y * u + u * u * v - v**3 / 3.0


def hi_path_v_of_u(u, x: float, y: float):
    """Height of the zero-oscillation contour of the growing kernel.

    Solves ``Im(z t - t**3/3) = 0`` for the branch through the origin, valid
    in the open sector where the contour runs from the origin to ``+infinity
    * e^{i*pi/6}``-like directions without meeting the saddle.

    Parameters
    ----------
    u : array_like
        Contour parameter, ``u >= 0``.
    x, y : float
        Components of ``z``; requires ``x < 0``, ``y >= 0`` and
        ``3 x**2 > y**2`` (phase of z strictly between 2*pi/3 and pi,
        or on the negative real axis).
    """
    if not x < 0.0:
        raise DomainError("hi_path_v_of_u requires x < 0")
    if y < 0.0:
        raise DomainError("hi_path_v_of_u requires y >= 0; use conjugation below the axis")
    if not 3.0 * x * x > y * y:
        raise DomainError("hi_path_v_of_u requires 3*x**2 > y**2 (inside the Stokes ray)")
    u = np.asarray(u, dtype=float)
    if np.count_nonzero(u < 0.0):
        raise DomainError("hi_path_v_of_u requires u >= 0")
    q = u * u - x
    root = np.sqrt(q)
    # The ratio is >= 0 (y >= 0, u >= 0, q > 0); only rounding can lift it
    # above 1.
    ratio = np.minimum(1.5 * y * u / (q * root), 1.0)
    return 2.0 * root * np.sin(np.arcsin(ratio) / 3.0)


def hi_jacobian_u(u, v, x: float, y: float):
    """``dt/du`` along a zero-oscillation contour parameterized by ``u``.

    Equals ``1 + i * dv/du`` with the slope obtained by implicit
    differentiation of the constant-oscillation condition.
    """
    den = v * v - u * u + x
    if np.count_nonzero(den) < np.size(den):
        raise DomainError("hi_jacobian_u is singular where v**2 - u**2 + x = 0 (saddle)")
    return 1.0 + 1j * ((2.0 * u * v - y) * (1.0 / den))


def hi_branch_point(x: float, y: float) -> tuple[float, float]:
    """Fold point ``(v1, u1)`` where the two ``u(v)`` branches meet.

    Above this height the zero-oscillation level line has no real solution
    for ``u``.  Requires ``x < 0``, ``y > 0`` and ``3 x**2 > y**2``.
    """
    if not (x < 0.0 and 3.0 * x * x > y * y):
        raise DomainError("hi_branch_point requires x < 0 and 3*x**2 > y**2")
    if not y > 0.0:
        raise DomainError("hi_branch_point requires y > 0")
    # 1.5 (-x - d) without the cancellation that rounds it to 0 near the axis.
    v1 = y / math.sqrt(2.0 * (math.sqrt(x * x - y * y / 3.0) - x))
    return v1, y / (2.0 * v1)


def hi_path_u_of_v(v, x: float, y: float, branch: str = "near"):
    """The two ``u > 0`` solutions of the zero-oscillation condition, with
    the Jacobian ``dt/dv``.

    Valid for ``0 <= v <= v1`` (see :func:`hi_branch_point`).  The ``"near"``
    branch passes through the origin; the ``"far"`` branch comes in from
    ``u = +infinity`` as ``v`` decreases.  Both are written against the
    discriminant in factored form so that rounding can never make it
    negative inside the domain.  Returns ``(u, dt_dv)`` with
    ``dt/dv = du/dv + i``; the slope ``du/dv = (v**2 - u**2 + x) / (-+r)``
    has the discriminant's root ``r`` as its denominator, which vanishes
    only at the fold, where the slope is infinite and is returned as 0 (a
    caller integrating up to the fold must cancel it by a substitution).
    """
    if not (x < 0.0 and 3.0 * x * x > y * y):
        raise DomainError("hi_path_u_of_v requires x < 0 and 3*x**2 > y**2")
    if not y > 0.0:
        raise DomainError("hi_path_u_of_v requires y > 0")
    if branch not in ("near", "far"):
        raise ValueError("branch must be 'near' or 'far'")
    v = np.asarray(v, dtype=float)
    if np.count_nonzero(v < 0.0):
        raise DomainError("hi_path_u_of_v requires v >= 0")
    d = math.sqrt(x * x - y * y / 3.0)
    v1sq = 0.5 * y * y / (d - x)
    v2sq = 1.5 * (-x + d)
    if np.count_nonzero(v * v > v1sq * (1.0 + 64.0 * _EPS)):
        raise DomainError("hi_path_u_of_v requires v <= v1 (below the fold point)")
    vsq = v * v
    r = np.sqrt((4.0 / 3.0) * np.maximum(v1sq - vsq, 0.0) * (v2sq - vsq))
    with np.errstate(divide="ignore", invalid="ignore"):
        if branch == "near":
            u = -2.0 * v * (x + vsq / 3.0) / (y + r)
            den = -r
        else:
            u = (y + r) / (2.0 * v)
            den = r
        slope = (vsq - u * u + x) / np.where(r == 0.0, np.inf, den)
    return u, slope + 1j


def stokes_path(u, x: float):
    """Descent contour on the Stokes ray (phase of z exactly 2*pi/3).

    There the level line through the origin runs straight into the saddle at
    ``u0 = sqrt(-x/2)`` and turns onto a hyperbola.  Returns ``(v, dv_du)``;
    the slope jumps from ``sqrt(3)`` to ``-1/sqrt(3)`` at the corner.

    Requires ``x < 0`` and ``u >= 0``.
    """
    if not x < 0.0:
        raise DomainError("stokes_path requires x < 0")
    u = np.asarray(u, dtype=float)
    if np.count_nonzero(u < 0.0):
        raise DomainError("stokes_path requires u >= 0")
    u0 = math.sqrt(-x / 2.0)
    three_u = 3.0 * u
    s = np.sqrt(three_u * u - 12.0 * x)
    v_line = _SQRT3 * u
    v_hyp = 0.5 * (s - v_line)
    dv_hyp = 0.5 * (-_SQRT3 + three_u / s)
    run_in = u <= u0
    return np.where(run_in, v_line, v_hyp), np.where(run_in, _SQRT3, dv_hyp)


def gi_path_v_of_u(u, x: float, y: float):
    """Height of the zero-oscillation contour of the oscillatory kernel.

    Solves ``Re(z t + t**3/3) = 0`` for the branch through the origin,
    written in rationalized form so it stays stable as ``y`` tends to zero.
    Valid for the phase of z in ``[0, 2*pi/3]`` up to :data:`RAY_TOL`;
    requires ``y >= 0`` and ``u >= 0``.  Turned by ``i`` it is also the
    growing kernel's left-valley contour: ``u_Hi(v) = -v_Gi(v)``.
    """
    if y < 0.0:
        raise DomainError("gi_path_v_of_u requires y >= 0; use conjugation below the axis")
    if x < 0.0 and math.atan2(y, x) > _TWO_THIRDS_PI + RAY_TOL:
        raise DomainError("gi_path_v_of_u requires the phase of z in [0, 2*pi/3]")
    u = np.asarray(u, dtype=float)
    if np.count_nonzero(u < 0.0):
        raise DomainError("gi_path_v_of_u requires u >= 0")
    shifted = x + u * u / 3.0
    r = np.sqrt(np.maximum(y * y + 4.0 * u * u * shifted, 0.0))
    den = y + r
    if y > 0.0:  # then den >= y > 0 everywhere
        return 2.0 * u * shifted / den
    rises = den > 0.0
    return np.where(rises, 2.0 * u * shifted / np.where(rises, den, 1.0), 0.0)


def gi_jacobian_u(u, v, x: float, y: float):
    """``dt/du`` along the oscillatory-kernel contour, ``1 + i * dv/du``."""
    den = 2.0 * u * v + y
    if np.count_nonzero(den) < np.size(den):
        raise DomainError("gi_jacobian_u is singular where 2*u*v + y = 0")
    return 1.0 + 1j * ((u * u - v * v + x) * (1.0 / den))

