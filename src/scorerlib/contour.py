"""Descent-path geometry for the Scorer integral representations.

Writing the integration variable as ``t = u + i v`` and ``z = x + i y``, each
defining integral has an exponent whose real part must decrease monotonically
along a useful contour while the imaginary part stays constant (no
oscillation).  This module provides those level-line contours explicitly,
``v`` as a function of ``u`` or ``u`` as a function of ``v``, together with
the complex Jacobian factors ``dt/du`` and ``dt/dv`` that convert an integral
over the real parameter back into the contour integral.

All path functions are vectorized over the parameter and raise
:class:`DomainError` naming the violated precondition when called outside
their sector of validity.  Only the closed upper half-plane appears here:
``y < 0`` (a negative-zero ``y`` on the negative real axis too) is rejected,
and the engine's entry points serve it by conjugation.

As the lowest module of the package it also holds what every layer shares:
the :class:`ScorerResult` type, :class:`DomainError`, :func:`require_finite`
and the ray tolerance :data:`RAY_TOL`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "HiPathSpec",
    "PhaseParts",
    "RAY_TOL",
    "ScorerResult",
    "gi_jacobian_u",
    "gi_path_v_of_u",
    "gi_phase_parts",
    "hi_branch_point",
    "hi_jacobian_u",
    "hi_jacobian_v",
    "hi_path_spec",
    "hi_path_u_of_v",
    "hi_path_v_of_u",
    "hi_phase_parts",
    "require_finite",
    "stokes_path",
]

_SQRT3 = math.sqrt(3.0)

#: Phase distance (radians) within which ``z`` counts as lying on the Stokes
#: ray ``2*pi/3`` or on the negative real axis.
RAY_TOL = 1e-12


class DomainError(ValueError):
    """A path function was called outside its sector of validity."""


def require_finite(z: complex) -> complex:
    """``z`` as a complex number, or :class:`DomainError` if it is NaN or infinite."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("evaluation requires finite z")
    return z


@dataclass(frozen=True)
class ScorerResult:
    """A function value together with how it was obtained.

    Attributes
    ----------
    value : complex
        The computed function value.
    method : str
        Route tag.  Gi and Hi: ``series``, ``asymptotic``, ``hi_path_u``,
        ``hi_path_v``, ``hi_path_upper``, ``gi_path_u``, ``gi_real_axis``,
        ``hi_rotation``, ``gi_rotation_pair``, ``bi_identity``, or
        ``conjugate``.  Ai and Bi: ``series``, ``integral``, ``rotation``,
        or ``rotation_pair``.
    abs_error_estimate : float
        Estimated absolute error (quadrature estimates plus rounding terms).
    n_evaluations : int
        Exact count of quadrature integrand evaluations aggregated over
        every integral that contributed, including the 40 nodes of each
        Airy rule evaluation.
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

    def conjugate(self, method: str | None = None) -> ScorerResult:
        """The result at the conjugate argument: value and derivative
        conjugated, every other field kept, the route tag too unless
        ``method`` replaces it."""
        d = self.derivative
        return ScorerResult(
            self.value.conjugate(),
            self.method if method is None else method,
            self.abs_error_estimate,
            self.n_evaluations,
            self.converged,
            None if d is None else d.conjugate(),
        )


@dataclass(frozen=True)
class PhaseParts:
    """Real decay part and imaginary (oscillation) part of an exponent."""

    decay: np.ndarray | float
    oscillation: np.ndarray | float


def hi_phase_parts(u, v, x: float, y: float) -> PhaseParts:
    """Split the exponent of the growing-kernel integrand on ``t = u + iv``.

    The integrand is ``exp(z t - t**3/3) = exp(-decay) * exp(-i*oscillation)``.
    A valid contour keeps ``oscillation`` constant while ``decay`` increases.
    """
    decay = u**3 / 3.0 - u * v * v - x * u + y * v
    oscillation = u * u * v - v**3 / 3.0 - x * v - y * u
    return PhaseParts(decay, oscillation)


def gi_phase_parts(u, v, x: float, y: float) -> PhaseParts:
    """Split the exponent of the oscillatory-kernel integrand.

    The integrand is ``exp(i(z t + t**3/3)) = exp(-decay) * exp(i*oscillation)``.
    """
    decay = x * v + y * u + u * u * v - v**3 / 3.0
    oscillation = x * u - y * v + u**3 / 3.0 - u * v * v
    return PhaseParts(decay, oscillation)


def hi_path_v_of_u(u, x: float, y: float):
    """Height of the zero-oscillation contour of the growing kernel.

    Solves ``oscillation(u, v) = 0`` for the branch through the origin, valid
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
    if np.any(u < 0.0):
        raise DomainError("hi_path_v_of_u requires u >= 0")
    q = u * u - x
    ratio = 1.5 * y * u / (q * np.sqrt(q))
    ratio = np.clip(ratio, -1.0, 1.0)
    return 2.0 * np.sqrt(q) * np.sin(np.arcsin(ratio) / 3.0)


def hi_jacobian_u(u, v, x: float, y: float):
    """``dt/du`` along a zero-oscillation contour parameterized by ``u``.

    Equals ``1 + i * dv/du`` with the slope obtained by implicit
    differentiation of the constant-oscillation condition.
    """
    den = v * v - u * u + x
    if np.any(np.asarray(den) == 0.0):
        raise DomainError("hi_jacobian_u is singular where v**2 - u**2 + x = 0 (saddle)")
    return 1.0 + 1j * (2.0 * u * v - y) / den


def hi_jacobian_v(u, v, x: float, y: float):
    """``dt/dv`` along a zero-oscillation contour parameterized by ``v``.

    Equals ``du/dv + i``; the reciprocal slope of :func:`hi_jacobian_u`.
    """
    den = 2.0 * u * v - y
    if np.any(np.asarray(den) == 0.0):
        raise DomainError("hi_jacobian_v is singular where 2*u*v - y = 0")
    return (v * v - u * u + x) / den + 1j


def hi_branch_point(x: float, y: float) -> tuple[float, float]:
    """Fold point ``(v1, u1)`` where the two ``u(v)`` branches meet.

    Above this height the zero-oscillation level line has no real solution
    for ``u``.  Requires ``x < 0``, ``y > 0`` and ``3 x**2 > y**2``.
    """
    if not (x < 0.0 and 3.0 * x * x > y * y):
        raise DomainError("hi_branch_point requires x < 0 and 3*x**2 > y**2")
    if not y > 0.0:
        raise DomainError("hi_branch_point requires y > 0")
    d = math.sqrt(x * x - y * y / 3.0)
    v1 = math.sqrt(1.5 * (-x - d))
    return v1, y / (2.0 * v1)


def hi_path_u_of_v(v, x: float, y: float, branch: str = "near"):
    """The two ``u > 0`` solutions of the zero-oscillation condition.

    Valid for ``0 <= v <= v1`` (see :func:`hi_branch_point`).  The ``"near"``
    branch passes through the origin; the ``"far"`` branch comes in from
    ``u = +infinity`` as ``v`` decreases.  Both are written against the
    discriminant in factored form so that rounding can never make it
    negative inside the domain.
    """
    if not (x < 0.0 and 3.0 * x * x > y * y):
        raise DomainError("hi_path_u_of_v requires x < 0 and 3*x**2 > y**2")
    if not y > 0.0:
        raise DomainError("hi_path_u_of_v requires y > 0")
    v = np.asarray(v, dtype=float)
    if np.any(v < 0.0):
        raise DomainError("hi_path_u_of_v requires v >= 0")
    d = math.sqrt(x * x - y * y / 3.0)
    v1sq = 1.5 * (-x - d)
    v2sq = 1.5 * (-x + d)
    if np.any(v * v > v1sq * (1.0 + 64.0 * np.finfo(float).eps)):
        raise DomainError("hi_path_u_of_v requires v <= v1 (below the fold point)")
    vsq = v * v
    r = np.sqrt((4.0 / 3.0) * np.maximum(v1sq - vsq, 0.0) * (v2sq - vsq))
    if branch == "near":
        return -2.0 * v * (x + vsq / 3.0) / (y + r)
    if branch == "far":
        with np.errstate(divide="ignore"):
            return (y + r) / (2.0 * v)
    raise ValueError("branch must be 'near' or 'far'")


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
    if np.any(u < 0.0):
        raise DomainError("stokes_path requires u >= 0")
    u0 = math.sqrt(-x / 2.0)
    s = np.sqrt(3.0 * u * u - 12.0 * x)
    v_hyp = 0.5 * (-_SQRT3 * u + s)
    dv_hyp = 0.5 * (-_SQRT3 + 3.0 * u / s)
    v = np.where(u <= u0, _SQRT3 * u, v_hyp)
    dv = np.where(u <= u0, _SQRT3, dv_hyp)
    return v, dv


def gi_path_v_of_u(u, x: float, y: float):
    """Height of the zero-oscillation contour of the oscillatory kernel.

    Solves ``oscillation(u, v) = 0`` for the branch through the origin,
    written in rationalized form so it stays stable as ``y`` tends to zero.
    Valid when ``x >= 0``, or ``x < 0`` with ``y**2 >= 3*x**2`` (phase of z
    in ``[0, 2*pi/3]``); requires ``y >= 0`` and ``u >= 0``.
    """
    if y < 0.0:
        raise DomainError("gi_path_v_of_u requires y >= 0; use conjugation below the axis")
    if x < 0.0 and y * y < 3.0 * x * x:
        raise DomainError("gi_path_v_of_u requires x >= 0 or y**2 >= 3*x**2")
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0):
        raise DomainError("gi_path_v_of_u requires u >= 0")
    shifted = x + u * u / 3.0
    r = np.sqrt(np.maximum(y * y + 4.0 * u * u * shifted, 0.0))
    den = y + r
    with np.errstate(invalid="ignore"):
        v = np.where(den > 0.0, 2.0 * u * shifted / np.where(den > 0.0, den, 1.0), 0.0)
    return v


def gi_jacobian_u(u, v, x: float, y: float):
    """``dt/du`` along the oscillatory-kernel contour, ``1 + i * dv/du``."""
    den = 2.0 * u * v + y
    if np.any(np.asarray(den) == 0.0):
        raise DomainError("gi_jacobian_u is singular where 2*u*v + y = 0")
    return 1.0 + 1j * (u * u - v * v + x) / den


@dataclass(frozen=True)
class HiPathSpec:
    """Which contour family serves the growing-kernel integral at ``z``.

    Attributes
    ----------
    kind : str
        ``"real_axis"`` (z on the negative real axis), ``"stokes"`` (phase
        exactly 2*pi/3), or ``"interior"`` (strictly between).
    x, y : float
        Components of ``z``.
    """

    kind: str
    x: float
    y: float


def hi_path_spec(z: complex) -> HiPathSpec:
    """Classify ``z`` for the principal growing-kernel contour.

    Requires the phase of ``z`` in ``[2*pi/3, pi]`` up to :data:`RAY_TOL`,
    so ``z`` in the closed upper half-plane.
    """
    x, y = z.real, z.imag
    ph = math.atan2(y, x)
    if ph < 2.0 * math.pi / 3.0 - RAY_TOL or abs(z) == 0.0:
        raise DomainError("hi_path_spec requires the phase of z in [2*pi/3, pi]")
    if ph <= 2.0 * math.pi / 3.0 + RAY_TOL:
        return HiPathSpec("stokes", x, y)
    if y <= abs(x) * RAY_TOL:
        return HiPathSpec("real_axis", x, 0.0)
    return HiPathSpec("interior", x, y)
