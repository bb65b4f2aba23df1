"""The paper's adaptive integral representations of Gi and Hi and the
descent paths they integrate along: the independent oracle that the CLI's
``selftest``, ``table41`` and ``bench`` check the router against.  The
router's one link to it is ``engine._hi_contour``'s fallback.

A path is a level line of the exponent's imaginary part (no oscillation) on
which the decay ``-Re(exponent)`` increases, given as ``v(u)`` or ``u(v)``
for ``t = u + i v`` with its Jacobian ``dt/du`` or ``dt/dv``; turned by
``i``, the oscillatory kernel's path is the growing kernel's left valley.
The path functions are vectorized and raise
:class:`~scorerlib.contour.DomainError` outside their sector.  Like the
representations, they take the closed upper half-plane only.
"""

from __future__ import annotations

import math

import numpy as np

from . import airy as _airy
from .contour import RAY_TOL, DomainError, ScorerResult, combine, require_finite
from .quadrature import integrate_piecewise

__all__ = [
    "gi_decay",
    "gi_integral",
    "gi_jacobian_u",
    "gi_path_v_of_u",
    "gi_real_positive",
    "hi_branch_point",
    "hi_decay",
    "hi_integral_principal",
    "hi_integral_upper",
    "hi_integral_v_form",
    "hi_jacobian_u",
    "hi_path_u_of_v",
    "hi_path_v_of_u",
    "stokes_path",
]

_SQRT3 = math.sqrt(3.0)
_EPS = float(np.finfo(float).eps)
_PI = math.pi
_TWO_THIRDS_PI = 2.0 * _PI / 3.0
_EXP_CLIP = 745.0


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


def _masked_exp(decay: np.ndarray, factor: np.ndarray | complex) -> np.ndarray:
    """``exp(-decay) * factor`` with overflowed lanes forced to zero.

    Lanes where ``decay`` exceeds the double-precision exponent range would
    evaluate ``0 * factor``; the product skips them, so that spurious
    infinities or NaNs in ``factor`` there neither contaminate the panel
    nor raise floating-point warnings.  A NaN ``decay`` stays NaN.
    """
    out = np.zeros(np.shape(decay), dtype=complex)
    kept = ~(decay > _EXP_CLIP)
    np.multiply(np.exp(-np.minimum(decay, _EXP_CLIP)), factor, out=out, where=kept)
    return out


def hi_integral_principal(z: complex) -> ScorerResult:
    """Hi by quadrature of the growing kernel on its descent contour.

    Valid for ``phase(z)`` in ``[2*pi/3, pi]``; like every integral
    representation here it takes ``z`` in the closed upper half-plane only
    and raises :class:`~scorerlib.contour.DomainError` below it (``gi`` and
    ``hi`` serve the lower half-plane by conjugation).  Within
    :data:`~scorerlib.contour.RAY_TOL` of the ray at ``2*pi/3`` the contour
    is the ray's: a straight run into the saddle followed by a hyperbolic
    branch; elsewhere, the negative real axis included, a single smooth
    level line through the origin.
    """
    z = require_finite(z)
    x, y = z.real, z.imag
    ph = math.atan2(y, x)
    if ph < _TWO_THIRDS_PI - RAY_TOL or z == 0:
        raise DomainError("hi_integral_principal requires the phase of z in [2*pi/3, pi]")

    if ph <= _TWO_THIRDS_PI + RAY_TOL:
        # The ray's contour at the same x serves z = x + i (y_ray + shift),
        # y_ray = -sqrt(3) x: the true y enters the decay, and the phase
        # exp(i shift u), which the ray's level line does not cancel, enters
        # the Jacobian.
        shift = y + math.sqrt(3.0) * x
        # In w = u / (2 u0) the slope corner at the saddle u0 sits at s = 1/3
        # of the mapped variable s = w / (1 + w), and bisection keeps it at
        # 1/3 or 2/3 of its panel, where the Gauss and Kronrod rules both see
        # the jump; no split at the corner, so the ray stays the costliest
        # direction.
        scale = 2.0 * math.sqrt(-x / 2.0)

        def f(w: np.ndarray) -> np.ndarray:
            u = scale * w
            v, dv = stokes_path(u, x)
            dt_dw = scale * (1.0 + 1j * dv) * np.exp(1j * shift * u)
            return _masked_exp(hi_decay(u, v, x, y), dt_dw)

    else:

        def f(u: np.ndarray) -> np.ndarray:
            v = hi_path_v_of_u(u, x, y)
            h = hi_jacobian_u(u, v, x, y)
            return _masked_exp(hi_decay(u, v, x, y), h)

    qr = integrate_piecewise([(f, 0.0, math.inf)])
    return combine("hi_path_u", [(1.0 / _PI, qr)])


def hi_integral_v_form(z: complex) -> ScorerResult:
    """Hi by the height-parameterized form of the descent contour.

    The contour is written as two ``u(v)`` branches meeting at the fold
    point; the substitution ``v = v1 - w**2`` removes the inverse
    square-root behavior of the Jacobian at the fold.  Valid for ``z`` in
    the upper half-plane strictly between the ray at ``2*pi/3`` and the
    negative real axis; primarily an independent cross-check of
    :func:`hi_integral_principal`.
    """
    z = require_finite(z)
    x, y = z.real, z.imag
    v1, _ = hi_branch_point(x, y)

    def make(branch: str):
        # The near branch runs away from the fold as w grows, the far branch
        # is traversed toward it; orientation gives the far piece a minus.
        out_sign = 2.0 if branch == "near" else -2.0

        def f(w: np.ndarray) -> np.ndarray:
            v = v1 - w * w
            u, h = hi_path_u_of_v(v, x, y, branch)
            return _masked_exp(hi_decay(u, v, x, y), out_sign * w * h)

        return f

    w_max = math.sqrt(v1)
    qr = integrate_piecewise([(make("near"), 0.0, w_max), (make("far"), 0.0, w_max)])
    return combine("hi_path_v", [(1.0 / _PI, qr)])


def _gi_integrand(x: float, y: float):
    """The oscillatory kernel on its descent contour ``v = v_Gi(u)`` at
    ``z = x + iy``: ``exp(-gi_decay) dt/du``.

    Turned by ``i`` the same contour is the growing kernel's left-valley
    contour: with ``u_Hi(v) = -v_Gi(v)`` the two exponents agree and
    ``dt_Hi/dv = i dt_Gi/du``, so this integrand times ``i`` is the Hi
    integrand in the height ``v``.
    """

    def f(u: np.ndarray) -> np.ndarray:
        v = gi_path_v_of_u(u, x, y)
        g = gi_jacobian_u(u, v, x, y)
        return _masked_exp(gi_decay(u, v, x, y), g)

    return f


def hi_integral_upper(z: complex) -> ScorerResult:
    """Hi by the left-valley contour plus one recessive Airy term.

    For ``phase(z)`` in ``[pi/3, 2*pi/3]`` (upper half-plane only) the
    descent contour from the origin drains into the left valley; the
    missing saddle contribution is exactly twice a rotated (recessive) Ai
    value.  The contour is :func:`gi_integral`'s, turned by ``i``.  An
    integrable Jacobian kink at the height of the fold is handled by
    splitting the range there.  The router never takes it: it is the
    independent check of the routed Hi on this sector, which takes the
    rotation connection of ``engine._hi_from_rotated``, and the contour that
    the CLI's quadrature benchmark measures on this sector.
    """
    z = require_finite(z)
    x, y = z.real, z.imag
    ph = math.atan2(y, x)
    if ph < _PI / 3.0 or ph > _TWO_THIRDS_PI + RAY_TOL:
        raise DomainError("hi_integral_upper requires phase(z) between pi/3 and 2*pi/3")
    f = _gi_integrand(x, y)
    if x < 0.0:
        v_star = math.sqrt(-1.5 * x)
        pieces = [(f, 0.0, v_star), (f, v_star, math.inf)]
    else:
        pieces = [(f, 0.0, math.inf)]
    ai = _airy._ai_info(z * _airy._ROT_MINUS)
    return combine(
        "hi_path_upper", [(1j / _PI, integrate_piecewise(pieces)), (_airy._TWO_ROT_SIXTH, ai)]
    )


def gi_integral(z: complex) -> ScorerResult:
    """Gi by quadrature of the oscillatory kernel on its descent contour,
    plus ``i Ai(z)``.

    Valid for ``0 < phase(z) <= 2*pi/3`` (upper half-plane only); the cost
    grows as the phase approaches 0 or ``2*pi/3``, where the contour runs
    close to its saddle, and within a few :data:`~scorerlib.contour.RAY_TOL`
    below ``2*pi/3`` (2e-12 for ``|z| <= 3.3``) the quadrature does not
    converge.  The router rotates Hi onto ``[2*pi/3, pi]`` instead.
    """
    z = require_finite(z)
    x, y = z.real, z.imag
    if y == 0.0:
        raise DomainError("gi_integral requires z off the real axis; use gi_real_positive")
    qr = integrate_piecewise([(_gi_integrand(x, y), 0.0, math.inf)])
    return combine("gi_path_u", [(-1j / _PI, qr), (1j, _airy._ai_info(z))])


def gi_real_positive(x: float) -> ScorerResult:
    """Gi on the nonnegative real axis by two monotone real integrals.

    The oscillatory kernel's contour runs straight up to height ``sqrt(x)``
    and then along a descending ridge; both legs reduce to real integrands
    with no oscillation.  The router rotates Hi onto the Stokes ray instead
    (``engine._gi_from_rotated``); this independent representation is the
    oracle that ``selftest`` checks the rotations against on the axis.
    A complex ``x`` with a zero imaginary part counts as real; raises
    :class:`~scorerlib.contour.DomainError` for any other complex, a
    negative or a non-finite ``x``.
    """
    z = require_finite(x)
    if z.imag:
        raise DomainError("gi_real_positive requires a real x")
    x = z.real
    if x < 0.0:
        raise DomainError("gi_real_positive requires x >= 0")
    sx = math.sqrt(x)

    def f_rise(v: np.ndarray) -> np.ndarray:
        return np.exp(-x * v + v**3 / 3.0) + 0.0j

    def f_ridge(v: np.ndarray) -> np.ndarray:
        return _masked_exp((8.0 / 3.0) * v**3 - 2.0 * x * v, 1.0 + 0.0j)

    qr = integrate_piecewise([(f_rise, 0.0, sx), (f_ridge, sx, math.inf)])
    return combine("gi_real_axis", [(1.0 / _PI, qr)])
