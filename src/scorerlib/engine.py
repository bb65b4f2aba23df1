"""Scorer functions Gi and Hi everywhere in the complex plane.

Gi and Hi are the standard particular solutions of ``w'' - z w = -1/pi`` and
``w'' - z w = +1/pi`` with Airy-like behavior: ``Gi + Hi = Bi`` identically.
Direct numerical integration of their defining integrals fails off the real
axis because the integrands oscillate; instead each evaluation is routed to
a representation that is stable in its sector:

* a Maclaurin series for ``|z| <= 2.5``;
* the optimally truncated large-argument expansion, used only when both its
  smallest term and an explicit bound on the neglected exponentially small
  contribution meet the accuracy target;
* non-oscillating contour integrals: the growing kernel ``exp(zt - t**3/3)``
  is integrated along its descent contour for phases in ``[2pi/3, pi]``, the
  oscillatory kernel ``exp(i(zt + t**3/3))`` along its contour for phases in
  ``[0, 2pi/3)`` (plus an Airy term);
* one-step rotation connections and the relation ``Gi + Hi = Bi`` cover the
  remaining sectors without cancellation;
* conjugation serves the lower half-plane exactly; it happens once, at
  the entry, and everything below it sees the closed upper half-plane.

One route table (``_PHASE_ROWS``, after the series and asymptotic gates)
makes every routing decision: for ``gi``, ``hi`` and ``gi_hi_pair``, for
the Hi values inside the rotation formulas, and for the CLI's quadrature
benchmark.  Every result reports the route taken, an error estimate, the
exact number of integrand evaluations spent, and whether every contributing
quadrature converged.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

from . import airy as _airy
from . import contour as _contour
from .contour import RAY_TOL, ScorerResult, combine
from .quadrature import integrate_piecewise

__all__ = [
    "GI_AT_ZERO",
    "GI_DERIV_AT_ZERO",
    "HI_AT_ZERO",
    "HI_DERIV_AT_ZERO",
    "NEAR_AXIS_PHASE",
    "STOKES_BAND",
    "ScorerResult",
    "gi",
    "gi_asymptotic",
    "gi_from_hi_rotations",
    "gi_hi_pair",
    "gi_integral",
    "gi_real_positive",
    "gi_series",
    "hi",
    "hi_asymptotic",
    "hi_connection",
    "hi_integral_principal",
    "hi_integral_upper",
    "hi_integral_v_form",
    "hi_series",
]

_EPS = float(np.finfo(float).eps)
_PI = math.pi
_TWO_THIRDS_PI = 2.0 * _PI / 3.0
_SQRT_PI = math.sqrt(_PI)
_ROT_UP = cmath.exp(2j * _PI / 3)
_ROT_DOWN = cmath.exp(-2j * _PI / 3)
#: The Airy coefficient 2 e^{-i pi/6} of the Hi rotation connection.
_TWO_ROT_SIXTH = 2.0 * cmath.exp(-1j * _PI / 6.0)
_EXP_CLIP = 745.0

# Values at the origin: Gi(0) = Bi(0)/3 = 1/(3**(7/6) Gamma(2/3)),
# Gi'(0) = Bi'(0)/3 = 1/(3**(5/6) Gamma(1/3)), and Hi takes twice each.
GI_AT_ZERO = 0.2049755424820002450503074563645378511982
GI_DERIV_AT_ZERO = 0.1494294524512754526382745701329427969554
HI_AT_ZERO = 0.4099510849640004901006149127290757023965
HI_DERIV_AT_ZERO = 0.2988589049025509052765491402658855939108

#: Below this phase (radians) off the positive real axis the oscillatory
#: kernel contour starts nearly vertically and quadrature degrades; the
#: two-rotation connection is used instead.
NEAR_AXIS_PHASE = 0.05
#: Within this phase distance below 2*pi/3 the oscillatory-kernel contour
#: passes near a fold of the growing-kernel geometry and its Jacobian
#: spikes; ``Gi = Bi - Hi`` is used there instead.
STOKES_BAND = 0.05


# Thresholds of the route table's two gates.  The series serves |z| up to
# _SERIES_RADIUS; the large-argument expansions are never used below
# _ASYMPTOTIC_RADIUS, sum at most _ASYMPTOTIC_MAX_TERMS corrections, and
# must reach a tenth of _TARGET_REL_ACCURACY.
_SERIES_RADIUS = 2.5
_ASYMPTOTIC_RADIUS = 15.0
_ASYMPTOTIC_MAX_TERMS = 10
_TARGET_REL_ACCURACY = 1e-10


# ---------------------------------------------------------------------------
# Series representation


def _series_scorer(z: complex, c0: float, c1: float, c2: float) -> tuple[complex, float]:
    """Sum ``w = sum c_k z**k`` where ``(k+2)(k+1) c_{k+2} = c_{k-1}``.

    The seeds fix the solution of ``w'' - z w = 2*c2`` with value ``c0`` and
    slope ``c1`` at the origin; the three residue classes of ``k`` recur
    independently.  Returns the sum and a rounding-error estimate.
    """
    p = complex(c0)
    q = c1 * z
    t = c2 * z * z
    total = p + q + t
    term_abs = abs(p) + abs(q) + abs(t)
    z3 = z * z * z
    for m in range(1, 400):
        p *= z3 / ((3 * m) * (3 * m - 1))
        q *= z3 / ((3 * m + 1) * (3 * m))
        t *= z3 / ((3 * m + 2) * (3 * m + 1))
        total += p + q + t
        step = abs(p) + abs(q) + abs(t)
        term_abs += step
        if step <= 0.25 * _EPS * (abs(total) + 1e-300) and m >= 2:
            break
    return total, 4.0 * _EPS * term_abs


def _check_series_radius(z: complex) -> None:
    if abs(z) > _SERIES_RADIUS:
        raise _contour.DomainError(
            f"series requires |z| <= {_SERIES_RADIUS} (cancellation beyond)"
        )


def gi_series(z: complex) -> ScorerResult:
    """Gi by Maclaurin series; requires ``|z| <= 2.5``."""
    _check_series_radius(z)
    value, err = _series_scorer(z, GI_AT_ZERO, GI_DERIV_AT_ZERO, -0.5 / _PI)
    return ScorerResult(value, "series", err, 0)


def hi_series(z: complex) -> ScorerResult:
    """Hi by Maclaurin series; requires ``|z| <= 2.5``."""
    _check_series_radius(z)
    value, err = _series_scorer(z, HI_AT_ZERO, HI_DERIV_AT_ZERO, 0.5 / _PI)
    return ScorerResult(value, "series", err, 0)


# ---------------------------------------------------------------------------
# Large-argument expansions


def _neglected_exponential(r: float, theta: float, kind: str) -> float:
    """Relative size of the exponentially small contribution that the
    large-argument expansion of ``kind`` ("gi" or "hi") omits at
    ``|z| = r``, ``|phase(z)| = theta``.

    It carries ``exp((2/3) r**1.5 cos(1.5 theta))`` for the growing kernel
    (clamped at the ray where the switched-on term stops growing) and the
    mirrored exponent for the oscillatory kernel; the prefactor
    ``sqrt(pi) r**0.75`` was calibrated against high-precision references.
    Outside the expansion's sector the exponent is positive; it is capped
    below the overflow of ``exp``, so the bound is then huge or infinite.
    ``r * sqrt(r)`` saturates to infinity where ``r**1.5`` would raise
    (``r`` above about 1e205).
    """
    if kind == "hi":
        exponent = (2.0 / 3.0) * r * math.sqrt(r) * math.cos(1.5 * min(theta, _TWO_THIRDS_PI))
    else:
        exponent = -(2.0 / 3.0) * r * math.sqrt(r) * math.cos(1.5 * theta)
    return _SQRT_PI * r**0.75 * math.exp(min(exponent, 709.0))


def _asymptotic_core(z: complex, kind: str, n_terms: int | None) -> ScorerResult:
    # 1/z cubed underflows harmlessly where z cubed would overflow.
    w = 1.0 / z
    inv3 = w * w * w
    if 20.0 * abs(inv3) >= 1.0:
        warnings.warn(
            "large-argument expansion diverges from the first term at this |z|",
            RuntimeWarning,
            stacklevel=3,
        )
    power = inv3
    coeff = 2.0
    total = 1.0 + 0.0j
    smallest = math.inf
    limit = _ASYMPTOTIC_MAX_TERMS if n_terms is None else n_terms
    for s in range(limit):
        term = coeff * power
        if n_terms is None and abs(term) >= smallest:
            break
        total += term
        smallest = min(smallest, abs(term))
        coeff *= (3 * s + 4) * (3 * s + 5)
        power *= inv3
    value = (-1.0 if kind == "hi" else 1.0) / (_PI * z) * total
    rel_trunc = min(smallest, coeff * abs(power))
    # Twice the calibrated neglected part and 8 eps of rounding leave the
    # bar a margin on the Stokes ray, where the switched-on term is largest.
    neglected = _neglected_exponential(abs(z), abs(cmath.phase(z)), kind)
    err = abs(value) * (rel_trunc + 8.0 * _EPS + 2.0 * neglected)
    return ScorerResult(value, "asymptotic", err, 0)


def hi_asymptotic(z: complex, n_terms: int | None = None) -> ScorerResult:
    """Hi by its large-argument expansion ``-(1/(pi z)) (1 + corrections)``.

    Valid for phases of ``z`` between ``pi/3`` and ``pi`` in absolute value
    and large ``|z|``.  ``n_terms`` fixes the number of correction terms
    (``n_terms=3`` keeps contributions through ``1/z**10``); ``None``
    truncates optimally at the smallest term.  The error estimate includes
    the omitted exponentially small contribution.
    """
    return _asymptotic_core(z, "hi", n_terms)


def gi_asymptotic(z: complex, n_terms: int | None = None) -> ScorerResult:
    """Gi by its large-argument expansion ``+(1/(pi z)) (1 + corrections)``.

    Valid for ``|phase(z)| < pi/3`` and large ``|z|``; the bracket is the
    same as in the Hi expansion.
    """
    return _asymptotic_core(z, "gi", n_terms)


def _asymptotic_eligible(z: complex, kind: str) -> bool:
    """Gate: both the smallest term and the neglected exponentially small
    contribution (:func:`_neglected_exponential`) must sit below a tenth of
    the accuracy target."""
    r = abs(z)
    if r < _ASYMPTOTIC_RADIUS:
        return False
    theta = abs(cmath.phase(z))
    if (theta < _PI / 3.0) if kind == "hi" else (theta > _PI / 3.0):
        return False
    tol = 0.1 * _TARGET_REL_ACCURACY
    if _neglected_exponential(r, theta, kind) > tol:
        return False
    # Some correction b_s r**(-3(s+1)), b_0 = 2, b_{s+1} = b_s (3s+4)(3s+5),
    # must fall below the target.
    coeff = 2.0
    power = r**-3
    for s in range(_ASYMPTOTIC_MAX_TERMS):
        if coeff * power <= tol:
            return True
        coeff *= (3 * s + 4) * (3 * s + 5)
        power *= r**-3
    return False


# ---------------------------------------------------------------------------
# Contour-integral representations


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
    ``hi`` serve the lower half-plane by conjugation).  On the ray at
    ``2*pi/3`` the contour is a straight run into the saddle followed by a
    hyperbolic branch; on the negative real axis it is the real axis
    itself; strictly between, a single smooth level line through the origin.
    """
    spec = _contour.hi_path_spec(z)
    x, y = spec.x, spec.y

    if spec.kind == "real_axis":

        def f(u: np.ndarray) -> np.ndarray:
            return _masked_exp(u**3 / 3.0 - x * u, 1.0 + 0.0j)

    elif spec.kind == "stokes":
        y_ray = -math.sqrt(3.0) * x
        # In w = u / (2 u0) the slope corner at the saddle u0 sits at s = 1/3
        # of the mapped variable s = w / (1 + w), and bisection keeps it at
        # 1/3 or 2/3 of its panel, where the Gauss and Kronrod rules both see
        # the jump; no split at the corner, so the ray stays the costliest
        # direction.
        scale = 2.0 * math.sqrt(-x / 2.0)

        def f(w: np.ndarray) -> np.ndarray:
            u = scale * w
            v, dv = _contour.stokes_path(u, x)
            return _masked_exp(_contour.hi_decay(u, v, x, y_ray), scale * (1.0 + 1j * dv))

    else:

        def f(u: np.ndarray) -> np.ndarray:
            v = _contour.hi_path_v_of_u(u, x, y)
            h = _contour.hi_jacobian_u(u, v, x, y)
            return _masked_exp(_contour.hi_decay(u, v, x, y), h)

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
    x, y = z.real, z.imag
    v1, _ = _contour.hi_branch_point(x, y)

    def make(branch: str):
        # The near branch runs away from the fold as w grows, the far branch
        # is traversed toward it; orientation gives the far piece a minus.
        out_sign = 2.0 if branch == "near" else -2.0

        def f(w: np.ndarray) -> np.ndarray:
            v = v1 - w * w
            u, h = _contour.hi_path_u_of_v(v, x, y, branch)
            return _masked_exp(_contour.hi_decay(u, v, x, y), out_sign * w * h)

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
        v = _contour.gi_path_v_of_u(u, x, y)
        g = _contour.gi_jacobian_u(u, v, x, y)
        return _masked_exp(_contour.gi_decay(u, v, x, y), g)

    return f


def hi_integral_upper(z: complex) -> ScorerResult:
    """Hi by the left-valley contour plus one recessive Airy term.

    For ``phase(z)`` in ``[pi/3, 2*pi/3]`` (upper half-plane only) the
    descent contour from the origin drains into the left valley; the
    missing saddle contribution is exactly twice a rotated (recessive) Ai
    value.  The contour is :func:`gi_integral`'s, turned by ``i``.  An
    integrable Jacobian kink at the height of the fold is handled by
    splitting the range there.
    """
    x, y = z.real, z.imag
    ph = math.atan2(y, x)
    if ph < _PI / 3.0 or ph > _TWO_THIRDS_PI + RAY_TOL:
        raise _contour.DomainError(
            "hi_integral_upper requires phase(z) between pi/3 and 2*pi/3"
        )
    f = _gi_integrand(x, y)
    if x < 0.0:
        v_star = math.sqrt(-1.5 * x)
        pieces = [(f, 0.0, v_star), (f, v_star, math.inf)]
    else:
        pieces = [(f, 0.0, math.inf)]
    qr = integrate_piecewise(pieces)
    ai = _airy._ai_info(z * _ROT_DOWN)
    return combine("hi_path_upper", [(1j / _PI, qr), (_TWO_ROT_SIXTH, ai)])


def gi_integral(z: complex) -> ScorerResult:
    """Gi by quadrature of the oscillatory kernel on its descent contour,
    plus ``i Ai(z)``.

    Valid for ``0 < phase(z) <= 2*pi/3`` (upper half-plane only); accuracy
    and cost degrade as the phase approaches 0 (near-vertical contour
    start) or ``2*pi/3`` (Jacobian spike near the growing-kernel fold),
    where the engine prefers other routes.
    """
    x, y = z.real, z.imag
    if y == 0.0:
        raise _contour.DomainError(
            "gi_integral requires z off the real axis; use gi_real_positive"
        )
    qr = integrate_piecewise([(_gi_integrand(x, y), 0.0, math.inf)])
    ai = _airy._ai_info(z)
    return combine("gi_path_u", [(-1j / _PI, qr), (1j, ai)])


def gi_real_positive(x: float) -> ScorerResult:
    """Gi on the nonnegative real axis by two monotone real integrals.

    The oscillatory kernel's contour runs straight up to height ``sqrt(x)``
    and then along a descending ridge; both legs reduce to real integrands
    with no oscillation.
    """
    if x < 0.0:
        raise _contour.DomainError("gi_real_positive requires x >= 0")
    sx = math.sqrt(x)

    def f_rise(v: np.ndarray) -> np.ndarray:
        return np.exp(-x * v + v**3 / 3.0) + 0.0j

    def f_ridge(v: np.ndarray) -> np.ndarray:
        return _masked_exp((8.0 / 3.0) * v**3 - 2.0 * x * v, 1.0 + 0.0j)

    qr = integrate_piecewise([(f_rise, 0.0, sx), (f_ridge, sx, math.inf)])
    return combine("gi_real_axis", [(1.0 / _PI, qr)])


# ---------------------------------------------------------------------------
# Rotation connections


def hi_connection(z: complex) -> ScorerResult:
    """Hi by the one-step rotation connection

    ``Hi(z) = e^{2i pi/3} Hi(z e^{2i pi/3}) + 2 e^{-i pi/6} Ai(z e^{-2i pi/3})``.

    For phases strictly between ``pi/3`` and ``2*pi/3`` the rotation lands
    in the sector served by the principal descent contour and the Airy term
    is recessive, so no cancellation occurs.  ``hi`` serves the conjugate
    strip by conjugation.
    """
    (inner,) = _evaluate(z * _ROT_UP, "arm")
    ai = _airy._ai_info(z * _ROT_DOWN)
    return combine("hi_rotation", [(_ROT_UP, inner), (_TWO_ROT_SIXTH, ai)])


def gi_from_hi_rotations(z: complex) -> ScorerResult:
    """Gi from two rotated Hi values.

    ``Gi(z) = -(e^{2i pi/3} Hi(z e^{2i pi/3}) + e^{-2i pi/3} Hi(z e^{-2i pi/3}))/2``;
    both rotated arguments leave the troublesome neighborhood of the
    positive real axis, and all three quantities share the same algebraic
    size, so the combination is stable.
    """
    (up,) = _evaluate(z * _ROT_UP, "arm")
    (down,) = _evaluate(z * _ROT_DOWN, "arm")
    return combine("gi_rotation_pair", [(-0.5 * _ROT_UP, up), (-0.5 * _ROT_DOWN, down)])


def _bi_complement(z: complex, other: ScorerResult) -> ScorerResult:
    """The other Scorer function at ``z`` from ``Gi + Hi = Bi``."""
    return combine("bi_identity", [(1.0, _airy._bi_info(z)), (-1.0, other)])


# ---------------------------------------------------------------------------
# Routing

#: Phase rows of the route table for ``z`` in the closed upper half-plane,
#: consulted after the series and asymptotic gates.  A row serves the phases
#: below its bound; its cells name the route of Gi, of Hi, and of a rotated
#: Hi arm (the Hi value inside a rotation formula, which never rotates or
#: complements again).  ``bi_identity`` evaluates the other function and
#: complements it through ``Gi + Hi = Bi``; it is used only where that other
#: function carries the dominant exponential of Bi, so nothing cancels.  An
#: arm has no contour route below ``pi/3`` (None).  The first bound is the
#: least positive double, so that row holds the positive real axis alone.
_PHASE_ROWS = (
    # phase bound                  Gi                  Hi             rotated Hi arm
    (math.ulp(0.0),                "gi_real_axis",     "bi_identity", None),
    (NEAR_AXIS_PHASE,              "gi_rotation_pair", "bi_identity", None),
    (_PI / 3.0,                    "gi_path_u",        "bi_identity", None),
    (_TWO_THIRDS_PI - STOKES_BAND, "gi_path_u",        "hi_rotation", "hi_path_upper"),
    (_TWO_THIRDS_PI - RAY_TOL,     "bi_identity",      "hi_rotation", "hi_path_upper"),
    (math.inf,                     "bi_identity",      "hi_path_u",   "hi_path_u"),
)
_COLUMNS = {"gi": 1, "hi": 2, "arm": 3}

#: The representation behind each phase-row route tag.
_REPRESENTATIONS = {
    "gi_real_axis": lambda z: gi_real_positive(z.real),
    "gi_rotation_pair": gi_from_hi_rotations,
    "gi_path_u": gi_integral,
    "hi_rotation": hi_connection,
    "hi_path_u": hi_integral_principal,
    "hi_path_upper": hi_integral_upper,
}


def _phase_route(z: complex, fn: str) -> str | None:
    """The phase-row route of ``fn`` ("gi", "hi" or "arm") at ``z``."""
    ph = abs(cmath.phase(z))
    for row in _PHASE_ROWS:
        if ph < row[0]:
            break
    return row[_COLUMNS[fn]]


def _route(z: complex, fn: str) -> str | None:
    """The route of ``fn`` at ``z``: the series gate, the asymptotic gate,
    then the phase rows."""
    if abs(z) <= _SERIES_RADIUS:
        return "series"
    if _asymptotic_eligible(z, "gi" if fn == "gi" else "hi"):
        return "asymptotic"
    return _phase_route(z, fn)


def _along(z: complex, fn: str, route: str | None) -> ScorerResult:
    """Evaluate ``fn`` at ``z`` (closed upper half-plane) along ``route``."""
    if route == "series":
        return (gi_series if fn == "gi" else hi_series)(z)
    if route == "asymptotic":
        return (gi_asymptotic if fn == "gi" else hi_asymptotic)(z)
    if route == "bi_identity":
        other = "hi" if fn == "gi" else "gi"
        return _bi_complement(z, _along(z, other, _route(z, other)))
    if route is None:
        raise _contour.DomainError("a rotated Hi argument needs |phase| >= pi/3")
    return _REPRESENTATIONS[route](z)


def _pair(z: complex) -> tuple[ScorerResult, ScorerResult]:
    """Gi and Hi at ``z`` (closed upper half-plane), each by its own cell of
    the table."""
    g_route, h_route = _route(z, "gi"), _route(z, "hi")
    # Where one cell complements the other, evaluate the other once.
    if g_route == "bi_identity":
        h = _along(z, "hi", h_route)
        return _bi_complement(z, h), h
    if h_route == "bi_identity":
        g = _along(z, "gi", g_route)
        return g, _bi_complement(z, g)
    return _along(z, "gi", g_route), _along(z, "hi", h_route)


def _evaluate(z: complex, fn: str) -> tuple[ScorerResult, ...]:
    """``fn`` ("gi", "hi", "arm", or "pair" for both Gi and Hi) at any
    finite ``z``.

    The one place that conjugates: the route table and the representations
    see the closed upper half-plane only, so below it ``fn`` is evaluated at
    ``conj z`` and each result is conjugated back and tagged ``conjugate``.
    ``abs`` also folds a negative-zero imaginary part, which would put the
    negative real axis at phase ``-pi``.
    """
    z = _contour.require_finite(z)
    up = complex(z.real, abs(z.imag))
    results = _pair(up) if fn == "pair" else (_along(up, fn, _route(up, fn)),)
    if z.imag < 0:
        return tuple(r.conjugate("conjugate") for r in results)
    return results


def gi(z: complex) -> ScorerResult:
    """Evaluate Gi(z)."""
    return _evaluate(z, "gi")[0]


def hi(z: complex) -> ScorerResult:
    """Evaluate Hi(z)."""
    return _evaluate(z, "hi")[0]


def gi_hi_pair(z: complex) -> tuple[ScorerResult, ScorerResult]:
    """Evaluate Gi(z) and Hi(z) together, sharing the expensive parts.

    Where the route table obtains one function from the other through
    ``Gi + Hi = Bi``, the pair costs one primary evaluation plus one Bi
    evaluation instead of two of each.
    """
    g, h = _evaluate(z, "pair")
    return g, h
