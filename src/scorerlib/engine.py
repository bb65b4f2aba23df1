"""Scorer functions Gi and Hi everywhere in the complex plane.

Gi and Hi are the standard particular solutions of ``w'' - z w = -1/pi`` and
``w'' - z w = +1/pi`` with Airy-like behavior: ``Gi + Hi = Bi`` identically.
Direct numerical integration of their defining integrals fails off the real
axis because the integrands oscillate; instead each evaluation is routed to
a representation that is stable in its sector:

* a Maclaurin series inside ``series_radius``;
* the optimally truncated large-argument expansion, used only when both its
  smallest term and an explicit bound on the neglected exponentially small
  contribution meet the accuracy target;
* non-oscillating contour integrals: the growing kernel ``exp(zt - t**3/3)``
  is integrated along its descent contour for phases in ``[2pi/3, pi]``, the
  oscillatory kernel ``exp(i(zt + t**3/3))`` along its contour for phases in
  ``[0, 2pi/3)`` (plus an Airy term);
* one-step rotation connections and the relation ``Gi = Bi - Hi`` cover the
  remaining sectors without cancellation;
* conjugation serves the lower half-plane exactly.

Every result reports the route taken, an error estimate, and the exact
number of integrand evaluations spent.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import airy as _airy
from . import contour as _contour
from .quadrature import QuadratureConfig, integrate_piecewise

__all__ = [
    "EngineConfig",
    "GI_AT_ZERO",
    "GI_DERIV_AT_ZERO",
    "HI_AT_ZERO",
    "HI_DERIV_AT_ZERO",
    "NEAR_AXIS_PHASE",
    "STOKES_BAND",
    "ScorerEngine",
    "ScorerResult",
    "SectorLabel",
    "classify_sector",
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


class SectorLabel(Enum):
    """Phase sectors that select the evaluation route."""

    ORIGIN = "origin"
    PRINCIPAL = "principal"
    UPPER_MIDDLE = "upper_middle"
    STOKES_UPPER = "stokes_upper"
    UPPER_LEFT = "upper_left"
    NEGATIVE_AXIS = "negative_axis"
    LOWER_MIDDLE = "lower_middle"
    STOKES_LOWER = "stokes_lower"
    LOWER_LEFT = "lower_left"


def classify_sector(z: complex, phase_tol: float = 1e-12) -> SectorLabel:
    """Assign ``z`` to the sector that owns it.

    Boundary ownership is deterministic: the origin wins over everything;
    the negative real axis and the rays at phase ``+-2*pi/3`` own a band of
    ``phase_tol`` radians; the rays at exactly ``+-pi/3`` belong to the
    middle sectors, not the principal one.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise _contour.DomainError("classify_sector requires finite z")
    if z == 0:
        return SectorLabel.ORIGIN
    ph = cmath.phase(z)
    if abs(ph) >= _PI - phase_tol:
        return SectorLabel.NEGATIVE_AXIS
    if abs(ph - _TWO_THIRDS_PI) <= phase_tol:
        return SectorLabel.STOKES_UPPER
    if abs(ph + _TWO_THIRDS_PI) <= phase_tol:
        return SectorLabel.STOKES_LOWER
    if abs(ph) < _PI / 3.0:
        return SectorLabel.PRINCIPAL
    if ph > 0:
        return SectorLabel.UPPER_MIDDLE if ph < _TWO_THIRDS_PI else SectorLabel.UPPER_LEFT
    return SectorLabel.LOWER_MIDDLE if ph > -_TWO_THIRDS_PI else SectorLabel.LOWER_LEFT


@dataclass(frozen=True)
class EngineConfig:
    """Tunable thresholds of the evaluation engine.

    Parameters
    ----------
    quad : QuadratureConfig
        Settings shared by all contour integrations.
    series_radius : float
        Use the Maclaurin series for ``|z|`` up to this radius.
    asymptotic_radius : float
        Never use the large-argument expansions below this radius.
    asymptotic_max_terms : int
        Cap on correction terms of the large-argument expansions.
    target_rel_accuracy : float
        Accuracy goal used by the asymptotic eligibility gate.
    """

    quad: QuadratureConfig = field(default_factory=QuadratureConfig)
    series_radius: float = 2.5
    asymptotic_radius: float = 15.0
    asymptotic_max_terms: int = 10
    target_rel_accuracy: float = 1e-10

    def __post_init__(self) -> None:
        if not self.series_radius < self.asymptotic_radius:
            raise ValueError("series_radius must be below asymptotic_radius")


_DEFAULT_CONFIG = EngineConfig()


@dataclass(frozen=True)
class ScorerResult:
    """A function value together with how it was obtained.

    Attributes
    ----------
    value : complex
        The computed function value.
    method : str
        Route tag: ``series``, ``asymptotic``, ``hi_path_u``, ``hi_path_v``,
        ``hi_path_upper``, ``gi_path_u``, ``gi_real_axis``, ``hi_rotation``,
        ``gi_rotation_pair``, ``bi_identity``, or ``conjugate``.
    abs_error_estimate : float
        Estimated absolute error (quadrature estimates plus rounding terms).
    n_evaluations : int
        Exact count of quadrature integrand evaluations aggregated over
        every integral that contributed, including Airy integrals.
    converged : bool
        False when some contributing quadrature missed its tolerance.
    """

    value: complex
    method: str
    abs_error_estimate: float
    n_evaluations: int
    converged: bool = True


def _conjugated(result: ScorerResult) -> ScorerResult:
    return ScorerResult(
        result.value.conjugate(),
        "conjugate",
        result.abs_error_estimate,
        result.n_evaluations,
        result.converged,
    )


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


def _series_scorer_derivatives(
    z: complex, c0: float, c1: float, c2: float
) -> tuple[complex, complex, complex]:
    """Value, first, and second derivative by term-wise differentiated sums.

    Each derivative is summed independently, so the identity
    ``w'' - z w = 2 c2`` holds only up to rounding; test code uses this to
    probe the differential equation without circular arithmetic.
    """
    if z == 0:
        return complex(c0), complex(c1), complex(2.0 * c2)
    p = complex(c0)
    q = c1 * z
    t = c2 * z * z
    w = p + q + t
    w1 = (q + 2.0 * t) / z
    w2 = 2.0 * t / (z * z)
    z3 = z * z * z
    for m in range(1, 400):
        p *= z3 / ((3 * m) * (3 * m - 1))
        q *= z3 / ((3 * m + 1) * (3 * m))
        t *= z3 / ((3 * m + 2) * (3 * m + 1))
        kp, kq, kt = 3 * m, 3 * m + 1, 3 * m + 2
        w += p + q + t
        w1 += (kp * p + kq * q + kt * t) / z
        w2 += (kp * (kp - 1) * p + kq * (kq - 1) * q + kt * (kt - 1) * t) / (z * z)
        # The second-derivative terms carry an extra k**2 / |z|**2 factor.
        step = (abs(p) + abs(q) + abs(t)) * kt * kt / abs(z * z)
        if step <= 0.25 * _EPS * (abs(w2) + 1e-300) and m >= 2:
            break
    return w, w1, w2


def _check_series_radius(z: complex, config: EngineConfig | None) -> EngineConfig:
    cfg = config or _DEFAULT_CONFIG
    if abs(z) > cfg.series_radius:
        raise _contour.DomainError(
            f"series requires |z| <= {cfg.series_radius} (cancellation beyond)"
        )
    return cfg


def gi_series(z: complex, config: EngineConfig | None = None) -> ScorerResult:
    """Gi by Maclaurin series; requires ``|z| <= series_radius``."""
    _check_series_radius(z, config)
    value, err = _series_scorer(z, GI_AT_ZERO, GI_DERIV_AT_ZERO, -0.5 / _PI)
    return ScorerResult(value, "series", err, 0)


def hi_series(z: complex, config: EngineConfig | None = None) -> ScorerResult:
    """Hi by Maclaurin series; requires ``|z| <= series_radius``."""
    _check_series_radius(z, config)
    value, err = _series_scorer(z, HI_AT_ZERO, HI_DERIV_AT_ZERO, 0.5 / _PI)
    return ScorerResult(value, "series", err, 0)


# ---------------------------------------------------------------------------
# Large-argument expansions


def _bracket_terms(r: float, max_terms: int) -> list[float]:
    """Magnitudes of the corrections ``b_s r**(-3(s+1))``, ``b_0 = 2``,
    ``b_{s+1} = b_s (3s+4)(3s+5)``."""
    out = []
    coeff = 2.0
    power = r**-3
    for s in range(max_terms):
        out.append(coeff * power)
        coeff *= (3 * s + 4) * (3 * s + 5)
        power *= r**-3
    return out


def _asymptotic_core(
    z: complex, sign: float, n_terms: int | None, cfg: EngineConfig
) -> ScorerResult:
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
    limit = cfg.asymptotic_max_terms if n_terms is None else n_terms
    for s in range(limit):
        term = coeff * power
        if n_terms is None and abs(term) >= smallest:
            break
        total += term
        smallest = min(smallest, abs(term))
        coeff *= (3 * s + 4) * (3 * s + 5)
        power *= inv3
    value = sign / (_PI * z) * total
    rel_trunc = min(smallest, coeff * abs(power))
    err = abs(value) * (rel_trunc + 4.0 * _EPS)
    return ScorerResult(value, "asymptotic", err, 0)


def hi_asymptotic(
    z: complex, n_terms: int | None = None, config: EngineConfig | None = None
) -> ScorerResult:
    """Hi by its large-argument expansion ``-(1/(pi z)) (1 + corrections)``.

    Valid for phases of ``z`` between ``pi/3`` and ``pi`` in absolute value
    and large ``|z|``.  ``n_terms`` fixes the number of correction terms
    (``n_terms=3`` keeps contributions through ``1/z**10``); ``None``
    truncates optimally at the smallest term.
    """
    return _asymptotic_core(z, -1.0, n_terms, config or _DEFAULT_CONFIG)


def gi_asymptotic(
    z: complex, n_terms: int | None = None, config: EngineConfig | None = None
) -> ScorerResult:
    """Gi by its large-argument expansion ``+(1/(pi z)) (1 + corrections)``.

    Valid for ``|phase(z)| < pi/3`` and large ``|z|``; the bracket is the
    same as in the Hi expansion.
    """
    return _asymptotic_core(z, 1.0, n_terms, config or _DEFAULT_CONFIG)


def _asymptotic_eligible(z: complex, kind: str, cfg: EngineConfig) -> bool:
    """Gate: both the smallest term and the neglected exponentially small
    contribution must sit below a tenth of the accuracy target.

    The neglected contribution carries ``exp((2/3)|z|**1.5 cos(1.5 theta))``
    for the growing kernel (clamped at the ray where the switched-on term
    stops growing) and the mirrored exponent for the oscillatory kernel;
    the prefactor ``sqrt(pi) |z|**0.75`` was calibrated against
    high-precision references.
    """
    r = abs(z)
    if r < cfg.asymptotic_radius:
        return False
    theta = abs(cmath.phase(z))
    tol = 0.1 * cfg.target_rel_accuracy
    if kind == "hi":
        if theta < _PI / 3.0:
            return False
        exponent = (2.0 / 3.0) * r**1.5 * math.cos(1.5 * min(theta, _TWO_THIRDS_PI))
    else:
        if theta > _PI / 3.0:
            return False
        exponent = -(2.0 / 3.0) * r**1.5 * math.cos(1.5 * theta)
    if _SQRT_PI * r**0.75 * math.exp(exponent) > tol:
        return False
    return min(_bracket_terms(r, cfg.asymptotic_max_terms)) <= tol


# ---------------------------------------------------------------------------
# Contour-integral representations.  All take any z and conjugate into the
# upper half-plane internally (the defining integrals are conjugate
# symmetric), so the geometry only ever sees y >= 0.


def _masked_exp(decay: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """``exp(-decay) * factor`` with overflowed lanes forced to zero.

    Lanes where ``decay`` exceeds the double-precision exponent range would
    evaluate ``0 * factor``; masking keeps spurious infinities or NaNs in
    ``factor`` at such lanes from contaminating the panel.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.where(
            decay > _EXP_CLIP, 0.0, np.exp(-np.minimum(decay, _EXP_CLIP)) * factor
        )
    return out


def hi_integral_principal(z: complex, config: EngineConfig | None = None) -> ScorerResult:
    """Hi by quadrature of the growing kernel on its descent contour.

    Valid for ``|phase(z)|`` in ``[2*pi/3, pi]``.  On the ray at ``2*pi/3``
    the contour is a straight run into the saddle followed by a hyperbolic
    branch; on the negative real axis it is the real axis itself; strictly
    between, a single smooth level line through the origin.
    """
    cfg = config or _DEFAULT_CONFIG
    spec = _contour.hi_path_spec(z)
    x, y = spec.x, spec.y

    if spec.kind == "real_axis":

        def f_axis(u: np.ndarray) -> np.ndarray:
            return _masked_exp(u**3 / 3.0 - x * u, np.ones_like(u) + 0.0j)

        pieces = [(f_axis, 0.0, math.inf)]
    elif spec.kind == "stokes":
        y_ray = -math.sqrt(3.0) * x

        def f_stokes(u: np.ndarray) -> np.ndarray:
            v, dv = _contour.stokes_path(u, x)
            parts = _contour.hi_phase_parts(u, v, x, y_ray)
            return _masked_exp(parts.decay, 1.0 + 1j * dv)

        # One curve, one piece: the slope corner where the straight saddle
        # run meets the hyperbolic branch is left to the adaptive refinement,
        # which is what makes the Stokes ray measurably costlier.
        pieces = [(f_stokes, 0.0, math.inf)]
    else:

        def f_interior(u: np.ndarray) -> np.ndarray:
            v = _contour.hi_path_v_of_u(u, x, y)
            parts = _contour.hi_phase_parts(u, v, x, y)
            h = _contour.hi_jacobian_u(u, v, x, y)
            return _masked_exp(parts.decay, h)

        pieces = [(f_interior, 0.0, math.inf)]

    qr = integrate_piecewise(pieces, cfg.quad)
    value = qr.value / _PI
    if z.imag < 0:
        value = value.conjugate()
    err = qr.abs_error_estimate / _PI + 2.0 * _EPS * abs(value)
    return ScorerResult(value, "hi_path_u", err, qr.n_evaluations, qr.converged)


def hi_integral_v_form(z: complex, config: EngineConfig | None = None) -> ScorerResult:
    """Hi by the height-parameterized form of the descent contour.

    The contour is written as two ``u(v)`` branches meeting at the fold
    point; the substitution ``v = v1 - w**2`` removes the inverse
    square-root behavior of the Jacobian at the fold.  Valid strictly
    between the ray at ``2*pi/3`` and the negative real axis; primarily an
    independent cross-check of :func:`hi_integral_principal`.
    """
    cfg = config or _DEFAULT_CONFIG
    x, y = z.real, abs(z.imag)
    v1, _ = _contour.hi_branch_point(x, y)
    d = math.sqrt(x * x - y * y / 3.0)
    v1sq = 1.5 * (-x - d)
    v2sq = 1.5 * (-x + d)
    w_max = math.sqrt(v1)

    def make(branch: str):
        # The near branch runs away from the fold as w grows, the far branch
        # is traversed toward it; orientation gives the far piece a minus.
        out_sign = 1.0 if branch == "near" else -1.0
        den_sign = -1.0 if branch == "near" else 1.0

        def f(w: np.ndarray) -> np.ndarray:
            v = v1 - w * w
            vsq = v * v
            r = np.sqrt((4.0 / 3.0) * np.maximum(v1sq - vsq, 0.0) * (v2sq - vsq))
            if branch == "near":
                u = -2.0 * v * (x + vsq / 3.0) / (y + r)
            else:
                with np.errstate(divide="ignore"):
                    u = (y + r) / (2.0 * v)
            decay = u**3 / 3.0 - u * vsq - x * u + y * v
            with np.errstate(divide="ignore", invalid="ignore"):
                h = (vsq - u * u + x) / np.where(r == 0.0, np.inf, den_sign * r) + 1j
            return out_sign * _masked_exp(decay, h * 2.0 * w)

        return f

    qr = integrate_piecewise(
        [(make("near"), 0.0, w_max), (make("far"), 0.0, w_max)], cfg.quad
    )
    value = qr.value / _PI
    if z.imag < 0:
        value = value.conjugate()
    err = qr.abs_error_estimate / _PI + 2.0 * _EPS * abs(value)
    return ScorerResult(value, "hi_path_v", err, qr.n_evaluations, qr.converged)


def hi_integral_upper(z: complex, config: EngineConfig | None = None) -> ScorerResult:
    """Hi by the left-valley contour plus one recessive Airy term.

    For ``|phase(z)|`` in ``[pi/3, 2*pi/3]`` the descent contour from the
    origin drains into the left valley; the missing saddle contribution is
    exactly twice a rotated (recessive) Ai value.  An integrable Jacobian
    kink at the height of the fold is handled by splitting the range there.
    """
    cfg = config or _DEFAULT_CONFIG
    x, y = z.real, abs(z.imag)
    if y * y < 3.0 * x * x:
        raise _contour.DomainError(
            "hi_integral_upper requires |phase(z)| between pi/3 and 2*pi/3"
        )
    z_up = complex(x, y)

    def f(v: np.ndarray) -> np.ndarray:
        shifted = x + v * v / 3.0
        r = np.sqrt(np.maximum(y * y + 4.0 * v * v * shifted, 0.0))
        u = -2.0 * v * shifted / (y + r)
        decay = u**3 / 3.0 - u * v * v - x * u + y * v
        with np.errstate(divide="ignore", invalid="ignore"):
            h = (v * v - u * u + x) / np.where(r == 0.0, np.inf, -r) + 1j
        return _masked_exp(decay, h)

    if x < 0.0:
        v_star = math.sqrt(-1.5 * x)
        pieces = [(f, 0.0, v_star), (f, v_star, math.inf)]
    else:
        pieces = [(f, 0.0, math.inf)]
    qr = integrate_piecewise(pieces, cfg.quad)
    apair, _, n_airy, airy_err = _airy._ai_info(z_up * _ROT_DOWN)
    value = qr.value / _PI + 2.0 * cmath.exp(-1j * _PI / 6.0) * apair.value
    if z.imag < 0:
        value = value.conjugate()
    err = qr.abs_error_estimate / _PI + 2.0 * airy_err + 2.0 * _EPS * abs(value)
    return ScorerResult(
        value, "hi_path_upper", err, qr.n_evaluations + n_airy, qr.converged
    )


def gi_integral(z: complex, config: EngineConfig | None = None) -> ScorerResult:
    """Gi by quadrature of the oscillatory kernel on its descent contour,
    plus ``i Ai(z)``.

    Valid for ``0 < |phase(z)| <= 2*pi/3``; accuracy and cost degrade as the
    phase approaches 0 (near-vertical contour start) or ``2*pi/3`` (Jacobian
    spike near the growing-kernel fold), where the engine prefers other
    routes.
    """
    cfg = config or _DEFAULT_CONFIG
    x, y = z.real, abs(z.imag)
    if y == 0.0:
        raise _contour.DomainError(
            "gi_integral requires z off the real axis; use gi_real_positive"
        )
    z_up = complex(x, y)

    def f(u: np.ndarray) -> np.ndarray:
        v = _contour.gi_path_v_of_u(u, x, y)
        parts = _contour.gi_phase_parts(u, v, x, y)
        g = _contour.gi_jacobian_u(u, v, x, y)
        return _masked_exp(parts.decay, g)

    qr = integrate_piecewise([(f, 0.0, math.inf)], cfg.quad)
    apair, _, n_airy, airy_err = _airy._ai_info(z_up)
    value = qr.value / (1j * _PI) + 1j * apair.value
    if z.imag < 0:
        value = value.conjugate()
    err = qr.abs_error_estimate / _PI + airy_err + 2.0 * _EPS * abs(value)
    return ScorerResult(value, "gi_path_u", err, qr.n_evaluations + n_airy, qr.converged)


def gi_real_positive(x: float, config: EngineConfig | None = None) -> ScorerResult:
    """Gi on the nonnegative real axis by two monotone real integrals.

    The oscillatory kernel's contour runs straight up to height ``sqrt(x)``
    and then along a descending ridge; both legs reduce to real integrands
    with no oscillation.
    """
    if x < 0.0:
        raise _contour.DomainError("gi_real_positive requires x >= 0")
    cfg = config or _DEFAULT_CONFIG
    sx = math.sqrt(x)

    def f_rise(v: np.ndarray) -> np.ndarray:
        return np.exp(-x * v + v**3 / 3.0) + 0.0j

    def f_ridge(v: np.ndarray) -> np.ndarray:
        return _masked_exp((8.0 / 3.0) * v**3 - 2.0 * x * v, np.ones_like(v) + 0.0j)

    qr = integrate_piecewise([(f_rise, 0.0, sx), (f_ridge, sx, math.inf)], cfg.quad)
    value = qr.value / _PI
    err = qr.abs_error_estimate / _PI + 2.0 * _EPS * abs(value)
    return ScorerResult(value, "gi_real_axis", err, qr.n_evaluations, qr.converged)


# ---------------------------------------------------------------------------
# Engine


class ScorerEngine:
    """Dispatches Gi/Hi evaluations to sector-appropriate representations.

    Parameters
    ----------
    config : EngineConfig, optional
        Thresholds and quadrature settings; defaults target about ten
        significant digits.
    """

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or _DEFAULT_CONFIG

    # -- public API ---------------------------------------------------------

    def hi(self, z: complex) -> ScorerResult:
        """Evaluate Hi(z)."""
        z = _contour.require_finite(z)
        if z.imag < 0:
            return _conjugated(self._hi_upper(z.conjugate()))
        return self._hi_upper(z)

    def gi(self, z: complex) -> ScorerResult:
        """Evaluate Gi(z)."""
        z = _contour.require_finite(z)
        if z.imag < 0:
            return _conjugated(self._gi_upper(z.conjugate()))
        return self._gi_upper(z)

    def gi_hi_pair(self, z: complex) -> tuple[ScorerResult, ScorerResult]:
        """Evaluate Gi(z) and Hi(z) together, sharing the expensive parts.

        In sectors where one function is obtained from the other through
        ``Gi + Hi = Bi``, the pair costs one primary evaluation plus one Bi
        evaluation instead of two of each.
        """
        z = _contour.require_finite(z)
        if z.imag < 0:
            g, h = self.gi_hi_pair(z.conjugate())
            return _conjugated(g), _conjugated(h)
        cfg = self.config
        if abs(z) <= cfg.series_radius:
            return gi_series(z, cfg), hi_series(z, cfg)
        ph = cmath.phase(z)
        if ph >= _TWO_THIRDS_PI - STOKES_BAND:
            h = self._hi_upper(z)
            g = self._identity_complement(z, h)
            return g, h
        if ph <= _PI / 3.0:
            g = self._gi_upper(z)
            h = self._identity_complement(z, g)
            return g, h
        return self._gi_upper(z), self._hi_upper(z)

    # -- internal dispatch (arguments are in the closed upper half-plane) ----

    def _identity_complement(self, z: complex, other: ScorerResult) -> ScorerResult:
        bpair, _, n_bi, bi_err = _airy._bi_info(z)
        value = bpair.value - other.value
        err = bi_err + other.abs_error_estimate + 2.0 * _EPS * (
            abs(bpair.value) + abs(value)
        )
        return ScorerResult(
            value,
            "bi_identity",
            err,
            n_bi + other.n_evaluations,
            other.converged,
        )

    def _hi_upper(self, z: complex) -> ScorerResult:
        cfg = self.config
        if abs(z) <= cfg.series_radius:
            return hi_series(z, cfg)
        if _asymptotic_eligible(z, "hi", cfg):
            return hi_asymptotic(z, None, cfg)
        label = classify_sector(z)
        if label in (
            SectorLabel.STOKES_UPPER,
            SectorLabel.UPPER_LEFT,
            SectorLabel.NEGATIVE_AXIS,
        ):
            return hi_integral_principal(z, cfg)
        if label is SectorLabel.UPPER_MIDDLE:
            return hi_connection(z, "upper", cfg)
        # Principal sector: Hi is the dominant part of Bi there, so the
        # complement loses nothing to cancellation.
        return self._identity_complement(z, self._gi_upper(z))

    def _gi_upper(self, z: complex) -> ScorerResult:
        cfg = self.config
        if abs(z) <= cfg.series_radius:
            return gi_series(z, cfg)
        if _asymptotic_eligible(z, "gi", cfg):
            return gi_asymptotic(z, None, cfg)
        ph = cmath.phase(z)
        if ph == 0.0:
            return gi_real_positive(z.real, cfg)
        if ph < NEAR_AXIS_PHASE:
            return gi_from_hi_rotations(z, cfg)
        if ph < _TWO_THIRDS_PI - STOKES_BAND:
            return gi_integral(z, cfg)
        # Near and beyond the 2*pi/3 ray Gi carries the dominant exponential
        # of Bi, so the complement is cancellation-free.
        return self._identity_complement(z, self._hi_upper(z))


def _hi_rotated_arm(w: complex, cfg: EngineConfig) -> ScorerResult:
    """Hi at a rotated argument with ``|phase(w)| > pi/3``, without entering
    the engine's connection routes (keeps rotation formulas one level deep).

    Conjugates into the upper half-plane, then picks series, certified
    asymptotics, the principal descent contour, or the left-valley contour.
    """
    if w.imag < 0:
        return _conjugated(_hi_rotated_arm(w.conjugate(), cfg))
    if abs(w) <= cfg.series_radius:
        return hi_series(w, cfg)
    if _asymptotic_eligible(w, "hi", cfg):
        return hi_asymptotic(w, None, cfg)
    if cmath.phase(w) >= _TWO_THIRDS_PI - 1e-12:
        return hi_integral_principal(w, cfg)
    return hi_integral_upper(w, cfg)


def hi_connection(
    z: complex, sign: str = "upper", config: EngineConfig | None = None
) -> ScorerResult:
    """Hi by the one-step rotation connection.

    With ``sign="upper"``,
    ``Hi(z) = e^{2i pi/3} Hi(z e^{2i pi/3}) + 2 e^{-i pi/6} Ai(z e^{-2i pi/3})``;
    ``sign="lower"`` mirrors both rotations.  For phases strictly between
    ``pi/3`` and ``2*pi/3`` the upper-sign rotation lands in the sector
    served by the principal descent contour and the Airy term is recessive,
    so no cancellation occurs; the lower sign serves the conjugate strip.
    """
    cfg = config or _DEFAULT_CONFIG
    if sign not in ("upper", "lower"):
        raise ValueError("sign must be 'upper' or 'lower'")
    if sign == "lower":
        rot, airy_rot, phase_factor = _ROT_DOWN, _ROT_UP, cmath.exp(1j * _PI / 6.0)
    else:
        rot, airy_rot, phase_factor = _ROT_UP, _ROT_DOWN, cmath.exp(-1j * _PI / 6.0)
    inner = _hi_rotated_arm(z * rot, cfg)
    apair, _, n_airy, airy_err = _airy._ai_info(z * airy_rot)
    value = rot * inner.value + 2.0 * phase_factor * apair.value
    err = inner.abs_error_estimate + 2.0 * airy_err + 2.0 * _EPS * abs(value)
    return ScorerResult(
        value, "hi_rotation", err, inner.n_evaluations + n_airy, inner.converged
    )


def gi_from_hi_rotations(z: complex, config: EngineConfig | None = None) -> ScorerResult:
    """Gi from two rotated Hi values.

    ``Gi(z) = -(e^{2i pi/3} Hi(z e^{2i pi/3}) + e^{-2i pi/3} Hi(z e^{-2i pi/3}))/2``;
    both rotated arguments leave the troublesome neighborhood of the
    positive real axis, and all three quantities share the same algebraic
    size, so the combination is stable.
    """
    cfg = config or _DEFAULT_CONFIG
    up = _hi_rotated_arm(z * _ROT_UP, cfg)
    down = _hi_rotated_arm(z * _ROT_DOWN, cfg)
    value = -0.5 * (_ROT_UP * up.value + _ROT_DOWN * down.value)
    err = 0.5 * (up.abs_error_estimate + down.abs_error_estimate) + 2.0 * _EPS * abs(value)
    return ScorerResult(
        value,
        "gi_rotation_pair",
        err,
        up.n_evaluations + down.n_evaluations,
        up.converged and down.converged,
    )


_DEFAULT_ENGINE = ScorerEngine()


def _engine_for(config: EngineConfig | None) -> ScorerEngine:
    return _DEFAULT_ENGINE if config is None else ScorerEngine(config)


def gi(z: complex, config: EngineConfig | None = None) -> ScorerResult:
    """Evaluate Gi(z)."""
    return _engine_for(config).gi(z)


def hi(z: complex, config: EngineConfig | None = None) -> ScorerResult:
    """Evaluate Hi(z)."""
    return _engine_for(config).hi(z)


def gi_hi_pair(
    z: complex, config: EngineConfig | None = None
) -> tuple[ScorerResult, ScorerResult]:
    """Evaluate Gi(z) and Hi(z) together, sharing work where possible."""
    return _engine_for(config).gi_hi_pair(z)
