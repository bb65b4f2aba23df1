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
* one-step rotation connections and the relation ``Gi + Hi = Bi`` cover the
  remaining sectors without cancellation;
* conjugation serves the lower half-plane exactly.

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
from dataclasses import dataclass, field

import numpy as np

from . import airy as _airy
from . import contour as _contour
from .contour import RAY_TOL, ScorerResult
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
    # Some correction b_s r**(-3(s+1)), b_0 = 2, b_{s+1} = b_s (3s+4)(3s+5),
    # must fall below the target.
    coeff = 2.0
    power = r**-3
    for s in range(cfg.asymptotic_max_terms):
        if coeff * power <= tol:
            return True
        coeff *= (3 * s + 4) * (3 * s + 5)
        power *= r**-3
    return False


# ---------------------------------------------------------------------------
# Contour-integral representations


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
    if math.atan2(y, x) < _PI / 3.0:
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
    ai = _airy._ai_info(z_up * _ROT_DOWN)
    value = qr.value / _PI + 2.0 * cmath.exp(-1j * _PI / 6.0) * ai.value
    if z.imag < 0:
        value = value.conjugate()
    err = qr.abs_error_estimate / _PI + 2.0 * ai.abs_error_estimate + 2.0 * _EPS * abs(value)
    return ScorerResult(
        value,
        "hi_path_upper",
        err,
        qr.n_evaluations + ai.n_evaluations,
        qr.converged and ai.converged,
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
    ai = _airy._ai_info(z_up)
    value = qr.value / (1j * _PI) + 1j * ai.value
    if z.imag < 0:
        value = value.conjugate()
    err = qr.abs_error_estimate / _PI + ai.abs_error_estimate + 2.0 * _EPS * abs(value)
    return ScorerResult(
        value,
        "gi_path_u",
        err,
        qr.n_evaluations + ai.n_evaluations,
        qr.converged and ai.converged,
    )


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
# Rotation connections


def hi_connection(
    z: complex, sign: str = "upper", config: EngineConfig | None = None
) -> ScorerResult:
    """Hi by the one-step rotation connection.

    With ``sign="upper"``,
    ``Hi(z) = e^{2i pi/3} Hi(z e^{2i pi/3}) + 2 e^{-i pi/6} Ai(z e^{-2i pi/3})``;
    ``sign="lower"`` is its mirror image, the conjugate of the upper-sign
    connection at ``conj(z)``.  For phases strictly between ``pi/3`` and
    ``2*pi/3`` the upper-sign rotation lands in the sector served by the
    principal descent contour and the Airy term is recessive, so no
    cancellation occurs; the lower sign serves the conjugate strip.
    """
    if sign not in ("upper", "lower"):
        raise ValueError("sign must be 'upper' or 'lower'")
    if sign == "lower":
        return hi_connection(complex(z).conjugate(), "upper", config).conjugate()
    cfg = config or _DEFAULT_CONFIG
    inner = _evaluate(z * _ROT_UP, "arm", cfg)
    ai = _airy._ai_info(z * _ROT_DOWN)
    value = _ROT_UP * inner.value + 2.0 * cmath.exp(-1j * _PI / 6.0) * ai.value
    err = inner.abs_error_estimate + 2.0 * ai.abs_error_estimate + 2.0 * _EPS * abs(value)
    return ScorerResult(
        value,
        "hi_rotation",
        err,
        inner.n_evaluations + ai.n_evaluations,
        inner.converged and ai.converged,
    )


def gi_from_hi_rotations(z: complex, config: EngineConfig | None = None) -> ScorerResult:
    """Gi from two rotated Hi values.

    ``Gi(z) = -(e^{2i pi/3} Hi(z e^{2i pi/3}) + e^{-2i pi/3} Hi(z e^{-2i pi/3}))/2``;
    both rotated arguments leave the troublesome neighborhood of the
    positive real axis, and all three quantities share the same algebraic
    size, so the combination is stable.
    """
    cfg = config or _DEFAULT_CONFIG
    up = _evaluate(z * _ROT_UP, "arm", cfg)
    down = _evaluate(z * _ROT_DOWN, "arm", cfg)
    value = -0.5 * (_ROT_UP * up.value + _ROT_DOWN * down.value)
    err = 0.5 * (up.abs_error_estimate + down.abs_error_estimate) + 2.0 * _EPS * abs(value)
    return ScorerResult(
        value,
        "gi_rotation_pair",
        err,
        up.n_evaluations + down.n_evaluations,
        up.converged and down.converged,
    )


def _bi_complement(z: complex, other: ScorerResult) -> ScorerResult:
    """The other Scorer function at ``z`` from ``Gi + Hi = Bi``."""
    bi = _airy._bi_info(z)
    value = bi.value - other.value
    err = bi.abs_error_estimate + other.abs_error_estimate + 2.0 * _EPS * (
        abs(bi.value) + abs(value)
    )
    return ScorerResult(
        value,
        "bi_identity",
        err,
        bi.n_evaluations + other.n_evaluations,
        other.converged and bi.converged,
    )


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
    "gi_real_axis": lambda z, cfg: gi_real_positive(z.real, cfg),
    "gi_rotation_pair": gi_from_hi_rotations,
    "gi_path_u": gi_integral,
    "hi_rotation": lambda z, cfg: hi_connection(z, "upper", cfg),
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


def _route(z: complex, fn: str, cfg: EngineConfig) -> str | None:
    """The route of ``fn`` at ``z``: the series gate, the asymptotic gate,
    then the phase rows."""
    if abs(z) <= cfg.series_radius:
        return "series"
    if _asymptotic_eligible(z, "gi" if fn == "gi" else "hi", cfg):
        return "asymptotic"
    return _phase_route(z, fn)


def _along(z: complex, fn: str, route: str | None, cfg: EngineConfig) -> ScorerResult:
    """Evaluate ``fn`` at ``z`` (closed upper half-plane) along ``route``."""
    if route == "series":
        return (gi_series if fn == "gi" else hi_series)(z, cfg)
    if route == "asymptotic":
        return (gi_asymptotic if fn == "gi" else hi_asymptotic)(z, None, cfg)
    if route == "bi_identity":
        other = "hi" if fn == "gi" else "gi"
        return _bi_complement(z, _along(z, other, _route(z, other, cfg), cfg))
    if route is None:
        raise _contour.DomainError("a rotated Hi argument needs |phase| >= pi/3")
    return _REPRESENTATIONS[route](z, cfg)


def _evaluate(z: complex, fn: str, cfg: EngineConfig) -> ScorerResult:
    """Evaluate ``fn`` at any finite ``z``; the lower half-plane by conjugation."""
    z = _contour.require_finite(z)
    if z.imag < 0:
        z = z.conjugate()
        return _along(z, fn, _route(z, fn, cfg), cfg).conjugate("conjugate")
    return _along(z, fn, _route(z, fn, cfg), cfg)


def _pair(z: complex, cfg: EngineConfig) -> tuple[ScorerResult, ScorerResult]:
    """Gi and Hi at any finite ``z``, each by its own cell of the table."""
    z = _contour.require_finite(z)
    if z.imag < 0:
        g, h = _pair(z.conjugate(), cfg)
        return g.conjugate("conjugate"), h.conjugate("conjugate")
    g_route, h_route = _route(z, "gi", cfg), _route(z, "hi", cfg)
    # Where one cell complements the other, evaluate the other once.
    if g_route == "bi_identity":
        h = _along(z, "hi", h_route, cfg)
        return _bi_complement(z, h), h
    if h_route == "bi_identity":
        g = _along(z, "gi", g_route, cfg)
        return g, _bi_complement(z, g)
    return _along(z, "gi", g_route, cfg), _along(z, "hi", h_route, cfg)


class ScorerEngine:
    """Evaluates Gi and Hi with fixed thresholds and quadrature settings.

    Parameters
    ----------
    config : EngineConfig, optional
        Thresholds and quadrature settings; defaults target about ten
        significant digits.
    """

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or _DEFAULT_CONFIG

    def hi(self, z: complex) -> ScorerResult:
        """Evaluate Hi(z)."""
        return _evaluate(z, "hi", self.config)

    def gi(self, z: complex) -> ScorerResult:
        """Evaluate Gi(z)."""
        return _evaluate(z, "gi", self.config)

    def gi_hi_pair(self, z: complex) -> tuple[ScorerResult, ScorerResult]:
        """Evaluate Gi(z) and Hi(z) together, sharing the expensive parts.

        Where the route table obtains one function from the other through
        ``Gi + Hi = Bi``, the pair costs one primary evaluation plus one Bi
        evaluation instead of two of each.
        """
        return _pair(z, self.config)


def gi(z: complex, config: EngineConfig | None = None) -> ScorerResult:
    """Evaluate Gi(z)."""
    return _evaluate(z, "gi", config or _DEFAULT_CONFIG)


def hi(z: complex, config: EngineConfig | None = None) -> ScorerResult:
    """Evaluate Hi(z)."""
    return _evaluate(z, "hi", config or _DEFAULT_CONFIG)


def gi_hi_pair(
    z: complex, config: EngineConfig | None = None
) -> tuple[ScorerResult, ScorerResult]:
    """Evaluate Gi(z) and Hi(z) together, sharing work where possible."""
    return _pair(z, config or _DEFAULT_CONFIG)
