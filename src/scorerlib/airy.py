"""Complex Airy functions Ai and Bi with first derivatives.

Evaluation is dispatched by region: a Maclaurin series near the origin, a
Gaussian-damped integral representation in a middle annulus around the
principal sector, the exponential large-argument expansions outside, and a
one-step three-solution rotation identity that connects the principal sector
to the rest of the plane.  The lower half-plane is served by conjugation,
which also makes conjugate symmetry exact in floating point.  Every
evaluation returns a :class:`~scorerlib.contour.ScorerResult` that carries
the derivative alongside the value.

The series/integral seam sits at ``SERIES_RADIUS``; pushing the series much
further loses digits to cancellation on and near the positive real axis,
where the sum is exponentially smaller than its largest term.
"""

from __future__ import annotations

import cmath
import math
import numpy as np

from .contour import ScorerResult, require_finite
from .quadrature import QuadratureConfig, integrate_semi_infinite

__all__ = [
    "AI_ZERO",
    "AIP_ZERO",
    "BI_ZERO",
    "BIP_ZERO",
    "SERIES_RADIUS",
    "ASYMPTOTIC_RADIUS",
    "ai_complex",
    "ai_maclaurin",
    "ai_asymptotic",
    "bi_complex",
]

_EPS = float(np.finfo(float).eps)

# Values at the origin: Ai(0) = 3**(-2/3)/Gamma(2/3), Ai'(0) = -3**(-1/3)/Gamma(1/3),
# Bi(0) = sqrt(3) Ai(0), Bi'(0) = -sqrt(3) Ai'(0).
AI_ZERO = 0.3550280538878172392600631860041831763980
AIP_ZERO = -0.2588194037928067984051835601892039634793
BI_ZERO = 0.6149266274460007351509223690936135535960
BIP_ZERO = 0.4482883573538263579148237103988283908668

#: Outside this radius the Maclaurin series is abandoned (cancellation near
#: the positive real axis costs about exp((4/3)|z|**1.5) in relative error).
SERIES_RADIUS = 3.5
#: Inside this radius the large-argument expansions are not yet at full
#: double accuracy; the integral representation covers the gap.
ASYMPTOTIC_RADIUS = 9.0

_ROT_PLUS = cmath.exp(2j * math.pi / 3)
_ROT_MINUS = cmath.exp(-2j * math.pi / 3)
_TWO_THIRDS_PI = 2.0 * math.pi / 3.0

_GAP_QUAD = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-300, max_subdivisions=200)
#: Cap on the terms of the large-argument expansion.
_ASYMPTOTIC_MAX_TERMS = 25


def _maclaurin_fg(z: complex) -> tuple[complex, complex, complex, complex, float, int]:
    """Sum the two entire building-block series f, g and their derivatives.

    ``f = 1 + z**3/6 + ...`` and ``g = z + z**4/12 + ...`` solve w'' = z w
    with (value, slope) seeds (1, 0) and (0, 1); every Airy solution is a
    fixed combination of them.  Returns (f, g, f', g', sum of term
    magnitudes, number of terms).
    """
    f = 1.0 + 0.0j
    g = complex(z)
    fp = 0.0 + 0.0j
    gp = 1.0 + 0.0j
    p = 1.0 + 0.0j
    q = complex(z)
    z2 = z * z
    z3 = z2 * z
    term_abs = 1.0 + abs(z)
    k = 0
    for k in range(400):
        d = p * z2 / (3 * k + 2)
        e = q * z2 / (3 * k + 3)
        p = p * z3 / ((3 * k + 2) * (3 * k + 3))
        q = q * z3 / ((3 * k + 3) * (3 * k + 4))
        f += p
        g += q
        fp += d
        gp += e
        step = abs(p) + abs(q) + abs(d) + abs(e)
        term_abs += abs(p) + abs(q)
        scale = abs(f) + abs(g) + abs(fp) + abs(gp)
        if step <= 0.25 * _EPS * scale and k >= 1:
            break
    return f, g, fp, gp, term_abs, k + 1


def ai_maclaurin(z: complex) -> ScorerResult:
    """Ai and Ai' from the Maclaurin series.

    Accurate to roughly ``eps * exp((4/3)|z|**1.5)`` relative near the
    positive real axis, so intended for ``|z| <= SERIES_RADIUS``; converges
    (slowly, with cancellation) for any argument.
    """
    f, g, fp, gp, term_abs, _ = _maclaurin_fg(z)
    return ScorerResult(
        AI_ZERO * f + AIP_ZERO * g,
        "series",
        4.0 * _EPS * term_abs * max(AI_ZERO, -AIP_ZERO),
        0,
        derivative=AI_ZERO * fp + AIP_ZERO * gp,
    )


def ai_asymptotic(z: complex) -> ScorerResult:
    """Ai and Ai' from the large-argument exponential expansion.

    Terms are added until they stop decreasing or fall below roundoff, so
    the result is the optimally truncated sum.  Intended for
    ``|ph z| <= 2*pi/3`` (elsewhere the omitted second exponential is not
    uniformly negligible) and ``|z| >= ASYMPTOTIC_RADIUS``.
    """
    zeta = (2.0 / 3.0) * z * cmath.sqrt(z)
    s_val = 1.0 + 0.0j
    s_der = 1.0 + 0.0j
    u = 1.0
    v = 1.0
    sign = 1.0
    prev = math.inf
    for k in range(_ASYMPTOTIC_MAX_TERMS):
        u = u * (6 * k + 1) * (6 * k + 3) * (6 * k + 5) / (216.0 * (k + 1) * (2 * k + 1))
        v = -u * (6 * k + 7) / (6 * k + 5)
        sign = -sign
        term = sign * u / zeta ** (k + 1)
        if abs(term) >= prev:
            break
        s_val += term
        s_der += sign * v / zeta ** (k + 1)
        prev = abs(term)
        if prev <= 0.25 * _EPS * abs(s_val):
            break
    root4 = cmath.sqrt(cmath.sqrt(z))
    pref = cmath.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    value = pref * s_val / root4
    err = _EPS * ((2.0 / 3.0) * abs(z) ** 1.5 + 4.0) * abs(value)
    return ScorerResult(value, "asymptotic", err, 0, derivative=-pref * root4 * s_der)


def _ai_gap(z: complex) -> ScorerResult:
    """Ai and Ai' from the damped integral representation.

    Valid on ``|ph z| <= 2*pi/3``; used in the annulus between the series
    and asymptotic regions, where both alternatives lose digits.
    """
    w = cmath.sqrt(z)
    zeta = (2.0 / 3.0) * z * w

    def damped(t: np.ndarray) -> np.ndarray:
        return np.exp(-w * t * t) * np.cos(t * t * t / 3.0)

    def damped_t2(t: np.ndarray) -> np.ndarray:
        return t * t * np.exp(-w * t * t) * np.cos(t * t * t / 3.0)

    r0 = integrate_semi_infinite(damped, 0.0, _GAP_QUAD)
    r2 = integrate_semi_infinite(damped_t2, 0.0, _GAP_QUAD)
    pref = cmath.exp(-zeta) / math.pi
    value = pref * r0.value
    deriv = -pref * (w * r0.value + r2.value / (2.0 * w))
    err = abs(pref) * (
        r0.abs_error_estimate * (1.0 + abs(w))
        + r2.abs_error_estimate / (2.0 * abs(w))
        + _EPS * abs(zeta) * abs(r0.value)
    )
    return ScorerResult(
        value,
        "integral",
        err,
        r0.n_evaluations + r2.n_evaluations,
        r0.converged and r2.converged,
        deriv,
    )


def _combined(
    method: str,
    value: complex,
    deriv: complex,
    a: ScorerResult,
    b: ScorerResult,
    rounding: float,
) -> ScorerResult:
    """A result built from two Ai results, inheriting their cost and status."""
    return ScorerResult(
        value,
        method,
        a.abs_error_estimate + b.abs_error_estimate + rounding,
        a.n_evaluations + b.n_evaluations,
        a.converged and b.converged,
        deriv,
    )


def _ai_info(z: complex) -> ScorerResult:
    """Dispatch Ai by region."""
    z = require_finite(z)
    if z.imag < 0.0:
        return _ai_info(z.conjugate()).conjugate()
    r = abs(z)
    if r <= SERIES_RADIUS:
        return ai_maclaurin(z)
    # abs: a negative-zero imaginary part puts the negative axis at -pi.
    if abs(cmath.phase(z)) > _TWO_THIRDS_PI + 1e-15:
        # One rotation lands both arguments inside the principal sector.
        a_plus = _ai_info(z * _ROT_PLUS)
        a_minus = _ai_info(z * _ROT_MINUS)
        value = -_ROT_MINUS * a_minus.value - _ROT_PLUS * a_plus.value
        deriv = -_ROT_PLUS * a_minus.derivative - _ROT_MINUS * a_plus.derivative
        return _combined("rotation", value, deriv, a_plus, a_minus, _EPS * abs(value))
    if r >= ASYMPTOTIC_RADIUS:
        return ai_asymptotic(z)
    return _ai_gap(z)


def ai_complex(z: complex) -> ScorerResult:
    """Ai(z), with Ai'(z) as ``derivative``, anywhere in the complex plane.

    Raises :class:`~scorerlib.contour.DomainError` for NaN or infinite ``z``.
    """
    return _ai_info(z)


def _bi_info(z: complex) -> ScorerResult:
    """Dispatch Bi by region."""
    z = require_finite(z)
    if z.imag < 0.0:
        return _bi_info(z.conjugate()).conjugate()
    if abs(z) <= SERIES_RADIUS:
        f, g, fp, gp, term_abs, _ = _maclaurin_fg(z)
        return ScorerResult(
            BI_ZERO * f + BIP_ZERO * g,
            "series",
            4.0 * _EPS * term_abs * BI_ZERO,
            0,
            derivative=BI_ZERO * fp + BIP_ZERO * gp,
        )
    # Two rotated Ai values in the principal sector; no cancellation occurs
    # because the two terms carry conjugate-direction exponentials.
    a_plus = _ai_info(z * _ROT_PLUS)
    a_minus = _ai_info(z * _ROT_MINUS)
    rot1 = cmath.exp(1j * math.pi / 6)
    rot5 = cmath.exp(5j * math.pi / 6)
    value = rot1 * a_plus.value + rot1.conjugate() * a_minus.value
    deriv = rot5 * a_plus.derivative + rot5.conjugate() * a_minus.derivative
    rounding = 2.0 * _EPS * (abs(a_plus.value) + abs(a_minus.value))
    return _combined("rotation_pair", value, deriv, a_plus, a_minus, rounding)


def bi_complex(z: complex) -> ScorerResult:
    """Bi(z), with Bi'(z) as ``derivative``, anywhere in the complex plane.

    Raises :class:`~scorerlib.contour.DomainError` for NaN or infinite ``z``.
    """
    return _bi_info(z)
