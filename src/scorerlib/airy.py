"""Complex Airy functions Ai and Bi with first derivatives.

Evaluation is dispatched by region: a Maclaurin series near the origin, a
fixed 25-node Gauss-Laguerre rule on the non-oscillating Laplace form of Ai
everywhere else in the principal sector ``|ph z| <= 2*pi/3``, and a
one-step three-solution rotation identity that connects the principal
sector to the rest of the plane.  Bi beyond the series disc combines two
principal-sector Ai values (route ``rotation_pair``, two rule evaluations):

* on ``0 < ph z <= 2*pi/3``, ``Bi = i Ai(z) + 2 e^{-i pi/6} Ai(z e^{-2 pi i/3})``
  (DLMF 9.2.11 with 9.2.10, the split of ACM TOMS Algorithm 819), where
  ``z e^{2 pi i/3}`` would leave the sector, and on ``-2*pi/3 <= ph z < 0``
  its conjugate ``Bi = -i Ai(z) + 2 e^{i pi/6} Ai(z e^{2 pi i/3})``.
  Nothing cancels: within ``pi/3`` of the axis Ai(z) is recessive and the
  rotated term dominates, beyond it the reverse;
* beyond ``2*pi/3`` and on the real axis,
  ``Bi = e^{i pi/6} Ai(z e^{2 pi i/3}) + e^{-i pi/6} Ai(z e^{-2 pi i/3})``.
  Nothing cancels, because the two terms carry conjugate-direction
  exponentials; on the axis they are exact conjugates, so one rule
  evaluation serves both and Bi(x) comes out exactly real, where the first
  formula would leave a rounding residue in its imaginary part.

The rotations call the rule directly on their principal-sector arguments.
Ai's series, rule and rotation and Bi's formulas are conjugate-symmetric
by construction, so neither function folds the lower half-plane.  Every
evaluation returns a :class:`~scorerlib.contour.ScorerResult` that carries
the derivative alongside the value.

The series/rule seam sits at ``SERIES_RADIUS``; pushing the series much
further loses digits to cancellation on and near the positive real axis,
where the sum is exponentially smaller than its largest term, and the rule
loses digits inside it as the singularity at ``t = -2 zeta`` of its
integrand nears the nodes.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .contour import ScorerResult, combine, require_finite

# Not used here: the name stays because perfbench's tracer wraps
# ``airy.integrate_semi_infinite`` and stops when it is missing.
from .quadrature import integrate_semi_infinite  # noqa: F401

__all__ = [
    "AI_ZERO",
    "AIP_ZERO",
    "BI_ZERO",
    "BIP_ZERO",
    "SERIES_RADIUS",
    "ai_complex",
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

_ROT_PLUS = cmath.exp(2j * math.pi / 3)
_ROT_MINUS = cmath.exp(-2j * math.pi / 3)
#: Bi's coefficients e^{i pi/6} and, for its derivative, e^{5 pi i/6}.
_ROT1 = cmath.exp(1j * math.pi / 6)
_ROT5 = cmath.exp(5j * math.pi / 6)
_TWO_THIRDS_PI = 2.0 * math.pi / 3.0
#: Beyond this |ph z| Ai rotates and Bi takes its conjugate-pair formula, so
#: that no rule argument of Ai(z) or Bi(z) leaves the principal sector.
_ROTATION_EDGE = _TWO_THIRDS_PI + 1e-15
_HALF_PI = 0.5 * math.pi

# The generalized Gauss-Laguerre rule for exp(-t) t**(-1/6) on [0, inf) with
# 40 nodes, ascending, truncated to the 25 nodes whose weight exceeds 1e-18
# of the largest; printed by tools/laguerre_rule.py --cut 1e-18.
_NODES = np.array([
    0.028389141799456768, 0.17098537886003493, 0.4358716783417705,
    0.8235182579130309, 1.3345254325422737, 1.9696829320643507,
    2.7299813400285995, 3.616621619161009, 4.631026110526541,
    5.774851718305477, 7.050005686302187, 8.458664375132377,
    10.00329552427494, 11.686684594772242, 13.511965934469355,
    15.482659695937715, 17.602715680806913, 19.876565602278546,
    22.30918567739628, 24.906172021297422, 27.67383207394972,
    30.619296329508412, 33.750656085024, 37.07713497083912,
    40.609304969434135,
])
_WEIGHTS = np.array([
    0.14372040880331385, 0.2304075592418809, 0.24225304552132762,
    0.20363663910344082, 0.1437606306229214, 0.08691288347060781,
    0.04541750018329159, 0.02061180312060695, 0.00814278821268607,
    0.0028026607566337767, 0.0008403374416217194, 0.0002193037329077657,
    4.974016590092524e-05, 9.785080959209777e-06, 1.665428246036952e-06,
    2.4450273679965773e-07, 3.085370342362143e-08, 3.3329607293728215e-09,
    3.0678189236537724e-10, 2.3933130990901165e-11, 1.5729470767628715e-12,
    8.649360130178674e-14, 3.948198167006651e-15, 1.4827117304810828e-16,
    4.533903748150563e-18,
])
_WEIGHTS_NODES = _WEIGHTS * _NODES
#: Above this |zeta| (|z| above about 1.3e100) the rule is not evaluated
#: inside |ph z| < pi/3, where Ai and Ai' underflow to 0.
_ZETA_CAP = 1e150
#: 1 / (sqrt(pi) 48**(1/6) Gamma(5/6)), the Laplace form's normalization.
_LAPLACE_NORM = 1.0 / (math.sqrt(math.pi) * 48.0 ** (1.0 / 6.0) * math.gamma(5.0 / 6.0))
#: The rule's error bar floor: four units of 2**-1074, the spacing of the
#: subnormal numbers.  Where Ai is subnormal its relative bar underflows,
#: and each rounding costs up to half a unit per part.  ``pref`` carries 0.9
#: units per part, 1.3 in modulus: a whole unit from libm's exp of the real
#: exponent and half from its product with cos or sin, both scaled by the
#: normalization 0.262, and half from that product itself.  ``pref * s0``
#: scales them by |s0| <= 1.006 (Re zeta > 0 there, so |2 + t/zeta| >= 2 in
#: ``I``) and rounds two products per part, half a unit each (their sum is
#: subnormal, so exact): 1.4 units more in modulus, 2.7 in all.  A value
#: returned as 0 beyond ``_ZETA_CAP`` is off by less than half a unit.
_UNDERFLOW_BAR = 4.0 * math.ulp(0.0)


def _maclaurin_denominators(n_terms: int) -> list[list[int]]:
    """The denominators ``D`` of the coefficients ``1/D`` of ``z**(3m + j)``,
    ``m < n_terms``, of the three series solutions (``j = 0, 1, 2``) of
    ``w'' - z w = const`` seeded by a coefficient 1 at ``z**j``.

    The coefficients follow ``(k + 2)(k + 1) c_{k+2} = c_{k-1}``, so the
    three residue classes of ``k`` recur independently.  The homogeneous
    Airy equation uses the classes 0 and 1; the Scorer equations add class
    2, whose seed ``c_2`` is half the right-hand side.  Integers, so that a
    table entry ``k / D`` rounds once.
    """
    classes = []
    for j in range(3):
        d = [1]
        for m in range(1, n_terms):
            d.append(d[-1] * (3 * m + j) * (3 * m + j - 1))
        classes.append(d)
    return classes


#: Terms of each series in z**3: every omitted term of f, g, f' and g' is
#: below 1e-20 at |z| = SERIES_RADIUS.
_SERIES_TERMS = 19


def _airy_rows(n_terms: int) -> tuple[tuple[float, float, float, float], ...]:
    """Horner rows, highest power of ``z**3`` first, of ``f``, ``g / z``,
    ``f' / z**2`` and ``g'``, where ``f = 1 + z**3/6 + ...`` and
    ``g = z + z**4/12 + ...`` solve w'' = z w with (value, slope) seeds
    (1, 0) and (0, 1)."""
    f, g, _ = _maclaurin_denominators(n_terms + 1)
    return tuple(
        (1 / f[m], 1 / g[m], 3 * (m + 1) / f[m + 1], (3 * m + 1) / g[m])
        for m in reversed(range(n_terms))
    )


_AIRY_ROWS = _airy_rows(_SERIES_TERMS)


def _maclaurin(z: complex, c0: float, c1: float) -> ScorerResult:
    """The Airy solution with value ``c0`` and slope ``c1`` at the origin,
    and its derivative, from the Maclaurin series in Horner form.

    It is ``c0 f + c1 g`` (see :func:`_airy_rows`).  The error bar is
    4 eps times the sum of the term magnitudes of f and g, which is the
    series at ``|z|``, times ``max(|c0|, |c1|)``.
    """
    z3 = z * z * z
    r = abs(z)
    r3 = r * r * r
    f = g = fp = gp = 0j
    f_abs = g_abs = 0.0
    for a, b, ap, bp in _AIRY_ROWS:
        f = f * z3 + a
        g = g * z3 + b
        fp = fp * z3 + ap
        gp = gp * z3 + bp
        f_abs = f_abs * r3 + a
        g_abs = g_abs * r3 + b
    return ScorerResult(
        c0 * f + c1 * (z * g),
        "series",
        4.0 * _EPS * (f_abs + r * g_abs) * max(abs(c0), abs(c1)),
        0,
        derivative=c0 * (z * z * fp) + c1 * gp,
    )


def _ai_laguerre(z: complex) -> ScorerResult:
    """Ai and Ai' from the non-oscillating Laplace form, by the fixed rule.

    ``Ai(z) = exp(-zeta) zeta**(-1/6) / (sqrt(pi) 48**(1/6) Gamma(5/6)) * I``
    with ``zeta = (2/3) z**1.5`` and
    ``I = int_0^inf exp(-t) t**(-1/6) (2 + t/zeta)**(-1/6) dt``; the 25-node
    rule sums ``I`` and, on the same nodes, ``dI/dzeta``.  Valid for
    ``|ph z| <= 2*pi/3`` and ``|z| > SERIES_RADIUS``, in either half-plane
    (it is exactly conjugate-symmetric).  For
    ``|ph zeta| > pi/2`` the path turns by ``theta`` away from the
    singularity at ``t = -2 zeta``: ``t = s (1 + i tan theta)`` keeps the
    weight ``exp(-s) s**(-1/6)`` and adds the factor ``exp(-i s tan theta)``.
    """
    # From atan2, not the phase of zeta, which wraps to -pi on the 2*pi/3 ray.
    phase = 1.5 * math.atan2(z.imag, z.real)
    try:
        modulus = (2.0 / 3.0) * abs(z) ** 1.5
    except OverflowError:  # |z| above about 3e205
        modulus = math.inf
    if modulus > _ZETA_CAP:
        # Inside |ph z| < pi/3, Re zeta > 1e-16 |zeta| and Ai, Ai' underflow
        # to 0; the rule's zeta * zeta would overflow into a NaN derivative.
        # 1.5 * atan2 rounds to pi/2 on both sides of the pi/3 ray, on which
        # no double lies: there the side is decided exactly.  Either way
        # |Re zeta| is far beyond the exponent range.
        if abs(phase) == _HALF_PI and Fraction(z.imag) ** 2 >= 3 * Fraction(z.real) ** 2:
            raise OverflowError(f"Ai: exp(-zeta) overflows at z = {z!r}")
        if abs(phase) <= _HALF_PI:
            return ScorerResult(0j, "integral", _UNDERFLOW_BAR, _NODES.size, True, 0j)
        if modulus == math.inf:
            raise OverflowError(f"Ai: zeta = (2/3) z**1.5 overflows at |z| = {abs(z):.3g}")
    zeta = cmath.rect(modulus, phase)
    tan = 0.0
    if abs(phase) > _HALF_PI:
        tan = math.tan(math.copysign(0.5 * (abs(phase) - _HALF_PI), phase))
    tilt = complex(1.0, tan)
    q = 2.0 + (tilt / zeta) * _NODES
    g = np.power(q, -1.0 / 6.0)
    if tan:
        g *= np.exp((-1j * tan) * _NODES)
    # The turned path's dt and t**(-1/6) give tilt**(5/6); dI/dzeta has one
    # more factor t.
    scale = tilt ** (5.0 / 6.0)
    s0 = scale * complex(g.dot(_WEIGHTS))
    s1 = scale * tilt * complex((g / q).dot(_WEIGHTS_NODES))
    # exp(-zeta) zeta**(-1/6) as one exponential.
    pref = _LAPLACE_NORM * cmath.exp(
        complex(-zeta.real - math.log(modulus) / 6.0, -zeta.imag - phase / 6.0)
    )
    value = pref * s0
    ds = s1 / (6.0 * zeta * zeta) - (1.0 + 1.0 / (6.0 * zeta)) * s0
    # The rounding of exp(-zeta) dominates: the relative error of zeta
    # becomes an absolute error of the exponent.  The coefficient of |zeta|
    # also covers a rotated argument z e^{+-2 pi i/3}, whose rounding moves
    # zeta by 1.5 |zeta| times its relative error.
    err = _EPS * (6.0 * modulus + 8.0) * abs(value)
    if err < _UNDERFLOW_BAR:  # gradual underflow: absolute roundings dominate
        err = _UNDERFLOW_BAR
    return ScorerResult(value, "integral", err, _NODES.size, True, pref * cmath.sqrt(z) * ds)


def _ai_rotated_pair(z: complex) -> tuple[ScorerResult, ScorerResult]:
    """Ai at ``z e^{2 pi i/3}`` and at ``z e^{-2 pi i/3}``, both by the rule,
    for ``z`` beyond the series disc with both arguments in the principal
    sector.  On the real axis they are exact conjugates: one rule
    evaluation serves both and is counted once."""
    a_plus = _ai_laguerre(z * _ROT_PLUS)
    if z.imag == 0.0:
        a_minus = ScorerResult(
            a_plus.value.conjugate(), a_plus.method, a_plus.abs_error_estimate,
            0, a_plus.converged, a_plus.derivative.conjugate(),
        )
    else:
        a_minus = _ai_laguerre(z * _ROT_MINUS)
    return a_plus, a_minus


def _ai_info(z: complex) -> ScorerResult:
    """Dispatch Ai by region."""
    z = require_finite(z)
    if abs(z) <= SERIES_RADIUS:
        return _maclaurin(z, AI_ZERO, AIP_ZERO)
    # abs: the lower half-plane, and the negative axis with a -0.0 imaginary part.
    if abs(cmath.phase(z)) > _ROTATION_EDGE:
        # One rotation lands both arguments inside the principal sector.
        a_plus, a_minus = _ai_rotated_pair(z)
        deriv = -_ROT_PLUS * a_minus.derivative - _ROT_MINUS * a_plus.derivative
        return combine("rotation", [(-_ROT_MINUS, a_minus), (-_ROT_PLUS, a_plus)], deriv)
    return _ai_laguerre(z)


def ai_complex(z: complex) -> ScorerResult:
    """Ai(z), with Ai'(z) as ``derivative``, anywhere in the complex plane.

    Inside ``|ph z| < pi/3`` beyond ``|z|`` of about 1e100, where both
    underflow, they are returned as 0.  The error bar is never below
    ``4 * 2**-1074``, which covers the roundings of a subnormal value.  Raises
    :class:`~scorerlib.contour.DomainError` for NaN or infinite ``z``, and
    ``OverflowError`` where a value, its derivative or an intermediate
    leaves the double range.  Near the top of that range Ai', about
    ``sqrt(z)`` times Ai, overflows first, into NaN parts; the check sits
    here, not in the dispatcher, because Gi's rotation uses the finite Ai.
    Ai' carries no error bar: ``abs_error_estimate`` bounds the value only.
    """
    result = _ai_info(z)
    if not cmath.isfinite(result.derivative):
        raise OverflowError(f"Ai: the derivative overflows at z = {z!r}")
    return result


def _bi_info(z: complex) -> ScorerResult:
    """Dispatch Bi by region: two principal-sector Ai values beyond the
    series disc."""
    z = require_finite(z)
    if abs(z) <= SERIES_RADIUS:
        return _maclaurin(z, BI_ZERO, BIP_ZERO)
    if z.imag == 0.0 or abs(cmath.phase(z)) > _ROTATION_EDGE:
        # e^{i pi/6} Ai(z e^{2 pi i/3}) + e^{-i pi/6} Ai(z e^{-2 pi i/3}):
        # exact conjugate terms on the real axis, so Bi(x) stays real.
        a_plus, a_minus = _ai_rotated_pair(z)
        deriv = _ROT5 * a_plus.derivative + _ROT5.conjugate() * a_minus.derivative
        return combine("rotation_pair", [(_ROT1, a_plus), (_ROT1.conjugate(), a_minus)], deriv)
    # i Ai(z) + 2 e^{-i pi/6} Ai(z e^{-2 pi i/3}) on 0 < ph z <= 2 pi/3, where
    # z e^{2 pi i/3} would leave the sector; below the axis its conjugate, by
    # the conjugate constants (1j.conjugate(): -1j has the real part -0.0).
    if z.imag > 0.0:
        i, rot, c1, c5 = 1j, _ROT_MINUS, _ROT1.conjugate(), _ROT5.conjugate()
    else:
        i, rot, c1, c5 = 1j.conjugate(), _ROT_PLUS, _ROT1, _ROT5
    a = _ai_laguerre(z)
    a_rot = _ai_laguerre(z * rot)
    deriv = i * a.derivative + 2.0 * c5 * a_rot.derivative
    return combine("rotation_pair", [(i, a), (2.0 * c1, a_rot)], deriv)


def bi_complex(z: complex) -> ScorerResult:
    """Bi(z), with Bi'(z) as ``derivative``, anywhere in the complex plane.

    Raises :class:`~scorerlib.contour.DomainError` for NaN or infinite ``z``,
    and ``OverflowError`` where a value, its derivative or an intermediate
    leaves the double range (Bi' first, as for :func:`ai_complex`).  Bi'
    carries no error bar: ``abs_error_estimate`` bounds the value only.
    """
    result = _bi_info(z)
    if not cmath.isfinite(result.derivative):
        raise OverflowError(f"Bi: the derivative overflows at z = {z!r}")
    return result
