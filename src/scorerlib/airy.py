"""Complex Airy functions Ai and Bi with first derivatives.

Evaluation is dispatched by region: a Maclaurin series near the origin, a
fixed 40-node Gauss-Laguerre rule on the non-oscillating Laplace form of Ai
everywhere else in the principal sector ``|ph z| <= 2*pi/3``, and a
one-step three-solution rotation identity that connects the principal
sector to the rest of the plane.  Bi beyond the series disc combines two
principal-sector Ai values (route ``rotation_pair``, two rule evaluations):

* on ``0 < ph z <= 2*pi/3``, ``Bi = i Ai(z) + 2 e^{-i pi/6} Ai(z e^{-2 pi i/3})``
  (DLMF 9.2.11 with 9.2.10, the split of ACM TOMS Algorithm 819), where
  ``z e^{2 pi i/3}`` would leave the sector.  Nothing cancels: below
  ``pi/3`` Ai(z) is recessive and the rotated term dominates, above it the
  reverse;
* beyond ``2*pi/3`` and on the real axis,
  ``Bi = e^{i pi/6} Ai(z e^{2 pi i/3}) + e^{-i pi/6} Ai(z e^{-2 pi i/3})``.
  Nothing cancels, because the two terms carry conjugate-direction
  exponentials; on the axis they are exact conjugates, so Bi(x) comes out
  exactly real, where the first formula would leave a rounding residue in
  its imaginary part.

The lower half-plane is served by conjugation, which also makes conjugate
symmetry exact in floating point.  Every evaluation returns a
:class:`~scorerlib.contour.ScorerResult` that carries the derivative
alongside the value.

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
    "ai_maclaurin",
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
_HALF_PI = 0.5 * math.pi

# The generalized Gauss-Laguerre rule for exp(-t) t**(-1/6) on [0, inf),
# 40 nodes, ascending; printed by tools/laguerre_rule.py.
_NODES = np.array([
    0.028389141799456768, 0.17098537886003493, 0.4358716783417705,
    0.8235182579130309, 1.3345254325422737, 1.9696829320643507,
    2.7299813400285995, 3.616621619161009, 4.631026110526541,
    5.774851718305477, 7.050005686302187, 8.458664375132377,
    10.00329552427494, 11.686684594772242, 13.511965934469355,
    15.482659695937715, 17.602715680806913, 19.876565602278546,
    22.30918567739628, 24.906172021297422, 27.67383207394972,
    30.619296329508412, 33.750656085024, 37.07713497083912,
    40.609304969434135, 44.35936195160668, 48.34148224345282,
    52.572291707850496, 57.07149458398093, 61.86273503855476,
    66.97480787736505, 72.44341162998353, 78.31377964843566,
    84.64480548222755, 91.51587398018528, 99.0389948551728,
    107.38247629566553, 116.8236917656583, 127.89374484316458,
    141.96078859906348,
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
    4.533903748150563e-18, 1.1154798045203585e-19, 2.177666605892262e-21,
    3.318788910579756e-23, 3.872847904397466e-25, 3.381185924262449e-27,
    2.1469906189326257e-29, 9.574538399305471e-32, 2.8687783450264734e-34,
    5.452034672917572e-37, 6.0821280065410676e-40, 3.571351222207245e-43,
    9.375169717620775e-47, 8.418177761921027e-51, 1.5547776242720715e-55,
    1.6257265818523536e-61,
])
_WEIGHTS_NODES = _WEIGHTS * _NODES
#: Above this |zeta| (|z| above about 1.3e100) the rule is not evaluated
#: inside |ph z| < pi/3, where Ai and Ai' underflow to 0.
_ZETA_CAP = 1e150
#: 1 / (sqrt(pi) 48**(1/6) Gamma(5/6)), the Laplace form's normalization.
_LAPLACE_NORM = 1.0 / (math.sqrt(math.pi) * 48.0 ** (1.0 / 6.0) * math.gamma(5.0 / 6.0))


def _maclaurin(z: complex, c0: float, c1: float) -> ScorerResult:
    """The Airy solution with value ``c0`` and slope ``c1`` at the origin,
    and its derivative, from the Maclaurin series.

    It is ``c0 f + c1 g``, where ``f = 1 + z**3/6 + ...`` and
    ``g = z + z**4/12 + ...`` solve w'' = z w with (value, slope) seeds
    (1, 0) and (0, 1).  The error bar is 4 eps times the sum of the term
    magnitudes of f and g times ``max(|c0|, |c1|)``.
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
    return ScorerResult(
        c0 * f + c1 * g,
        "series",
        4.0 * _EPS * term_abs * max(abs(c0), abs(c1)),
        0,
        derivative=c0 * fp + c1 * gp,
    )


def ai_maclaurin(z: complex) -> ScorerResult:
    """Ai and Ai' from the Maclaurin series.

    Accurate to roughly ``eps * exp((4/3)|z|**1.5)`` relative near the
    positive real axis, so intended for ``|z| <= SERIES_RADIUS``; converges
    (slowly, with cancellation) for any argument.
    """
    return _maclaurin(z, AI_ZERO, AIP_ZERO)


def _ai_laguerre(z: complex) -> ScorerResult:
    """Ai and Ai' from the non-oscillating Laplace form, by the fixed rule.

    ``Ai(z) = exp(-zeta) zeta**(-1/6) / (sqrt(pi) 48**(1/6) Gamma(5/6)) * I``
    with ``zeta = (2/3) z**1.5`` and
    ``I = int_0^inf exp(-t) t**(-1/6) (2 + t/zeta)**(-1/6) dt``; the 40-node
    rule sums ``I`` and, on the same nodes, ``dI/dzeta``.  Valid for
    ``|ph z| <= 2*pi/3`` and ``|z| > SERIES_RADIUS``.  For
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
            return ScorerResult(0j, "integral", 0.0, _NODES.size, True, 0j)
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
    return ScorerResult(value, "integral", err, _NODES.size, True, pref * cmath.sqrt(z) * ds)


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
        deriv = -_ROT_PLUS * a_minus.derivative - _ROT_MINUS * a_plus.derivative
        return combine("rotation", [(-_ROT_MINUS, a_minus), (-_ROT_PLUS, a_plus)], deriv)
    return _ai_laguerre(z)


def ai_complex(z: complex) -> ScorerResult:
    """Ai(z), with Ai'(z) as ``derivative``, anywhere in the complex plane.

    Inside ``|ph z| < pi/3`` beyond ``|z|`` of about 1e100, where both
    underflow, they are returned as 0 with a zero error bar.  Raises
    :class:`~scorerlib.contour.DomainError` for NaN or infinite ``z``, and
    ``OverflowError`` where a value or an intermediate leaves the double
    range.
    """
    return _ai_info(z)


def _bi_info(z: complex) -> ScorerResult:
    """Dispatch Bi by region: two principal-sector Ai values beyond the
    series disc."""
    z = require_finite(z)
    if z.imag < 0.0:
        return _bi_info(z.conjugate()).conjugate()
    if abs(z) <= SERIES_RADIUS:
        return _maclaurin(z, BI_ZERO, BIP_ZERO)
    a_minus = _ai_info(z * _ROT_MINUS)
    # The same tolerance as _ai_info's, so Ai(z) below never rotates.
    if z.imag == 0.0 or cmath.phase(z) > _TWO_THIRDS_PI + 1e-15:
        # e^{i pi/6} Ai(z e^{2 pi i/3}) + e^{-i pi/6} Ai(z e^{-2 pi i/3}):
        # exact conjugate terms on the real axis, so Bi(x) stays real.
        a_plus = _ai_info(z * _ROT_PLUS)
        deriv = _ROT5 * a_plus.derivative + _ROT5.conjugate() * a_minus.derivative
        return combine("rotation_pair", [(_ROT1, a_plus), (_ROT1.conjugate(), a_minus)], deriv)
    # i Ai(z) + 2 e^{-i pi/6} Ai(z e^{-2 pi i/3}) on 0 < ph z <= 2 pi/3, where
    # z e^{2 pi i/3} would leave the sector.  Nothing cancels: below pi/3
    # Ai(z) is recessive and the rotated term dominates, above it the reverse.
    a = _ai_info(z)
    deriv = 1j * a.derivative + 2.0 * _ROT5.conjugate() * a_minus.derivative
    return combine("rotation_pair", [(1j, a), (2.0 * _ROT1.conjugate(), a_minus)], deriv)


def bi_complex(z: complex) -> ScorerResult:
    """Bi(z), with Bi'(z) as ``derivative``, anywhere in the complex plane.

    Raises :class:`~scorerlib.contour.DomainError` for NaN or infinite ``z``.
    """
    return _bi_info(z)
