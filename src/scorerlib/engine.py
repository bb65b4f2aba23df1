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
* the paper's one function in one sector: Hi by its growing kernel
  ``exp(zt - t**3/3)`` on the descent contour, phases in ``[2pi/3, pi]``,
  summed by the smallest rung of a ladder of fixed Gauss-Laguerre rules
  (60, 240 and 960 nodes, truncated to 32, 65 or 131) in the Laplace
  variable whose error model ``exp(-(3.5 sqrt(n) rho + 0.8 Re sigma*))``
  meets about 1.6e-12 given a saddle distance ``rho >= 0.15`` (see
  :func:`_laplace_rung`), and next to the Stokes ray, where no rung
  serves, by a fixed 96-node rule split at the saddle (see
  :func:`_saddle_sum`); both rules take the contour's slope at each node
  from Cardano's root in closed form, with no root finding;
* on ``0 <= ph z < 2pi/3`` the rotation connections, which take Hi at
  ``z e^{2i pi/3}`` in that sector (after conjugating) plus one Airy term:
  Gi and Hi each cost one contour, and a pair shares it; on the positive
  real axis that contour lies on the Stokes ray;
* ``Gi + Hi = Bi`` for Gi on ``[2pi/3, pi]``;
* conjugation serves the lower half-plane exactly; it happens once, at
  the entry, and everything below it sees the closed upper half-plane.
  On the real axis the entry keeps the real part of each value.

Three straight-line functions make every routing decision for ``gi``,
``hi`` and ``gi_hi_pair``: :func:`_gated` tries the series and asymptotic
gates, and :func:`_single` and :func:`_pair` evaluate the sector Hi, one Hi
value on ``[2pi/3, pi]``, at most once per call wherever no gate serves.
The route tag is named only where a representation builds its result; the
Hi values inside the rotation formulas are ``hi``'s own.  Every result
reports the route taken, an error estimate, the exact number of integrand
evaluations spent, and whether every contributing quadrature converged.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections.abc import Iterable, Iterator

import numpy as np

from . import airy as _airy
from . import integrals as _integrals
from .contour import RAY_TOL, DomainError, ScorerResult, combine, require_finite

# Not used here: the name stays because perfbench's tracer and ``micro()``
# patch ``engine.integrate_piecewise`` and stop when it is missing.
from .quadrature import integrate_piecewise  # noqa: F401

__all__ = [
    "GI_AT_ZERO",
    "GI_DERIV_AT_ZERO",
    "HI_AT_ZERO",
    "HI_DERIV_AT_ZERO",
    "ScorerResult",
    "gi",
    "gi_asymptotic",
    "gi_hi_pair",
    "gi_series",
    "hi",
    "hi_asymptotic",
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

# Values at the origin: Gi(0) = Bi(0)/3 = 1/(3**(7/6) Gamma(2/3)),
# Gi'(0) = Bi'(0)/3 = 1/(3**(5/6) Gamma(1/3)), and Hi takes twice each.
GI_AT_ZERO = 0.2049755424820002450503074563645378511982
GI_DERIV_AT_ZERO = 0.1494294524512754526382745701329427969554
HI_AT_ZERO = 0.4099510849640004901006149127290757023965
HI_DERIV_AT_ZERO = 0.2988589049025509052765491402658855939108


# Thresholds of the two gates of :func:`_gated`.  The series serves |z| up to
# _SERIES_RADIUS; the large-argument expansions are never used below
# _ASYMPTOTIC_RADIUS, sum at most _ASYMPTOTIC_MAX_TERMS corrections, and
# must reach a tenth of _TARGET_REL_ACCURACY.
_SERIES_RADIUS = 2.5
_ASYMPTOTIC_RADIUS = 15.0
_ASYMPTOTIC_MAX_TERMS = 10
_TARGET_REL_ACCURACY = 1e-10


# ---------------------------------------------------------------------------
# Series representation


#: Terms of each residue class in z**3: every omitted term is below 1e-20
#: at |z| = _SERIES_RADIUS.
_SERIES_TERMS = 15
#: Horner rows of the three residue classes, highest power of z**3 first.
_SERIES_ROWS = tuple(
    (1 / p, 1 / q, 1 / t)
    for p, q, t in reversed(list(zip(*_airy._maclaurin_denominators(_SERIES_TERMS))))
)


#: The seeds ``(c0, c1, c2)`` of Gi and Hi in :func:`_series_scorer`.
_GI_SEEDS = (GI_AT_ZERO, GI_DERIV_AT_ZERO, -0.5 / _PI)
_HI_SEEDS = (HI_AT_ZERO, HI_DERIV_AT_ZERO, 0.5 / _PI)


def _series_sums(z: complex) -> tuple:
    """The three residue classes of ``k`` of the series of
    :func:`_series_scorer`, summed in Horner form in ``z**3``, and the same
    sums at ``|z|``: ``(z, p, q, t, r, p_abs, q_abs, t_abs)``, ``r = |z|``.
    The sums do not depend on the seeds, so one pass serves Gi and Hi."""
    z3 = z * z * z
    r = abs(z)
    r3 = r * r * r
    p = q = t = 0j
    p_abs = q_abs = t_abs = 0.0
    for a, b, c in _SERIES_ROWS:
        p = p * z3 + a
        q = q * z3 + b
        t = t * z3 + c
        p_abs = p_abs * r3 + a
        q_abs = q_abs * r3 + b
        t_abs = t_abs * r3 + c
    return z, p, q, t, r, p_abs, q_abs, t_abs


def _series_scorer(sums: tuple, c0: float, c1: float, c2: float) -> ScorerResult:
    """Sum ``w = sum c_k z**k`` where ``(k+2)(k+1) c_{k+2} = c_{k-1}`` from
    :func:`_series_sums`' ``sums`` at ``z``.

    The seeds fix the solution of ``w'' - z w = 2*c2`` with value ``c0`` and
    slope ``c1`` at the origin; the three residue classes of ``k`` recur
    independently.  The error bar is 4 eps times the sum of the term
    magnitudes (the same sums at ``|z|``).
    """
    z, p, q, t, r, p_abs, q_abs, t_abs = sums
    total = c0 * p + c1 * (z * q) + c2 * (z * z * t)
    term_abs = abs(c0) * p_abs + abs(c1) * r * q_abs + abs(c2) * r * r * t_abs
    return ScorerResult(total, "series", 4.0 * _EPS * term_abs, 0)


def _check_series_radius(z: complex) -> None:
    if not abs(z) <= _SERIES_RADIUS:  # a NaN |z| fails too
        raise DomainError(f"series requires finite |z| <= {_SERIES_RADIUS} (cancellation beyond)")


def gi_series(z: complex) -> ScorerResult:
    """Gi by Maclaurin series; requires ``|z| <= 2.5``."""
    _check_series_radius(z)
    return _series_scorer(_series_sums(z), *_GI_SEEDS)


def hi_series(z: complex) -> ScorerResult:
    """Hi by Maclaurin series; requires ``|z| <= 2.5``."""
    _check_series_radius(z)
    return _series_scorer(_series_sums(z), *_HI_SEEDS)


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


def _truncated_sum(inv3: complex, n_terms: int) -> tuple[complex, float]:
    """The bracket ``1 + corrections`` of the large-argument expansions with
    exactly ``n_terms`` corrections, and its relative truncation bar.

    The bar is the optimal cut's (the corrections while they decrease, at
    most ``_ASYMPTOTIC_MAX_TERMS``, as :func:`_asymptotic_core` sums them
    without ``n_terms``) plus the magnitude of every correction between
    that cut and ``n_terms``: those omitted before the cut, or those added
    after it.  Raises ``ValueError`` where the sum is not finite: from the
    80th correction on the coefficient overflows.
    """
    power = inv3
    coeff = 2.0
    total = 1.0 + 0.0j
    smallest = math.inf
    between = 0.0
    cut_bar = None
    s = 0
    while s < n_terms or cut_bar is None:
        term = coeff * power
        size = abs(term)
        if cut_bar is None and (s == _ASYMPTOTIC_MAX_TERMS or size >= smallest):
            cut_bar = min(smallest, coeff * abs(power))
        elif cut_bar is None and size < smallest:
            smallest = size
        if s < n_terms:
            total += term
        if (s < n_terms) != (cut_bar is None):
            between += size
        coeff *= (3 * s + 4) * (3 * s + 5)
        power *= inv3
        s += 1
    if not cmath.isfinite(total):
        raise ValueError(f"large-argument expansion with {n_terms} terms is not finite")
    return total, cut_bar + between


def _asymptotic_core(z: complex, kind: str, n_terms: int | None) -> ScorerResult:
    r = abs(z)
    if not 0.0 < r < math.inf:
        raise DomainError("large-argument expansion requires finite nonzero z")
    if n_terms is not None and n_terms < 0:
        raise ValueError(f"n_terms must be nonnegative, got {n_terms}")
    # 1/z cubed underflows harmlessly where z cubed would overflow.
    w = 1.0 / z
    inv3 = w * w * w
    if 20.0 * abs(inv3) >= 1.0:
        warnings.warn(
            "large-argument expansion diverges from the first term at this |z|",
            RuntimeWarning,
            stacklevel=3,
        )
    if n_terms is None:
        power = inv3
        coeff = 2.0
        total = 1.0 + 0.0j
        smallest = math.inf
        for s in range(_ASYMPTOTIC_MAX_TERMS):
            term = coeff * power
            size = abs(term)
            if size >= smallest:
                break
            total += term
            if size < smallest:  # not for a NaN term, as min() skipped it
                smallest = size
            coeff *= (3 * s + 4) * (3 * s + 5)
            power *= inv3
        rel_trunc = min(smallest, coeff * abs(power))
    else:
        total, rel_trunc = _truncated_sum(inv3, n_terms)
    value = (-1.0 if kind == "hi" else 1.0) / (_PI * z) * total
    # Twice the calibrated neglected part and 8 eps of rounding leave the
    # bar a margin on the Stokes ray, where the switched-on term is largest.
    neglected = _neglected_exponential(r, abs(cmath.phase(z)), kind)
    err = abs(value) * (rel_trunc + 8.0 * _EPS + 2.0 * neglected)
    return ScorerResult(value, "asymptotic", err, 0)


def hi_asymptotic(z: complex, n_terms: int | None = None) -> ScorerResult:
    """Hi by its large-argument expansion ``-(1/(pi z)) (1 + corrections)``.

    Valid for phases of ``z`` between ``pi/3`` and ``pi`` in absolute value
    and large ``|z|``.  ``n_terms`` fixes the number of correction terms
    (``n_terms=3`` keeps contributions through ``1/z**10``); ``None``
    truncates optimally at the smallest term, or after
    ``_ASYMPTOTIC_MAX_TERMS`` corrections.  The error estimate includes the omitted
    exponentially small contribution; with ``n_terms`` it also covers every
    correction between ``n_terms`` and the optimal cut (see
    :func:`_truncated_sum`).  Raises ``ValueError`` for a negative
    ``n_terms`` or a sum that is not finite.
    """
    return _asymptotic_core(z, "hi", n_terms)


def gi_asymptotic(z: complex, n_terms: int | None = None) -> ScorerResult:
    """Gi by its large-argument expansion ``+(1/(pi z)) (1 + corrections)``.

    Valid for ``|phase(z)| < pi/3`` and large ``|z|``; the bracket, its
    ``n_terms``, its error estimate and its errors are the same as in the
    Hi expansion.
    """
    return _asymptotic_core(z, "gi", n_terms)


def _asymptotic_eligible(z: complex, kind: str) -> bool:
    """Gate: the radius, the expansion's sector, and the neglected
    exponentially small contribution (:func:`_neglected_exponential`) below
    a tenth of the accuracy target.  The smallest term needs no test: from
    ``_ASYMPTOTIC_RADIUS`` on, the sixth correction ``b_5 r**-18`` (8.3e-12
    at r = 15) is already below that tenth."""
    r = abs(z)
    if r < _ASYMPTOTIC_RADIUS:
        return False
    theta = abs(cmath.phase(z))
    if (theta < _PI / 3.0) if kind == "hi" else (theta > _PI / 3.0):
        return False
    return _neglected_exponential(r, theta, kind) <= 0.1 * _TARGET_REL_ACCURACY


# ---------------------------------------------------------------------------
# The contour integrals in the Laplace variable

# Gauss-Laguerre rules for exp(-t) on [0, inf) with 60, 240 and 960 nodes,
# each truncated to the nodes whose weight exceeds 1e-18 of its largest
# (32, 65 and 131 nodes, all below sigma = 45), ascending; printed by
# ``tools/laguerre_rule.py --n N --alpha 0 --cut 1e-18``.  The error bars
# of :func:`_laplace_sum` are those of the truncated rules.
_NODES_60 = np.array([
    0.023897977262724995, 0.12593471888169075, 0.3095789343267899,
    0.5749955420928052, 0.9223694821166638, 1.351938360008168,
    1.8639963442992056, 2.4588958438224284, 3.137049009785896,
    3.898929387204992, 4.745073800125889, 5.676084508246917,
    6.6926316627865745, 7.795456089031012, 8.985372425657657,
    10.263272655037909, 11.630130063841872, 13.087003679350245,
    14.635043234018347, 16.27549471920941, 18.009706598857115,
    19.839136765434034, 21.765360334373536, 23.79007838949418,
    25.9151278116049, 28.142492346079813, 30.47431509373951,
    32.91291264408037, 35.46079111232241, 38.12066439392713,
    40.89547501481293, 43.78841803594064,
])
_WEIGHTS_60 = np.array([
    0.05988361152373338, 0.12591096707540106, 0.16473078908210712,
    0.1723911873267475, 0.15442926800152204, 0.12180351302605123,
    0.0858079768798467, 0.05443536722648375, 0.03125278975222337,
    0.016290259047635154, 0.007724745660508857, 0.003336689494307682,
    0.0013138658634496516, 0.00047178872610582553, 0.0001545007363460515,
    4.613363029151373e-05, 1.2555541586433208e-05, 3.1126536116671386e-06,
    7.023892316922956e-07, 1.441394233872203e-07, 2.687115538247874e-08,
    4.5453240465711695e-09, 6.966746087053994e-10, 9.66111905164919e-11,
    1.2101372902012551e-11, 1.3666508971830879e-12, 1.3887583568740823e-13,
    1.2670440927349748e-14, 1.0354183850146324e-15, 7.55907205833705e-17,
    4.9160556832367865e-18, 2.839331595776198e-19,
])
_NODES_240 = np.array([
    0.006011636011913445, 0.0316752337141257, 0.07784716518715624,
    0.1445396551152024, 0.23175680561555448, 0.3395026394672028,
    0.4677818570936448, 0.616599978552511, 0.785963382269792,
    0.9758793189887318, 1.1863559183180499, 1.41740219276285,
    1.669028040862232, 1.9412442500473057, 2.234062499476296,
    2.547495362963574, 2.8815563120599172, 3.236259719314169,
    3.611620861733383, 4.007655924451938, 4.424382004616658,
    4.861817115493142, 5.319980190797477, 5.798891089257009,
    6.298570599403606, 6.8190404446026625, 7.360323288321195,
    7.922442739638326, 8.50542335900162, 9.109290664232802,
    9.734071136786532, 10.37979222826609, 11.046482367199912,
    11.734170966083164, 12.442888428688654, 13.172666157651593,
    13.923536562332899, 14.69553306696592, 15.488690119091672,
    16.30304319828786, 17.13862882519723, 17.99548457086093,
    18.87364906636285, 19.77316201279116, 20.694064191523395,
    21.636397474841875, 22.600204836886288, 23.585530364950728,
    24.592419271132595, 25.6209179043412, 26.67107376267407,
    27.74293550616934, 28.83655296994294, 29.951977177719577,
    31.089260355766815, 32.24845594724204, 33.42961862696232,
    34.63280431660762, 35.8580702003682, 37.1054747410475,
    38.3750776966321, 39.66694013734089, 40.981124463166104,
    42.317694421919136, 43.67671512779469,
])
_WEIGHTS_240 = np.array([
    0.015335363192492719, 0.03479394682883949, 0.052205034969636986,
    0.06659774117594006, 0.07731580177328595, 0.0840389960476494,
    0.0867849014110885, 0.08587285373846289, 0.08185771000944983,
    0.07544559281212171, 0.06740502640639187, 0.05848562935462083,
    0.04935345889051768, 0.04054806797276929, 0.03246223579076565,
    0.02534190950250015, 0.019301610488678057, 0.014349554155016788,
    0.010416872980248449, 0.007386300234042712, 0.005117077780923919,
    0.003464333786134584, 0.0022924649271464, 0.0014830008967582303,
    0.0009379855746258853, 0.0005801209941125527, 0.00035087541425808265,
    0.00020755687126040542, 0.00012008906869180516, 6.796409795102899e-05,
    3.762605134160887e-05, 2.037747009249893e-05, 1.0796440568410026e-05,
    5.59619482842702e-06, 2.83790219932655e-06, 1.40799925652884e-06,
    6.834608318390753e-07, 3.2458975155202844e-07, 1.5082308875470617e-07,
    6.856663962290428e-08, 3.049779582735392e-08, 1.3271855177922184e-08,
    5.650645289266935e-09, 2.3537590419701137e-09, 9.592163288479243e-10,
    3.824314577922063e-10, 1.4916395423416596e-10, 5.691635375075144e-11,
    2.124524738348293e-11, 7.757569891016518e-12, 2.770865627260669e-12,
    9.68092485668265e-13, 3.3083747527958976e-13, 1.1058417487238637e-13,
    3.6152206799462814e-14, 1.1559058513722291e-14, 3.6144096922149506e-15,
    1.1052491701142538e-15, 3.304994631762788e-16, 9.663803940135703e-17,
    2.7629340742754004e-17, 7.723523818364222e-18, 2.1108615117666866e-18,
    5.6400017632706915e-19, 1.473157527085126e-19,
])
_NODES_960 = np.array([
    0.0015052541533100738, 0.007931098889873953, 0.019491704854423274,
    0.03618967066921167, 0.05802535550858596, 0.08499889288316397,
    0.11711037996340204, 0.15435991286288014, 0.19674759601565392,
    0.2442735452956887, 0.29693788923112496, 0.3547407695358818,
    0.417682341364964, 0.4857627734468338, 0.5589822481567847,
    0.637340961560206, 0.7208391234396893, 0.8094769573130995,
    0.9032547004464289, 1.0021726038635614, 1.1062309323541852,
    1.2154299644805846, 1.3297699925837692, 1.449251322789223,
    1.5738742750124586, 1.7036391829644983, 1.838546394157362,
    1.9785962699096198, 2.1237891853520456, 2.274125529433401,
    2.4296057049263657, 2.5902301284336358, 2.7559992303941887,
    2.926913455089733, 3.1029732606513463, 3.2841791190663,
    3.470531516185081, 3.662030951728613, 3.858677939295671,
    4.060473006370504, 4.267416694330655, 4.479509558454987,
    4.696752167931915, 4.9191451058678375, 5.146688969295786,
    5.379384369184265, 5.6172319304463185, 5.860232291948788,
    6.108386106521786, 6.361694040968387, 6.620156776074511,
    6.88377500661903, 7.152549441384082, 7.426480803165595,
    7.705569828784022, 7.989817269095291, 8.279223889001962,
    8.573790467464601, 8.873517797513372, 9.178406686259828,
    9.48845795490893, 9.803672438771276, 10.124050987275547,
    10.449594463981159, 10.780303746591144, 11.116179726965244,
    11.457223311133214, 11.803435419308352, 12.154816985901242,
    12.51136895953372, 12.873092303053046, 13.23998799354632,
    13.612057022355089, 13.9893003950902, 14.371719131646854,
    14.759314266219896, 15.152086847319318, 15.550037937785994,
    15.953168614807625, 16.361479969934926, 16.774973109098013,
    17.19364915262305, 17.61750923524907, 18.04655450614509,
    18.480786128927395, 18.920205281677067, 19.364813156957762,
    19.81461096183369, 20.269599917887838, 20.72978126124042,
    21.195156242567556, 21.665726127120188, 22.14149219474322,
    22.622455739894907, 23.10861807166645, 23.599980513801857,
    24.09654440471802, 24.598311097525023, 25.105281960046714,
    25.61745837484148, 26.13484173922329, 26.65743346528295,
    27.185234979909623, 27.718247724812574, 28.256473156543162,
    28.79991274651707, 29.348567981036787, 29.902440361314316,
    30.461531403494156, 31.0258426386765, 31.595375612940686,
    32.170131887368925, 32.750113038070225, 33.33532065620462,
    33.925756348007596, 34.52142173481481, 35.12231845308705,
    35.728448154435405, 36.3398125056468, 36.95641318870962,
    37.57825190083977, 38.205330354506835, 38.837650277460604,
    39.47521341275781, 40.11802151878914, 40.76607636930647,
    41.41937975345043, 42.07793347577818, 42.74173935629147,
    43.410799230464946, 44.08511494927475,
])
_WEIGHTS_960 = np.array([
    0.003857158377385203, 0.008921229490205658, 0.013856447126297095,
    0.01858200306255931, 0.023028809831351558, 0.02713517609800745,
    0.030847848278701562, 0.034123079342386085, 0.03692741912724966,
    0.03923817538203656, 0.04104353555544202, 0.04234235770929052,
    0.043143652749478886, 0.04346579164136654, 0.04333548047669974,
    0.04278655298078185, 0.04185863413976056, 0.04059573006430383,
    0.03904479810108696, 0.03725434779760284, 0.03527311796397731,
    0.03314886818003597, 0.030927315135512275, 0.028651235649810806,
    0.026359749564581845, 0.024087787366761974, 0.021865739749939394,
    0.01971927965032918, 0.01766934180835854, 0.015732240729261035,
    0.013919905084218934, 0.012240205070284726, 0.010697348931841766,
    0.009292325588611637, 0.008023371930915783, 0.006886445628878079,
    0.005875687050646874, 0.004983856895367424, 0.004202739237164794,
    0.0035235026895950616, 0.002937015208550126, 0.002434110560105897,
    0.002005806624749306, 0.001643477457034944, 0.001338982362525541,
    0.0010847562062535933, 0.0008738657602670446, 0.0007000371754417148,
    0.0005576596752700681, 0.0004417703704223056, 0.0003480247356658404,
    0.0002726568250727903, 0.00021243277189136333, 0.0001646005639891104,
    0.0001268385352066098, 9.720449087997064e-05, 7.408690894941859e-05,
    5.6159237069069e-05, 4.2337946305518264e-05, 3.1744704411030665e-05,
    2.367279403669942e-05, 1.755771900882749e-05, 1.2951808803521148e-05,
    9.502540687117228e-06, 6.934243477378402e-06, 5.032819561452723e-06,
    3.633116236353183e-06, 2.60858788489183e-06, 1.8629120506672763e-06,
    1.323251062065762e-06, 9.348832287125507e-07, 6.5696129967128e-07,
    4.591890011860756e-07, 3.1923779790006864e-07, 2.2075474278092026e-07,
    1.518379599427682e-07, 1.0387878028265713e-07, 7.068886132354651e-08,
    4.7846944625476267e-08, 3.2213495551269895e-08, 2.1572634310583923e-08,
    1.4369822013003663e-08, 9.521022746285429e-09, 6.274814412834256e-09,
    4.113431198499797e-09, 2.6822212616003253e-09, 1.7396939745573912e-09,
    1.1223798033773093e-09, 7.202716648543594e-10, 4.5977255930255464e-10,
    2.9193130897997116e-10, 1.8437831582076126e-10, 1.158326901130916e-10,
    7.238442285979484e-11, 4.499375788648898e-11, 2.781973947525969e-11,
    1.7109917482013142e-11, 1.0467361498182354e-11, 6.3697345431177256e-12,
    3.855676267734165e-12, 2.3215347625428127e-12, 1.3904182816429092e-12,
    8.283456853901869e-13, 4.908782765947906e-13, 2.8935582026844e-13,
    1.696629328859725e-13, 9.895509413648093e-14, 5.740977612244138e-14,
    3.3130661491397615e-14, 1.9018266905354656e-14, 1.0859462777083431e-14,
    6.167970481004945e-15, 3.4847587834309553e-15, 1.958391741138059e-15,
    1.0947696020019175e-15, 6.087543579213061e-16, 3.367111403808678e-16,
    1.8525450298195546e-16, 1.0138547989921678e-16, 5.519226852206212e-17,
    2.988656480911141e-17, 1.6097883561925972e-17, 8.624944882284808e-18,
    4.596617417446076e-18, 2.4367701850995157e-18, 1.284945337741149e-18,
    6.739819500545155e-19, 3.516454960077024e-19, 1.8249655242454818e-19,
    9.420993340969684e-20, 4.837608902644807e-20,
])


#: A rung of n nodes serves a contour when its relative truncation bar
#: exp(-(_LAPLACE_RHO_DECAY sqrt(n) rho + _LAPLACE_HEIGHT_DECAY Re sigma*))
#: is at most exp(-_LAPLACE_REACH), about 1.6e-12: the 60-node bar at
#: rho = 1 ...
_LAPLACE_RHO_DECAY = 3.5
_LAPLACE_HEIGHT_DECAY = 0.8
_LAPLACE_REACH = _LAPLACE_RHO_DECAY * math.sqrt(60.0)
#: ... its saddle distance is at least this, which leaves the Stokes ray
#: (and, through the rotations, the positive real axis) to the saddle split
#: of :func:`_saddle_sum`: there rho is 0 up to rounding, the error falls
#: only algebraically in n, and on the ray the sum's root ends in the wrong
#: valley ...
_LAPLACE_MIN_RHO = 0.15
#: ... and |z| is at most this: beyond about 1.9e102 the cube of z overflows.
_LAPLACE_MAX_RADIUS = 1e100


class _Rung:
    """One rule of the ladder: its full size ``n``, its relative error
    decay ``3.5 sqrt(n)`` per unit of saddle distance, its kept nodes
    (with ``3 sigma / 2`` and that squared, for Cardano) and weights, and
    the weights halved, which :func:`_laplace_sum` dots."""

    # A plain slotted class: a dataclass would cost about 1.5 ms at import.
    __slots__ = ("n", "decay", "nodes", "half_3", "half_3_sq", "weights", "half_weights")

    def __init__(self, n: int, nodes: np.ndarray, weights: np.ndarray) -> None:
        self.n = n
        self.decay = _LAPLACE_RHO_DECAY * math.sqrt(n)
        self.nodes = nodes
        self.half_3 = 1.5 * nodes
        self.half_3_sq = self.half_3 * self.half_3
        self.weights = weights
        self.half_weights = 0.5 * weights


#: The ladder of rules, smallest first.
_LAPLACE_RUNGS = (
    _Rung(60, _NODES_60, _WEIGHTS_60),
    _Rung(240, _NODES_240, _WEIGHTS_240),
    _Rung(960, _NODES_960, _WEIGHTS_960),
)


def _saddle_geometry(z: complex) -> tuple[float, float, float]:
    """``|z|``, the saddle distance ``rho`` and the saddle height
    ``Re sigma*`` at ``z``, from one ``abs`` and one ``atan2``.

    ``rho = min |Re sqrt(-sigma_s)|`` over the two saddle values
    ``sigma_s = -+(2/3) z**1.5`` of the Laplace variable.  The Laplace
    integrand is analytic in ``sqrt(sigma)`` out to the nearer saddle, so
    the rule converges like ``exp(-c sqrt(N) rho)``, with
    ``rho = sqrt(2/3) |z|**0.75 min(|cos(3 theta/4)|, |sin(3 theta/4)|)``,
    ``theta = |ph z|``.  It tends to 0 where the descent contour meets its
    saddle, on the Stokes ray ``2*pi/3``, and is unchanged by the rotation
    ``z -> z e^{2i pi/3}`` followed by conjugation, which maps the positive
    real axis onto that ray.

    ``Re sigma* = (2/3) |z|**1.5 |cos(3 theta/2)|`` is the real part of
    the saddle value nearest the contour, equal to
    ``(2/3) |z|**1.5 - 2 rho**2``.  The saddle's contribution to the rule's
    error carries the weight ``exp(-Re sigma*)``.  It is 0 on the negative
    real axis and largest on the Stokes ray, where ``rho`` is 0.
    """
    r = abs(z)
    theta = abs(math.atan2(z.imag, z.real))
    shape = min(abs(math.cos(0.75 * theta)), abs(math.sin(0.75 * theta)))
    rho = math.sqrt(2.0 / 3.0) * r**0.75 * shape
    return r, rho, (2.0 / 3.0) * r * math.sqrt(r) * abs(math.cos(1.5 * theta))


def _laplace_rung(z: complex) -> tuple[_Rung, float] | None:
    """The smallest rung whose truncation bar ``exp(-exponent)``, with
    ``exponent = decay rho + 0.8 Re sigma*``, meets ``exp(-_LAPLACE_REACH)``
    at ``z``, and that exponent; None where no rung does, where ``rho`` is
    below ``_LAPLACE_MIN_RHO`` or where ``|z|`` exceeds
    ``_LAPLACE_MAX_RADIUS``.

    ``rho`` and ``Re sigma*`` are :func:`_saddle_geometry`'s.
    ``tools/laplace_gate.py`` re-derives the constants 3.5 and 0.8 and the
    floor against mpmath.
    """
    r, rho, height = _saddle_geometry(z)
    if r > _LAPLACE_MAX_RADIUS or rho < _LAPLACE_MIN_RHO:
        return None
    height *= _LAPLACE_HEIGHT_DECAY
    for rung in _LAPLACE_RUNGS:
        exponent = rung.decay * rho + height
        if exponent >= _LAPLACE_REACH:
            return rung, exponent
    return None


def _laplace_slopes(z: complex, rung: _Rung) -> np.ndarray:
    """Twice the slope ``dt/dsigma = 1 / (t**2 - z)`` of the contour at
    each node ``sigma`` of ``rung``, where ``t`` is the root of
    ``t**3 - 3 z t - 3 sigma = 0`` on the growing kernel's descent contour
    from the origin to ``+infinity`` (``2*pi/3 < ph z <= pi``).

    Cardano's roots are ``C w + z / (C w)``, ``w`` a cube root of unity,
    with ``C**3 = 3 sigma/2 + D`` and ``D = sqrt(9 sigma**2/4 - z**3)``:
    for ``sigma > 0`` the principal square root gives the larger
    ``|C**3|`` and keeps ``C**3`` in the right half-plane, so the
    principal ``C`` is continuous in ``sigma``.  ``w = 1`` then gives
    ``t = 0`` at ``sigma = 0`` and ``t ~ (3 sigma)**(1/3)`` as ``sigma``
    grows: the root nearest the positive real axis.  Picking that root by
    its argument instead fails beyond ``|z|`` of about 1e7, where the root
    near 0 cancels to rounding noise of size ``eps sqrt|z|``.

    ``dC/dsigma = C / (2 D)`` from ``C**3``, so the slope is
    ``(C - z/C) / (2 D)``: ``t`` itself is never formed, and nothing
    cancels the way ``t**2 - z`` does near the origin.
    """
    d = np.sqrt(rung.half_3_sq - z * z * z)
    c = np.power(rung.half_3 + d, 1.0 / 3.0)
    return (c - z / c) / d


def _laplace_sum(z: complex, rung: _Rung, exponent: float) -> ScorerResult:
    """``S(z) = int_0^inf exp(-sigma) dsigma / (t(sigma)**2 - z)`` by
    ``rung``'s truncated rule: the halved weights dotted with
    :func:`_laplace_slopes`.

    With ``z t - t**3/3 = -sigma`` this is the growing kernel's integral
    along its descent contour, ``pi Hi(z)``.
    The error bar is ``exp(-exponent)`` of truncation, the exponent from
    :func:`_laplace_rung`, plus 8 eps of rounding, both relative.  Against
    mpmath on the 867 contour cells of ``tools/laplace_gate.py``
    (``|z|`` up to 1000, dense just above the Stokes ray), a least-squares
    fit over every rung gave a log error of
    ``-4.0 sqrt(n) rho - 0.90 Re sigma*`` (largest residual 0.78), and
    every point the gate serves stayed below ``e**-1.9`` times its bar.
    Tagged ``laplace``; ``n_evaluations`` is the rung's kept node count.
    """
    value = complex(_laplace_slopes(z, rung).dot(rung.half_weights))
    err = abs(value) * (math.exp(-exponent) + 8.0 * _EPS)
    return ScorerResult(value, "laplace", err, rung.nodes.size)


# ---------------------------------------------------------------------------
# The contour integral split at its saddle

# Where no rung qualifies, the contour runs into (or close by) the saddle
# t_s = sqrt(z), and :func:`_saddle_sum` splits it there: a 32-node
# Gauss-Legendre rule on [0, 1] for the segment from 0 to t_s, and 16-node
# generalized Gauss-Laguerre rules with alpha = -1/2 and alpha = 0 for the
# even and odd parts of the saddle's descent branch; printed by
# ``tools/laguerre_rule.py --n 32 --legendre --tag SEGMENT``,
# ``--n 16 --alpha=-1/2 --tag SADDLE_EVEN`` and ``--n 16 --alpha 0 --tag
# SADDLE_ODD``.
_NODES_SEGMENT = np.array([
    0.0013680690752592183, 0.007194244227365833, 0.017618872206246784,
    0.03254696203113015, 0.05183942211697394, 0.07531619313371501,
    0.1027581020160288, 0.13390894062985517, 0.1684778665348924,
    0.20614212137961885, 0.2465500455338853, 0.2893243619346823,
    0.33406569885893617, 0.38035631887393145, 0.42776401920860174,
    0.4758461671561308, 0.5241538328438692, 0.5722359807913983,
    0.6196436811260685, 0.6659343011410638, 0.7106756380653176,
    0.7534499544661147, 0.7938578786203812, 0.8315221334651076,
    0.8660910593701449, 0.8972418979839712, 0.9246838068662849,
    0.9481605778830261, 0.9674530379688698, 0.9823811277937532,
    0.9928057557726342, 0.9986319309247408,
])
_WEIGHTS_SEGMENT = np.array([
    0.003509305004735048, 0.008137197365452835, 0.01269603265463103,
    0.017136931456510716, 0.02141794901111334, 0.025499029631188087,
    0.029342046739267772, 0.032911111388180925, 0.03617289705442425,
    0.039096947893535156, 0.041655962113473374, 0.043826046502201906,
    0.045586939347881945, 0.04692219954040228, 0.04781936003963743,
    0.0482700442573639, 0.0482700442573639, 0.04781936003963743,
    0.04692219954040228, 0.045586939347881945, 0.043826046502201906,
    0.041655962113473374, 0.039096947893535156, 0.03617289705442425,
    0.032911111388180925, 0.029342046739267772, 0.025499029631188087,
    0.02141794901111334, 0.017136931456510716, 0.01269603265463103,
    0.008137197365452835, 0.003509305004735048,
])
_NODES_SADDLE_EVEN = np.array([
    0.03796291457531346, 0.34220015601094766, 0.9535531553908655,
    1.8779315076960743, 3.1246010507021444, 4.706726707667587,
    6.642215179741444, 8.95500133772339, 11.677033673975957,
    14.85143134180125, 18.537743178606693, 22.82130069352521,
    27.831438211328678, 33.781970488226165, 41.0816665254912,
    50.77722387753708,
])
_WEIGHTS_SADDLE_EVEN = np.array([
    0.7504767051856048, 0.5549162846050598, 0.302539468153285,
    0.12091626191182522, 0.03510685766314686, 0.007309780653308856,
    0.001072536731055944, 0.00010833168123639965, 7.301170259124752e-06,
    3.148335585091188e-07, 8.197664329541793e-09, 1.1866582926793278e-10,
    8.430020422652895e-13, 2.3946880341856974e-15, 1.8463473073036585e-18,
    1.4621352854768325e-22,
])
_NODES_SADDLE_ODD = np.array([
    0.08764941047892784, 0.46269632891508083, 1.141057774831227,
    2.1292836450983805, 3.4370866338932067, 5.078018614549768,
    7.070338535048234, 9.438314336391938, 12.21422336886616,
    15.441527368781617, 19.180156856753136, 23.515905693991908,
    28.57872974288214, 34.58339870228662, 41.94045264768833,
    51.70116033954332,
])
_WEIGHTS_SADDLE_ODD = np.array([
    0.206151714957801, 0.3310578549508842, 0.26579577764421414,
    0.13629693429637754, 0.04732892869412522, 0.011299900080339454,
    0.0018490709435263109, 0.00020427191530827845, 1.4844586873981299e-05,
    6.828319330871199e-07, 1.8810248410796733e-08, 2.8623502429738814e-10,
    2.1270790332241028e-12, 6.297967002517868e-15, 5.050473700035513e-18,
    4.161462370372855e-22,
])

#: s - s**3/3 at the segment's nodes: the exponent z t - t**3/3 at
#: t = t_s s, over t_s**3.
_SEGMENT_EXPONENT = _NODES_SEGMENT - _NODES_SEGMENT**3 / 3.0
#: The descent branch's nodes u = v**2 (the even rule's, then the odd
#: rule's), once for each branch v = +-sqrt(u): 3u, and 3u/4 and
#: sqrt(3u/4) = (sqrt 3 / 2) |v| for the closed form of :func:`_saddle_sum`,
#: whose second half takes the branch -|v|.
_SADDLE_U = np.tile(np.concatenate([_NODES_SADDLE_EVEN, _NODES_SADDLE_ODD]), 2)
_SADDLE_U3 = 3.0 * _SADDLE_U
_SADDLE_U34 = 0.75 * _SADDLE_U
_SADDLE_V34 = np.sqrt(_SADDLE_U34)
_SADDLE_BELOW = np.arange(_SADDLE_U.size) >= _SADDLE_U.size // 2
#: The weights of (C - z/C) / P at those nodes, P = (sqrt 3 / 2) p: with
#: H(+-v) = (C - z/C) / (sqrt(3) P) the even part of H, (H+ + H-) / 2, and
#: the odd part over v, (H+ - H-) / (2v), are each integrated against
#: exp(-u) du / 2.
_SADDLE_WEIGHTS = np.concatenate([
    _WEIGHTS_SADDLE_EVEN, _WEIGHTS_SADDLE_ODD / np.sqrt(_NODES_SADDLE_ODD),
    _WEIGHTS_SADDLE_EVEN, -_WEIGHTS_SADDLE_ODD / np.sqrt(_NODES_SADDLE_ODD),
]) / (4.0 * math.sqrt(3.0))
#: 96: the segment's 32 nodes and the branch's 2 x 2 x 16.
_SADDLE_EVALUATIONS = _NODES_SEGMENT.size + _SADDLE_U.size
#: The largest residual of the cubic that a node may keep, relative to the
#: size of its right-hand side, 3 |sigma_s| + 3u: rounding leaves at most
#: 13 eps of it on the whole cell up to |z| = 20 (40,000 seeded points).
_SADDLE_RESIDUAL = 64.0 * _EPS
#: The relative truncation bar is exp(-_SADDLE_DECAY g), g = Re sqrt(2 sigma_s)
#: the distance in v of the other saddle from the path, plus 8 eps of
#: rounding.
_SADDLE_DECAY = 14.0
#: The split serves |z| up to this: the segment rule's truncation passes
#: 1e-15 near |z| = 21 (its exponent grows like |z|**1.5).  The router
#: sends it no |z| >= 15, where Hi's large-argument expansion serves the
#: whole sector.
_SADDLE_MAX_RADIUS = 20.0


def _saddle_sum(z: complex) -> ScorerResult | None:
    """``S(z)`` of :func:`_laplace_sum`, the contour split at the saddle
    ``t_s = sqrt(z)``, whose value ``sigma_s = -(2/3) t_s**3`` has
    ``Re sigma_s >= 0`` on the cell ``2*pi/3 - RAY_TOL <= ph z <= pi``
    (``ph sigma_s = 3 (ph z - 2*pi/3) / 2``):

    * the segment from 0 to ``t_s``, ``t_s int_0^1 exp(t_s**3 (s - s**3/3)) ds``,
      whose integrand is entire;
    * the saddle's descent branch into the valley of ``+infinity``,
      ``exp(-sigma_s) int_0^inf exp(-v**2) H(v) dv`` with ``H = dt/dv``
      on ``sigma = sigma_s + v**2``; H is analytic in ``v`` out to the
      other saddle, ``v**2 = -2 sigma_s``, off the path.

    The branch is Cardano's root in closed form.  With ``u = v**2`` and
    ``p = sqrt(2 sigma_s + u)``, ``9 sigma**2/4 - z**3 = (3/2 v p)**2`` and
    ``C**3 = (3/4) (p + v)**2``; ``p - v`` is taken as
    ``2 sigma_s / (p + v)``, so nothing cancels.  On the whole cell both
    ``p + v`` and ``p - v`` lie in the right half-plane, so the principal
    ``C = ((sqrt 3 / 2) (p +- v))**(2/3)`` is continuous in ``v``, and
    both branches pass through ``t_s`` at ``v = 0``.  Then
    ``H(+-v) = 2 (C - z/C) / (3p)``, with no division by ``v``.

    The error bar is ``exp(-_SADDLE_DECAY g)`` of truncation,
    ``g = Re sqrt(2 sigma_s)``, plus 8 eps of rounding, both relative;
    ``tools/laplace_gate.py`` fits it against mpmath.  None where some
    node's ``t = C + z/C`` leaves a residual of its cubic,
    ``t**3 - 3 z t - 3 sigma_s - 3u``, above ``_SADDLE_RESIDUAL`` of
    ``3 |sigma_s| + 3u`` (or a NaN): no value is better than a wrong one.
    Tagged ``saddle``; ``n_evaluations`` is the 96 nodes.
    """
    ts = np.complex128(cmath.sqrt(z))
    ts3 = ts * ts * ts
    segment = ts * np.exp(ts3 * _SEGMENT_EXPONENT).dot(_WEIGHTS_SEGMENT)
    # P = (sqrt 3 / 2) p and B = (sqrt 3 / 2) (p +- v), so that C = B**(2/3);
    # 3 sigma_s / 2 = -t_s**3 = P**2 - (3/4) u, and the lower B is that over
    # the upper one.
    p = np.sqrt(_SADDLE_U34 - ts3)
    c = p + _SADDLE_V34
    np.divide(-ts3, c, out=c, where=_SADDLE_BELOW)
    c = np.power(c, 2.0 / 3.0)
    zc = z / c
    # t**3 - 3 z t - 3 sigma_s = (t - t_s)**2 (t + 2 t_s) at t = C + z/C.
    x = c + (zc - ts)
    residual = x * x * (x + 3.0 * ts) - _SADDLE_U3
    bound = _SADDLE_RESIDUAL * (_SADDLE_U3 + 2.0 * abs(ts3))
    if not (np.abs(residual) <= bound).all():
        return None
    branch = np.exp(ts3 * (2.0 / 3.0)) * ((c - zc) / p).dot(_SADDLE_WEIGHTS)
    value = complex(segment + branch)
    gap = cmath.sqrt(ts3 * (-4.0 / 3.0)).real
    err = abs(value) * (math.exp(-_SADDLE_DECAY * gap) + 8.0 * _EPS)
    return ScorerResult(value, "saddle", err, _SADDLE_EVALUATIONS)


def _hi_contour(z: complex) -> ScorerResult:
    """Hi on the descent contour of ``integrals.hi_integral_principal``,
    ``Hi(z) = S(z) / pi``: by the Laplace rule (``hi_laplace``) where
    :func:`_laplace_rung` finds a rung; elsewhere, next to the Stokes ray,
    split at the saddle (``hi_saddle``, :func:`_saddle_sum`, 96
    evaluations) up to ``|z| = _SADDLE_MAX_RADIUS``; and by that adaptive
    quadrature where neither serves (or a root of the split misses its
    cubic)."""
    chosen = _laplace_rung(z)
    if chosen is not None:
        return combine("hi_laplace", [(1.0 / _PI, _laplace_sum(z, *chosen))])
    split = _saddle_sum(z) if abs(z) <= _SADDLE_MAX_RADIUS else None
    if split is None:
        return _integrals.hi_integral_principal(z)
    return combine("hi_saddle", [(1.0 / _PI, split)])


# ---------------------------------------------------------------------------
# Rotation connections


def _hi_from_rotated(z: complex, inner: ScorerResult) -> ScorerResult:
    """Hi by the one-step rotation connection

    ``Hi(z) = e^{2i pi/3} Hi(z e^{2i pi/3}) + 2 e^{-i pi/6} Ai(z e^{-2i pi/3})``

    given ``inner = Hi(z e^{2i pi/3})``.  For phases from 0 up to
    ``2*pi/3`` the rotated argument, or its conjugate, lies in
    ``[2*pi/3, pi]``, where ``hi`` takes its descent contour (or a gate's
    shortcut) and Hi is algebraic; the Airy term is recessive above
    ``pi/3`` and dominant below, so nothing cancels.
    """
    ai = _airy._ai_info(z * _ROT_DOWN)
    return combine("hi_rotation", [(_ROT_UP, inner), (_TWO_ROT_SIXTH, ai)])


def _gi_from_rotated(z: complex, inner: ScorerResult) -> ScorerResult:
    """``Gi(z) = -e^{2i pi/3} Hi(z e^{2i pi/3}) + i Ai(z)`` given ``inner``,
    the rotated Hi: valid for every ``z`` by the Hi connection of
    :func:`_hi_from_rotated` and ``Gi + Hi = Bi``, since
    ``Bi(z) = i Ai(z) + 2 e^{-i pi/6} Ai(z e^{-2i pi/3})``.  On
    ``0 <= ph z < 2*pi/3`` ``inner`` is algebraic and ``i Ai(z)``
    recessive below ``pi/3``, dominant above: nothing cancels."""
    return combine("gi_rotation", [(-_ROT_UP, inner), (1j, _airy._ai_info(z))])


def _bi_complement(z: complex, h: ScorerResult) -> ScorerResult:
    """Gi at ``z`` from Hi there, ``h``, by ``Gi + Hi = Bi``."""
    return combine("bi_identity", [(1.0, _airy._bi_info(z)), (-1.0, h)])


# ---------------------------------------------------------------------------
# Routing.  The per-call path builds no comprehension, generator or dict
# (they cost about 4% of plane throughput) and looks its helpers up as
# module globals on each call.


def _gated(z: complex, fn: str) -> ScorerResult | None:
    """``fn`` ("gi" or "hi") at ``z`` by the series for ``|z| <= 2.5``, by
    the large-argument expansion where :func:`_asymptotic_eligible` admits
    it, and otherwise None."""
    if abs(z) <= _SERIES_RADIUS:
        return gi_series(z) if fn == "gi" else hi_series(z)
    if _asymptotic_eligible(z, fn):
        return gi_asymptotic(z) if fn == "gi" else hi_asymptotic(z)
    return None


def _single(z: complex, fn: str) -> ScorerResult:
    """``fn`` ("gi" or "hi") at ``z`` (closed upper half-plane)."""
    result = _gated(z, fn)
    if result is not None:
        return result
    if cmath.phase(z) < _TWO_THIRDS_PI - RAY_TOL:
        inner = hi(z * _ROT_UP)
        return _gi_from_rotated(z, inner) if fn == "gi" else _hi_from_rotated(z, inner)
    if fn == "hi":
        return _hi_contour(z)
    h = _gated(z, "hi")
    return _bi_complement(z, _hi_contour(z) if h is None else h)


def _pair(z: complex) -> tuple[ScorerResult, ScorerResult]:
    """Gi and Hi at ``z`` (closed upper half-plane), sharing the series' sums
    or the sector Hi."""
    if abs(z) <= _SERIES_RADIUS:
        sums = _series_sums(z)
        return _series_scorer(sums, *_GI_SEEDS), _series_scorer(sums, *_HI_SEEDS)
    g, h = _gated(z, "gi"), _gated(z, "hi")
    if g is not None and h is not None:
        return g, h
    if cmath.phase(z) < _TWO_THIRDS_PI - RAY_TOL:
        inner = hi(z * _ROT_UP)
        return (_gi_from_rotated(z, inner) if g is None else g,
                _hi_from_rotated(z, inner) if h is None else h)
    if h is None:
        h = _hi_contour(z)
    return (_bi_complement(z, h) if g is None else g), h


def _settled(z: complex, r: ScorerResult) -> ScorerResult:
    """The result at ``z`` from ``r``, the value at ``complex(z.real, abs(z.imag))``
    (Gi and Hi carry no derivative)."""
    if z.imag < 0.0:
        return ScorerResult(r.value.conjugate(), "conjugate", r.abs_error_estimate,
                            r.n_evaluations, r.converged)
    if z.imag or not r.value.imag:
        return r
    return ScorerResult(complex(r.value.real, 0.0), r.method, r.abs_error_estimate,
                        r.n_evaluations, r.converged)


def _evaluate(z: complex, fn: str) -> tuple[ScorerResult, ...]:
    """``fn`` ("gi", "hi", or "pair" for both) at any finite ``z``.

    The package's one fold of the lower half-plane is :func:`_settled`,
    called here and by :func:`_sweep` (Ai and Bi are symmetric by
    construction; the only other conjugated result is
    ``airy._ai_rotated_pair``'s on the real axis, which shares one rule
    evaluation): the router sees the closed upper half-plane only, so
    below it ``fn`` is evaluated at ``conj z`` and each result is
    conjugated back and tagged ``conjugate``; ``abs`` also folds
    a negative-zero imaginary part, which would put the negative real axis
    at phase ``-pi``.  On the real axis, where Gi and Hi are real, a value
    keeps its real part only: a rotation leaves a residue of rounding.
    """
    z = require_finite(z)
    up = complex(z.real, abs(z.imag))
    if fn == "pair":
        g, h = _pair(up)
        return _settled(z, g), _settled(z, h)
    return (_settled(z, _single(up, fn)),)


def _sweep(points: Iterable[complex], fn: str) -> Iterator[ScorerResult]:
    """Yield ``fn`` ("gi" or "hi") at each point of the iterable ``points``
    in turn, each result equal to :func:`_evaluate`'s, routing each
    distinct upper-half-plane point once: a point whose
    ``complex(z.real, abs(z.imag))`` an earlier point already routed (its
    conjugate, or the point again) is folded by :func:`_settled` from that
    earlier :func:`_single` result.

    The memo keys on the sign of the real part as well, because ``0.0``
    and ``-0.0`` are equal as dict keys; the imaginary part, from ``abs``,
    is never ``-0.0``.  So it never merges two points that the router sees
    as different numbers.  It holds one result per distinct point until the
    sweep ends; the points are read one at a time, as results are taken.
    """
    routed = {}
    for z in points:
        z = require_finite(z)
        up = complex(z.real, abs(z.imag))
        key = (up, math.copysign(1.0, up.real))
        r = routed.get(key)
        if r is None:
            r = routed[key] = _single(up, fn)
        yield _settled(z, r)


def gi(z: complex) -> ScorerResult:
    """Evaluate Gi(z)."""
    return _evaluate(z, "gi")[0]


def hi(z: complex) -> ScorerResult:
    """Evaluate Hi(z)."""
    return _evaluate(z, "hi")[0]


def gi_hi_pair(z: complex) -> tuple[ScorerResult, ScorerResult]:
    """Evaluate Gi(z) and Hi(z) together, sharing the expensive parts: one
    sector Hi serves both, through ``Gi + Hi = Bi`` or the two rotations."""
    return _evaluate(z, "pair")
