"""Complex Airy functions Ai and Bi with first derivatives.

Evaluation is dispatched by region: a Maclaurin series near the origin, a
Gauss-Laguerre rule of 6 to 25 nodes, sized to its argument, on the
non-oscillating Laplace form of Ai everywhere else in the principal sector
``|ph z| <= 2*pi/3`` (see :func:`_ai_laguerre`), and a
one-step three-solution rotation identity that connects the principal
sector to the rest of the plane.  Bi beyond the series disc combines two
principal-sector Ai values (route ``rotation_pair``), as Ai does beyond
``2*pi/3`` (route ``rotation``, from the pair of Bi's second formula):

* on ``0 < ph z <= 2*pi/3``, ``Bi = i Ai(z) + 2 e^{-i pi/6} Ai(z e^{-2 pi i/3})``
  (DLMF 9.2.11 with 9.2.10, the split of ACM TOMS Algorithm 819), where
  ``z e^{2 pi i/3}`` would leave the sector, and on ``-2*pi/3 <= ph z < 0``
  its conjugate ``Bi = -i Ai(z) + 2 e^{i pi/6} Ai(z e^{2 pi i/3})``.
  Nothing cancels: within ``pi/3`` of the axis Ai(z) is recessive and the
  rotated term dominates, beyond it the reverse;
* beyond ``2*pi/3`` and on the real axis,
  ``Bi = e^{i pi/6} Ai(z e^{2 pi i/3}) + e^{-i pi/6} Ai(z e^{-2 pi i/3})``.
  Nothing cancels, because the two terms carry conjugate-direction
  exponentials; on the axis they are exact conjugates, so Bi(x) comes out
  exactly real, where the first formula would leave a rounding residue in
  its imaginary part.

:func:`_ai_pair` takes each formula's two Ai values, one rule evaluation
serving both: one paired pass where their ``zeta = (2/3) z**1.5`` have
opposite signs, each argument keeping its own rule and count, and one pass
counted once where they are exact conjugates.  Ai's series, rule and
rotation and Bi's formulas are conjugate-symmetric by construction, so
neither function folds the lower half-plane.  Every evaluation returns a
:class:`~scorerlib.contour.ScorerResult`.  The public :func:`ai_complex`
and :func:`bi_complex` carry the derivative alongside the value; the
private dispatchers ``_ai_info`` and ``_bi_info``, which Gi's and Hi's Airy
terms and the CLI call, form the derivative only when asked for it.

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
#: 2 e^{-i pi/6}: Bi's coefficient of Ai(z e^{-2 pi i/3}) on 0 < ph z <= 2*pi/3,
#: and the Airy coefficient of the Hi rotation connection.
_TWO_ROT_SIXTH = 2.0 * _ROT1.conjugate()
_TWO_THIRDS_PI = 2.0 * math.pi / 3.0
#: Beyond this |ph z| Ai rotates and Bi takes its conjugate-pair formula, so
#: that no rule argument of Ai(z) or Bi(z) leaves the principal sector.
_ROTATION_EDGE = _TWO_THIRDS_PI + 1e-15
_HALF_PI = 0.5 * math.pi

# Generalized Gauss-Laguerre rules for exp(-t) t**(-1/6) on [0, inf), nodes
# ascending: the full rules of 6, 8, 12, 16 and 20 nodes, printed by
# ``tools/laguerre_rule.py --n N``, and the 40-node rule truncated to the 25
# nodes whose weight exceeds 1e-18 of the largest, printed by
# ``tools/laguerre_rule.py --cut 1e-18``.
_NODES_6 = np.array([
    0.17904858830154222, 1.0910232481268545, 2.845915090992092,
    5.5827624424619104, 9.600939624399215, 15.700311005718387,
])
_WEIGHTS_6 = np.array([
    0.5748950544415475, 0.4363193774615418, 0.10800874904729584,
    0.009338340028242065, 0.0002247604188662674, 7.485106324619753e-07,
])
_NODES_8 = np.array([
    0.13642568748380457, 0.8271008402545598, 2.135261245428776,
    4.114286009819637, 6.8587269822998325, 10.53755104755655,
    15.485746689152675, 22.57156816467083,
])
_WEIGHTS_8 = np.array([
    0.4778373760361903, 0.44822952256555043, 0.17000603012328258,
    0.030218848953057705, 0.002418705848223268, 7.585612267729732e-05,
    6.894284498290191e-07, 8.306945327843998e-10,
])
_NODES_12 = np.array([
    0.09243754027634815, 0.5583263519074625, 1.4309195564717745,
    2.7253762439474194, 4.465456070553066, 6.686385807385448,
    9.439588225257083, 12.801255238604572, 16.889193760445448,
    21.90034965265378, 28.21319139367105, 36.79752015882655,
])
_WEIGHTS_12 = np.array([
    0.3607392525696155, 0.4207606965393248, 0.24332812891004915,
    0.0838493100069181, 0.01768480969958447, 0.002251646136093292,
    0.0001663838994726499, 6.670982336619313e-06, 1.30135484045859e-07,
    1.026945126049012e-09, 2.301633770234591e-12, 6.023410980466064e-16,
])
_NODES_16 = np.array([
    0.06990398696320012, 0.42165505312349194, 1.077886957549787,
    2.0450072400706083, 3.3325893906291646, 4.954060392944802,
    6.92756445609959, 9.277260547765161, 12.035318078569212,
    15.245086026697372, 18.966368966022284, 23.28480784962387,
    28.33015260757935, 34.316856109937646, 41.65487031615267,
    51.393945353605126,
])
_WEIGHTS_16 = np.array([
    0.29224171790188097, 0.3811335382664116, 0.2723536895279418,
    0.12924430701637052, 0.04241214760845679, 0.009693442499237143,
    0.001531608889114675, 0.00016438084498547533, 1.16578221898002e-05,
    5.251146380292063e-07, 1.4202706945027736e-08, 2.1263064917062322e-10,
    1.5570345736305658e-12, 4.548074008671047e-15, 3.600541715551579e-18,
    2.9283710925358473e-22,
])
_NODES_20 = np.array([
    0.056204448234643586, 0.3388059406221571, 0.8650656216819387,
    1.6383095525354305, 2.663358429182045, 3.9468062269738104,
    5.497278158471382, 7.3257828678195756, 9.446202870539409,
    11.875983385044655, 14.637115056577235, 17.757569275102473,
    21.273461896276302, 25.23245141465542, 29.69936498677005,
    34.76617778018398, 40.57144056909991, 47.34346004876556,
    55.51828295685463, 66.21354518127606,
])
_WEIGHTS_20 = np.array([
    0.2469986874006234, 0.3447904976127213, 0.2799627926351445,
    0.1607432930094198, 0.06827138507744017, 0.021747509063409703,
    0.005205123814133191, 0.0009315169995058331, 0.00012342511179192265,
    1.1932746971838052e-05, 8.25329104966714e-07, 3.9788532565156366e-08,
    1.2919868131711469e-09, 2.699654669936754e-11, 3.4106075455773553e-13,
    2.3844134299322445e-15, 8.075239919120975e-18, 1.0650522741979257e-20,
    3.619614907258563e-24, 1.122024707490503e-28,
])
_NODES_40 = np.array([
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
_WEIGHTS_40 = np.array([
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


def _folded(nodes: np.ndarray, weights: np.ndarray, j: int) -> tuple:
    """The nodes and the weights of ``I`` and ``dI/dzeta`` on the path
    ``t = s tilt``, ``tilt = 1 + i tan(j pi/16)``, turned ``j pi/16`` into
    the upper half-plane.

    The path keeps the weight ``exp(-s) s**(-1/6)`` of ``s`` and adds the
    factor ``exp(-i s tan)``, and its ``dt`` and ``t**(-1/6)`` give
    ``tilt**(5/6)``; ``dI/dzeta`` has one more factor ``t``.  All of it is
    folded in here, so a rule evaluation on any path is ``q = 2 + T/zeta``,
    one power and two dots.  ``j = 0`` returns the real rule itself, its
    weights typed complex: numpy's dot of a complex and a real array pays
    for a cast on every call.
    """
    if not j:
        return nodes, weights.astype(complex), (weights * nodes).astype(complex)
    tan = math.tan(j * math.pi / 16.0)
    tilt = complex(1.0, tan)
    turned = weights * np.exp((-1j * tan) * nodes)
    return tilt * nodes, turned * tilt ** (5.0 / 6.0), turned * nodes * tilt ** (11.0 / 6.0)


def _rules(family: tuple, reaches: tuple, start: int, conjugate: bool = False) -> tuple:
    """Rows ``(reach, cos, sin, n, nodes, w0, w1, key)`` of
    :func:`_ai_laguerre`, smallest rule first: rule ``(nodes, weights, j)``
    of ``family`` serves where ``rho**2 = cos (|zeta| + cos Re zeta + sin
    |Im zeta|)``, with ``cos`` and ``sin`` of its path angle ``j pi/16``,
    reaches its entry of ``reaches``; the last rule serves wherever no other
    does.  ``key`` numbers the rows from ``start``, for ``_PAIRED``.  With
    ``conjugate`` the tables are conjugated, for the lower half-plane."""
    rows = []
    for key, ((nodes, weights, j), k) in enumerate(zip(family, reaches + (-math.inf,)), start):
        c, s = math.cos(j * math.pi / 16.0), math.sin(j * math.pi / 16.0)
        tables = _folded(nodes, weights, j)
        if conjugate:
            tables = tuple(t.conjugate() for t in tables)
        rows.append((k / c, c, s, nodes.size, *tables, key))
    return tuple(rows)


# Ai's rule: ``rho = Re sqrt(2 zeta / tilt)`` is the distance, in the
# square root of the path variable, of the integrand's singularity at
# ``t = -2 zeta`` from the path; a rule's truncation error falls with it.
# Each rule of the family serves where rho**2 reaches its constant below,
# fitted against mpmath so that the relative truncation error of Ai and of
# Ai' stays below _TRUNCATION_BAR (``tools/airy_gate.py`` re-derives them),
# and the 25-of-40 rule serves the rest: near the 2*pi/3 ray below
# |z| of about 3.6, where the gate checks its error against the same bar,
# and where Re zeta >= 0 below about 4.5.  Where Re zeta >= 0 every rule
# takes the real path.  Where Re zeta < 0 the singularity nears the real
# path, and each rule takes the steepest of the angles j pi/16 whose factor
# exp(-i s tan) it still sums to about 1e-16 (rho**2 grows with the angle up
# to ph zeta / 3): none with 6 nodes, pi/16 with 8, pi/8 with 12,
# 3 pi/16 with 16 and 20, and pi/4 with 25.
_AI_RIGHT = _rules(
    ((_NODES_6, _WEIGHTS_6, 0), (_NODES_8, _WEIGHTS_8, 0), (_NODES_12, _WEIGHTS_12, 0),
     (_NODES_16, _WEIGHTS_16, 0), (_NODES_20, _WEIGHTS_20, 0), (_NODES_40, _WEIGHTS_40, 0)),
    (32.0, 17.5, 9.2, 5.5, 4.5),
    0,
)
_AI_TILTED = (
    (_NODES_6, _WEIGHTS_6, 0), (_NODES_8, _WEIGHTS_8, 1), (_NODES_12, _WEIGHTS_12, 2),
    (_NODES_16, _WEIGHTS_16, 3), (_NODES_20, _WEIGHTS_20, 3), (_NODES_40, _WEIGHTS_40, 4),
)
_AI_LEFT_REACHES = (16.5, 10.2, 5.9, 3.4, 2.6)
_AI_UPPER = _rules(_AI_TILTED, _AI_LEFT_REACHES, len(_AI_RIGHT))
_AI_LOWER = _rules(_AI_TILTED, _AI_LEFT_REACHES, 2 * len(_AI_RIGHT), conjugate=True)


def _paired_tables() -> dict:
    """The tables ``(nodes, w0, w1)`` of one pass that sums a rule of
    ``_AI_RIGHT`` at ``zeta`` and one of ``_AI_UPPER`` or ``_AI_LOWER`` at
    ``-zeta``, by the keys of their two rows: the first rule's nodes and
    the second's negated, so that ``q = 2 + nodes/zeta`` holds both
    arguments' ``q``, and the ``(2, n_a + n_b)`` block weights of ``I`` and
    of ``dI/dzeta``, the first rule's in row 0 and the second's in row 1."""
    tables = {}
    for a in _AI_RIGHT:
        for b in _AI_UPPER + _AI_LOWER:
            w = np.zeros((2, 2, a[3] + b[3]), complex)
            w[:, 0, :a[3]] = a[5], a[6]
            w[:, 1, a[3]:] = b[5], b[6]
            tables[a[7], b[7]] = np.concatenate((a[4], -b[4])).astype(complex), w[0], w[1]
    return tables


_PAIRED = _paired_tables()

#: The relative truncation bar added to the rounding bar of every rule
#: evaluation, and the error of Ai and Ai' the reaches are fitted to: the
#: tilted rules' rounding alone reaches 9e-16.
_TRUNCATION_BAR = 2e-15
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


def _maclaurin(z: complex, c0: float, c1: float, derivative: bool = False) -> ScorerResult:
    """The Airy solution with value ``c0`` and slope ``c1`` at the origin,
    and with ``derivative`` its derivative, from the Maclaurin series in
    Horner form.

    It is ``c0 f + c1 g`` (see :func:`_airy_rows`).  The error bar is
    4 eps times the sum of the term magnitudes of f and g, which is the
    series at ``|z|``, times ``max(|c0|, |c1|)``.  A value-only pass sums
    neither ``f'`` nor ``g'``; both passes sum the value alike.
    """
    z3 = z * z * z
    r = abs(z)
    r3 = r * r * r
    f = g = 0j
    f_abs = g_abs = 0.0
    if derivative:
        fp = gp = 0j
        for a, b, ap, bp in _AIRY_ROWS:
            f = f * z3 + a
            g = g * z3 + b
            fp = fp * z3 + ap
            gp = gp * z3 + bp
            f_abs = f_abs * r3 + a
            g_abs = g_abs * r3 + b
        deriv = c0 * (z * z * fp) + c1 * gp
    else:
        for a, b, _, _ in _AIRY_ROWS:
            f = f * z3 + a
            g = g * z3 + b
            f_abs = f_abs * r3 + a
            g_abs = g_abs * r3 + b
        deriv = None
    return ScorerResult(
        c0 * f + c1 * (z * g),
        "series",
        4.0 * _EPS * (f_abs + r * g_abs) * max(abs(c0), abs(c1)),
        0,
        derivative=deriv,
    )


def _ai_point(z: complex) -> tuple | None:
    """``(zeta, modulus, phase, n, nodes, w0, w1, key)`` of
    :func:`_ai_laguerre` at ``z``: its ``zeta`` and the row of the rule
    sized to it, or None where Ai and Ai' underflow to 0 beyond
    ``_ZETA_CAP``."""
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
            return None
        if modulus == math.inf:
            raise OverflowError(f"Ai: zeta = (2/3) z**1.5 overflows at |z| = {abs(z):.3g}")
    zeta = cmath.rect(modulus, phase)
    x = zeta.real
    # By the sign of the phase, not of Im zeta: just beyond the 2*pi/3 ray
    # the phase passes pi, and the path stays on its side of the singularity.
    rules = _AI_RIGHT if x >= 0.0 else _AI_UPPER if phase > 0.0 else _AI_LOWER
    y = abs(zeta.imag)
    for reach, c, s, n, nodes, w0, w1, key in rules:
        if modulus + c * x + s * y >= reach:
            break
    return zeta, modulus, phase, n, nodes, w0, w1, key


def _ai_result(z: complex, zeta: complex, modulus: float, phase: float, n: int,
               s0: complex, s1: complex | None) -> ScorerResult:
    """Ai at ``z`` from the sum ``s0`` of ``I`` by its rule of ``n`` nodes,
    and Ai' from the sum ``s1`` of ``dI/dzeta`` on the same nodes, or no
    derivative where ``s1`` is None (``zeta``, its ``modulus`` and
    ``phase`` are :func:`_ai_point`'s)."""
    # exp(-zeta) zeta**(-1/6) as one exponential.
    try:
        pref = _LAPLACE_NORM * cmath.exp(
            complex(-zeta.real - math.log(modulus) / 6.0, -zeta.imag - phase / 6.0)
        )
    except OverflowError:
        raise OverflowError(f"Ai: exp(-zeta) overflows at z = {z!r}") from None
    value = pref * s0
    # The rounding of exp(-zeta) dominates: the relative error of zeta
    # becomes an absolute error of the exponent.  The coefficient of |zeta|
    # also covers a rotated argument z e^{+-2 pi i/3}, whose rounding moves
    # zeta by 1.5 |zeta| times its relative error, and the argument at
    # Re zeta < 0 of a paired pass, whose q takes its partner's -zeta, within
    # 1.4e-15 relative of its own.
    err = (_EPS * (6.0 * modulus + 8.0) + _TRUNCATION_BAR) * abs(value)
    if err < _UNDERFLOW_BAR:  # gradual underflow: absolute roundings dominate
        err = _UNDERFLOW_BAR
    if s1 is None:
        return ScorerResult(value, "integral", err, n)
    ds = s1 / (6.0 * zeta * zeta) - (1.0 + 1.0 / (6.0 * zeta)) * s0
    return ScorerResult(value, "integral", err, n, True, pref * cmath.sqrt(z) * ds)


def _ai_laguerre(z: complex, derivative: bool = False) -> ScorerResult:
    """Ai at ``z`` from the non-oscillating Laplace form, by a rule sized to
    ``z``; with ``derivative`` also Ai'.

    ``Ai(z) = exp(-zeta) zeta**(-1/6) / (sqrt(pi) 48**(1/6) Gamma(5/6)) * I``
    with ``zeta = (2/3) z**1.5`` and
    ``I = int_0^inf exp(-t) t**(-1/6) (2 + t/zeta)**(-1/6) dt``; one rule
    sums ``I`` and, with ``derivative``, on the same nodes ``dI/dzeta``.
    A value-only pass forms no ``g / q`` and makes no second product, and
    its result carries no derivative.  Valid for
    ``|ph z| <= 2*pi/3`` and ``|z| > SERIES_RADIUS``, in either half-plane
    (it is exactly conjugate-symmetric).  The rule is the first row of
    ``_AI_RIGHT`` (``Re zeta >= 0``) or of ``_AI_UPPER`` or ``_AI_LOWER``
    (by the sign of ``ph zeta``) whose ``rho**2`` reaches its constant; on
    ``Re zeta < 0`` its path turns by its angle away from the singularity
    at ``t = -2 zeta`` (see :func:`_folded`).  ``n_evaluations`` is the
    rule's node count, and the bar adds ``_TRUNCATION_BAR`` relative.
    """
    a = _ai_point(z)
    if a is None:  # the zero counts the smallest rule, which serves there
        return ScorerResult(0j, "integral", _UNDERFLOW_BAR, _AI_RIGHT[0][3], True,
                            0j if derivative else None)
    zeta, modulus, phase, n, nodes, w0, w1, _ = a
    q = 2.0 + nodes / zeta
    g = np.power(q, -1.0 / 6.0)
    s0 = complex(g.dot(w0))
    s1 = complex((g / q).dot(w1)) if derivative else None
    return _ai_result(z, zeta, modulus, phase, n, s0, s1)


def _ai_pair(
    z: complex, partner: complex, derivative: bool = False
) -> tuple[ScorerResult, ScorerResult]:
    """Ai at ``z`` and at ``partner``, both in the principal sector beyond
    the series disc, each by the rule sized to it as in
    :func:`_ai_laguerre`; with ``derivative`` also Ai'.  The two arguments
    alone decide how one rule evaluation serves both:

    * ``Re zeta`` of opposite signs: one pass sums both rules on
      ``_PAIRED``'s tables, with one division by the ``zeta`` on the side
      ``Re zeta >= 0``, one power and one product per sum.  It does not
      depend on the order of the arguments, so at conjugate arguments it is
      the conjugate pass.  Each keeps its own rule, bar, derivative and count;
    * exact conjugates (every rotated pair of a real argument; their
      ``zeta`` are conjugates, on one side): one pass at ``z``, and its
      conjugate, the pass at ``partner`` bit for bit, counts nothing;
    * otherwise (one side of ``Re zeta = 0``, near ``|ph| = pi/3`` within
      rounding, or beyond ``_ZETA_CAP``): two one-argument passes.
    """
    a, b = _ai_point(z), _ai_point(partner)
    if a is None or b is None or (a[0].real >= 0.0) == (b[0].real >= 0.0):
        first = _ai_laguerre(z, derivative)
        if partner != z.conjugate():
            return first, _ai_laguerre(partner, derivative)
        return first, ScorerResult(first.value.conjugate(), "integral", first.abs_error_estimate,
                                   0, True, first.derivative.conjugate() if derivative else None)
    first, second = (a, b) if a[0].real >= 0.0 else (b, a)
    nodes, w0, w1 = _PAIRED[first[7], second[7]]
    q = 2.0 + nodes / first[0]
    g = np.power(q, -1.0 / 6.0)
    s0 = w0.dot(g).tolist()
    s1 = w1.dot(g / q).tolist() if derivative else [None, None]
    if first is b:
        s0.reverse()
        s1.reverse()
    return (_ai_result(z, *a[:4], s0[0], s1[0]),
            _ai_result(partner, *b[:4], s0[1], s1[1]))


# ``derivative`` is an ordinary parameter, passed by position within this
# module: in CPython 3.11 a function with a keyword-only parameter costs about
# 20 ns more on every call, and a keyword argument as much again.  Over the
# two or three calls of a dispatch that cost 0.8% of the airy benchmark's
# calls per second on a 2-vCPU x86-64 host.
def _ai_info(z: complex, derivative: bool = False) -> ScorerResult:
    """Dispatch Ai by region; Ai' as ``derivative`` only where asked for.

    A value-only pass (the default, which Gi, Hi and the CLI take) forms no
    derivative anywhere and returns ``derivative=None``; its value, route,
    bar and count are those of the pass with the derivative, bit for bit.
    """
    z = require_finite(z)
    if abs(z) <= SERIES_RADIUS:
        return _maclaurin(z, AI_ZERO, AIP_ZERO, derivative)
    # abs: the lower half-plane, and the negative axis with a -0.0 imaginary part.
    if abs(cmath.phase(z)) > _ROTATION_EDGE:
        # One rotation lands both arguments inside the principal sector.
        a_plus, a_minus = _ai_pair(z * _ROT_PLUS, z * _ROT_MINUS, derivative)
        deriv = (-_ROT_PLUS * a_minus.derivative - _ROT_MINUS * a_plus.derivative
                 if derivative else None)
        return combine("rotation", [(-_ROT_MINUS, a_minus), (-_ROT_PLUS, a_plus)], deriv)
    return _ai_laguerre(z, derivative)


def ai_complex(z: complex) -> ScorerResult:
    """Ai(z), with Ai'(z) as ``derivative``, anywhere in the complex plane.

    Inside ``|ph z| < pi/3`` beyond ``|z|`` of about 1e100, where both
    underflow, they are returned as 0.  The error bar is never below
    ``4 * 2**-1074``, which covers the roundings of a subnormal value.  Raises
    :class:`~scorerlib.contour.DomainError` for NaN or infinite ``z``, and
    ``OverflowError`` where a value, its derivative or an intermediate
    leaves the double range.  Near the top of that range Ai', about
    ``sqrt(z)`` times Ai, overflows first, into NaN parts; the check sits
    here, not in the dispatcher, whose value-only pass (Gi's and Hi's Airy
    terms) forms no derivative and keeps the finite Ai.  Ai' carries no
    error bar: ``abs_error_estimate`` bounds the value only.
    """
    result = _ai_info(z, derivative=True)
    if not cmath.isfinite(result.derivative):
        raise OverflowError(f"Ai: the derivative overflows at z = {z!r}")
    return result


def _bi_info(z: complex, derivative: bool = False) -> ScorerResult:
    """Dispatch Bi by region: two principal-sector Ai values beyond the
    series disc.  As for :func:`_ai_info`, Bi' is formed only with
    ``derivative``; the value-only pass returns ``derivative=None`` and the
    same value, route, bar and count."""
    z = require_finite(z)
    if abs(z) <= SERIES_RADIUS:
        return _maclaurin(z, BI_ZERO, BIP_ZERO, derivative)
    if z.imag == 0.0 or abs(cmath.phase(z)) > _ROTATION_EDGE:
        # e^{i pi/6} Ai(z e^{2 pi i/3}) + e^{-i pi/6} Ai(z e^{-2 pi i/3}):
        # exact conjugate terms on the real axis, so Bi(x) stays real.
        a_plus, a_minus = _ai_pair(z * _ROT_PLUS, z * _ROT_MINUS, derivative)
        deriv = (_ROT5 * a_plus.derivative + _ROT5.conjugate() * a_minus.derivative
                 if derivative else None)
        return combine("rotation_pair", [(_ROT1, a_plus), (_ROT1.conjugate(), a_minus)], deriv)
    # i Ai(z) + 2 e^{-i pi/6} Ai(z e^{-2 pi i/3}) on 0 < ph z <= 2 pi/3, where
    # z e^{2 pi i/3} would leave the sector; below the axis its conjugate, by
    # the conjugate constants (1j.conjugate(): -1j has the real part -0.0).
    if z.imag > 0.0:
        i, rot, c2, c5 = 1j, _ROT_MINUS, _TWO_ROT_SIXTH, _ROT5.conjugate()
    else:
        i, rot, c2, c5 = 1j.conjugate(), _ROT_PLUS, _TWO_ROT_SIXTH.conjugate(), _ROT5
    a, a_rot = _ai_pair(z, z * rot, derivative)
    deriv = i * a.derivative + 2.0 * c5 * a_rot.derivative if derivative else None
    return combine("rotation_pair", [(i, a), (c2, a_rot)], deriv)


def bi_complex(z: complex) -> ScorerResult:
    """Bi(z), with Bi'(z) as ``derivative``, anywhere in the complex plane.

    Raises :class:`~scorerlib.contour.DomainError` for NaN or infinite ``z``,
    and ``OverflowError`` where a value, its derivative or an intermediate
    leaves the double range (Bi' first, as for :func:`ai_complex`).  Bi'
    carries no error bar: ``abs_error_estimate`` bounds the value only.
    """
    result = _bi_info(z, derivative=True)
    if not cmath.isfinite(result.derivative):
        raise OverflowError(f"Bi: the derivative overflows at z = {z!r}")
    return result
