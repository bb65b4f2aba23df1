"""Tests for the complex Airy evaluator underpinning the connection formulas."""

from __future__ import annotations

import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from scorerlib import airy
from scorerlib.airy import (
    AI_ZERO,
    AIP_ZERO,
    BI_ZERO,
    BIP_ZERO,
    SERIES_RADIUS,
    ai_complex,
    bi_complex,
)
from scorerlib.airy import _NODES_40, _WEIGHTS_40, _ai_info, _ai_laguerre, _bi_info
from scorerlib.contour import DomainError
from scorerlib.engine import gi, hi

# Reference values computed with mpmath at 35 significant digits and frozen.
# Keys are z; rows are (Ai, Ai', Bi, Bi').
_AIRY_REFERENCE = {
    0j: (
        (0.3550280538878172 + 0j),
        (-0.2588194037928068 + 0j),
        (0.6149266274460007 + 0j),
        (0.4482883573538264 + 0j),
    ),
    (1.5 + 0.8j): (
        (0.03687042771720862 - 0.07099319041852437j),
        (-0.07005485418925331 + 0.08796483595181803j),
        (1.1029169395397445 + 1.1470501312854517j),
        (0.6226085081097154 + 1.6507115892270638j),
    ),
    (-2 + 1j): (
        (0.5563045393711925 + 0.7898014381882759j),
        (1.1349598127621308 - 0.8858793656453342j),
        (-0.8669433867252542 + 0.48009810364065153j),
        (0.9678264759011976 + 0.9859861458879565j),
    ),
    (-1.4148992442602841 + 3.091611251207318j): (
        (6.1775876735186666 - 11.740589240443736j),
        (-23.268768640497104 + 2.2049558983872117j),
        (11.747097044145997 + 6.178161099908385j),
        (-2.199210028343839 - 23.257685609742907j),
    ),
    (2 - 1.5j): (
        (-0.033196546700911114 + 0.036426880627441316j),
        (0.035894251950190484 - 0.07249651606383496j),
        (-0.7729973894532738 - 1.8324051934417909j),
        (-2.3015638068118744 - 2.2323284011558417j),
    ),
    (5 + 0j): (
        (0.00010834442813607442 + 0j),
        (-0.0002474138908684625 + 0j),
        (657.7920441711711 + 0j),
        (1435.8190802179824 + 0j),
    ),
    (2.701511529340699 + 4.207354924039483j): (
        (0.01971490008964503 - 0.10944561175108118j),
        (-0.1521897479448884 + 0.19759697099102227j),
        (0.5106084834846086 + 0.5174337576259562j),
        (0.024569550042446167 + 1.2597378566222712j),
    ),
    (-2.9130278558299967 + 6.365081987779772j): (
        (-22060.861342983513 - 27804.361649633447j),
        (-29762.91782256978 + 87693.58751745809j),
        (27804.36165018152 - 22060.861341378954j),
        (-87693.58752028931 - 29762.917819015332j),
    ),
    (4 - 3j): (
        (0.0026960543648825324 - 3.1144183285969738e-06j),
        (-0.005824526497077213 + 0.0018391961231481368j),
        (25.014488910059747 + 8.399468036475476j),
        (58.295272124550394 - 1.014377634790191j),
    ),
    (8.120360157567651 + 2.511921756621386j): (
        (3.192121673273266e-08 - 4.720016022497019e-08j),
        (-1.1307677369072667e-07 + 1.2372208900574366e-07j),
        (649510.3802732337 + 704455.8532683072j),
        (1540324.2182546789 + 2299559.4590836316j),
    ),
    (11.464037869507273 + 3.5462424799360743j): (
        (1.9913872157370434e-12 + 9.333939511855923e-13j),
        (-6.3824601135729796e-12 - 4.234455576968957e-12j),
        (17378536381.629974 - 11595147817.152977j),
        (65251528557.47853 - 30375033760.355827j),
    ),
    (1.4147440333540582 + 19.94989973208109j): (
        (-2317188421778055.5 - 857633891692289.6j),
        (4980891217068494 + 9841847705330822j),
        (857633891692289.6 - 2317188421778055.5j),
        (-9841847705330822 + 4980891217068494j),
    ),
    (-3.953394947197853 + 8.638325554843977j): (
        (-39595027.14591897 + 4478587.209823373j),
        (77004333.71077909 + 94314639.86693545j),
        (-4478587.209823373 - 39595027.14591897j),
        (-94314639.86693545 + 77004333.71077909j),
    ),
    (30 + 0j): (
        (3.2082175915504954e-49 + 0j),
        (-1.759876581432726e-48 + 0j),
        (9.057288512151307e+46 - 3.2082175915504954e-49j),
        (4.953304512891299e+47 + 1.759876581432726e-48j),
    ),
    (-8.011436155469337 + 5.984721441039565j): (
        (2145781.5284836777 - 4715599.380299488j),
        (-16176286.434752563 - 1802053.4819127314j),
        (4715599.380299497 + 2145781.5284836767j),
        (1802053.4819127442 - 16176286.434752535j),
    ),
    (-4.520360710085306 + 2.136899401169149j): (
        (8.60816021752298 - 16.453201444822874j),
        (-39.385820426097766 - 11.335084200789115j),
        (16.4569018365049 + 8.607166496419815j),
        (11.339245021684626 - 39.37819358222616j),
    ),
    (-39.599699864017815 + 5.644800322394689j): (
        (225620143940362.2 + 211003381915772.25j),
        (1231435536820557.5 - 1516269132279254.2j),
        (-211003381915772.25 + 225620143940362.2j),
        (1516269132279254.2 + 1231435536820557.5j),
    ),
    (-20 + 0j): (
        (-0.1764061270779847 + 0j),
        (0.8928628567364713 + 0j),
        (-0.20013930932265134 + 0j),
        (-0.7914290338395364 + 0j),
    ),
    (-4 + 0j): (
        (-0.07026553294928951 + 0j),
        (-0.7906285753685813 + 0j),
        (0.3922347057069993 + 0j),
        (-0.1166705674383409 + 0j),
    ),
    (-5.653334044011949 - 2.0099289009354306j): (
        (0.45883964984319237 - 22.04463047188936j),
        (52.76913072782751 + 9.386109977414668j),
        (-22.04752238234909 - 0.4582805218052727j),
        (9.386154362957976 - 52.76185286112962j),
    ),
    (8.413264060129373 - 7.086394559614601j): (
        (-6.446046154328058e-07 + 5.667098720358397e-07j),
        (1.3831216443603641e-06 - 2.4993838435788285e-06j),
        (-26779.04341793605 - 49075.30830069645j),
        (-139517.25727701423 - 121190.24980410734j),
    ),
}

_REL_TOL = 2e-12
_EPS = float(np.finfo(float).eps)


def _rel(err: complex, ref: complex) -> float:
    return abs(err) / max(abs(ref), 1e-300)


class TestFrozenReferenceValues:
    @pytest.mark.parametrize("z", sorted(_AIRY_REFERENCE, key=lambda w: (abs(w), w.real)))
    def test_ai_matches_reference(self, z):
        ai_ref, aip_ref, _, _ = _AIRY_REFERENCE[z]
        pair = ai_complex(z)
        assert _rel(pair.value - ai_ref, ai_ref) < _REL_TOL
        assert _rel(pair.derivative - aip_ref, aip_ref) < _REL_TOL

    @pytest.mark.parametrize("z", sorted(_AIRY_REFERENCE, key=lambda w: (abs(w), w.real)))
    def test_bi_matches_reference(self, z):
        _, _, bi_ref, bip_ref = _AIRY_REFERENCE[z]
        pair = bi_complex(z)
        assert _rel(pair.value - bi_ref, bi_ref) < _REL_TOL
        assert _rel(pair.derivative - bip_ref, bip_ref) < _REL_TOL


class TestOriginClosedForms:
    def test_origin_constants_match_gamma_closed_forms(self):
        third = 1.0 / 3.0
        assert math.isclose(AI_ZERO, 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 * third), rel_tol=1e-15)
        assert math.isclose(AIP_ZERO, -(3.0 ** (-third)) / math.gamma(third), rel_tol=1e-15)
        assert math.isclose(BI_ZERO, 3.0 ** (-1.0 / 6.0) / math.gamma(2.0 * third), rel_tol=1e-15)
        assert math.isclose(BIP_ZERO, 3.0 ** (1.0 / 6.0) / math.gamma(third), rel_tol=1e-15)

    def test_evaluators_reproduce_origin_constants(self):
        a = ai_complex(0j)
        b = bi_complex(0j)
        assert a.value == AI_ZERO and a.derivative == AIP_ZERO
        assert abs(b.value - BI_ZERO) < 1e-15
        assert abs(b.derivative - BIP_ZERO) < 1e-15


class TestWronskian:
    def test_wronskian_on_seeded_grid(self):
        rng = np.random.default_rng(20260814)
        target = 1.0 / math.pi
        for _ in range(120):
            r = rng.uniform(0.05, 25.0)
            ph = rng.uniform(-math.pi, math.pi)
            z = complex(r * math.cos(ph), r * math.sin(ph))
            a = ai_complex(z)
            b = bi_complex(z)
            w = a.value * b.derivative - a.derivative * b.value
            # Normalize by the cancellation scale: where both products are
            # huge the Wronskian is a difference of near-equal numbers.
            scale = max(
                target,
                abs(a.value) * abs(b.derivative) + abs(a.derivative) * abs(b.value),
            )
            assert abs(w - target) / scale < 1e-11


class TestRotationIdentity:
    @pytest.mark.parametrize(
        "z", [0.5 + 0.5j, 2 - 1j, -3 + 2j, 5 + 0j, -5 + 0j, 1 + 6j, -7 - 3j]
    )
    def test_three_solutions_sum_to_zero(self, z):
        # The three rotated solutions are linearly dependent; the weighted
        # sum vanishes identically (weights undo the argument rotation).
        rot = cmath.exp(2j * math.pi / 3.0)
        total_v = 0j
        total_d = 0j
        for j in (-1, 0, 1):
            pair = ai_complex(z * rot ** (-j))
            total_v += rot ** (-j) * pair.value
            total_d += rot ** (-2 * j) * pair.derivative
        scale_v = max(abs(ai_complex(z).value), 1.0)
        scale_d = max(abs(ai_complex(z).derivative), 1.0)
        assert abs(total_v) / scale_v < 1e-11
        assert abs(total_d) / scale_d < 1e-11


def _series_coefficient(m: int, j: int) -> Fraction:
    """The coefficient of z**(3m + j) in the series solution of w'' = z w + const
    seeded by 1 at z**j: 1 / prod_{i <= m} (3i + j)(3i + j - 1)."""
    return Fraction(1, math.prod((3 * i + j) * (3 * i + j - 1) for i in range(1, m + 1)))


class TestMaclaurinTable:
    def test_first_omitted_terms_are_below_1e_20_at_the_disc_edge(self):
        # f = sum a_m z**(3m) and g = z sum b_m z**(3m) keep m < n; f' keeps
        # one more term, 3(m + 1) a_{m+1} z**(3m + 2), and g' the terms
        # (3m + 1) b_m z**(3m).
        n = airy._SERIES_TERMS
        a, b = _series_coefficient(n, 0), _series_coefficient(n, 1)
        a_next = _series_coefficient(n + 1, 0)
        r = SERIES_RADIUS
        omitted = (a * r ** (3 * n), b * r ** (3 * n + 1),
                   3 * (n + 1) * a_next * r ** (3 * n + 2), (3 * n + 1) * b * r ** (3 * n))
        assert max(omitted) < 1e-20
        assert len(airy._AIRY_ROWS) == n

    @pytest.mark.parametrize("z", [0.3 + 0.1j, -2.0 + 1.5j, cmath.rect(SERIES_RADIUS, 2.0)])
    def test_horner_sum_matches_the_term_by_term_series(self, z):
        # Term by term to m = 40, each sum held to 8 eps of its terms'
        # magnitudes.
        a = [AI_ZERO * float(_series_coefficient(m, 0)) for m in range(41)]
        b = [AIP_ZERO * float(_series_coefficient(m, 1)) for m in range(41)]
        value_terms = [c * z ** (3 * m) for m, c in enumerate(a)]
        value_terms += [c * z ** (3 * m + 1) for m, c in enumerate(b)]
        deriv_terms = [3 * m * c * z ** (3 * m - 1) for m, c in enumerate(a) if m]
        deriv_terms += [(3 * m + 1) * c * z ** (3 * m) for m, c in enumerate(b)]
        res = airy._maclaurin(z, AI_ZERO, AIP_ZERO, derivative=True)
        for got, terms in ((res.value, value_terms), (res.derivative, deriv_terms)):
            assert abs(got - sum(terms)) <= 8.0 * _EPS * sum(abs(t) for t in terms)


class TestMethodSeams:
    @pytest.mark.parametrize("radius", [SERIES_RADIUS])
    def test_dispatch_switches_continuously_at_the_seam(self, radius):
        z = radius * cmath.exp(0.4j)
        info_in = _ai_info(z * 0.999999, derivative=True)
        info_out = _ai_info(z * 1.000001, derivative=True)
        assert info_in.method != info_out.method
        # The two evaluations sit at distinct points; bound their difference
        # by first-order variation so a seam jump would stand out.
        allowed = 3.0 * abs(info_in.derivative) * abs(z) * 2e-6
        assert abs(info_out.value - info_in.value) < allowed

    def test_series_stops_at_its_disc(self):
        assert _ai_info(SERIES_RADIUS).method == "series"
        assert _ai_info(3.6).method == "integral"

    def test_series_and_integral_overlap(self):
        # Both representations are valid at the seam radius, where the
        # dispatcher takes the series.
        z = SERIES_RADIUS * cmath.exp(0.3j)
        series = ai_complex(z)
        rule = airy._ai_laguerre(z)
        assert (series.method, rule.method) == ("series", "integral")
        assert _rel(series.value - rule.value, rule.value) < 1e-12


class TestRouting:
    @pytest.mark.parametrize(
        "z,expected",
        [
            (1 + 0.5j, "series"),
            (2 - 1j, "series"),
            (5 + 0j, "integral"),
            (20 + 0j, "integral"),
            (-20 + 0j, "rotation"),
            (6 * cmath.exp(2.8j), "rotation"),
        ],
    )
    def test_ai_route_selection(self, z, expected):
        assert _ai_info(z).method == expected

    def test_bi_uses_rotation_pair_off_series_disk(self):
        assert _bi_info(5 + 0j).method == "rotation_pair"

    def test_info_reports_cost_and_error(self):
        info = _ai_info(5 + 0j)
        assert info.n_evaluations > 0
        assert 0.0 <= info.abs_error_estimate < abs(info.value)

    def test_rule_costs_its_nodes_at_every_radius(self):
        sizes = [_ai_info(cmath.rect(r, 0.4)).n_evaluations for r in (3.6, 9.0, 80.0, 1e6)]
        assert sizes == sorted(sizes, reverse=True) and sizes[0] > sizes[-1] == 6
        assert set(sizes) <= {row[3] for row in airy._AI_RIGHT}
        # Bi is two rule evaluations on 0 < |ph z| <= 2*pi/3, where
        # Ai(z e^{2 pi i/3}) would have cost two more through a rotation,
        # and beyond 2*pi/3; one where its two arguments are exact
        # conjugates, as z e^{-2 pi i/3} rounds to conj z at r = 80 on pi/3.
        for r in (3.6, 9.0, 80.0):
            for ph in (1e-9, 0.5, math.pi / 3.0, 2.0 * math.pi / 3.0, 2.5, 3.0):
                z = cmath.rect(r, ph)
                a, b = ((z, z * airy._ROT_MINUS) if ph <= 2.0 * math.pi / 3.0
                        else (z * airy._ROT_PLUS, z * airy._ROT_MINUS))
                cost = _ai_laguerre(a).n_evaluations
                if b != a.conjugate():
                    cost += _ai_laguerre(b).n_evaluations
                assert _bi_info(z).n_evaluations == cost
                assert _bi_info(z.conjugate()).n_evaluations == cost

    @pytest.mark.parametrize("x", [3.6, 6.0, 20.0, 80.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_real_axis_rotations_cost_one_rule(self, x, sign):
        # Ai(-x) and Bi(+-x) take two rotated arguments that are exact
        # conjugates on the axis: one rule evaluation serves both.
        z = complex(sign * x, 0.0)
        ai_method = "integral" if sign > 0.0 else "rotation"
        for res, method in ((ai_complex(z), ai_method), (bi_complex(z), "rotation_pair")):
            arg = z if method == "integral" else z * cmath.exp(2j * math.pi / 3.0)
            assert (res.method, res.n_evaluations) == (method, _ai_laguerre(arg).n_evaluations)
            assert res.value.imag == 0.0 and res.derivative.imag == 0.0

    def test_bi_matches_the_conjugate_pair_formula(self):
        # On 0 < ph z <= 2*pi/3, i Ai(z) + 2 e^{-i pi/6} Ai(z e^{-2 pi i/3})
        # against e^{i pi/6} Ai(z e^{2 pi i/3}) + e^{-i pi/6} Ai(z e^{-2 pi i/3}),
        # each term's derivative held to the relative bar of its value.
        rng = np.random.default_rng(20261019)
        rot = cmath.exp(2j * math.pi / 3.0)
        c1, c5 = cmath.exp(1j * math.pi / 6.0), cmath.exp(5j * math.pi / 6.0)
        for _ in range(200):
            z = cmath.rect(math.exp(rng.uniform(math.log(3.5), math.log(40.0))),
                           rng.uniform(0.0, 2.0 * math.pi / 3.0))
            b = bi_complex(z)
            up, down = ai_complex(z * rot), ai_complex(z / rot)
            value = c1 * up.value + c1.conjugate() * down.value
            deriv = c5 * up.derivative + c5.conjugate() * down.derivative
            cost = ai_complex(z).n_evaluations + down.n_evaluations
            assert b.method == "rotation_pair" and b.n_evaluations == cost
            ref_bar = up.abs_error_estimate + down.abs_error_estimate
            assert abs(b.value - value) <= b.abs_error_estimate + ref_bar
            terms = [(1.0, ai_complex(z)), (2.0, down), (1.0, up), (1.0, down)]
            deriv_bar = sum(c * abs(t.derivative) * t.abs_error_estimate / abs(t.value)
                            for c, t in terms)
            assert abs(b.derivative - deriv) <= deriv_bar

    @pytest.mark.parametrize(
        "bad", [complex("nan"), complex(math.inf, 0.0), complex(1.0, -math.inf)]
    )
    def test_rejects_non_finite_argument(self, bad):
        with pytest.raises(DomainError, match="finite"):
            ai_complex(bad)
        with pytest.raises(DomainError, match="finite"):
            bi_complex(bad)


class TestLaguerreRule:
    def test_embedded_rule_matches_scipy(self):
        # The kept nodes are the smallest of the 40-node rule: the weights
        # fall monotonically past the largest.
        nodes, weights = scipy.special.roots_genlaguerre(40, -1.0 / 6.0)
        assert _NODES_40.size == 25
        assert weights[_NODES_40.size] < 1e-18 * weights.max() < weights[_NODES_40.size - 1]
        nodes, weights = nodes[: _NODES_40.size], weights[: _NODES_40.size]
        np.testing.assert_allclose(_NODES_40, nodes, rtol=1e-14, atol=0.0)
        # Below about 1e-20 scipy's own weights stray from 90-digit values by
        # up to 2.3e-13 relative; they are weighed against the whole sum.
        np.testing.assert_allclose(
            _WEIGHTS_40, weights, rtol=1e-14, atol=1e-14 * weights.sum()
        )

    def test_weights_sum_to_the_weight_integral(self):
        # The integral of exp(-t) t**(-1/6) over [0, inf) is Gamma(5/6);
        # the dropped weights sum to about 1e-19.
        assert math.isclose(_WEIGHTS_40.sum(), math.gamma(5.0 / 6.0), rel_tol=1e-15)

    def test_low_moments_and_a_pole(self):
        # Truncation spoils the high moments (2e-14 at k = 4, 1e-11 at
        # k = 7), not the low ones.
        for k in range(4):
            moment = float(np.dot(_WEIGHTS_40, _NODES_40**k))
            assert moment == pytest.approx(math.gamma(k + 5.0 / 6.0), rel=1e-14)
        # int_0^inf exp(-t) t**(-1/6) dt / (t + a)
        #   = Gamma(5/6) a**(-1/6) e**a Gamma(1/6, a):
        # a pole at t = -a stands in for the integrand's singularity at
        # t = -2 zeta, nearest the nodes on the positive real axis; a = 8.73
        # is 2 zeta at the series seam.
        for a in (2.0 * (2.0 / 3.0) * SERIES_RADIUS**1.5, 12.0, 20.0, 50.0):
            exact = (math.gamma(5.0 / 6.0) * a ** (-1.0 / 6.0) * math.exp(a)
                     * scipy.special.gammaincc(1.0 / 6.0, a) * math.gamma(1.0 / 6.0))
            total = float(np.dot(_WEIGHTS_40, 1.0 / (_NODES_40 + a)))
            assert total == pytest.approx(exact, rel=5e-15)

    @pytest.mark.parametrize("n", [6, 8, 12, 16, 20, 40])
    def test_the_real_path_table_is_the_rule_itself(self, n):
        nodes, weights = getattr(airy, f"_NODES_{n}"), getattr(airy, f"_WEIGHTS_{n}")
        folded, w0, w1 = airy._folded(nodes, weights, 0)
        assert folded is nodes
        assert np.array_equal(w0, weights) and not w0.imag.any()
        assert np.array_equal(w1, weights * nodes) and not w1.imag.any()

    @pytest.mark.parametrize("rules", ["_AI_RIGHT", "_AI_UPPER", "_AI_LOWER"])
    def test_every_folded_table_sums_the_turned_weight(self, rules):
        # Turning the path does not change int_0^inf exp(-t) t**(k - 1/6) dt
        # = Gamma(k + 5/6): the folded weights of I (k = 0) and of dI/dzeta
        # (k = 1) sum to it up to the rule's error on exp(-i s tan).
        for _, _, _, n, nodes, w0, w1, _ in getattr(airy, rules):
            assert n == nodes.size
            assert complex(w0.sum()) == pytest.approx(math.gamma(5.0 / 6.0), rel=1e-15)
            assert complex(w1.sum()) == pytest.approx(math.gamma(11.0 / 6.0), rel=1e-13)

    def test_the_lower_tables_are_the_upper_ones_conjugated(self):
        for upper, lower in zip(airy._AI_UPPER, airy._AI_LOWER, strict=True):
            assert upper[:4] == lower[:4]
            for a, b in zip(upper[4:7], lower[4:7]):
                assert np.array_equal(a.conjugate(), b)


def _above_the_ray(r):
    """A double just above the pi/3 ray at radius ``r``."""
    z = cmath.rect(r, math.pi / 3.0)
    return complex(z.real, z.imag * (1.0 + 4e-16))


class TestHugeArgument:
    """Beyond |zeta| = 1e150 the rule is not evaluated inside |ph z| < pi/3."""

    @pytest.mark.parametrize(
        "z",
        [
            1e250,
            cmath.rect(1e250, 0.5),
            cmath.rect(1e250, -1.0),
            complex(1e300, -0.0),
            1e205,
            cmath.rect(1e150, 0.5),  # zeta * zeta overflowed into a NaN Ai'
            cmath.rect(1e103, -1.0),
            # The double nearest the pi/3 ray lies below it at each of these
            # radii, where 1.5 * atan2 rounds to pi/2 on both sides.  The
            # first two returned a NaN Ai', the last two raised.
            cmath.rect(1e150, math.pi / 3.0),
            cmath.rect(1e200, math.pi / 3.0),
            cmath.rect(1e250, math.pi / 3.0),
            cmath.rect(1e300, math.pi / 3.0),
        ],
    )
    def test_ai_underflows_to_zero_inside_the_sector(self, z):
        info = ai_complex(z)
        assert info.value == 0.0 and info.derivative == 0.0
        assert info.abs_error_estimate == 4.0 * math.ulp(0.0)
        assert (info.method, info.n_evaluations, info.converged) == ("integral", 6, True)

    @pytest.mark.parametrize(
        "z",
        [
            _above_the_ray(1e250),
            cmath.rect(1e250, 1.5),
            1e250j,
            -1e250,
            _above_the_ray(1e104),
            _above_the_ray(1e150),
        ],
    )
    def test_overflow_stands_from_the_pi_over_3_ray_on(self, z):
        assert Fraction(z.imag) ** 2 >= 3 * Fraction(z.real) ** 2 or z.real <= 0.0
        with pytest.raises(OverflowError):
            ai_complex(z)

    @pytest.mark.parametrize(
        "fn,z",
        [(bi_complex, 110.0), (bi_complex, 150.0), (ai_complex, 150j), (bi_complex, 150j),
         (hi, 150.0), (gi, 500j)],
    )
    def test_an_overflowing_exponential_names_itself(self, fn, z):
        # exp(-zeta) of the rule's prefactor leaves the double range; the
        # error names it and the principal-sector argument, not a bare
        # "math range error".
        with pytest.raises(OverflowError, match=r"^Ai: exp\(-zeta\) overflows at z = "):
            fn(z)

    # Ai is finite at these points, and so is Gi through i Ai(z); Ai' and
    # Bi', about sqrt(z) times larger, overflow.  The derivative check
    # belongs to ai_complex and bi_complex only, so Gi keeps its values.
    _DERIVATIVE_OVERFLOWS = [
        (120.82208336924866 + 289.7777022878833j,
         2.6532620452047636e307 - 1.9883853656587292e307j),
        (11.452421712844485 + 143.37327870319035j,
         -1.9465714770559664e306 + 2.5705603929875676e307j),
    ]

    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("z", [z for z, _ in _DERIVATIVE_OVERFLOWS])
    @pytest.mark.parametrize("fn", [ai_complex, bi_complex])
    def test_overflowing_derivative_raises(self, fn, z, conjugate):
        z = z.conjugate() if conjugate else z
        assert cmath.isfinite(_ai_info(z).value)
        with pytest.raises(OverflowError, match="derivative"):
            fn(z)

    @pytest.mark.parametrize("z,value", _DERIVATIVE_OVERFLOWS)
    def test_gi_keeps_its_finite_value_there(self, z, value):
        for arg, expected in ((z, value), (z.conjugate(), value.conjugate())):
            result = gi(arg)
            assert result.method == ("gi_rotation" if arg == z else "conjugate")
            assert result.converged
            assert abs(result.value - expected) <= result.abs_error_estimate


#: Ai picks its branch on a lower-half-plane argument itself, with no fold:
#: points within 2e-15 of its rotation edge 2pi/3 + 1e-15, and just beyond
#: the series disc.
_ROTATION_EDGE_POINTS = [cmath.rect(r, 2.0 * math.pi / 3.0 + 1e-15 + d)
                         for r in (3.6, 7.0, 30.0)
                         for d in (-2e-15, -1e-15, -5e-16, 0.0, 5e-16, 1e-15, 2e-15)]
_SERIES_EDGE_POINTS = [cmath.rect(3.5 * (1.0 + 1e-12), phase)
                       for phase in (1e-9, 0.5, math.pi / 3.0, 2.0, 2.0 * math.pi / 3.0 + 1e-15,
                                     2.5, math.pi - 1e-9)]


class TestGradualUnderflow:
    """Where Re zeta lies between about 708 and 745, Ai is subnormal and its
    relative bar underflows; the absolute floor still covers the error."""

    # Ai(z) from mpmath.airyai at 50 and at 90 digits, which agree on every
    # digit given; the double returned is 1.04 * 2**-1074 away.
    _Z = complex(120.23141598045737, 81.8995705168546)
    _AI = (Fraction("-8.31175346147168456134213805089e-319"),
           Fraction("3.50208056931916204836705611532e-320"))

    @pytest.mark.parametrize("conjugate", [False, True])
    def test_subnormal_value_has_a_bar_that_covers_it(self, conjugate):
        sign = -1 if conjugate else 1
        res = ai_complex(self._Z.conjugate() if conjugate else self._Z)
        assert 0.0 < abs(res.value) < np.finfo(float).tiny and res.converged
        d_re = Fraction(res.value.real) - self._AI[0]
        d_im = Fraction(res.value.imag) - sign * self._AI[1]
        # Compared exactly: at this scale a float difference would round.
        assert 0.0 < res.abs_error_estimate
        assert d_re**2 + d_im**2 <= Fraction(res.abs_error_estimate) ** 2


def _assert_reflected(upper, lower):
    """``lower`` is ``upper`` at the conjugate argument: parts equal as
    numbers (an exact zero may differ in sign), every other field the same."""
    assert lower.value == upper.value.conjugate()
    assert lower.derivative == upper.derivative.conjugate()
    assert (lower.method, lower.n_evaluations, lower.abs_error_estimate, lower.converged) == (
        upper.method, upper.n_evaluations, upper.abs_error_estimate, upper.converged)


class TestConjugateSymmetry:
    @pytest.mark.parametrize(
        "z",
        [
            1 + 1j,
            -2 + 3j,
            4 - 2j,
            -6 - 1j,
            0.3 + 7j,
            12 + 5j,
            # Bi from i Ai(z) and one rotated Ai.
            cmath.rect(5.0, 0.5),
            cmath.rect(9.0, 2.0),
            cmath.rect(3.6, 1e-9),
            *_ROTATION_EDGE_POINTS,
            *_SERIES_EDGE_POINTS,
        ],
    )
    def test_schwarz_reflection_is_exact(self, z):
        for fn in (ai_complex, bi_complex):
            _assert_reflected(fn(z), fn(z.conjugate()))

    def test_schwarz_reflection_over_the_plane(self):
        # Every phase, 0.3 <= |z| <= 200: the series, the rule, Ai's
        # rotation and both of Bi's formulas, each computed below the axis
        # on its own.  Beyond |z| of about 100 near the axes a value
        # overflows; then it must overflow on both sides.
        rng = np.random.default_rng(20261020)
        for _ in range(300):
            z = cmath.rect(math.exp(rng.uniform(math.log(0.3), math.log(200.0))),
                           rng.uniform(0.0, math.pi))
            for fn in (ai_complex, bi_complex):
                try:
                    upper = fn(z)
                except OverflowError:
                    with pytest.raises(OverflowError):
                        fn(z.conjugate())
                    continue
                _assert_reflected(upper, fn(z.conjugate()))

    @pytest.mark.parametrize("z", [cmath.rect(5.0, -1.0), cmath.rect(5.0, -2.5),
                                   cmath.rect(3.6, -1e-9)])
    def test_bi_below_the_axis_is_one_dispatch(self, z, monkeypatch):
        calls = []
        dispatch = airy._bi_info

        def counting(w, derivative=False):
            calls.append(w)
            return dispatch(w, derivative)

        monkeypatch.setattr(airy, "_bi_info", counting)
        bi_complex(z)
        assert calls == [z]

    def test_real_axis_values_are_real(self):
        for x in (-7.0, -2.0, 0.5, 3.0, 3.6, 11.0, 40.0):
            for fn in (ai_complex, bi_complex):
                res = fn(complex(x, 0.0))
                assert res.value.imag == 0.0
                assert res.derivative.imag == 0.0

    @pytest.mark.parametrize("x", [-20.0, -9.0, -5.0, -2.0, 5.0, 11.0])
    def test_negative_zero_imaginary_part_is_the_axis(self, x):
        for fn in (ai_complex, bi_complex):
            above, below = fn(complex(x, 0.0)), fn(complex(x, -0.0))
            assert below.value == above.value
            assert below.derivative == above.derivative
            assert below.method == above.method


def _one_argument_rule(z: complex) -> airy.ScorerResult:
    """Ai and Ai' at ``z`` by one rule pass on ``z`` alone: the
    one-argument Laplace sum written out on its own, an independent oracle
    of the paired pass (``|zeta|`` below ``_ZETA_CAP``)."""
    phase = 1.5 * math.atan2(z.imag, z.real)
    modulus = (2.0 / 3.0) * abs(z) ** 1.5
    zeta = cmath.rect(modulus, phase)
    x, y = zeta.real, abs(zeta.imag)
    rules = airy._AI_RIGHT if x >= 0.0 else airy._AI_UPPER if phase > 0.0 else airy._AI_LOWER
    for reach, c, s, n, nodes, w0, w1, _ in rules:
        if modulus + c * x + s * y >= reach:
            break
    q = 2.0 + nodes / zeta
    g = np.power(q, -1.0 / 6.0)
    s0, s1 = complex(g.dot(w0)), complex((g / q).dot(w1))
    pref = airy._LAPLACE_NORM * cmath.exp(
        complex(-zeta.real - math.log(modulus) / 6.0, -zeta.imag - phase / 6.0))
    value = pref * s0
    ds = s1 / (6.0 * zeta * zeta) - (1.0 + 1.0 / (6.0 * zeta)) * s0
    err = max((airy._EPS * (6.0 * modulus + 8.0) + airy._TRUNCATION_BAR) * abs(value),
              airy._UNDERFLOW_BAR)
    return airy.ScorerResult(value, "integral", err, n, True, pref * cmath.sqrt(z) * ds)


def _paired_draws() -> list[complex]:
    """2000 seeded points with 3.5 < |z| <= 1e4 over every phase, and the
    edges where a pair's rules or its formula change: within 2e-15 of the
    rotation edge, within 1e-15 of the pi/3 ray (where Re zeta changes
    sign), on the rays +-2*pi/3 and next to the negative real axis; each edge
    on both sides of the real axis."""
    rng = np.random.default_rng(20261030)
    draws = [cmath.rect(math.exp(rng.uniform(math.log(3.5), math.log(1e4))),
                        rng.uniform(-math.pi, math.pi)) for _ in range(2000)]
    edges = [airy._ROTATION_EDGE + k * 5e-16 for k in range(-4, 5)]
    edges += [math.pi / 3.0 + k * 2.5e-16 for k in range(-4, 5)]
    edges += [2.0 * math.pi / 3.0, math.pi - 1e-15, math.pi - 1e-9]
    for r in (3.5 * (1.0 + 1e-12), 3.6, 5.0, 9.0, 30.0, 200.0, 1e3, 1e4):
        draws += [cmath.rect(r, sign * phase) for phase in edges for sign in (1.0, -1.0)]
    return draws


class TestPairedRule:
    """Bi's two formulas and Ai's rotation take both of their Ai values from
    one rule pass."""

    def test_tables_are_the_two_rules_side_by_side(self):
        rows = airy._AI_RIGHT + airy._AI_UPPER + airy._AI_LOWER
        assert [row[7] for row in rows] == list(range(len(rows)))
        left = airy._AI_UPPER + airy._AI_LOWER
        assert len(airy._PAIRED) == len(airy._AI_RIGHT) * len(left)
        for a in airy._AI_RIGHT:
            for b in left:
                nodes, w0, w1 = airy._PAIRED[a[7], b[7]]
                na = a[3]
                assert np.array_equal(nodes, np.concatenate((a[4], -b[4])))
                for w, k in ((w0, 5), (w1, 6)):
                    assert w.shape == (2, na + b[3]) and w.flags.c_contiguous
                    assert np.array_equal(w[0, :na], a[k]) and not w[0, na:].any()
                    assert np.array_equal(w[1, na:], b[k]) and not w[1, :na].any()

    def test_paired_pass_matches_two_one_argument_passes(self, monkeypatch):
        # Every pair the dispatchers form, against the oracle at each of its
        # two arguments: the same rule, each value within the sum of both
        # bars and each finite derivative within the same relative bars; a
        # one-argument pass equals the oracle bit for bit.  Where a pass
        # overflows, the oracle overflows at one of its arguments.
        # The partner of an exact-conjugate pair takes its argument's
        # evaluation and counts none.
        calls = []

        def spy(rule, n_args):
            def recording(*args):
                try:
                    out = rule(*args)
                except OverflowError:
                    calls.append((args[:n_args], None))
                    raise
                calls.append((args[:n_args], (out,) if n_args == 1 else out))
                return out
            return recording

        monkeypatch.setattr(airy, "_ai_laguerre", spy(airy._ai_laguerre, 1))
        monkeypatch.setattr(airy, "_ai_pair", spy(airy._ai_pair, 2))
        for z in _paired_draws():
            for fn in (ai_complex, bi_complex):
                try:
                    fn(z)
                except OverflowError:
                    pass
        pairs = 0
        for args, results in calls:
            if results is None:
                with pytest.raises(OverflowError):
                    for w in args:
                        _one_argument_rule(w)
                continue
            pairs += len(args) == 2
            for k, (w, res) in enumerate(zip(args, results, strict=True)):
                ref = _one_argument_rule(w)
                if len(args) == 1:
                    assert res == ref
                    continue
                shared = k == 1 and w == args[0].conjugate()
                assert (res.method, res.n_evaluations, res.converged) == (
                    "integral", 0 if shared else ref.n_evaluations, True)
                bar = res.abs_error_estimate + ref.abs_error_estimate
                assert abs(res.value - ref.value) <= bar
                if ref.value and ref.derivative and cmath.isfinite(ref.derivative):
                    assert (abs(res.derivative - ref.derivative) / abs(ref.derivative)
                            <= bar / abs(ref.value))
        assert pairs > 1500

    @pytest.mark.parametrize(
        "z",
        [x * airy._ROT_PLUS for x in (3.6, -3.6, 20.0, -20.0)]
        + [complex(40.00000000000001, 69.28203230275508)],
    )
    def test_exact_conjugates_share_one_evaluation(self, z):
        # The rotated pair of a real argument, and r = 80 on pi/3, where
        # z e^{-2 pi i/3} rounds to conj z: the partner's result is the
        # one-argument pass at conj z bit for bit, at no cost.
        first, second = airy._ai_pair(z, z.conjugate(), True)
        assert first == _ai_laguerre(z, True)
        assert second == dataclasses.replace(_ai_laguerre(z.conjugate(), True), n_evaluations=0)

    def test_bi_formula_shares_where_its_arguments_are_conjugates(self):
        # i Ai(z) + 2 e^{-i pi/6} Ai(z e^{-2 pi i/3}) costs one rule there.
        z = complex(40.00000000000001, 69.28203230275508)
        assert z * airy._ROT_MINUS == z.conjugate()
        for w in (z, z.conjugate()):
            assert bi_complex(w).n_evaluations == _ai_laguerre(w).n_evaluations

    def test_conjugate_symmetry_is_exact_on_the_draws(self):
        # The pass at conj z is the conjugate of the pass at z: it divides by
        # zeta of the argument with Re zeta >= 0, whichever argument comes
        # first.  A value that overflows must overflow on both sides.
        for z in _paired_draws():
            for fn in (ai_complex, bi_complex):
                try:
                    upper = fn(z)
                except OverflowError:
                    with pytest.raises(OverflowError):
                        fn(z.conjugate())
                    continue
                _assert_reflected(upper, fn(z.conjugate()))


class TestValueOnlyPass:
    """The private dispatchers form Ai' and Bi' only with ``derivative``."""

    @staticmethod
    def _draws() -> list[complex]:
        """The paired draws, seeded points of the series disc and points
        where Ai underflows to 0, on both sides of the real axis."""
        rng = np.random.default_rng(20261021)
        draws = _paired_draws()
        draws += [cmath.rect(rng.uniform(0.0, SERIES_RADIUS), rng.uniform(-math.pi, math.pi))
                  for _ in range(200)]
        draws += [complex(x, sign * 0.0) for x in (-9.0, -3.6, -2.0, 0.0, 2.0, 3.6, 9.0)
                  for sign in (1.0, -1.0)]
        draws += [cmath.rect(1e200, sign * 0.3) for sign in (1.0, -1.0)]
        return draws

    @pytest.mark.parametrize("dispatch", [_ai_info, _bi_info])
    def test_value_only_pass_is_the_derivative_pass_without_it(self, dispatch):
        # Value, route, bar, count and convergence bit for bit, and no
        # derivative; where one pass overflows, so does the other.
        for z in self._draws():
            try:
                full = dispatch(z, derivative=True)
            except OverflowError:
                with pytest.raises(OverflowError):
                    dispatch(z)
                continue
            assert full.derivative is not None
            assert dispatch(z) == dataclasses.replace(full, derivative=None)

    def test_public_functions_ask_for_the_derivative(self, monkeypatch):
        asked = []
        for name in ("_ai_info", "_bi_info"):
            def spy(z, derivative=False, _dispatch=getattr(airy, name)):
                asked.append(derivative)
                return _dispatch(z, derivative)

            monkeypatch.setattr(airy, name, spy)
        for z in (2.0 + 1j, 5.0, cmath.rect(6.0, 2.5), cmath.rect(6.0, -1.0)):
            assert ai_complex(z).derivative is not None
            assert bi_complex(z).derivative is not None
        assert asked == [True] * 8


class TestScipyCrossSweep:
    def test_seeded_sweep_against_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(80):
            r = rng.uniform(0.05, 25.0)
            ph = rng.uniform(-math.pi, math.pi)
            z = complex(r * math.cos(ph), r * math.sin(ph))
            ai_ref, aip_ref, bi_ref, bip_ref = scipy.special.airy(z)
            a = ai_complex(z)
            b = bi_complex(z)
            for mine, ref in (
                (a.value, ai_ref),
                (a.derivative, aip_ref),
                (b.value, bi_ref),
                (b.derivative, bip_ref),
            ):
                assert _rel(mine - ref, ref) < 1e-12
