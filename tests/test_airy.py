"""Tests for the complex Airy evaluator underpinning the connection formulas."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
import scipy.special

from scorerlib.airy import (
    AI_ZERO,
    AIP_ZERO,
    BI_ZERO,
    BIP_ZERO,
    SERIES_RADIUS,
    ai_complex,
    ai_maclaurin,
    bi_complex,
)
from scorerlib.airy import _NODES, _WEIGHTS, _ai_info, _bi_info
from scorerlib.contour import DomainError

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


class TestMethodSeams:
    @pytest.mark.parametrize("radius", [SERIES_RADIUS])
    def test_dispatch_switches_continuously_at_the_seam(self, radius):
        z = radius * cmath.exp(0.4j)
        info_in = _ai_info(z * 0.999999)
        info_out = _ai_info(z * 1.000001)
        assert info_in.method != info_out.method
        # The two evaluations sit at distinct points; bound their difference
        # by first-order variation so a seam jump would stand out.
        allowed = 3.0 * abs(info_in.derivative) * abs(z) * 2e-6
        assert abs(info_out.value - info_in.value) < allowed

    def test_series_and_integral_overlap(self):
        # Both representations are valid near the seam radius.
        z = SERIES_RADIUS * cmath.exp(0.3j)
        series = ai_maclaurin(z)
        direct = ai_complex(z)
        assert _rel(series.value - direct.value, direct.value) < 1e-12


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

    def test_rule_costs_forty_evaluations_at_every_radius(self):
        for r in (3.6, 9.0, 80.0, 1e6):
            assert _ai_info(cmath.rect(r, 0.4)).n_evaluations == 40
        assert _bi_info(20 + 0j).n_evaluations == 80

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
        nodes, weights = scipy.special.roots_genlaguerre(40, -1.0 / 6.0)
        np.testing.assert_allclose(_NODES, nodes, rtol=1e-14, atol=0.0)
        # Below about 1e-20 scipy's own weights stray from 90-digit values by
        # up to 2.3e-13 relative; they are weighed against the whole sum.
        np.testing.assert_allclose(
            _WEIGHTS, weights, rtol=1e-14, atol=1e-14 * weights.sum()
        )

    def test_weights_sum_to_the_weight_integral(self):
        # The integral of exp(-t) t**(-1/6) over [0, inf) is Gamma(5/6).
        assert math.isclose(_WEIGHTS.sum(), math.gamma(5.0 / 6.0), rel_tol=1e-15)


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
        ],
    )
    def test_ai_underflows_to_zero_inside_the_sector(self, z):
        info = ai_complex(z)
        assert info.value == 0.0 and info.derivative == 0.0
        assert info.abs_error_estimate == 0.0
        assert (info.method, info.n_evaluations, info.converged) == ("integral", 40, True)

    @pytest.mark.parametrize(
        "z", [cmath.rect(1e250, math.pi / 3.0), cmath.rect(1e250, 1.5), 1e250j, -1e250]
    )
    def test_overflow_stands_from_the_pi_over_3_ray_on(self, z):
        with pytest.raises(OverflowError):
            ai_complex(z)


class TestConjugateSymmetry:
    @pytest.mark.parametrize(
        "z", [1 + 1j, -2 + 3j, 4 - 2j, -6 - 1j, 0.3 + 7j, 12 + 5j]
    )
    def test_schwarz_reflection_is_exact(self, z):
        upper = ai_complex(z)
        lower = ai_complex(z.conjugate())
        assert lower.value == upper.value.conjugate()
        assert lower.derivative == upper.derivative.conjugate()
        upper = bi_complex(z)
        lower = bi_complex(z.conjugate())
        assert lower.value == upper.value.conjugate()
        assert lower.derivative == upper.derivative.conjugate()

    def test_real_axis_values_are_real(self):
        for x in (-7.0, -2.0, 0.5, 3.0, 11.0):
            assert ai_complex(complex(x, 0.0)).value.imag == 0.0
            assert bi_complex(complex(x, 0.0)).value.imag == 0.0

    @pytest.mark.parametrize("x", [-20.0, -9.0, -5.0, -2.0, 5.0, 11.0])
    def test_negative_zero_imaginary_part_is_the_axis(self, x):
        for fn in (ai_complex, bi_complex):
            above, below = fn(complex(x, 0.0)), fn(complex(x, -0.0))
            assert below.value == above.value
            assert below.derivative == above.derivative
            assert below.method == above.method


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
