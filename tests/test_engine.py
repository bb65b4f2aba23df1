"""Tests for the sector-dispatched evaluation engine."""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
import pytest

import scorerlib.airy
import scorerlib.contour
from scorerlib.airy import BI_ZERO, BIP_ZERO, ai_complex, bi_complex
from scorerlib.contour import DomainError
from scorerlib.engine import (
    GI_AT_ZERO,
    GI_DERIV_AT_ZERO,
    HI_AT_ZERO,
    HI_DERIV_AT_ZERO,
    NEAR_AXIS_PHASE,
    STOKES_BAND,
    gi,
    gi_asymptotic,
    gi_from_hi_rotations,
    gi_hi_pair,
    gi_integral,
    gi_real_positive,
    gi_series,
    hi,
    hi_asymptotic,
    hi_connection,
    hi_integral_principal,
    hi_integral_upper,
    hi_integral_v_form,
    hi_series,
)

_PI = math.pi
_ROT_UP = cmath.exp(2j * _PI / 3.0)
_ROT_DOWN = cmath.exp(-2j * _PI / 3.0)

# Reference values computed with mpmath at padded precision and frozen; each
# entry maps z to (first solution, second solution) of w'' - z w = -+1/pi.
# The second solution's reference is mpmath's own evaluator; the first is
# reconstructed as Bi minus the second because the direct mpmath routine for
# it loses the exponentially small component at large |z| (verified against
# the defining integral at every radius used here).
_REFERENCE = {
    (19.900083305560518 + 1.996668332936563j): (
        (0.015839655561256955 - 0.0015904540885509977j),
        (-9.241767330164112e24 + 5.529572711409045e24j),
    ),
    (-6.6583493847542785 + 14.548758829210907j): (
        (7.352995661192926e16 + 3.034914697234336e17j),
        (0.008280384892904944 + 0.018099555791944704j),
    ),
    (-38.838326605983625 + 9.569973168559297j): (
        (1.0767546320572486e24 + 1.0325550477658652e25j),
        (0.007726498244633154 + 0.001903681125211686j),
    ),
    (3 + 0j): ((0.11422886892313992 + 0j), (13.923100094807092 + 0j)),
    (7.5 + 0j): ((0.04265390491564819 + 0j), (303229.5724586285 + 0j)),
    (10 + 0j): ((0.03189600510067959 + 0j), (455641153.5163291 + 0j)),
    (1 + 0j): ((0.23521843981043794 + 0j), (0.9722051551424333 + 0j)),
    (0.5 + 0j): ((0.2447210432765582 + 0j), (0.6095559998265973 + 0j)),
    (-2.3540044690213833 + 3.2339856152783604j): (
        (-11.210510482148145 + 37.5152864824176j),
        (0.049706910657034094 + 0.06530355307850597j),
    ),
    (-7.919939972803563 + 1.1289600644789377j): (
        (-4.039455287201927 + 0.57909178933037j),
        (0.03926259788679811 + 0.005536121473189596j),
    ),
    (-5 + 0j): ((-0.2011324087519071 + 0j), (0.06276327385030654 + 0j)),
    (2.7631829820086553 + 1.1682550269259515j): (
        (0.10530581810042831 - 0.05279834927269832j),
        (-2.125256521439776 + 7.376863971475769j),
    ),
    (2.701511529340699 + 4.207354924039483j): (
        (0.14326442496655034 - 0.03316570485246204j),
        (0.3673440585180583 + 0.5505994624784183j),
    ),
    (-3.2328956686350336 + 9.463000876874144j): (
        (23270289.686113566 + 90608192.92213117j),
        (0.01027360736732718 + 0.030184144886284382j),
    ),
    (13.374710847758484 + 4.137282893258754j): (
        (0.021726873487921673 - 0.0067346217084403364j),
        (-10983093662680.115 + 7416407721315.678j),
    ),
    (5.998800039999466 + 0.11999200015999847j): (
        (0.05359438736632067 - 0.0011100801533467893j),
        (6238.3724387637485 + 1852.4998712701865j),
    ),
    (11.990401279931735 + 0.4798720102396099j): (
        (0.02653526788142568 - 0.0010657443981996959j),
        (-25330341246.414005 + 312738050495.00336j),
    ),
    (1.4494310179066945 + 3.728156343868905j): (
        (-0.45377100345809107 + 0.3944213018377666j),
        (-0.008917415179022673 - 0.044464066785526224j),
    ),
    (-1.8176167575446969 + 7.790781047025561j): (
        (80993.3316518665 + 115460.27365295035j),
        (0.00893948795667149 + 0.0388709737514257j),
    ),
    (5.896749578532505 + 11.585695680798661j): (
        (0.023429965101868868 + 1.7389582455464048j),
        (0.010362204749944252 + 0.008848387855954414j),
    ),
    (4.387912809451864 + 2.397127693021015j): (
        (0.054625560570161026 - 0.030978193871160634j),
        (20.712153469671957 - 86.24783460575769j),
    ),
    (5.59448971443598 + 7.049942186647351j): (
        (0.019137635921647092 - 0.026132412297759325j),
        (0.9091082124976533 - 16.743410252338364j),
    ),
    (13.720932089777383 + 2.781370631130857j): (
        (0.022294770825595497 - 0.004529038588139543j),
        (-59829273744372.94 - 67397512152779.64j),
    ),
    (-4 + 0j): ((0.3146693490272956 + 0j), (0.07756535667970371 + 0j)),
    (-8.738623486346315 + 2.153243962925842j): (
        (36.96717367486301 - 88.93243050812136j),
        (0.03428528628114391 + 0.008384384537459056j),
    ),
    (-1.7655033517660375 + 2.4254892114587703j): (
        (-0.009573911688401672 + 6.6216295153690865j),
        (0.07147342137525152 + 0.08572771083798682j),
    ),
    (-11.306668088023898 + 4.019857801870861j): (
        (119954.7286421353 - 13291.14393652127j),
        (0.024986742302012643 + 0.008856019543597703j),
    ),
    (1 + 1j): (
        (0.2684847033709307 - 0.07988957117667732j),
        (0.4481733700118377 + 0.6997788615775221j),
    ),
    (-2 + 1j): (
        (-0.9910817943387644 + 0.43108706295797683j),
        (0.12413840761351029 + 0.04901104068267466j),
    ),
    (-2.2613336176047794 + 0.8039715603741723j): (
        (-0.9457615903909699 + 0.051953049776789606j),
        (0.11903619050390596 + 0.03461329241259051j),
    ),
    (1.2 - 0.9j): (
        (0.2388455650247489 + 0.07341715098158032j),
        (0.6025680251052646 - 0.8610772763056099j),
    ),
    (1 + 0.2j): (
        (0.23686822053669013 - 0.009936760139914354j),
        (0.9466106912102578 + 0.1935861129586728j),
    ),
    (-0.4999999999999998 + 0.8660254037844387j): (
        (0.24283001356616668 + 0.2853015047863588j),
        (0.2347758893715545 + 0.13605893615793951j),
    ),
    (-1 + 0j): ((-0.11667221729601528 + 0j), (0.22066960679295988 + 0j)),
    (-2.499999999999999 + 4.330127018922194j): (
        (164.41559806526 + 284.776061061424j),
        (0.032553721074050884 + 0.056168010019409687j),
    ),
    2j: (
        (0.9288150292308093 - 0.25614582076849246j),
        (0.056556892927887174 + 0.2437252654586673j),
    ),
    (1.2254623226524721 + 2.738291820781563j): (
        (-0.14814961473832616 - 0.40294481680635297j),
        (-0.2927325222704016 + 0.09771790798800448j),
    ),
    (-2.080734182735712 + 4.546487134128409j): (
        (305.12515106837276 + 6.1942866729882216j),
        (0.02671639215240754 + 0.0592046901437666j),
    ),
    (-8.660254037844387 + 4.999999999999999j): (
        (-470656.8722904904 - 53432.946364906464j),
        (0.027597144608662926 + 0.015859789167948682j),
    ),
    (-86.60254037844388 + 49.99999999999999j): (
        (2.2419634840912175e203 + 4.213904438237567e203j),
        (0.0027566476600975527 + 0.001591543917566343j),
    ),
    (-0.8660254037844387 + 0.49999999999999994j): (
        (-0.017937541925915963 + 0.2316629171441354j),
        (0.22331566483328041 + 0.06213302074555895j),
    ),
}

_KNOWN_METHODS = {
    "series",
    "asymptotic",
    "hi_path_u",
    "hi_path_v",
    "hi_path_upper",
    "gi_path_u",
    "gi_real_axis",
    "hi_rotation",
    "gi_rotation_pair",
    "bi_identity",
    "conjugate",
}


def _rel(err: complex, ref: complex) -> float:
    return abs(err) / max(abs(ref), 1e-300)


def _points(keys):
    return sorted(keys, key=lambda w: (abs(w), w.real, w.imag))


def _series_scorer_derivatives(
    z: complex, c0: float, c1: float, c2: float
) -> tuple[complex, complex, complex]:
    """Value, first, and second derivative by term-wise differentiated sums.

    Each derivative is summed independently, so the identity
    ``w'' - z w = 2 c2`` holds only up to rounding; this probes the
    differential equation without circular arithmetic.
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
        if step <= 0.25 * np.finfo(float).eps * (abs(w2) + 1e-300) and m >= 2:
            break
    return w, w1, w2


class TestFrozenReferenceValues:
    @pytest.mark.parametrize("z", _points(_REFERENCE))
    def test_oscillatory_solution_matches_reference(self, z):
        ref, _ = _REFERENCE[z]
        res = gi(z)
        assert res.converged
        assert res.method in _KNOWN_METHODS
        assert _rel(res.value - ref, ref) < 5e-12

    @pytest.mark.parametrize("z", _points(_REFERENCE))
    def test_growing_solution_matches_reference(self, z):
        _, ref = _REFERENCE[z]
        res = hi(z)
        assert res.converged
        assert res.method in _KNOWN_METHODS
        assert _rel(res.value - ref, ref) < 5e-12

    @pytest.mark.parametrize("z", _points(_REFERENCE))
    def test_error_estimates_are_honest(self, z):
        gref, href = _REFERENCE[z]
        for res, ref in ((gi(z), gref), (hi(z), href)):
            actual = abs(res.value - ref)
            assert actual <= 10.0 * res.abs_error_estimate + 1e-14 * abs(ref)


class TestOriginValues:
    def test_closed_form_seeds(self):
        third = 1.0 / 3.0
        bi0 = 3.0 ** (-1.0 / 6.0) / math.gamma(2.0 * third)
        bip0 = 3.0 ** (1.0 / 6.0) / math.gamma(third)
        assert math.isclose(GI_AT_ZERO, bi0 / 3.0, rel_tol=1e-15)
        assert math.isclose(GI_DERIV_AT_ZERO, bip0 / 3.0, rel_tol=1e-15)
        assert math.isclose(HI_AT_ZERO, 2.0 * bi0 / 3.0, rel_tol=1e-15)
        assert math.isclose(HI_DERIV_AT_ZERO, 2.0 * bip0 / 3.0, rel_tol=1e-15)

    def test_one_two_three_ratios(self):
        # Values at the origin stand in ratio 1 : 2 : 3 with Bi's.
        assert math.isclose(HI_AT_ZERO, 2.0 * GI_AT_ZERO, rel_tol=1e-15)
        assert math.isclose(BI_ZERO, 3.0 * GI_AT_ZERO, rel_tol=1e-15)
        assert math.isclose(HI_DERIV_AT_ZERO, 2.0 * GI_DERIV_AT_ZERO, rel_tol=1e-15)
        assert math.isclose(BIP_ZERO, 3.0 * GI_DERIV_AT_ZERO, rel_tol=1e-15)

    def test_engine_reproduces_origin(self):
        assert abs(gi(0j).value - GI_AT_ZERO) < 1e-13
        assert abs(hi(0j).value - HI_AT_ZERO) < 1e-13
        assert gi(0j).method == "series"


class TestSeries:
    @pytest.mark.parametrize("phase", [0.0, 0.7, 1.9, 2.8, -1.1, -2.5])
    def test_differential_equation_residual(self, phase):
        # Sum value and derivatives independently; w'' - z w must hit the
        # inhomogeneous constant without circular arithmetic.
        z = cmath.exp(1j * phase)
        for c0, c1, rhs in (
            (GI_AT_ZERO, GI_DERIV_AT_ZERO, -1.0 / _PI),
            (HI_AT_ZERO, HI_DERIV_AT_ZERO, 1.0 / _PI),
        ):
            w, _, w2 = _series_scorer_derivatives(z, c0, c1, rhs / 2.0)
            assert abs(w2 - z * w - rhs) < 1e-10

    def test_series_matches_reference_inside_disk(self):
        ref, _ = _REFERENCE[1 + 1j]
        assert _rel(gi_series(1 + 1j).value - ref, ref) < 1e-13
        _, ref = _REFERENCE[2j]
        assert _rel(hi_series(2j).value - ref, ref) < 1e-13

    def test_series_rejects_large_argument(self):
        with pytest.raises(DomainError, match="series"):
            gi_series(2.6 + 0j)
        with pytest.raises(DomainError):
            hi_series(-3j)


class TestAsymptotics:
    def test_warns_when_expansion_cannot_converge(self):
        # Below the radius where the second term overtakes the first the
        # expansion is useless and must say so.
        with pytest.warns(RuntimeWarning, match="diverges"):
            hi_asymptotic(2.0 + 0j, n_terms=3)
        with pytest.warns(RuntimeWarning):
            gi_asymptotic(-2.5 + 0.4j, n_terms=2)

    def test_silent_at_comfortable_radius(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hi_asymptotic(-10 + 1j, n_terms=3)
            gi_asymptotic(20 + 3j)

    def test_leading_term_and_sign_convention(self):
        z = -30 + 4j
        href = hi_asymptotic(z, n_terms=0).value
        gref = gi_asymptotic(-z, n_terms=0).value
        assert _rel(href - (-1.0 / (_PI * z)), -1.0 / (_PI * z)) < 1e-15
        assert _rel(gref - (1.0 / (_PI * (-z))), 1.0 / (_PI * (-z))) < 1e-15

    @pytest.mark.parametrize(
        "fn,z,sign",
        [
            (gi, 1e200 + 0j, 1.0),
            (hi, -1e200j, -1.0),
            (hi, -1e300 + 0j, -1.0),
            (hi, -1e210 + 0j, -1.0),
            (gi, 1e300 + 0j, 1.0),
        ],
    )
    def test_huge_argument_stays_finite(self, fn, z, sign):
        # z**3 overflows here; the series must be built from 1/z instead.
        # Beyond |z| = 1e205 so does |z|**1.5 in the gate's exponential bound.
        res = fn(z)
        leading = sign / (_PI * z)
        assert cmath.isfinite(res.value)
        assert math.isfinite(res.abs_error_estimate)
        assert _rel(res.value - leading, leading) < 1e-15

    def test_three_term_truncation_error_shrinks_with_radius(self):
        # Same direction, growing radius: the truncated tail must shrink.
        direction = cmath.exp(1j * 5.0 * _PI / 6.0)
        errors = []
        for r in (10.0, 30.0, 100.0):
            z = r * direction
            ref = hi(z).value
            approx = hi_asymptotic(z, n_terms=3).value
            errors.append(_rel(approx - ref, ref))
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] > 1e-10  # visibly imperfect at the smallest radius
        assert errors[2] < 1e-12

    def test_optimal_truncation_stops_at_smallest_term(self):
        # With n_terms unset the sum stops at the smallest term, which at
        # this radius is ~1e-4; forcing more terms adds divergent garbage.
        z = 6.0 * cmath.exp(1j * 2.9)
        ref = hi(z).value
        auto = hi_asymptotic(z)
        forced = hi_asymptotic(z, n_terms=8)
        assert _rel(auto.value - ref, ref) < 1e-3
        assert _rel(auto.value - ref, ref) < _rel(forced.value - ref, ref)
        assert auto.abs_error_estimate >= abs(auto.value - ref)

    @pytest.mark.parametrize(
        "fn,z,ref",
        [
            # Frozen mpmath references, dps 50 and 90 agreeing: scorerhi, and
            # airybi - scorerhi for Gi.
            (hi, 6.4704761275630185 + 24.148145657226706j,
             -0.0032961992963253337 + 0.012297138734757457j),
            (gi, 14.562305898749054 + 10.580134541264517j,
             0.01430164906578656 - 0.010397870183205257j),
        ],
    )
    def test_error_bar_covers_neglected_exponential(self, fn, z, ref):
        # hi(25 e^{5 pi i/12}) and gi(18 e^{i pi/5}): the expansion is
        # eligible, but the exponentially small part it omits (about 3e-13
        # and 8e-13 relative) dominates the truncation error.
        res = fn(z)
        assert res.method == "asymptotic"
        assert abs(res.value - ref) <= res.abs_error_estimate < 1e-11 * abs(ref)

    def test_error_bar_outside_the_expansion_sector(self):
        # Direct calls off the expansion's sector omit an exponentially
        # large part; the estimate says so instead of overflowing.
        assert hi_asymptotic(40.0).abs_error_estimate > 1e60
        assert hi_asymptotic(1000.0).abs_error_estimate == math.inf
        assert gi_asymptotic(1000j).abs_error_estimate == math.inf

    def test_dispatch_refuses_growing_solution_on_positive_axis(self):
        # The algebraic expansion omits an exponentially LARGE part there;
        # the gate must route elsewhere no matter the radius.
        res = hi(40 + 0j)
        assert res.method != "asymptotic"
        ref = 455641153.5163291  # frozen at z = 10; just confirm growth route
        assert hi(10 + 0j).value.real == pytest.approx(ref, rel=5e-12)


class TestCrossRepresentationAgreement:
    def test_principal_contour_vs_folded_form(self):
        z = 10.0 * cmath.exp(1j * 5.0 * _PI / 6.0)
        a = hi_integral_principal(z)
        b = hi_integral_v_form(z)
        assert a.method == "hi_path_u"
        assert b.method == "hi_path_v"
        assert _rel(a.value - b.value, a.value) < 1e-11

    def test_valley_contour_vs_rotation_connection(self):
        z = 3j
        a = hi_integral_upper(z)
        b = hi_connection(z)
        assert a.method == "hi_path_upper"
        assert b.method == "hi_rotation"
        assert _rel(a.value - b.value, a.value) < 1e-11

    def test_oscillatory_contour_vs_rotation_pair(self):
        z = 1 + 0.2j
        a = gi_integral(z)
        b = gi_from_hi_rotations(z)
        assert a.method == "gi_path_u"
        assert b.method == "gi_rotation_pair"
        assert _rel(a.value - b.value, a.value) < 1e-11

    @pytest.mark.parametrize("x", [0.25, 0.8, 1.7, 2.4])
    def test_positive_axis_contour_vs_series(self, x):
        a = gi_real_positive(x)
        b = gi_series(complex(x, 0.0))
        assert a.method == "gi_real_axis"
        assert _rel(a.value - b.value, b.value) < 1e-11

    def test_stokes_band_identity_vs_direct_contour(self):
        z = 5.0 * cmath.exp(1j * (2.0 * _PI / 3.0 - 0.01))
        routed = gi(z)
        direct = gi_integral(z)
        assert routed.method == "bi_identity"
        assert _rel(routed.value - direct.value, direct.value) < 1e-9

    def test_near_axis_rotations_vs_direct_contour(self):
        z = 5.0 * cmath.exp(0.01j)
        routed = gi(z)
        direct = gi_integral(z)
        assert routed.method == "gi_rotation_pair"
        assert _rel(routed.value - direct.value, direct.value) < 1e-9


class TestSumIdentity:
    def test_seeded_grid(self):
        rng = np.random.default_rng(97)
        for _ in range(80):
            r = rng.uniform(0.1, 20.0)
            ph = rng.uniform(-_PI, _PI)
            z = complex(r * math.cos(ph), r * math.sin(ph))
            g = gi(z).value
            h = hi(z).value
            b = bi_complex(z).value
            scale = max(abs(g), abs(h), abs(b))
            assert abs(g + h - b) / scale < 1e-11

    def test_identity_detects_sign_mutation(self, monkeypatch):
        # Flip the contour Jacobian's imaginary part at a point where the
        # two solutions take independent routes (contour vs rotation); the
        # sum identity must catch the corruption.
        original = scorerlib.contour.gi_jacobian_u

        def flipped(u, v, x, y):
            jac = original(u, v, x, y)
            return np.conjugate(jac)

        monkeypatch.setattr(scorerlib.contour, "gi_jacobian_u", flipped)
        z = 3j
        g = gi(z)
        h = hi(z)
        assert g.method == "gi_path_u"
        assert h.method == "hi_rotation"
        b = bi_complex(z).value
        violation = abs(g.value + h.value - b) / max(abs(g.value), abs(h.value), abs(b))
        assert violation > 1e-6


class TestConnectionFormulas:
    @pytest.mark.parametrize(
        "z",
        [0.7 + 0.3j, -1.5 + 2j, 4 - 1j, -6 + 0.5j, 9 + 9j, 0.2 - 3j],
    )
    def test_single_rotation_relation(self, z):
        # Hi(z) = rot * Hi(z rot) + 2 e^{-i pi/6} Ai(z / rot), rot = e^{2 pi i/3}.
        lhs = hi(z).value
        term = _ROT_UP * hi(z * _ROT_UP).value
        rhs = term + 2.0 * cmath.exp(-1j * _PI / 6.0) * ai_complex(z * _ROT_DOWN).value
        scale = max(abs(lhs), abs(term), 1e-300)
        assert abs(lhs - rhs) / scale < 1e-11

    @pytest.mark.parametrize("z", [0.9 + 0.1j, -2 + 2j, 3 - 2j, -4 - 1j])
    def test_rotation_pair_relation(self, z):
        # Gi(z) = -(rot Hi(z rot) + conj(rot) Hi(z conj(rot))) / 2.
        lhs = gi(z).value
        up = _ROT_UP * hi(z * _ROT_UP).value
        down = _ROT_DOWN * hi(z * _ROT_DOWN).value
        scale = max(abs(lhs), abs(up), abs(down))
        assert abs(lhs + 0.5 * (up + down)) / scale < 1e-11


class TestConjugateSymmetry:
    @pytest.mark.parametrize(
        "z", [1 + 1j, -2 + 1j, 2j, -0.5 + 3j, 5 + 2j, 12 + 0.5j, -7 + 2j]
    )
    def test_reflection_is_bit_exact(self, z):
        assert gi(z.conjugate()).value == gi(z).value.conjugate()
        assert hi(z.conjugate()).value == hi(z).value.conjugate()
        assert gi(z.conjugate()).method == "conjugate"

    @pytest.mark.parametrize("x", [-20.0, -9.0, -3.0, 3.0, 5.0, 10.0, 30.0])
    def test_negative_zero_imaginary_part_is_the_axis(self, x):
        # complex(x, -0.0) lies on the real axis, not below it: same value,
        # route and cost as complex(x, 0.0).
        above, below = complex(x, 0.0), complex(x, -0.0)
        pairs = [(gi(above), gi(below)), (hi(above), hi(below))]
        pairs += zip(gi_hi_pair(above), gi_hi_pair(below))
        for a, b in pairs:
            assert a.value == b.value
            assert a.method == b.method
            assert a.n_evaluations == b.n_evaluations

    def test_real_axis_values_are_real(self):
        for x in (-9.0, -1.0, 0.0, 1.5, 4.0, 30.0):
            assert gi(complex(x, 0.0)).value.imag == 0.0
            assert hi(complex(x, 0.0)).value.imag == 0.0


class TestUpperHalfPlaneContract:
    @pytest.mark.parametrize(
        "fn,z",
        [
            (hi_integral_principal, -5.0 + 2.0j),
            (hi_integral_principal, -3.0 + 0.0j),  # conjugate: imag -0.0
            (hi_integral_v_form, -5.0 + 2.0j),
            (hi_integral_upper, 3j),
            (gi_integral, 3j),
        ],
    )
    def test_representations_reject_the_lower_half_plane(self, fn, z):
        # The entry points conjugate; a representation refuses to.
        assert fn(z).converged
        with pytest.raises(DomainError):
            fn(z.conjugate())


class TestDispatchBoundaries:
    def test_series_contour_seam(self):
        # Just inside and outside the series disk along one ray, plus both
        # representations exactly on the seam.
        z = 2.5 * cmath.exp(1.1j)
        a = gi_series(z)
        b = gi_integral(z)
        assert _rel(a.value - b.value, b.value) < 1e-11

    def test_asymptotic_contour_seam(self):
        z = 15.0 * cmath.exp(1j * 5.0 * _PI / 6.0)
        a = hi_asymptotic(z)
        b = hi_integral_principal(z)
        assert _rel(a.value - b.value, b.value) < 1e-9

    def test_near_axis_band_edge(self):
        z = 5.0 * cmath.exp(1j * 0.05)
        a = gi_from_hi_rotations(z)
        b = gi_integral(z)
        assert _rel(a.value - b.value, b.value) < 1e-10

    def test_stokes_band_edge(self):
        z = 5.0 * cmath.exp(1j * (2.0 * _PI / 3.0 - 0.05))
        direct = gi_integral(z)
        routed = gi(z)
        assert _rel(routed.value - direct.value, direct.value) < 1e-9

    def test_middle_sector_boundary(self):
        # pi/3 is owned by the rotation route; the two routes must agree
        # across the boundary.
        z = 5.0 * cmath.exp(1j * _PI / 3.0)
        lhs = hi(z)
        assert lhs.method == "hi_rotation"
        rhs = bi_complex(z).value - gi_integral(z).value
        assert _rel(lhs.value - rhs, rhs) < 1e-10

    @pytest.mark.parametrize("radius", [3.5, 5.0, 10.0])
    def test_rotation_arm_on_the_pi_over_3_ray(self, radius):
        # A rotated Hi argument that lands exactly on ph = pi/3 takes the
        # left-valley contour, which the route table assigns to that ray.
        z = cmath.rect(radius, _PI / 3.0)
        direct = gi_integral(z)
        assert _rel(gi_from_hi_rotations(z).value - direct.value, direct.value) < 1e-10
        lower = hi_connection(z.conjugate()).value.conjugate()
        assert _rel(lower - hi(z).value, hi(z).value) < 1e-10


class TestEngineObject:
    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("radius", [5.0, 20.0])
    @pytest.mark.parametrize(
        "phase",
        [0.0, NEAR_AXIS_PHASE, _PI / 3.0, 2.0 * _PI / 3.0 - STOKES_BAND, 2.0 * _PI / 3.0, _PI],
    )
    def test_pair_shares_work_and_matches_singles(self, phase, radius, lower):
        z = cmath.rect(radius, phase)
        if lower:
            z = z.conjugate()
        g, h = gi_hi_pair(z)
        for pair_result, single in ((g, gi(z)), (h, hi(z))):
            assert pair_result.value == single.value
            assert pair_result.method == single.method
            assert pair_result.n_evaluations == single.n_evaluations

    def test_every_route_is_reached(self):
        phases = (0.0, 0.02, 0.5, _PI / 2.0, 2.0 * _PI / 3.0 - 0.02, 2.5, _PI, -1.0)
        methods = {
            fn(cmath.rect(radius, phase)).method
            for fn in (gi, hi)
            for radius in (1.0, 5.0, 40.0)
            for phase in phases
        }
        assert methods == {
            "series",
            "asymptotic",
            "gi_real_axis",
            "gi_rotation_pair",
            "gi_path_u",
            "bi_identity",
            "hi_path_u",
            "hi_rotation",
            "conjugate",
        }

    @pytest.mark.parametrize("bad", [complex("nan"), complex(0.0, math.inf)])
    def test_rejects_non_finite_argument(self, bad):
        with pytest.raises(DomainError):
            gi(bad)
        with pytest.raises(DomainError):
            hi(bad)
        with pytest.raises(DomainError):
            gi_hi_pair(bad)

    def test_airy_non_convergence_is_reported(self, monkeypatch):
        # Make the Airy rule report non-convergence: every route that adds
        # an Ai or Bi term from it must report it.
        rule = scorerlib.airy._ai_laguerre
        monkeypatch.setattr(
            scorerlib.airy,
            "_ai_laguerre",
            lambda z: dataclasses.replace(rule(z), converged=False),
        )
        assert not ai_complex(5.0).converged
        assert not bi_complex(5.0).converged
        assert not gi(5.0 * cmath.exp(1j)).converged  # gi_path_u
        assert not gi(5.0 * cmath.exp(-1j)).converged  # conjugate
        assert not hi(5j).converged  # hi_rotation
        assert not hi(5.0).converged  # bi_identity
        assert not hi_integral_upper(5j).converged
        g, h = gi_hi_pair(5.0)
        assert g.converged and not h.converged
        # Without an Airy term nothing changes.
        assert hi(-5.0).converged

    def test_results_report_route_and_cost(self):
        res = hi(-5 + 0j)
        assert res.method == "hi_path_u"
        assert res.n_evaluations > 0
        assert res.n_evaluations % 15 == 0
        assert res.converged
        res = gi(1 + 0j)
        assert res.method == "series"
        assert res.n_evaluations == 0


class TestRouteSelection:
    @pytest.mark.parametrize(
        "fn,z,expected",
        [
            (gi, 1 + 0j, "series"),
            (gi, 10 + 0j, "gi_real_axis"),
            (gi, 20 + 0j, "asymptotic"),
            (gi, 3j, "gi_path_u"),
            (gi, 5 * cmath.exp(0.01j), "gi_rotation_pair"),
            (gi, 5 * cmath.exp(1j * (2 * _PI / 3 - 0.01)), "bi_identity"),
            (gi, -4 + 0j, "bi_identity"),
            (gi, 1 - 1j, "conjugate"),
            (hi, 2j, "series"),
            (hi, 3j, "hi_rotation"),
            (hi, -5 + 0j, "hi_path_u"),
            (hi, 10 * cmath.exp(1j * 5 * _PI / 6), "hi_path_u"),
            (hi, 5 + 0j, "bi_identity"),
            (hi, 40 * cmath.exp(2.9j), "asymptotic"),
            (hi, 1.2 - 0.9j, "conjugate"),
        ],
    )
    def test_expected_route(self, fn, z, expected):
        assert fn(z).method == expected
