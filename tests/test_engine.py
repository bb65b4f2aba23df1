"""Tests for the sector-dispatched evaluation engine."""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import scorerlib.airy
import scorerlib.contour
import scorerlib.engine
from scorerlib.airy import BI_ZERO, BIP_ZERO, ai_complex, bi_complex
from scorerlib.contour import RAY_TOL, DomainError, ScorerResult
from scorerlib.engine import (
    GI_AT_ZERO,
    GI_DERIV_AT_ZERO,
    HI_AT_ZERO,
    HI_DERIV_AT_ZERO,
    gi,
    gi_asymptotic,
    gi_hi_pair,
    gi_series,
    hi,
    hi_asymptotic,
    hi_series,
)
from scorerlib.engine import (
    _LAPLACE_MIN_RHO,
    _LAPLACE_REACH,
    _LAPLACE_RUNGS,
    _evaluate,
    _laplace_rung,
    _laplace_slopes,
    _laplace_sum,
    _saddle_geometry,
    _saddle_sum,
    _sweep,
)
from scorerlib.integrals import (
    gi_integral,
    gi_real_positive,
    hi_integral_principal,
    hi_integral_upper,
    hi_integral_v_form,
)

_PI = math.pi
_EPS = float(np.finfo(float).eps)
_ROT_UP = cmath.exp(2j * _PI / 3.0)
_ROT_DOWN = cmath.exp(-2j * _PI / 3.0)


def _airy_rule(z: complex) -> int:
    """The node count of the Airy rule that serves Ai at ``z``."""
    return scorerlib.airy._ai_laguerre(z).n_evaluations
#: Evaluations of one Airy rule, and the radius of Ai's series disc.
_AI_SERIES_RADIUS = scorerlib.airy.SERIES_RADIUS

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
    "gi_rotation",
    "bi_identity",
    "hi_laplace",
    "hi_saddle",
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

    def test_first_omitted_terms_are_below_1e_20_at_the_disc_edge(self):
        # Residue class j omits first the term of z**(3n + j), whose
        # coefficient is 1 / prod_{i <= n} (3i + j)(3i + j - 1).
        n = scorerlib.engine._SERIES_TERMS
        r = scorerlib.engine._SERIES_RADIUS
        for j in range(3):
            coeff = 1 / math.prod((3 * i + j) * (3 * i + j - 1) for i in range(1, n + 1))
            assert coeff * r ** (3 * n + j) < 1e-20
        assert len(scorerlib.engine._SERIES_ROWS) == n

    @pytest.mark.parametrize("phase", [0.0, 0.9, 2.1, 3.0])
    def test_horner_sum_matches_the_term_by_term_series(self, phase):
        z = cmath.rect(scorerlib.engine._SERIES_RADIUS, phase)
        for res, c0, c1, c2 in (
            (gi_series(z), GI_AT_ZERO, GI_DERIV_AT_ZERO, -0.5 / _PI),
            (hi_series(z), HI_AT_ZERO, HI_DERIV_AT_ZERO, 0.5 / _PI),
        ):
            w, _, _ = _series_scorer_derivatives(z, c0, c1, c2)
            assert abs(res.value - w) <= res.abs_error_estimate

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

    @pytest.mark.parametrize(
        "kind,z",
        [
            ("gi", 5.8e307 + 0j),
            ("gi", 1e308 + 0j),
            ("gi", 1.7e308 + 0j),
            ("gi", 1.7976931348623157e308 + 0j),
            ("hi", -1e308 + 0j),
            ("hi", cmath.rect(1e308, 1.5)),
            ("gi", cmath.rect(1e308, 0.5)),
            ("gi", complex(5.46665987310466e307, 1.6910360630376144e307)),
            ("gi", complex(1e308, 1e308)),
        ],
    )
    def test_subnormal_value_survives_the_top_of_the_range(self, kind, z):
        # pi z overflows here (on the axis beyond DBL_MAX/pi, off it earlier
        # inside the complex division), though 1/(pi z) is a subnormal
        # number; the corrections underflow to 0.  Each value against an
        # exact rational 1/(pi z), pi taken as math.pi, within its bar.
        x, y, pi = Fraction(z.real), Fraction(z.imag), Fraction(_PI)
        sign = -1 if kind == "hi" else 1
        exact = (sign * x / (pi * (x * x + y * y)), -sign * y / (pi * (x * x + y * y)))
        routed, expansion = (gi, gi_asymptotic) if kind == "gi" else (hi, hi_asymptotic)
        for w, ref in ((z, exact), (z.conjugate(), (exact[0], -exact[1]))):
            for res in (routed(w), expansion(w)):
                assert res.value and res.method in ("asymptotic", "conjugate")
                miss = [Fraction(part) - r for part, r in zip((res.value.real, res.value.imag), ref)]
                assert miss[0] ** 2 + miss[1] ** 2 <= Fraction(res.abs_error_estimate) ** 2

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

    def test_gate_radius_leaves_the_smallest_term_nothing_to_decide(self):
        # The gate tests no term: from its radius on, some correction
        # b_s r**(-3(s+1)) within the term budget (b_0 = 2,
        # b_{s+1} = b_s (3s+4)(3s+5)) already meets a tenth of the target,
        # and each only shrinks as r grows.  Lowering the radius must not
        # silently reopen the gate where no term is small enough.
        r = scorerlib.engine._ASYMPTOTIC_RADIUS
        tol = 0.1 * scorerlib.engine._TARGET_REL_ACCURACY
        coeff, corrections = 2.0, []
        for s in range(scorerlib.engine._ASYMPTOTIC_MAX_TERMS):
            corrections.append(coeff * r ** (-3 * (s + 1)))
            coeff *= (3 * s + 4) * (3 * s + 5)
        assert min(corrections) <= tol

    def test_dispatch_refuses_growing_solution_on_positive_axis(self):
        # The algebraic expansion omits an exponentially LARGE part there;
        # the gate must route elsewhere no matter the radius.
        res = hi(40 + 0j)
        assert res.method != "asymptotic"
        ref = 455641153.5163291  # frozen at z = 10; just confirm growth route
        assert hi(10 + 0j).value.real == pytest.approx(ref, rel=5e-12)

    @pytest.mark.parametrize(
        "fn,z,n_terms",
        [
            # Before the optimal cut the omitted tail exceeds its first term:
            # once 6.06e-11 relative against a bar of 5.93e-11, and 2.00e-9
            # against 1.90e-9.
            (gi_asymptotic, 20 + 1j, 3),
            (hi_asymptotic, cmath.rect(15.0, 2.0), 3),
            (gi_asymptotic, 20 + 1j, 0),
            (hi_asymptotic, cmath.rect(15.0, 2.0), 1),
            # Past it the terms added after the smallest: once 1.3e7 relative
            # against a bar of the smallest term.
            (hi_asymptotic, cmath.rect(15.0, 2.0), 12),
            (hi_asymptotic, cmath.rect(15.0, 2.0), 60),
            (gi_asymptotic, 20 + 1j, 30),
        ],
    )
    def test_explicit_truncation_bar_covers_the_optimal_value(self, fn, z, n_terms):
        optimal = fn(z)
        res = fn(z, n_terms=n_terms)
        assert cmath.isfinite(res.value) and math.isfinite(res.abs_error_estimate)
        bars = res.abs_error_estimate + optimal.abs_error_estimate
        assert abs(res.value - optimal.value) <= bars

    @pytest.mark.parametrize(
        "fn,z",
        [(gi_asymptotic, 20 + 1j), (hi_asymptotic, cmath.rect(15.0, 2.0)), (hi_asymptotic, -40 + 3j)],
    )
    def test_explicit_truncation_at_the_optimal_cut_is_the_router_sum(self, fn, z):
        # Some count reproduces the optimal truncation bit for bit, bar
        # included: at the cut nothing lies between the two.
        optimal = fn(z)
        matches = [n for n in range(scorerlib.engine._ASYMPTOTIC_MAX_TERMS + 1)
                   if fn(z, n_terms=n) == optimal]
        assert len(matches) == 1

    @pytest.mark.parametrize(
        "fn,z,cut",
        [(hi_asymptotic, 6.0 * cmath.exp(2.9j), 5), (gi_asymptotic, 5 + 0.5j, 4),
         (hi_asymptotic, -4 + 1j, 3)],
    )
    def test_explicit_truncation_reuses_a_cut_below_the_term_budget(self, fn, z, cut):
        # The corrections turn before _ASYMPTOTIC_MAX_TERMS: only the count
        # at the turn reproduces the optimal truncation, bar included.
        optimal = fn(z)
        matches = [n for n in range(scorerlib.engine._ASYMPTOTIC_MAX_TERMS + 1)
                   if fn(z, n_terms=n) == optimal]
        assert matches == [cut]

    @pytest.mark.parametrize("fn", [gi_asymptotic, hi_asymptotic])
    def test_negative_term_count_is_rejected(self, fn):
        with pytest.raises(ValueError, match="nonnegative"):
            fn(cmath.rect(20.0, 0.1 if fn is gi_asymptotic else 2.0), n_terms=-1)

    @pytest.mark.parametrize("n_terms", [80, 200])
    def test_a_sum_that_overflows_is_rejected(self, n_terms):
        # From 80 terms on the coefficients overflow here: once inf+nanj
        # with converged=True.
        with pytest.raises(ValueError, match="not finite"):
            hi_asymptotic(cmath.rect(15.0, 2.0), n_terms=n_terms)

    @pytest.mark.parametrize("fn", [gi_asymptotic, hi_asymptotic])
    @pytest.mark.parametrize(
        "z,n_terms",
        [(1e-320j, None), (1e-200 + 1e-200j, None), (5e-324 + 0j, None),
         (1e-110 * (1 + 1j), None), (1e-200 + 1e-200j, 0)],
    )
    @pytest.mark.filterwarnings("ignore:large-argument expansion diverges")
    def test_a_tiny_argument_is_rejected(self, fn, z, n_terms):
        # 1/z or its cube overflows: once NaN or infinite parts, or a NaN
        # bar beside a finite value, with converged=True.
        with pytest.raises(ValueError, match="not finite"):
            fn(z, n_terms=n_terms)


class TestCrossRepresentationAgreement:
    def test_principal_contour_vs_folded_form(self):
        z = 10.0 * cmath.exp(1j * 5.0 * _PI / 6.0)
        a = hi_integral_principal(z)
        b = hi_integral_v_form(z)
        assert a.method == "hi_path_u"
        assert b.method == "hi_path_v"
        assert _rel(a.value - b.value, a.value) < 1e-11

    def test_folded_form_just_above_the_negative_axis(self):
        z = complex(-3.0, 1e-10)
        a = hi_integral_principal(z)
        b = hi_integral_v_form(z)
        assert b.converged
        assert _rel(a.value - b.value, a.value) < 1e-12

    def test_valley_contour_vs_rotation_connection(self):
        z = 3j
        a = hi_integral_upper(z)
        b = hi(z)
        assert a.method == "hi_path_upper"
        assert b.method == "hi_rotation"
        assert _rel(a.value - b.value, a.value) < 1e-11

    @pytest.mark.parametrize("r", [3.111003, 10.0])
    def test_valley_contour_on_the_stokes_ray(self, r):
        z = cmath.rect(r, 2.0 * _PI / 3.0)
        a = hi_integral_upper(z)
        assert a.converged
        assert _rel(a.value - hi_integral_principal(z).value, a.value) < 1e-12

    @pytest.mark.parametrize(
        "z", [cmath.rect(5.0, 0.95 * _PI), cmath.rect(10.0, 0.8 * _PI), -4.0 + 0j]
    )
    def test_valley_contour_rejects_phases_beyond_the_stokes_ray(self, z):
        # Beyond 2*pi/3 the valley contour misses the saddle contribution;
        # it returned wrong values with converged=True there (relative error
        # 6.9e5 at r = 5, ph = 0.95 pi).
        with pytest.raises(DomainError, match="hi_integral_upper"):
            hi_integral_upper(z)

    def test_oscillatory_contour_vs_rotation_pair(self):
        z = 1 + 0.2j
        a = gi_integral(z)
        b = gi(z)
        assert a.method == "gi_path_u"
        assert _rel(a.value - b.value, a.value) < 1e-11

    @pytest.mark.parametrize("x", [0.25, 0.8, 1.7, 2.4])
    def test_positive_axis_contour_vs_series(self, x):
        a = gi_real_positive(x)
        b = gi_series(complex(x, 0.0))
        assert a.method == "gi_real_axis"
        assert _rel(a.value - b.value, b.value) < 1e-11

    def test_stokes_band_rotation_vs_direct_contour(self):
        z = 5.0 * cmath.exp(1j * (2.0 * _PI / 3.0 - 0.01))
        routed = gi(z)
        direct = gi_integral(z)
        assert routed.method == "gi_rotation"
        assert _rel(routed.value - direct.value, direct.value) < 1e-9

    def test_near_axis_rotations_vs_direct_contour(self):
        z = 5.0 * cmath.exp(0.01j)
        routed = gi(z)
        direct = gi_integral(z)
        assert routed.method == "gi_rotation"
        assert _rel(routed.value - direct.value, direct.value) < 1e-9

    def test_direct_contour_detects_a_corrupt_rotated_contour(self, monkeypatch):
        # On 0 < ph z < 2pi/3 Gi and Hi share one rotated Hi, so Gi + Hi = Bi
        # holds whatever that contour returns; Gi's own contour must catch
        # it.  The rotated Hi is split at its saddle here (rho = 0.12, below
        # the Laplace gate's floor), so doubling the segment's weights
        # corrupts it.
        monkeypatch.setattr(scorerlib.engine, "_WEIGHTS_SEGMENT",
                            2.0 * scorerlib.engine._WEIGHTS_SEGMENT)
        z = cmath.rect(5.0, 2.0 * _PI / 3.0 - 0.06)
        routed = gi(z)
        direct = gi_integral(z)
        assert _evaluate(_rotated(z), "hi")[0].method == "hi_saddle"
        assert routed.method == "gi_rotation"
        assert direct.method == "gi_path_u"
        assert _rel(routed.value - direct.value, direct.value) > 1e-6


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

    @pytest.mark.parametrize("z", [0.9 + 0.1j, -2 + 2j, 3 - 2j, -4 - 1j, 6 + 5j, -7 - 3j])
    def test_gi_rotation_relation(self, z):
        # Gi(z) = -rot Hi(z rot) + i Ai(z), for every z.
        lhs = gi(z).value
        term = _ROT_UP * hi(z * _ROT_UP).value
        rhs = -term + 1j * ai_complex(z).value
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

    @pytest.mark.parametrize(
        "x", [-20.0, -9.0, -3.0, 3.0, 5.0, 10.0, 30.0, 2.6, 3.6, 7.0, 14.9, 16.0]
    )
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
        # On the positive axis beyond the series disc Gi and Hi take the
        # rotation connections, whose rotated Hi lies on the Stokes ray.
        for x in (-9.0, -1.0, 0.0, 1.5, 4.0, 30.0, 2.6, 3.6, 7.0, 14.9, 16.0):
            z = complex(x, 0.0)
            for res in (gi(z), hi(z), *gi_hi_pair(z)):
                assert res.value.imag == 0.0


def _sweep_points() -> list[complex]:
    """Seeded points in both half-planes with their conjugates, repeats and
    the real axis, signed zeros included."""
    rng = np.random.default_rng(31)
    points = []
    for _ in range(60):
        z = cmath.rect(10.0 ** rng.uniform(math.log10(0.3), math.log10(60.0)),
                       rng.uniform(-_PI, _PI))
        points += [z, z.conjugate()] if rng.uniform() < 0.5 else [z]
    for x in (-20.0, -3.0, 0.0, 1.5, 7.0, 16.0):
        points += [complex(x, 0.0), complex(x, -0.0)]
    points += [complex(-0.0, 0.0), complex(-0.0, -0.0), complex(-0.0, 3.0),
               complex(0.0, -3.0), complex(-0.0, -3.0)]
    points += points[:25]
    rng.shuffle(points)
    return points


class TestSweep:
    @pytest.mark.parametrize("fn,single", [("gi", gi), ("hi", hi)])
    def test_each_result_is_the_single_call(self, fn, single):
        points = _sweep_points()
        swept = list(_sweep(points, fn))
        assert len(swept) == len(points)
        for z, got in zip(points, swept):
            want = single(z)
            assert got.value.real == want.value.real, z
            assert got.value.imag == want.value.imag, z
            assert (got.method, got.abs_error_estimate, got.n_evaluations, got.converged) == (
                want.method, want.abs_error_estimate, want.n_evaluations, want.converged), z

    def test_routes_each_upper_half_plane_point_once(self, monkeypatch):
        single = scorerlib.engine._single
        routed = []

        def counted(z, fn):
            routed.append(z)
            return single(z, fn)

        monkeypatch.setattr(scorerlib.engine, "_single", counted)
        points = [1 + 1j, 1 - 1j, 1 + 1j, complex(-2.0, 0.0), complex(-2.0, -0.0),
                  complex(0.0, 2.0), complex(-0.0, 2.0), complex(-0.0, -2.0)]
        list(_sweep(points, "hi"))
        # 0.0 and -0.0 are equal dict keys, but the memo keeps them apart.
        assert routed == [1 + 1j, -2 + 0j, 2j, complex(-0.0, 2.0)]
        assert [math.copysign(1.0, z.real) for z in routed[2:]] == [1.0, -1.0]

    def test_reads_points_as_results_are_taken(self):
        def points():
            yield from (2 + 1j, 2 - 1j, -5 + 0j)
            raise AssertionError("a point was read before its result was taken")

        taken = list(itertools.islice(_sweep(points(), "gi"), 3))
        assert taken[1].method == "conjugate"

    def test_a_non_finite_point_raises(self):
        with pytest.raises(DomainError):
            list(_sweep([1 + 1j, complex(math.inf, 0.0)], "gi"))


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

    @pytest.mark.parametrize(
        "fn",
        [gi_series, hi_series, gi_asymptotic, hi_asymptotic, hi_integral_principal,
         hi_integral_v_form, hi_integral_upper, gi_integral, gi_real_positive],
    )
    @pytest.mark.parametrize(
        "z", [math.nan, complex(math.nan, 1.0), complex(1.0, math.nan), math.inf]
    )
    def test_public_pieces_reject_a_non_finite_argument(self, fn, z):
        # No NaN with converged=True, no 0 for Gi(inf) and no error of the
        # integrand: the domain error that gi and hi raise there.
        with pytest.raises(DomainError):
            fn(z)

    @pytest.mark.parametrize("fn", [gi_asymptotic, hi_asymptotic])
    def test_expansions_reject_the_origin(self, fn):
        with pytest.raises(DomainError):
            fn(0j)

    def test_gi_real_positive_takes_a_complex_with_zero_imaginary_part(self):
        # Once a TypeError from comparing a complex with 0.0, even at 2+0j.
        for x in (2 + 0j, complex(2.0, -0.0), 0j):
            assert gi_real_positive(x) == gi_real_positive(x.real)
        for z in (2 + 1j, 3j, 2 - 1e-300j, -1 + 0j):
            with pytest.raises(DomainError):
                gi_real_positive(z)


def _airy_term_points() -> list[complex]:
    """Seeded points of every route of Gi and Hi that adds an Airy term:
    ``gi_rotation``, ``hi_rotation`` and ``bi_identity`` beyond the series
    disc (2.5 < |z| <= 40), the band 2.5 < |z| <= 3.5 where the Ai term is
    Ai's series, and |z| >= 15, where the rotated Hi is the expansion; in
    both half-planes and on the real axis."""
    rng = np.random.default_rng(20261021)
    radii = [math.exp(rng.uniform(math.log(2.6), math.log(40.0))) for _ in range(120)]
    radii += [rng.uniform(2.6, _AI_SERIES_RADIUS) for _ in range(40)]
    radii += [rng.uniform(15.0, 40.0) for _ in range(40)]
    points = [cmath.rect(r, rng.uniform(-_PI, _PI)) for r in radii]
    points += [complex(sign * r, 0.0) for r in (2.7, 3.2, 6.0, 16.0) for sign in (1.0, -1.0)]
    return points


def _rebuilt(z: complex, fn: str) -> ScorerResult:
    """``fn`` ("gi" or "hi") at ``z`` rebuilt by ``engine.combine`` from the
    Airy passes that form the derivative, route by route."""
    engine = scorerlib.engine
    up = complex(z.real, abs(z.imag))
    r = engine._gated(up, fn)
    if r is None and cmath.phase(up) < 2.0 * _PI / 3.0 - RAY_TOL:
        inner = hi(up * _ROT_UP)
        if fn == "gi":
            ai = scorerlib.airy._ai_info(up, derivative=True)
            r = engine.combine("gi_rotation", [(-_ROT_UP, inner), (1j, ai)])
        else:
            ai = scorerlib.airy._ai_info(up * _ROT_DOWN, derivative=True)
            r = engine.combine("hi_rotation", [(_ROT_UP, inner), (engine._TWO_ROT_SIXTH, ai)])
    elif r is None and fn == "gi":
        h = engine._gated(up, "hi")
        h = engine._hi_contour(up) if h is None else h
        bi = scorerlib.airy._bi_info(up, derivative=True)
        r = engine.combine("bi_identity", [(1.0, bi), (-1.0, h)])
    elif r is None:
        r = engine._hi_contour(up)
    return engine._settled(z, r)


class TestAiryTermsAreValuesOnly:
    """Gi's and Hi's Airy terms are value-only passes of the dispatchers."""

    def test_no_route_forms_an_airy_derivative(self, monkeypatch):
        airy = scorerlib.airy
        formed = []
        for name in ("_ai_result", "_maclaurin"):
            def spy(*args, _built=getattr(airy, name), **kwargs):
                out = _built(*args, **kwargs)
                formed.append(out.derivative)
                return out

            monkeypatch.setattr(airy, name, spy)
        built = 0
        for z in _airy_term_points():
            formed.clear()
            gi(z)
            hi(z)
            gi_hi_pair(z)
            assert set(formed) <= {None}
            built += len(formed)
        assert built > 500
        formed.clear()
        ai_complex(3.0 + 1j)
        bi_complex(cmath.rect(6.0, 1.0))
        assert len(formed) == 3 and None not in formed

    def test_results_match_the_derivative_passes_field_by_field(self):
        engine = scorerlib.engine
        routes, inner_routes = set(), set()
        for z in _airy_term_points():
            g, h = gi(z), hi(z)
            assert g == _rebuilt(z, "gi") and h == _rebuilt(z, "hi")
            assert gi_hi_pair(z) == (g, h)
            up = complex(z.real, abs(z.imag))
            routes.update(engine._single(up, fn).method for fn in ("gi", "hi"))
            if abs(z) >= 15.0:
                inner_routes.add(hi(up * _ROT_UP).method)
        assert {"gi_rotation", "hi_rotation", "bi_identity"} <= routes
        assert "asymptotic" in inner_routes


def _gated_points() -> list[complex]:
    """Seeded points where the gates of ``engine._gated`` serve Gi or Hi:
    15 <= |z| <= 60 at every phase, where an expansion serves one or both
    (and the inner Hi of a rotation), the real axis there, and the series
    disc."""
    rng = np.random.default_rng(20261022)
    points = [cmath.rect(rng.uniform(15.0, 60.0), rng.uniform(-_PI, _PI)) for _ in range(160)]
    points += [complex(sign * r, 0.0) for r in (15.0, 24.0, 55.0) for sign in (1.0, -1.0)]
    points += [cmath.rect(rng.uniform(0.0, 2.5), rng.uniform(-_PI, _PI)) for _ in range(20)]
    return points


class TestGatesDecideOnce:
    """``engine._gated`` admits the series and the expansions, each
    quantity computed once, without the public entries' checks."""

    def test_each_expansion_bounds_its_neglected_part_once(self, monkeypatch):
        engine = scorerlib.engine
        bounds, per_call = [], []

        def bound(*args, _bound=engine._neglected_exponential):
            bounds.append(args)
            return _bound(*args)

        def gated(z, fn, _gated=engine._gated):
            before = len(bounds)
            out = _gated(z, fn)
            per_call.append((out is not None and out.method == "asymptotic", len(bounds) - before))
            return out

        monkeypatch.setattr(engine, "_neglected_exponential", bound)
        monkeypatch.setattr(engine, "_gated", gated)
        for z in _gated_points():
            gi(z)
            hi(z)
            gi_hi_pair(z)
        expansions = [n for taken, n in per_call if taken]
        assert len(expansions) > 300 and set(expansions) == {1}
        assert max(n for _, n in per_call) == 1
        assert len(bounds) == sum(n for _, n in per_call)

    def test_the_router_enters_no_public_representation(self, monkeypatch):
        engine = scorerlib.engine
        for name in ("gi_series", "hi_series", "gi_asymptotic", "hi_asymptotic"):
            def refused(*args, _name=name, **kwargs):
                raise AssertionError(f"the router called {_name}")

            monkeypatch.setattr(engine, name, refused)
        routes = set()
        for z in _gated_points():
            routes.update(r.method for r in (gi(z), hi(z), *gi_hi_pair(z)))
        assert {"series", "asymptotic", "conjugate"} <= routes


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
        a = gi(z)
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
        # On ph = pi/3 each connection's Airy term changes between dominant
        # and recessive; each routed value still meets its own contour.
        z = cmath.rect(radius, _PI / 3.0)
        direct = gi_integral(z)
        assert _rel(gi(z).value - direct.value, direct.value) < 1e-10
        valley = hi_integral_upper(z).value
        assert _rel(hi(z).value - valley, valley) < 1e-10

    @pytest.mark.parametrize("phase", [1e-9, 0.02, 0.05 - 1e-9])
    def test_rotation_costs_exactly_its_arms(self, phase):
        # The rotated Hi in both connections is hi's own value, so each
        # spends exactly that hi call plus its Airy rule's evaluations.
        z = cmath.rect(5.0, phase)
        up = hi(z * _ROT_UP)
        g, h = gi(z), hi(z)
        assert (g.method, h.method) == ("gi_rotation", "hi_rotation")
        assert g.n_evaluations == up.n_evaluations + _airy_rule(z)
        assert h.n_evaluations == up.n_evaluations + _airy_rule(z * _ROT_DOWN)
        assert g.value == -_ROT_UP * up.value + 1j * ai_complex(z).value


class TestEngineObject:
    @pytest.mark.parametrize("lower", [False, True])
    @pytest.mark.parametrize("radius", [1.0, 2.4, 5.0, 20.0])
    @pytest.mark.parametrize(
        "phase",
        [0.0, 0.05, _PI / 3.0, 2.0 * _PI / 3.0 - 0.05, 2.0 * _PI / 3.0, _PI],
    )
    def test_pair_shares_work_and_matches_singles(self, phase, radius, lower):
        # Inside the series disc (1.0, 2.4) one Horner pass serves both.
        z = cmath.rect(radius, phase)
        if lower:
            z = z.conjugate()
        g, h = gi_hi_pair(z)
        for pair_result, single in ((g, gi(z)), (h, hi(z))):
            assert pair_result.value == single.value
            assert pair_result.method == single.method
            assert pair_result.n_evaluations == single.n_evaluations
            assert pair_result.abs_error_estimate == single.abs_error_estimate

    def test_every_route_is_reached(self):
        # 2pi/3 + 0.02 splits Hi's contour at its saddle at |z| = 5 (rho
        # below the Laplace gate's floor).
        phases = (0.0, 0.02, 0.06, 0.5, _PI / 2.0, 2.0 * _PI / 3.0 - 0.02,
                  2.0 * _PI / 3.0 + 0.02, 2.5, _PI, -1.0)
        methods = {
            fn(cmath.rect(radius, phase)).method
            for fn in (gi, hi)
            for radius in (1.0, 5.0, 40.0)
            for phase in phases
        }
        assert methods == {
            "series",
            "asymptotic",
            "gi_rotation",
            "bi_identity",
            "hi_saddle",
            "hi_laplace",
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
        # Make every Airy rule result, of one argument or of a paired pass,
        # report non-convergence: every route that adds an Ai or Bi term
        # from the rule must report it.
        result = scorerlib.airy._ai_result
        monkeypatch.setattr(
            scorerlib.airy,
            "_ai_result",
            lambda *args: dataclasses.replace(result(*args), converged=False),
        )
        assert not ai_complex(5.0).converged
        assert not bi_complex(5.0).converged
        assert not bi_complex(5.0 * cmath.exp(0.5j)).converged  # i Ai(z) + rotated Ai
        assert not bi_complex(5.0 * cmath.exp(-0.5j)).converged  # conjugate
        assert not gi(5.0 * cmath.exp(1j)).converged  # gi_rotation
        assert not gi(5.0 * cmath.exp(-1j)).converged  # conjugate
        assert not hi(5j).converged  # hi_rotation
        assert not hi(5.0).converged  # hi_rotation on the axis
        assert not hi_integral_upper(5j).converged
        g, h = gi_hi_pair(5.0)  # both add an Ai term to the shared Hi
        assert not g.converged and not h.converged
        g, h = gi_hi_pair(-5.0)  # only Gi's Bi term comes from the rule
        assert not g.converged and h.converged
        # Without an Airy term nothing changes.
        assert hi(-5.0).converged

    def test_results_report_route_and_cost(self):
        # rho = 0.04 is below the Laplace gate's floor: the saddle split,
        # 96 nodes.
        res = hi(cmath.rect(5.0, 2.0 * _PI / 3.0 + 0.02))
        assert res.method == "hi_saddle"
        assert res.n_evaluations == 96
        assert res.converged
        res = hi(-5 + 0j)
        assert res.method == "hi_laplace"
        assert res.n_evaluations == 32
        assert res.converged
        res = gi(1 + 0j)
        assert res.method == "series"
        assert res.n_evaluations == 0


class TestRouteSelection:
    @pytest.mark.parametrize(
        "fn,z,expected",
        [
            (gi, 1 + 0j, "series"),
            (gi, 10 + 0j, "gi_rotation"),
            (gi, 20 + 0j, "asymptotic"),
            (gi, 3j, "gi_rotation"),
            (gi, cmath.rect(5.0, 0.06), "gi_rotation"),
            (gi, 5j, "gi_rotation"),
            (gi, 5 * cmath.exp(0.01j), "gi_rotation"),
            (gi, 5 * cmath.exp(1j * (2 * _PI / 3 - 0.01)), "gi_rotation"),
            (gi, -4 + 0j, "bi_identity"),
            (gi, 1 - 1j, "conjugate"),
            (hi, 2j, "series"),
            (hi, 3j, "hi_rotation"),
            (hi, -5 + 0j, "hi_laplace"),
            (hi, 10 * cmath.exp(1j * 5 * _PI / 6), "hi_laplace"),
            (hi, cmath.rect(5.0, 0.8 * _PI), "hi_laplace"),
            (hi, cmath.rect(10.0, 0.75 * _PI), "hi_laplace"),
            (hi, cmath.rect(5.0, 2.0 * _PI / 3.0 + 0.02), "hi_saddle"),
            (hi, 5 + 0j, "hi_rotation"),
            (hi, 40 * cmath.exp(2.9j), "asymptotic"),
            (hi, 1.2 - 0.9j, "conjugate"),
        ],
    )
    def test_expected_route(self, fn, z, expected):
        assert fn(z).method == expected

    @pytest.mark.parametrize(
        "z,calls",
        [
            (5j, 1),
            (-5 + 0j, 1),
            (5 + 0j, 1),
            (-5 - 2j, 1),
            (cmath.rect(5.0, 0.02), 1),
            (cmath.rect(5.0, 2.0 * _PI / 3.0 - 0.02), 1),
            (cmath.rect(5.0, 2.0 * _PI / 3.0 + 0.02), 1),  # the saddle split
            (cmath.rect(20.0, 0.9 * _PI), 0),
            (cmath.rect(20.0, 0.2), 0),
        ],
    )
    def test_one_sector_hi_per_call(self, monkeypatch, z, calls):
        # Where no gate serves, gi, hi and gi_hi_pair each sum Hi's contour
        # once: at z on [2pi/3, pi], else at z e^{2i pi/3}.  The router looks
        # _hi_contour up on each call, so the patched one is counted.
        contour = scorerlib.engine._hi_contour
        seen = []

        def counted(w):
            seen.append(w)
            return contour(w)

        monkeypatch.setattr(scorerlib.engine, "_hi_contour", counted)
        for call in (gi, hi, gi_hi_pair):
            seen.clear()
            call(z)
            assert len(seen) == calls, call.__name__


#: One ray per function whose value sums Hi's contour cell, which owns the
#: Laplace gate: Hi on its descent row, Gi through its rotation connection.
#: On Gi's ray rho = 3 lies at |z| = 12.3, inside the radius 15 beyond which
#: the rotated Hi may take its large-argument expansion instead.
_GATED_RAYS = (("hi", 0.9 * _PI), ("gi", 1.3))
#: The independent contour of each function, for comparison.
_ADAPTIVE = {"hi": hi_integral_principal, "gi": gi_integral}
#: Rays of the model's edges: Hi's cell above the Stokes ray and, through
#: Gi's rotation, at the rotated images of Gi's rays below it and near the
#: positive axis.  (On the negative axis, where Re sigma* = 0, the 60-node
#: rung serves every radius beyond the series disc, so the ray has no edge.)
_EDGE_RAYS = (
    ("hi", 0.9 * _PI),
    ("hi", 0.7 * _PI),
    ("hi", 2.0 * _PI / 3.0 + 0.05),
    ("hi", 2.0 * _PI / 3.0 + 0.1),
    ("gi", _PI / 2.0),
    ("gi", 2.0 * _PI / 3.0 - 0.06),
    ("gi", 0.06),
    ("gi", 0.2),
)
#: Kept nodes of the 60-, 240- and 960-node rules.
_KEPT = {60: 32, 240: 65, 960: 131}


def _radius_at_rho(rho: float, phase: float) -> float:
    """The radius on the ray ``phase`` where the saddle distance is ``rho``
    (it grows like ``|z|**0.75``)."""
    return (rho / _saddle_geometry(cmath.rect(1.0, phase))[1]) ** (4.0 / 3.0)


def _model_rung(z: complex) -> int | None:
    """The gate's model written out afresh: the smallest n of 60, 240, 960
    with 3.5 sqrt(n) rho + 0.8 Re sigma* >= 3.5 sqrt(60), where
    Re sigma* = (2/3) |z|**1.5 - 2 rho**2, rho >= 0.15 and |z| <= 1e100."""
    r, theta = abs(z), abs(cmath.phase(z))
    rho = math.sqrt(2.0 / 3.0) * r**0.75 * min(abs(math.cos(0.75 * theta)),
                                               abs(math.sin(0.75 * theta)))
    height = (2.0 / 3.0) * r**1.5 - 2.0 * rho * rho
    if r > 1e100 or rho < 0.15:
        return None
    return next((n for n in (60, 240, 960)
                 if 3.5 * math.sqrt(n) * rho + 0.8 * height >= 3.5 * math.sqrt(60.0)), None)


def _edges(phase: float) -> list[float]:
    """The radii in (2.5, 1e3) on the ray where the model's rung changes,
    by bisection between neighbours of a log grid whose rungs differ."""
    radii = np.geomspace(2.5, 1e3, 400)
    rungs = [_model_rung(cmath.rect(r, phase)) for r in radii]
    out = []
    for k in range(len(radii) - 1):
        if rungs[k] != rungs[k + 1]:
            lo, hi_ = radii[k], radii[k + 1]
            for _ in range(100):
                mid = math.sqrt(lo * hi_)
                lo, hi_ = (mid, hi_) if _model_rung(cmath.rect(mid, phase)) == rungs[k] else (lo, mid)
            out.append(hi_)
    return out


def _airy_evals(fn: str, z: complex) -> int:
    """The Airy rule's evaluations of ``i Ai(z)`` inside a ``gi_rotation``
    result."""
    return _airy_rule(z) if fn == "gi" and abs(z) > _AI_SERIES_RADIUS else 0


def _rotated(z: complex) -> complex:
    """The argument of the Hi inside Gi's rotation connection at
    ``0 < ph z < 2pi/3``, ``z e^{2i pi/3}``, folded into the upper
    half-plane, where the Hi cell sees it."""
    w = z * _ROT_UP
    return complex(w.real, abs(w.imag))


def _cell(fn: str, z: complex) -> ScorerResult | None:
    """The result of Hi's contour cell that ``fn`` at ``z`` sums: Hi's own,
    or for Gi the rotated Hi inside ``gi_rotation``; None where a gate came
    first."""
    res = _evaluate(z, fn)[0]
    if fn == "gi" and res.method == "gi_rotation":
        res = _evaluate(_rotated(z), "hi")[0]
    return res if res.method in ("hi_path_u", "hi_laplace", "hi_saddle") else None


def _cardano_sum(z: complex, rung, exponent: float) -> tuple[complex, float]:
    """The oracle of :func:`_laplace_sum`: Cardano's root ``t = C + z/C``
    at each node, ``C**3 = 3 sigma/2 + sqrt(9 sigma**2/4 - z**3)``, summed
    as ``1 / (t**2 - z)`` against the full weights; the value and its bar."""
    half_3 = 1.5 * rung.nodes
    c = np.power(half_3 + np.sqrt(half_3 * half_3 - z * z * z), 1.0 / 3.0)
    t = c + z / c
    value = complex((1.0 / (t * t - z)).dot(rung.weights))
    return value, abs(value) * (math.exp(-exponent) + 8.0 * _EPS)


def _newton_saddle_sum(z: complex) -> tuple[complex, float] | None:
    """The oracle of :func:`_saddle_sum`: the same segment, and the
    descent branch by six Newton steps on ``x**3 + 3 t_s x**2 = 3u`` from
    ``x = +-sqrt(u / t_s)`` at ``t = t_s + x``, summed as
    ``H(+-v) = +-2v / (t**2 - z)``; the value and its bar, or None where a
    node keeps a residual above 1e-14 of 3u."""
    engine = scorerlib.engine
    even, odd = engine._NODES_SADDLE_EVEN, engine._NODES_SADDLE_ODD
    u = np.tile(np.concatenate([even, odd]), 2).astype(complex)
    v = np.sqrt(u) * np.repeat([1.0, -1.0], u.size // 2)
    root_even = engine._WEIGHTS_SADDLE_EVEN * np.sqrt(even)
    weights = 0.5 * np.concatenate([root_even, engine._WEIGHTS_SADDLE_ODD,
                                    -root_even, engine._WEIGHTS_SADDLE_ODD])
    ts = np.complex128(cmath.sqrt(z))
    ts3 = ts * ts * ts
    s = engine._NODES_SEGMENT
    segment = ts * np.exp(ts3 * (s - s**3 / 3.0)).dot(engine._WEIGHTS_SEGMENT)
    x = v / np.sqrt(ts)
    for _ in range(6):
        x = (x * x * (x * (2.0 / 3.0) + ts) + u) / (x * (x + 2.0 * ts))
    if not (np.abs(x * x * (x + 3.0 * ts) - 3.0 * u) <= 1e-14 * 3.0 * u.real).all():
        return None
    value = complex(segment + np.exp(ts3 * (2.0 / 3.0)) * (weights / (x * (x + 2.0 * ts))).sum())
    gap = cmath.sqrt(ts3 * (-4.0 / 3.0)).real
    return value, abs(value) * (math.exp(-engine._SADDLE_DECAY * gap) + 8.0 * _EPS)


class TestLaplaceGate:
    @pytest.mark.parametrize("fn,phase", _EDGE_RAYS)
    def test_gate_opens_where_the_model_says(self, fn, phase):
        # On both sides of every edge of the model on the ray, the route and
        # the rung are the model's.
        checked = 0
        for r in _edges(phase):
            for z in (cmath.rect(r * (1 - 1e-9), phase), cmath.rect(r * (1 + 1e-9), phase)):
                cell = _cell(fn, z)
                if cell is None:
                    continue  # the asymptotic gate came first
                checked += 1
                rung = _model_rung(z)
                if rung is None:
                    assert cell.method == "hi_saddle"
                else:
                    assert cell.method == "hi_laplace"
                    res = _evaluate(z, fn)[0]
                    assert res.n_evaluations == _KEPT[rung] + _airy_evals(fn, z)
        assert checked >= 2

    @pytest.mark.parametrize("fn,phase", [("gi", 0.051), ("gi", 2.0 * _PI / 3.0 - 0.051),
                                          ("hi", 2.0 * _PI / 3.0 + 0.05)])
    def test_below_the_floor_the_cell_splits_at_the_saddle(self, fn, phase):
        # Just below rho = 0.15 the largest rung would reach the bar, yet
        # the cell takes the saddle split; just above, the gate takes that
        # rung.
        r = _radius_at_rho(_LAPLACE_MIN_RHO, phase)
        below, above = cmath.rect(r * (1 - 1e-9), phase), cmath.rect(r * (1 + 1e-9), phase)
        _, rho, height = _saddle_geometry(below)
        assert rho < _LAPLACE_MIN_RHO <= _saddle_geometry(above)[1]
        assert _LAPLACE_RUNGS[-1].decay * rho + 0.8 * height >= _LAPLACE_REACH
        assert _laplace_rung(below) is None
        assert _cell(fn, below).method == "hi_saddle"
        assert _cell(fn, above).method == "hi_laplace"

    @pytest.mark.parametrize("radius", [2.6, 3.26, 5.0, 8.0, 14.0, 14.5, 20.0, 100.0])
    def test_the_stokes_ray_never_takes_the_rule(self, radius):
        # On ph z = 2pi/3 rho is rounding noise: Re sigma* alone passes the
        # bar from |z| = 14, but there the rule's root runs into the wrong
        # valley (an O(1) error), so the floor must keep the ray out.
        for z in (cmath.rect(radius, 2.0 * _PI / 3.0), cmath.rect(radius, -2.0 * _PI / 3.0)):
            assert _laplace_rung(z) is None
            assert _laplace_rung(z * 1e3) is None
            for fn in (gi, hi):
                assert "laplace" not in fn(z).method
            for r in gi_hi_pair(z):
                assert "laplace" not in r.method

    def test_the_chosen_rung_is_the_smallest_that_passes(self):
        seen = set()
        for radius in np.geomspace(2.6, 200.0, 25):
            for phase in np.linspace(0.05, _PI, 60):
                z = cmath.rect(radius, phase)
                chosen = _laplace_rung(z)
                if chosen is None:
                    continue
                rung, exponent = chosen
                k = _LAPLACE_RUNGS.index(rung)
                assert exponent >= _LAPLACE_REACH
                _, rho, height = _saddle_geometry(z)
                assert exponent == rung.decay * rho + 0.8 * height
                for smaller in _LAPLACE_RUNGS[:k]:
                    assert smaller.decay * rho + 0.8 * height < _LAPLACE_REACH
                assert _KEPT[rung.n] == rung.nodes.size == _KEPT[_model_rung(z)]
                seen.add(rung.n)
                s = _laplace_sum(z, rung, exponent)
                assert s.n_evaluations == rung.nodes.size
                assert s.abs_error_estimate == abs(s.value) * (math.exp(-exponent) + 8.0 * _EPS)
        assert seen == {60, 240, 960}

    @pytest.mark.parametrize("call,z,served", [(hi, -5 + 0j, 1), (gi, 5j, 1),
                                                (gi_hi_pair, -5 + 0j, 1), (gi_hi_pair, 5j, 1)])
    def test_each_laplace_cell_walks_the_ladder_once(self, monkeypatch, call, z, served):
        # The contour cell that picks the rung also sums with it: one walk
        # of the ladder per Laplace sum.  gi(5j) and gi_hi_pair(5j) sum the
        # descent contour of hi(5j e^{2i pi/3}) once, inside the rotations.
        counts = {_laplace_rung: 0, _laplace_sum: 0}

        def counted(f):
            def wrapper(*args):
                counts[f] += 1
                return f(*args)

            return wrapper

        monkeypatch.setattr(scorerlib.engine, "_laplace_rung", counted(_laplace_rung))
        monkeypatch.setattr(scorerlib.engine, "_laplace_sum", counted(_laplace_sum))
        call(z)
        assert counts == {_laplace_rung: served, _laplace_sum: served}

    def test_gate_declines_above_1e100(self):
        # Cardano's z**3 overflows near |z| = 1.9e102.
        assert _laplace_rung(cmath.rect(1e100, _PI / 2.0)) is not None
        assert _laplace_rung(cmath.rect(1.0000001e100, _PI / 2.0)) is None

    def test_saddle_distance_vanishes_where_a_contour_meets_its_saddle(self):
        assert _saddle_geometry(cmath.rect(50.0, 2.0 * _PI / 3.0))[1] < 1e-12
        assert _saddle_geometry(complex(50.0, 0.0))[1] == 0.0
        # On the negative axis 3 theta / 4 = 3 pi / 4: cos and sin tie.
        expected = math.sqrt(2.0 / 3.0) * 9**0.75 * math.sqrt(0.5)
        assert _saddle_geometry(-9.0 + 0j)[1] == pytest.approx(expected)

    @pytest.mark.parametrize("phase", [0.1, 1.0, _PI / 3.0, 2.0, 2.0 * _PI / 3.0, 2.5, _PI])
    def test_saddle_height_is_the_real_part_of_the_nearer_saddle_value(self, phase):
        # Re sigma* = (2/3)|z|**1.5 - 2 rho**2: 0 on the negative axis, all
        # of (2/3)|z|**1.5 on the Stokes ray, where rho = 0.
        z = cmath.rect(9.0, phase)
        _, rho, height = _saddle_geometry(z)
        assert height == pytest.approx(18.0 - 2.0 * rho * rho, abs=1e-12)
        assert _saddle_geometry(-9.0 + 0j)[2] < 1e-14

    @pytest.mark.parametrize("rho", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("fn,phase", _GATED_RAYS)
    def test_rule_matches_the_adaptive_contour(self, fn, phase, rho):
        z = cmath.rect(_radius_at_rho(rho, phase) * (1 + 1e-9), phase)
        laplace = _evaluate(z, fn)[0]
        adaptive = _ADAPTIVE[fn](z)
        assert _cell(fn, z).method == "hi_laplace"
        assert laplace.converged
        diff = abs(laplace.value - adaptive.value)
        assert diff <= 1e-13 * abs(adaptive.value)
        assert diff <= laplace.abs_error_estimate + adaptive.abs_error_estimate
        # The rung's kept nodes, plus the Airy rule's beyond its series
        # disc.
        assert laplace.n_evaluations == _KEPT[_model_rung(z)] + _airy_evals(fn, z)
        assert laplace.n_evaluations <= adaptive.n_evaluations

    @pytest.mark.parametrize("radius,n", [(5.0, 960), (8.0, 240), (12.0, 60)])
    @pytest.mark.parametrize("fn,phase", [("hi", 2.0 * _PI / 3.0 + 0.1), ("gi", 0.1)])
    def test_each_rung_matches_the_adaptive_contour(self, fn, phase, radius, n):
        # Near the Stokes ray, and near the positive axis, whose rotation
        # lands there, the ladder climbs as the radius falls.
        z = cmath.rect(radius, phase)
        assert _model_rung(z) == n
        laplace = _evaluate(z, fn)[0]
        adaptive = _ADAPTIVE[fn](z)
        assert _cell(fn, z).method == "hi_laplace"
        assert laplace.n_evaluations == _KEPT[n] + _airy_evals(fn, z)
        assert laplace.n_evaluations <= adaptive.n_evaluations
        diff = abs(laplace.value - adaptive.value)
        assert diff <= 1e-13 * abs(adaptive.value)
        assert diff <= laplace.abs_error_estimate + adaptive.abs_error_estimate

    # Hi's descent phases, and the rotated images 2pi/3 + 0.1, pi and
    # 2pi/3 + 2pi/15 of Gi's phases 0.1, pi/3 and 0.6 pi.
    @pytest.mark.parametrize("phases", [(0.7 * _PI, 0.85 * _PI, _PI),
                                        (2.0 * _PI / 3.0 + 0.1, _PI, 0.8 * _PI)])
    @pytest.mark.parametrize("radius", [4.0, 30.0, 1e3])
    def test_roots_are_cardanos_nearest_the_end(self, phases, radius):
        # The slopes are 2 / (t**2 - z) at the root of the cubic nearest
        # the positive axis, the one that runs from 0 to the contour's end.
        for phase in phases:
            z = cmath.rect(radius, phase)
            rung = _LAPLACE_RUNGS[-1]
            slopes = _laplace_slopes(z, rung)
            for sigma, slope in zip(rung.nodes, slopes):
                cubic = np.roots([1.0, 0.0, -3.0 * z, -3.0 * sigma])
                nearest = cubic[np.argmin(np.abs(np.angle(cubic)))]
                expected = 2.0 / (nearest * nearest - z)
                assert abs(slope - expected) <= 1e-9 * abs(expected)

    def test_sum_matches_cardanos_root_on_served_cells(self):
        # A seeded sample of the cells the gate serves, on every rung, out
        # to |z| = 1e100: dt/dsigma in closed form against 1 / (t**2 - z).
        rng = np.random.default_rng(29)
        seen = set()
        for _ in range(3000):
            radius = 10.0 ** rng.uniform(math.log10(2.5), 100.0 if rng.random() < 0.3 else 3.0)
            phase = 2.0 * _PI / 3.0 + (_PI / 3.0) * rng.random() ** 3
            z = cmath.rect(radius, phase)
            chosen = _laplace_rung(z)
            if chosen is None:
                continue
            seen.add(chosen[0].n)
            s = _laplace_sum(z, *chosen)
            value, bar = _cardano_sum(z, *chosen)
            diff = abs(s.value - value)
            assert diff <= 2e-15 * abs(value)
            assert diff <= s.abs_error_estimate + bar
        assert seen == {60, 240, 960}

    @pytest.mark.parametrize("radius", [1e5, 1e20, 1e99, 1e100])
    # Hi's descent phase 0.9 pi, and the rotated images 5pi/6 and
    # pi - 1e-6 of Gi's phases pi/2 and pi/3 + 1e-6.
    @pytest.mark.parametrize("phase", [0.9 * _PI, 5.0 * _PI / 6.0, _PI - 1e-6])
    def test_huge_argument_sums_to_minus_one_over_z(self, phase, radius):
        # S = -(1/z) (1 + 2/z**3 + 40/z**6 + ...); the root near 0 is
        # cancelled to rounding noise, harmless in t**2 - z.
        z = cmath.rect(radius, phase)
        s = _laplace_sum(z, *_laplace_rung(z))
        expected = -(1.0 + 2.0 / z**3) / z
        assert abs(s.value - expected) <= 4.0 * _EPS / radius
        assert abs(s.value - expected) <= s.abs_error_estimate

    @pytest.mark.parametrize("radius", [1e99, 1e101, 1e120])
    def test_outcomes_past_the_overflow_edge(self, radius):
        # Hi on its descent ray and on the rotation sector is the
        # expansion's out there, before the gate is asked; Gi on pi/2
        # overflows in its Airy term whether or not the gate took the
        # contour.  No RuntimeWarning either way (tier-1 turns one into a
        # failure).
        for w in (cmath.rect(radius, 0.9 * _PI), cmath.rect(radius, 1.4)):
            res = hi(w)
            assert res.method == "asymptotic"
            assert _rel(res.value + 1.0 / (_PI * w), res.value) < 1e-15
        with pytest.raises(OverflowError):
            gi(cmath.rect(radius, _PI / 2.0))


#: The band just outside RAY_TOL above the Stokes ray where the adaptive
#: contour nearly met its saddle and hit max_subdivisions (5970
#: evaluations, not converged), and the rotation row just below it, whose
#: rotated Hi lands there.
_NEAR_RAY_RADII = (2.6, 3.0, 4.0)


class TestSaddleSplit:
    @pytest.mark.parametrize("radius", _NEAR_RAY_RADII)
    @pytest.mark.parametrize("offset", [1.5e-12, 2e-12, 5e-12, 1e-11])
    def test_just_outside_the_ray_band_hi_converges_on_96_nodes(self, radius, offset):
        z = cmath.rect(radius, 2.0 * _PI / 3.0 + offset)
        for res in (hi(z), gi_hi_pair(z)[1], hi(z.conjugate())):
            assert res.method in ("hi_saddle", "conjugate")
            assert (res.n_evaluations, res.converged) == (96, True)
        assert hi(z).method == "hi_saddle"

    @pytest.mark.parametrize("radius", _NEAR_RAY_RADII)
    def test_the_rotation_row_just_below_the_ray_converges(self, radius):
        # The rotated Hi costs 96; Ai adds its rule's nodes beyond its
        # series disc |z| <= 3.5.
        z = cmath.rect(radius, 2.0 * _PI / 3.0 - 1.5e-12)
        for res, method, w in ((hi(z), "hi_rotation", z * _ROT_DOWN), (gi(z), "gi_rotation", z)):
            airy_nodes = _airy_rule(w) if radius > _AI_SERIES_RADIUS else 0
            assert (res.method, res.n_evaluations, res.converged) == (method, 96 + airy_nodes, True)

    @pytest.mark.parametrize("z", [cmath.rect(2.6, 2.0 * _PI / 3.0 - 2e-12),
                                   cmath.rect(2.6, 1e-11)])
    def test_gi_whose_rotated_hi_lies_just_above_the_ray_converges(self, z):
        res = gi(z)
        assert (res.method, res.n_evaluations, res.converged) == ("gi_rotation", 96, True)

    @pytest.mark.parametrize("radius", [2.6, 5.0, 10.0, 14.0])
    @pytest.mark.parametrize("offset", [-0.5e-12, 0.0, 1e-3, 0.03])
    def test_split_matches_the_adaptive_contour(self, radius, offset):
        z = cmath.rect(radius, 2.0 * _PI / 3.0 + offset)
        split, adaptive = scorerlib.engine._hi_contour(z), hi_integral_principal(z)
        assert (split.method, adaptive.method) == ("hi_saddle", "hi_path_u")
        diff = abs(split.value - adaptive.value)
        assert diff <= 1e-13 * abs(adaptive.value)
        assert diff <= split.abs_error_estimate + adaptive.abs_error_estimate

    def test_split_matches_newtons_branch_on_the_whole_band(self):
        # A seeded sample of the band where no rung serves, the RAY_TOL band
        # below the ray included, at |z| <= 20: the closed-form branch
        # against Newton's, and neither declines.
        rng = np.random.default_rng(29)
        checked = 0
        for k in range(3000):
            radius = 10.0 ** rng.uniform(0.0, math.log10(scorerlib.engine._SADDLE_MAX_RADIUS))
            if k % 4 == 0:
                offset = RAY_TOL * rng.uniform(-1.0, 1.0)
            else:
                offset = 10.0 ** rng.uniform(-13.0, math.log10(0.3))
            z = cmath.rect(radius, 2.0 * _PI / 3.0 + offset)
            if _laplace_rung(z) is not None:
                continue
            checked += 1
            s, oracle = _saddle_sum(z), _newton_saddle_sum(z)
            assert s is not None and oracle is not None
            value, bar = oracle
            diff = abs(s.value - value)
            assert diff <= 2e-15 * abs(value)
            assert diff <= s.abs_error_estimate + bar
        assert checked >= 2000

    def test_error_bar_is_the_model_at_the_other_saddle(self):
        engine = scorerlib.engine
        for z in (cmath.rect(2.6, 2.0 * _PI / 3.0 + 0.1), cmath.rect(12.0, 2.0 * _PI / 3.0)):
            s = _saddle_sum(z)
            gap = cmath.sqrt(2.0 * (2.0 / 3.0) * -cmath.sqrt(z) ** 3).real
            model = math.exp(-engine._SADDLE_DECAY * gap)
            assert s.abs_error_estimate == pytest.approx(abs(s.value) * (model + 8.0 * _EPS),
                                                         rel=1e-12)
            assert (s.n_evaluations, s.converged) == (96, True)

    def test_a_root_that_misses_its_cubic_falls_back_to_the_adaptive_contour(self, monkeypatch):
        # With no residual allowed, some node misses its cubic: no value
        # from the split, the adaptive contour instead.
        z = cmath.rect(5.0, 2.0 * _PI / 3.0 + 0.02)
        assert _saddle_sum(z) is not None
        monkeypatch.setattr(scorerlib.engine, "_SADDLE_RESIDUAL", 0.0)
        assert _saddle_sum(z) is None
        res = hi(z)
        assert (res.method, res.converged) == ("hi_path_u", True)

    def test_radius_cap(self):
        # Beyond the cap the contour cell stays adaptive; the router
        # sends it nothing there, since the expansion serves |z| >= 15.
        for radius, method in ((19.9, "hi_saddle"), (25.0, "hi_path_u")):
            z = cmath.rect(radius, 2.0 * _PI / 3.0 + 1e-3)
            assert _laplace_rung(z) is None
            assert scorerlib.engine._hi_contour(z).method == method
        assert hi(cmath.rect(15.1, 2.0 * _PI / 3.0)).method == "asymptotic"
