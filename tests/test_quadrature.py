"""Tests for the adaptive Gauss-Kronrod quadrature layer."""

from __future__ import annotations

import math

import numpy as np
import pytest

from scorerlib.quadrature import (
    GAUSS_WEIGHTS,
    KRONROD_WEIGHTS,
    NODES,
    NonFiniteIntegrandError,
    QuadratureConfig,
    integrate_finite,
    integrate_piecewise,
    integrate_semi_infinite,
    panel_rule,
)

# Closed forms used for error-honesty checks: (integrand, a, b, exact value).
# b = inf marks a semi-infinite range.
_CLOSED_FORMS = [
    (lambda t: t**3, 0.0, 1.0, 0.25),
    (lambda t: np.sin(t), 0.0, math.pi, 2.0),
    (lambda t: np.exp(t), 0.0, 1.0, math.e - 1.0),
    (lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0, math.pi / 4.0),
    (lambda t: np.sqrt(t), 0.0, 1.0, 2.0 / 3.0),
    (lambda t: np.log(t), 0.0, 1.0, -1.0),
    (lambda t: np.exp(1j * t), 0.0, 1.0, math.sin(1.0) + 1j * (1.0 - math.cos(1.0))),
    (lambda t: np.exp(-t), 0.0, math.inf, 1.0),
    (lambda t: np.exp(-t * t), 0.0, math.inf, 0.5 * math.sqrt(math.pi)),
    (lambda t: t * t * np.exp(-t), 0.0, math.inf, 2.0),
    (lambda t: np.exp(-t) * np.cos(t), 0.0, math.inf, 0.5),
    (lambda t: np.exp(-t) * np.sin(t) * t, 0.0, math.inf, 0.5),
]


def _integrate(f, a, b, config=None):
    if math.isinf(b):
        return integrate_semi_infinite(f, a, config)
    return integrate_finite(f, a, b, config)


class TestPanelRule:
    def test_weights_sum_to_interval_length(self):
        assert math.isclose(float(KRONROD_WEIGHTS.sum()), 2.0, rel_tol=1e-15)
        assert math.isclose(float(GAUSS_WEIGHTS.sum()), 2.0, rel_tol=1e-15)
        assert NODES.shape == (15,)

    @pytest.mark.parametrize("degree", range(14))
    def test_gauss_subset_exact_through_degree_13(self, degree):
        exact = (1.0 - (-1.0) ** (degree + 1)) / (degree + 1)
        approx = float(np.sum(GAUSS_WEIGHTS * NODES**degree))
        assert abs(approx - exact) < 5e-15

    @pytest.mark.parametrize("degree", range(23))
    def test_kronrod_rule_exact_through_degree_22(self, degree):
        exact = (1.0 - (-1.0) ** (degree + 1)) / (degree + 1)
        approx = float(np.sum(KRONROD_WEIGHTS * NODES**degree))
        assert abs(approx - exact) < 5e-15

    def test_single_panel_on_polynomial(self):
        value, err, n = panel_rule(lambda t: 3.0 * t**2 - t + 1.0, -1.0, 2.0)
        assert n == 15
        assert abs(value - (9.0 - 1.5 + 3.0)) <= max(err, 1e-13)

    def test_rejects_non_finite_endpoints(self):
        with pytest.raises(ValueError):
            panel_rule(lambda t: t, 0.0, math.inf)

    def test_rejects_wrong_output_shape(self):
        with pytest.raises(ValueError, match="one value per abscissa"):
            panel_rule(lambda t: np.array([1.0]), 0.0, 1.0)


class TestClosedForms:
    @pytest.mark.parametrize("f,a,b,exact", _CLOSED_FORMS)
    def test_value_and_error_estimate_honest(self, f, a, b, exact):
        res = _integrate(f, a, b)
        assert res.converged
        true_err = abs(res.value - exact)
        # The estimate may be loose but must not be more than 10x optimistic.
        assert true_err <= 10.0 * res.abs_error_estimate + 1e-13 * max(1.0, abs(exact))
        assert true_err <= 1e-11 * max(1.0, abs(exact))


class TestLinearity:
    def test_additivity_over_subintervals(self):
        rng = np.random.default_rng(42)
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)

        def f(t):
            return sum(c * t**k for k, c in enumerate(coeffs))

        whole = integrate_finite(f, -1.0, 2.0)
        left = integrate_finite(f, -1.0, 0.3)
        right = integrate_finite(f, 0.3, 2.0)
        assert abs(whole.value - (left.value + right.value)) < 1e-12

    def test_scaling_by_complex_constant(self):
        rng = np.random.default_rng(43)
        c = complex(rng.standard_normal(), rng.standard_normal())
        base = integrate_finite(np.sin, 0.0, 2.0)
        scaled = integrate_finite(lambda t: c * np.sin(t), 0.0, 2.0)
        assert abs(scaled.value - c * base.value) < 1e-13 * abs(c)

    def test_reversed_endpoints_flip_sign(self):
        fwd = integrate_finite(np.exp, 0.0, 1.0)
        rev = integrate_finite(np.exp, 1.0, 0.0)
        assert abs(fwd.value + rev.value) < 1e-12

    def test_reversed_range_is_refined(self):
        # A reversed panel has b - a < 0 and must still be bisected like
        # its forward mirror, not settled as too narrow.
        f = lambda t: np.cos(40.0 * t)  # noqa: E731
        fwd = integrate_finite(f, 0.0, 1.0)
        rev = integrate_finite(f, 1.0, 0.0)
        assert rev.converged
        assert rev.n_evaluations == fwd.n_evaluations == 465
        assert abs(rev.value + fwd.value) <= fwd.abs_error_estimate
        assert abs(rev.value + math.sin(40.0) / 40.0) < 1e-15


class TestEvaluationCounting:
    def _counting(self, f):
        count = [0]

        def wrapped(t):
            count[0] += np.asarray(t).size
            return f(t)

        return wrapped, count

    def test_finite_count_exact(self):
        wrapped, count = self._counting(lambda t: np.exp(-t * t) * np.cos(3 * t))
        res = integrate_finite(wrapped, 0.0, 4.0)
        assert res.n_evaluations == count[0]
        assert res.n_evaluations % 15 == 0

    def test_rational_map_count_exact(self):
        wrapped, count = self._counting(lambda t: np.exp(-t))
        res = integrate_semi_infinite(wrapped, 0.0)
        assert res.n_evaluations == count[0]

    def test_piecewise_count_pools_all_pieces(self):
        wrapped1, count1 = self._counting(lambda t: np.sin(t))
        wrapped2, count2 = self._counting(lambda t: np.exp(-t))
        res = integrate_piecewise([(wrapped1, 0.0, 1.0), (wrapped2, 1.0, math.inf)])
        assert res.n_evaluations == count1[0] + count2[0]


class TestGenerationBatching:
    """Each refinement generation calls each distinct integrand once."""

    @staticmethod
    def _recording(f):
        calls = []

        def wrapped(t):
            calls.append(t)
            return f(t)

        return wrapped, calls

    def test_integrand_receives_flat_batches(self):
        wrapped, calls = self._recording(lambda t: np.exp(-t) * np.cos(5.0 * t))
        res = integrate_semi_infinite(wrapped, 0.0)
        assert res.converged
        assert abs(res.value - 1.0 / 26.0) < 1e-13
        assert all(t.ndim == 1 and t.size % 15 == 0 for t in calls)
        assert sum(t.size for t in calls) == res.n_evaluations
        panels = res.n_evaluations // 15
        assert len(calls) * 5 < panels

    def test_pieces_sharing_an_integrand_share_its_calls(self):
        wrapped, calls = self._recording(lambda t: np.exp(-t) * np.cos(5.0 * t))
        res = integrate_piecewise([(wrapped, 0.0, 0.7), (wrapped, 0.7, math.inf)])
        assert res.converged
        assert abs(res.value - 1.0 / 26.0) < 1e-13
        assert calls[0].size == 30
        assert sum(t.size for t in calls) == res.n_evaluations

    def test_cap_inside_a_generation_spends_exactly_the_budget(self):
        # Generation 1 bisects both pieces (2 splits); generation 2 wants
        # more than the one split left and is cut to it.
        wrapped, calls = self._recording(lambda t: np.cos(40.0 * t * t))
        cfg = QuadratureConfig(rel_tol=1e-15, max_subdivisions=3)
        res = integrate_piecewise([(wrapped, 0.0, 3.0), (wrapped, 3.0, 6.0)], cfg)
        assert not res.converged
        assert res.n_evaluations == 15 * (2 + 2 * 3)
        assert [t.size for t in calls] == [30, 60, 30]

    def test_nan_in_second_generation_reports_its_panel(self):
        # A node of the left child [0, 0.5] that no first-generation node
        # comes near: only the second generation can hit it.
        bad = 0.25 + 0.25 * float(NODES[3])
        assert np.min(np.abs(0.5 + 0.5 * NODES - bad)) > 1e-3
        wrapped, calls = self._recording(
            lambda t: np.where(np.abs(t - bad) < 1e-9, np.nan, np.cos(40.0 * t))
        )
        with pytest.raises(NonFiniteIntegrandError) as info:
            integrate_finite(wrapped, 0.0, 1.0)
        assert len(calls) == 2
        assert 0.0 < info.value.abscissa < 0.5
        assert abs(info.value.abscissa - bad) < 1e-9

    def test_distinct_integrands_counted_per_integrand(self):
        smooth, smooth_calls = self._recording(np.sin)
        decaying, decaying_calls = self._recording(
            lambda t: np.exp(-t) * np.cos(5.0 * t)
        )
        res = integrate_piecewise([(smooth, 0.0, 1.0), (decaying, 1.0, math.inf)])
        assert res.converged
        exact = (1.0 - math.cos(1.0)) + math.exp(-1.0) * (
            math.cos(5.0) - 5.0 * math.sin(5.0)
        ) / 26.0
        assert abs(res.value - exact) < 1e-12
        # One panel resolves sin on [0, 1]; only the tail is refined, and
        # each integrand is called at most once per generation.
        assert [t.size for t in smooth_calls] == [15]
        assert decaying_calls[0].size == 15
        assert len(decaying_calls) > 2
        assert 15 + sum(t.size for t in decaying_calls) == res.n_evaluations


class TestPiecewise:
    def test_empty_piece_costs_nothing(self):
        res = integrate_piecewise([(np.sin, 1.0, 1.0)])
        assert res.value == 0.0
        assert res.n_evaluations == 0
        assert res.converged

    def test_split_range_matches_single_range(self):
        f = lambda t: np.exp(-t) * np.sin(2 * t)  # noqa: E731
        split = integrate_piecewise([(f, 0.0, 2.0), (f, 2.0, math.inf)])
        whole = integrate_semi_infinite(f, 0.0)
        assert abs(split.value - whole.value) < 1e-12
        assert abs(whole.value - 0.4) < 1e-12

    def test_tiny_piece_does_not_stall_refinement(self):
        # The second piece integrates to ~1e-22; a per-piece relative target
        # would never be met, the pooled target must be.
        big = lambda t: np.exp(-t)  # noqa: E731
        tiny = lambda t: 1e-22 * np.sin(t)  # noqa: E731
        res = integrate_piecewise([(big, 0.0, math.inf), (tiny, 0.0, 1.0)])
        assert res.converged
        assert abs(res.value - 1.0) < 1e-11

    def test_rejects_infinite_lower_endpoint(self):
        with pytest.raises(ValueError):
            integrate_piecewise([(np.sin, -math.inf, 0.0)])


class TestFailureModes:
    def test_non_finite_integrand_reports_abscissa(self):
        with pytest.raises(NonFiniteIntegrandError) as info:
            integrate_finite(lambda t: np.where(t > 0.5, np.inf, 1.0), 0.0, 1.0)
        assert isinstance(info.value.abscissa, float)
        assert info.value.abscissa > 0.5

    def test_nan_integrand_raises(self):
        with pytest.raises(NonFiniteIntegrandError):
            integrate_finite(lambda t: np.where(t > 0.9, np.nan, t), 0.0, 1.0)

    def test_non_convergence_is_flagged_not_raised(self):
        cfg = QuadratureConfig(rel_tol=1e-15, max_subdivisions=1)
        res = integrate_finite(lambda t: np.cos(40.0 * t * t), 0.0, 6.0, cfg)
        assert not res.converged
        assert res.abs_error_estimate > 1e-15 * abs(res.value)


class TestOscillatoryAccuracy:
    @pytest.mark.parametrize("omega", [5.0, 20.0, 80.0])
    def test_resolves_oscillation_by_refinement(self, omega):
        # The value is far below the integrand scale, so give the otherwise
        # unreachable relative target an absolute floor.
        exact = (1.0 - math.cos(omega * 3.0)) / omega
        cfg = QuadratureConfig(abs_tol=1e-13)
        res = integrate_finite(lambda t: np.sin(omega * t), 0.0, 3.0, cfg)
        assert res.converged
        assert abs(res.value - exact) < 1e-11

    def test_seeded_random_polynomials_exact(self):
        rng = np.random.default_rng(20260814)
        for _ in range(10):
            coeffs = rng.standard_normal(8)
            a, b = sorted(rng.uniform(-3.0, 3.0, size=2))
            exact = sum(
                c * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                for k, c in enumerate(coeffs)
            )
            res = integrate_finite(
                lambda t: sum(c * t**k for k, c in enumerate(coeffs)), a, b
            )
            assert abs(res.value - exact) <= 1e-12 * max(1.0, abs(exact))
