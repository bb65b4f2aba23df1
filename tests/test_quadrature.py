"""Tests for the adaptive Gauss-Kronrod quadrature layer."""

from __future__ import annotations

import math

import numpy as np
import pytest

from scorerlib import quadrature
from scorerlib.quadrature import (
    GAUSS_WEIGHTS,
    KRONROD_WEIGHTS,
    MAP_CAP,
    NODES,
    NonFiniteIntegrandError,
    QuadratureConfig,
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


def _integrate(f, a, b):
    if math.isinf(b):
        return integrate_semi_infinite(f, a)
    return integrate_piecewise([(f, a, b)])


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

        whole = integrate_piecewise([(f, -1.0, 2.0)])
        left = integrate_piecewise([(f, -1.0, 0.3)])
        right = integrate_piecewise([(f, 0.3, 2.0)])
        assert abs(whole.value - (left.value + right.value)) < 1e-12

    def test_scaling_by_complex_constant(self):
        rng = np.random.default_rng(43)
        c = complex(rng.standard_normal(), rng.standard_normal())
        base = integrate_piecewise([(np.sin, 0.0, 2.0)])
        scaled = integrate_piecewise([(lambda t: c * np.sin(t), 0.0, 2.0)])
        assert abs(scaled.value - c * base.value) < 1e-13 * abs(c)

    def test_reversed_endpoints_flip_sign(self):
        fwd = integrate_piecewise([(np.exp, 0.0, 1.0)])
        rev = integrate_piecewise([(np.exp, 1.0, 0.0)])
        assert abs(fwd.value + rev.value) < 1e-12

    def test_reversed_range_is_refined(self):
        # A reversed panel has b - a < 0 and must still be bisected like
        # its forward mirror, not settled as too narrow.  Both end on the
        # sixteen sixteenths: the four start quarters (60 evaluations),
        # their eight halves (120) and then all sixteen (240), 420 in all.
        f = lambda t: np.cos(40.0 * t)  # noqa: E731
        fwd = integrate_piecewise([(f, 0.0, 1.0)])
        rev = integrate_piecewise([(f, 1.0, 0.0)])
        assert rev.converged
        assert rev.n_evaluations == fwd.n_evaluations == 420
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
        res = integrate_piecewise([(wrapped, 0.0, 4.0)])
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
    """Each refinement generation calls each piece's integrand once."""

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

    def test_each_generation_calls_a_piece_once_on_its_own_panels(self, monkeypatch):
        # Two pieces of one integrand, a finite part and a mapped tail: each
        # generation calls it once per piece it refines, in piece order, on
        # exactly the abscissae of that piece's panels.
        wrapped, calls = self._recording(lambda t: np.exp(-t) * np.cos(5.0 * t))
        generations = []
        evaluate = quadrature._evaluate

        def spy(pieces, batch):
            generations.append((list(batch), len(calls)))
            return evaluate(pieces, batch)

        monkeypatch.setattr(quadrature, "_evaluate", spy)
        res = integrate_piecewise([(wrapped, 0.0, 0.7), (wrapped, 0.7, math.inf)])
        assert res.converged
        assert abs(res.value - 1.0 / 26.0) < 1e-13
        assert len(generations) > 2
        ends = [first for _, first in generations[1:]] + [len(calls)]
        for (batch, first), end in zip(generations, ends):
            owners = sorted({piece for _, _, piece in batch})
            assert end - first == len(owners)
            for piece, t in zip(owners, calls[first:end]):
                tail = None if piece == 0 else 0.7
                expected = [
                    TestStartPartition._abscissae(a, b, tail)
                    for a, b, owner in batch
                    if owner == piece
                ]
                assert np.array_equal(t, np.concatenate(expected))
        assert sum(t.size for t in calls) == res.n_evaluations

    def test_cap_inside_a_generation_spends_exactly_the_budget(self):
        # The start spends 6 of the 7 bisections on both pieces' quarters
        # (4 panels each, one call per piece); the first refinement
        # generation wants more than the one split left and is cut to it
        # (2 panels).
        wrapped, calls = self._recording(lambda t: np.cos(40.0 * t * t))
        cfg = QuadratureConfig(max_subdivisions=7)
        res = integrate_piecewise([(wrapped, 0.0, 3.0), (wrapped, 3.0, 6.0)], cfg)
        assert not res.converged
        assert res.n_evaluations == 15 * (8 + 2)
        assert [t.size for t in calls] == [60, 60, 30]

    def test_nan_in_second_generation_reports_its_panel(self):
        # A node of [0, 1/8], a child of the start quarter [0, 1/4], that no
        # node of the four quarters comes near: only the second generation,
        # which bisects every quarter of cos(40 t), can hit it.
        bad = 0.0625 + 0.0625 * float(NODES[4])
        quarters = np.array([0.125, 0.375, 0.625, 0.875])[:, None] + 0.125 * NODES
        assert np.min(np.abs(quarters - bad)) > 1e-3
        wrapped, calls = self._recording(
            lambda t: np.where(np.abs(t - bad) < 1e-9, np.nan, np.cos(40.0 * t))
        )
        with pytest.raises(NonFiniteIntegrandError) as info:
            integrate_piecewise([(wrapped, 0.0, 1.0)])
        assert len(calls) == 2
        assert 0.0 < info.value.abscissa < 0.125
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
        # The four start quarters resolve sin on [0, 1]; only the tail is
        # refined, and each integrand is called at most once per generation.
        assert [t.size for t in smooth_calls] == [60]
        assert decaying_calls[0].size == 60
        assert len(decaying_calls) > 2
        assert 60 + sum(t.size for t in decaying_calls) == res.n_evaluations


class TestGenerationKernel:
    """The batched generation kernel against a plain per-panel rule.

    Every batch kind is covered: all panels finite, all in mapped tails, and
    a mix (the finite piece plus mapped tail of one integrand that
    ``engine.hi_integral_upper`` hands over, next to a second integrand).
    """

    @staticmethod
    def _samples(f, a, b, tail):
        """The 15 samples of one Gauss-Kronrod panel on ``[a, b]``, computed
        alone; with a tail origin, ``[a, b]`` lies in the variable ``s`` of
        ``t = tail + s/(1 - s)``."""
        s = 0.5 * (a + b) + 0.5 * (b - a) * NODES
        if tail is None:
            return np.asarray(f(s), dtype=complex)
        return np.asarray(f(tail + s / (1.0 - s)), dtype=complex) / (1.0 - s) ** 2

    @staticmethod
    def _wide(a, b):
        return b - a > 100.0 * np.finfo(float).eps * max(abs(a), abs(b), 1.0)

    @staticmethod
    def _quarters(a, b):
        """The four dyadic quarters of ``[a, b]``, bisected as the driver
        bisects."""
        mid = a + 0.5 * (b - a)
        edges = [a, a + 0.5 * (mid - a), mid, mid + 0.5 * (b - mid), b]
        return list(zip(edges[:-1], edges[1:]))

    def _reference(self, pieces, quartered):
        """Value, error estimate and panel count of one panel per piece
        (``quartered=0``) or of the four quarter panels of every piece wide
        enough to bisect (``quartered=1``).  Each error estimate is sharpened
        as the kernel's docstring states it.

        The Gauss/Kronrod difference cancels, so its rounding depends on how
        the 15 products are summed: each panel's Kronrod and Gauss sums are
        taken on their own, as the kernel sums each row of a generation."""
        panels = [
            (f, 0.0, 1.0, a) if b == math.inf else (f, a, b, None) for f, a, b in pieces
        ]
        if quartered:
            panels = [
                (f, p, q, tail)
                for f, a, b, tail in panels
                for p, q in (self._quarters(a, b) if self._wide(a, b) else [(a, b)])
            ]
        weights = np.stack((KRONROD_WEIGHTS, GAUSS_WEIGHTS), axis=1).astype(complex)
        eps = np.finfo(float).eps
        value, err = 0j, 0.0
        for f, a, b, tail in panels:
            row = self._samples(f, a, b, tail)
            kronrod, gauss = (row[:, None] * weights).sum(axis=0)
            half = 0.5 * (b - a)
            e = abs(kronrod - gauss)
            resabs = np.sum(KRONROD_WEIGHTS * np.abs(row))
            resasc = np.sum(KRONROD_WEIGHTS * np.abs(row - 0.5 * kronrod))
            if resasc != 0.0:
                e = resasc * min(1.0, (200.0 * e / resasc) ** 1.5)
            value += kronrod * half
            err += max(e * abs(half), 50.0 * eps * resabs * abs(half))
        return value, err, len(panels)

    @staticmethod
    def _batches():
        from scorerlib.engine import _gi_integrand

        z = 6.0 * np.exp(1.9j)
        valley = _gi_integrand(z.real, z.imag)
        v_star = math.sqrt(-1.5 * z.real)
        decaying = lambda t: np.exp(-t) * np.cos(3.0 * t)  # noqa: E731
        wavy = lambda t: np.exp(1j * t) / (1.0 + t * t)  # noqa: E731
        return {
            # The third piece is a narrow panel: settled, never bisected.
            "finite": [(wavy, 0.0, 2.0), (decaying, 0.5, 4.0), (wavy, 5.0, 5.0 + 1e-13)],
            "mapped": [(decaying, 0.0, math.inf), (wavy, 1.5, math.inf)],
            "mixed": [(valley, 0.0, v_star), (valley, v_star, math.inf), (wavy, 0.0, 3.0)],
        }

    @pytest.mark.parametrize("kind", ["finite", "mapped", "mixed"])
    @pytest.mark.parametrize("quartered", [0, 1])
    def test_panels_match_the_plain_rule(self, kind, quartered):
        # A cap of 0 keeps one panel per piece; a cap of exactly the start's
        # three bisections per wide piece stops after the start partition.
        pieces = self._batches()[kind]
        n_wide = sum(1 for _, a, b in pieces if b == math.inf or self._wide(a, b))
        cfg = QuadratureConfig(max_subdivisions=3 * n_wide * quartered)
        res = integrate_piecewise(pieces, cfg)
        value, err, n_panels = self._reference(pieces, quartered)
        assert n_panels == len(pieces) + 3 * n_wide * quartered
        assert res.n_evaluations == 15 * n_panels
        assert abs(res.value - value) <= 1e-14 * abs(value)
        # The bars differ only in the order their panels are added up.
        assert math.isclose(res.abs_error_estimate, err, rel_tol=1e-14)
        assert err > 0.0

    def test_a_panel_is_the_same_alone_and_in_a_batch(self):
        # The mixed batch's twelve start quarters, evaluated together and
        # one by one: each panel's value and error estimate agree bit for bit.
        pieces = self._batches()["mixed"]
        spans = [(f, a if b == math.inf else None) for f, a, b in pieces]
        batch = [
            (p, q, k)
            for k, (_, a, b) in enumerate(pieces)
            for p, q in self._quarters(*((0.0, 1.0) if b == math.inf else (a, b)))
        ]
        assert len(batch) == 12
        vals, errs = quadrature._evaluate(spans, batch)
        for panel, val, err in zip(batch, vals, errs):
            assert quadrature._evaluate(spans, [panel]) == ([val], [err])

    @pytest.mark.parametrize(
        "f,b",
        [
            (lambda t: 3.0 * t * t + 1.0, 2.0),
            # Mapped, 1/(1 + t)**2 is the constant 1 in s.
            (lambda t: 1.0 / (1.0 + t) ** 2, math.inf),
        ],
    )
    def test_exact_panel_gets_the_rounding_floor(self, f, b):
        res = integrate_piecewise([(f, 0.0, b)], QuadratureConfig(max_subdivisions=0))
        value, err, _ = self._reference([(f, 0.0, b)], 0)
        resabs = abs(value)  # the integrand is positive
        assert math.isclose(res.abs_error_estimate, err, rel_tol=1e-12)
        assert math.isclose(err, 50.0 * np.finfo(float).eps * resabs, rel_tol=1e-12)

    def test_narrow_panel_is_never_bisected(self):
        # The start spends three of the four bisections on the wide piece's
        # quarters and leaves the narrow one whole.  The narrow panel then
        # has by far the largest error estimate, yet the one bisection left
        # goes to a quarter of the wide piece.
        narrow_calls, wide_calls = [], []

        def narrow(t):
            narrow_calls.append(t)
            return 1e30 * np.sqrt(np.abs(t - 5.0 - 3.7e-14))

        def wide(t):
            wide_calls.append(t)
            return np.cos(3.0 * t)

        cfg = QuadratureConfig(max_subdivisions=4)
        res = integrate_piecewise([(narrow, 5.0, 5.0 + 1e-13), (wide, 0.0, 4.0)], cfg)
        assert [t.size for t in narrow_calls] == [15]
        assert [t.size for t in wide_calls] == [60, 30]
        assert res.n_evaluations == 105

    @pytest.mark.parametrize("kind", ["finite", "mapped", "mixed"])
    def test_non_finite_sample_reports_the_integrands_abscissa(self, kind):
        seen = []

        def poisoned(f):
            def g(t):
                seen.append(t.copy())
                out = np.asarray(f(t), dtype=complex)
                return np.where(t > 0.8, np.nan, out)

            return g

        wrapped = {}
        pieces = [
            (wrapped.setdefault(id(f), poisoned(f)), a, b)
            for f, a, b in self._batches()[kind]
        ]
        with pytest.raises(NonFiniteIntegrandError) as info:
            integrate_piecewise(pieces)
        t = np.concatenate(seen)
        assert info.value.abscissa == t[t > 0.8][0]

    @pytest.mark.parametrize("kind", ["finite", "mapped", "mixed"])
    def test_wrong_shape_raises(self, kind):
        pieces = [(lambda t: np.ones(3), a, b) for _, a, b in self._batches()[kind]]
        with pytest.raises(ValueError, match="one value per abscissa"):
            integrate_piecewise(pieces)


class TestStartPartition:
    """Every piece starts on its four dyadic quarter panels."""

    _decaying = staticmethod(lambda t: np.exp(-t) * np.cos(3.0 * t))
    _wavy = staticmethod(lambda t: np.exp(1j * t) / (1.0 + t * t))
    _recording = staticmethod(TestGenerationBatching._recording)

    @staticmethod
    def _abscissae(a, b, tail):
        """The 15 abscissae of the panel ``[a, b]``, which lies in the
        variable ``s`` of ``t = tail + s/(1 - s)`` when ``tail`` is set."""
        s = 0.5 * (a + b) + 0.5 * (b - a) * NODES
        return s if tail is None else tail + np.minimum(s / (1.0 - s), MAP_CAP)

    @pytest.mark.parametrize(
        "kind,ranges",
        [
            ("finite", [(0, 0.0, 2.0), (1, 0.5, 4.0)]),
            ("mapped", [(0, 0.0, math.inf), (1, 1.5, math.inf)]),
            ("mixed", [(0, 0.0, 0.7), (0, 0.7, math.inf), (1, 0.0, 3.0)]),
        ],
    )
    def test_first_call_gets_the_quarter_nodes(self, kind, ranges):
        recorded = [self._recording(self._decaying), self._recording(self._wavy)]
        integrate_piecewise([(recorded[k][0], a, b) for k, a, b in ranges])
        for k, (_, calls) in enumerate(recorded):
            # The first generation calls the integrand once per piece, on
            # that piece's own four quarters.
            mine = [(a, b) for owner, a, b in ranges if owner == k]
            assert len(calls) >= len(mine)
            for call, (a, b) in zip(calls, mine):
                a, b, tail = (0.0, 1.0, a) if b == math.inf else (a, b, None)
                expected = [
                    self._abscissae(p, q, tail) for p, q in TestGenerationKernel._quarters(a, b)
                ]
                assert np.array_equal(call, np.concatenate(expected))

    @pytest.mark.parametrize(
        "a,b,panels",
        [
            (5.0, 5.0 + 1e-13, 1),  # too narrow to bisect at all
            (1.0, 1.0 + 150.0 * np.finfo(float).eps, 2),  # its halves are too narrow
        ],
    )
    def test_narrow_piece_keeps_its_panels(self, a, b, panels):
        wrapped, calls = self._recording(lambda t: np.sqrt(np.abs(t - 1.0)))
        res = integrate_piecewise([(wrapped, a, b)])
        assert [t.size for t in calls] == [15 * panels]
        assert res.n_evaluations == 15 * panels

    @pytest.mark.parametrize(
        "cap,panels", [(0, [1, 1]), (1, [2, 1]), (2, [2, 2]), (4, [4, 2])]
    )
    def test_cap_is_spent_level_by_level(self, cap, panels):
        # Level 1 bisects every piece before level 2 bisects any half.
        first, first_calls = self._recording(lambda t: np.cos(40.0 * t))
        second, second_calls = self._recording(lambda t: np.cos(30.0 * t))
        cfg = QuadratureConfig(max_subdivisions=cap)
        res = integrate_piecewise([(first, 0.0, 1.0), (second, 1.0, 2.0)], cfg)
        assert [[t.size for t in first_calls], [t.size for t in second_calls]] == [
            [15 * panels[0]],
            [15 * panels[1]],
        ]
        assert not res.converged
        assert res.n_evaluations == sum(t.size for t in first_calls + second_calls)

    def test_same_leaves_as_the_one_panel_start(self):
        # From one panel, the driver bisected [0, 1], both halves and then
        # [3/4, 1]: 135 evaluations ending on the five leaves below.  The
        # quarter start skips the first two generations: 60 + 30.
        wrapped, calls = self._recording(lambda t: np.exp(20.0 * t))
        res = integrate_piecewise([(wrapped, 0.0, 1.0)])
        assert res.converged
        assert [t.size for t in calls] == [60, 30]
        leaves = [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 0.875), (0.875, 1.0)]
        assert np.array_equal(
            calls[1], np.concatenate([self._abscissae(a, b, None) for a, b in leaves[3:]])
        )
        samples = TestGenerationKernel._samples
        value = sum(
            0.5 * (b - a) * np.sum(KRONROD_WEIGHTS * samples(wrapped, a, b, None))
            for a, b in leaves
        )
        assert abs(res.value - value) <= 1e-15 * abs(value)


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
            integrate_piecewise([(lambda t: np.where(t > 0.5, np.inf, 1.0), 0.0, 1.0)])
        assert isinstance(info.value.abscissa, float)
        assert info.value.abscissa > 0.5

    def test_nan_integrand_raises(self):
        with pytest.raises(NonFiniteIntegrandError):
            integrate_piecewise([(lambda t: np.where(t > 0.9, np.nan, t), 0.0, 1.0)])

    def test_non_convergence_is_flagged_not_raised(self):
        cfg = QuadratureConfig(max_subdivisions=1)
        res = integrate_piecewise([(lambda t: np.cos(40.0 * t * t), 0.0, 6.0)], cfg)
        assert not res.converged
        assert res.abs_error_estimate > quadrature.REL_TOL * abs(res.value)


class TestOscillatoryAccuracy:
    @pytest.mark.parametrize("omega", [5.0, 20.0, 80.0])
    def test_resolves_oscillation_by_refinement(self, omega):
        # At omega = 80 the value, 8.4e-3, lies so far below the integrand's
        # scale that the relative target falls under the panels' rounding
        # floor, 50 eps times the integral of |f|: the driver spends its cap
        # and says so, and the value is resolved all the same.
        exact = (1.0 - math.cos(omega * 3.0)) / omega
        res = integrate_piecewise([(lambda t: np.sin(omega * t), 0.0, 3.0)])
        assert res.converged == (omega < 80.0)
        assert abs(res.value - exact) <= res.abs_error_estimate
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
            res = integrate_piecewise(
                [(lambda t: sum(c * t**k for k, c in enumerate(coeffs)), a, b)]
            )
            assert abs(res.value - exact) <= 1e-12 * max(1.0, abs(exact))
