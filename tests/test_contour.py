"""Tests for the descent-path geometry of ``scorerlib.integrals`` (level lines, Jacobians,
classification) and for the shared result type of ``scorerlib.contour``."""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
import pytest

import scorerlib
from scorerlib import engine, integrals, quadrature
from scorerlib.contour import RAY_TOL, DomainError, ScorerResult, combine
from scorerlib.engine import hi
from scorerlib.integrals import (
    gi_decay,
    gi_jacobian_u,
    gi_path_v_of_u,
    hi_branch_point,
    hi_decay,
    hi_integral_principal,
    hi_integral_v_form,
    hi_jacobian_u,
    hi_path_u_of_v,
    hi_path_v_of_u,
    stokes_path,
)
from scorerlib.quadrature import integrate_piecewise, integrate_semi_infinite

_SQRT3 = math.sqrt(3.0)


def _osc_scale(u, v, x, y):
    # Natural size of the individual phase terms; residuals are compared
    # against it so huge |z| does not mask genuine path errors.
    return np.abs(u) ** 3 / 3.0 + np.abs(x * u) + np.abs(y * v) + 1.0


def _hi_oscillation(u, v, x, y):
    # Im(z t - t**3/3), straight from the exponent: an independent check of
    # the level-line formulas.
    t = np.asarray(u) + 1j * np.asarray(v)
    return np.imag(complex(x, y) * t - t * t * t / 3.0)


def _gi_oscillation(u, v, x, y):
    # Re(z t + t**3/3), the oscillation of the oscillatory kernel.
    t = np.asarray(u) + 1j * np.asarray(v)
    return np.real(complex(x, y) * t + t * t * t / 3.0)


def _seeded_hi_points(n):
    rng = np.random.default_rng(314159)
    out = []
    for _ in range(n):
        ph = rng.uniform(2.0 * math.pi / 3.0 + 0.02, math.pi)
        r = rng.uniform(0.3, 30.0)
        out.append((r * math.cos(ph), r * math.sin(ph)))
    return out


def _seeded_gi_points(n):
    rng = np.random.default_rng(271828)
    out = []
    for _ in range(n):
        ph = rng.uniform(0.0, 2.0 * math.pi / 3.0 - 0.02)
        r = rng.uniform(0.3, 30.0)
        out.append((r * math.cos(ph), r * math.sin(ph)))
    return out


class TestGrowingKernelPath:
    @pytest.mark.parametrize("x,y", _seeded_hi_points(12))
    def test_oscillation_vanishes_along_path(self, x, y):
        u = np.linspace(0.0, 8.0, 81)
        v = hi_path_v_of_u(u, x, y)
        residual = np.abs(_hi_oscillation(u, v, x, y)) / _osc_scale(u, v, x, y)
        assert float(residual.max()) < 1e-12

    @pytest.mark.parametrize("x,y", _seeded_hi_points(8))
    def test_decay_increases_monotonically(self, x, y):
        u = np.linspace(0.0, 10.0, 201)
        v = hi_path_v_of_u(u, x, y)
        decay = np.asarray(hi_decay(u, v, x, y))
        assert decay[0] == 0.0
        assert np.all(np.diff(decay) > 0.0)

    def test_path_starts_at_origin(self):
        v0 = hi_path_v_of_u(np.array([0.0]), -2.0, 1.0)
        assert float(v0[0]) == 0.0

    @pytest.mark.parametrize("x,y", _seeded_hi_points(6))
    def test_jacobian_matches_finite_differences(self, x, y):
        for u in (0.25, 0.7, 1.6, 3.0, 6.0):
            du = 1e-6 * max(u, 1.0)
            grid = np.array([u - du, u, u + du])
            v = hi_path_v_of_u(grid, x, y)
            fd = 1.0 + 1j * (float(v[2]) - float(v[0])) / (2.0 * du)
            jac = complex(np.asarray(hi_jacobian_u(u, float(v[1]), x, y)))
            assert abs(jac - fd) / max(abs(jac), 1.0) < 1e-8

    def test_rejects_wrong_sector(self):
        with pytest.raises(DomainError, match="x < 0"):
            hi_path_v_of_u(1.0, 2.0, 1.0)
        with pytest.raises(DomainError, match="conjugation"):
            hi_path_v_of_u(1.0, -2.0, -1.0)
        with pytest.raises(DomainError, match="Stokes"):
            hi_path_v_of_u(1.0, -1.0, 5.0)
        with pytest.raises(DomainError, match="u >= 0"):
            hi_path_v_of_u(-0.5, -2.0, 1.0)


class TestFoldedPath:
    @pytest.mark.parametrize("x,y", [(-3.0, 1.0), (-8.0, 2.5), (-1.5, 0.4), (-20.0, 9.0)])
    def test_branches_satisfy_level_condition(self, x, y):
        v1, u1 = hi_branch_point(x, y)
        v = np.linspace(0.0, v1, 41)[1:-1]
        for branch in ("near", "far"):
            u, _ = hi_path_u_of_v(v, x, y, branch=branch)
            residual = np.abs(_hi_oscillation(u, v, x, y)) / _osc_scale(u, v, x, y)
            assert float(residual.max()) < 1e-12

    @pytest.mark.parametrize("x,y", [(-3.0, 1.0), (-8.0, 2.5), (-20.0, 9.0)])
    def test_branches_meet_at_fold_point(self, x, y):
        v1, u1 = hi_branch_point(x, y)
        near = float(hi_path_u_of_v(v1, x, y, branch="near")[0])
        far = float(hi_path_u_of_v(v1, x, y, branch="far")[0])
        assert abs(near - u1) < 1e-7 * max(u1, 1.0)
        assert abs(far - u1) < 1e-7 * max(u1, 1.0)

    @pytest.mark.parametrize("x,y", [(-0.5, 6.123233995736766e-17), (-3.0, 1e-10)])
    def test_fold_point_just_above_the_negative_axis(self, x, y):
        # 1.5 (-x - d) rounds to 0 there when written as a difference, and the
        # fold point raised ZeroDivisionError.
        v1, u1 = hi_branch_point(x, y)
        assert v1 > 0.0
        assert abs(float(_hi_oscillation(u1, v1, x, y))) < 1e-12 * _osc_scale(u1, v1, x, y)
        u, _ = hi_path_u_of_v(np.array([0.5 * v1]), x, y, branch="far")
        assert np.all(np.isfinite(u))

    def test_fold_point_sits_on_level_line(self):
        x, y = -5.0, 2.0
        v1, u1 = hi_branch_point(x, y)
        residual = abs(float(_hi_oscillation(u1, v1, x, y)))
        assert residual < 1e-12 * _osc_scale(u1, v1, x, y)

    def test_jacobian_v_matches_finite_differences(self):
        # dt/dv = du/dv + i, with du/dv the slope of the returned u(v).
        x, y = -4.0, 1.2
        v1, _ = hi_branch_point(x, y)
        for branch in ("near", "far"):
            for frac in (0.2, 0.5, 0.8):
                v = frac * v1
                dv = 1e-7 * max(v, 1.0)
                grid = np.array([v - dv, v, v + dv])
                u, jac = hi_path_u_of_v(grid, x, y, branch=branch)
                fd = (u[2] - u[0]) / (2.0 * dv) + 1j
                assert abs(jac[1] - fd) / max(abs(jac[1]), 1.0) < 1e-7

    def test_rejects_height_above_fold(self):
        x, y = -3.0, 1.0
        v1, _ = hi_branch_point(x, y)
        with pytest.raises(DomainError, match="fold"):
            hi_path_u_of_v(1.01 * v1, x, y)

    def test_rejects_unknown_branch(self):
        with pytest.raises(ValueError, match="branch"):
            hi_path_u_of_v(0.1, -3.0, 1.0, branch="middle")

    def test_rejects_wrong_sector(self):
        with pytest.raises(DomainError):
            hi_branch_point(1.0, 1.0)
        with pytest.raises(DomainError, match="y > 0"):
            hi_branch_point(-3.0, 0.0)


class TestStokesRayPath:
    @pytest.mark.parametrize("x", [-0.5, -2.0, -50.0])
    def test_oscillation_vanishes_on_both_segments(self, x):
        u0 = math.sqrt(-x / 2.0)
        u = np.concatenate(
            [np.linspace(0.0, u0, 30), np.linspace(u0, u0 + 8.0, 40)]
        )
        v, _ = stokes_path(u, x)
        y = -_SQRT3 * x  # phase of z exactly 2*pi/3
        residual = np.abs(_hi_oscillation(u, v, x, y)) / _osc_scale(u, v, x, y)
        assert float(residual.max()) < 1e-11

    def test_straight_segment_has_exact_slope(self):
        x = -2.0
        u0 = math.sqrt(-x / 2.0)
        u = np.linspace(0.0, 0.999 * u0, 20)
        v, dv = stokes_path(u, x)
        assert np.all(dv == _SQRT3)
        assert np.allclose(v, _SQRT3 * u, rtol=0.0, atol=0.0)

    def test_corner_is_continuous_and_slope_jumps(self):
        x = -2.0
        u0 = math.sqrt(-x / 2.0)
        eps = 1e-9
        v_lo, dv_lo = stokes_path(np.array([u0 - eps]), x)
        v_hi, dv_hi = stokes_path(np.array([u0 + eps]), x)
        assert abs(float(v_hi[0]) - float(v_lo[0])) < 1e-8
        assert float(dv_lo[0]) == _SQRT3
        assert abs(float(dv_hi[0]) - (-1.0 / _SQRT3)) < 1e-7

    def test_height_decays_beyond_corner(self):
        x = -2.0
        u0 = math.sqrt(-x / 2.0)
        u = np.linspace(u0, u0 + 20.0, 100)
        v, dv = stokes_path(u, x)
        assert np.all(np.diff(v) < 0.0)
        assert np.all(dv[1:] < 0.0)

    def test_saddle_sits_at_the_corner(self):
        x = -2.0
        u0 = math.sqrt(-x / 2.0)
        v0, _ = stokes_path(np.array([u0]), x)
        z = complex(x, -_SQRT3 * x)
        saddle = cmath.sqrt(z)
        assert abs(complex(u0, float(v0[0])) - saddle) < 1e-12

    def test_rejects_nonnegative_x(self):
        with pytest.raises(DomainError):
            stokes_path(1.0, 0.5)
        with pytest.raises(DomainError, match="u >= 0"):
            stokes_path(-1.0, -0.5)


class TestOscillatoryKernelPath:
    @pytest.mark.parametrize("x,y", _seeded_gi_points(12))
    def test_oscillation_vanishes_along_path(self, x, y):
        u = np.linspace(0.0, 8.0, 81)
        v = gi_path_v_of_u(u, x, y)
        residual = np.abs(_gi_oscillation(u, v, x, y)) / _osc_scale(u, v, x, y)
        assert float(residual.max()) < 1e-12

    @pytest.mark.parametrize("x,y", _seeded_gi_points(8))
    def test_decay_increases_monotonically(self, x, y):
        if y == 0.0:
            y = 1e-12
        u = np.linspace(0.0, 10.0, 201)
        v = gi_path_v_of_u(u, x, y)
        decay = np.asarray(gi_decay(u, v, x, y))
        assert np.all(np.diff(decay) > 0.0)

    def test_stable_on_the_positive_real_axis(self):
        # y = 0 makes the naive form 0/0; the rationalized form must return
        # the correct limit path v = 0 for u**2 <= -3x (here all u).
        u = np.linspace(0.0, 5.0, 21)
        v = gi_path_v_of_u(u, 2.0, 0.0)
        assert np.all(np.isfinite(v))
        residual = np.abs(_gi_oscillation(u, v, 2.0, 0.0)) / _osc_scale(u, v, 2.0, 0.0)
        assert float(residual.max()) < 1e-12

    @pytest.mark.parametrize("x,y", _seeded_gi_points(6))
    def test_jacobian_matches_finite_differences(self, x, y):
        for u in (0.25, 0.7, 1.6, 3.0, 6.0):
            du = 1e-6 * max(u, 1.0)
            grid = np.array([u - du, u, u + du])
            v = gi_path_v_of_u(grid, x, y)
            fd = 1.0 + 1j * (float(v[2]) - float(v[0])) / (2.0 * du)
            jac = complex(np.asarray(gi_jacobian_u(u, float(v[1]), x, y)))
            assert abs(jac - fd) / max(abs(jac), 1.0) < 1e-8

    def test_rejects_wrong_sector(self):
        with pytest.raises(DomainError, match="conjugation"):
            gi_path_v_of_u(1.0, 1.0, -0.5)
        with pytest.raises(DomainError):
            gi_path_v_of_u(1.0, -3.0, 1.0)
        with pytest.raises(DomainError, match="u >= 0"):
            gi_path_v_of_u(-1.0, 1.0, 1.0)


class TestJacobianSingularities:
    def test_growing_kernel_jacobian_rejects_saddle(self):
        # v**2 - u**2 + x = 0 is the saddle of the exponent.
        with pytest.raises(DomainError, match="saddle"):
            hi_jacobian_u(1.0, 1.0, 0.0, 1.0)

    def test_oscillatory_jacobian_rejects_its_singularity(self):
        with pytest.raises(DomainError):
            gi_jacobian_u(1.0, -0.5, 1.0, 1.0)


class TestJacobianTypes:
    @pytest.mark.parametrize("jacobian", [hi_jacobian_u, gi_jacobian_u])
    def test_floats_give_a_scalar_and_arrays_an_array(self, jacobian):
        # dt/du = 1 + i*slope at (u, v) = (1, 1/2), x = 2, y = 1: hi's slope
        # (2uv - y)/(v^2 - u^2 + x) is 0 over 5/4, gi's (u^2 - v^2 + x)/(2uv + y)
        # is (11/4)/2 = 11/8, both exact in doubles.
        jac = jacobian(1.0, 0.5, 2.0, 1.0)
        assert np.ndim(jac) == 0
        assert complex(jac) == 1.0 + 1j * (0.0 if jacobian is hi_jacobian_u else 11.0 / 8.0)
        arr = jacobian(np.array([1.0, 1.0]), np.array([0.5, 0.5]), 2.0, 1.0)
        assert arr.dtype == complex and arr.shape == (2,)
        assert np.all(arr == jac)


class TestPathClassification:
    """Which contour ``hi_integral_principal`` takes: the Stokes ray's within
    ``RAY_TOL`` of it, the level line through the origin elsewhere."""

    @pytest.fixture
    def stokes_calls(self, monkeypatch):
        calls = []

        def spy(u, x):
            calls.append(x)
            return stokes_path(u, x)

        monkeypatch.setattr(integrals, "stokes_path", spy)
        return calls

    def test_interior_point(self, stokes_calls):
        z = complex(-2.0, 1.0)
        a = hi_integral_principal(z)
        assert not stokes_calls
        assert a.method == "hi_path_u" and a.converged
        assert abs(a.value - hi_integral_v_form(z).value) <= 1e-12 * abs(a.value)

    def test_negative_axis_point(self, stokes_calls):
        # The level line at y = 0 is the real axis: the integral of the real
        # kernel exp(x u - u**3/3), bit for bit.
        x = -3.0
        a = hi_integral_principal(complex(x, 0.0))
        assert not stokes_calls
        ref = integrate_piecewise([(lambda u: np.exp(x * u - u**3 / 3.0) + 0.0j, 0.0, math.inf)])
        assert a.value == (1.0 / math.pi) * ref.value
        assert a.value.imag == 0.0
        assert a.n_evaluations == ref.n_evaluations

    def test_stokes_ray_point(self, stokes_calls):
        z = 4.0 * complex(math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0))
        assert hi_integral_principal(z).converged
        assert stokes_calls

    def test_lower_half_plane_is_folded_up(self):
        # Folding belongs to the engine's entry points; the representation
        # itself rejects the lower half-plane, a negative-zero y included.
        with pytest.raises(DomainError):
            hi_integral_principal(complex(-2.0, -1.0))
        with pytest.raises(DomainError):
            hi_integral_principal(complex(-3.0, -0.0))

    def test_rejects_phase_outside_principal_range(self):
        with pytest.raises(DomainError):
            hi_integral_principal(complex(1.0, 1.0))
        with pytest.raises(DomainError):
            hi_integral_principal(complex(-2.0, 2.0 * _SQRT3 * (1.0 + 1e-9)))
        for zero in (0j, complex(-0.0, 0.0)):
            with pytest.raises(DomainError):
                hi_integral_principal(zero)

    def test_phase_tolerance_widens_stokes_ray(self, stokes_calls):
        hi_integral_principal(cmath.rect(4.0, 2.0 * math.pi / 3.0 + 1e-6))
        assert not stokes_calls
        for offset in (-0.5 * RAY_TOL, 0.5 * RAY_TOL):
            stokes_calls.clear()
            hi_integral_principal(cmath.rect(4.0, 2.0 * math.pi / 3.0 + offset))
            assert stokes_calls


class TestPhaseParts:
    def test_growing_kernel_exponent_reconstruction(self):
        # |exp(z t - t**3/3)| must equal exp(-decay).
        z = complex(-1.3, 0.7)
        t = complex(0.8, 0.5)
        direct = z * t - t**3 / 3.0
        assert abs(direct.real + hi_decay(t.real, t.imag, z.real, z.imag)) < 1e-14

    def test_oscillatory_kernel_exponent_reconstruction(self):
        # |exp(i(z t + t**3/3))| must equal exp(-decay).
        z = complex(0.9, 1.1)
        t = complex(0.6, 0.4)
        direct = 1j * (z * t + t**3 / 3.0)
        assert abs(direct.real + gi_decay(t.real, t.imag, z.real, z.imag)) < 1e-14


class TestCombine:
    def _parts(self):
        a = ScorerResult(1.0 + 2.0j, "a", 1e-14, 30, True)
        b = ScorerResult(-3.0 + 0.5j, "quadrature", 4e-13, 45, True)
        return a, b

    def test_value_is_the_weighted_sum(self):
        a, b = self._parts()
        res = combine("sum", [(2.0, a), (-1j, b)], derivative=5j)
        assert res.value == 2.0 * a.value - 1j * b.value
        assert res.method == "sum"
        assert res.derivative == 5j

    def test_error_covers_the_weighted_part_errors(self):
        a, b = self._parts()
        res = combine("sum", [(2.0, a), (-1j, b)])
        assert res.abs_error_estimate >= 2.0 * 1e-14 + 4e-13
        assert res.abs_error_estimate <= 2.0 * 1e-14 + 4e-13 + 1e-14

    def test_cost_and_convergence_add_up(self):
        a, b = self._parts()
        assert combine("sum", [(1.0, a), (1.0, b)]).n_evaluations == 75
        assert combine("sum", [(1.0, a), (1.0, b)]).converged
        stalled = dataclasses.replace(b, converged=False)
        assert not combine("sum", [(1.0, a), (1.0, stalled)]).converged
        assert not combine("one", [(0.5, stalled)]).converged

    def test_single_term_keeps_a_negative_zero(self):
        res = combine("one", [(1.0, ScorerResult(complex(-0.0, 1.0), "a", 0.0, 0))])
        assert math.copysign(1.0, res.value.real) == -1.0


class TestOneResultType:
    def test_integrals_and_rules_return_scorer_results(self):
        tail = integrate_semi_infinite(lambda t: np.exp(-t) + 0.0j, 0.0)
        pieces = integrate_piecewise([(lambda t: np.exp(-t) + 0.0j, 0.0, 1.0)])
        z = cmath.rect(10.0, 5.0 * math.pi / 6.0)
        laplace = engine._laplace_sum(z, *engine._laplace_rung(z))
        saddle = engine._saddle_sum(cmath.rect(5.0, 2.0 * math.pi / 3.0 + 0.01))
        parts = [tail, pieces, laplace, saddle]
        assert all(type(part) is ScorerResult for part in parts)
        assert [part.method for part in parts] == ["quadrature", "quadrature", "laplace", "saddle"]
        assert [part.n_evaluations for part in parts[2:]] == [32, 96]
        assert all(part.converged and part.derivative is None for part in parts)

    def test_results_are_plain_records(self):
        res = hi(5j)
        stalled = dataclasses.replace(res, converged=False)
        assert (stalled.value, stalled.method, stalled.n_evaluations) == (
            res.value, res.method, res.n_evaluations)
        assert res.converged and not stalled.converged
        with pytest.raises(TypeError):
            hash(res)

    def test_no_other_result_type_is_exported(self):
        for module in (scorerlib, quadrature, engine):
            assert [name for name in dir(module) if name.endswith("Result")] == ["ScorerResult"]
        assert [name for name in scorerlib.__all__ if name.endswith("Result")] == ["ScorerResult"]
