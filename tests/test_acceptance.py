"""Acceptance gate: every shipped claim, one pass/fail line per criterion."""

from __future__ import annotations

import cmath
import math
import time

import numpy as np
import pytest

from scorerlib.airy import ai_complex, bi_complex
from scorerlib.cli import (
    _ASYMPTOTIC_REFERENCE,
    _QUADRATURE_REFERENCE,
    _hi_by_quadrature,
    _printed_ulp,
    _z_from_polar,
    main,
    parse_phase,
)
from scorerlib.contour import (
    gi_decay,
    gi_jacobian_u,
    gi_path_v_of_u,
    hi_branch_point,
    hi_decay,
    hi_path_u_of_v,
    hi_path_v_of_u,
    stokes_path,
)
from scorerlib.engine import (
    GI_AT_ZERO,
    HI_AT_ZERO,
    gi,
    gi_asymptotic,
    gi_hi_pair,
    gi_integral,
    gi_real_positive,
    gi_series,
    hi,
    hi_asymptotic,
    hi_integral_principal,
    hi_integral_upper,
    hi_integral_v_form,
)

_PI = math.pi
_ROT_UP = cmath.exp(2j * _PI / 3.0)
_ROT_DOWN = cmath.exp(-2j * _PI / 3.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_golden_grid_by_quadrature():
    # All 15 stored 8-digit cells, each within 5e-9 of the printed magnitude,
    # under one second in total.
    t0 = time.perf_counter()
    worst = 0.0
    n_cells = 0
    for (radius, label), (ref_re, ref_im) in sorted(_QUADRATURE_REFERENCE.items()):
        z = _z_from_polar(radius, parse_phase(label))
        value = hi_integral_principal(z).value
        for ref, part in ((ref_re, value.real), (ref_im, value.imag)):
            if ref is None:
                continue
            n_cells += 1
            # Scale by the printed magnitude (the power of ten above the
            # leading digit), so 5e-9 means half a unit in the 8th digit.
            worst = max(worst, abs(part - ref) / (1e8 * _printed_ulp(ref)))
    elapsed = time.perf_counter() - t0
    ok = n_cells == 15 and worst < 5e-9 and elapsed < 1.0
    _report(
        1,
        ok,
        f"15 quadrature cells, worst difference {worst:.2e} of the printed "
        f"magnitude (< 5e-9), wall time {elapsed * 1e3:.0f} ms (< 1000 ms)",
    )


def test_criterion_2_bracketed_asymptotic_values():
    # Three correction terms (through 1/z**10) must reproduce the six
    # bracketed entries to their printed digits, and at the middle radius the
    # two routes must disagree visibly in the 7th-8th printed digit.
    worst_ulp = 0.0
    for (radius, label), (ref_re, ref_im) in sorted(_ASYMPTOTIC_REFERENCE.items()):
        z = _z_from_polar(radius, parse_phase(label))
        value = hi_asymptotic(z, n_terms=3).value
        for ref, part in ((ref_re, value.real), (ref_im, value.imag)):
            if ref is None:
                continue
            worst_ulp = max(worst_ulp, abs(part - ref) / _printed_ulp(ref))
    digits_ok = worst_ulp <= 1.0  # one final-digit rounding slop allowed

    gaps = []
    for (radius, label), (asym_re, asym_im) in _ASYMPTOTIC_REFERENCE.items():
        if radius != 10.0:
            continue
        quad_re, quad_im = _QUADRATURE_REFERENCE[(radius, label)]
        for asym, quad in ((asym_re, quad_re), (asym_im, quad_im)):
            if asym is None:
                continue
            gaps.append(abs(asym - quad) / _printed_ulp(quad))
    # A 7th-8th digit discrepancy is 1..99 units of the 8th printed digit.
    discrepancy_ok = all(1.0 <= g <= 99.0 for g in gaps) and len(gaps) == 5
    _report(
        2,
        digits_ok and discrepancy_ok,
        f"asymptotic cells within {worst_ulp:.2f} printed ulp; "
        f"radius-10 routes differ by {min(gaps):.0f}-{max(gaps):.0f} ulp "
        "(7th-8th digit)",
    )


def test_criterion_3_origin_closed_forms():
    third = 1.0 / 3.0
    gi0 = 1.0 / (3.0 ** (7.0 / 6.0) * math.gamma(2.0 * third))
    res_g = gi(0j)
    res_h = hi(0j)
    rel_g = abs(res_g.value - gi0) / gi0
    rel_h = abs(res_h.value - 2.0 * gi0) / (2.0 * gi0)
    bi0 = bi_complex(0j).value.real
    ratio_ok = (
        abs(HI_AT_ZERO - 2.0 * GI_AT_ZERO) <= 1e-13 * HI_AT_ZERO
        and abs(bi0 - 3.0 * GI_AT_ZERO) <= 1e-13 * bi0
    )
    ok = rel_g < 1e-13 and rel_h < 1e-13 and ratio_ok
    _report(
        3,
        ok,
        f"origin values match gamma closed forms to {max(rel_g, rel_h):.2e} "
        "(< 1e-13) and stand in ratio 1:2:3",
    )


def test_criterion_4_identity_suite():
    t0 = time.perf_counter()
    n_points = 0

    # Sum identity and conjugate symmetry on the stated polar grid, both
    # half-planes.
    radii = (0.5, 1.0, 2.0, 5.0, 8.0)
    phases = [k * _PI / 6.0 for k in range(7)]
    phases += [-p for p in phases if 0.0 < p < _PI]
    worst_sum = 0.0
    worst_conj = 0.0
    for r in radii:
        for ph in phases:
            z = cmath.rect(r, ph)
            n_points += 1
            g = gi(z).value
            h = hi(z).value
            b = bi_complex(z).value
            worst_sum = max(worst_sum, abs(g + h - b) / max(abs(g), abs(h), abs(b)))
            worst_conj = max(
                worst_conj,
                abs(gi(z.conjugate()).value - g.conjugate()) / max(abs(g), 1e-300),
                abs(hi(z.conjugate()).value - h.conjugate()) / max(abs(h), 1e-300),
            )

    # Single-rotation connection on middle-sector grids, both signs.
    worst_conn = 0.0
    for r in radii:
        for ph in (1.1, 1.25, 1.4, 1.55, 1.7, 1.85, 2.0):
            z = cmath.rect(r, ph)
            n_points += 1
            lhs = hi(z).value
            term = _ROT_UP * hi(z * _ROT_UP).value
            rhs = term + 2.0 * cmath.exp(-1j * _PI / 6.0) * ai_complex(z * _ROT_DOWN).value
            worst_conn = max(worst_conn, abs(lhs - rhs) / max(abs(lhs), abs(term)))
        for ph in (-1.2, -1.5, -1.8, -2.0):
            z = cmath.rect(r, ph)
            n_points += 1
            lhs = hi(z).value
            term = _ROT_DOWN * hi(z * _ROT_DOWN).value
            rhs = term + 2.0 * cmath.exp(1j * _PI / 6.0) * ai_complex(z * _ROT_UP).value
            worst_conn = max(worst_conn, abs(lhs - rhs) / max(abs(lhs), abs(term)))

    # Routed Gi below pi/3 (the rotation route beyond the series disc)
    # against the direct contour, and the real-axis integral on the
    # boundary ray.
    worst_pair = 0.0
    for r in radii:
        for ph in (0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0):
            z = cmath.rect(r, ph)
            n_points += 1
            a = gi(z).value
            bv = gi_integral(z).value
            worst_pair = max(worst_pair, abs(a - bv) / max(abs(a), abs(bv)))
        n_points += 1
        a = gi(complex(r, 0.0)).value
        bv = gi_real_positive(r).value
        worst_pair = max(worst_pair, abs(a - bv) / max(abs(a), abs(bv)))

    elapsed = time.perf_counter() - t0
    ok = (
        n_points >= 150
        and worst_sum < 1e-9
        and worst_conj < 1e-14
        and worst_conn < 1e-9
        and worst_pair < 1e-9
        and elapsed < 10.0
    )
    _report(
        4,
        ok,
        f"{n_points} grid points: sum identity {worst_sum:.2e}, conjugate "
        f"{worst_conj:.2e}, rotation {worst_conn:.2e}, pair-vs-contour "
        f"{worst_pair:.2e} (all < 1e-9), wall time {elapsed:.2f} s (< 10 s)",
    )


def test_criterion_5_contour_geometry_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)

    def osc_scale(u, v, x, y):
        return np.abs(u) ** 3 / 3.0 + np.abs(x * u) + np.abs(y * v) + 1.0

    # The oscillation straight from the exponent: Im(z t - t**3/3) for the
    # growing kernel, Re(z t + t**3/3) for the oscillatory one.
    def exponent(u, v, x, y, sign):
        t = u + 1j * v
        return complex(x, y) * t + sign * t * t * t / 3.0

    def hi_level(u, v, x, y):
        return float(np.max(np.abs(exponent(u, v, x, y, -1.0).imag) / osc_scale(u, v, x, y)))

    worst_level = 0.0
    worst_desc = 0.0
    for _ in range(20):
        ph = rng.uniform(2.0 * _PI / 3.0 + 0.02, _PI)
        r = rng.uniform(0.3, 30.0)
        x, y = r * math.cos(ph), r * math.sin(ph)
        u = np.linspace(0.0, 8.0, 81)
        v = hi_path_v_of_u(u, x, y)
        worst_level = max(worst_level, hi_level(u, v, x, y))
        worst_desc = max(worst_desc, -float(np.min(np.diff(hi_decay(u, v, x, y)))))
    for _ in range(20):
        ph = rng.uniform(0.0, 2.0 * _PI / 3.0 - 0.02)
        r = rng.uniform(0.3, 30.0)
        x, y = r * math.cos(ph), r * math.sin(ph)
        u = np.linspace(0.0, 8.0, 81)
        v = gi_path_v_of_u(u, x, y)
        worst_level = max(
            worst_level,
            float(np.max(np.abs(exponent(u, v, x, y, 1.0).real) / osc_scale(u, v, x, y))),
        )
        worst_desc = max(worst_desc, -float(np.min(np.diff(gi_decay(u, v, x, y)))))
    worst_stokes = 0.0
    for x in (-0.5, -2.0, -50.0):
        u0 = math.sqrt(-x / 2.0)
        u = np.concatenate([np.linspace(0.0, u0, 30), np.linspace(u0, u0 + 8.0, 40)])
        v, _ = stokes_path(u, x)
        worst_stokes = max(worst_stokes, hi_level(u, v, x, -math.sqrt(3.0) * x))
    for x, y in ((-3.0, 1.0), (-8.0, 2.5)):
        v1, _ = hi_branch_point(x, y)
        vs = np.linspace(0.0, v1, 31)[1:-1]
        for branch in ("near", "far"):
            us, _ = hi_path_u_of_v(vs, x, y, branch=branch)
            worst_level = max(worst_level, hi_level(us, vs, x, y))

    worst_jac = 0.0
    for _ in range(10):
        ph = rng.uniform(0.05, 2.0 * _PI / 3.0 - 0.05)
        r = rng.uniform(0.5, 15.0)
        x, y = r * math.cos(ph), r * math.sin(ph)
        for u in (0.3, 1.0, 2.5, 5.0):
            du = 1e-6 * max(u, 1.0)
            grid = np.array([u - du, u, u + du])
            v = gi_path_v_of_u(grid, x, y)
            fd = 1.0 + 1j * (float(v[2]) - float(v[0])) / (2.0 * du)
            jac = complex(np.asarray(gi_jacobian_u(u, float(v[1]), x, y)))
            worst_jac = max(worst_jac, abs(jac - fd) / max(abs(jac), 1.0))

    elapsed = time.perf_counter() - t0
    ok = (
        worst_level < 1e-12
        and worst_stokes < 1e-11
        and worst_desc <= 0.0
        and worst_jac < 1e-8
        and elapsed < 5.0
    )
    _report(
        5,
        ok,
        f"level-line residual {worst_level:.2e} (< 1e-12), Stokes residual "
        f"{worst_stokes:.2e} (< 1e-11), descent monotone, Jacobian-vs-FD "
        f"{worst_jac:.2e} (< 1e-8), wall time {elapsed:.2f} s (< 5 s)",
    )


def test_criterion_6_cross_representation_agreement():
    checks = []
    z = 10.0 * cmath.exp(1j * 5.0 * _PI / 6.0)
    a, b = hi_integral_principal(z).value, hi_integral_v_form(z).value
    checks.append(abs(a - b) / abs(a))
    z = 3j
    a, b = hi_integral_upper(z).value, hi(z).value
    checks.append(abs(a - b) / abs(a))
    z = 1 + 0.2j
    a, b = gi_integral(z).value, gi(z).value
    checks.append(abs(a - b) / abs(a))
    for x in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
        a, b = gi_real_positive(x).value, gi_series(complex(x, 0.0)).value
        checks.append(abs(a - b) / max(abs(a), 1e-300))
    worst = max(checks)
    _report(
        6,
        worst < 1e-9,
        f"{len(checks)} representation pairs agree to {worst:.2e} (< 1e-9)",
    )


def test_criterion_7_cost_pattern():
    # The counts themselves are integrator-specific; only the qualitative
    # pattern is claimed: the Stokes ray costs strictly more than 5pi/6 at
    # both small radii, and pi gets cheaper from radius 1 to radius 10.
    counts = {}
    for r in (1.0, 10.0):
        for label in ("pi", "5pi/6", "2pi/3"):
            z = _z_from_polar(r, parse_phase(label))
            counts[(r, label)] = _hi_by_quadrature(z).n_evaluations
    stokes_ok = all(
        counts[(r, "2pi/3")] > counts[(r, "5pi/6")] > 0 for r in (1.0, 10.0)
    )
    radius_ok = counts[(10.0, "pi")] < counts[(1.0, "pi")]
    _report(
        7,
        stokes_ok and radius_ok,
        "Stokes ray costs most in each row "
        f"(r=1: {counts[(1.0, '2pi/3')]} > {counts[(1.0, '5pi/6')]}; "
        f"r=10: {counts[(10.0, '2pi/3')]} > {counts[(10.0, '5pi/6')]}) and "
        f"pi gets cheaper with radius ({counts[(10.0, 'pi')]} < {counts[(1.0, 'pi')]})",
    )


def test_criterion_8_arc_data(tmp_path, capsys):
    results = {}
    for fn in ("gi", "hi"):
        out = tmp_path / f"{fn}_arc.csv"
        rc = main(
            ["arc", "--fn", fn, "--radius", "1", "--start", "0", "--stop", "pi",
             "--samples", "181", "--out", str(out)]
        )
        capsys.readouterr()
        rows = out.read_text(encoding="utf-8").splitlines()
        data = np.array([[float(f) for f in row.split(",")] for row in rows[1:]])
        results[fn] = (rc, data)

    converged_ok = all(rc == 0 for rc, _ in results.values())
    shapes_ok = all(data.shape == (181, 3) for _, data in results.values())

    # Grid smoothness: second differences of a smooth arc stay far below the
    # first-difference scale; a kink or bad sample would spike them.
    smooth_ok = True
    for _, data in results.values():
        vals = data[:, 1] + 1j * data[:, 2]
        d1 = np.abs(np.diff(vals))
        d2 = np.abs(np.diff(vals, 2))
        smooth_ok &= float(d2.max()) < 0.2 * float(d1.max())

    # Endpoint consistency: the stored golden cell at ph = pi and the
    # real-axis representations at ph = 0.
    hi_ref_neg1 = _QUADRATURE_REFERENCE[(1.0, "pi")][0]
    gi_end = results["gi"][1][-1, 1] + 1j * results["gi"][1][-1, 2]
    hi_end = results["hi"][1][-1, 1] + 1j * results["hi"][1][-1, 2]
    gi_start = results["gi"][1][0, 1]
    hi_start = results["hi"][1][0, 1]
    bi_neg1 = bi_complex(-1 + 0j).value.real
    bi_pos1 = bi_complex(1 + 0j).value.real
    end_ok = (
        abs(hi_end.real - hi_ref_neg1) < 5e-9
        and abs(hi_end.imag) < 1e-15
        and abs(gi_end.real - (bi_neg1 - hi_ref_neg1)) < 5e-9
        and abs(gi_start - gi_real_positive(1.0).value.real) < 1e-12
        and abs(hi_start - (bi_pos1 - gi_real_positive(1.0).value.real)) < 1e-10
    )
    ok = converged_ok and shapes_ok and smooth_ok and end_ok
    _report(
        8,
        ok,
        "both unit-radius arcs emitted 181 converged samples, pass the "
        "smoothness check, and their endpoints match the golden cell and "
        "the real-axis representations",
    )


def test_pair_evaluation_shares_airy_work():
    # Companion guarantee for the identity routes: one call yields both
    # solutions consistently.
    z = 4.0 + 0.5j
    g, h = gi_hi_pair(z)
    assert g.value == gi(z).value
    assert h.value == hi(z).value


def test_asymptotic_sector_trend():
    # Inside the oscillatory solution's expansion sector the quadrature and
    # the expansion agree near the axis; the gap then grows monotonically
    # toward the sector edge, where the neglected exponentially small part
    # switches on.
    gaps = []
    for off in (0.7, 0.5, 0.3, 0.2, 0.1):
        z = 10.0 * cmath.exp(1j * (_PI / 3.0 - off))
        a = gi_integral(z).value
        b = gi_asymptotic(z).value
        gaps.append(abs(a - b) / abs(a))
    near_axis = abs(
        gi_integral(10.0 * cmath.exp(0.25j)).value
        - gi_asymptotic(10.0 * cmath.exp(0.25j)).value
    ) / abs(gi_integral(10.0 * cmath.exp(0.25j)).value)
    assert near_axis < 1e-6
    assert all(late > early for early, late in zip(gaps, gaps[1:]))
