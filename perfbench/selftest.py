"""Self-tests of the benchmark harness (not part of the library's suite).

    python3 -m pytest -q perfbench/selftest.py

They check the harness, not scorerlib: seeded inputs, the oracle's
convergence guard, the checker, and the tracer's routing claims and
clean-up.  Needs mpmath, like the benchmark itself.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import mpmath
import pytest

import oracle
import run
import tracer as tracing
import workloads

PKG = run.load_library()


def _first_calls(wl: workloads.Workload, n: int) -> workloads.Workload:
    return dataclasses.replace(wl, calls=wl.calls[:n])


def _traced(wl: workloads.Workload) -> tuple[tracing.Tracer, run.Loop]:
    tr = tracing.Tracer(PKG)
    try:
        tr.install()
        loop = run.Caller(PKG, wl).run(0.0, min_cycles=1)
    finally:
        tr.restore()
    return tr, loop


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_are_deterministic_in_the_seed(name):
    a, b, c = workloads.build(name, 7), workloads.build(name, 7), workloads.build(name, 8)
    assert a == b
    assert a.points != c.points
    warmup = workloads.build(name, 7, workloads.WARMUP)
    assert not set(warmup.points) & set(a.points)
    assert len(warmup.calls) == len(a.calls)


def test_workload_mixes():
    plane = workloads.build("plane", 3)
    assert {c.fn for c in plane.calls} == {"gi", "hi", "gi_hi_pair"}
    assert all(1.0 <= abs(z) <= 40.0 for z in plane.points)
    descent = workloads.build("descent", 3)
    phases = [abs(cmath.phase(z)) for z in descent.points]
    assert all(2.0 * math.pi / 3.0 - 1e-12 <= p <= math.pi for p in phases)
    n = len(descent.points)
    assert sum(z.imag == 0.0 for z in descent.points) == n // 16
    assert any(z.imag < 0 for z in descent.points) and any(z.imag > 0 for z in descent.points)


@pytest.mark.parametrize("seed", (3, 4))
def test_only_the_stokes_probe_sits_on_the_stokes_rays(seed):
    on_ray = 2.0 * math.pi / 3.0
    probe = workloads.stokes_points(seed)
    assert len(probe) == workloads.STOKES_POINTS
    assert {cmath.phase(z) for z in probe} == {on_ray, -on_ray}
    lo, hi = workloads.STOKES_RADII
    assert all(lo <= abs(z) <= hi for z in probe)
    for name in workloads.NAMES:
        phases = [abs(cmath.phase(z)) for z in workloads.build(name, seed).points]
        assert min(abs(p - on_ray) for p in phases) > 1e-12, name


def test_descent_routes_only_to_hi_path_u_and_spends_nothing_in_airy():
    tr, loop = _traced(workloads.build("descent", 1))
    cache: dict = {}
    routes = {run._route_of(PKG, name, z, res.method, cache)
              for name, z, res, _ in tr.engine_calls}
    assert routes == {"hi_path_u"}
    assert tr.self_ns["airy"] == 0 and tr.self_ns["airy_integrand"] == 0
    assert tr.counts["contour.panels"] > 0


def test_airy_workload_never_calls_a_contour_integrand():
    tr, _ = _traced(_first_calls(workloads.build("airy", 1), 40))
    assert tr.counts["contour.panels"] == 0 and tr.self_ns["contour"] == 0
    assert tr.counts["airy_integrand.panels"] > 0 and tr.counts["airy.evals"] > 0


def test_cli_time_shows_only_on_arc():
    tr, _ = _traced(_first_calls(workloads.build("arc", 1), 2))
    assert tr.self_ns["cli"] > 0 and tr.engine_calls
    tr, _ = _traced(_first_calls(workloads.build("plane", 1), 30))
    assert tr.self_ns["cli"] == 0


def test_tracer_restores_every_wrapped_callable():
    owners = (PKG, PKG.engine, PKG.airy, PKG.cli)
    before = [dict(vars(m)) for m in owners]
    tr = tracing.Tracer(PKG)
    tr.install()
    assert PKG.engine.gi is not before[1]["gi"]
    tr.restore()
    for owner, saved in zip(owners, before):
        for name, value in saved.items():
            assert getattr(owner, name) is value, name


def test_tracer_refuses_a_missing_boundary(monkeypatch):
    monkeypatch.delattr(PKG.airy, "_bi_info")
    tr = tracing.Tracer(PKG)
    try:
        with pytest.raises(AttributeError):
            tr.install()
    finally:
        tr.restore()
    assert PKG.engine.integrate_piecewise.__module__ == "scorerlib.quadrature"


def test_reuse_ratio_exposes_results_kept_per_argument(monkeypatch):
    wl = _first_calls(workloads.build("descent", 1), 12)
    memo: dict = {}
    hi = PKG.hi

    def memoised(z):
        if z not in memo:
            memo[z] = hi(z)
        return memo[z]

    def ratio():
        loop = run.Caller(PKG, wl).run(0.0, min_cycles=3)
        latency, first = run.latencies([run.scaled_times(loop)])
        return sum(first.values()) / sum(latency.values())

    assert ratio() < 3.0
    monkeypatch.setattr(PKG, "hi", memoised)
    assert ratio() > 10.0


def test_oracle_rejects_the_unconverged_dps50_value():
    z = 18.93493022851787 + 31.38207478630011j
    with mpmath.workdps(50):
        at50 = complex(mpmath.scorergi(z))
    (g, h, b), dps = oracle.reference(z, oracle.SCORER)
    assert dps > 50
    assert abs(at50 - g) / abs(g) > 1e-2
    assert abs(g + h - b) <= 1e-14 * abs(b)


def test_oracle_aborts_when_no_precisions_agree(monkeypatch):
    calls = iter(range(1000))

    def drifting(z, names, dps):
        return [mpmath.mpf(next(calls)) + 1 for _ in names]

    monkeypatch.setattr(oracle, "_evaluate", drifting)
    with pytest.raises(oracle.OracleError):
        oracle.reference(2.0 + 1.0j, oracle.AIRY)


def _checked(wl, refs, outs):
    records = [run.Record(i, out, 1) for i, out in enumerate(outs)]
    return run.Checker(wl, refs).check(records)


def test_checker_flags_a_perturbed_value_and_counts_failures():
    wl = _first_calls(workloads.build("plane", 2), 6)
    points = [wl.points[c.arg] for c in wl.calls]
    wl = dataclasses.replace(wl, points=points,
                             calls=[dataclasses.replace(c, arg=i) for i, c in enumerate(wl.calls)])
    refs = oracle.references(points, wl.ref_names)
    outs = [getattr(PKG, c.fn)(wl.points[c.arg]) for c in wl.calls]
    clean = _checked(wl, refs, outs)
    assert clean.wrong == 0 and clean.failed == 0 and clean.max_rel_err < run.WRONG_REL

    k = next(i for i, c in enumerate(wl.calls) if c.fn in ("gi", "hi"))
    bad = dataclasses.replace(outs[k], value=outs[k].value * (1.0 + 1e-8))
    assert _checked(wl, refs, outs[:k] + [bad] + outs[k + 1:]).wrong == 1

    unconverged = dataclasses.replace(outs[k], converged=False)
    t = _checked(wl, refs, outs[:k] + [unconverged] + outs[k + 1:])
    assert t.failed == 1 and t.wrong == 0
    t = _checked(wl, refs, outs[:k] + [ValueError("boom")] + outs[k + 1:])
    assert t.failed == 1 and t.wrong == 0


def test_checker_flags_a_perturbed_airy_derivative():
    wl = _first_calls(workloads.build("airy", 2), 4)
    refs = oracle.references(wl.points, wl.ref_names)
    outs = [getattr(PKG, c.fn)(wl.points[c.arg]) for c in wl.calls]
    assert _checked(wl, refs, outs).wrong == 0
    bad = dataclasses.replace(outs[0], derivative=outs[0].derivative * (1.0 + 1e-8))
    assert _checked(wl, refs, [bad] + outs[1:]).wrong == 1
    zero = dataclasses.replace(outs[1], derivative=0j)
    assert _checked(wl, refs, outs[:1] + [zero] + outs[2:]).wrong == 1


def test_checker_guards_the_arc_command():
    wl = _first_calls(workloads.build("arc", 2), 1)
    refs = oracle.references(wl.points, wl.ref_names)
    caller = run.Caller(PKG, wl)
    try:
        loop = caller.run(0.0, min_cycles=1)
        code, text = loop.records[0].out
        assert code == 0
        assert run.Checker(wl, refs).check(loop.records).wrong == 0

        lines = text.splitlines()
        ph, re_v, im_v = lines[5].split(",")
        lines[5] = f"{ph},{float(re_v) * (1 + 1e-8)!r},{im_v}"
        perturbed = [run.Record(0, (0, "\n".join(lines) + "\n"), 1)]
        assert run.Checker(wl, refs).check(perturbed).wrong == 1

        truncated = [run.Record(0, (0, "\n".join(text.splitlines()[:-1]) + "\n"), 1)]
        assert run.Checker(wl, refs).check(truncated).malformed == 1
        usage_error = [run.Record(0, (1, ""), 1)]
        t = run.Checker(wl, refs).check(usage_error)
        assert t.malformed == 1 and t.failed == wl.arc_samples
        numerical = run.Checker(wl, refs).check([run.Record(0, (2, text), 1)])
        assert numerical.malformed == 0 and numerical.failed == wl.arc_samples
    finally:
        caller.close()


def test_arc_points_match_the_command():
    for r in (1.0, 7.3, 39.0):
        for ph in workloads.arc_phases(workloads.ARC_SAMPLES):
            assert workloads.arc_point(r, ph) == PKG.cli._z_from_polar(r, ph)
