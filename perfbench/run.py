"""End-to-end and per-layer benchmark of scorerlib.

Run from the root of a checkout::

    python3 perfbench/run.py --workload plane --seed 1 --seconds 12 --trace 0

Each run is one closed loop: one caller in one process and one thread
issues the workload's next call only after the previous one returned.  The
library is imported from ``src/`` of the checkout.  The run

1. builds the workload's inputs from ``--seed`` (see ``workloads.py``);
2. gets converged references for every input (``oracle.py``; cached per
   workload and seed under ``perfbench/.cache``, outside every timing);
3. splits ``--seconds`` over ``WORKERS`` fresh worker processes, run one
   after another; each warms up on calls of the workload's kind at other
   arguments, times calls (with ``--trace 1``: half untraced, half traced)
   and checks every returned value; with ``--trace 0``, set-up time is
   measured in fresh interpreters before each worker;
4. prints a report and then one JSON line.  A call's latency is the lower
   quartile of its scaled repetitions in all workers together; per-layer
   metrics are medians over the workers.

The loop repeats one cycle of arguments, so a library that kept results
per argument would read fast here and not for a caller who never repeats
one.  That reuse is outside what the latencies measure; ``reuse_ratio``
(first time a worker makes a call over its latency, both pooled over the
workers) shows it: about 1 without reuse, far above with it.

Correctness rule: a finite, converged value whose relative error exceeds
``WRONG_REL`` (the engine's ``target_rel_accuracy``) is a wrong output and
fails the run.  A call that raised, returned a non-finite value or reported
``converged=False`` is counted in ``failed``; a value further from the
reference than its own ``abs_error_estimate`` is counted as an error-bar
miss.  Neither fails the run: both are known defects to be measured.
"""

from __future__ import annotations

import argparse
import cmath
import importlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import speed
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE_DIR = HERE / ".cache"
WORK_DIR = HERE / ".work"

#: Relative error above which a finite, converged value is wrong.
WRONG_REL = 1e-10
#: Untimed warm-up on the workload's kind of calls before any timing.
WARMUP_S = 0.7
#: Fresh interpreters started to measure set-up time before each worker;
#: the median over all of them is kept.
SETUP_PER_WORKER = 3
#: Fresh worker processes that share a run's measuring time.  The same code
#: runs up to 15% faster or slower from one process to the next on the
#: reference host, independently of the inputs; a quartile of the
#: repetitions pooled over several processes does not depend on which one
#: drew the slow layout.
WORKERS = 5
#: Calls between two runs of the calibration routine (every arc command).
TICK_EVERY = 5

ROUTES = (
    "series",
    "asymptotic",
    "gi_path_u",
    "gi_real_axis",
    "gi_rotation_pair",
    "hi_path_u",
    "hi_rotation",
    "bi_identity",
    "other",
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
#: Unit of every metric and report figure, by name.
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS["host_slowdown"] = "ratio"


def load_library():
    """Import scorerlib from ``src/`` of this checkout, nowhere else."""
    if not (SRC / "scorerlib" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no scorerlib sources under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("scorerlib")
    importlib.import_module("scorerlib.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: scorerlib imported from {pkg.__file__}, not {SRC}")
    return pkg


# ---------------------------------------------------------------------------
# The closed loop


@dataclass
class Record:
    """One call: its index in the cycle, what it returned, how long it took.

    ``out`` is the return value or the exception raised; for ``arc`` it is
    ``(exit code or exception, CSV text)``.
    """

    index: int
    out: object
    ns: int


@dataclass
class Loop:
    records: list[Record] = field(default_factory=list)
    #: Number of records in the first complete cycle, if one completed.
    first_cycle: int = 0
    #: Calibration timings taken between the calls (see ``speed.py``).
    ticks: list[int] = field(default_factory=list)


class Caller:
    """Issues one workload call at a time through the public entry points.

    Functions are looked up on the package at call time, so wrappers the
    tracer installs take effect.
    """

    def __init__(self, pkg, wl: workloads.Workload) -> None:
        self.pkg = pkg
        self.wl = wl
        self.arc_file = WORK_DIR / f"arc-{os.getpid()}.csv"
        if wl.name == "arc":
            WORK_DIR.mkdir(exist_ok=True)

    def argv(self, call: workloads.Call) -> list[str]:
        return [
            "arc", "--fn", call.fn, f"--radius={call.arg!r}",
            "--start=-pi", "--stop=pi",
            f"--samples={self.wl.arc_samples}", "--out", str(self.arc_file),
        ]

    def run(self, seconds: float, min_cycles: int = 0, on_cycle=None) -> Loop:
        calls = self.wl.calls
        points = self.wl.points
        pkg = self.pkg
        is_arc = self.wl.name == "arc"
        clock = time.perf_counter_ns
        loop = Loop()
        records = loop.records
        tick_every = 1 if is_arc else TICK_EVERY
        deadline = time.perf_counter() + seconds
        k = 0
        cycles = 0
        while cycles < min_cycles or time.perf_counter() < deadline:
            call = calls[k]
            if is_arc:
                argv = self.argv(call)
                self.arc_file.unlink(missing_ok=True)
                t0 = clock()
                try:
                    code = pkg.cli.main(argv)
                except Exception as exc:  # a crashed command fails its samples
                    code = exc
                dt = clock() - t0
                text = self.arc_file.read_text(encoding="utf-8") if self.arc_file.exists() else ""
                out = (code, text)
            else:
                fn = getattr(pkg, call.fn)
                z = points[call.arg]
                t0 = clock()
                try:
                    out = fn(z)
                except Exception as exc:  # a raised call is a failed call
                    out = exc
                dt = clock() - t0
            records.append(Record(k, out, dt))
            if len(records) % tick_every == 0:
                loop.ticks.append(speed.tick())
            k += 1
            if k == len(calls):
                k = 0
                cycles += 1
                if cycles == 1:
                    loop.first_cycle = len(records)
                    if on_cycle is not None:
                        on_cycle()
        return loop

    def close(self) -> None:
        self.arc_file.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Checking


@dataclass
class Tally:
    units: int = 0
    failed: int = 0
    wrong: int = 0
    malformed: int = 0
    results: int = 0
    errbar_misses: int = 0
    reported_evals: int = 0
    max_rel_err: float = 0.0
    worst: str = ""
    #: The first few distinct wrong outputs, as (where, relative error).
    wrong_outputs: list[tuple[str, float]] = field(default_factory=list)

    def value(self, value: complex, ref: complex, where: str) -> bool:
        """Score one finite, converged value; True when it is right."""
        rel = abs(value - ref) / abs(ref)
        if rel > self.max_rel_err:
            self.max_rel_err = rel
            self.worst = where
        if rel > WRONG_REL:
            self.wrong += 1
            if len(self.wrong_outputs) < 5 and all(w != where for w, _ in self.wrong_outputs):
                self.wrong_outputs.append((where, rel))
            return False
        return True


def _finite(v: complex) -> bool:
    return math.isfinite(v.real) and math.isfinite(v.imag)


class Checker:
    def __init__(self, wl: workloads.Workload, refs: list[list[complex]]) -> None:
        self.wl = wl
        self.refs = refs
        self.ref_index = {z: i for i, z in enumerate(wl.points)}
        self.col = {name: i for i, name in enumerate(wl.ref_names)}

    def ref(self, fn: str, z: complex) -> complex:
        return self.refs[self.ref_index[z]][self.col[fn]]

    def _scorer(self, t: Tally, fn: str, z: complex, res) -> bool:
        """Check one ScorerResult; False when the call failed."""
        t.results += 1
        t.reported_evals += int(res.n_evaluations)
        if not _finite(res.value) or not res.converged:
            return False
        ref = self.ref(fn, z)
        if abs(res.value - ref) > res.abs_error_estimate:
            t.errbar_misses += 1
        t.value(res.value, ref, f"{fn}({z!r})")
        return True

    def check(self, records: list[Record]) -> Tally:
        t = Tally()
        for rec in records:
            call = self.wl.calls[rec.index]
            if self.wl.name == "arc":
                self._arc(t, call, rec.out)
                continue
            t.units += 1
            z = self.wl.points[call.arg]
            out = rec.out
            if isinstance(out, Exception):
                t.failed += 1
            elif call.fn == "gi_hi_pair":
                ok_g = self._scorer(t, "gi", z, out[0])
                ok_h = self._scorer(t, "hi", z, out[1])
                t.failed += not (ok_g and ok_h)
            elif call.fn in ("gi", "hi"):
                t.failed += not self._scorer(t, call.fn, z, out)
            else:
                fn = call.fn[:2]
                if not (_finite(out.value) and _finite(out.derivative)):
                    t.failed += 1
                else:
                    t.value(out.value, self.ref(fn, z), f"{call.fn}({z!r})")
                    t.value(out.derivative, self.ref(fn + "p", z),
                            f"{call.fn}({z!r}).derivative")
        return t

    def _arc(self, t: Tally, call: workloads.Call, out) -> None:
        code, text = out
        samples = self.wl.arc_samples
        t.units += samples
        if isinstance(code, Exception):
            t.failed += samples
            return
        if code != 0:
            # Exit 2 is the documented numerical-failure code; anything else
            # means the command did not run as a sweep at all.
            t.failed += samples
            t.malformed += code != 2
            return
        lines = text.splitlines()
        phases = workloads.arc_phases(samples)
        if len(lines) != samples + 1 or lines[0] != "phase,re_value,im_value":
            t.malformed += 1
            t.failed += samples
            return
        for line, phase in zip(lines[1:], phases):
            try:
                ph_text, re_text, im_text = line.split(",")
                ph, value = float(ph_text), complex(float(re_text), float(im_text))
            except ValueError:
                t.malformed += 1
                t.failed += 1
                continue
            if abs(ph - phase) > 1e-14 * max(1.0, abs(phase)):
                t.malformed += 1
                t.failed += 1
                continue
            if not _finite(value):
                t.failed += 1
                continue
            z = workloads.arc_point(call.arg, phase)
            t.value(value, self.ref(call.fn, z), f"arc {call.fn} r={call.arg!r} ph={phase!r}")


# ---------------------------------------------------------------------------
# Metrics


def units_of(wl: workloads.Workload, records: list[Record]) -> int:
    return len(records) * (wl.arc_samples or 1)


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


SETUP_CODE = r"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import scorerlib
fn, arg = sys.argv[2], sys.argv[3]
if fn.startswith("arc:"):
    import scorerlib.cli
    argv = ["arc", "--fn", fn[4:], "--radius=" + arg, "--start=-pi", "--stop=pi",
            "--samples=2", "--out", sys.argv[4]]
    code = scorerlib.cli.main(argv)
    if code != 0:
        raise SystemExit(f"arc exited with {code}")
else:
    getattr(scorerlib, fn)(complex(arg))
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[5])
import speed
ticks = [speed.tick() for _ in range(80)][20:]
print(repr(seconds / speed.slowdown(ticks)))
"""


def setup_seconds(wl: workloads.Workload, call: workloads.Call) -> float:
    """Time to import scorerlib and make ``call`` in a fresh interpreter.

    The time is scaled by the host's slowdown measured in the same
    interpreter right after it: calibration taken in the parent before the
    interpreter starts follows the host too loosely for a 0.1 s span.
    """
    WORK_DIR.mkdir(exist_ok=True)
    out_file = WORK_DIR / f"setup-{os.getpid()}.csv"
    if wl.name == "arc":
        args = [f"arc:{call.fn}", repr(call.arg)]
    else:
        args = [call.fn, repr(wl.points[call.arg])]
    try:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *args, str(out_file), str(HERE)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
    finally:
        out_file.unlink(missing_ok=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def scaled_times(loop: Loop) -> dict[int, list[float]]:
    """The times in ms the loop made each distinct call of the cycle, in
    order, divided by the loop's slowdown: as on the reference host in its
    usual state."""
    scale = 1e-6 / speed.slowdown(loop.ticks)
    times: dict[int, list[float]] = {}
    for rec in loop.records:
        times.setdefault(rec.index, []).append(rec.ns * scale)
    return times


def latencies(per_worker: list[dict]) -> tuple[dict, dict]:
    """Each call's latency and first timing from the scaled times of one or
    more loops.

    The latency is the lower quartile of the call's times pooled over the
    loops; the slowdown they were scaled by is the lower quartile of the
    calibration times.  Matching quantiles of the two follow the host
    through the share of time it spends in fast and slow spells; the fastest
    repetition alone does not, because a spell decides whether any
    repetition lands in it, and a long call repeats only a few times.  The
    first timing is the median over the loops of each loop's first time.
    """
    pooled: dict = {}
    for times in per_worker:
        for k, ms in times.items():
            pooled.setdefault(k, []).extend(ms)
    return ({k: speed.low_quartile(ms) for k, ms in pooled.items()},
            {k: statistics.median(t[k][0] for t in per_worker) for k in pooled})


def end_to_end(wl, lat: list[float]) -> dict[str, float]:
    """Timing metrics from the latencies of the distinct calls, in ms."""
    units_per_call = wl.arc_samples or 1
    return {
        "calls_per_s": units_per_call * len(lat) / (sum(lat) * 1e-3),
        "gmean_ms": math.exp(statistics.fmean(math.log(v) for v in lat)),
        "p99_ms": percentile(lat, 0.99),
        "p50_ms": percentile(lat, 0.50),
    }


def quality(t: Tally, wl) -> dict[str, float]:
    """Result-level figures: not gated, reported as measured."""
    reports_evals = wl.name in ("plane", "descent")
    calls = max(t.units, 1)
    return {
        "evals_per_call": t.reported_evals / calls if reports_evals else 0.0,
        "fail_share": t.failed / calls,
        "errbar_miss_share": t.errbar_misses / t.results if t.results else 0.0,
        "max_rel_err": t.max_rel_err,
    }


def stokes_probe(pkg, seed: int) -> tuple[dict[str, float], list[tuple[str, float]]]:
    """Check ``gi`` and ``hi`` at the seeded points exactly on the Stokes
    rays (``workloads.stokes_points``), untimed.

    Returns the share of wrong outputs, the largest relative error and the
    first few wrong outputs.  A known defect of the library: measured on
    every run, never part of ``correct``.
    """
    points = workloads.stokes_points(seed)
    refs = oracle.references(points, oracle.SCORER, CACHE_DIR / f"stokes-{seed}.json")
    t = Tally()
    for z, (g, h, _) in zip(points, refs):
        for fn, ref in (("gi", g), ("hi", h)):
            res = getattr(pkg, fn)(z)
            t.units += 1
            if _finite(res.value) and res.converged:
                t.value(res.value, ref, f"{fn}({z!r})")
            else:
                t.failed += 1
    shares = {"stokes.wrong_share": t.wrong / t.units,
              "stokes.fail_share": t.failed / t.units,
              "stokes.max_rel_err": t.max_rel_err}
    return shares, t.wrong_outputs


def _route_of(pkg, name: str, z: complex, method: str, cache: dict) -> str:
    """Route tag of one result; a lower-half-plane result reports only
    ``conjugate``, so it takes the route of the call at ``conj(z)``."""
    if method == "conjugate":
        key = (name, z)
        if key not in cache:
            cache[key] = getattr(pkg, name)(z.conjugate()).method
        method = cache[key]
    return method if method in ROUTES else "other"


def _per_call_us(fn, reps: int, batches: int = 5) -> float:
    per = []
    for _ in range(batches):
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            fn()
        per.append((time.perf_counter_ns() - t0) / reps)
    return statistics.median(per) * 1e-3


def micro(pkg) -> dict[str, float]:
    """Single-layer micro-benchmarks at fixed arguments (not seeded)."""
    out: dict[str, float] = {}
    out["quadrature.panel_rule_us"] = _per_call_us(
        lambda: pkg.quadrature.panel_rule(lambda t: t + 0j, 0.0, 1.0), 200
    )

    # Capture the integrands the engine hands to the quadrature driver.
    captured: list = []
    original = pkg.engine.integrate_piecewise

    def capture(pieces, config=None):
        pieces = list(pieces)
        captured.append(pieces[0][0])
        return original(pieces, config)

    nodes = np.linspace(0.05, 3.0, 15)
    probes = (
        ("contour.hi_interior_us", pkg.hi, cmath.rect(8.0, 5.0 * math.pi / 6.0)),
        ("contour.hi_stokes_us", pkg.hi, cmath.rect(8.0, 2.0 * math.pi / 3.0)),
        ("contour.gi_us", pkg.gi, cmath.rect(8.0, 1.0)),
    )
    pkg.engine.integrate_piecewise = capture
    try:
        integrands = []
        for name, fn, z in probes:
            del captured[:]
            fn(z)
            integrands.append((name, captured[0] if captured else None))
    finally:
        pkg.engine.integrate_piecewise = original
    for name, f in integrands:
        out[name] = _per_call_us(lambda: f(nodes), 200) if f is not None else 0.0

    airy_probes = (
        ("airy.series_us", pkg.ai_complex, complex(2.0, 1.0), 100),
        ("airy.integral_us", pkg.ai_complex, cmath.rect(5.0, 0.5), 4),
        ("airy.rotation_us", pkg.ai_complex, cmath.rect(5.0, 2.5), 2),
        ("airy.asymptotic_us", pkg.ai_complex, cmath.rect(12.0, 0.5), 100),
        ("airy.bi_us", pkg.bi_complex, cmath.rect(5.0, 0.5), 2),
    )
    for name, fn, z, reps in airy_probes:
        out[name] = _per_call_us(lambda: fn(z), reps)
    dispatch_z = cmath.rect(30.0, 2.5)
    out["engine.dispatch_us"] = _per_call_us(lambda: pkg.hi(dispatch_z), 200)
    return out


def pair_ratio(pkg, wl, points: int = 40) -> float:
    """Time of ``gi_hi_pair`` over ``gi`` plus ``hi`` at the first
    ``points`` points the workload calls as a pair, each the fastest of two
    calls; 0 when the workload makes no pairs."""
    zs = [wl.points[c.arg] for c in wl.calls if c.fn == "gi_hi_pair"][:points]

    def best_ns(fn, z) -> int:
        times = []
        for _ in range(2):
            t0 = time.perf_counter_ns()
            fn(z)
            times.append(time.perf_counter_ns() - t0)
        return min(times)

    pair = sum(best_ns(pkg.gi_hi_pair, z) for z in zs)
    single = sum(best_ns(pkg.gi, z) + best_ns(pkg.hi, z) for z in zs)
    return pair / single if single else 0.0


def per_layer(pkg, wl, plain: Loop, traced: Loop, tr: tracing.Tracer,
              first: dict, checker: Checker) -> dict[str, float]:
    total_ns = sum(r.ns for r in traced.records)
    shares = tracing.module_shares(tr, total_ns)
    c1 = first["counts"]
    units1 = units_of(wl, traced.records[: traced.first_cycle])
    samples_traced = units_of(wl, traced.records)
    panels_all = tr.counts["contour.panels"] + tr.counts["airy_integrand.panels"]
    m: dict[str, float] = {
        "quadrature.self_share": shares["quadrature"],
        "quadrature.us_per_panel": tr.self_ns["quadrature"] / panels_all * 1e-3 if panels_all else 0.0,
        "quadrature.panels_per_call": c1["quadrature.panels"] / units1,
        "quadrature.leaf_ratio": (c1["quadrature.leaves"] / c1["quadrature.panels"]
                                  if c1["quadrature.panels"] else 0.0),
        "quadrature.cap_hits": float(c1["quadrature.cap_hits"]),
        "contour.self_share": shares["contour"],
        "contour.us_per_panel": (tr.self_ns["contour"] / tr.counts["contour.panels"] * 1e-3
                                 if tr.counts["contour.panels"] else 0.0),
        "airy.self_share": shares["airy"],
        "airy.integrand_share": shares["airy_integrand"],
        "airy.evals_per_call": c1["airy.evals"] / units1,
        "engine.self_share": shares["engine"],
        "cli.self_share": shares["cli"],
        "cli.us_per_sample": (tr.self_ns["cli"] / samples_traced * 1e-3
                              if wl.name == "arc" else 0.0),
    }

    # Routes of single-function engine calls: shares and evaluation counts
    # from the first traced cycle (exact), latency from every traced call.
    route_cache: dict = {}
    n_first = first["engine_calls"]
    share = dict.fromkeys(ROUTES, 0)
    evals = dict.fromkeys(ROUTES, 0)
    ms: dict[str, list[float]] = {r: [] for r in ROUTES}
    singles_first = 0
    for i, (name, z, res, ns) in enumerate(tr.engine_calls):
        if name == "gi_hi_pair" or isinstance(res, Exception):
            continue
        route = _route_of(pkg, name, z, res.method, route_cache)
        ms[route].append(ns * 1e-6)
        if i < n_first:
            singles_first += 1
            share[route] += 1
            evals[route] += res.n_evaluations
    for r in ROUTES:
        m[f"engine.route_share.{r}"] = share[r] / singles_first if singles_first else 0.0
        m[f"engine.route_evals.{r}"] = evals[r] / share[r] if share[r] else 0.0
        m[f"engine.route_ms.{r}"] = statistics.fmean(ms[r]) if ms[r] else 0.0
    m["engine.pair_ratio"] = pair_ratio(pkg, wl)
    m.update(micro(pkg))
    m["trace.overhead_ratio"] = (
        end_to_end(wl, list(latencies([scaled_times(plain)])[0].values()))["calls_per_s"]
        / end_to_end(wl, list(latencies([scaled_times(traced)])[0].values()))["calls_per_s"])
    m.update(quality(checker.check(traced.records[: traced.first_cycle]), wl))
    return m


# ---------------------------------------------------------------------------
# Main


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def measure(args, pkg, wl: workloads.Workload, checker: Checker) -> dict:
    """One worker's share of a run: warm up, time, check."""
    warmup = Caller(pkg, workloads.build(args.workload, args.seed, workloads.WARMUP))
    try:
        warmup.run(WARMUP_S)
    finally:
        warmup.close()
    caller = Caller(pkg, wl)
    try:
        if not args.trace:
            # One cycle at least, so that every call is timed in every worker.
            loop = caller.run(args.seconds, min_cycles=1)
            tally = checker.check(loop.records)
            metrics = {}
            times = scaled_times(loop)
            report = {**quality(tally, wl), "host_slowdown": speed.slowdown(loop.ticks)}
        else:
            # Two cycles at least, so that every call repeats (reuse_ratio).
            plain = caller.run(args.seconds / 2.0, min_cycles=2)
            tr = tracing.Tracer(pkg)
            first: dict = {}

            def snapshot() -> None:
                first["counts"] = tr.counts.copy()
                first["engine_calls"] = len(tr.engine_calls)

            try:
                tr.install()
                traced = caller.run(args.seconds / 2.0, min_cycles=1, on_cycle=snapshot)
            finally:
                tr.restore()
            tally = checker.check(plain.records + traced.records)
            metrics = per_layer(pkg, wl, plain, traced, tr, first, checker)
            times = scaled_times(plain)
            report = {}
    finally:
        caller.close()
    return {
        "metrics": metrics,
        "times": times,
        "report": report,
        "tally": {
            "units": tally.units, "failed": tally.failed, "wrong": tally.wrong,
            "malformed": tally.malformed, "max_rel_err": tally.max_rel_err,
            "worst": tally.worst, "wrong_outputs": tally.wrong_outputs,
        },
    }


def run_workers(args, wl: workloads.Workload) -> tuple[list[dict], list[float]]:
    """Split the measuring time over fresh worker processes, one at a time.

    With ``--trace 0``, ``SETUP_PER_WORKER`` set-up interpreters run before
    each worker, each making the workload's next call, so that set-up is
    sampled across the whole run rather than in one burst.
    """
    results = []
    setups = []
    for w in range(WORKERS):
        if not args.trace:
            for i in range(w * SETUP_PER_WORKER, (w + 1) * SETUP_PER_WORKER):
                setups.append(setup_seconds(wl, wl.calls[i % len(wl.calls)]))
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS),
             "--trace", str(args.trace), "--worker"],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed with {proc.returncode}:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results, setups


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pkg = load_library()
    wl = workloads.build(args.workload, args.seed)
    refs = oracle.references(
        wl.points, wl.ref_names, CACHE_DIR / f"{wl.name}-{args.seed}.json"
    )
    if args.worker:
        print(json.dumps(measure(args, pkg, wl, Checker(wl, refs))))
        return 0

    results, setups = run_workers(args, wl)
    stokes, stokes_wrong = stokes_probe(pkg, args.seed)
    report = {k: statistics.median(r["report"][k] for r in results)
              for k in results[0]["report"]}
    latency, first = latencies([r["times"] for r in results])
    timing = end_to_end(wl, list(latency.values()))
    untimed = {"p50_ms": timing["p50_ms"],
               "reuse_ratio": sum(first.values()) / sum(latency.values())}
    if args.trace:
        metrics = {k: statistics.median(r["metrics"][k] for r in results)
                   for k in results[0]["metrics"]}
        metrics.update(untimed)
        metrics.update(stokes)
    else:
        metrics = {name: timing[name] for name in END_TO_END if name in timing}
        metrics["setup_s"] = statistics.median(setups)
        report.update(untimed)
        report.update(stokes)
    tallies = [r["tally"] for r in results]
    total = {k: sum(t[k] for t in tallies) for k in ("units", "failed", "wrong", "malformed")}
    worst = max(tallies, key=lambda t: t["max_rel_err"])
    wrong_outputs = list({where: rel for t in tallies
                          for where, rel in t["wrong_outputs"]}.items())[:5]

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  points {len(wl.points)}"
          f"  calls per cycle {len(wl.calls)}  workers {WORKERS}")
    for name, value in {**metrics, **report}.items():
        print(f"  {name:34s} {value:14.6g} {UNITS[name]}")
    print(f"  attempted {total['units']}  failed {total['failed']}  wrong {total['wrong']}"
          f"  malformed {total['malformed']}  worst {worst['max_rel_err']:.3e} at "
          f"{worst['worst'] or '-'}")
    for where, rel in wrong_outputs:
        print(f"  WRONG OUTPUT {where}: relative error {rel:.3e}")
    for where, rel in stokes_wrong:
        print(f"  KNOWN DEFECT on the Stokes ray, not gated: {where}: relative error {rel:.3e}")
    result = {
        "correct": total["wrong"] == 0 and total["malformed"] == 0,
        "attempted": total["units"],
        "failed": total["failed"],
        "metrics": {k: {"value": float(v), "unit": UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
