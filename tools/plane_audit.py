"""Audit the values and error bars of every public function over the whole
plane against mpmath.

Points: ``--n`` seeded points (``--seed``), log-uniform in
``0.05 <= |z| <= 2000`` and uniform in phase over both half-planes, plus
points ``1e-15``, ``1e-9`` and ``1e-3`` (relative) to each side of every edge the code
tests:

* the radii 2.5 (Scorer series), 3.5 (Airy series), 15 (large-argument
  expansion) and 20 (saddle split cap), on rays in both half-planes;
* the phases pi/3, 2*pi/3 -+ ``RAY_TOL`` and Airy's rotation edge
  ``2*pi/3 + 1e-15``, at several radii, in both half-planes;
* on rays through Hi's descent-contour cell, the radii where the Laplace
  floor ``rho = 0.15`` and each rung's bar are reached;
* the radii where Ai's rule changes size (``switch_radii`` of
  ``tools/airy_gate.py``) on rays through both of its lists of rules;
  Gi and Bi there evaluate Ai at the same argument.

Functions: ``gi``, ``hi``, both results of ``gi_hi_pair``, ``ai_complex``
and ``bi_complex``.  References come from ``perfbench/oracle.py``: its
precision ladder, and for Gi and Hi its ``Gi + Hi = Bi`` check; a point
where no two precisions pass is dropped and counted.

It prints, per function and route (``method``), the number of results,
the worst error as a share of the result's ``abs_error_estimate``, the
worst relative error of the value and, for Ai and Bi, of the derivative
(which carries no bar), then how many references were dropped and how
many calls overflowed where the true value leaves the double range.  It
exits 1 on any error above its bar, a NaN value with ``converged=True``,
``converged=False``, an ``OverflowError`` where the true value is finite
(for ``gi_hi_pair``, both true values), or any other exception.  Run from the root of a checkout (needs mpmath,
which the library does not; the default run takes about 30 s)::

    python3 tools/plane_audit.py [--n 600] [--seed 1]
"""

from __future__ import annotations

import argparse
import cmath
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import oracle  # noqa: E402
from airy_gate import switch_radii  # noqa: E402
import scorerlib  # noqa: E402
from scorerlib import airy, engine  # noqa: E402
from scorerlib.contour import RAY_TOL  # noqa: E402

OFFSETS = (1e-15, 1e-9, 1e-3)
RADIUS_EDGES = (engine._SERIES_RADIUS, airy.SERIES_RADIUS, engine._ASYMPTOTIC_RADIUS,
                engine._SADDLE_MAX_RADIUS)
EDGE_RAY_PHASES = (0.3, 1.2, 2.5, math.pi)
PHASE_EDGES = (math.pi / 3.0, 2.0 * math.pi / 3.0 - RAY_TOL, 2.0 * math.pi / 3.0 + RAY_TOL,
               airy._ROTATION_EDGE)
EDGE_PHASE_RADII = (3.0, 5.0, 10.0, 30.0)
#: Rays through Hi's descent-contour cell where the Laplace ladder climbs.
LAPLACE_PHASES = (2.0 * math.pi / 3.0 + 0.05, 0.75 * math.pi, 0.9 * math.pi, math.pi)
#: Rays (ph z) through Ai's two lists of rules: ph zeta = 1.5 ph z below
#: and above pi/2.
AI_PHASES = (0.5, 1.0, 1.2, 1.6, 1.9, 2.0 * math.pi / 3.0)


def _sides(r: float) -> list[float]:
    return [r * (1.0 + s * d) for d in OFFSETS for s in (-1.0, 1.0)]


def _both(points: list[complex]) -> list[complex]:
    return points + [z.conjugate() for z in points]


def _bisect(phase: float, reached) -> float | None:
    """The radius in (2.5, 1e4) on the ray where ``reached(z)`` turns true
    (monotone in the radius); None if it never turns."""
    lo, hi = engine._SERIES_RADIUS, 1e4
    if reached(cmath.rect(lo, phase)) or not reached(cmath.rect(hi, phase)):
        return None
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        lo, hi = (lo, mid) if reached(cmath.rect(mid, phase)) else (mid, hi)
    return hi


def edge_points() -> list[complex]:
    out = []
    for r in RADIUS_EDGES:
        out += [cmath.rect(s, ph) for ph in EDGE_RAY_PHASES for s in _sides(r)]
    for ph in PHASE_EDGES:
        out += [cmath.rect(r, p) for r in EDGE_PHASE_RADII for p in _sides(ph)]
    for ph in LAPLACE_PHASES:
        tests = [lambda z: engine._saddle_geometry(z)[1] >= engine._LAPLACE_MIN_RHO]
        tests += [lambda z, g=g: g.decay * engine._saddle_geometry(z)[1]
                  + engine._LAPLACE_HEIGHT_DECAY * engine._saddle_geometry(z)[2]
                  >= engine._LAPLACE_REACH for g in engine._LAPLACE_RUNGS]
        for reached in tests:
            r = _bisect(ph, reached)
            if r is not None:
                out += [cmath.rect(s, ph) for s in _sides(r)]
    for ph in AI_PHASES:
        out += [cmath.rect(x, ph) for r in switch_radii(ph) for x in _sides(r)]
    return _both(out)


def random_points(n: int, seed: int) -> list[complex]:
    rng = random.Random(seed)
    lo, hi = math.log(0.05), math.log(2000.0)
    return [cmath.rect(math.exp(rng.uniform(lo, hi)), rng.uniform(-math.pi, math.pi))
            for _ in range(n)]


def _results(z: complex) -> list[tuple[str, object]]:
    """``(name, result or exception)`` for every audited function at z."""
    out = []
    for name in ("gi", "hi", "gi_hi_pair", "ai_complex", "bi_complex"):
        try:
            res = getattr(scorerlib, name)(z)
        except Exception as exc:  # judged below
            res = exc
        if name == "gi_hi_pair":
            parts = res if isinstance(res, tuple) else (res, res)
            out += [("pair.gi", parts[0]), ("pair.hi", parts[1])]
        else:
            out.append((name, res))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=600, help="random points (default 600)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the random points")
    args = parser.parse_args(argv)
    points = random_points(args.n, args.seed) + edge_points()
    rows: dict[tuple[str, str], list] = {}  # (fn, route) -> [count, over bar, rel, deriv rel]
    misses, dropped, overflows = [], 0, 0
    for z in points:
        try:
            (g, h, b), _ = oracle.reference(z, oracle.SCORER)
            (a, _, ap, bp), _ = oracle.reference(z, oracle.AIRY)
        except oracle.OracleError:
            dropped += 1
            continue
        refs = {"gi": (g, None), "hi": (h, None), "pair.gi": (g, None), "pair.hi": (h, None),
                "ai_complex": (a, ap), "bi_complex": (b, bp)}
        for name, res in _results(z):
            ref, dref = refs[name]
            # The true value leaves the double range: for the pair, either part's.
            big = [g, h] if name.startswith("pair.") else [ref, dref]
            if isinstance(res, OverflowError) and any(
                    v is not None and not abs(v) < 1.7e308 for v in big):
                overflows += 1
                continue
            if isinstance(res, Exception):
                misses.append(f"{name}({z!r}) raises {type(res).__name__}: {res}")
                continue
            if not res.converged or (cmath.isnan(res.value) and res.converged):
                misses.append(f"{name}({z!r}): converged={res.converged}, value {res.value!r}")
                continue
            err = abs(res.value - ref)
            over = err / res.abs_error_estimate if res.abs_error_estimate else (
                math.inf if err else 0.0)
            rel = err / abs(ref) if ref else err
            drel = 0.0
            if dref is not None and dref:
                drel = abs(res.derivative - dref) / abs(dref)
            row = rows.setdefault((name, res.method), [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1], row[2], row[3] = max(row[1], over), max(row[2], rel), max(row[3], drel)
            if over > 1.0:
                misses.append(f"{name}({z!r}): error {err:.3g} is {over:.3g} of its bar")
    print(f"{len(points)} points (seed {args.seed}, {args.n} random), {dropped} references "
          f"dropped, {overflows} calls overflow where the true value does")
    print(f"{'function':<11} {'route':<16} {'results':>7} {'err/bar':>8} {'rel err':>9} "
          f"{'deriv rel':>9}")
    for (name, route), (count, over, rel, drel) in sorted(rows.items()):
        deriv = f"{drel:9.2g}" if name in ("ai_complex", "bi_complex") else f"{'-':>9}"
        print(f"{name:<11} {route:<16} {count:7d} {over:8.3f} {rel:9.2g} {deriv}")
    for line in misses:
        print("MISS " + line)
    print(f"{len(misses)} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
