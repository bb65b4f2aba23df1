"""Check the error models of Hi's two fixed contour rules, the Laplace
ladder and the saddle split, and re-derive their constants, against mpmath.

``engine._laplace_rung`` sends Hi's descent-contour cell (``hi_path_u``)
to the smallest rung n of the ladder (60, 240 and 960 nodes, truncated)
whose bar ``exp(-(3.5 sqrt(n) rho + 0.8 Re sigma*))`` is at most
``exp(-3.5 sqrt(60))``, where the saddle distance ``rho`` is at least 0.15.
This script evaluates every rung at a dense grid of such cells and compares
the sums ``S(z) = pi Hi(z)`` with mpmath.  Gi and Hi on
``0 < ph z < 2*pi/3`` rotate the same cell: their Hi at ``z e^{2i pi/3}``,
or its conjugate, lies at phase ``2*pi/3 + min(ph z, 2*pi/3 - ph z)``, with
the same ``rho`` and ``Re sigma*`` as ``z``.  A reference is kept only
where mpmath at 30 and at 45 digits agree to 1e-20 relative.

The grid: the Stokes ray itself and its ``RAY_TOL`` band (where no rung
serves, Hi there takes the saddle split), the phases 2*pi/3 + 1e-9 ... 0.45
above it, dense again from 2*pi/3 + 0.05 on (the images of Gi and Hi within
0.3 of 0.05 and of 2*pi/3 - 0.05), 5*pi/6 and 4*pi/3 - 1.4 (the images of
pi/2 and 1.4), 0.9 pi and the negative axis (the image of pi/3), at radii
from the series disc to 1000, and on each ray the two sides of the floor
and of each rung's edge; only points where no gate serves Hi, which takes
its contour there (every phase lies at or above ``2*pi/3 - RAY_TOL``).
It prints:

* a least-squares fit ``log err ~ -a sqrt(n) rho - b Re sigma*`` over every
  rung at every point where the error is above rounding;
* the largest ``a`` (with ``b`` = 0.8) and the largest ``b`` (with
  ``a`` = 3.5) that keep every rung within its bar wherever the gate would
  accept it, the engine's constants beside them;
* how many more points the gate would serve without the floor, and the
  largest ``rho`` at which one of them misses its bar, the engine's floor
  beside it.  On the Stokes ray ``rho`` is rounding noise, the sum takes
  the root that ends in the wrong valley and misses by O(1); the floor
  must lie above those points, and 0.15 keeps a margin;
* the worst ``log(err) - log(bar)`` over the points the gate serves, each
  with the rung it chooses.

Where no rung qualifies, ``engine._hi_contour`` splits the contour at its
saddle ``t_s = sqrt(z)`` (``engine._saddle_sum``) up to
``|z| = _SADDLE_MAX_RADIUS``, with the bar ``exp(-decay g) + 8 eps``,
``g = Re sqrt(2 sigma_s)`` the distance in ``v`` of the other saddle from
the path.  The script evaluates the split on the phases ``SADDLE_PHASES``,
from ``RAY_TOL`` below the Stokes ray to 0.3 above it, at radii from 1 (the
split's truncation shows only inside the series disc, so the fit reaches
in there) to the cap, and prints:

* least-squares fits ``log err ~ offset - decay g`` and, for comparison,
  on the other saddle's modulus ``sqrt(2 |sigma_s|)`` instead of ``g``;
* the largest decay that keeps every point within its bar, the engine's
  beside it;
* how many cells the split serves (no rung, ``|z|`` between the series
  disc and the cap) and how many of them it declines because some node's
  root misses its cubic (``engine._SADDLE_RESIDUAL``);
* the worst ``log(err) - log(bar)`` over those cells.

It exits 1 if any point either rule serves exceeds its bar, if a constant
exceeds what the data allow, if a Laplace miss lies at or above the floor,
or if the split declines a cell it serves.  Run from the root of a checkout
(needs mpmath, which the library does not; about 10 s)::

    python3 tools/laplace_gate.py
"""

from __future__ import annotations

import cmath
import math
import sys
from pathlib import Path

import mpmath
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scorerlib import engine  # noqa: E402
from scorerlib.contour import RAY_TOL  # noqa: E402

AGREE_REL = mpmath.mpf("1e-20")
EPS = float(np.finfo(float).eps)
STOKES = 2.0 * math.pi / 3.0
#: The phase of every ray, all where Hi takes its descent contour.
PHASES = sorted(
    {STOKES - 0.5 * RAY_TOL, STOKES, 0.9 * math.pi, math.pi, 5.0 * math.pi / 6.0,
     2.0 * STOKES - 1.4}
    | {STOKES + d for d in (1e-9, 0.001, 0.003, 0.006, 0.01, 0.015, 0.02, 0.03, 0.04,
                            0.05, 0.07, 0.1, 0.15, 0.2, 0.3, 0.45)}
    | {STOKES + 0.05 + d for d in (1e-9, 0.002, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05,
                                   0.07, 0.08, 0.1, 0.12, 0.16, 0.2, 0.3)}
)
RADII = tuple(2.6 * (100.0 / 2.6) ** (k / 39) for k in range(40)) + (300.0, 1000.0)
#: The saddle split's phases, 2*pi/3 + d: within RAY_TOL of the ray, the
#: band just outside it, and out past the Laplace floor at the smallest radii
#: (d = 0.165 at |z| = 2.5); its radii run from 1 to the cap, with the
#: series disc's edge.
SADDLE_PHASES = tuple(STOKES + d for d in (
    -RAY_TOL, -0.5 * RAY_TOL, 0.0, 0.5 * RAY_TOL, 1.5e-12, 3e-12, 1e-11, 1e-9, 1e-6, 1e-4,
    1e-3, 0.003, 0.01, 0.02, 0.03, 0.05, 0.07, 0.1, 0.13, 0.165, 0.2, 0.25, 0.3))
SADDLE_RADII = tuple(sorted(
    {engine._SADDLE_MAX_RADIUS ** (k / 29) for k in range(30)}
    | {engine._SERIES_RADIUS * (1.0 + 1e-9)}))


def _point(r: float, phase: float) -> complex:
    return complex(-r, 0.0) if phase == math.pi else cmath.rect(r, phase)


def _edge(phase: float, reached) -> float | None:
    """The radius in (2.5, 1e4) on the ray where ``reached(z)`` turns true
    (it is monotone in the radius), by bisection; None if it never turns."""
    lo, hi = engine._SERIES_RADIUS, 1e4
    if reached(_point(lo, phase)) or not reached(_point(hi, phase)):
        return None
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        lo, hi = (lo, mid) if reached(_point(mid, phase)) else (mid, hi)
    return hi


def _exponent(z: complex, rung) -> float:
    return rung.decay * engine._saddle_distance(z) + engine._LAPLACE_HEIGHT_DECAY * (
        engine._saddle_height(z)
    )


def points() -> list[complex]:
    out = []
    for phase in PHASES:
        radii = list(RADII)
        edges = [_edge(phase, lambda z: engine._saddle_distance(z) >= engine._LAPLACE_MIN_RHO)]
        edges += [_edge(phase, lambda z, g=g: _exponent(z, g) >= engine._LAPLACE_REACH)
                  for g in engine._LAPLACE_RUNGS]
        for r in edges:
            if r is not None:
                radii += [r * (1.0 - 1e-9), r * (1.0 + 1e-9)]
        for r in sorted(radii):
            z = _point(r, phase)
            if engine._gated(z, "hi") is None:
                out.append(z)
    return out


def reference(z: complex) -> complex | None:
    """``S(z)`` from mpmath's Hi, or None where 30 and 45 digits
    disagree."""
    values = []
    for dps in (30, 45):
        with mpmath.workdps(dps):
            values.append(mpmath.pi * mpmath.scorerhi(mpmath.mpc(z)))
    low, high = values
    with mpmath.workdps(45):
        if abs(low - high) > AGREE_REL * abs(high):
            return None
    return complex(high)


def laplace_check() -> bool:
    """The ladder's fit, constants, floor and served points; True on a
    failure."""
    rows = []  # (z, rung, exponent, err)
    dropped = 0
    for z in points():
        ref = reference(z)
        if ref is None:
            dropped += 1
            print(f"dropped: {z!r}", file=sys.stderr)
            continue
        for rung in engine._LAPLACE_RUNGS:
            exponent = _exponent(z, rung)
            s = engine._laplace_sum(z, rung, exponent)
            rows.append((z, rung, exponent, abs(s.value - ref) / abs(ref)))
    n_points = len(rows) // len(engine._LAPLACE_RUNGS)
    print(f"{n_points} points ({dropped} dropped), {len(rows)} rung sums")

    floor = engine._LAPLACE_MIN_RHO
    reach = engine._LAPLACE_REACH
    a0, b0 = engine._LAPLACE_RHO_DECAY, engine._LAPLACE_HEIGHT_DECAY

    # Fit over every rung at every point above the floor with a truncation
    # error clearly above rounding.
    fit = [(math.sqrt(g.n) * engine._saddle_distance(z), engine._saddle_height(z), err)
           for z, g, _, err in rows
           if err > 100.0 * EPS and engine._saddle_distance(z) >= floor]
    x = np.array([[-p, -h] for p, h, _ in fit])
    y = np.log([err for _, _, err in fit])
    (a, b), *_ = np.linalg.lstsq(x, y, rcond=None)
    residual = np.max(np.abs(x @ [a, b] - y))
    print(f"fit over {len(fit)} sums: log err ~ -{a:.2f} sqrt(n) rho - {b:.2f} Re sigma*"
          f" (largest residual {residual:.2f})")

    # The largest constants that keep every accepted rung within its bar.
    accepted = [(z, g, err) for z, g, e, err in rows
                if e >= reach and engine._saddle_distance(z) >= floor and err > 8.0 * EPS]
    a_max = min((-math.log(err - 8.0 * EPS) - b0 * engine._saddle_height(z))
                / (g.decay / a0 * engine._saddle_distance(z)) for z, g, err in accepted)
    b_max = min(((-math.log(err - 8.0 * EPS) - g.decay * engine._saddle_distance(z))
                 / engine._saddle_height(z)) for z, g, err in accepted
                if engine._saddle_height(z) > 0.0)
    print(f"rho decay: engine {a0:.2f}, the data allow {a_max:.2f}")
    print(f"height decay: engine {b0:.2f}, the data allow {b_max:.2f}")

    # The floor: below it the gate would take the first rung that reaches.
    below, misses = 0, []
    for z, g, e, err in rows:
        rho = engine._saddle_distance(z)
        first = next((h for h in engine._LAPLACE_RUNGS if _exponent(z, h) >= reach), None)
        if g is first and rho < floor:
            below += 1
            if err > math.exp(-e) + 8.0 * EPS:
                misses.append(rho)
    worst_rho = max(misses, default=0.0)
    print(f"without the floor the gate would serve {below} more points; {len(misses)} miss "
          f"their bar, at rho up to {worst_rho:.2g}; engine floor {floor}")

    # The gate as the engine runs it.
    served = {}
    worst = (-math.inf, None)
    for z, g, e, err in rows:
        chosen = engine._laplace_rung(z)
        if chosen is None or chosen[0] is not g:
            continue
        served[g.n] = served.get(g.n, 0) + 1
        excess = math.log(max(err, 1e-300)) - math.log(math.exp(-e) + 8.0 * EPS)
        worst = max(worst, (excess, (z, g.n)))
    print("served points by rung: " + ", ".join(f"{n}: {k}" for n, k in sorted(served.items())))
    print(f"worst log(err) - log(bar) where the gate serves: {worst[0]:.2f} at {worst[1]}")
    return worst[0] > 0.0 or worst_rho >= floor or a_max < a0 or b_max < b0


def _gap(z: complex) -> float:
    """``Re sqrt(2 sigma_s)``, ``sigma_s = -(2/3) z**1.5`` at ``t_s = sqrt(z)``."""
    return cmath.sqrt(-(4.0 / 3.0) * cmath.sqrt(z) ** 3).real


def saddle_check() -> bool:
    """The saddle split's fit, constants and served cells; True on a
    failure."""
    rows = []  # (z, split, err)
    declined, dropped = [], 0
    for phase in SADDLE_PHASES:
        for r in SADDLE_RADII:
            z = cmath.rect(r, phase)
            ref = reference(z)
            if ref is None:
                dropped += 1
                print(f"dropped: {z!r}", file=sys.stderr)
                continue
            split = engine._saddle_sum(z)
            if split is None:
                declined.append(z)
                continue
            rows.append((z, split, abs(split.value - ref) / abs(ref)))
    print(f"saddle split: {len(rows)} points ({dropped} dropped, {len(declined)} declined)")

    decay = engine._SADDLE_DECAY
    fit = [(z, err) for z, _, err in rows if err > 100.0 * EPS]
    y = np.log([err for _, err in fit])
    modulus = lambda z: math.sqrt(4.0 / 3.0) * abs(z) ** 0.75  # noqa: E731
    for label, g in (("Re sqrt(2 sigma_s)", _gap), ("sqrt(2 |sigma_s|)", modulus)):
        x = np.array([[1.0, -g(z)] for z, _ in fit])
        (b, a), *_ = np.linalg.lstsq(x, y, rcond=None)
        residual = np.max(np.abs(x @ [b, a] - y))
        print(f"fit over {len(fit)} points: log err ~ {b:.2f} - {a:.2f} {label}"
              f" (largest residual {residual:.2f})")
    a_max = min(-math.log(err - 8.0 * EPS) / _gap(z) for z, _, err in rows if err > 8.0 * EPS)
    print(f"decay: engine {decay:.2f}, the data allow {a_max:.2f}")

    def serves(z: complex) -> bool:
        return (engine._SERIES_RADIUS < abs(z) <= engine._SADDLE_MAX_RADIUS
                and engine._laplace_rung(z) is None)

    served = [(z, split, err) for z, split, err in rows if serves(z)]
    refused = [z for z in declined if serves(z)]
    worst = max((math.log(max(err, 1e-300) * abs(split.value) / split.abs_error_estimate), z)
                for z, split, err in served)
    print(f"the split serves {len(served) + len(refused)} cells, declines {len(refused)}; "
          f"worst log(err) - log(bar) there: {worst[0]:.2f} at {worst[1]!r}")
    return worst[0] > 0.0 or bool(refused) or a_max < decay


def main() -> int:
    failed = laplace_check()
    failed = saddle_check() or failed
    print("FAIL" if failed else "PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
