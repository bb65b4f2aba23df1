"""Print the frozen reference tables of ``tests/test_accuracy_map.py``.

The tables, all from mpmath:

* ``AI_MAP``: Ai and Ai' on 3.5 < |z| <= 80 over every phase, with the
  rays ph z = +-2*pi/3, the negative real axis with +0.0 and -0.0 imaginary
  parts, and radii just above the series seam, plus seeded random points;
* ``BI_MAP``: Bi and Bi' on 3.5 < |z| <= 80 at the phases ``BI_PHASES``
  in (0, 2*pi/3], where Bi is i Ai(z) + 2 e^{-i pi/6} Ai(z e^{-2 pi i/3}),
  at their conjugates, and at ``BI_BEYOND_PHASES`` in (2*pi/3, pi], where
  it is the conjugate-pair formula;
* ``SCORER_POINTS``: Gi, Hi, Ai and Bi at the arguments where an error bar
  once fell short: the ``bi_identity`` and ``hi_rotation`` routes, Ai and Bi
  at a rotated argument, and the large-argument expansion of Hi;
* ``STOKES_POINTS``: Gi and Hi on the Stokes ray ph z = 2*pi/3, at radii
  where the descent contour through the saddle was once wrong;
* ``GATE_POINTS``: Gi and Hi on both sides of the engine's Laplace-rule
  gate, at saddle distances rho in ``GATE_RHOS`` on rays through Hi's
  descent-contour cell, which owns the gate, and through its rotated
  images in 0 < ph z < 2*pi/3, then near the Stokes ray, near the positive
  axis and near 2*pi/3 - 0.05 where the ladder of rules climbs
  (``LADDER_RAYS``), with both sides of the gate's floor and of each rung's
  edge on those rays;
* ``BAND_POINTS``: Gi and Hi in the band 0 < |ph z| < 0.05 next to the
  positive axis, where the Hi that Gi and Hi rotate lies just above the
  Stokes ray;
* ``SEAM_POINTS``: Gi and Hi on both sides of the phases 0.05, pi/3 and
  2*pi/3 - 0.05, where the route table's rows once changed representation,
  and of its seam 2*pi/3 - ``RAY_TOL``, just outside the series disc and
  farther out;
* ``RAY_BAND_POINTS``: Gi and Hi within ``RAY_TOL`` of the Stokes ray
  2*pi/3 and at phase 1e-12, where the rotated Hi lands in that band;
* ``ASYMPTOTIC_POINTS``: Gi and Hi on both sides of the engine's
  large-argument gate: radii 15 (1 -+ 1e-9), 20 and 35 on the rays pi/3 -+
  1e-9 and pi, and 0.01 to each side of the phase where the gate opens for
  each function at the radius (at 15 for the radius inside it), found by
  bisection on ``engine._asymptotic_eligible``;
* ``ROTATION_POINTS``: Gi and Hi at 2*pi/3 - d for d in
  ``ROTATION_OFFSETS`` and at the phases ``ROTATION_PHASES``, at the
  radii ``ROTATION_RADII``, where both are rotation connections;
* ``SADDLE_POINTS``: Gi and Hi at 2*pi/3 + d for d in ``SADDLE_OFFSETS``,
  from just below ``-RAY_TOL`` to 0.3, at the radii ``SADDLE_RADII`` from
  just outside the series disc to 14.9: the band above the Stokes ray
  where Hi's descent contour runs into its saddle and no Laplace rule
  qualifies, and the rotation row's edge below it, whose rotated Hi lands
  in that band;
* ``AXIS_POINTS``: real Gi and Hi on the positive real axis at the radii
  ``AXIS_RADII``, from just outside the series disc through Ai's series
  seam 3.5 and the large-argument radius 15 to 40; there the rotated
  argument of the rotation connections lies on the Stokes ray.

A reference is kept only where mpmath at 50 and at 90 digits agree to
1e-15 relative (and, for Gi and Hi, where Gi + Hi = Bi holds to the same
tolerance); a point without such agreement is left out and reported on
stderr.  Run from the root of a checkout (needs mpmath, which neither the
library nor its tests import; the gate phases come from the checkout's
``src/``)::

    python3 tools/airy_reference_map.py
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from pathlib import Path

import mpmath

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scorerlib import engine  # noqa: E402

AGREE_REL = mpmath.mpf("1e-15")
RADII = (3.5 * (1.0 + 1e-12), 3.6, 4.5, 6.0, 9.0, 12.0, 18.0, 25.0, 35.0, 50.0, 80.0)
PHASES = (
    0.0,
    math.pi / 6.0,
    math.pi / 3.0,
    math.pi / 2.0,
    2.0 * math.pi / 3.0,
    5.0 * math.pi / 6.0,
)
SEED = 20261018
N_RANDOM = 24
#: Bi's sector of the formula i Ai(z) + 2 e^{-i pi/6} Ai(z e^{-2 pi i/3}):
#: next to the positive axis, both sides of pi/3 (where the two terms trade
#: dominance) and up to its edge 2*pi/3; beyond the edge, from 1e-12 past
#: it to the negative axis, the conjugate-pair formula serves.
BI_PHASES = (1e-12, 0.4, math.pi / 3.0 - 1e-9, math.pi / 3.0 + 1e-9, 1.5, 1.9,
             2.0 * math.pi / 3.0 - 1e-12, 2.0 * math.pi / 3.0)
BI_BEYOND_PHASES = (2.0 * math.pi / 3.0 + 1e-12, 2.4, 2.8, math.pi)
#: The three worst bi_identity misses of Gi among the benchmark's plane
#: points (seed 901), the first also rounded, and the one hi_rotation miss;
#: the bi_identity point of plane seed 903 where Ai and Bi at the rotated
#: arguments missed; two points on the Stokes ray at |z| = 15.1 and one off
#: it where the expansion of Hi missed or nearly did.
SCORER_ARGS = (
    complex(-18.94, 21.22),
    complex(-18.937817627573, 21.220590789660122),
    complex(-29.487195832009398, 11.200390790237055),
    complex(-28.75322354246329, -21.00291573277629),
    complex(6.062260361550146, 11.003536305567714),
    complex(-28.651082456429194, 23.78807789490457),
    complex(-7.549999999999996, 13.076983597145023),
    complex(-7.558748540975543, 13.09213651460677),
    complex(8.78765690811102, 26.12764578874171),
)
#: Radii on the Stokes ray: the two of the original defect report, the
#: twelve where a scan of 600 log-spaced radii in [1, 40] found Hi wrong by
#: more than 1e-10, and a spread from the series disc to the expansion.
STOKES_RADII = (
    3.111003,
    3.988159,
    2.745537901180265,
    2.9379714877885075,
    3.029844672965056,
    3.1633137401141096,
    3.302662313907379,
    3.7586326328083337,
    3.8287195227413755,
    3.9973801896182595,
    4.720505527863526,
    5.713467950569995,
    6.305110713186432,
    6.6235249643260925,
    1.0,
    2.6,
    8.0,
    12.0,
    20.0,
    40.0,
)

#: Saddle distances rho = sqrt(2/3) |z|**0.75 min(|cos(3 theta/4)|,
#: |sin(3 theta/4)|) on both sides of the gate at rho = 1.
GATE_RHOS = (0.9, 0.98, 1.02, 1.2, 2.0, 5.0)
#: Rays through the gated cell, labelled by the function evaluated there:
#: Hi on its descent contour on [2*pi/3, pi], and Gi on 0 < ph z < 2*pi/3,
#: whose rotation connection evaluates Hi at z e^{2i pi/3}, on the same
#: contour cell with the same rho and Re sigma*.
GATE_RAYS = (
    ("hi", 0.8 * math.pi),
    ("hi", 0.9 * math.pi),
    ("hi", math.pi),
    ("gi", 0.3),
    ("gi", 0.7),
    ("gi", 1.6),
    ("gi", 1.4),
    ("gi", 1.8),
)
#: Rays where the ladder of Laplace rules climbs as the radius falls, with
#: their radii: Hi just above the Stokes ray, and Gi near the positive axis
#: and near 2*pi/3 - 0.05, whose rotated Hi lies just above the ray.
LADDER_RAYS = (
    [("hi", 2.0 * math.pi / 3.0 + d, (3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 14.0))
     for d in (0.02, 0.05, 0.1)]
    + [("gi", ph, (2.6, 3.0, 4.0, 5.0, 6.0, 8.0))
       for ph in (0.06, 0.1, 0.15, 0.2, 2.0 * math.pi / 3.0 - 0.051)]
)
#: The ladder: each rule's full size; a rung serves where
#: 3.5 sqrt(n) rho + 0.8 Re sigma* >= 3.5 sqrt(60) and rho >= LADDER_FLOOR.
LADDER_SIZES = (60, 240, 960)
LADDER_FLOOR = 0.15
#: Points inside the engine's series disc are left out: no gate there.
SERIES_RADIUS = 2.5
#: The band 0 < |ph z| < 0.05 next to the positive axis: its two edges and
#: a phase inside, at radii from the series disc to the expansion.
#: cmath.rect(10, 1e-9) is 10 + 1e-8j, where Gi from two rotated Hi values
#: was once 3.6e-13 off.
BAND_RADII = (3.0, 7.0, 10.0, 12.0)
BAND_PHASES = (1e-9, 0.02, 0.05 - 1e-9)
#: Phases where the route table's rows once changed representation, 1e-9
#: to each side: 0.05 (the side below is in BAND_PHASES), pi/3 and
#: 2*pi/3 - 0.05; the seam 2*pi/3 - 1e-12 (RAY_TOL) at 2*pi/3 -+ 2e-12
#: instead, the far side beyond the Stokes ray.  Radii just outside the
#: Scorer series disc and beyond it.
SEAM_RADII = (2.5 * (1.0 + 1e-12), 5.0, 10.0)
SEAM_PHASES = (
    0.05 + 1e-9,
    math.pi / 3.0 - 1e-9,
    math.pi / 3.0 + 1e-9,
    2.0 * math.pi / 3.0 - 0.05 - 1e-9,
    2.0 * math.pi / 3.0 - 0.05 + 1e-9,
    2.0 * math.pi / 3.0 - 2e-12,
    2.0 * math.pi / 3.0 + 2e-12,
)
#: The bands that the Stokes contour once snapped onto its ray: half of
#: RAY_TOL (1e-12) to each side of 2*pi/3, and phase 1e-12, whose rotated
#: Hi lands in that band.
RAY_BAND_RADII = (2.6, 3.0, 5.0, 7.0, 10.0, 14.0)
RAY_BAND_PHASES = (1e-12, 2.0 * math.pi / 3.0 - 0.5e-12, 2.0 * math.pi / 3.0 + 0.5e-12)
#: The rotation connections' row 0 < ph z < 2*pi/3 - RAY_TOL, where both
#: functions evaluate one rotated Hi: 2*pi/3 - d close below the Stokes ray
#: (that Hi lies just above it), and phases on (0, pi/3), each at radii
#: from the series disc to the expansion's radius.
ROTATION_RADII = (2.6, 3.0, 4.0, 5.5, 7.0, 10.0, 14.0)
ROTATION_OFFSETS = (1e-9, 1e-6, 1e-3, 0.01, 0.03)
ROTATION_PHASES = (0.06, 0.2, 0.5, 0.9)
#: The band where Hi's descent contour runs into its saddle: 2*pi/3 + d from
#: 1.5e-12 below the ray (the rotation row, whose rotated Hi lies 1.5e-12
#: above it) through RAY_TOL (1e-12) to each side of it and out to 0.3,
#: past where the Laplace rules' floor rho = 0.15 lies at the smallest
#: radii (d = 0.165 at |z| = 2.5); radii from the series disc to just
#: inside the large-argument expansion's radius 15.
SADDLE_RADII = (2.5 * (1.0 + 1e-12), 2.51, 2.55, 2.6, 3.0, 4.0, 5.0, 7.0, 10.0, 12.0, 14.9)
SADDLE_OFFSETS = (-1.5e-12, -1e-12, -0.5e-12, 0.0, 1.5e-12, 3e-12, 1e-11, 1e-9, 1e-6,
                  1e-3, 0.01, 0.05, 0.1, 0.165, 0.2, 0.3)
#: The positive real axis: just outside the series disc, both sides of Ai's
#: series seam 3.5 and of the large-argument radius 15, and between them.
AXIS_RADII = (2.5 * (1.0 + 1e-12), 2.6, 3.0, 3.5 * (1.0 - 1e-12), 3.5 * (1.0 + 1e-12), 4.0,
              5.0, 7.0, 10.0, 14.9, 15.0 * (1.0 - 1e-9), 15.0 * (1.0 + 1e-9), 20.0, 40.0)
#: Radii and rays through the large-argument gate: its radius 15 to each
#: side, farther out, and the rays where one expansion's sector ends (pi/3)
#: or its neglected part is smallest for Hi (pi).
ASYMPTOTIC_RADII = (15.0 * (1.0 - 1e-9), 15.0 * (1.0 + 1e-9), 20.0, 35.0)
ASYMPTOTIC_PHASES = (math.pi / 3.0 - 1e-9, math.pi / 3.0 + 1e-9, math.pi)
#: Offset to each side of the phase where the gate opens.
GATE_FLIP_OFFSET = 0.01


def gate_points() -> list[tuple[str, complex]]:
    points = []
    for column, phase in GATE_RAYS:
        theta = 0.75 * phase
        unit = math.sqrt(2.0 / 3.0) * min(abs(math.cos(theta)), abs(math.sin(theta)))
        for rho in GATE_RHOS:
            r = (rho / unit) ** (4.0 / 3.0)
            if r > SERIES_RADIUS:
                z = complex(-r, 0.0) if phase == math.pi else cmath.rect(r, phase)
                points.append((column, z))
    return points


def _ladder_edges(phase: float) -> list[float]:
    """Radii in (2.5, 40) on the ray where rho reaches the floor or a rung's
    exponent reaches 3.5 sqrt(60); both grow with the radius."""
    theta = 0.75 * phase
    unit = math.sqrt(2.0 / 3.0) * min(abs(math.cos(theta)), abs(math.sin(theta)))
    height = (2.0 / 3.0) * abs(math.cos(1.5 * phase))
    tests = [lambda r: unit * r**0.75 >= LADDER_FLOOR]
    tests += [lambda r, n=n: 3.5 * math.sqrt(n) * unit * r**0.75 + 0.8 * height * r**1.5
              >= 3.5 * math.sqrt(60.0) for n in LADDER_SIZES]
    edges = []
    for reached in tests:
        lo, hi = SERIES_RADIUS, 40.0
        if reached(lo) or not reached(hi):
            continue
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if reached(mid) else (mid, hi)
        edges.append(hi)
    return edges


def ladder_points() -> list[tuple[str, complex]]:
    points = []
    for column, phase, radii in LADDER_RAYS:
        for r in radii:
            points.append((column, cmath.rect(r, phase)))
        for r in _ladder_edges(phase):
            points += [(column, cmath.rect(r * (1.0 - 1e-6), phase)),
                       (column, cmath.rect(r * (1.0 + 1e-6), phase))]
    return points


def _gate_flip(r: float, kind: str) -> float:
    """The phase in (0, pi) where ``engine._asymptotic_eligible`` flips for
    ``kind`` at radius ``r`` (Gi's expansion serves the phases below it,
    Hi's those above); the radius must be one where the gate opens."""
    lo, hi = 0.0, math.pi
    served_above = kind == "hi"
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if engine._asymptotic_eligible(cmath.rect(r, mid), kind) == served_above:
            hi = mid
        else:
            lo = mid
    return hi


def asymptotic_points() -> list[complex]:
    points = []
    for r in ASYMPTOTIC_RADII:
        phases = list(ASYMPTOTIC_PHASES)
        for kind in ("gi", "hi"):
            # Just inside the gate's radius, the phases of the gate at it.
            flip = _gate_flip(max(r, engine._ASYMPTOTIC_RADIUS), kind)
            phases += [flip - GATE_FLIP_OFFSET, flip + GATE_FLIP_OFFSET]
        points += [complex(-r, 0.0) if ph == math.pi else cmath.rect(r, ph) for ph in phases]
    return points


def rotation_points() -> list[complex]:
    phases = [2.0 * math.pi / 3.0 - d for d in ROTATION_OFFSETS] + list(ROTATION_PHASES)
    return [cmath.rect(r, ph) for r in ROTATION_RADII for ph in phases]


def map_points() -> list[complex]:
    points = []
    for r in RADII:
        for ph in PHASES:
            z = cmath.rect(r, ph)
            points.append(z)
            if ph:
                points.append(z.conjugate())
        points += [complex(-r, 0.0), complex(-r, -0.0)]
    rng = random.Random(SEED)
    for _ in range(N_RANDOM):
        r = math.exp(rng.uniform(math.log(3.5), math.log(80.0)))
        points.append(cmath.rect(r, rng.uniform(-math.pi, math.pi)))
    return points


def bi_map_points() -> list[complex]:
    points = []
    for r in RADII:
        for ph in BI_PHASES:
            z = cmath.rect(r, ph)
            points += [z, z.conjugate()]
        points += [complex(-r, 0.0) if ph == math.pi else cmath.rect(r, ph)
                   for ph in BI_BEYOND_PHASES]
    return points


def _converged(z: complex, fns) -> list | None:
    """The values at 90 digits, or None where those at 50 digits disagree."""
    rows = []
    for dps in (50, 90):
        with mpmath.workdps(dps):
            rows.append([f(mpmath.mpc(z)) for f in fns])
    low, high = rows
    with mpmath.workdps(90):
        if any(abs(a - b) > AGREE_REL * abs(b) for a, b in zip(low, high)):
            return None
    return high


def _literal(z: complex) -> str:
    # The repr "(-9-0j)" reads back with +0.0 as its imaginary part.
    return f"complex({z.real!r}, {z.imag!r})"


def main() -> None:
    print_airy_map("AI_MAP", mpmath.airyai, map_points())
    print_airy_map("BI_MAP", mpmath.airybi, bi_map_points())
    scorer = (mpmath.scorergi, mpmath.scorerhi, mpmath.airyai, mpmath.airybi)
    print("SCORER_POINTS = [")
    for z in SCORER_ARGS:
        row = _scorer_row(z, scorer)
        if row is not None:
            print(f"    ({_literal(z)}, {', '.join(repr(complex(v)) for v in row)}),")
    print("]")
    _print_gi_hi("STOKES_POINTS", (cmath.rect(r, 2.0 * math.pi / 3.0) for r in STOKES_RADII))
    print("GATE_POINTS = [")
    for column, z in gate_points() + ladder_points():
        row = _scorer_row(z, scorer[:2] + scorer[3:])
        if row is not None:
            print(f"    ({column!r}, {_literal(z)}, {complex(row[0])!r}, {complex(row[1])!r}),")
    print("]")
    _print_gi_hi("BAND_POINTS", (cmath.rect(r, ph) for r in BAND_RADII for ph in BAND_PHASES))
    _print_gi_hi("SEAM_POINTS", (cmath.rect(r, ph) for r in SEAM_RADII for ph in SEAM_PHASES))
    _print_gi_hi("RAY_BAND_POINTS",
                 (cmath.rect(r, ph) for r in RAY_BAND_RADII for ph in RAY_BAND_PHASES))
    _print_gi_hi("ASYMPTOTIC_POINTS", asymptotic_points())
    _print_gi_hi("ROTATION_POINTS", rotation_points())
    _print_gi_hi("SADDLE_POINTS", (cmath.rect(r, 2.0 * math.pi / 3.0 + d)
                                   for r in SADDLE_RADII for d in SADDLE_OFFSETS))
    print_axis_points()


def print_airy_map(name: str, fn, points) -> None:
    """Print the table ``name`` of (z, f(z), f'(z)) rows, ``fn`` mpmath's
    ``airyai`` or ``airybi``."""
    print(f"{name} = [")
    for z in points:
        row = _converged(z, (fn, lambda z: fn(z, derivative=1)))
        if row is None:
            print(f"dropped: {name} at {z!r}", file=sys.stderr)
            continue
        value, deriv = (complex(v) for v in row)
        print(f"    ({_literal(z)}, {value!r}, {deriv!r}),")
    print("]")


def print_axis_points() -> None:
    """Print ``AXIS_POINTS``, rows (x, Gi(x), Hi(x)) of real floats."""
    print("AXIS_POINTS = [")
    for x in AXIS_RADII:
        row = _scorer_row(x, (mpmath.scorergi, mpmath.scorerhi, mpmath.airybi))
        if row is not None:
            print(f"    ({x!r}, {float(mpmath.re(row[0]))!r}, {float(mpmath.re(row[1]))!r}),")
    print("]")


def _print_gi_hi(name: str, points) -> None:
    """Print the table ``name`` of (z, Gi, Hi) rows at ``points``."""
    print(f"{name} = [")
    for z in points:
        row = _scorer_row(z, (mpmath.scorergi, mpmath.scorerhi, mpmath.airybi))
        if row is not None:
            print(f"    ({_literal(z)}, {complex(row[0])!r}, {complex(row[1])!r}),")
    print("]")


def _scorer_row(z: complex, fns) -> list | None:
    """Converged values of ``fns`` (Gi, Hi, ..., Bi last) at ``z``, or None
    where the precisions disagree or Gi + Hi = Bi fails."""
    row = _converged(z, fns)
    if row is not None:
        gi, hi, bi = row[0], row[1], row[-1]
        with mpmath.workdps(90):
            if abs(gi + hi - bi) > AGREE_REL * min(abs(gi), abs(hi)):
                row = None
    if row is None:
        print(f"dropped: Gi/Hi at {z!r}", file=sys.stderr)
    return row


if __name__ == "__main__":
    main()
