"""Seeded inputs of the four benchmark workloads.

Every workload draws its points by multi-jittered sampling: the
(log-radius, phase) rectangle is cut into a grid of equal-probability cells
with one point in each, and within every row (column) of cells the points
also fall in distinct radial (phase) sub-strata.  The marginal distributions
are exactly the ones named below, while the share of points on either side
of any seam of the dispatchers at a fixed radius or phase (series disc,
Airy annulus, Stokes rays, asymptotic zone) moves by at most about one
point per row or column from seed to seed.  That keeps run-to-run spread
down without choosing the points by hand.

The library never sees the seed, only the generated arguments.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from dataclasses import dataclass

NAMES = ("plane", "descent", "airy", "arc")

_TWO_THIRDS_PI = 2.0 * math.pi / 3.0


@dataclass(frozen=True)
class Call:
    """One closed-loop request: a public function name and its argument,
    an index into the workload's points; for ``arc`` the radius swept."""

    fn: str
    arg: int | float


@dataclass(frozen=True)
class Workload:
    name: str
    #: Distinct points that need a reference value.
    points: list[complex]
    #: Reference functions computed at every point.
    ref_names: tuple[str, ...]
    #: One cycle of calls in the seeded order the loop repeats.
    calls: list[Call]
    #: For ``arc``: samples per arc command, else 0.
    arc_samples: int = 0


def _rng(name: str, seed: int) -> random.Random:
    # String seeds hash with SHA-512, so streams are stable across runs and
    # independent of PYTHONHASHSEED.
    return random.Random(f"scorerlib-perfbench:{name}:{seed}")


#: Suffix of the stream that draws a workload's warm-up inputs.
WARMUP = "-warmup"


def _log_uniform_cell(rng: random.Random, i: int, n: int, lo: float, hi: float) -> float:
    return _log_between((i + rng.random()) / n, lo, hi)


def _log_between(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _grid(rng: random.Random, n_r: int, n_ph: int) -> list[tuple[int, int, float, float]]:
    """One point per cell of an ``n_r`` x ``n_ph`` grid on the unit square,
    as ``(row, column, u, v)``; row ``i`` holds ``i/n_r <= u < (i+1)/n_r``
    and column ``j`` holds ``j/n_ph <= v < (j+1)/n_ph``.

    Multi-jittered: the points of a row take distinct ``u`` sub-strata of
    width ``1/(n_r n_ph)`` and the points of a column distinct ``v``
    sub-strata, so ``u`` and ``v`` are each stratified into ``n_r n_ph``
    strata while every point stays uniform in its cell.
    """
    u_sub = [rng.sample(range(n_ph), n_ph) for _ in range(n_r)]
    v_sub = [rng.sample(range(n_r), n_r) for _ in range(n_ph)]
    return [
        (i, j, (i + (u_sub[i][j] + rng.random()) / n_ph) / n_r,
         (j + (v_sub[j][i] + rng.random()) / n_r) / n_ph)
        for i in range(n_r) for j in range(n_ph)
    ]


def _plane(rng: random.Random) -> Workload:
    # |z| log-uniform in [1, 40], phase uniform on (-pi, pi]; gi, hi and
    # gi_hi_pair in rotation, one call per point and each function on a
    # third of every row of the grid, in one seeded shuffled order.  One
    # call per point rather than all three triples the points a cycle of
    # the same length covers: the cost of a cycle is dominated by the few
    # dozen points in the Airy annulus, and fewer points let it vary with
    # the seed.
    fns = ("gi", "hi", "gi_hi_pair")
    n_r, n_ph = 24, 21
    shift = [rng.randrange(len(fns)) for _ in range(n_r)]
    points = []
    calls = []
    for i, j, u, v in _grid(rng, n_r, n_ph):
        calls.append(Call(fns[(j + shift[i]) % len(fns)], len(points)))
        points.append(cmath.rect(_log_between(u, 1.0, 40.0), math.pi - v * 2.0 * math.pi))
    rng.shuffle(calls)
    return Workload("plane", points, ("gi", "hi", "bi"), calls)


def _descent(rng: random.Random) -> Workload:
    # hi only, |z| log-uniform in [3, 15], |ph z| in [2pi/3, pi] in both
    # half-planes; one phase cell in 16 sits exactly on the negative real
    # axis.  No point sits exactly on the Stokes ray: hi is wrong there at
    # some radii (see stokes_points), so such points would fail the
    # correctness check on a seed-dependent share of runs.
    n_ph = 16
    n_interior = n_ph - 1
    flip = rng.randrange(2)
    points = []
    for i, j, u, v in _grid(rng, 15, n_ph):
        r = _log_between(u, 3.0, 15.0)
        sign = 1.0 if (i + j + flip) % 2 == 0 else -1.0
        if j == 0:
            points.append(complex(-r, 0.0))
        else:
            w = (v * n_ph - 1) / n_interior
            points.append(cmath.rect(r, sign * (_TWO_THIRDS_PI + w * math.pi / 3.0)))
    calls = [Call("hi", k) for k in range(len(points))]
    rng.shuffle(calls)
    return Workload("descent", points, ("gi", "hi", "bi"), calls)


def _airy(rng: random.Random) -> Workload:
    # ai_complex and bi_complex at every point, |z| log-uniform in [3, 9]
    # over the full circle: the Airy annulus and rotation connections.
    points = [cmath.rect(_log_between(u, 3.0, 9.0), math.pi - v * 2.0 * math.pi)
              for _, _, u, v in _grid(rng, 8, 16)]
    calls = [Call(fn, k) for k in range(len(points)) for fn in ("ai_complex", "bi_complex")]
    rng.shuffle(calls)
    return Workload("airy", points, ("ai", "bi", "aip", "bip"), calls)


#: Arc commands sweep phase from -pi to pi with this many samples.  The
#: step, pi/4, keeps every sample off the Stokes rays +-2pi/3 and takes in
#: both axes.
ARC_SAMPLES = 9
ARC_RADII = 80


def arc_phases(samples: int) -> list[float]:
    """Phases the ``arc`` command samples for ``--start=-pi --stop=pi``,
    computed the way the command computes them."""
    start, stop = -math.pi, math.pi
    step = (stop - start) / (samples - 1)
    return [stop if k == samples - 1 else start + k * step for k in range(samples)]


def arc_point(radius: float, phase: float) -> complex:
    """The point the ``arc`` command evaluates: the polar form with sub-ulp
    trigonometric residue snapped to zero, as the command documents."""
    re_part = radius * math.cos(phase)
    im_part = radius * math.sin(phase)
    snap = 4.0 * sys.float_info.epsilon * abs(radius)
    return complex(0.0 if abs(re_part) <= snap else re_part,
                   0.0 if abs(im_part) <= snap else im_part)


def _arc(rng: random.Random) -> Workload:
    # One arc command per radius, radii log-uniform in [1, 40], gi and hi on
    # alternate radius cells; the only workload through the CLI and the only
    # ordered sweep.  A command's cost jumps by up to 20x where its radius
    # crosses a seam of the dispatchers (|z| = 2.5, 3.5, 9, 15), so one
    # command per cell, not a gi and hi pair, halves the jump a seed can
    # move into or out of the cycle, and 80 cells rather than 40 halve the
    # share of the cycle that one seam cell holds.
    radii = [_log_uniform_cell(rng, i, ARC_RADII, 1.0, 40.0) for i in range(ARC_RADII)]
    flip = rng.randrange(2)
    points = []
    seen = set()
    for r in radii:
        for ph in arc_phases(ARC_SAMPLES):
            z = arc_point(r, ph)
            if z not in seen:
                seen.add(z)
                points.append(z)
    calls = [Call(("gi", "hi")[(i + flip) % 2], r) for i, r in enumerate(radii)]
    rng.shuffle(calls)
    return Workload("arc", points, ("gi", "hi", "bi"), calls, ARC_SAMPLES)


#: Points of the Stokes-ray probe and their radius band.
STOKES_POINTS = 96
STOKES_RADII = (2.5, 9.0)


def stokes_points(seed: int) -> list[complex]:
    """Seeded points exactly on the Stokes rays ph z = +-2pi/3, one per
    equal-probability cell of |z| log-uniform in ``STOKES_RADII``.

    On the seed commit ``hi`` (and ``gi``, through Gi = Bi - Hi) returns
    relative errors up to 1e-4 at a few percent of the radii in this band
    while reporting full accuracy; a point off the ray by 1e-9 is right.
    The timed workloads therefore keep off the ray, and this probe, checked
    outside every timing, measures the defect on every run.
    """
    rng = _rng("stokes", seed)
    return [cmath.rect(_log_uniform_cell(rng, i, STOKES_POINTS, *STOKES_RADII),
                       _TWO_THIRDS_PI if i % 2 == 0 else -_TWO_THIRDS_PI)
            for i in range(STOKES_POINTS)]


def build(name: str, seed: int, stream: str = "") -> Workload:
    """The workload ``name`` for ``seed``; same seed, same inputs.

    ``stream=WARMUP`` draws the warm-up inputs: the same distribution from
    an independent stream, so no warm-up argument is a timed one.
    """
    makers = {"plane": _plane, "descent": _descent, "airy": _airy, "arc": _arc}
    if name not in makers:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return makers[name](_rng(name + stream, seed))
