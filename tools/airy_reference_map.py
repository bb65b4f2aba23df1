"""Print the frozen reference tables of ``tests/test_accuracy_map.py``.

Two tables, both from mpmath:

* ``AI_MAP``: Ai and Ai' on 3.5 < |z| <= 80 over every phase, with the
  rays ph z = +-2*pi/3, the negative real axis with +0.0 and -0.0 imaginary
  parts, and radii just above the series seam, plus seeded random points;
* ``SCORER_POINTS``: Gi and Hi at the arguments where the error bar of the
  ``bi_identity`` and ``hi_rotation`` routes once fell short.

A reference is kept only where mpmath at 50 and at 90 digits agree to
1e-15 relative (and, for Gi and Hi, where Gi + Hi = Bi holds to the same
tolerance); a point without such agreement is left out and reported on
stderr.  Run from the root of a checkout (needs mpmath, which neither the
library nor its tests import)::

    python3 tools/airy_reference_map.py
"""

from __future__ import annotations

import cmath
import math
import random
import sys

import mpmath

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
#: The three worst bi_identity misses of Gi among the benchmark's plane
#: points (seed 901), the first also rounded, and the one hi_rotation miss.
SCORER_ARGS = (
    complex(-18.94, 21.22),
    complex(-18.937817627573, 21.220590789660122),
    complex(-29.487195832009398, 11.200390790237055),
    complex(-28.75322354246329, -21.00291573277629),
    complex(6.062260361550146, 11.003536305567714),
)


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
    airy = (mpmath.airyai, lambda z: mpmath.airyai(z, derivative=1))
    print("AI_MAP = [")
    for z in map_points():
        row = _converged(z, airy)
        if row is None:
            print(f"dropped: Ai at {z!r}", file=sys.stderr)
            continue
        ai, aip = (complex(v) for v in row)
        print(f"    ({_literal(z)}, {ai!r}, {aip!r}),")
    print("]")
    scorer = (mpmath.scorergi, mpmath.scorerhi, mpmath.airybi)
    print("SCORER_POINTS = [")
    for z in SCORER_ARGS:
        row = _converged(z, scorer)
        if row is not None:
            gi, hi, bi = row
            with mpmath.workdps(90):
                if abs(gi + hi - bi) > AGREE_REL * min(abs(gi), abs(hi)):
                    row = None
        if row is None:
            print(f"dropped: Gi/Hi at {z!r}", file=sys.stderr)
            continue
        print(f"    ({_literal(z)}, {complex(gi)!r}, {complex(hi)!r}),")
    print("]")


if __name__ == "__main__":
    main()
