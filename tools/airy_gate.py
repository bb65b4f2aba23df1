"""Check the size gate of Ai's rule family against mpmath, and re-derive its
constants.

``airy._ai_laguerre`` sums the Laplace form of Ai with the first rule of a
list whose ``rho**2 = cos (|zeta| + cos Re zeta + sin |Im zeta|)`` reaches
the rule's constant, ``cos`` and ``sin`` of the rule's path angle: the
list ``_AI_RIGHT`` where ``Re zeta >= 0``, else ``_AI_UPPER`` (its
conjugate ``_AI_LOWER`` mirrors it).  The last rule of each list serves
wherever no other does.  Every evaluation's bar is the rounding bar plus
``_TRUNCATION_BAR`` relative.

This script evaluates every rule of the matching list at a grid of
``3.5 < |z| <= 1000`` and ``0 <= ph z <= 2*pi/3 + 1e-15`` (the lower
half-plane is the exact conjugate), plus both sides of every size switch
on each ray of the grid, and compares ``I`` and ``dAi/dzeta`` with mpmath.
A reference is kept only where mpmath at 30 and at 45 digits agree to
1e-20 relative.  It prints:

* per rule, the smallest constant that keeps the relative truncation error
  of Ai and of Ai' within ``_TRUNCATION_BAR`` at every point where the
  rule would serve (the largest ``rho**2`` at which the rule misses), the
  engine's constant beside it;
* per rule size, how many points the shipped gate serves with it, and the
  worst ratio of Ai's error to its bar and the worst relative error of Ai'
  there (where 1e-290 < |Ai| < 1e290: the fit covers the rest);
* the worst ratio of Ai's error to its bar over the same points when each
  is the partner of ``z e^{-2 pi i/3}`` in ``_ai_pair(z e^{-2 pi i/3}, z)``,
  as Bi's formula below the axis pairs them: where ``Re zeta < 0`` one
  paired pass forms the point's ``q`` from its partner's negated ``zeta``,
  and where the two arguments are exact conjugates (on the ray pi/3, where
  the rotation may round to ``conj z``) the point takes the conjugate of
  its partner's evaluation.

It exits 1 if an engine constant lies below what the data need or if any
point's Ai error exceeds its bar, alone or paired.  Run from the root of a
checkout (needs mpmath, which the library does not; about 20 s)::

    python3 tools/airy_gate.py
"""

from __future__ import annotations

import cmath
import math
import sys
from pathlib import Path

import mpmath
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scorerlib import airy  # noqa: E402

AGREE_REL = mpmath.mpf("1e-20")
RADII = tuple(3.5 * (1.0 + 1e-9) * (1000.0 / 3.5) ** (k / 40) for k in range(41))
PHASES = tuple(sorted({k * airy._TWO_THIRDS_PI / 48 for k in range(49)}
                      | {math.pi / 3.0 - 1e-9, math.pi / 3.0 + 1e-9, airy._ROTATION_EDGE}))


def _rules(z: complex) -> tuple:
    """The list ``_ai_laguerre`` takes at ``z`` and its ``zeta``."""
    phase = 1.5 * math.atan2(z.imag, z.real)
    zeta = cmath.rect((2.0 / 3.0) * abs(z) ** 1.5, phase)
    rules = airy._AI_RIGHT if zeta.real >= 0.0 else airy._AI_UPPER
    return rules, zeta


def _reach(zeta: complex, row: tuple) -> float:
    """The row's test value ``|zeta| + cos Re zeta + sin |Im zeta|``."""
    return abs(zeta) + row[1] * zeta.real + row[2] * abs(zeta.imag)


def switch_radii(phase: float) -> list[float]:
    """The radii where the rule ``_ai_laguerre`` takes on the ray ``phase``
    (``ph z``) changes size: on a ray each row's test value is a fixed
    multiple of ``|zeta|``."""
    rules, zeta = _rules(cmath.rect(1.0, phase))
    out = []
    for row in rules[:-1]:
        per_modulus = _reach(zeta, row)
        if per_modulus > 0.0:
            out.append((1.5 * row[0] / per_modulus) ** (2.0 / 3.0))
    return out


def points() -> list[complex]:
    """The grid and, on each of its rays, both sides of every switch."""
    out = []
    for phase in PHASES:
        radii = list(RADII)
        radii += [r * (1.0 + d) for r in switch_radii(phase) for d in (-1e-9, 1e-9)]
        out += [cmath.rect(r, phase) for r in sorted(radii) if airy.SERIES_RADIUS < r <= 1000.0]
    return out


def reference(z: complex) -> tuple | None:
    """``Ai``, ``Ai'``, ``I = Ai / pref`` and ``ds = Ai' / (pref sqrt(z))``
    from mpmath, ``pref`` the Laplace form's prefactor, or None where 30
    and 45 digits disagree."""
    rows = []
    for dps in (30, 45):
        with mpmath.workdps(dps):
            zz = mpmath.mpc(z)
            # The phase of zeta is 1.5 ph z unwrapped, as in the library:
            # beyond the 2*pi/3 ray it passes pi.
            modulus, phase = mpmath.mpf(2) / 3 * abs(zz) ** 1.5, 1.5 * mpmath.arg(zz)
            zeta = modulus * mpmath.expj(phase)
            norm = 1 / (mpmath.sqrt(mpmath.pi) * mpmath.mpf(48) ** (mpmath.mpf(1) / 6)
                        * mpmath.gamma(mpmath.mpf(5) / 6))
            pref = norm * mpmath.exp(-zeta) * modulus ** (-mpmath.mpf(1) / 6) * mpmath.expj(-phase / 6)
            ai, aip = mpmath.airyai(zz), mpmath.airyai(zz, derivative=1)
            rows.append((ai, aip, ai / pref, aip / (pref * mpmath.sqrt(zz))))
    with mpmath.workdps(45):
        if any(abs(a - b) > AGREE_REL * abs(b) for a, b in zip(*rows)):
            return None
    return tuple(complex(v) for v in rows[1])


def _errors(zeta: complex, row: tuple, ref: tuple) -> float:
    """The larger relative error of ``I`` and of ``ds`` by ``row``'s rule."""
    nodes, w0, w1 = row[4:7]
    q = 2.0 + nodes / zeta
    g = np.power(q, -1.0 / 6.0)
    s0, s1 = complex(g.dot(w0)), complex((g / q).dot(w1))
    ds = s1 / (6.0 * zeta * zeta) - (1.0 + 1.0 / (6.0 * zeta)) * s0
    _, _, i_ref, ds_ref = ref
    return max(abs(s0 - i_ref) / abs(i_ref), abs(ds - ds_ref) / abs(ds_ref))


def main() -> int:
    grid = points()
    need = {}  # (list name, row index) -> largest rho**2 where the rule misses
    served = {}  # size -> [count, worst bar ratio, worst Ai' error]
    paired_worst = 0.0  # the worst bar ratio in a paired pass
    dropped = underflow = 0
    for z in grid:
        ref = reference(z)
        if ref is None:
            dropped += 1
            print(f"dropped: {z!r}", file=sys.stderr)
            continue
        rules, zeta = _rules(z)
        name = "right" if rules is airy._AI_RIGHT else "left"
        for k, row in enumerate(rules[:-1]):
            if _errors(zeta, row, ref) > airy._TRUNCATION_BAR:
                rho2 = row[1] * _reach(zeta, row)
                need[name, k] = max(need.get((name, k), -math.inf), rho2)
        if not 1e-290 < abs(ref[0]) < 1e290:  # Ai under- or overflows: no bar to compare
            underflow += 1
            continue
        result = airy._ai_laguerre(z, True)
        ratio = abs(result.value - ref[0]) / result.abs_error_estimate
        _, paired = airy._ai_pair(z * airy._ROT_MINUS, z)
        paired_worst = max(paired_worst, abs(paired.value - ref[0]) / paired.abs_error_estimate)
        deriv = abs(result.derivative - ref[1]) / abs(ref[1])
        entry = served.setdefault(result.n_evaluations, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] = max(entry[1], ratio)
        entry[2] = max(entry[2], deriv)
    print(f"{len(grid)} points ({dropped} dropped, {underflow} with |Ai| outside 1e+-290 not "
          f"compared with their bar), truncation fitted to {airy._TRUNCATION_BAR:g}")
    failed = False
    for name, rules in (("right", airy._AI_RIGHT), ("left", airy._AI_UPPER)):
        for k, row in enumerate(rules[:-1]):
            engine = row[0] * row[1]
            data = need.get((name, k), -math.inf)
            angle = round(math.atan2(row[2], row[1]) * 16.0 / math.pi)
            print(f"{name} {row[3]:2d} nodes, angle {angle} pi/16: rho**2 constant "
                  f"engine {engine:.3g}, the data need {data:.3g}")
            failed = failed or engine <= data
    for n in sorted(served):
        count, ratio, deriv = served[n]
        print(f"{n:2d} nodes serve {count} points: worst Ai error {ratio:.3f} of its bar, "
              f"worst relative Ai' error {deriv:.2g}")
        failed = failed or ratio > 1.0
    print(f"in a paired pass with z e^(-2 pi i/3): worst Ai error {paired_worst:.3f} of its bar")
    failed = failed or paired_worst > 1.0
    print("FAIL" if failed else "PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
