"""Converged high-precision references for the benchmark's correctness check.

Each reference comes from mpmath, computed at two precisions that must
agree.  mpmath is not trusted on its own: for |z| above about 8 it switches
``scorergi``/``scorerhi`` to a divergent large-argument series near
|ph z| = pi/3, where the neglected exponentially small term can reach 1e-1.
At dps 30 and dps 50 that series often converges to the same wrong value,
so agreement of two precisions is necessary but not sufficient.  Two guards
follow from this:

* a pair of precisions that disagrees is escalated (50, 90, 130, ...) until
  two consecutive precisions agree to ``AGREE_REL``;
* for the Scorer functions the accepted triple must also satisfy
  ``Gi + Hi = Bi`` to ``AGREE_REL`` relative to the smaller of |Gi| and |Hi|,
  which catches a wrong Gi or Hi even where Bi is exponentially larger.

If no pair of precisions passes, :class:`OracleError` aborts the run; a point
is never dropped.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import mpmath

#: Precisions tried in order; each consecutive pair is one acceptance test.
DPS_LADDER = (50, 90, 130, 170, 210, 250)
#: Relative agreement required between two precisions and in Gi + Hi = Bi.
AGREE_REL = 1e-15

SCORER = ("gi", "hi", "bi")
#: Ai, Bi and their first derivatives Ai', Bi'.
AIRY = ("ai", "bi", "aip", "bip")

#: Reference name -> (mpmath function, derivative order).
_MP_FUNCS = {
    "gi": ("scorergi", 0),
    "hi": ("scorerhi", 0),
    "ai": ("airyai", 0),
    "bi": ("airybi", 0),
    "aip": ("airyai", 1),
    "bip": ("airybi", 1),
}


class OracleError(RuntimeError):
    """No two precisions produced an acceptable reference."""


def _evaluate(z: complex, names: tuple[str, ...], dps: int) -> list:
    values = []
    with mpmath.workdps(dps):
        for n in names:
            fn, order = _MP_FUNCS[n]
            f = getattr(mpmath, fn)
            values.append(f(z, derivative=order) if order else f(z))
        return values


def _agree(low: list, high: list) -> bool:
    tol = mpmath.mpf(AGREE_REL)
    return all(abs(a - b) <= tol * abs(b) for a, b in zip(low, high))


def _identity_holds(names: tuple[str, ...], values: list) -> bool:
    if names != SCORER:
        return True
    g, h, b = values
    return abs(g + h - b) <= mpmath.mpf(AGREE_REL) * min(abs(g), abs(h))


def reference(z: complex, names: tuple[str, ...]) -> tuple[list[complex], int]:
    """References for the functions ``names`` at ``z``.

    Returns the values as Python complex numbers and the higher precision of
    the accepted pair.  Raises :class:`OracleError` when no consecutive pair
    of precisions in :data:`DPS_LADDER` agrees and satisfies the identity.
    """
    low = _evaluate(z, names, DPS_LADDER[0])
    for dps in DPS_LADDER[1:]:
        with mpmath.workdps(dps):
            high = _evaluate(z, names, dps)
            accepted = _agree(low, high) and _identity_holds(names, high)
        if accepted:
            return [complex(v) for v in high], dps
        low = high
    raise OracleError(f"no two precisions agree on {names} at z = {z!r}")


def references(
    points: list[complex], names: tuple[str, ...], cache_file: Path | None = None
) -> list[list[complex]]:
    """References for every point, read from ``cache_file`` when it holds
    exactly these points and functions, else computed and written there."""
    key = {"names": list(names), "points": [[z.real, z.imag] for z in points]}
    if cache_file is not None and cache_file.exists():
        try:
            stored = json.loads(cache_file.read_text())
        except (OSError, ValueError):
            stored = None
        if stored is not None and stored.get("key") == key:
            return [[complex(re, im) for re, im in row] for row in stored["values"]]
    values = [reference(z, names)[0] for z in points]
    if cache_file is not None:
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache_file.with_suffix(f".{os.getpid()}.tmp")
        payload = {"key": key, "values": [[[v.real, v.imag] for v in row] for row in values]}
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, cache_file)
    return values
