"""Dump, or compare with another checkout, every field of the public results
on one fixed grid.

For ``gi``, ``hi``, ``gi_hi_pair``, ``ai_complex`` and ``bi_complex`` the
dump holds each result's ``method``, ``n_evaluations`` and ``converged``,
and ``float.hex`` of the real and imaginary parts of ``value`` and
``derivative`` and of ``abs_error_estimate`` (or the exception's type and
message).  The points are 17 radii x 49 phases in ``[0, pi]``, each also
conjugated into the lower half-plane; the rays ``ph z = +-2*pi/3`` at the
same radii; and the real axis at the same radii with ``+0.0`` and ``-0.0``
imaginary parts, both signs of the real part.

Run from the root of a checkout::

    python3 tools/guard_grid.py                   # print the dump, one JSON line per point
    python3 tools/guard_grid.py --against DIR     # compare with the checkout at DIR

``--against`` dumps this checkout's ``src/`` and DIR's ``src/`` in two
fresh interpreters, side by side, prints every field that differs (an error estimate or a
value part also with its distance in ulps) and a summary line with the
number of lower-half-plane points where ``f(conj z) == conj f(z)`` fails
bit for bit in this checkout.  It exits with status 1 if any field differs
or that count is not zero.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RADII = (0.5, 1.0, 2.0, 2.6, 3.0, 3.6, 4.5, 5.5, 7.0, 8.5, 10.0, 12.0, 14.0, 16.0, 20.0, 30.0, 50.0)
N_PHASES = 49
FUNCTIONS = ("gi", "hi", "gi_hi_pair", "ai_complex", "bi_complex")


def points() -> list[complex]:
    """The grid, its conjugates, the +-2*pi/3 rays and the signed-zero axes."""
    out = []
    for r in RADII:
        for k in range(N_PHASES):
            z = cmath.rect(r, k * math.pi / (N_PHASES - 1))
            out += [z, z.conjugate()]
        ray = cmath.rect(r, 2.0 * math.pi / 3.0)
        out += [ray, ray.conjugate()]
        out += [complex(sign * r, zero) for sign in (1.0, -1.0) for zero in (0.0, -0.0)]
    return out


def _key(z: complex) -> str:
    return f"{z.real.hex()} {z.imag.hex()}"


def _fields(result) -> dict:
    d = result.derivative
    return {
        "method": result.method,
        "n_evaluations": result.n_evaluations,
        "converged": result.converged,
        "value": [result.value.real.hex(), result.value.imag.hex()],
        "derivative": None if d is None else [d.real.hex(), d.imag.hex()],
        "abs_error_estimate": float(result.abs_error_estimate).hex(),
    }


def dump() -> dict[str, dict]:
    """``{"<function> <z>": fields}`` over the grid, for the scorerlib on
    ``sys.path``."""
    import scorerlib

    out = {}
    for z in points():
        for name in FUNCTIONS:
            try:
                results = getattr(scorerlib, name)(z)
            except Exception as exc:  # recorded, so that a change of it shows
                out[f"{name} {_key(z)}"] = {"raises": f"{type(exc).__name__}: {exc}"}
                continue
            if name == "gi_hi_pair":
                for part, result in zip(("gi", "hi"), results):
                    out[f"{name}.{part} {_key(z)}"] = _fields(result)
            else:
                out[f"{name} {_key(z)}"] = _fields(results)
    return out


def _start_dump(src: Path) -> subprocess.Popen:
    """A fresh interpreter that prints the dump of the scorerlib in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve())],
        env=env, stdout=subprocess.PIPE, text=True,
    )


def _collect(proc: subprocess.Popen) -> dict[str, dict]:
    out, _ = proc.communicate()
    if proc.returncode:
        raise SystemExit(f"dump failed with status {proc.returncode}")
    return dict(json.loads(line) for line in out.splitlines())


def _ulps(a: str, b: str) -> str:
    """Distance in ulps of two ``float.hex`` strings."""
    x, y = float.fromhex(a), float.fromhex(b)
    if x == y or not (math.isfinite(x) and math.isfinite(y)):
        return ""
    return f"  ({abs(x - y) / math.ulp(max(abs(x), abs(y))):.0f} ulp)"


def _describe(key: str, field: str, mine, theirs) -> str:
    line = f"{key}: {field}: {theirs} -> {mine}"
    if field == "abs_error_estimate":
        line += _ulps(theirs, mine)
    elif field in ("value", "derivative") and mine is not None and theirs is not None:
        line += "".join(_ulps(t, m) for t, m in zip(theirs, mine))
    return line


def _conjugate_mismatches(results: dict[str, dict]) -> int:
    """Lower-half-plane points whose result is not the upper one conjugated."""
    count = 0
    for key, fields in results.items():
        name, re_hex, im_hex = key.split()
        if not im_hex.startswith("-") or "raises" in fields:
            continue
        mirror = results.get(f"{name} {re_hex} {im_hex[1:]}")
        if mirror is None or "raises" in mirror:
            continue
        for field in ("value", "derivative"):
            a, b = fields[field], mirror[field]
            if (a is None) != (b is None):
                count += 1
                break
            if a is not None and (a[0] != b[0] or float.fromhex(a[1]) != -float.fromhex(b[1])):
                count += 1
                break
    return count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="DIR", help="checkout to compare with")
    args = parser.parse_args(argv)
    if args.against is None:
        for key, fields in dump().items():
            print(json.dumps([key, fields]))
        return 0
    # The two dumps run side by side.
    procs = [_start_dump(ROOT / "src"), _start_dump(Path(args.against).resolve() / "src")]
    mine, theirs = (_collect(proc) for proc in procs)
    differing = 0
    for key in sorted(mine.keys() | theirs.keys()):
        a, b = mine.get(key, {}), theirs.get(key, {})
        for field in sorted(a.keys() | b.keys()):
            if a.get(field) != b.get(field):
                differing += 1
                print(_describe(key, field, a.get(field), b.get(field)))
    conj = _conjugate_mismatches(mine)
    print(f"{len(mine)} results, {differing} differing fields, "
          f"{conj} conjugate-symmetry mismatches")
    return 1 if differing or conj else 0


if __name__ == "__main__":
    sys.exit(main())
