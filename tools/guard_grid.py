"""Dump, or compare with another checkout, every field of the public results
on one fixed grid.

For ``gi``, ``hi``, ``gi_hi_pair``, ``ai_complex`` and ``bi_complex`` the
dump holds each result's ``method``, ``n_evaluations`` and ``converged``,
and ``float.hex`` of the real and imaginary parts of ``value`` and
``derivative`` and of ``abs_error_estimate`` (or the exception's type and
message).  The points are 17 radii x 49 phases in ``[0, pi]``, 4 phases
in ``0 < ph z < 0.05``, 2 in ``2*pi/3 - 0.05 < ph z < 2*pi/3 - RAY_TOL``,
2 within ``RAY_TOL`` of the Stokes ray and 3 within 2e-15 of Airy's
rotation edge ``2*pi/3 + 1e-15``, each also conjugated into the lower
half-plane; 1e-9 to each side of every radius where Ai's rule changes
size on six rays and of the phase pi/3 where it turns its path
(``SWITCH_RAYS``, ``TURN_RADII``), also in both half-planes; the rays
``ph z = +-2*pi/3`` at the same radii; and the real axis at the same radii
with ``+0.0`` and ``-0.0`` imaginary parts, both signs of the real part.

The same fields are dumped for the five adaptive-quadrature
representations of ``scorerlib.integrals`` (of ``scorerlib.engine`` in a
checkout that predates that module), which the router never takes:
``hi_integral_principal``, ``hi_integral_v_form``, ``hi_integral_upper``
and ``gi_integral`` at every point of the closed upper half-plane
(imaginary part ``+0.0`` or above; a point outside a representation's
sector records its exception), and ``gi_real_positive`` at the positive
real radii.  So a change to the adaptive driver is guarded bit for bit too.
The public large-argument expansions ``gi_asymptotic`` and
``hi_asymptotic`` are dumped at every point with ``|z| >= 10`` for each
count of ``ASYMPTOTIC_COUNTS``, under ``"<name>[<n_terms>]"``, their
divergence warning silenced.

Run from the root of a checkout (a dump reads its ``src/`` unless
``PYTHONPATH`` is set)::

    python3 tools/guard_grid.py                   # print the dump, one JSON line per point
    python3 tools/guard_grid.py --against DIR     # compare with the checkout at DIR

``--against`` dumps this checkout's ``src/`` and DIR's ``src/`` in two
fresh interpreters, side by side, prints every field that differs (an error estimate or a
value part also with its distance in ulps), a summary line with the
number of lower-half-plane points where ``f(conj z) == conj f(z)`` fails
in this checkout (real parts bit for bit, imaginary parts as numbers, and
equal ``abs_error_estimate``, ``n_evaluations`` and ``converged``, and for
``ai_complex`` and ``bi_complex`` equal ``method``) and of real-axis points
where a value or derivative of this checkout has a nonzero imaginary part,
and one line per differing field: how many
results differ in it, the largest ulp distance for ``value``,
``derivative`` and ``abs_error_estimate``, and for ``n_evaluations`` how
many rose and fell and the totals on both sides; a differing ``method``
is followed by one line per route transition with its count, such as
``method: hi_path_u -> hi_laplace 412``; a differing ``value`` is
followed by the worst ``|value - value'| / (bar + bar')`` over the results
whose value moved, ``bar`` and ``bar'`` the two sides'
``abs_error_estimate``: at most 1 when every moved value lies within the
sum of both bars.

``--against`` then runs each command of ``CLI_COMMANDS`` (``scorerlib
eval`` in its three formats, ``arc`` to stdout over 0..pi and over three
sweeps symmetric about the real axis, where Gi and Hi fold each exact
conjugate pair of samples from one routed result, ``table41``, ``selftest``,
``bench`` on its default grid and on ``--phases 0.4pi,0.6pi,pi``, and an
infinite ``eval`` radius, a NaN ``bench`` radius, a NaN ``bench`` phase and
an infinite ``eval`` phase, all rejected) in
both checkouts and prints a unified diff of every stdout or stderr that
differs and every differing exit code, after masking the wall times
(table41's ``quadrature wall time: ... s`` and bench's ``(... ms)`` cells),
then one summary line: how many commands differ.  It exits with status 1
if any field or command differs or either count is not zero.
"""

from __future__ import annotations

import argparse
import cmath
import difflib
import functools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RADII = (0.5, 1.0, 2.0, 2.6, 3.0, 3.6, 4.5, 5.5, 7.0, 8.5, 10.0, 12.0, 14.0, 16.0, 20.0, 30.0, 50.0)
N_PHASES = 49
#: The 49-phase step (0.064 rad) misses the thin bands at both ends of
#: 0 < ph z < 2*pi/3, where Hi rotated by e^{2i pi/3} (or its conjugate)
#: lands just above the Stokes ray: 1e-12 (within RAY_TOL, 1e-12, of the
#: ray), 1e-9, 0.02 and 0.05 - 1e-9 above the positive axis, and 0.02 and
#: 1e-9 below 2*pi/3.  On the ray itself, half of RAY_TOL to each side,
#: where Hi takes the ray's contour.  Around Airy's rotation edge
#: 2*pi/3 + 1e-15, where Ai starts to rotate and Bi switches formulas, in
#: both half-planes.
BAND_PHASES = (
    1e-12, 1e-9, 0.02, 0.05 - 1e-9,
    2.0 * math.pi / 3.0 - 0.02, 2.0 * math.pi / 3.0 - 1e-9,
    2.0 * math.pi / 3.0 - 0.5e-12, 2.0 * math.pi / 3.0 + 0.5e-12,
    *(2.0 * math.pi / 3.0 + 1e-15 + d for d in (-2e-15, 0.0, 2e-15)),
)
#: Where Ai's rule changes size, on six rays (ph z), the radii up to 50
#: printed by ``switch_radii`` of ``tools/airy_gate.py`` (frozen here, so
#: that a parent checkout without the rule family dumps the same points),
#: each 1e-9 (relative) to each side; and pi/3, where ph zeta crosses pi/2
#: and the rules turn their paths, 1e-9 to each side at four radii.
SWITCH_RAYS = (
    (0.5, (12.001672014388513, 8.026024250777493, 5.22797682095929, 3.7100824530222734)),
    (1.0, (16.536099223850453, 11.058386966813696, 7.203191634276445, 5.111812045712583,
           4.471721625029811)),
    (1.2, (13.214995433338768, 8.365195157775492, 5.345037351981026, 3.5908554708203138)),
    (1.6, (27.137774633570313, 14.858490089876813, 8.525418945099943, 5.262405298602545,
           4.400620464324691)),
    (1.9, (34.25762276516199, 15.970553064227763, 8.623137476984029, 7.210990620197601)),
    (2.0 * math.pi / 3.0, (32.906257461814214, 14.391008257961406, 12.034300257919696)),
)
TURN_RADII = (4.0, 6.0, 9.0, 15.0)
FUNCTIONS = ("gi", "hi", "gi_hi_pair", "ai_complex", "bi_complex")
#: The adaptive-quadrature representations, dumped on the upper half-plane.
REPRESENTATIONS = ("hi_integral_principal", "hi_integral_v_form", "hi_integral_upper", "gi_integral")
#: The ``n_terms`` of the expansions' dump: the optimal cut (None), and
#: explicit counts on both sides of it.
ASYMPTOTIC_COUNTS = (None, 0, 1, 3, 12)
ASYMPTOTIC_MIN_RADIUS = 10.0

#: The CLI commands ``--against`` runs in both checkouts.
CLI_COMMANDS = (
    ("eval", "--fn", "gi", "--re", "1", "--im", "0.2"),
    ("eval", "--fn", "hi", "--r", "3", "--phase", "5pi/6", "--format", "csv"),
    ("eval", "--fn", "ai", "--re", "5", "--im", "-1", "--format", "json"),
    ("arc", "--fn", "hi", "--radius", "4", "--samples", "13"),
    ("arc", "--fn", "gi", "--radius", "7", "--start", "-pi", "--stop", "pi", "--samples", "9"),
    ("arc", "--fn", "hi", "--radius", "3", "--start", "-pi", "--stop", "pi", "--samples", "13"),
    ("arc", "--fn", "ai", "--radius", "5", "--start", "-2pi/3", "--stop", "2pi/3",
     "--samples", "11"),
    ("table41",),
    ("selftest",),
    ("bench",),
    ("bench", "--phases", "0.4pi,0.6pi,pi"),
    ("eval", "--fn", "gi", "--r", "inf", "--phase", "1"),
    ("bench", "--radii", "nan", "--phases", "pi"),
    ("bench", "--radii", "5", "--phases", "nan"),
    ("eval", "--fn", "gi", "--r", "5", "--phase", "inf"),
)
#: Wall times, the only CLI text that may differ from run to run.
WALL_TIME = re.compile(r"(quadrature wall time: )[0-9.]+ s|\( *[0-9.]+ ms\)")


def points() -> list[complex]:
    """The grid and the band, their conjugates, the +-2*pi/3 rays, the
    signed-zero axes and both sides of each switch of Ai's rule."""
    phases = [k * math.pi / (N_PHASES - 1) for k in range(N_PHASES)] + list(BAND_PHASES)
    out = []
    switches = [cmath.rect(r * (1.0 + d), ph) for ph, radii in SWITCH_RAYS for r in radii
                for d in (-1e-9, 1e-9)]
    switches += [cmath.rect(r, math.pi / 3.0 + d) for r in TURN_RADII for d in (-1e-9, 1e-9)]
    for z in switches:
        out += [z, z.conjugate()]
    for r in RADII:
        for phase in phases:
            z = cmath.rect(r, phase)
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


def _record(out: dict[str, dict], name: str, fn, z) -> None:
    """Add the fields of ``fn(z)`` (or of the exception it raises) under
    ``"<name> <z>"``, one entry per part of ``gi_hi_pair``."""
    key = _key(complex(z))
    try:
        results = fn(z)
    except Exception as exc:  # recorded, so that a change of it shows
        out[f"{name} {key}"] = {"raises": f"{type(exc).__name__}: {exc}"}
        return
    if name == "gi_hi_pair":
        for part, result in zip(("gi", "hi"), results):
            out[f"{name}.{part} {key}"] = _fields(result)
    else:
        out[f"{name} {key}"] = _fields(results)


def dump() -> dict[str, dict]:
    """``{"<function> <z>": fields}`` over the grid, for the scorerlib on
    ``sys.path``."""
    import scorerlib
    from scorerlib import engine

    oracle = _representations_module()
    out = {}
    for z in points():
        for name in FUNCTIONS:
            _record(out, name, getattr(scorerlib, name), z)
        if math.copysign(1.0, z.imag) > 0.0:
            for name in REPRESENTATIONS:
                _record(out, name, getattr(oracle, name), z)
        if abs(z) >= ASYMPTOTIC_MIN_RADIUS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for name in ("gi_asymptotic", "hi_asymptotic"):
                    for n in ASYMPTOTIC_COUNTS:
                        fn = functools.partial(getattr(engine, name), n_terms=n)
                        _record(out, f"{name}[{n}]", fn, z)
    for r in RADII:
        _record(out, "gi_real_positive", oracle.gi_real_positive, r)
    return out


def _representations_module():
    """``scorerlib.integrals``, or ``scorerlib.engine`` in a checkout from
    before the representations moved there, so that ``--against`` such a
    checkout still compares them field by field."""
    import importlib
    import importlib.util

    if importlib.util.find_spec("scorerlib.integrals") is None:
        return importlib.import_module("scorerlib.engine")
    return importlib.import_module("scorerlib.integrals")


def _start(src: Path, *argv: str) -> subprocess.Popen:
    """A fresh interpreter that runs ``argv`` with the scorerlib in ``src``,
    its stdout and stderr piped."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen(
        [sys.executable, *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _start_dump(src: Path) -> subprocess.Popen:
    """A fresh interpreter that prints the dump of the scorerlib in ``src``."""
    return _start(src, str(Path(__file__).resolve()))


def _collect(proc: subprocess.Popen) -> dict[str, dict]:
    out, err = proc.communicate()
    if proc.returncode:
        raise SystemExit(f"dump failed with status {proc.returncode}\n{err}")
    return dict(json.loads(line) for line in out.splitlines())


def _cli_diffs(other: Path) -> int:
    """Run ``CLI_COMMANDS`` in this checkout and in ``other`` side by side,
    print what differs in each, wall times masked; return how many commands
    differ."""
    differing = 0
    for command in CLI_COMMANDS:
        name = "scorerlib " + " ".join(command)
        procs = [_start(src, "-m", "scorerlib.cli", *command)
                 for src in (ROOT / "src", other / "src")]
        (mine, mine_err), (theirs, theirs_err) = (proc.communicate() for proc in procs)
        lines = []
        for stream, new, old in (("stdout", mine, theirs), ("stderr", mine_err, theirs_err)):
            new, old = (WALL_TIME.sub(r"\1(wall time)", text).splitlines() for text in (new, old))
            lines += difflib.unified_diff(old, new, f"{name}: {stream}", f"{name}: {stream}",
                                          lineterm="")
        codes = [proc.returncode for proc in procs]
        if codes[0] != codes[1]:
            lines.append(f"{name}: exit code {codes[1]} -> {codes[0]}")
        differing += bool(lines)
        for line in lines:
            print(line)
    return differing


def _ulps(a: str, b: str) -> float | None:
    """Distance in ulps of two ``float.hex`` strings; None when they are
    equal or either is not finite."""
    x, y = float.fromhex(a), float.fromhex(b)
    if x == y or not (math.isfinite(x) and math.isfinite(y)):
        return None
    return abs(x - y) / math.ulp(max(abs(x), abs(y)))


def _field_ulps(field: str, mine, theirs) -> list[float | None]:
    """Distances in ulps of the parts of a float field, if it is one."""
    if field == "abs_error_estimate":
        return [_ulps(theirs, mine)]
    if field in ("value", "derivative") and mine is not None and theirs is not None:
        return [_ulps(t, m) for t, m in zip(theirs, mine)]
    return []


def _describe(key: str, field: str, mine, theirs) -> str:
    line = f"{key}: {field}: {theirs} -> {mine}"
    return line + "".join(
        f"  ({d:.0f} ulp)" for d in _field_ulps(field, mine, theirs) if d is not None
    )


def _summary(mine: dict[str, dict], theirs: dict[str, dict], diffs) -> list[str]:
    """One line per differing field: how many results differ in it, the
    largest ulp distance of a float field, for ``n_evaluations`` how many
    rose and fell and the totals over the results both sides have, and for
    ``method`` one more line per transition with its count."""
    lines = []
    for field in sorted({field for _, field in diffs}):
        keys = [key for key, f in diffs if f == field]
        line = f"{field}: {len(keys)} differ"
        if field == "method":
            moves = Counter((theirs.get(key, {}).get(field), mine.get(key, {}).get(field))
                            for key in keys)
            lines.append(line)
            lines += [f"method: {old} -> {new} {n}" for (old, new), n in sorted(moves.items())]
            continue
        if field == "n_evaluations":
            pairs = [(theirs[key].get(field), mine[key].get(field))
                     for key in mine.keys() & theirs.keys()]
            pairs = [(t, m) for t, m in pairs if t is not None and m is not None]
            rose = sum(1 for t, m in pairs if m > t)
            fell = sum(1 for t, m in pairs if m < t)
            line += (f" ({rose} rose, {fell} fell); total "
                     f"{sum(t for t, _ in pairs)} -> {sum(m for _, m in pairs)}")
        else:
            distances = [
                d for key in keys
                for d in _field_ulps(field, mine.get(key, {}).get(field),
                                     theirs.get(key, {}).get(field))
                if d is not None
            ]
            if distances:
                line += f", at most {max(distances):.0f} ulp"
        lines.append(line)
        if field == "value":
            moves = [(_moved_over_bars(mine[key], theirs[key]), key)
                     for key in keys if key in mine and key in theirs]
            moves = [(ratio, key) for ratio, key in moves if ratio is not None]
            if moves:
                ratio, key = max(moves)
                lines.append(f"value: moved by at most {ratio:.3g} of the sum of both bars "
                             f"({len(moves)} results), at {key}")
    return lines


def _moved_over_bars(mine: dict, theirs: dict) -> float | None:
    """``|value - value'| / (bar + bar')`` of one result on both sides; None
    where either side raised or a part is not finite."""
    if "raises" in mine or "raises" in theirs:
        return None
    a, b = (complex(*(float.fromhex(h) for h in side["value"])) for side in (mine, theirs))
    bars = sum(float.fromhex(side["abs_error_estimate"]) for side in (mine, theirs))
    diff = abs(a - b)
    if not (math.isfinite(diff) and math.isfinite(bars)):
        return None
    return diff / bars if bars > 0.0 else math.inf


def _conjugate_mismatches(results: dict[str, dict]) -> int:
    """Lower-half-plane points whose result is not the upper one conjugated:
    value and derivative, and the same error bar, cost and ``converged``,
    and for Ai and Bi the same route (Gi and Hi report ``conjugate``)."""
    count = 0
    for key, fields in results.items():
        name, re_hex, im_hex = key.split()
        if not im_hex.startswith("-") or "raises" in fields:
            continue
        mirror = results.get(f"{name} {re_hex} {im_hex[1:]}")
        if mirror is None or "raises" in mirror:
            continue
        same = ["abs_error_estimate", "n_evaluations", "converged"]
        if name in ("ai_complex", "bi_complex"):
            same.append("method")
        mismatch = any(fields[field] != mirror[field] for field in same)
        for field in ("value", "derivative"):
            a, b = fields[field], mirror[field]
            if (a is None) != (b is None):
                mismatch = True
            elif a is not None and (a[0] != b[0] or float.fromhex(a[1]) != -float.fromhex(b[1])):
                mismatch = True
        count += mismatch
    return count


def _complex_on_axis(results: dict[str, dict]) -> int:
    """Real-axis points whose value or derivative has a nonzero imaginary
    part: every function of the dump is real there."""
    count = 0
    for key, fields in results.items():
        if float.fromhex(key.split()[2]) != 0.0 or "raises" in fields:
            continue
        parts = (fields["value"], fields["derivative"])
        count += any(p is not None and float.fromhex(p[1]) != 0.0 for p in parts)
    return count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="DIR", help="checkout to compare with")
    args = parser.parse_args(argv)
    if args.against is None:
        # This checkout's scorerlib, unless PYTHONPATH names another (the
        # ``--against`` dumps name each checkout's ``src/`` there).
        if "PYTHONPATH" not in os.environ:
            sys.path.insert(0, str(ROOT / "src"))
        for key, fields in dump().items():
            print(json.dumps([key, fields]))
        return 0
    # The two dumps run side by side.
    procs = [_start_dump(ROOT / "src"), _start_dump(Path(args.against).resolve() / "src")]
    mine, theirs = (_collect(proc) for proc in procs)
    diffs = []
    for key in sorted(mine.keys() | theirs.keys()):
        a, b = mine.get(key, {}), theirs.get(key, {})
        for field in sorted(a.keys() | b.keys()):
            if a.get(field) != b.get(field):
                diffs.append((key, field))
                print(_describe(key, field, a.get(field), b.get(field)))
    conj = _conjugate_mismatches(mine)
    axis = _complex_on_axis(mine)
    print(f"{len(mine)} results, {len(diffs)} differing fields, "
          f"{conj} conjugate-symmetry mismatches, "
          f"{axis} real-axis results with a nonzero imaginary part")
    for line in _summary(mine, theirs, diffs):
        print(line)
    cli = _cli_diffs(Path(args.against).resolve())
    print(f"{len(CLI_COMMANDS)} CLI commands, {cli} differ (wall times masked)")
    return 1 if diffs or conj or axis or cli else 0


if __name__ == "__main__":
    sys.exit(main())
