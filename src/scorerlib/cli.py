"""Command-line front-end for the Scorer-function library.

Subcommands
-----------
``eval``
    Evaluate Gi, Hi, Ai, or Bi at one point given in Cartesian or polar
    form; emit the result as text, CSV, or JSON.
``table41``
    Recompute the golden reference grid (|z| in {1, 10, 100} crossed with
    phases {pi, 5pi/6, 2pi/3}) by descent-contour quadrature and compare
    against the stored 8-digit reference values, plus the large-argument
    expansion column for the two outer radii.
``arc``
    Sample a function along a circular arc and emit a CSV table.  A Gi or
    Hi sweep routes each conjugate pair of its samples once: a sample whose
    point is the exact conjugate of an earlier one's, or repeats it, is
    folded from that result (over -pi..pi in 9 samples, 5 of the 9 points
    are routed).  The output is that of one evaluation per sample.
``selftest``
    Run the library's invariant battery and report per-property pass/fail.
``bench``
    Report quadrature evaluation counts over a radius/phase grid and check
    the expected qualitative cost pattern.

Exit codes: 0 success, 1 usage or I/O error, 2 numerical failure
(non-convergence or golden-value mismatch).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
import time

import numpy as np

from . import airy as _airy
from . import engine as _engine
from . import integrals as _integrals
from .contour import RAY_TOL, DomainError
from .quadrature import NonFiniteIntegrandError, integrate_piecewise, integrate_semi_infinite

__all__ = ["main", "parse_phase"]

#: Golden 8-digit reference values for Hi computed by contour quadrature,
#: keyed by (radius, phase label).  The imaginary part is None on the
#: negative real axis, where Hi is real.
_QUADRATURE_REFERENCE: dict[tuple[float, str], tuple[float, float | None]] = {
    (1.0, "pi"): (0.22066961, None),
    (1.0, "5pi/6"): (0.22331566, 6.2133021e-2),
    (1.0, "2pi/3"): (0.23477589, 0.13605894),
    (10.0, "pi"): (3.1768535e-2, None),
    (10.0, "5pi/6"): (2.7597145e-2, 1.5859789e-2),
    (10.0, "2pi/3"): (1.5948003e-2, 2.7622751e-2),
    (100.0, "pi"): (3.1830925e-3, None),
    (100.0, "5pi/6"): (2.7566477e-3, 1.5915439e-3),
    (100.0, "2pi/3"): (1.5915526e-3, 2.7566500e-3),
}

#: Reference values for the large-argument expansion truncated after the
#: 1/z**9 bracket term (three corrections), for the two radii where it is
#: meaningful.  These may legitimately differ from the quadrature values in
#: the trailing digits at radius 10.
_ASYMPTOTIC_REFERENCE: dict[tuple[float, str], tuple[float, float | None]] = {
    (10.0, "pi"): (3.1768528e-2, None),
    (10.0, "5pi/6"): (2.7597137e-2, 1.5859786e-2),
    (10.0, "2pi/3"): (1.5947998e-2, 2.7622742e-2),
    (100.0, "pi"): (3.1830925e-3, None),
    (100.0, "5pi/6"): (2.7566477e-3, 1.5915439e-3),
    (100.0, "2pi/3"): (1.5915526e-3, 2.7566500e-3),
}

_PI_FORM = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)?)pi(?:/((?:\d+\.?\d*|\.\d+)))?$")


def parse_phase(text: str) -> float:
    """Parse a phase in radians, accepting multiples of pi literally.

    Forms like ``pi``, ``-pi``, ``2pi/3``, ``0.5pi`` parse exactly as the
    corresponding float multiple of ``math.pi``; anything else must be a
    plain float.  Exact 'pi' spelling keeps special rays, such as the Stokes
    ray ``2pi/3``, within the router's ``contour.RAY_TOL``.  A zero
    denominator or a phase that is not finite (``nan``, ``inf``, ``1e400``),
    like any other malformed phase, raises ``ValueError``.
    """
    squeezed = text.strip().lower().replace(" ", "")
    m = _PI_FORM.match(squeezed)
    if m is None:
        phase = float(squeezed)
    else:
        coef_text = m.group(1)
        if coef_text in ("", "+"):
            coef = 1.0
        elif coef_text == "-":
            coef = -1.0
        else:
            coef = float(coef_text)
        denom = float(m.group(2)) if m.group(2) else 1.0
        if denom == 0.0:
            raise ValueError(f"phase {text!r} has a zero denominator")
        phase = coef * math.pi / denom
    if not math.isfinite(phase):
        raise ValueError(f"phase {text!r} is not finite")
    return phase


#: Options whose value may start with a dash and may follow as its own
#: token: a negative modulus such as ``--r -1e-3`` is then rejected by name.
_SIGNED_OPTIONS = (
    "--phase", "--phases", "--r", "--radius", "--radii", "--start", "--stop", "--re", "--im"
)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--start -pi`` as ``--start=-pi``, ``--re -1e3`` as
    ``--re=-1e3`` and ``--phases -pi,pi`` as ``--phases=-pi,pi``.

    argparse reads a separate token such as ``-pi``, ``-5pi/6`` or ``-1e3``
    as an unknown option rather than as the value of the preceding option.
    Every single-dash token after a signed option is attached, so a bad
    value such as ``-pi/0`` is reported by name; a ``--`` token is the
    next option, and the missing value is reported as such.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _SIGNED_OPTIONS and token[:1] == "-" and token[:2] != "--":
            out[-1] = f"{out[-1]}={token}"
            continue
        out.append(token)
    return out


def _z_from_polar(radius: float, phase: float) -> complex:
    re_part = radius * math.cos(phase)
    im_part = radius * math.sin(phase)
    # Sub-ulp trigonometric residue (e.g. sin(pi) ~ 1.2e-16) is noise from
    # the polar form, not part of the requested point; snap it away.  An
    # infinite radius would snap every part to 0: it stays non-finite.
    if math.isfinite(radius):
        snap = 4.0 * sys.float_info.epsilon * abs(radius)
        if abs(re_part) <= snap:
            re_part = 0.0
        if abs(im_part) <= snap:
            im_part = 0.0
    return complex(re_part, im_part)


def _evaluate(function: str, z: complex) -> _engine.ScorerResult:
    if function == "gi":
        return _engine.gi(z)
    if function == "hi":
        return _engine.hi(z)
    if function == "ai":
        return _airy._ai_info(z)
    if function == "bi":
        return _airy._bi_info(z)
    raise ValueError(f"unknown function {function!r}")


def _printed_ulp(reference: float) -> float:
    """Spacing of the last digit of an 8-significant-digit decimal print."""
    return 10.0 ** (math.floor(math.log10(abs(reference))) - 7)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1, keeping exit
    code 2 reserved for numerical failures."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="scorerlib", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a function at one point")
    p_eval.add_argument("--fn", required=True, choices=("gi", "hi", "ai", "bi"))
    p_eval.add_argument("--re", type=float, help="real part (with --im)")
    p_eval.add_argument("--im", type=float, help="imaginary part (with --re)")
    p_eval.add_argument("--r", type=float, help="modulus (with --phase)")
    p_eval.add_argument(
        "--phase", type=parse_phase, help="phase in radians; accepts e.g. 5pi/6"
    )
    p_eval.add_argument("--digits", type=int, default=8, help="text digits (1-15)")
    p_eval.add_argument(
        "--format", choices=("text", "csv", "json"), default="text", dest="fmt"
    )
    p_eval.set_defaults(handler=_cmd_eval)

    p_table = sub.add_parser(
        "table41", help="recompute the golden reference grid and compare"
    )
    p_table.set_defaults(handler=_cmd_table41)

    p_arc = sub.add_parser("arc", help="sample a function along a circular arc")
    p_arc.add_argument("--fn", required=True, choices=("gi", "hi", "ai", "bi"))
    p_arc.add_argument("--radius", type=float, required=True)
    p_arc.add_argument("--start", type=parse_phase, default=0.0)
    p_arc.add_argument("--stop", type=parse_phase, default=math.pi)
    p_arc.add_argument("--samples", type=int, default=181)
    p_arc.add_argument("--out", default="-", help="output path, '-' for stdout")
    p_arc.set_defaults(handler=_cmd_arc)

    p_self = sub.add_parser("selftest", help="run the invariant battery")
    p_self.set_defaults(handler=_cmd_selftest)

    p_bench = sub.add_parser("bench", help="evaluation-count report over a grid")
    p_bench.add_argument("--radii", default="1,10,100", help="comma-separated moduli")
    p_bench.add_argument(
        "--phases",
        default="pi,5pi/6,2pi/3",
        help="comma-separated phases (pi literals allowed)",
    )
    p_bench.set_defaults(handler=_cmd_bench)

    return parser


def _cmd_eval(args: argparse.Namespace) -> int:
    cartesian = args.re is not None or args.im is not None
    polar = args.r is not None or args.phase is not None
    if cartesian and polar:
        error = "give either --re/--im or --r/--phase, not both"
    elif cartesian and (args.re is None or args.im is None):
        error = "--re and --im must appear together"
    elif polar and (args.r is None or args.phase is None):
        error = "--r and --phase must appear together"
    elif polar and args.r < 0.0:
        error = "--r must not be negative"
    elif not cartesian and not polar:
        error = "a point is required (--re/--im or --r/--phase)"
    elif not 1 <= args.digits <= 15:
        error = "--digits must be between 1 and 15"
    else:
        error = ""
    if error:
        print(f"scorerlib eval: {error}", file=sys.stderr)
        return 1

    z = complex(args.re, args.im) if cartesian else _z_from_polar(args.r, args.phase)
    result = _evaluate(args.fn, z)
    fields = {"z_re": z.real, "z_im": z.imag, "function": args.fn,
              "value_re": result.value.real, "value_im": result.value.imag,
              "method": result.method, "abs_error_estimate": result.abs_error_estimate,
              "n_evaluations": result.n_evaluations}
    if args.fmt == "json":
        print(json.dumps(fields))
    elif args.fmt == "csv":
        print(",".join(fields))
        print(",".join(f"{v:.15e}" if isinstance(v, float) else str(v) for v in fields.values()))
    else:
        for key, v in fields.items():
            print(f"{key} = {v:.{args.digits}g}" if isinstance(v, float) else f"{key} = {v}")
    return 0 if result.converged else 2


def _format_cell(value: float | None) -> str:
    return "  --          " if value is None else f"{value: .7e}"


def _golden_rows(asymptotic: bool):
    """Compare one golden table, part by part.

    Yields ``(radius, label, part, computed, reference, diff, ok,
    n_evaluations)`` for the quadrature table (``hi_integral_principal``;
    a cell passes within half a printed ulp and when the quadrature
    converged) or, with ``asymptotic``, for the expansion table
    (``hi_asymptotic`` with three corrections; the stored prints carry up
    to one ulp of decimal rounding slop).
    """
    if asymptotic:
        table, slack = _ASYMPTOTIC_REFERENCE, 1.0
        evaluate = functools.partial(_engine.hi_asymptotic, n_terms=3)
    else:
        table, slack, evaluate = _QUADRATURE_REFERENCE, 0.5, _integrals.hi_integral_principal
    for (radius, label), (ref_re, ref_im) in table.items():
        result = evaluate(_z_from_polar(radius, parse_phase(label)))
        checks = [("Re", result.value.real, ref_re)]
        if ref_im is not None:
            checks.append(("Im", result.value.imag, ref_im))
        for part, computed, reference in checks:
            diff = abs(computed - reference)
            ok = diff <= slack * _printed_ulp(reference) and result.converged
            yield radius, label, part, computed, reference, diff, ok, result.n_evaluations


def _cmd_table41(args: argparse.Namespace) -> int:
    sections = (
        ("Hi by descent-contour quadrature vs stored 8-digit reference", "     evals"),
        ("Large-argument expansion (three correction terms) vs reference", ""),
    )
    failures = 0
    start = time.perf_counter()
    for asymptotic, (title, evals_head) in enumerate(sections):
        if asymptotic:
            elapsed = time.perf_counter() - start
            print()
        print(title)
        print("radius  phase   part   computed        reference       |diff|" + evals_head)
        for radius, label, part, computed, reference, diff, ok, evals in _golden_rows(
            bool(asymptotic)
        ):
            failures += 0 if ok else 1
            print(
                f"{radius:6g}  {label:6s}  {part}   {computed: .7e}"
                f"  {_format_cell(reference)}  {diff:.1e}"
                + ("" if asymptotic else f"  {evals:5d}")
                + ("" if ok else "  MISMATCH")
            )

    print()
    print(f"quadrature wall time: {elapsed:.3f} s")
    if failures:
        print(f"FAIL: {failures} cell(s) off the stored reference")
        return 2
    print("PASS: all cells match the stored reference")
    return 0


def _cmd_arc(args: argparse.Namespace) -> int:
    if args.samples < 2:
        print("scorerlib arc: --samples must be at least 2", file=sys.stderr)
        return 1
    if not args.radius > 0:
        print("scorerlib arc: --radius must be positive", file=sys.stderr)
        return 1

    lines = ["phase,re_value,im_value"]
    all_converged = True
    step = (args.stop - args.start) / (args.samples - 1)
    phases, sampled = itertools.tee(
        args.stop if k == args.samples - 1 else args.start + k * step
        for k in range(args.samples)
    )
    points = (_z_from_polar(args.radius, phase) for phase in sampled)
    # Gi and Hi route each conjugate pair of the sweep once; Ai and Bi are
    # conjugate-symmetric by construction and have no fold to share.
    if args.fn in ("gi", "hi"):
        results = _engine._sweep(points, args.fn)
    else:
        results = (_evaluate(args.fn, z) for z in points)
    for phase, result in zip(phases, results):
        all_converged = all_converged and result.converged
        lines.append(
            f"{phase:.15e},{result.value.real:.15e},{result.value.imag:.15e}"
        )
    payload = "\n".join(lines) + "\n"

    if args.out == "-":
        sys.stdout.write(payload)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as stream:
                stream.write(payload)
        except OSError as exc:
            print(f"scorerlib arc: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    return 0 if all_converged else 2


def _selftest_checks() -> list[tuple[str, str]]:
    """Run every invariant; return (name, failure detail or '') per check."""
    outcomes: list[tuple[str, str]] = []

    def run(name: str, fn) -> None:
        try:
            detail = fn() or ""
        except Exception as exc:  # a crashed check is a failed check
            detail = f"raised {type(exc).__name__}: {exc}"
        outcomes.append((name, detail))

    def check_origin() -> str:
        g0 = _engine.gi(0.0).value
        h0 = _engine.hi(0.0).value
        worst = max(
            abs(g0 - _engine.GI_AT_ZERO) / _engine.GI_AT_ZERO,
            abs(h0 - 2.0 * g0) / abs(h0),
            abs(_airy.BI_ZERO - 3.0 * g0.real) / _airy.BI_ZERO,
        )
        return "" if worst < 1e-13 else f"origin residual {worst:.2e}"

    def check_conjugate() -> str:
        for radius in (0.7, 1.5, 4.0, 12.0):
            for phase in (0.3, 1.1, 2.0, 2.9):
                z = _z_from_polar(radius, phase)
                for fn in (_engine.gi, _engine.hi, _airy.ai_complex, _airy.bi_complex):
                    upper, lower = fn(z), fn(z.conjugate())
                    for u, w in ((upper.value, lower.value),
                                 (upper.derivative, lower.derivative)):
                        if u is not None and abs(w - u.conjugate()) > 1e-14 * abs(u):
                            return f"conjugate symmetry broken at {z}"
        return ""

    def check_sum_identity() -> str:
        # Inside the series discs Gi, Hi and Bi come from three series.
        # Beyond them the routed pair is built from Bi's own Airy terms
        # (the rotation connections below 2pi/3, Gi = Bi - Hi above), so
        # one function comes from an independent representation: Gi by its
        # contour below 2pi/3 (on the axis by its real integral), Hi by its
        # descent contour from 2pi/3 on.
        worst = 0.0
        for radius in (0.5, 1.0, 2.0, 5.0, 8.0):
            for k in range(13):
                z = _z_from_polar(radius, k * math.pi / 12.0)
                g, h = (r.value for r in _engine.gi_hi_pair(z))
                if radius > 2.0:
                    if k == 0:
                        g = _integrals.gi_real_positive(radius).value
                    elif k < 8:
                        g = _integrals.gi_integral(z).value
                    else:
                        h = _integrals.hi_integral_principal(z).value
                b = _airy.bi_complex(z).value
                scale = max(abs(g), abs(h), abs(b))
                worst = max(worst, abs(g + h - b) / scale)
        return "" if worst <= 1e-9 else f"sum identity residual {worst:.2e}"

    def check_connection() -> str:
        # The routed Hi on [pi/3, 2pi/3) (the rotation connection beyond the
        # series disc) against the left-valley contour, which shares no
        # formula with it: there the contour part dominates its recessive
        # Airy term.
        worst = 0.0
        for radius in (1.0, 3.0, 6.0, 10.0):
            for frac in (0.35, 0.45, 0.55, 0.62):
                z = _z_from_polar(radius, frac * math.pi)
                lhs = _engine.hi(z).value
                rhs = _integrals.hi_integral_upper(z).value
                worst = max(worst, abs(lhs - rhs) / abs(lhs))
        return "" if worst <= 1e-9 else f"connection residual {worst:.2e}"

    def check_rotation_pair() -> str:
        # The routed Gi below pi/3 against its contour, and on the axis
        # against its real integral.  Above pi/3 both would share the
        # dominant i Ai(z) term, which hides an error in the rest.
        worst = 0.0
        for radius in (3.0, 5.0, 8.0):
            for frac in (0.08, 0.2, 0.3):
                z = _z_from_polar(radius, frac * math.pi)
                a = _engine.gi(z).value
                b = _integrals.gi_integral(z).value
                worst = max(worst, abs(a - b) / abs(b))
            on_axis = _engine.gi(complex(radius, 0.0)).value
            direct = _integrals.gi_real_positive(radius).value
            worst = max(worst, abs(on_axis - direct) / abs(direct))
        return "" if worst <= 1e-9 else f"rotation residual {worst:.2e}"

    def check_golden(asymptotic: bool) -> str:
        for radius, label, part, *_, ok, _ in _golden_rows(asymptotic):
            if not ok:
                return f"radius {radius} phase {label} {part} off reference"
        return ""

    def check_cross_routes() -> str:
        z = _z_from_polar(10.0, parse_phase("5pi/6"))
        a = _integrals.hi_integral_principal(z).value
        b = _integrals.hi_integral_v_form(z).value
        if abs(a - b) > 1e-9 * abs(a):
            return f"u-form vs v-form disagree: {abs(a - b) / abs(a):.2e}"
        z = complex(0.0, 2.0)
        a = _integrals.hi_integral_upper(z).value
        b = _engine.hi(z).value
        if abs(a - b) > 1e-9 * abs(a):
            return f"valley vs routed hi disagree: {abs(a - b) / abs(a):.2e}"
        z = complex(1.0, 0.2)
        a = _integrals.gi_integral(z).value
        b = _engine.gi(z).value
        if abs(a - b) > 1e-9 * abs(a):
            return f"contour vs routed gi disagree: {abs(a - b) / abs(a):.2e}"
        return ""

    def check_quadrature() -> str:
        one = integrate_semi_infinite(lambda t: np.exp(-t) + 0.0j, 0.0)
        if abs(one.value - 1.0) > 1e-12:
            return f"exponential tail integral off by {abs(one.value - 1.0):.2e}"
        pi_val = integrate_piecewise([(lambda t: 4.0 / (1.0 + t * t) + 0.0j, 0.0, 1.0)])
        if abs(pi_val.value - math.pi) > 1e-12:
            return f"arctangent integral off by {abs(pi_val.value - math.pi):.2e}"
        return ""

    def check_wronskian() -> str:
        worst = 0.0
        for radius in (0.5, 2.0, 5.0, 8.0, 20.0):
            for k in range(7):
                z = _z_from_polar(radius, k * math.pi / 6.0)
                a = _airy.ai_complex(z)
                b = _airy.bi_complex(z)
                wron = a.value * b.derivative - a.derivative * b.value
                scale = max(
                    1.0 / math.pi,
                    abs(a.value) * abs(b.derivative)
                    + abs(a.derivative) * abs(b.value),
                )
                worst = max(worst, abs(wron - 1.0 / math.pi) / scale)
        return "" if worst <= 1e-11 else f"normalized Wronskian residual {worst:.2e}"

    run("origin_closed_forms", check_origin)
    run("conjugate_symmetry", check_conjugate)
    run("sum_identity", check_sum_identity)
    run("rotation_connection", check_connection)
    run("rotation_pair_vs_contour", check_rotation_pair)
    run("golden_table_quadrature", lambda: check_golden(False))
    run("golden_table_asymptotic", lambda: check_golden(True))
    run("cross_route_agreement", check_cross_routes)
    run("quadrature_closed_forms", check_quadrature)
    run("airy_wronskian", check_wronskian)
    return outcomes


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0
    for name, detail in _selftest_checks():
        if detail:
            failures += 1
            print(f"FAIL  {name}: {detail}")
        else:
            print(f"PASS  {name}")
    if failures:
        print(f"{failures} check(s) failed")
        return 2
    print("all checks passed")
    return 0


def _hi_by_quadrature(z: complex) -> _engine.ScorerResult:
    """Hi by contour quadrature regardless of engine shortcuts, mirroring
    the golden table's cost profile: the left-valley contour on
    ``[pi/3, 2*pi/3)``, the descent contour beyond, and the engine's route
    below ``pi/3``.  Evaluated at ``|ph z|``: the representations take the
    upper half-plane only, and the reported cost is the same at ``conj z``."""
    z = complex(z.real, abs(z.imag))
    ph = math.atan2(z.imag, z.real)
    if ph < math.pi / 3.0:
        return _engine.hi(z)
    if ph < 2.0 * math.pi / 3.0 - RAY_TOL:
        return _integrals.hi_integral_upper(z)
    return _integrals.hi_integral_principal(z)


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        radii = [float(tok) for tok in args.radii.split(",") if tok]
        phases = [(tok, parse_phase(tok)) for tok in args.phases.split(",") if tok]
        for radius in radii:
            if not 0.0 < radius < math.inf:
                raise ValueError(f"radius {radius:g} is not finite and positive")
    except ValueError as exc:
        print(f"scorerlib bench: bad grid: {exc}", file=sys.stderr)
        return 1
    if not radii or not phases:
        print("scorerlib bench: empty grid", file=sys.stderr)
        return 1

    counts: dict[tuple[float, str], int] = {}
    print("integrand evaluations per point (Hi, contour quadrature)")
    print("radius" + "".join(f"  {label:>18s}" for label, _ in phases))
    for radius in radii:
        cells = []
        for label, phase in phases:
            z = _z_from_polar(radius, phase)
            t0 = time.perf_counter()
            result = _hi_by_quadrature(z)
            dt = (time.perf_counter() - t0) * 1e3
            counts[(radius, label)] = result.n_evaluations
            cells.append(f"  {result.n_evaluations:8d} ({dt:5.1f} ms)")
        print(f"{radius:6g}" + "".join(cells))

    failures, checks = [], []
    labels = [label for label, _ in phases]
    if "2pi/3" in labels and "5pi/6" in labels:
        checks.append("Stokes ray is the most expensive phase in each row")
        for radius in radii:
            stokes = counts[(radius, "2pi/3")]
            off = counts[(radius, "5pi/6")]
            if stokes and off and stokes <= off:
                failures.append(
                    f"radius {radius:g}: Stokes-ray count {stokes} is not above"
                    f" the 5pi/6 count {off}"
                )
    # Only Hi's descent contour, 2pi/3 < |ph| <= pi (beyond the ray's RAY_TOL
    # band), claims a flat cost; the valley contour below grows with the radius.
    off_stokes = [label for label, phase in phases
                  if abs(math.remainder(phase, 2.0 * math.pi)) > 2.0 * math.pi / 3.0 + RAY_TOL
                  and len(set(radii)) > 1]
    if off_stokes:
        checks.append("off-Stokes cost does not grow with the radius")
    for label in off_stokes:
        small, large = counts[(min(radii), label)], counts[(max(radii), label)]
        if large > small:
            failures.append(
                f"phase {label}: count grew from {small} at radius {min(radii):g}"
                f" to {large} at radius {max(radii):g}"
            )

    print()
    if failures:
        for line in failures:
            print(f"FAIL  {line}")
        return 2
    if checks:
        print("PASS  cost pattern: " + ";\n      ".join(checks))
    else:
        print("no cost-pattern check applies to this grid")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(
            _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
        )
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.handler(args)
    except (DomainError, NonFiniteIntegrandError, ValueError, OSError) as exc:
        print(f"scorerlib: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"scorerlib: overflow: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
