"""Adaptive Gauss-Kronrod quadrature for smooth complex-valued integrands.

The panel rule is the 15-point Kronrod extension of the 7-point Gauss rule:
both estimates share the same 15 abscissae, so a panel costs exactly 15
integrand evaluations and carries an embedded error estimate.  All abscissae
are interior, so integrands may be (integrably) singular at panel endpoints.

Refinement is pooled and runs in generations: an integral may be supplied as
several pieces (for example the two sides of a corner, or a finite part plus
a mapped tail), and each generation bisects, across *all* pieces, the fewest
worst panels whose removal would bring the combined error estimate within
the tolerance against the combined value.  This keeps pieces whose individual
value is tiny from chasing an unreachable relative target.  A generation
calls each piece's integrand once, on the flat array of every abscissa of
that piece's panels, so integrands must be elementwise.

Semi-infinite ranges are folded onto (0, 1) with the rational map
``t = a + s/(1 - s)``.

Cost model: a generation costs a fixed number of small-array operations
(about 25 in the kernel, plus the integrand's own for each piece it
refines), nearly independent of how many panels it holds, because its
arrays have only 15 to a few hundred elements and each numpy call costs
about a microsecond of overhead.  So the panel count matters less than the
number of generations, and an integrand should use few operations.

Start partition: the first generation evaluates each piece on its four
dyadic quarter panels, reached by two rounds of the same bisection that
refinement uses.  Nearly every integral of the library would bisect its
whole piece and then both halves before leaving any panel alone, and the
one- and two-panel estimates on the way never reach the result: starting
at the quarters saves those two generations and 45 evaluations per piece.
Panels stay dyadic, so the leaf panels are those a one-panel start would
reach wherever it bisects both halves.  A piece too narrow to bisect
stays one panel, and the start's bisections count against
``max_subdivisions``, spent level by level across the pieces.  The price
is a floor of 60 evaluations per piece: an integrand that one panel would
resolve costs four.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .contour import ScorerResult

__all__ = [
    "Integrand",
    "NonFiniteIntegrandError",
    "QuadratureConfig",
    "integrate_piecewise",
    "integrate_semi_infinite",
    "panel_rule",
]

#: Vectorized integrand: maps a 1-D ndarray of real abscissae to values.
Integrand = Callable[[np.ndarray], np.ndarray]

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# Abscissae of the 15-point Kronrod rule on [-1, 1] (positive half, descending
# to the center).  Odd-indexed entries together with the center are the 7
# Gauss points.  The Gauss subset integrates polynomials exactly to degree 13,
# the full Kronrod rule to degree 22.
_XGK_HALF = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.000000000000000000000000000000000,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG_HALF = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

# Full 15-point arrays in ascending abscissa order.
NODES = np.concatenate((-_XGK_HALF[:-1], _XGK_HALF[::-1]))
KRONROD_WEIGHTS = np.concatenate((_WGK_HALF[:-1], _WGK_HALF[::-1]))
GAUSS_WEIGHTS = np.zeros(15)
GAUSS_WEIGHTS[1::2] = np.concatenate((_WG_HALF[:-1], _WG_HALF[::-1]))
# Both rules as the columns of one (15, 2) matrix.
_WEIGHTS = np.stack((KRONROD_WEIGHTS, GAUSS_WEIGHTS), axis=1).astype(complex)

#: Largest abscissa the rational map will produce; beyond this the integrand
#: is sampled at a fixed point, which is harmless for decaying integrands and
#: keeps powers like t**3 finite in double precision.
MAP_CAP = 1e30

# Bisection levels of the start partition: 2 gives each piece four quarter
# panels.
_START_DEPTH = 2

#: The target of the combined error estimate relative to the combined value.
REL_TOL = 1e-12
#: The target's absolute floor, for an integral that is genuinely zero: the
#: target is ``max(ABS_TOL, REL_TOL * |value|)``.
ABS_TOL = 1e-300


class NonFiniteIntegrandError(ValueError):
    """Raised when an integrand returns NaN or infinity at an abscissa.

    Attributes
    ----------
    abscissa : float
        The point at which the non-finite value was produced.
    """

    def __init__(self, abscissa: float) -> None:
        self.abscissa = abscissa
        super().__init__(f"integrand is not finite at t = {abscissa!r}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Limits for adaptive integration.

    Parameters
    ----------
    max_subdivisions : int
        Maximum number of panel bisections across all pieces and all
        generations.  The start partition spends the first of them: up to
        three per piece, the first level of every piece before the second,
        so ``0`` leaves one panel per piece.  A refinement generation that
        would exceed the cap bisects only its worst panels up to it.
    """

    max_subdivisions: int = 200


def _gauss_kronrod(
    fx: np.ndarray, halves: Sequence[float]
) -> tuple[list[complex], list[float]]:
    """Kronrod values and error estimates of panels with half-widths ``halves``.

    ``fx`` holds each panel's 15 samples in a row.  The error estimate of a
    panel is the Gauss/Kronrod difference ``err``, sharpened in the style of
    classic adaptive packages against the scale of variation ``resasc``:
    ``resasc * min(1, (200 err / resasc)**1.5)`` where ``resasc != 0``,
    scaled by the half-width and floored at ``50 eps`` times the integral of
    ``|f|``.  The sums and absolute values are array operations; the
    sharpening runs per panel on Python floats, all but the power, which
    stays in numpy: numpy's ``power`` and ``abs`` differ from Python's in
    the last bit on some inputs.  Each row is summed on its own, so a
    panel's value and error estimate do not depend on the batch it is
    evaluated in (a matrix product rounds differently for different row
    counts, and the cancelling Gauss/Kronrod difference shows it).
    """
    sums = (fx[:, :, None] * _WEIGHTS).sum(axis=1)
    kronrod = sums[:, 0]
    # The Kronrod weights sum to 2, so 0.5 * kronrod is the samples' mean.
    spread = np.abs(np.concatenate((fx, fx - 0.5 * kronrod[:, None])))
    spread = (spread * KRONROD_WEIGHTS).sum(axis=1)
    n = len(halves)
    gaps = np.abs(kronrod - sums[:, 1]).tolist()
    resabs, resasc = spread[:n].tolist(), spread[n:].tolist()
    ratios = [200.0 * e / r if r != 0.0 else 0.0 for e, r in zip(gaps, resasc)]
    damping = np.power(ratios, 1.5).tolist()
    vals, errs = [], []
    for k, e, ra, rs, d, h in zip(kronrod.tolist(), gaps, resabs, resasc, damping, halves):
        if rs != 0.0:
            e = rs * min(d, 1.0)
        scale = abs(h)
        ra *= scale
        vals.append(k * h)
        errs.append(max(e * scale, 50.0 * _EPS * ra if ra > _TINY / (50.0 * _EPS) else 0.0))
    return vals, errs


def _evaluate(
    pieces: Sequence[tuple[Integrand, float | None]],
    batch: Sequence[tuple[float, float, int]],
) -> tuple[list[complex], list[float]]:
    """Kronrod values and error estimates of a batch of panels.

    ``batch`` holds ``(a, b, piece)`` with the panels of one piece next to
    each other, and ``pieces[piece]`` is ``(f, tail)``: each piece's
    integrand is called once, on all of its panels.  A piece with a tail
    origin ``tail`` (None for a finite piece) lives in the variable ``s`` of
    the rational map ``t = tail + s/(1 - s)`` of ``[tail, inf)``.
    """
    halves = [0.5 * (b - a) for a, b, _ in batch]
    mid, half = np.array([0.5 * (a + b) for a, b, _ in batch] + halves).reshape(2, -1, 1)
    s = mid + half * NODES
    fx = np.empty(s.shape, dtype=complex)
    start = 0
    for piece, panels in itertools.groupby(batch, key=lambda panel: panel[2]):
        stop = start + sum(1 for _ in panels)
        f, tail = pieces[piece]
        rows = s[start:stop]
        if tail is None:
            fx[start:stop] = _call(f, rows)
        else:
            w = 1.0 - rows
            fx[start:stop] = _call(f, tail + np.minimum(rows / w, MAP_CAP)) / (w * w)
        start = stop
    return _gauss_kronrod(fx, halves)


def _call(f: Integrand, t: np.ndarray) -> np.ndarray:
    """``f`` on the rows of abscissae ``t``, as rows of complex values;
    :class:`NonFiniteIntegrandError` at the first abscissa where a value is
    not finite."""
    flat = t.ravel()
    out = np.asarray(f(flat), dtype=complex)
    if out.shape != flat.shape:
        raise ValueError("integrand must return one value per abscissa")
    finite = np.isfinite(out)
    if np.count_nonzero(finite) < finite.size:
        raise NonFiniteIntegrandError(float(flat[~finite][0]))
    return out.reshape(t.shape)


def _bisectable(a: float, b: float) -> bool:
    """Whether ``[a, b]`` is wide enough to bisect meaningfully; a narrower
    panel is evaluated and counted but never refined."""
    return abs(b - a) > 100.0 * _EPS * max(abs(a), abs(b), 1.0)


def _halves(a: float, b: float, piece: int) -> list[tuple[float, float, int]]:
    """The two halves of the panel ``[a, b]`` of ``piece``."""
    mid = a + 0.5 * (b - a)
    return [(a, mid, piece), (mid, b, piece)]


def panel_rule(f: Integrand, a: float, b: float) -> tuple[complex, float, int]:
    """Apply the 15-point Gauss-Kronrod rule once on ``[a, b]``.

    Parameters
    ----------
    f : Integrand
        Vectorized integrand; called with one ndarray of 15 abscissae.
    a, b : float
        Panel endpoints, ``a < b`` finite.

    Returns
    -------
    value : complex
        Kronrod estimate of the integral.
    abs_error_estimate : float
        Embedded error estimate (never an underestimate by construction on
        smooth integrands, up to the usual heuristic caveats).
    n_evaluations : int
        Always 15.

    Raises
    ------
    NonFiniteIntegrandError
        If the integrand produces NaN or infinity at any abscissa.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("panel_rule requires finite endpoints")
    val, err = _evaluate([(f, None)], [(a, b, 0)])
    return val[0], err[0], 15


def integrate_piecewise(
    pieces: Sequence[tuple[Integrand, float, float]],
    config: QuadratureConfig | None = None,
) -> ScorerResult:
    """Integrate a sum of pieces with one pooled adaptive refinement.

    Every piece starts on its four dyadic quarter panels (see the module
    docstring), so a piece wide enough to bisect costs at least 60
    evaluations while ``max_subdivisions`` leaves the start its three
    bisections per piece.

    Parameters
    ----------
    pieces : sequence of (f, a, b)
        Each piece contributes ``integral of f from a to b``; ``b`` may be
        ``math.inf`` (folded onto ``(0, 1)`` by the rational map).  Pieces
        with ``a == b`` contribute nothing and cost nothing.
    config : QuadratureConfig, optional
        The bisection cap; the error target is fixed at ``REL_TOL`` relative
        to the combined value, floored at ``ABS_TOL``.

    Returns
    -------
    ScorerResult
        Tagged ``quadrature``: the integral (sum over all pieces), the sum
        of the per-panel error estimates, the exact number of integrand
        evaluations, and whether the error estimate met the tolerance.  The
        tolerance test is applied to the *combined* value, so pieces that
        nearly cancel or are individually tiny do not stall refinement.
    """
    cfg = config or QuadratureConfig()
    spans: list[tuple[Integrand, float | None]] = []
    batch = []
    for f, a, b in pieces:
        if a == b:
            continue
        if not math.isfinite(a) or not (math.isfinite(b) or b == math.inf):
            raise ValueError("pieces must be [a, b] with finite a and b or b = inf")
        batch.append((0.0, 1.0, len(spans)) if b == math.inf else (a, b, len(spans)))
        spans.append((f, a if b == math.inf else None))
    # Start at the depth-2 dyadic partition, spending the bisection budget
    # level by level across the pieces (see the module docstring).
    n_splits = 0
    for _ in range(_START_DEPTH):
        level = []
        for a, b, piece in batch:
            if n_splits < cfg.max_subdivisions and _bisectable(a, b):
                level += _halves(a, b, piece)
                n_splits += 1
            else:
                level.append((a, b, piece))
        batch = level
    # Panels that may still be bisected, as (err, value, a, b, piece).
    pool: list[tuple[float, complex, float, float, int]] = []
    settled_val, settled_err = 0j, 0.0
    total, total_err, target = 0j, 0.0, ABS_TOL
    n_evals = 0
    while batch:
        vals, errs = _evaluate(spans, batch)
        n_evals += 15 * len(batch)
        for (a, b, piece), val, err in zip(batch, vals, errs):
            if _bisectable(a, b):
                pool.append((err, val, a, b, piece))
            else:
                # Too narrow to bisect meaningfully: counted, never refined.
                settled_val += val
                settled_err += err
        total = settled_val + sum(panel[1] for panel in pool)
        total_err = settled_err + sum(panel[0] for panel in pool)
        target = max(ABS_TOL, REL_TOL * abs(total))
        budget = cfg.max_subdivisions - n_splits
        if total_err <= target or budget <= 0:
            break
        # Bisect the fewest worst panels whose removal would meet the target.
        pool.sort(key=lambda panel: panel[0], reverse=True)
        excess = total_err - target
        count = removed = 0
        for panel in pool[:budget]:
            count += 1
            removed += panel[0]
            if removed >= excess:
                break
        # In piece order, so that each piece's panels lie together (see _evaluate).
        parents, pool = sorted(pool[:count], key=lambda panel: panel[4]), pool[count:]
        batch = [half for _, _, a, b, piece in parents for half in _halves(a, b, piece)]
        n_splits += count

    return ScorerResult(total, "quadrature", total_err, n_evals, total_err <= target)


def integrate_semi_infinite(
    f: Integrand, a: float, config: QuadratureConfig | None = None
) -> ScorerResult:
    """Adaptively integrate a decaying ``f`` over ``[a, inf)``.

    The range is folded onto ``(0, 1)`` by ``t = a + s/(1 - s)`` and refined
    in generations like any other piece, from its four quarter panels (at
    least 60 evaluations); ``f`` must decay faster than ``1/t**2`` for the
    mapped integrand to stay bounded.
    """
    return integrate_piecewise([(f, a, math.inf)], config)
