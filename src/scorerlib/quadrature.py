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
calls each distinct integrand once, on the flat array of every abscissa it
needs, so integrands must be elementwise.

Semi-infinite ranges are folded onto (0, 1) with the rational map
``t = a + s/(1 - s)``.

Cost model: a generation costs a fixed number of small-array operations
(about 25 in the kernel, plus the integrand's own), nearly independent of
how many panels it holds, because its arrays have only 15 to a few hundred
elements and each numpy call costs about a microsecond of overhead.  So the
panel count matters less than the number of generations, and an integrand
should be elementwise and use few operations: each numpy call it makes is
paid once per generation.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Integrand",
    "NonFiniteIntegrandError",
    "QuadratureConfig",
    "QuadratureResult",
    "integrate_finite",
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
    """Tolerances and limits for adaptive integration.

    Parameters
    ----------
    rel_tol : float
        Target for the combined error estimate relative to the combined
        integral value.
    abs_tol : float
        Absolute floor on the target, useful when the integral is genuinely
        zero.  The effective target is ``max(abs_tol, rel_tol * |value|)``.
    max_subdivisions : int
        Maximum number of panel bisections across all pieces and all
        refinement generations; a generation that would exceed it bisects
        only its worst panels up to the cap.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-300
    max_subdivisions: int = 200


@dataclass
class QuadratureResult:
    """Outcome of an adaptive integration.

    Attributes
    ----------
    value : complex
        The integral estimate (sum over all pieces).
    abs_error_estimate : float
        Sum of per-panel error estimates.
    n_evaluations : int
        Exact number of integrand evaluations performed.
    converged : bool
        Whether the error estimate met the configured tolerance.
    """

    value: complex
    abs_error_estimate: float
    n_evaluations: int
    converged: bool


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
    the last bit on some inputs.
    """
    sums = fx.dot(_WEIGHTS)
    kronrod = sums[:, 0]
    # The Kronrod weights sum to 2, so 0.5 * kronrod is the samples' mean.
    spread = np.abs(np.concatenate((fx, fx - 0.5 * kronrod[:, None]))).dot(KRONROD_WEIGHTS)
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
    funcs: Sequence[Integrand],
    spans: Sequence[tuple[int, float, float, float]],
    batch: Sequence[tuple[float, float, int]],
    mapped: bool | None,
) -> tuple[list[complex], list[float]]:
    """Kronrod values and error estimates of a batch of panels.

    ``batch`` holds ``(a, b, piece)`` sorted by piece, and ``spans[piece]``
    starts with ``(integrand index, tail)``.  Pieces of one integrand are
    numbered consecutively, so that each integrand's rows form one block and
    it is called once, on the flat array of all its abscissae.  A piece with
    a tail origin ``tail`` (NaN for a finite piece) lives in the variable
    ``s`` of the rational map ``t = tail + s/(1 - s)`` of ``[tail, inf)``.
    ``mapped`` says whether every piece (True), none (False) or some (None)
    is such a tail; only a mix needs the rows told apart.
    """
    # Midpoints, half-widths and tail origins as the columns of one array.
    halves = [0.5 * (b - a) for a, b, _ in batch]
    columns = [0.5 * (a + b) for a, b, _ in batch] + halves
    columns += [spans[piece][1] for _, _, piece in batch]
    mid, half, tails = np.array(columns).reshape(3, -1, 1)
    s = mid + half * NODES
    t = u = s
    if mapped is not False:
        if mapped is None:
            is_tail = ~np.isnan(tails)
            u = np.where(is_tail, s, 0.0)  # rows of finite pieces see the identity
        w = 1.0 - u
        t = tails + np.minimum(u / w, MAP_CAP)
        if mapped is None:
            t = np.where(is_tail, t, s)
    if len(funcs) == 1:
        fx = _call(funcs[0], t)
    else:
        fx = np.empty(s.shape, dtype=complex)
        owners = [spans[piece][0] for _, _, piece in batch]
        for k, f in enumerate(funcs):
            start, stop = bisect.bisect_left(owners, k), bisect.bisect_right(owners, k)
            if start < stop:
                fx[start:stop] = _call(f, t[start:stop])
    finite = np.isfinite(fx)
    if np.count_nonzero(finite) < finite.size:
        raise NonFiniteIntegrandError(float(t[~finite][0]))
    if mapped is not False:
        fx = fx / (w * w)
    return _gauss_kronrod(fx, halves)


def _call(f: Integrand, t: np.ndarray) -> np.ndarray:
    """``f`` on the rows of abscissae ``t``, as rows of complex values."""
    flat = t.ravel()
    out = np.asarray(f(flat), dtype=complex)
    if out.shape != flat.shape:
        raise ValueError("integrand must return one value per abscissa")
    return out.reshape(t.shape)


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
    val, err = _evaluate([f], [(0, math.nan, a, b)], [(a, b, 0)], False)
    return val[0], err[0], 15


def integrate_piecewise(
    pieces: Sequence[tuple[Integrand, float, float]],
    config: QuadratureConfig | None = None,
) -> QuadratureResult:
    """Integrate a sum of pieces with one pooled adaptive refinement.

    Parameters
    ----------
    pieces : sequence of (f, a, b)
        Each piece contributes ``integral of f from a to b``; ``b`` may be
        ``math.inf`` (folded onto ``(0, 1)`` by the rational map).  Pieces
        with ``a == b`` contribute nothing and cost nothing.  Pieces that
        pass the same integrand object share its calls.
    config : QuadratureConfig, optional
        Tolerances and limits; defaults are suitable for ~1e-12 relative
        accuracy on well-scaled integrals.

    Returns
    -------
    QuadratureResult
        The tolerance test is applied to the *combined* value, so pieces
        that nearly cancel or are individually tiny do not stall refinement.
    """
    cfg = config or QuadratureConfig()
    funcs: list[Integrand] = []
    slots: dict[int, int] = {}
    spans: list[tuple[int, float, float, float]] = []
    for f, a, b in pieces:
        if a == b:
            continue
        if not math.isfinite(a) or not (math.isfinite(b) or b == math.inf):
            raise ValueError("pieces must be [a, b] with finite a and b or b = inf")
        owner = slots.setdefault(id(f), len(funcs))
        if owner == len(funcs):
            funcs.append(f)
        spans.append((owner, a, 0.0, 1.0) if b == math.inf else (owner, math.nan, a, b))
    # Number the pieces of one integrand consecutively (see _evaluate).
    spans.sort(key=lambda span: span[0])
    n_tails = sum(1 for span in spans if not math.isnan(span[1]))
    mapped = None if 0 < n_tails < len(spans) else n_tails > 0

    batch = [(a, b, piece) for piece, (_, _, a, b) in enumerate(spans)]
    # Panels that may still be bisected, as (err, value, a, b, piece).
    pool: list[tuple[float, complex, float, float, int]] = []
    settled_val, settled_err = 0j, 0.0
    total, total_err, target = 0j, 0.0, cfg.abs_tol
    n_evals = n_splits = 0
    while batch:
        vals, errs = _evaluate(funcs, spans, batch, mapped)
        n_evals += 15 * len(batch)
        for (a, b, piece), val, err in zip(batch, vals, errs):
            if abs(b - a) > 100.0 * _EPS * max(abs(a), abs(b), 1.0):
                pool.append((err, val, a, b, piece))
            else:
                # Too narrow to bisect meaningfully: counted, never refined.
                settled_val += val
                settled_err += err
        total = settled_val + sum(panel[1] for panel in pool)
        total_err = settled_err + sum(panel[0] for panel in pool)
        target = max(cfg.abs_tol, cfg.rel_tol * abs(total))
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
        parents, pool = sorted(pool[:count], key=lambda panel: panel[4]), pool[count:]
        batch = []
        for _, _, a, b, piece in parents:
            mid = a + 0.5 * (b - a)
            batch += [(a, mid, piece), (mid, b, piece)]
        n_splits += count

    return QuadratureResult(total, total_err, n_evals, total_err <= target)


def integrate_finite(
    f: Integrand, a: float, b: float, config: QuadratureConfig | None = None
) -> QuadratureResult:
    """Adaptively integrate ``f`` over the finite interval ``[a, b]``."""
    return integrate_piecewise([(f, a, b)], config)


def integrate_semi_infinite(
    f: Integrand, a: float, config: QuadratureConfig | None = None
) -> QuadratureResult:
    """Adaptively integrate a decaying ``f`` over ``[a, inf)``.

    The range is folded onto ``(0, 1)`` by ``t = a + s/(1 - s)`` and refined
    in generations like any other piece; ``f`` must decay faster than
    ``1/t**2`` for the mapped integrand to stay bounded.
    """
    return integrate_piecewise([(f, a, math.inf)], config)
