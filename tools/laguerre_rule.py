"""Print a generalized Gauss-Laguerre rule, or a Gauss-Legendre rule on
``[0, 1]``, as the numpy tables the library embeds.

The Laguerre rule integrates ``exp(-t) t**alpha f(t)`` over ``[0, inf)``
with ``n`` nodes; ``--legendre`` prints the rule for ``f(s)`` over
``[0, 1]`` instead, solved on ``[0, 1]`` itself so that the nodes near 0
keep their full relative precision (mapped from ``[-1, 1]`` in double
precision they lose it, which costs an integrand as steep as
``exp(-60 s)`` a relative error of about 60 eps).  Up to ``EIGSY_MAX_N``
nodes, nodes and weights come from the Golub-Welsch eigenproblem of the
Jacobi matrix of the Laguerre polynomials ``L_n^(alpha)`` (of the Legendre
polynomials with ``--legendre``), solved with mpmath.  Beyond that mpmath's ``eigsy`` is too
slow (about 11 s at 60 nodes and 85 s at 120 at 90 digits, growing like
``n**3``), so the nodes start from double-precision Golub-Welsch, are
Newton-refined in mpmath on ``L_n^(alpha)``, and take the weights
``Gamma(n+alpha+1) / (n! (n+1)**2) * x / L_{n+1}^(alpha)(x)**2``.  Either
way the rule is computed at two precisions, and the script refuses to print
unless both agree to 1e-20 relative.  Plain double-precision Golub-Welsch
gets the nodes to about 1e-13 and the smallest weights (down to 1e-61 for
40 nodes) wrong by many orders, which is why each table is computed here
once and frozen.

``--cut c`` keeps only the nodes whose weight exceeds ``c`` times the
largest weight.  Past the largest weight the weights fall monotonically,
so the kept nodes are the smallest ones, and the Newton path refines only
those.

Run from the root of a checkout (needs mpmath, which the library does not)::

    python3 tools/laguerre_rule.py --cut 1e-18         # airy.py: 40 nodes, alpha = -1/6, 25 kept
    python3 tools/laguerre_rule.py --n 6               # airy.py: _NODES_6; also --n 8, 12, 16, 20
    python3 tools/laguerre_rule.py --n 60 --alpha 0 --cut 1e-18    # engine.py: _NODES_60
    python3 tools/laguerre_rule.py --n 240 --alpha 0 --cut 1e-18   # engine.py: _NODES_240
    python3 tools/laguerre_rule.py --n 960 --alpha 0 --cut 1e-18   # engine.py: _NODES_960
    python3 tools/laguerre_rule.py --n 32 --legendre --tag SEGMENT      # engine.py: _NODES_SEGMENT
    python3 tools/laguerre_rule.py --n 16 --alpha -1/2 --tag SADDLE_EVEN
    python3 tools/laguerre_rule.py --n 16 --alpha 0 --tag SADDLE_ODD

The tables are named after ``--tag`` if given, else after ``n``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import mpmath
import numpy as np

#: The largest rule solved by mpmath's eigenproblem; larger ones take the
#: Newton path.
EIGSY_MAX_N = 120


def rule(n: int, alpha: Fraction, dps: int, legendre: bool = False) -> tuple[list, list]:
    """Nodes and weights, ascending, at ``dps`` decimal digits, by mpmath's
    eigenproblem: of ``L_n^(alpha)``, or with ``legendre`` of the Legendre
    polynomial shifted to ``[0, 1]``."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha.numerator) / alpha.denominator
        jac = mpmath.zeros(n)
        for i in range(n):
            if legendre:
                jac[i, i] = mpmath.mpf(1) / 2
                if i:
                    jac[i, i - 1] = jac[i - 1, i] = i / (2 * mpmath.sqrt(4 * i * i - 1))
            else:
                jac[i, i] = 2 * i + a + 1
                if i:
                    jac[i, i - 1] = jac[i - 1, i] = mpmath.sqrt(i * (i + a))
        eig, vec = mpmath.eigsy(jac)
        mu0 = mpmath.mpf(1) if legendre else mpmath.gamma(a + 1)
        pairs = sorted((eig[i], mu0 * vec[0, i] ** 2) for i in range(n))
        return [+p[0] for p in pairs], [+p[1] for p in pairs]


def _laguerre(m: int, a, x) -> tuple:
    """``L_m^(a)(x)`` and ``L_{m-1}^(a)(x)`` by the three-term recurrence."""
    prev, cur = mpmath.mpf(0), mpmath.mpf(1)
    for k in range(m):
        prev, cur = cur, ((2 * k + 1 + a - x) * cur - (k + a) * prev) / (k + 1)
    return cur, prev


def newton_rule(n: int, alpha: Fraction, dps: int, cut: float) -> tuple[list, list]:
    """The nodes whose weight exceeds ``cut`` times the largest, and their
    weights, ascending, at ``dps`` decimal digits: double-precision
    Golub-Welsch nodes refined by Newton's method in mpmath."""
    af = alpha.numerator / alpha.denominator
    i = np.arange(1, n)
    off = np.diag(np.sqrt(i * (i + af)), 1)
    start = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + af + 1.0) + off + off.T)
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha.numerator) / alpha.denominator
        scale = mpmath.gamma(n + a + 1) / (mpmath.factorial(n) * (n + 1) ** 2)
        tol = mpmath.mpf(10) ** (5 - dps)
        nodes, weights = [], []
        for x0 in start:
            x = mpmath.mpf(float(x0))
            for _ in range(20):
                ln, lm = _laguerre(n, a, x)
                step = ln * x / (n * ln - (n + a) * lm)
                x -= step
                if abs(step) <= tol * x:
                    break
            if abs(step) > tol * x or abs(x - x0) > 1e-8 * x0:
                raise SystemExit(f"Newton did not converge at the node near {float(x0)!r}")
            weight = scale * x / _laguerre(n + 1, a, x)[0] ** 2
            if weights and weight <= cut * max(weights):
                break
            nodes.append(+x)
            weights.append(+weight)
        return nodes, weights


def _truncate(nodes: list, weights: list, cut: float) -> tuple[list, list]:
    top = max(weights)
    kept = [k for k, w in enumerate(weights) if w > cut * top]
    if kept != list(range(len(kept))):
        raise SystemExit("the kept weights are not the smallest nodes; no table printed")
    return nodes[: len(kept)], weights[: len(kept)]


def _rows(name: str, values: list) -> list[str]:
    lines = [f"{name} = np.array(["]
    for k in range(0, len(values), 3):
        lines.append("    " + " ".join(f"{float(v)!r}," for v in values[k:k + 3]))
    lines.append("])")
    return lines


def _attach_negative_alpha(argv: list[str]) -> list[str]:
    """Rewrite ``--alpha -1/2`` as ``--alpha=-1/2``.

    argparse reads a separate token that starts with ``-`` and is not a
    plain decimal, such as ``-1/2`` or ``-1/6``, as an unknown option rather
    than as the value of the preceding option.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--alpha" and token.startswith("-"):
            try:
                Fraction(token)
            except ValueError:
                pass
            else:
                out[-1] = f"--alpha={token}"
                continue
        out.append(token)
    return out


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=40, help="number of nodes (default 40)")
    parser.add_argument("--alpha", type=Fraction, default=Fraction(-1, 6),
                        help="exponent of the weight t**alpha, > -1 (default -1/6)")
    parser.add_argument("--cut", type=float, default=0.0,
                        help="keep the nodes whose weight exceeds this times the largest "
                             "(default 0: every node)")
    parser.add_argument("--legendre", action="store_true",
                        help="the Gauss-Legendre rule on [0, 1] (alpha is ignored)")
    parser.add_argument("--tag", help="name the tables _NODES_TAG and _WEIGHTS_TAG")
    args = parser.parse_args(_attach_negative_alpha(sys.argv[1:] if argv is None else argv))
    if args.n < 1 or args.alpha <= -1 or not 0.0 <= args.cut < 1.0:
        parser.error("needs n >= 1, alpha > -1 and 0 <= cut < 1")
    if args.legendre and (args.cut > 0.0 or args.n > EIGSY_MAX_N):
        parser.error(f"--legendre takes no --cut and at most {EIGSY_MAX_N} nodes")
    if args.n <= EIGSY_MAX_N:
        tables = [_truncate(*rule(args.n, args.alpha, dps, args.legendre), args.cut)
                  for dps in (60, 90)]
    elif args.cut > 0.0:
        tables = [newton_rule(args.n, args.alpha, dps, args.cut) for dps in (60, 90)]
    else:
        parser.error(f"n > {EIGSY_MAX_N} takes the Newton path, which needs --cut > 0")
    (nodes, weights), (check_nodes, check_weights) = tables
    tol = mpmath.mpf("1e-20")
    if len(nodes) != len(check_nodes) or any(
        abs(low - high) > tol * abs(high)
        for low, high in zip(nodes + weights, check_nodes + check_weights)
    ):
        raise SystemExit("dps 60 and dps 90 disagree; no table printed")
    suffix = f"_{args.tag or args.n}"
    print("\n".join(_rows("_NODES" + suffix, nodes) + _rows("_WEIGHTS" + suffix, weights)))


if __name__ == "__main__":
    main()
