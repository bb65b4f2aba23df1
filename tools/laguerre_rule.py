"""Print a generalized Gauss-Laguerre rule as the numpy tables the library
embeds.

The rule integrates ``exp(-t) t**alpha f(t)`` over ``[0, inf)`` with ``n``
nodes.  Nodes and weights come from the Golub-Welsch eigenproblem of the
Jacobi matrix of the Laguerre polynomials ``L_n^(alpha)``, solved with
mpmath at two precisions; the script refuses to print unless both agree to
1e-20 relative.  Plain double-precision Golub-Welsch gets the nodes to
about 1e-13 and the smallest weights (down to 1e-61 for 40 nodes) wrong by
many orders, which is why each table is computed here once and frozen.

Run from the root of a checkout (needs mpmath, which the library does not)::

    python3 tools/laguerre_rule.py                     # airy.py: 40 nodes, alpha = -1/6
    python3 tools/laguerre_rule.py --n 60 --alpha 0    # engine.py's Laplace rule
"""

from __future__ import annotations

import argparse
from fractions import Fraction

import mpmath


def rule(n: int, alpha: Fraction, dps: int) -> tuple[list, list]:
    """Nodes and weights, ascending, at ``dps`` decimal digits."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha.numerator) / alpha.denominator
        jac = mpmath.zeros(n)
        for i in range(n):
            jac[i, i] = 2 * i + a + 1
            if i:
                jac[i, i - 1] = jac[i - 1, i] = mpmath.sqrt(i * (i + a))
        eig, vec = mpmath.eigsy(jac)
        mu0 = mpmath.gamma(a + 1)
        pairs = sorted((eig[i], mu0 * vec[0, i] ** 2) for i in range(n))
        return [+p[0] for p in pairs], [+p[1] for p in pairs]


def _rows(name: str, values: list) -> list[str]:
    lines = [f"{name} = np.array(["]
    for k in range(0, len(values), 3):
        lines.append("    " + " ".join(f"{float(v)!r}," for v in values[k:k + 3]))
    lines.append("])")
    return lines


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=40, help="number of nodes (default 40)")
    parser.add_argument("--alpha", type=Fraction, default=Fraction(-1, 6),
                        help="exponent of the weight t**alpha, > -1 (default -1/6)")
    args = parser.parse_args(argv)
    if args.n < 1 or args.alpha <= -1:
        parser.error("needs n >= 1 and alpha > -1")
    nodes, weights = rule(args.n, args.alpha, 60)
    check_nodes, check_weights = rule(args.n, args.alpha, 90)
    tol = mpmath.mpf("1e-20")
    for low, high in zip(nodes + weights, check_nodes + check_weights):
        if abs(low - high) > tol * abs(high):
            raise SystemExit("dps 60 and dps 90 disagree; no table printed")
    print("\n".join(_rows("_NODES", nodes) + _rows("_WEIGHTS", weights)))


if __name__ == "__main__":
    main()
