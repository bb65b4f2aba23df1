"""Print the 40-node generalized Gauss-Laguerre rule that ``airy.py`` embeds.

The rule integrates ``exp(-t) t**(-1/6) f(t)`` over ``[0, inf)``.  Nodes
and weights come from the Golub-Welsch eigenproblem of the Jacobi matrix
of the Laguerre polynomials ``L_n^(alpha)``, ``alpha = -1/6``, solved with
mpmath at two precisions; the script refuses to print unless both agree to
1e-20 relative.  Plain double-precision Golub-Welsch gets the nodes to
about 1e-13 and the smallest weights (down to 1e-61) wrong by many orders,
which is why the table is computed here once and frozen.

Run from the root of a checkout (needs mpmath, which the library does not)::

    python3 tools/laguerre_rule.py
"""

from __future__ import annotations

import mpmath

N = 40
ALPHA = mpmath.mpf(-1) / 6


def rule(dps: int) -> tuple[list, list]:
    """Nodes and weights, ascending, at ``dps`` decimal digits."""
    with mpmath.workdps(dps):
        alpha = mpmath.mpf(-1) / 6
        jac = mpmath.zeros(N)
        for i in range(N):
            jac[i, i] = 2 * i + alpha + 1
            if i:
                jac[i, i - 1] = jac[i - 1, i] = mpmath.sqrt(i * (i + alpha))
        eig, vec = mpmath.eigsy(jac)
        mu0 = mpmath.gamma(alpha + 1)
        pairs = sorted((eig[i], mu0 * vec[0, i] ** 2) for i in range(N))
        return [+p[0] for p in pairs], [+p[1] for p in pairs]


def _rows(name: str, values: list) -> list[str]:
    lines = [f"{name} = np.array(["]
    for k in range(0, N, 3):
        lines.append("    " + " ".join(f"{float(v)!r}," for v in values[k:k + 3]))
    lines.append("])")
    return lines


def main() -> None:
    nodes, weights = rule(60)
    check_nodes, check_weights = rule(90)
    tol = mpmath.mpf("1e-20")
    for low, high in zip(nodes + weights, check_nodes + check_weights):
        if abs(low - high) > tol * abs(high):
            raise SystemExit("dps 60 and dps 90 disagree; no table printed")
    print("\n".join(_rows("_NODES", nodes) + _rows("_WEIGHTS", weights)))


if __name__ == "__main__":
    main()
