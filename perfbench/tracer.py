"""Per-module time split of a workload, measured from outside the library.

The tracer wraps the callables each module calls across a boundary:

* ``engine.integrate_piecewise`` and ``airy.integrate_semi_infinite`` become
  ``quadrature`` spans, and the integrands passed into them become
  ``contour`` spans (engine integrands: descent-path geometry and kernel)
  or ``airy_integrand`` spans (the Airy annulus integrands);
* ``airy._ai_info`` and ``airy._bi_info`` become ``airy`` spans;
* the public route functions (``gi``, ``hi``, ``gi_hi_pair``,
  ``ai_complex``, ``bi_complex``) become ``engine`` or ``airy`` spans, and
  ``cli.main`` a ``cli`` span.

A span's self time is its duration minus the time of the spans nested in
it; summing self time by module gives the split.  Spans are folded into
per-module totals as they close instead of being stored.  Wrappers exist
only between :meth:`Tracer.install` and :meth:`Tracer.restore`; nothing in
the library changes.  A wrapped name the library no longer has makes
:meth:`Tracer.install` raise: a layer left unwrapped would read zero, which
every share metric reports as a gain.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from types import ModuleType

MODULES = ("quadrature", "contour", "airy", "airy_integrand", "engine", "cli")

_ENGINE_ROUTES = ("gi", "hi", "gi_hi_pair")
_AIRY_ROUTES = ("ai_complex", "bi_complex")


class Tracer:
    """Self-time accumulator with wrappers for the scorerlib modules."""

    def __init__(self, package: ModuleType) -> None:
        self.pkg = package
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.counts: Counter[str] = Counter()
        #: Top-level engine calls: (function name, argument, result, ns).
        self.engine_calls: list[tuple[str, complex, object, int]] = []
        self._stack: list[list[int]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _span(self, module: str, fn, on_return=None):
        stack = self._stack
        self_ns = self.self_ns
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_ns[module] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if on_return is not None:
                on_return(args, out, dt)
            return out

        return wrapper

    def _integrand(self, module: str, f):
        counts = self.counts
        panels_key = f"{module}.panels"

        def on_return(args, out, dt):
            counts[panels_key] += 1

        return self._span(module, f, on_return)

    def _quadrature_result(self, n_pieces: int, config, out) -> None:
        # A bisecting driver evaluates the initial panels plus two per split,
        # so splits and kept panels follow from the evaluation count.
        panels = out.n_evaluations // 15
        splits = (panels - n_pieces) // 2
        counts = self.counts
        counts["quadrature.panels"] += panels
        counts["quadrature.leaves"] += n_pieces + splits
        cap = (config or self.pkg.quadrature.QuadratureConfig()).max_subdivisions
        if splits >= cap:
            counts["quadrature.cap_hits"] += 1

    def _wrap_piecewise(self, original):
        def piecewise(pieces, config=None):
            wrapped = [(self._integrand("contour", f), a, b) for f, a, b in pieces]
            n_pieces = sum(1 for _, a, b in wrapped if a != b)
            out = traced(wrapped, config)
            self._quadrature_result(n_pieces, config, out)
            return out

        traced = self._span("quadrature", original)
        return piecewise

    def _wrap_semi_infinite(self, original):
        def semi_infinite(f, a, config=None):
            out = traced(self._integrand("airy_integrand", f), a, config)
            self._quadrature_result(1, config, out)
            return out

        traced = self._span("quadrature", original)
        return semi_infinite

    # -- install / restore ---------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Install every wrapper.  Call :meth:`restore` in a ``finally``."""
        pkg = self.pkg
        engine, airy, cli = pkg.engine, pkg.airy, pkg.cli
        self._patch(engine, "integrate_piecewise",
                    self._wrap_piecewise(engine.integrate_piecewise))
        self._patch(airy, "integrate_semi_infinite",
                    self._wrap_semi_infinite(airy.integrate_semi_infinite))
        depth = [0]
        counts = self.counts

        def airy_info(fn):
            # Only the outermost Airy evaluation counts; nested rotation
            # calls are already included in its evaluation total.
            def info(*args, **kwargs):
                depth[0] += 1
                try:
                    out = traced(*args, **kwargs)
                finally:
                    depth[0] -= 1
                if depth[0] == 0:
                    counts["airy.evals"] += _airy_evals(out)
                return out

            traced = self._span("airy", fn)
            return info

        for name in ("_ai_info", "_bi_info"):
            self._patch(airy, name, airy_info(getattr(airy, name)))

        def record(name):
            def on_return(args, out, dt):
                self.engine_calls.append((name, complex(args[0]), out, dt))
            return on_return

        for name in _ENGINE_ROUTES:
            original = getattr(engine, name)
            wrapped = self._span("engine", original, record(name))
            self._patch(engine, name, wrapped)
            if getattr(pkg, name, None) is original:
                self._patch(pkg, name, wrapped)
        for name in _AIRY_ROUTES:
            original = getattr(airy, name)
            wrapped = self._span("airy", original)
            self._patch(airy, name, wrapped)
            if getattr(pkg, name, None) is original:
                self._patch(pkg, name, wrapped)
        self._patch(cli, "main", self._span("cli", cli.main))

    def restore(self) -> None:
        """Put back every original callable, in reverse order."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _airy_evals(out) -> int:
    """Integrand evaluations reported by an Airy evaluation, if any."""
    if isinstance(out, tuple) and len(out) >= 3 and isinstance(out[2], int):
        return out[2]
    return int(getattr(out, "n_evaluations", 0) or 0)


def module_shares(tracer: Tracer, total_ns: int) -> dict[str, float]:
    """Self time of each module as a share of the traced wall time."""
    total = max(total_ns, 1)
    return {m: tracer.self_ns.get(m, 0) / total for m in MODULES}
