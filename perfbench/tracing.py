"""Per-layer spans and counters, recorded by wrapping the library from outside.

Layers are the package modules. Every package function that one module
binds in another module's namespace (``from .layers import _wall_refl`` in
``engine``, ``eps_imag_axis`` in ``layers``, the re-exports in the package
``__init__``) is replaced there by a wrapper for the duration of a traced
pass. Because the engine and the quadrature import helpers by name, the
wrapper has to sit in the namespace of the module that *calls*, not in the
defining module; ``Patch`` finds every such binding by object identity.

A wrapper opens a span only when the call crosses a layer boundary (the
innermost open span belongs to another layer); a call inside its own layer
runs the original function unmeasured and uncounted. A few names need more
than a span:

* ``integrate_semi_infinite``: the ``f`` handed to a non-error-channel call
  is the engine's integrand, so it is wrapped as an ``engine`` span, and the
  call's result is booked as one inner integral. Every ``f`` call, of either
  channel, is one Gauss-Kronrod panel.
* ``matsubara_sum``: every call of its ``g`` is one Matsubara term.
* ``beta_imag``: every call, also the ones inside ``layers``, adds its
  number of points to the kappa count.
* ``cli.main``: the command-line entry point, wrapped in ``cli`` itself.

Self time of a span is its duration minus the time covered by its children,
so the self times of all layers plus the ``bench`` root add up to the root's
duration exactly. The wrapper's own cost falls between the parent's start and
the child's start, so it is charged to the calling layer. The first
``SPAN_CAP`` spans are kept in memory as (id, name, parent, operation,
start, end) and written as one ``.npz`` file when the run ends; later spans
are timed and counted but not kept.
"""

from __future__ import annotations

import inspect
from time import perf_counter

import numpy as np

LAYERS = ("materials", "layers", "engine", "quadrature", "config", "cli")
ROOT_LAYER = "bench"
SPAN_CAP = 250_000


class Tracer:
    """Span stack, per-layer totals and the kept span records of one run."""

    def __init__(self):
        self.names: list[str] = []
        self.records: list[tuple] = []
        self.next_id = 0
        self.op = -1
        # Open spans, innermost last: [layer, child_seconds, span_id].
        self.stack: list[list] = []
        self.self_s = dict.fromkeys(LAYERS + (ROOT_LAYER,), 0.0)
        self.counts = dict.fromkeys((
            "materials.calls", "materials.points", "layers.calls",
            "layers.points", "layers.kappa_points", "engine.calls",
            "engine.integrand_calls", "engine.integrand_points",
            "quadrature.calls", "quadrature.panels", "quadrature.evals",
            "quadrature.inner_integrals", "quadrature.inner_unconverged",
            "quadrature.matsubara_terms", "config.calls", "cli.calls",
        ), 0)

    def wrap(self, layer: str, name: str, fn, count=None):
        """``fn`` run inside a ``layer`` span whenever the call crosses into it.

        ``count(args)`` books the call's counters before the span opens;
        without it the call adds one to ``<layer>.calls``.
        """
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        stack, self_s, records, counts = (self.stack, self.self_s,
                                          self.records, self.counts)
        calls_key = f"{layer}.calls"

        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                if parent[0] == layer:
                    return fn(*args, **kwargs)
                parent_id = parent[2]
            else:
                parent, parent_id = None, -1
            if count is None:
                counts[calls_key] += 1
            else:
                count(args)
            span_id = self.next_id
            self.next_id = span_id + 1
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if span_id < SPAN_CAP:
                    records.append((span_id, name_id, parent_id, self.op,
                                    start, end))

        return traced

    @property
    def spans_kept(self) -> int:
        return len(self.records)

    @property
    def spans_dropped(self) -> int:
        return self.next_id - len(self.records)

    def save(self, path: str, meta: dict) -> None:
        """Write the kept spans, start/end relative to the first span."""
        rec = np.array(sorted(self.records), dtype=np.float64).reshape(-1, 6)
        t0 = float(rec[:, 4].min()) if rec.size else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            id=rec[:, 0].astype(np.int64),
            name=rec[:, 1].astype(np.int32),
            parent=rec[:, 2].astype(np.int64),
            op=rec[:, 3].astype(np.int32),
            start=rec[:, 4] - t0,
            end=rec[:, 5] - t0,
            dropped=np.int64(self.spans_dropped),
            meta=np.array(repr(meta)),
        )


# -- wrappers ----------------------------------------------------------------

def _points_counter(counts: dict, layer: str):
    calls_key, points_key = f"{layer}.calls", f"{layer}.points"
    ndarray = np.ndarray

    def count(args):
        counts[calls_key] += 1
        # Evaluation points: the size of the first array argument, else 1.
        for a in args:
            if type(a) is ndarray:
                counts[points_key] += a.size
                return
        counts[points_key] += 1

    return count


def _plain(tracer: Tracer, layer: str, name: str, fn):
    count = (_points_counter(tracer.counts, layer)
             if layer in ("materials", "layers") else None)
    return tracer.wrap(layer, name, fn, count)


def _kappa(tracer: Tracer, name: str, fn):
    traced = _plain(tracer, "layers", name, fn)
    counts = tracer.counts

    def kappa(*args, **kwargs):
        q = args[2] if len(args) > 2 else kwargs["q"]
        counts["layers.kappa_points"] += np.size(q)
        return traced(*args, **kwargs)

    return kappa


def _integrate(tracer: Tracer, name: str, fn):
    traced = tracer.wrap("quadrature", name, fn)
    counts = tracer.counts

    def panel_counter(x):
        counts["quadrature.panels"] += 1
        counts["engine.integrand_calls"] += 1
        counts["engine.integrand_points"] += x.size

    def integrate(f, *args, **kwargs):
        error_channel = kwargs.get("error_channel",
                                   args[2] if len(args) > 2 else False)
        if error_channel:
            def outer(x):
                counts["quadrature.panels"] += 1
                return f(x)

            return traced(outer, *args, **kwargs)
        integrand = tracer.wrap("engine", "engine.integrand", f,
                                lambda args: panel_counter(args[0]))
        res = traced(integrand, *args, **kwargs)
        counts["quadrature.inner_integrals"] += 1
        counts["quadrature.evals"] += res.evaluations
        counts["quadrature.inner_unconverged"] += not res.converged
        return res

    return integrate


def _matsubara(tracer: Tracer, name: str, fn):
    traced = tracer.wrap("quadrature", name, fn)
    counts = tracer.counts

    def matsubara(g, *args, **kwargs):
        def term(xi):
            counts["quadrature.matsubara_terms"] += 1
            return g(xi)

        return traced(term, *args, **kwargs)

    return matsubara


_SPECIAL = {
    ("layers", "beta_imag"): _kappa,
    ("quadrature", "integrate_semi_infinite"): _integrate,
    ("quadrature", "matsubara_sum"): _matsubara,
    ("cli", "main"): lambda tracer, name, fn: _plain(tracer, "cli", name, fn),
}


class Patch:
    """Context manager installing the wrappers into the package namespaces."""

    def __init__(self, tracer: Tracer, package):
        self.tracer = tracer
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        pkg = self.package
        modules = {"__init__": pkg,
                   **{layer: getattr(pkg, layer) for layer in LAYERS}}
        for layer in LAYERS:
            defining = modules[layer]
            for name, fn in list(vars(defining).items()):
                if not (inspect.isfunction(fn)
                        and fn.__module__ == defining.__name__):
                    continue
                make = _SPECIAL.get((layer, name))
                for where, module in modules.items():
                    if vars(module).get(name) is not fn:
                        continue
                    # A layer's own namespace is patched only where a special
                    # wrapper needs its internal calls.
                    if where == layer and make is None:
                        continue
                    qual = f"{layer}.{name}"
                    wrapped = (make(self.tracer, qual, fn) if make
                               else _plain(self.tracer, layer, qual, fn))
                    self._saved.append((module, name, fn))
                    setattr(module, name, wrapped)
        return self

    def __exit__(self, *exc):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()
        return False


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass means of the per-layer counters and self times."""
    c = {k: v / passes for k, v in tracer.counts.items()}
    s = {k: v / passes for k, v in tracer.self_s.items()}
    points = c["engine.integrand_points"]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    return {
        "materials.calls": c["materials.calls"],
        "materials.points": c["materials.points"],
        "materials.self_s": s["materials"],
        "layers.calls": c["layers.calls"],
        "layers.points": c["layers.points"],
        "layers.self_s": s["layers"],
        "layers.kappa_points_per_integrand_point": ratio(
            c["layers.kappa_points"], points),
        "engine.integrand_calls": c["engine.integrand_calls"],
        "engine.points_per_call": ratio(points, c["engine.integrand_calls"]),
        "engine.self_s": s["engine"],
        "engine.self_us_per_point": ratio(s["engine"], points, 1e6),
        "quadrature.self_s": s["quadrature"],
        "quadrature.self_us_per_panel": ratio(
            s["quadrature"], c["quadrature.panels"], 1e6),
        "quadrature.evals": c["quadrature.evals"],
        "quadrature.inner_integrals": c["quadrature.inner_integrals"],
        "quadrature.inner_unconverged": c["quadrature.inner_unconverged"],
        "quadrature.matsubara_terms": c["quadrature.matsubara_terms"],
        "config.calls": c["config.calls"],
        "config.self_s": s["config"],
        "cli.self_s": s["cli"],
        "bench.self_s": s[ROOT_LAYER],
    }
