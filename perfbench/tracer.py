"""Outside-in tracer: spans and work counts at freeflow's layer boundaries.

Nothing under src/ knows about it.  `Tracer.install` replaces every public
function of each layer module -- in every namespace that binds it, so names
re-bound by `from ... import` (conformal.segment_quad, cauchy.newton_halfplane,
levyflow.normalize_for_halfplane, ...) are caught too -- and the public
methods of ConformalPair, NevanlinnaSpec and Measure with a wrapper that
records a span (name, start, end, parent, exception).  Callables handed to
the numerical primitives (integrands, Newton residuals and derivatives, ODE
right-hand sides) are wrapped to count the work done on them.

Spans live in flat arrays in memory and are written once, at the end.  Self
time is a span's duration minus that of its child spans.  The parent stack
assumes one thread, which the benchmark guarantees with FREEFLOW_THREADS=1.
"""
from __future__ import annotations

import gzip
import importlib
import json
import math
import time
from array import array
from collections import Counter

LAYERS = ("quadrature", "measures", "nevanlinna", "_newton", "ode", "cauchy",
          "conformal", "levyflow", "cli")
CLASSES = (("conformal", "ConformalPair"), ("nevanlinna", "NevanlinnaSpec"),
           ("measures", "Measure"))


def _layer_of(fn) -> str | None:
    mod = getattr(fn, "__module__", "") or ""
    if not mod.startswith("freeflow."):
        return None
    layer = mod.split(".", 1)[1]
    return layer if layer in LAYERS else None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("i")  # 0, or 1 + index into self.names of the type
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layer functions and methods of an imported freeflow."""
        modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                   for name in LAYERS}
        for owner in (package, *modules.values()):
            for attr, value in list(vars(owner).items()):
                if attr.startswith("_"):
                    continue
                if callable(value) and not isinstance(value, type) \
                        and _layer_of(value) is not None:
                    self._patch(owner, attr, value,
                                f"{_layer_of(value)}.{value.__name__}")
        for mod_name, cls_name in CLASSES:
            cls = getattr(modules[mod_name], cls_name)
            for attr, value in list(vars(cls).items()):
                if not attr.startswith("_") and callable(value) \
                        and not isinstance(value, (classmethod, staticmethod)):
                    self._patch(cls, attr, value, f"{mod_name}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, fn, name) -> None:
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            wrapper = self._wrap(fn, name)
            self._wrappers[id(fn)] = wrapper
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        k = self._ids.get(name)
        if k is None:
            k = self._ids[name] = len(self.names)
            self.names.append(name)
        return k

    def _counting(self, key, fn, size=False):
        counts = self.counts

        def counted(x, *args, **kwargs):
            counts[key] += len(x) if size else 1
            return fn(x, *args, **kwargs)
        return counted

    def _wrap(self, fn, name):
        name_id = self._id(name)
        arg_hook = _ARG_HOOKS.get(name)
        size_key = _SIZE_ARG.get(name)
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if arg_hook is not None:
                args = arg_hook(tracer, args)
            if size_key is not None and len(args) > size_key[1]:
                tracer.counts[size_key[0]] += _size(args[size_key[1]])
            idx = len(tracer.start)
            tracer.name_id.append(name_id)
            tracer.parent.append(stack[-1])
            tracer.raised.append(0)
            tracer.end.append(math.nan)
            stack.append(idx)
            tracer.start.append(perf())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raised[idx] = 1 + tracer._id(type(exc).__name__)
                raise
            finally:
                tracer.end[idx] = perf()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span (gzip JSON: a name table plus column arrays)."""
        payload = {"names": self.names, "name": list(self.name_id),
                   "parent": list(self.parent), "start": list(self.start),
                   "end": list(self.end), "raised": list(self.raised),
                   "counts": dict(self.counts)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def span_counts(self) -> dict[str, int]:
        """Spans recorded per name (what the self-checks compare)."""
        return {self.names[k]: n for k, n in
                sorted(Counter(self.name_id).items())}

    def layer_metrics(self) -> dict[str, float]:
        import numpy as np
        n = len(self.start)
        names = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        raised = np.array(self.raised, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        self_time = dur - np.bincount(parent[has_parent],
                                      weights=dur[has_parent], minlength=n)

        def sel(name):
            k = self._ids.get(name)
            return np.zeros(n, bool) if k is None else names == k

        def calls(name):
            return int(np.count_nonzero(sel(name)))

        def self_s(name):
            return float(np.sum(self_time[sel(name)]))

        def inclusive_s(name):
            """Time inside outermost spans of name (recursion counted once)."""
            k = self._ids.get(name)
            total = 0.0
            for i in np.flatnonzero(sel(name)):
                p = parent[i]
                while p >= 0 and names[p] != k:
                    p = parent[p]
                if p < 0:
                    total += dur[i]
            return total

        def raised_as(name, exc):
            k = self._ids.get(exc)
            if k is None:
                return np.zeros(n, bool)
            return sel(name) & (raised == 1 + k)

        newton = "_newton.newton_halfplane"
        diverged = raised_as(newton, "NewtonDivergence")
        phi_id = self._ids.get("conformal.Phi")
        retries = 0
        for i in np.flatnonzero(diverged):
            p = parent[i]
            while p >= 0 and names[p] != phi_id:
                p = parent[p]
            retries += int(p >= 0)
        # subordinate calls with a diverged direct solve, i.e. those that
        # fell back to continuation in t
        owners = np.unique(parent[diverged])
        owners = owners[owners >= 0]
        fallbacks = int(np.count_nonzero(sel("cauchy.subordinate")[owners]))
        solves = calls(newton)
        c = self.counts
        return {
            "quadrature.adaptive_quad.calls": calls("quadrature.adaptive_quad"),
            "quadrature.adaptive_quad.nodes": c["quad.nodes"],
            "quadrature.adaptive_quad.self_s": self_s("quadrature.adaptive_quad"),
            "quadrature.adaptive_quad.failures": int(np.count_nonzero(
                raised_as("quadrature.adaptive_quad", "QuadratureFailure"))),
            "quadrature.segment_quad.calls": calls("quadrature.segment_quad"),
            "measures.integrate.calls": calls("measures.integrate"),
            "measures.integrate.self_s": self_s("measures.integrate"),
            "nevanlinna.evaluate.calls": calls("nevanlinna.evaluate"),
            "nevanlinna.eval_grid.calls": calls("nevanlinna.eval_grid"),
            "nevanlinna.eval_grid.points": c["eval_grid.points"],
            "nevanlinna.is_nevanlinna_numeric.s":
                inclusive_s("nevanlinna.is_nevanlinna_numeric"),
            "conformal.normalize_for_halfplane.s":
                inclusive_s("conformal.normalize_for_halfplane"),
            "levyflow.build_fal2.s": inclusive_s("levyflow.build_fal2"),
            "newton.solves": solves,
            "newton.iterations": c["newton.derivative"],
            "newton.residual_evals": c["newton.residual"],
            "newton.divergences": int(np.count_nonzero(diverged)),
            "newton.converged_ratio":
                (solves - int(np.count_nonzero(diverged))) / solves
                if solves else 1.0,
            "newton.self_s": self_s(newton),
            "conformal.Phi.calls": calls("conformal.Phi"),
            "conformal.Phi.retries": retries,
            "conformal.Phi.self_s": self_s("conformal.Phi"),
            "conformal.Psi.points": c["Psi.points"],
            "conformal.Psi.self_s": self_s("conformal.Psi"),
            "cauchy.subordinate.calls": calls("cauchy.subordinate"),
            "cauchy.subordinate.fallbacks": fallbacks,
            "cauchy.subordinate.self_s": self_s("cauchy.subordinate"),
            "cauchy.stieltjes_invert.s": inclusive_s("cauchy.stieltjes_invert"),
            "ode.integrations": calls("ode.integrate_halfplane"),
            "ode.rhs_evals": c["ode.rhs"],
            "ode.underflows": int(np.count_nonzero(
                raised_as("ode.integrate_halfplane", "StepUnderflow"))),
            "ode.self_s": self_s("ode.integrate_halfplane"),
            "levyflow.fal2_check.s": inclusive_s("levyflow.fal2_check"),
            "levyflow.flow_conformal.points": c["flow_conformal.points"],
            "levyflow.marginal_law.s": inclusive_s("levyflow.marginal_law"),
            "cli.main.calls": calls("cli.main"),
            "cli.main.self_s": self_s("cli.main"),
            "trace.spans": n,
        }


def _size(x) -> int:
    import numpy as np
    return int(np.size(x))


def _quad_args(tracer, args):
    return (tracer._counting("quad.nodes", args[0], size=True), *args[1:])


def _newton_args(tracer, args):
    return (tracer._counting("newton.residual", args[0]),
            tracer._counting("newton.derivative", args[1]), *args[2:])


def _ode_args(tracer, args):
    return (tracer._counting("ode.rhs", args[0]), *args[1:])


# the work counted on the callables a layer receives
_ARG_HOOKS = {
    "quadrature.adaptive_quad": _quad_args,
    "_newton.newton_halfplane": _newton_args,
    "ode.integrate_halfplane": _ode_args,
}
# (counter, positional index) of the argument whose size is the point count;
# methods count from self at index 0
_SIZE_ARG = {
    "conformal.Psi": ("Psi.points", 1),
    "levyflow.flow_conformal": ("flow_conformal.points", 1),
    "nevanlinna.eval_grid": ("eval_grid.points", 1),
}
