"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces the public functions and methods listed in
``SPANS`` with timing wrappers, in the defining module and in every other
``krspectra`` module that imported the same object by name (for example
``pipeline.bethe_family`` or ``gaudin.cdet``).  Spans are aggregated per name
in memory, not stored one by one: a run makes millions of ``Mat`` products.
A span's self time is its duration minus the time of the spans it directly
contains.  Nothing under ``src/`` changes; the wrappers live only in the
traced worker process.

The tracing overhead is estimated in the traced process itself: the extra
time one wrapper adds to a call, timed on a no-op, times the number of
wrapped calls made.  Subtracting an untraced run made at another time would
leave mostly the host's drift.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from time import perf_counter

# (span name, module, attribute path).  Several targets may share one name.
SPANS = [
    ("scalars.mat_mul", "scalars", "Mat.__mul__"),
    ("scalars.ratfun_new", "scalars", "RatFun.__init__"),
    ("scalars.ratfun_eval", "scalars", "RatFun.eval"),
    ("scalars.ratfun_eval", "scalars", "poly_eval"),
    ("scalars.residue", "scalars", "RatFun.residue"),
    ("scalars.cdet", "scalars", "cdet"),
    ("scalars.span_rank", "scalars", "span_rank"),
    ("glrep.build", "glrep", "build_defining"),
    ("glrep.build", "glrep", "build_wedge"),
    ("glrep.build", "glrep", "build_irrep"),
    ("glrep.build", "glrep", "build_tensor"),
    ("glrep.adjoint", "glrep", "MatrixRep.adjoint"),
    ("glrep.adjoint", "glrep", "TensorRep.adjoint"),
    ("bethe.ev_t_grid", "bethe", "ev_t_grid"),
    ("bethe.tau_ratfun", "bethe", "tau_ratfun"),
    ("bethe.family", "bethe", "bethe_family"),
    ("bethe.verify", "bethe", "BetheFamily.verify_commuting"),
    ("gaudin.cdet", "gaudin", "gaudin_cdet"),
    ("gaudin.residues", "gaudin", "residue_generators"),
    ("gaudin.verify", "gaudin", "CommutingFamily.verify_commuting"),
    ("gaudin.invariance", "gaudin", "invariance_check"),
    ("spectra.diag", "spectra", "joint_diagonalize"),
    ("spectra.strings", "spectra", "wall_strings"),
    ("pipeline.compare", "pipeline", "compare_pipeline"),
    ("tableaux.build_crystal", "tableaux", "build_crystal"),
    ("promotion.build_kr", "promotion", "build_kr"),
    ("promotion.verify_uniqueness", "promotion", "verify_uniqueness"),
    ("tensorcrystal.tensor", "tensorcrystal", "tensor"),
    ("tensorcrystal.string_statistics", "tensorcrystal", "string_statistics"),
    ("alcoves.classify", "alcoves", "classify"),
    ("cli.main", "cli", "main"),
]


def _pairs_checked(fam, bad):
    """Commutator pairs verify_commuting examined before returning `bad`."""
    m = len(fam.gens)
    if bad is None:
        return m * (m - 1) // 2
    i, j = fam.tags.index(bad[0]), fam.tags.index(bad[1])
    return sum(m - 1 - a for a in range(i)) + (j - i)


def wrapper_cost_s(calls=100_000, reps=7):
    """Median extra time one span wrapper adds to a call nested in a span."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._span("noop", noop)
    tracer._children.append(0.0)  # as inside an open span
    costs = []
    for _ in range(reps):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {
            "bethe.verify.pairs": 0,
            "gaudin.verify.pairs": 0,
            "spectra.diag.attempts": 0,
            "spectra.errors": 0,
            "pipeline.s_tried": 0,
            "tensorcrystal.elements": 0,
        }
        self.ev_grid_keys = set()
        self._children = []  # child time accumulated per open span
        self._last_error = None

    # -- wrapping

    def _span(self, name, fn, after=None):
        calls, self_s, children = self.calls, self.self_s, self._children
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                self._on_error(name, err)
                raise
            finally:
                dt = perf_counter() - t0
                inner = children.pop()
                calls[name] += 1
                self_s[name] += dt - inner
                if children:
                    children[-1] += dt
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_error(self, name, err):
        from krspectra.spectra import SpectraError

        if name.startswith("spectra.") and isinstance(err, SpectraError):
            if err is not self._last_error:
                self.counts["spectra.errors"] += 1
                self._last_error = err

    # -- counters computed from arguments and results

    def _after(self, name):
        c = self.counts
        if name == "bethe.ev_t_grid":
            def after(args, kwargs, out):
                cfg = args[0]
                shift = args[1] if len(args) > 1 else kwargs.get("shift", 0)
                self.ev_grid_keys.add(
                    (cfg.n, cfg.rep.dim, tuple(map(str, cfg.points)), str(shift))
                )
            return after
        if name in ("bethe.verify", "gaudin.verify"):
            key = name + ".pairs"

            def after(args, kwargs, out):
                c[key] += _pairs_checked(args[0], out)
            return after
        if name == "pipeline.compare":
            def after(args, kwargs, out):
                grid = [str(s) for s in kwargs.get("s_grid", args[2] if len(args) > 2 else ())]
                s = out.get("s")
                c["pipeline.s_tried"] += grid.index(s) + 1 if s in grid else len(grid)
            return after
        if name == "tensorcrystal.tensor":
            def after(args, kwargs, out):
                c["tensorcrystal.elements"] += len(out.elements)
            return after
        return None

    def install(self):
        """Patch every target; each original object is replaced everywhere."""
        replaced = {}
        for name, mod_name, path in SPANS:
            mod = importlib.import_module(f"krspectra.{mod_name}")
            owner, attr = mod, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
            orig = vars(owner)[attr]
            wrapper = self._span(name, orig, self._after(name))
            setattr(owner, attr, wrapper)
            if owner is mod:
                replaced[id(orig)] = (orig, wrapper)
        spectra = importlib.import_module("krspectra.spectra")
        spectra._joint_diagonalize_once = self._count(
            "spectra.diag.attempts", spectra._joint_diagonalize_once
        )
        # rebind names other modules imported with `from .x import name`
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("krspectra.") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    # -- results

    def metrics(self):
        """Per-layer metrics named as in BENCHMARK.json (self times in s)."""
        calls, self_s, c = self.calls, self.self_s, self.counts
        out = {}
        for name in sorted(calls):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        grid_calls = calls["bethe.ev_t_grid"]
        diag_calls = calls["spectra.diag"]
        compare_calls = calls["pipeline.compare"]
        out["bethe.ev_t_grid.distinct_per_call"] = (
            len(self.ev_grid_keys) / grid_calls if grid_calls else 0.0
        )
        out["bethe.verify.pairs"] = c["bethe.verify.pairs"]
        out["gaudin.verify.pairs"] = c["gaudin.verify.pairs"]
        out["spectra.diag.attempts_per_call"] = (
            c["spectra.diag.attempts"] / diag_calls if diag_calls else 0.0
        )
        out["spectra.errors"] = c["spectra.errors"]
        out["pipeline.s_tried_per_case"] = (
            c["pipeline.s_tried"] / compare_calls if compare_calls else 0.0
        )
        out["tensorcrystal.elements"] = c["tensorcrystal.elements"]
        wrapped_calls = sum(calls.values()) + c["spectra.diag.attempts"]
        out["trace.overhead_s"] = wrapper_cost_s() * wrapped_calls
        return out
