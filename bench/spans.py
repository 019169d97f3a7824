"""Per-layer tracing from outside the package.

The layers are the modules of `birkhoffsym`.  `Tracer.install` wraps every
public module-level function of each layer module (and the `cli._cmd_*`
subcommand handlers) and rebinds each `birkhoffsym.*` namespace that holds
the original by name, so calls between modules go through the wrappers.
Each call becomes a span (function, start, end, parent) kept in flat
arrays in memory; `Tracer.summary` turns them into per-layer numbers when
the round is over, and `Tracer.spans` exports them.

Only functions that exist are wrapped, so a commit that merges or deletes
functions still runs; `run.py` reports listed metrics it did not get as
absent.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import time
from array import array

LAYERS = ("exact", "hull", "combiso", "birkhoff", "perm", "gamma", "cd",
          "reppoly", "reports", "cli")

# Work counters read off a function's return value: (counter, extractor).
# Machine-independent, so two runs on the same inputs give equal values.
RESULT_COUNTERS = {
    "hull.facet_enumeration": ("facets", lambda r: r.n_facets),
    "combiso.comb_automorphisms": ("found", lambda r: r.order),
    "combiso.comb_equivalent": ("hits", lambda r: int(r is not None)),
    "perm.closure": ("elements", lambda r: r.order),
    "perm.all_subgroups": ("subgroups", len),
    "reppoly.matrix_closure": ("elements", lambda r: r.order),
}


def _subcommand(handler_name: str) -> str:
    return handler_name[len("_cmd_"):].replace("_", "-")


def public_functions(module) -> dict[str, object]:
    """Span name -> function for every public function the module defines,
    and for the subcommand handlers of the command-line module."""
    layer = module.__name__.rsplit(".", 1)[-1]
    out = {}
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if not (inspect.isfunction(obj)
                or isinstance(obj, functools._lru_cache_wrapper)):
            continue
        if layer == "cli" and name.startswith("_cmd_"):
            out[f"cli.{_subcommand(name)}"] = obj
        elif not name.startswith("_"):
            out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.originals: dict[str, object] = {}
        # One entry per span: 2 * function id + (1 if outermost call of that
        # function, else 0), parent span index (-1 at top level), times.
        self.fids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]  # indices of the open spans
        self._active: list[int] = []  # open calls per function id
        self.counts: dict[str, int] = {}
        self.gc_collections = 0
        self.gc_pause_ns = 0
        self._gc_start = 0

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        fids, parents, starts, ends = (self.fids, self.parents, self.starts,
                                       self.ends)
        stack = self._stack
        active = self._active
        clock = time.perf_counter_ns
        counter_key, extract = None, None
        if name in RESULT_COUNTERS:
            suffix, extract = RESULT_COUNTERS[name]
            counter_key = f"{name}.{suffix}"
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(2 * fid + (active[fid] == 0))
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0)
            stack.append(idx)
            active[fid] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                active[fid] -= 1
                stack.pop()
                ends[idx] = clock()
            if extract is not None:
                counts[counter_key] = counts.get(counter_key, 0) + extract(result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def install(self, package: str = "birkhoffsym") -> None:
        """Wrap the layer functions and rebind every namespace of the
        package that holds one of them.  Call once, before the tasks."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            if module is not None:
                targets.update(public_functions(module))
        self._active.extend([0] * len(targets))
        wrapped = {}
        for span_name, fn in targets.items():
            self.originals[span_name] = fn
            wrapped[id(fn)] = self._wrap(span_name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                replacement = wrapped.get(id(value))
                if replacement is not None:
                    setattr(module, attr, replacement)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_collections += 1
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start

    def summary(self) -> dict:
        """Per-function calls, inclusive ms (outermost calls only, so
        recursion is not counted twice) and per-layer self ms (span time
        minus the time of directly nested spans)."""
        n = len(self.fids)
        child_ns = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_ns[p] += self.ends[i] - self.starts[i]
        calls = [0] * len(self.names)
        incl_ns = [0] * len(self.names)
        self_ns: dict[str, int] = {}
        for i in range(n):
            fid, outer = divmod(self.fids[i], 2)
            dur = self.ends[i] - self.starts[i]
            calls[fid] += 1
            if outer:
                incl_ns[fid] += dur
            layer = self.names[fid].split(".", 1)[0]
            self_ns[layer] = self_ns.get(layer, 0) + dur - child_ns[i]
        out = {}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[fid]
            out[f"{name}.ms"] = incl_ns[fid] / 1e6
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self_ns.get(layer, 0) / 1e6
        for name, (suffix, _) in RESULT_COUNTERS.items():
            if name in self.names:
                out[f"{name}.{suffix}"] = self.counts.get(f"{name}.{suffix}", 0)
        out["py.gc.collections"] = self.gc_collections
        out["py.gc.pause_ms"] = self.gc_pause_ns / 1e6
        return out

    def spans(self) -> dict:
        """The raw spans, for writing out when the run ends."""
        return {"names": self.names, "fid2_outer": self.fids.tolist(),
                "parent": self.parents.tolist(),
                "start_ns": self.starts.tolist(), "end_ns": self.ends.tolist()}
