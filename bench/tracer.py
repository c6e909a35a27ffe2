"""Span tracer for the solvint layers, installed from outside the package.

``Tracer.install`` wraps the public functions of each layer module: its
module-level functions and the methods of the classes it defines.  It then
rebinds every name another layer module took with ``from ... import``, so a
call between layers or inside one passes through a wrapper that records a
span: name, start, end, parent span, request id and whether it raised.
Nothing under ``src/`` is edited.  Spans stay in memory, in flat arrays,
until ``dump`` writes them out.

Some functions are not wrapped, and ``unwrapped`` lists them:

* per-element helpers (vector and matrix arithmetic, element products and
  conjugates, coset reduction).  They run millions of times per request, so
  wrapping them would multiply the tracing overhead;
* generator functions, because a span around one would close before its
  body runs;
* private names, properties, and dunder methods other than ``__init__``
  and ``__post_init__``.

The time of an unwrapped function counts as self time of its nearest
wrapped caller.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("cli", "corpus", "tower", "groups", "sdp", "props", "ffla")

PER_ELEMENT = {
    "ffla": {"inv_mod", "vec_add", "vec_sub", "vec_neg", "vec_scale", "vec_mat",
             "mat_identity", "mat_mul", "mat_add", "mat_scale", "mat_mod",
             "FpSubspace.reduce", "FpSubspace.contains", "FpSubspace.coords_of",
             "FpSubspace.size", "FieldOps.f_zero", "FieldOps.f_add", "FieldOps.f_scale",
             "FieldOps.f_contains", "FieldOps.act", "ModuleMap.apply"},
    "groups": {"OracleGroup.mul", "OracleGroup.inv", "OracleGroup.conj",
               "OracleGroup.power", "OracleGroup.order_of", "OracleGroup.commutator",
               "OracleGroup.elements", "Subgroup.contains"},
    "sdp": {"HModule.act", "HModule.mul_idx", "HModule.inv_idx", "SdGroup.act_w",
            "SdGroup.mul", "SdGroup.inverse", "SdGroup.zero_w"},
    "tower": {"TowerGroup.act_w", "TowerGroup.mul", "TowerGroup.w_id",
              "TowerGroup.w_of_id", "TowerGroup.encode", "TowerGroup.maximal_contains"},
}

# all_subgroups / maximal_subgroups memoise in G._cache under these keys
CACHE_KEYS = {"groups.all_subgroups": "lattice", "groups.maximal_subgroups": "maximals"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.raised = bytearray()
        self.stack = [-1]
        self.request_id = -1
        self.counters: Counter = Counter()
        self.unwrapped: list[str] = []

    # -- installation

    def install(self, modules: dict) -> None:
        """Wrap the layer modules given as {layer name: module}."""
        originals: dict[int, object] = {}
        for layer, mod in modules.items():
            skip = PER_ELEMENT.get(layer, set())
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and self._own(value, mod):
                    self._patch(mod, attr, value, f"{layer}.{attr}", skip, originals)
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    for meth, raw in list(vars(value).items()):
                        self._patch_method(value, meth, raw, mod, layer, skip, originals)
        # rebind the names other modules imported with `from .x import f`
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)

    @staticmethod
    def _own(fn, mod) -> bool:
        return fn.__code__.co_filename == mod.__file__

    def _patch(self, owner, attr, fn, name, skip, originals, rewrap=None):
        short = name.split(".", 1)[1]
        if short in skip:
            self.unwrapped.append(f"{name} (per-element helper)")
            return
        if inspect.isgeneratorfunction(fn):
            self.unwrapped.append(f"{name} (generator)")
            return
        wrapped = self._wrap(fn, name)
        if name in CACHE_KEYS:
            wrapped = self._cache_probe(wrapped, name, CACHE_KEYS[name])
        originals[id(fn)] = wrapped
        setattr(owner, attr, rewrap(wrapped) if rewrap else wrapped)

    def _patch_method(self, cls, meth, raw, mod, layer, skip, originals):
        name = f"{layer}.{cls.__name__}.{meth}"
        if meth.startswith("_") and meth not in ("__init__", "__post_init__"):
            return
        if isinstance(raw, (classmethod, staticmethod)):
            fn, rewrap = raw.__func__, type(raw)
        elif inspect.isfunction(raw):
            fn, rewrap = raw, None
        else:
            if isinstance(raw, property):
                self.unwrapped.append(f"{name} (property)")
            return
        if self._own(fn, mod):
            self._patch(cls, meth, fn, name, skip, originals, rewrap)

    def _wrap(self, fn, name):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self.stack
        span_name, start, end = self.span_name, self.start, self.end
        parent, request, raised = self.parent, self.request, self.raised
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            request.append(tracer.request_id)
            raised.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _cache_probe(self, traced, name, key):
        counters = self.counters

        @functools.wraps(traced)
        def probe(G, *args, **kwargs):
            hit = key in G._cache
            counters[f"{name}.calls"] += 1
            counters[f"{name}.hits"] += hit
            out = traced(G, *args, **kwargs)
            if not hit and key == "lattice":
                counters["groups.lattice_subgroups"] += len(out)
            return out

        return probe

    # -- results

    def rollup(self, setup: bool = False):
        """Per span name: self seconds, inclusive seconds of the outermost
        spans of that name (recursion counted once), spans, spans that
        raised.  Counts the spans of served requests, or with `setup` only
        those recorded before the first request (request id -1)."""
        n = len(self.start)
        chosen = [i for i in range(n) if (self.request[i] < 0) == setup]
        child = [0.0] * n
        for i in chosen:
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        raised: Counter = Counter()
        for i in chosen:
            nid = self.span_name[i]
            name = self.names[nid]
            dur = self.end[i] - self.start[i]
            self_s[name] += dur - child[i]
            if not self._has_ancestor(i, nid):
                total_s[name] += dur
            calls[name] += 1
            raised[name] += self.raised[i]
        return self_s, total_s, calls, raised

    def _has_ancestor(self, i: int, nid: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.span_name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def dump(self, path) -> int:
        """Write one tab-separated line per span; returns the span count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\trequest\tname\tstart_s\tend_s\traised\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.request[i]}\t"
                         f"{self.names[self.span_name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.raised[i]}\n")
        return len(self.start)
