"""Layer-by-layer tracing of the library from the outside.

`Tracer.install(lib)` wraps the public functions and methods of the
library layers (`fields.Field`, `poly`, `linalg`, `codes`, `gray`,
`lcd`, `distance`, `tables`) and rebinds every module attribute that
holds one of them, so a function imported by name into another module
(`tables.min_distance_exact`, say) is wrapped there too.  `uninstall()`
puts the originals back.  Nothing inside the library changes.

Every wrapped call measures its duration and the part of it covered by
wrapped calls it made; the difference is its self time, charged to its
layer.  A call that crosses a layer boundary (its caller is the
benchmark or another layer) is kept as a span: id, parent span, item,
function, start, end.  Spans of one item share that item's identifier.
Calls inside one layer, and the scalar kernels (`Field` and `Poly`
methods, called up to millions of times a pass), are counted and timed
per function but not kept one by one, which bounds the trace's memory.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("fields", "poly", "linalg", "codes", "gray", "lcd", "distance", "tables")

# methods of these classes are counted and timed, but not kept as spans
_KERNEL_CLASSES = ("Field", "Poly")
# arithmetic dunders that are part of a class's public interface
_DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__",
            "__divmod__", "__floordiv__", "__mod__", "__call__")


def _targets(lib):
    """(layer, owner, name, function, kind) for everything to wrap.

    `owner` is a module or class; `kind` is 'function', 'method',
    'classmethod' or 'staticmethod'."""
    out = []
    for layer in LAYERS:
        mod = lib[layer]
        if layer == "fields":
            classes = [mod.Field]
        else:
            classes = [obj for name, obj in vars(mod).items()
                       if inspect.isclass(obj) and obj.__module__ == mod.__name__
                       and not name.startswith("_")
                       and not issubclass(obj, BaseException)]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    out.append((layer, mod, name, obj, "function"))
        for cls in classes:
            for name, attr in vars(cls).items():
                if name.startswith("_") and name not in _DUNDERS:
                    continue
                if isinstance(attr, classmethod):
                    out.append((layer, cls, name, attr.__func__, "classmethod"))
                elif isinstance(attr, staticmethod):
                    out.append((layer, cls, name, attr.__func__, "staticmethod"))
                elif inspect.isfunction(attr):
                    out.append((layer, cls, name, attr, "method"))
    return out


def _vector_elements(args):
    """Elements a field call touches: the largest array operand's size,
    or 0 for a call on scalars only."""
    n = 0
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim:
            if a.size > n:
                n = a.size
        elif isinstance(a, (list, tuple)) and len(a) > n:
            n = len(a)
    return n


class Tracer:
    """Spans and counters of one traced run.  Install, run, uninstall."""

    def __init__(self):
        self.names = []            # function id -> "layer:qualified name"
        self.fn_layer = []         # function id -> layer index
        self.calls = []            # function id -> call count
        self.self_s = []           # function id -> self seconds
        self.total_s = []          # function id -> inclusive seconds
        self.spans = []            # (span id, parent id, item, fid, start, end)
        self.counters = defaultdict(float)
        self.item = None           # identifier of the item being run
        # open calls: [id of the nearest kept span, child seconds, layer]
        self._stack = [[0, 0.0, None]]
        self._next_span = 1
        self._patches = []         # (owner, name, original, wrapped)
        self._installed = False

    # -- installation -------------------------------------------------------

    def install(self, lib):
        """Put the wrappers in place; they are built on the first call, so
        a tracer can be installed and uninstalled around each item."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if not self._patches:
            self._patches = self._build(lib)
        for owner, name, _, new in self._patches:
            setattr(owner, name, new)
        self._installed = True
        return self

    def uninstall(self):
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)
        self._installed = False

    def _build(self, lib):
        """(owner, name, original, wrapped) of every attribute to replace."""
        patches, replaced = [], {}
        for layer, owner, name, fn, kind in _targets(lib):
            fid = len(self.names)
            qual = f"{layer}:{owner.__name__.rsplit('.', 1)[-1]}.{name}"
            self.names.append(qual)
            self.fn_layer.append(LAYERS.index(layer))
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            kernel = inspect.isclass(owner) and owner.__name__ in _KERNEL_CLASSES
            wrapper = self._wrap(fn, fid, layer, name, kernel)
            if kind == "classmethod":
                new = classmethod(wrapper)
            elif kind == "staticmethod":
                new = staticmethod(wrapper)
            else:
                new = wrapper
                if kind == "function":
                    replaced[id(fn)] = (fn, wrapper)
            patches.append((owner, name, vars(owner)[name], new))
        # rebind names imported into other modules and the package
        done = {(id(owner), name) for owner, name, _, _ in patches}
        for mod in {id(m): m for m in lib.values()}.values():
            for name, value in vars(mod).items():
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value and (id(mod), name) not in done:
                    patches.append((mod, name, value, hit[1]))
        return patches

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, fn, fid, layer, name, kernel):
        clock = time.perf_counter
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        spans = self.spans
        after = self._after_hook(layer, name)
        field_call = layer == "fields"
        counters = self.counters
        tracer = self

        if kernel:
            def wrapper(*args, **kwargs):
                frame = [stack[-1][0], 0.0, layer]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = clock() - t0
                    stack.pop()
                    stack[-1][1] += d
                    calls[fid] += 1
                    self_s[fid] += d - frame[1]
                    total_s[fid] += d
                    if field_call:
                        n = _vector_elements(args[1:])
                        if n:
                            counters["fields.vector_elements"] += n
                        else:
                            counters["fields.scalar_calls"] += 1
        else:
            def wrapper(*args, **kwargs):
                outer = stack[-1]
                keep = outer[2] != layer
                if keep:
                    sid = tracer._next_span
                    tracer._next_span = sid + 1
                    frame = [sid, 0.0, layer]
                else:
                    frame = [outer[0], 0.0, layer]
                stack.append(frame)
                result = error = None
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    t1 = clock()
                    d = t1 - t0
                    stack.pop()
                    outer[1] += d
                    calls[fid] += 1
                    self_s[fid] += d - frame[1]
                    total_s[fid] += d
                    if keep:
                        spans.append((sid, outer[0], tracer.item, fid, t0, t1))
                    if after is not None:
                        after(args, result, error, d)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _after_hook(self, layer, name):
        """Counters measured where the work happens, from arguments and
        results; None for functions that only need time and calls."""
        c = self.counters
        if layer == "linalg" and name == "rref":
            def after(args, result, error, d):
                if error is not None:
                    return
                mat = np.asarray(args[1])
                c["linalg.rref_cells"] += mat.size
                if result[0].shape == mat.shape and np.array_equal(result[0], mat):
                    c["linalg.rref_noop"] += 1
            return after
        if layer == "codes" and name == "module_closure":
            def after(args, result, error, d):
                if error is None:
                    c["codes.closure_rows"] += result.spanning_rows.shape[0]
                    c["codes.closure_rank"] += result.rank
            return after
        if layer == "distance" and name == "min_distance_exact":
            def after(args, result, error, d):
                if error is None:
                    c["distance.exact_done"] += 1
                    c["distance.exact_codewords"] += result.witnesses_examined
                    c["distance.exact_inclusive_s"] += d
                else:
                    c["distance.exact_refused"] += 1
            return after
        if layer == "distance" and name == "min_distance_upper":
            def after(args, result, error, d):
                if error is None:
                    c["distance.upper_candidates"] += result.witnesses_examined
            return after
        if layer == "distance" and name == "weights":
            def after(args, result, error, d):
                if error is None:
                    c["distance.weights_rows"] += len(result)
            return after
        return None

    # -- results ----------------------------------------------------------------

    def calls_of(self, suffix):
        return sum(n for name, n in zip(self.names, self.calls)
                   if name.endswith(suffix))

    def self_of(self, suffix):
        return sum(s for name, s in zip(self.names, self.self_s)
                   if name.endswith(suffix))

    def by_layer(self, values):
        """Per-function `values` (calls or self_s) summed per layer."""
        out = dict.fromkeys(LAYERS, 0)
        for layer, v in zip(self.fn_layer, values):
            out[LAYERS[layer]] += v
        return out

    def dump(self, path, extra):
        """Write the kept spans and the per-function table as JSON."""
        payload = dict(extra)
        payload["functions"] = [
            {"name": n, "calls": c, "self_s": s, "total_s": t}
            for n, c, s, t in zip(self.names, self.calls, self.self_s, self.total_s)
            if c
        ]
        payload["span_fields"] = ["id", "parent", "item", "function", "start_s", "end_s"]
        payload["spans"] = [
            [sid, parent, item, self.names[fid], t0, t1]
            for sid, parent, item, fid, t0, t1 in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(payload, fh)
