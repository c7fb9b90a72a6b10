"""In-memory span tracing of stabreg's public callables, from outside the package.

``Tracer.install`` replaces each wrapped callable with a recording wrapper,
in its defining module and in every stabreg module that imported it by
name (``protocol``, ``timestamps`` and ``game`` bind ``next_label``,
``precedes_b``, ``dominates``, ``precedes_e`` and ``next_timestamp``
directly).  ``Tracer.uninstall`` puts every original binding back.

A span is (name, start, end, parent span, item id).  Spans live in flat
arrays so that a traced simulation of a few hundred thousand calls stays
small; they are written out once, at the end, by ``write``.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

# Module-level functions per layer.
FUNCTIONS = {
    "labels": ("next_label", "precedes_b", "random_label", "incomparable_family"),
    "timestamps": ("precedes_e", "dominates", "next_timestamp"),
    "sim": ("parse_scenario", "run_scenario"),
    "checker": ("parse_trace", "find_stabilization", "check_suffix",
                "check_regularity", "check_no_inversion"),
    "game": ("play", "finder_step", "make_hider"),
}
# Methods per layer: ``Class.method`` wraps one class; a bare name wraps it
# on every class of the module that defines it, so subclasses share a span name.
METHODS = {
    "timestamps": ("enqueue",),
    "protocol": ("on_message", "next_send", "start_write", "start_read",
                 "on_quorum_read_done", "on_quorum_write_done"),
    "sim": ("Simulation.__init__", "Simulation.run"),
    "game": ("respond",),
}


class Tracer:
    """Records spans for calls into the stabreg layers while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.item = -1
        self.next_label_inputs = array("i")
        self.queue_len_max = 0
        self.queue_capacity = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- installing --------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the callables of ``modules`` (layer name -> stabreg module)."""
        originals: dict[int, object] = {}
        for layer, names in FUNCTIONS.items():
            module = modules[layer]
            for attr in names:
                fn = getattr(module, attr)
                originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        # rebind every module-level reference, including from-imports
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._set(module, attr, wrapper)
        for layer, names in METHODS.items():
            module = modules[layer]
            classes = [cls for cls in vars(module).values()
                       if isinstance(cls, type) and cls.__module__ == module.__name__]
            for entry in names:
                cls_name, _, attr = entry.rpartition(".")
                for cls in classes:
                    if attr in vars(cls) and cls_name in ("", cls.__name__):
                        self._set(cls, attr,
                                  self._wrap(f"{layer}.{attr}", vars(cls)[attr]))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _set(self, owner, attr: str, value) -> None:
        """Rebind an attribute that ``owner`` itself defines."""
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, parents, items = self.span_name, self.span_parent, self.span_item
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            items.append(tracer.item)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end

        if name == "labels.next_label":
            def traced_next_label(labels, params):
                labels = list(labels)
                tracer.next_label_inputs.append(len(labels))
                return traced(labels, params)
            result = traced_next_label
        elif name == "timestamps.enqueue":
            def traced_enqueue(queue, label):
                traced(queue, label)
                tracer.queue_len_max = max(tracer.queue_len_max, len(queue))
                tracer.queue_capacity = max(tracer.queue_capacity, queue.capacity)
            result = traced_enqueue
        else:
            result = traced
        result.__name__ = getattr(fn, "__name__", name)
        result.__wrapped__ = fn
        return result

    # -- reading -----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; children run inside their parent, one at a time.
        """
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        rows = [out[name] for name in self.names]
        for i, nid in enumerate(self.span_name):
            row = rows[nid]
            duration = ends[i] - starts[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[i]
        return out

    def write(self, path: Path) -> None:
        """Write the spans: one JSON header line, then the raw arrays.

        The header names the arrays in file order with their typecodes and
        length; ``name`` indexes the header's ``names`` list, ``parent`` is
        a span index (-1 for none) and ``item`` the benchmark's item id.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = [("name", self.span_name), ("parent", self.span_parent),
                  ("item", self.span_item), ("start", self.span_start),
                  ("end", self.span_end)]
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": [[field, arr.typecode, arr.itemsize] for field, arr in fields],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for _field, arr in fields:
                arr.tofile(out)
