"""Span tracer installed from outside the program.

Wrappers replace a function under every name a qacclab module holds it by
(e.g. ``statevec.validate`` as well as ``circuit.validate``), so internal
calls are traced too.  Each call records a span (name, start, end, parent)
in flat arrays; nothing is aggregated while the program runs.  Work a
wrapper does on a call's result (an "observer") is itself recorded as a
``trace.observe`` span under the caller, so it never inflates the self time
of a traced layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from contextlib import contextmanager

OBSERVE = "trace.observe"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.active = True

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def record(self, name: str, parent: int, start: float, end: float) -> int:
        """Append one finished span; returns its index."""
        self.name_ids.append(self.name_id(name))
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        return len(self.starts) - 1

    def wrap(self, fn, name, observe=None):
        """A function that calls `fn` unchanged inside a span.

        `name` is a span name, or a function of the call's positional
        arguments that returns one.  `observe(result, args)` runs after the
        span ends, inside its own ``trace.observe`` span.
        """
        tracer = self
        clock = self.clock
        stack = self._stack
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        fixed = None if callable(name) else self.name_id(name)
        observe_id = self.name_id(OBSERVE)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            idx = len(starts)
            name_ids.append(fixed if fixed is not None else tracer.name_id(name(args)))
            parents.append(parent)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result, args)
                name_ids.append(observe_id)
                parents.append(parent)
                starts.append(end)
                ends.append(clock())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, module, attr: str, name, observe=None) -> None:
        """Wrap `module.attr` (``Class.method`` for a method) and rebind it in
        every loaded qacclab module that imported it."""
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self.wrap(original, name, observe))
            return
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qacclab" or mod_name.startswith("qacclab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    @contextmanager
    def paused(self):
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    def summary(self) -> dict[str, dict]:
        """name -> {calls, total_s, self_s}; self time is a span's duration
        minus the durations of its direct children."""
        n = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out: dict[str, dict] = {}
        for i in range(n):
            name = self.names[self.name_ids[i]]
            rec = out.get(name)
            if rec is None:
                rec = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            dur = ends[i] - starts[i]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header line, then the four arrays' bytes."""
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "arrays": [["name", "l"], ["parent", "l"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)
