"""Span tracing of spinfill's public functions, from outside the package.

Every public module-level function of the layer modules is wrapped in
each spinfill.* namespace that bound it (``from .exactalg import
det_exact`` binds det_exact in spinc, cli and plumbing too), so calls are
caught whichever module makes them.  Spans stay in memory as (name,
start, end, parent span, op id) and are written out after the pass; the
originals are restored on uninstall.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "graphs", "diagram", "exactalg", "spinc", "chainmail",
          "plumbing")


def _list_len(result):
    # A streamed (generator) result cannot be counted without consuming
    # it, which would change what the program sees; it counts as 0.
    return len(result) if isinstance(result, (list, tuple)) else 0


def _slide_steps(log):
    return len(log.steps)


def _reduce_moves(result):
    return len(result[1])


# Work carried by a return value, counted under the function's name.
MEASURES = {
    "diagram.kauffman_states": _list_len,
    "chainmail.mk1_run": _slide_steps,
    "plumbing.reduce_normal_form": _reduce_moves,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.work = Counter()
        self.op = -1
        self._stack = []
        self._patched = []

    def install(self):
        targets = {}
        for layer in LAYERS:
            mod = sys.modules["spinfill." + layer]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    targets[fn] = self._wrap("%s.%s" % (layer, name), fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "spinfill" and not modname.startswith("spinfill."):
                continue
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in targets:
                    setattr(mod, name, targets[value])
                    self._patched.append((mod, name, value))

    def uninstall(self):
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    def _wrap(self, key, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure = MEASURES.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (key, start, end, parent, self.op)
            if measure is not None:
                self.work[key] += measure(result)
            return result

        return traced

    def summary(self):
        """Per function: calls, self seconds and work counted."""
        child = defaultdict(float)
        for key, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for idx, (key, start, end, _, _) in enumerate(self.spans):
            calls[key] += 1
            self_s[key] += end - start - child[idx]
        return {key: {"calls": calls[key], "self_s": self_s[key],
                      "work": self.work.get(key, 0)} for key in calls}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
