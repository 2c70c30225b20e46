"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions of the package from outside: each
wrapped name is replaced in every ``levyspline`` module that binds it, so a
caller that looks the name up in its own module (``verify`` calling
``sample_impulse_field``, ``cli`` calling ``write_impulse_csv``) reaches the
wrapper.  Methods are wrapped on their class.

Spans (name, start, end, parent) are held in flat arrays in memory and
written out once, when the run ends.  Self time is derived from the spans:
a span's duration minus the durations of its direct children.  Counter
hooks run after a span ends; the time they take is stored with the span and
left out of every self time.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np


class SpanRecorder:
    """In-memory spans plus named counters for one traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.hook = array("d")
        self.counts = Counter()
        self.paused = False
        self._stack = [-1]
        self._undo = []

    def _name(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, count=None):
        """Return fn wrapped in a span named `name`.

        count(counts, result, *args, **kwargs) runs after the span ends and
        adds to the named counters.
        """
        nid = self._name(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            i = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            self.hook.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.end[i] = t1
                stack.pop()
            if count is not None:
                count(self.counts, result, *args, **kwargs)
                self.hook[i] = clock() - t1
            return result

        return traced

    def install_function(self, module_name, attr, name, count=None):
        """Wrap module_name.attr wherever a levyspline module binds it."""
        target = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(name, target, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "levyspline" or mod_name.startswith("levyspline.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, target))

    def install_method(self, cls, attr, name, count=None):
        target = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, target, count))
        self._undo.append((cls, attr, target))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def arrays(self):
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.start, dtype=float),
            np.array(self.end, dtype=float),
            np.array(self.parent, dtype=np.int64),
            np.array(self.hook, dtype=float),
        )

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        name_id, start, end, parent, hook = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child_cost = np.bincount(
            parent[has_parent], weights=(dur + hook)[has_parent], minlength=dur.size
        )
        self_time = dur - child_cost
        n = len(self.names)
        calls = np.bincount(name_id, minlength=n)
        incl = np.bincount(name_id, weights=dur, minlength=n)
        own = np.bincount(name_id, weights=self_time, minlength=n)
        return {
            name: (int(calls[k]), float(incl[k]), float(own[k]))
            for k, name in enumerate(self.names)
        }

    def save(self, path):
        name_id, start, end, parent, hook = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            start=start,
            end=end,
            parent=parent,
            hook=hook,
        )
