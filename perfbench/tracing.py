"""Per-layer spans recorded from outside the library.

The traced run replaces module attributes with timing wrappers, at the
places where the library's own call sites look them up: ``pipeline``
imports ``rga_embed``, ``FBInstance`` and friends by name, so they are
wrapped on ``spanembed.pipeline``; ``spread`` calls ``sample_coupled``,
``canonical_matching`` and ``hall_check`` as its own globals; and
``robustness`` reaches the blossom through ``networkx.max_weight_matching``.
``spanembed.density`` must be reached with ``importlib``, because the
package re-exports ``regularity.density`` over the submodule name.

Each wrapped call records one span (name, start, duration, parent
span).  Self time of a layer is its busy time minus the busy time of
its direct child spans.  An ``after`` hook may read the call's return
value to count or check what the library computes and throws away; the
time spent in hooks is left out of every enclosing span and kept in
``hook_s`` so that it can be left out of the traced wall time too.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Callable


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []   # name, start, duration, parent
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.hook_s = 0.0
        self._stack: list[int] = []
        self._targets: list[tuple[object, str, object, Callable]] = []
        self._installed: list[tuple[object, str, object]] = []

    def add(self, module, attr: str, name, after=None) -> None:
        """Register ``module.attr`` for wrapping; ``name`` may be a function of the call's args."""
        self._targets.append((module, attr, name, after))

    def install(self) -> None:
        for module, attr, name, after in self._targets:
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, after))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self.hook_s = 0.0

    def _wrap(self, original, name, after):
        spans, stack = self, self._stack

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = len(spans.spans)
            spans.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            hooks_before = spans.hook_s
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.spans[index] = (label, start, end - start - (spans.hook_s - hooks_before),
                                      parent)
            if after is not None:
                after(result, *args, **kwargs)
                spans.hook_s += time.perf_counter() - end
            return result

        traced.__wrapped__ = original
        return traced

    # -- summaries ----------------------------------------------------

    def busy(self, name: str) -> float:
        return sum(dur for label, _, dur, _ in self.spans if label == name)

    def calls(self, name: str) -> int:
        return sum(1 for label, *_ in self.spans if label == name)

    def self_time(self, name: str) -> float:
        """Busy time of ``name`` minus the busy time of its direct child spans."""
        mine = {i for i, (label, *_) in enumerate(self.spans) if label == name}
        children = sum(dur for _, _, dur, parent in self.spans if parent in mine)
        return self.busy(name) - children

    def p50_ms(self, name: str) -> float:
        durations = [dur for label, _, dur, _ in self.spans if label == name]
        return 1000.0 * statistics.median(durations) if durations else 0.0

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,busy_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (label, start, dur, parent) in enumerate(self.spans):
                fh.write(f"{i},{label},{start - t0:.9f},{dur:.9f},{parent}\n")
