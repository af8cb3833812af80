"""In-memory span recorder that times the simulator's layers from outside.

The benchmark does not edit the program to trace it.  It replaces each public
entry point of a layer with a wrapper that records one span per call: the
span's name, its start, its end and the span that was open when the call
began.  ``uninstall`` puts the originals back.  Spans stay in typed arrays
(21 bytes each) until the run ends, because one traced Figure 6 pass makes
millions of clock lookups.

A wrapper checks ``armed`` first and otherwise calls straight through, so the
benchmark's own bookkeeping (digests, cache seeding) is never traced.
"""

from __future__ import annotations

import functools
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


@dataclass(slots=True)
class SpanTotals:
    """Aggregate of every span recorded under one name."""

    calls: int = 0
    self_s: float = 0.0


class SpanRecorder:
    """Records spans around wrapped callables while armed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name = array("B")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._open = [-1]
        self._patches: list[tuple[Any, str, Any]] = []
        self.armed = False

    def _wrapper(
        self,
        original: Callable[..., Any],
        span: str,
        on_return: Callable[[tuple, Any], None] | None,
    ) -> Callable[..., Any]:
        if span in self.names:
            raise ValueError(f"span {span!r} is already wrapped")
        self.names.append(span)
        name_id = len(self.names) - 1
        names, parents, starts, ends, open_spans = (
            self._name,
            self._parent,
            self._start,
            self._end,
            self._open,
        )

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.armed:
                return original(*args, **kwargs)
            index = len(ends)
            names.append(name_id)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(index)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                open_spans.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def wrap_method(
        self,
        owner: type,
        attr: str,
        span: str,
        on_return: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Trace ``owner.attr``, a function defined on the class itself."""
        original = vars(owner)[attr]
        setattr(owner, attr, self._wrapper(original, span, on_return))
        self._patches.append((owner, attr, original))

    def wrap_function(
        self,
        function: Callable[..., Any],
        span: str,
        on_return: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Trace a module-level function under every name ``repro`` binds it to.

        ``from module import name`` copies the reference, so the wrapper must
        replace it in each importing module as well as in the defining one.
        """
        traced = self._wrapper(function, span, on_return)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attr, traced)
                    self._patches.append((module, attr, function))

    def uninstall(self) -> None:
        """Restore every wrapped callable."""
        self.armed = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> dict[str, SpanTotals]:
        """Calls and self time per span name.

        A span's self time is its duration minus the durations of the spans
        it directly caused.
        """
        starts, ends = self._start, self._end
        child_s = [0.0] * len(starts)
        for parent, start, end in zip(self._parent, starts, ends):
            if parent >= 0:
                child_s[parent] += end - start
        out = {name: SpanTotals() for name in self.names}
        names = self.names
        for name_id, start, end, child in zip(self._name, starts, ends, child_s):
            totals = out[names[name_id]]
            totals.calls += 1
            totals.self_s += end - start - child
        return out

    def durations(self, span: str) -> list[float]:
        """Durations in seconds of every span recorded as *span*."""
        name_id = self.names.index(span)
        return [
            end - start
            for name, start, end in zip(self._name, self._start, self._end)
            if name == name_id
        ]
