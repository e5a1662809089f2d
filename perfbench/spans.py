"""In-memory span recorder fed by wrappers around the program's entry points.

The benchmark never edits the program: it replaces a method or function
on its owner (a class or module) with a timing wrapper for the length of
a traced phase, then puts the original back.  Every span carries a
name, start and end (``time.perf_counter`` seconds), the span that was
open on the same thread when it started (its parent) and a request id
(-1 for work not tied to one request).  Spans stay in memory; the run
writes them out once it has finished measuring.

Spans from wrappers (``Tracer.spans``) nest on their thread and give
each layer's self time.  Intervals measured between two such spans
(``Tracer.intervals``, e.g. a request's queue wait) are not calls and
count towards no layer's self time.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional


class Span:
    """One timed call: ``[start, end]`` on the ``perf_counter`` clock."""

    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name: str, start: float, end: float,
                 parent: Optional["Span"], request: int):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request

    @property
    def layer(self) -> str:
        """The layer a span belongs to: its name up to the first dot."""
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrappers it installs; restores the originals on exit.

    Use as a context manager around the traced phase::

        with Tracer() as tracer:
            tracer.wrap(SomeClass, "method", "layer.method")
            ...  # drive the program
        tracer.spans  # still available after the wrappers are removed
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.intervals: List[Span] = []
        self._local = threading.local()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: int = -1) -> Span:
        """Start a span on this thread, child of the innermost open one."""
        stack = self._stack()
        span = Span(name, time.perf_counter(), float("nan"),
                    stack[-1] if stack else None, request)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def record(self, name: str, start: float, end: float,
               parent: Optional[Span] = None, request: int = -1) -> Span:
        """Add an interval measured between spans (e.g. a queue wait)."""
        span = Span(name, start, end, parent, request)
        self.intervals.append(span)
        return span

    # ------------------------------------------------------------------
    def wrap(self, owner, attribute: str, name: str,
             outermost: bool = False) -> None:
        """Time every call of ``owner.attribute`` as a span named ``name``.

        With ``outermost`` a call made while a span of the same name is
        already open on the thread is not recorded (a module called from
        inside another module's forward belongs to the outer forward).
        """
        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                if outermost and any(open_span.name == name
                                     for open_span in self._stack()):
                    return original(*args, **kwargs)
                span = self.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.close(span)
            return traced

        self.replace(owner, attribute, make)

    def replace(self, owner, attribute: str,
                make: Callable[[Callable], Callable]) -> None:
        """Install ``make(original)`` in place of ``owner.attribute``.

        A class attribute is read from the class itself, so a method
        inherited from a base class is shadowed, not rebound.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        setattr(owner, attribute, make(original))
        self._patches.append((owner, attribute, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unwrap_all()

    # ------------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans + self.intervals
                if span.name == name]

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer: each span minus the part its children cover.

        Children of one span run on the span's own thread and nest
        inside it, so the covered part is the sum of their durations.
        """
        child_seconds: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                child_seconds[key] = child_seconds.get(key, 0.0) + span.seconds
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span.seconds - child_seconds.get(id(span), 0.0)
            totals[span.layer] = totals.get(span.layer, 0.0) + own
        return totals

    def rows(self) -> List[list]:
        """Spans as ``[name, start, end, parent_index, request]`` rows."""
        every = self.spans + self.intervals
        index = {id(span): position for position, span in enumerate(every)}
        return [[span.name, span.start, span.end,
                 index[id(span.parent)] if span.parent is not None else -1,
                 span.request] for span in every]
