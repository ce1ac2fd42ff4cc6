"""Span tracing: where the wall-clock time of a run actually went.

A :class:`Span` is a named, timed region with attributes; spans nest
into a parent-child tree.  ``SpanTracer.trace`` is a context manager::

    with tracer.trace("campaign", app="minidb"):
        with tracer.trace("profile"):        # child of "campaign"
            ...

Parenting is per-thread (a thread-local span stack), so spans opened in
the main thread nest naturally however deeply calls recurse — e.g. a
``Session.campaign`` that lazily profiles gets the profile span as a
child of the campaign span.  A span opened on another thread starts a
root of its own; child-list appends are lock-protected.

The tree exports as JSON (``to_dicts``) and as a flame-style indented
text rendering (``render_tree``).  ``NULL_TRACER`` is the no-op default:
``trace()`` returns a pre-built context manager, so an uninstrumented
hot path pays one method call and no allocation.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

from .clock import Clock, MonotonicClock

#: Schema tag for exported span trees.
TRACE_SCHEMA = "repro.trace/1"


class Span:
    """One timed region of a run."""

    __slots__ = ("name", "start", "end", "attrs", "children")

    def __init__(self, name: str, start: float,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to an open (or closed) span."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": round(self.start, 6),
            "duration": round(self.duration, 6),
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:      # pragma: no cover
        state = "open" if self.end is None else f"{self.duration:.6f}s"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


def _reject_parent(attrs: Mapping[str, Any]) -> None:
    """4.0 removed ``trace(parent=)``; without this check the old
    spelling would silently become a span attribute."""
    if "parent" in attrs:
        raise TypeError("trace() got an unexpected keyword argument "
                        "'parent': a span's parent is the innermost open "
                        "span on the calling thread")


class SpanTracer:
    """Builds span trees; per-thread stacks decide implicit parents."""

    enabled = True

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock or MonotonicClock()
        self.roots: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def trace(self, name: str, **attrs: Any) -> Iterator[Span]:
        _reject_parent(attrs)
        span = Span(name, self.clock.now(), attrs)
        owner = self.current()
        with self._lock:
            if owner is not None:
                owner.children.append(span)
            else:
                self.roots.append(span)
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock.now()
            if stack and stack[-1] is span:
                stack.pop()

    # -- export -------------------------------------------------------------

    def to_dicts(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [root.to_dict() for root in self.roots]

    def render_tree(self) -> str:
        return render_span_dicts(self.to_dicts())

    def clear(self) -> None:
        with self._lock:
            self.roots.clear()


def render_span_dicts(spans: Sequence[Mapping[str, Any]]) -> str:
    """Flame-style text rendering of exported span dicts.

    Works on live ``to_dicts()`` output and on span trees read back
    from a JSONL event stream (``repro stats --spans``).
    """
    lines: List[str] = []

    def visit(span: Mapping[str, Any], depth: int) -> None:
        label = "  " * depth + str(span.get("name", "?"))
        attrs = span.get("attrs") or {}
        suffix = ""
        if attrs:
            suffix = "  (" + ", ".join(
                f"{k}={attrs[k]}" for k in sorted(attrs)) + ")"
        lines.append(f"{label:<40} {span.get('duration', 0.0):>10.6f}s"
                     f"{suffix}")
        for child in span.get("children", ()):
            visit(child, depth + 1)

    for span in spans:
        visit(span, 0)
    return "\n".join(lines)


# -- the no-op default -------------------------------------------------------

class _NullSpan:
    __slots__ = ()

    name = "null"
    start = 0.0
    end = 0.0
    duration = 0.0
    attrs: Dict[str, Any] = {}
    children: List[Span] = []

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "start": 0.0, "duration": 0.0,
                "attrs": {}, "children": []}


NULL_SPAN = _NullSpan()


class _NullTraceContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_CONTEXT = _NullTraceContext()


class NullTracer(SpanTracer):
    """The disabled default: ``trace`` costs one method call."""

    enabled = False

    def trace(self, name: str, **attrs: Any):
        _reject_parent(attrs)
        return _NULL_CONTEXT

    def current(self) -> Optional[Span]:
        return None

    def to_dicts(self) -> List[Dict[str, Any]]:
        return []

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()
