"""In-memory span recorder that wraps the names a layer's callers look up.

A :class:`Tracer` replaces a function or method *where its caller finds
it* (a module global such as ``repro.sched.evaluator.design_controllers_batch``,
or a method on a class) with a wrapper that records one :class:`Span`
per call: name, start, end, the enclosing span on the same thread, and
the run id (search or served job) current when it started.  Nothing in
the program under test changes; :meth:`Tracer.restore` puts every
original back.

Spans are kept in memory and written out once, at the end of a traced
run (:meth:`Tracer.dump`).  Wrappers are pass-through while the tracer
is inactive and in any other process (worker processes forked from the
benchmark inherit the patched names but are not traced).
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    """One timed call into a layer boundary."""

    name: str
    parent: "Span | None"
    run: object
    thread: int
    start: float = 0.0
    end: float = 0.0
    count: float = 0.0
    child_time: float = 0.0
    index: int = field(default=-1, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part of it the child spans cover.

        Children run on the span's own thread, strictly inside it and
        one after another, so the covered part is their summed duration.
        """
        return self.duration - self.child_time

    def nested_in_same_name(self) -> bool:
        """Whether an enclosing span has the same name (its time is
        already inside that outer span's total)."""
        ancestor = self.parent
        while ancestor is not None:
            if ancestor.name == self.name:
                return True
            ancestor = ancestor.parent
        return False


class Tracer:
    """Records spans around patched call sites while :attr:`active`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.active = False
        self.run: object = None
        self._pid = os.getpid()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._counter_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def recording(self) -> bool:
        """Whether a call made right now should be recorded."""
        return self.active and os.getpid() == self._pid

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        """Start a span on the current thread (close it with :meth:`close`)."""
        stack = self._stack()
        span = Span(
            name,
            stack[-1] if stack else None,
            self.run,
            threading.get_ident(),
        )
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_time += span.duration
        self.spans.append(span)

    def add(self, counter: str, amount: float) -> None:
        """Add to a named counter (thread-safe)."""
        if not self.recording():
            return
        with self._counter_lock:
            self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a ``name`` span per call.

        ``count(args, kwargs, result)`` sets the span's work count (it
        runs after the span closed, so keep it O(1)).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording():
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        return traced

    def iterate(self, name: str, iterator):
        """Re-yield ``iterator`` with one ``name`` span per item produced
        (for layers that return a lazy stream)."""
        iterator = iter(iterator)
        while True:
            if not self.recording():
                item = next(iterator, _END)
            else:
                span = self.open(name)
                try:
                    item = next(iterator, _END)
                finally:
                    self.close(span)
                span.count = 0.0 if item is _END else 1.0
            if item is _END:
                return
            yield item

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: object, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement``, remembering the original."""
        self._patches.append((owner, attr, _lookup(owner, attr)))
        setattr(owner, attr, replacement)

    def trace(self, owner: object, attr: str, name: str, count=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``."""
        original = _lookup(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, count))
        else:
            replacement = self.wrap(name, original, count)
        self.patch(owner, attr, replacement)

    def restore(self) -> None:
        """Put every patched name back (last patched first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write every span (parent as an index) and counter as JSON."""
        for index, span in enumerate(self.spans):
            span.index = index
        records = [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent.index if span.parent is not None else None,
                "run": span.run,
                "thread": span.thread,
                "count": span.count,
                "self": span.self_time,
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"spans": records, "counters": self.counters}) + "\n"
        )


_END = object()


def _lookup(owner: object, attr: str):
    """``owner.attr`` as its callers find it — for a class, the function
    it defines itself (not an inherited one).

    Raises :class:`AttributeError` when there is none: a refactor that
    renames or moves a wrapped name must fail loudly rather than leave
    its layer silently unmeasured.
    """
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise AttributeError(f"{owner.__qualname__} defines no {attr!r}")
        return vars(owner)[attr]
    if not hasattr(owner, attr):
        raise AttributeError(f"{owner!r} has no {attr!r}")
    return getattr(owner, attr)
