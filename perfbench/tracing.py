"""Benchmark-side tracing: timing wrappers around the program's public calls.

A traced run installs wrappers (see ``layers.py``) on the functions each
layer exposes.  Every wrapped call records one span ``(id, parent, layer,
op, start, end, kind, failed, size)`` in memory; nothing is written until
the process ends.  The parent is the innermost open span of the same
thread or asyncio task (a ``ContextVar``), so spans nest across ``await``
without leaking between concurrent requests.

A layer's *self time* is the duration of its spans minus the part of each
span covered by its children — the union of the child intervals, so
children that overlap each other (threads, concurrent tasks) are not
subtracted twice.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

class Span(NamedTuple):
    """One timed call.  ``kind`` is ``work`` (busy time of its layer),
    ``wait`` (time work queued in its layer) or ``shared`` (work done on
    this span's behalf by another, such as a coalesced request's share of
    one batch: it counts for no layer and only keeps that interval out of
    the parent's self time)."""

    sid: int
    parent: int
    layer: str
    op: str
    start: float
    end: float
    kind: str = "work"
    failed: bool = False
    size: float = 0.0


def covered(interval: tuple[float, float], children: Iterable[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """``span id -> self time``: duration minus the union of its children."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - covered((s.start, s.end), children.get(s.sid, ()))
        for s in spans
    }


def layer_totals(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per-layer ``calls``, ``busy_s``, ``wait_s`` and ``failures``, plus per
    op ``op.<name>`` (calls), ``self.<name>``, ``wall.<name>``,
    ``size.<name>`` and ``le1.<name>`` (calls with a size of at most 1).

    ``calls`` counts calls *into* a layer: a work span whose parent belongs
    to the same layer is the layer calling itself and is not counted again,
    although its self time is.
    """
    spans = list(spans)
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "wait_s": 0.0, "failures": 0}
    )
    for s in spans:
        entry = out[s.layer]
        if s.kind == "wait":
            entry["wait_s"] += s.end - s.start
            continue
        if s.kind != "work":
            continue
        entry["busy_s"] += selfs[s.sid]
        for key, value in (
            ("op", 1),
            ("self", selfs[s.sid]),
            ("wall", s.end - s.start),
            ("size", s.size),
            ("le1", int(s.size <= 1)),
        ):
            name = f"{key}.{s.op}"
            entry[name] = entry.get(name, 0) + value
        parent = by_id.get(s.parent)
        if parent is None or parent.layer != s.layer:
            entry["calls"] += 1
            entry["failures"] += int(s.failed)
    return dict(out)


def merge_totals(parts: Iterable[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    """Sum per-layer totals from several processes."""
    out: dict[str, dict[str, float]] = {}
    for part in parts:
        for layer, entry in part.items():
            acc = out.setdefault(layer, {})
            for key, value in entry.items():
                acc[key] = acc.get(key, 0) + value
    return out


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self.missing: list[str] = []

    # -- recording --------------------------------------------------------------------

    def new_id(self) -> int:
        return next(self._ids)  # atomic under the interpreter lock

    def current(self) -> int:
        return self._current.get()

    def activate(self, sid: int) -> contextvars.Token:
        """Make ``sid`` the parent of spans opened from here on."""
        return self._current.set(sid)

    def deactivate(self, token: contextvars.Token) -> None:
        self._current.reset(token)

    def record(self, span: Span) -> None:
        self.spans.append(span)  # list.append is atomic under the interpreter lock

    def wrap(
        self,
        fn: Callable,
        layer: str,
        op: str,
        size: Callable[..., float] | None = None,
        result_size: Callable[[Any], float] | None = None,
    ) -> Callable:
        """A timing wrapper recording one span per call of ``fn``.

        ``size(*args, **kwargs)`` or ``result_size(result)`` give the span a
        work amount (points evaluated, bytes produced).
        """
        clock = time.perf_counter
        tracer = self

        def measure_size(args, kwargs, result):
            try:
                if size is not None:
                    return float(size(*args, **kwargs))
                if result_size is not None:
                    return float(result_size(result))
            except Exception:
                pass
            return 0.0

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid = tracer.new_id()
                parent = tracer._current.get()
                token = tracer._current.set(sid)
                start = clock()
                failed = True
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    end = clock()
                    tracer._current.reset(token)
                    tracer.record(
                        Span(sid, parent, layer, op, start, end, "work", failed,
                             measure_size(args, kwargs, result))
                    )

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.new_id()
            parent = tracer._current.get()
            token = tracer._current.set(sid)
            start = clock()
            failed = True
            result = None
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                tracer._current.reset(token)
                tracer.record(
                    Span(sid, parent, layer, op, start, end, "work", failed,
                         measure_size(args, kwargs, result))
                )

        return wrapper

    def patch(self, owner: Any, attr: str, layer: str, op: str | None = None, **kw) -> bool:
        """Replace ``owner.attr`` by its timing wrapper; ``False`` if absent.

        Class-level ``classmethod``/``staticmethod`` descriptors are
        unwrapped and re-wrapped so binding still works.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if raw is None and not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        op = op or attr
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, layer, op, **kw)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(raw.__func__, layer, op, **kw)))
        else:
            setattr(owner, attr, self.wrap(getattr(owner, attr), layer, op, **kw))
        return True

    # -- output -----------------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        return layer_totals(self.spans)

    def dump(self, path: Path, extra: dict[str, Any] | None = None) -> None:
        """Write the per-layer totals, the targets not found (and ``extra``) as JSON."""
        payload = {"layers": self.totals(), "missing": self.missing}
        payload.update(extra or {})
        Path(path).write_text(json.dumps(payload))
