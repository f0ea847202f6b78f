"""In-memory spans recorded by wrappers around public functions.

:meth:`SpanRecorder.patch` replaces one attribute (a module function or a
class method) with a wrapper that records a span per call: name, start,
end, the enclosing span of the same thread, and the time its child spans
cover.  Spans stay in memory until :meth:`SpanRecorder.dump` writes them
out.  :meth:`SpanRecorder.restore` puts every original back.
"""

from __future__ import annotations

import bisect
import functools
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# Span fields, kept as a list so a child can add to its parent's covered time.
NAME, START, END, PARENT, CHILD_S, NESTED, EXTRA, THREAD = range(8)


@dataclass
class LayerTotals:
    """Aggregates of one layer's spans.

    ``busy_s`` counts only spans not nested in a span of the same layer;
    ``self_s`` is every span's duration minus what its child spans cover.
    """

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    extra: float = 0.0


def op_index(windows: "list[tuple[float, float]]", t: float) -> int:
    """Index of the operation window (sorted, disjoint) holding ``t``, or -1."""
    index = bisect.bisect_right(windows, (t, float("inf"))) - 1
    if index >= 0 and windows[index][0] <= t < windows[index][1]:
        return index
    return -1


class SpanRecorder:
    """Records a span for every call into the attributes it patched."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: "list[list]" = []
        self._local = threading.local()
        self._originals: "list[tuple[object, str, object, bool]]" = []

    def _stack(self) -> "list[list]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def patch(self, owner, attr: str, name: str, extra=None) -> None:
        """Wrap ``owner.attr`` so each call records a span called ``name``.

        ``extra`` maps the return value to a number kept on the span (for
        example the number of configurations a scheduler emitted).
        """
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != recorder.pid:
                # A forked pool worker inherits the patch; it records nothing.
                return original(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            nested = any(span[NAME] == name for span in stack)
            span = [name, time.perf_counter(), 0.0, parent, 0.0, nested, 0.0,
                    threading.get_ident()]
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[CHILD_S] += span[END] - span[START]
                recorder.spans.append(span)
            if extra is not None:
                span[EXTRA] = float(extra(result))
            return result

        self._originals.append((owner, attr, original, own))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, last first."""
        while self._originals:
            owner, attr, original, own = self._originals.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def of(self, name: str) -> "list[list]":
        return [span for span in self.spans if span[NAME] == name]

    def totals(self, windows=None) -> "dict[str, LayerTotals]":
        """Per-layer totals over every span, or only those starting inside
        one of ``windows``."""
        totals: "dict[str, LayerTotals]" = {}
        for span in self.spans:
            if windows is not None and op_index(windows, span[START]) < 0:
                continue
            entry = totals.setdefault(span[NAME], LayerTotals())
            duration = span[END] - span[START]
            entry.calls += 1
            entry.self_s += duration - span[CHILD_S]
            entry.extra += span[EXTRA]
            if not span[NESTED]:
                entry.busy_s += duration
        return totals

    def dump(self, path: "str | Path") -> Path:
        """Write every span as JSON (times in seconds from the first span)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        origin = min((span[START] for span in self.spans), default=0.0)
        records = [
            {
                "id": ids[id(span)],
                "name": span[NAME],
                "start": span[START] - origin,
                "end": span[END] - origin,
                "parent": (
                    ids.get(id(span[PARENT])) if span[PARENT] is not None else None
                ),
                "thread": span[THREAD],
                "extra": span[EXTRA],
            }
            for span in self.spans
        ]
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(records))
        return path
