"""Spans recorded around the program's public functions, from outside it.

A ``Tracer`` hands out wrappers that open a span on entry and close it on
exit, with the enclosing open span as parent. Spans stay in memory as
parallel lists and are summarised once the operation ends. ``patched``
installs wrappers on module or class attributes and puts every original
back when the block exits, also on error.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span store for one single-threaded operation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: list[dict | None] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.counts.append(None)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def parent_name(self) -> str | None:
        return self.names[self._open[-1]] if self._open else None

    def wrap(self, name, fn, count=None, under=None):
        """Wrap ``fn`` in a span called ``name``.

        ``count(args, kwargs, result)`` returns a dict of work counts for
        the span. ``under`` maps a parent span name to the name used when
        the call is made directly inside that parent.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if under:
                label = under.get(self.parent_name(), name)
            idx = self.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.counts[idx] = count(args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Children of one span run one after another on one thread, so their
        durations sum to the part of the parent's interval they cover.
        """
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def summary(self, keep_durations=()) -> dict:
        """Per span name: calls, inclusive and self seconds, summed counts.

        Names in ``keep_durations`` also keep the list of span durations.
        """
        own = self.self_times()
        out: dict[str, dict] = {}
        for idx, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
            duration = self.ends[idx] - self.starts[idx]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += own[idx]
            for key, value in (self.counts[idx] or {}).items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
            if name in keep_durations:
                entry.setdefault("durations", []).append(duration)
        return out


@contextmanager
def patched(replacements):
    """Install ``(owner, attr, make)`` replacements; restore them on exit.

    ``make(original)`` returns the object to install. Targets the owner no
    longer has are skipped and yielded as ``"owner.attr"`` strings, so the
    caller can report their spans as absent.
    """
    saved = []
    missing = []
    try:
        for owner, attr, make in replacements:
            if attr not in vars(owner):
                missing.append(f"{owner.__name__}.{attr}")
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, make(original))
            saved.append((owner, attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
