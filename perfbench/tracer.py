"""Span recorder for the traced benchmark run.

The tracer replaces public functions of the ``shm_fomo`` modules with
wrappers that record one span per call: (name, start, end, parent span). The
spans stay in memory until the run ends; self time, call counts and the
derived per-layer quantities are computed from them afterwards. Nothing under
``src/`` changes: the wrappers are installed with ``setattr`` on every
namespace that holds the original function and removed again afterwards, so
untraced rounds run the unmodified code.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np


class Tracer:
    """Records nested spans and named counters.

    ``clock`` is injectable so the self-time arithmetic can be tested with
    exact synthetic times.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, start, end, parent index or -1); a slot is None while open
        self.spans: list[Optional[tuple]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, nid: int, t0: float, parent: int) -> None:
        t1 = self.clock()
        self._stack.pop()
        self.spans[idx] = (nid, t0, t1, parent)

    def span(self, name: str) -> "_Span":
        """Context manager for a span the benchmark opens around its phases."""
        return _Span(self, self.name_id(name))

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """Wrapper of ``fn`` that records a span named ``name`` per call.

        ``observe(tracer, args, kwargs, result)`` runs after the span closes, so its
        cost lands in the caller's self time rather than in ``name``'s.
        """
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open()
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, nid, t0, parent)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def span_array(self) -> np.ndarray:
        """Closed spans as a float64 array of (name id, start, end, parent)."""
        closed = [s for s in self.spans if s is not None]
        if not closed:
            return np.zeros((0, 4))
        return np.asarray(closed, dtype=np.float64)

    def save(self, path: Path) -> None:
        np.savez(path, spans=self.span_array(), names=np.asarray(self.names))


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx, self.parent = self.tracer._open()
        self.t0 = self.tracer.clock()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.nid, self.t0, self.parent)
        return False


def self_times(spans: np.ndarray, n_names: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-name (self seconds, total seconds, calls) from a span array.

    A span's self time is its duration minus the time its direct children
    cover. Children of one span never overlap because the benchmark runs on a
    single Python thread, so the covered time is the sum of their durations.
    """
    self_s = np.zeros(n_names)
    total_s = np.zeros(n_names)
    calls = np.zeros(n_names, dtype=np.int64)
    if len(spans) == 0:
        return self_s, total_s, calls
    nid = spans[:, 0].astype(np.int64)
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(np.int64)
    covered = np.zeros(len(spans))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    np.add.at(self_s, nid, dur - covered)
    np.add.at(total_s, nid, dur)
    np.add.at(calls, nid, 1)
    return self_s, total_s, calls


class Patches:
    """setattr with undo, for installing wrappers and removing them again."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)
