"""In-memory span tracing from outside the program.

:class:`Tracer` replaces the names the drivers look up — module globals
of the two Hessenberg drivers and methods of the protection, runtime and
flop-counting classes — with wrappers that record a span per call, and
puts the originals back on :meth:`Tracer.uninstall`. Nothing under
``src/`` is edited. Spans stay in memory until :meth:`Tracer.write_chrome`.

A span's *self time* is its duration minus the part of its interval
that its child spans cover (:func:`self_times`). Self time plus child
time equals the parent's duration exactly when every child lies inside
its parent and siblings do not overlap; :func:`nesting_error` measures
how far the recorded spans are from that.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "tid")

    def __init__(self, name, start, end=0.0, parent=None, request=None, tid=0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.tid = tid

    @property
    def duration(self) -> float:
        return self.end - self.start

    def root(self) -> "Span":
        s = self
        while s.parent is not None:
            s = s.parent
        return s


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """``{id(span): duration − child-covered time}`` for every span.

    Child intervals are clipped to the parent's, and overlapping children
    (spans from other threads parented to the same span) are counted once.
    """
    kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            p = s.parent
            kids[id(p)].append((max(s.start, p.start), min(s.end, p.end)))
    return {id(s): s.duration - _covered(kids.get(id(s), [])) for s in spans}


def nesting_error(spans: list[Span]) -> float:
    """Largest overhang, in seconds, of a child span before or after its
    parent or over an earlier sibling; 0.0 when the spans nest."""
    kids: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[id(s.parent)].append(s)
    worst = 0.0
    for s in spans:
        free_from = s.start
        for c in sorted(kids.get(id(s), []), key=lambda c: c.start):
            worst = max(worst, free_from - c.start, c.end - s.end)
            free_from = max(free_from, c.end)
    return worst


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = None  # tag for spans opened from now on
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, fn, name: str):
        """``fn`` with a span named *name* recorded around each call."""
        spans, stack_of, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = Span(name, clock(), parent=stack[-1] if stack else None,
                        request=tracer.request, tid=threading.get_ident())
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)

        return traced

    def patch(self, owner, attr: str, name: str, wrapper=None) -> None:
        """Replace ``owner.attr`` with its traced version (or ``wrapper(orig)``)."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper(orig) if wrapper else self.wrap(orig, name))

    def uninstall(self) -> None:
        """Put every patched original back, newest first."""
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def by_root(self, root_name: str) -> list[Span]:
        return [s for s in self.spans if s.root().name == root_name]

    def self_ms_by_name(self, spans: list[Span]) -> dict[str, float]:
        """Summed self time per span name, in ms."""
        st = self_times(spans)
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s.name] += 1e3 * st[id(s)]
        return dict(out)

    def write_chrome(self, path: Path) -> int:
        """Write every span as a Chrome trace; returns the count."""
        spans = sorted(self.spans, key=lambda s: s.start)
        index = {id(s): i for i, s in enumerate(spans)}
        tids: dict[int, int] = {}
        events = []
        for i, s in enumerate(spans):
            events.append({
                "name": s.name,
                "ph": "X",
                "pid": 1,
                "tid": tids.setdefault(s.tid, len(tids)),
                "ts": round(1e6 * (s.start - self.t0), 3),
                "dur": round(1e6 * s.duration, 3),
                "args": {"id": i, "parent": index.get(id(s.parent)), "request": s.request},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        return len(events)


def install_program_spans(tracer: Tracer) -> None:
    """Wrap the names the Hessenberg drivers look up at call time."""
    from repro.abft.checkpoint import DisklessCheckpointStore
    from repro.abft.detection import Detector
    from repro.abft.encoding import EncodedMatrix
    from repro.abft.qprotect import QProtector
    from repro.core import ft_hessenberg, hybrid_hessenberg
    from repro.hybrid.runtime import HybridRuntime
    from repro.linalg.flops import FlopCounter
    from repro.resilience.tau_guard import TauGuard

    for name in ("lahr2", "apply_right_updates", "apply_left_update"):
        tracer.patch(hybrid_hessenberg, name, name)
    for name in (
        "lahr2", "v_col_checksums", "y_col_checksums", "right_update_encoded",
        "left_update_encoded", "reverse_left_update_encoded",
        "reverse_right_update_encoded", "locate_errors", "locate_errors_rowonly",
        "correct_all", "unwind_iteration", "rebuild_col_checksums",
    ):
        tracer.patch(ft_hessenberg, name, name)
    methods = {
        Detector: ("check",),
        QProtector: ("update_for_panel", "verify_and_correct", "rollback_panel"),
        DisklessCheckpointStore: ("save", "save_initial", "restore", "restore_initial"),
        EncodedMatrix: ("encode", "refresh_finished_segment", "checksum_gap"),
        TauGuard: ("record", "verify_and_repair", "rollback"),
        FlopCounter: ("add",),
    }
    for cls, names in methods.items():
        for name in names:
            tracer.patch(cls, name, f"{cls.__name__}.{name}")

    def traced_submit(orig):
        # the thunk runs inside submit; give it its own span so that
        # submit's self time is the simulator's bookkeeping alone
        def submit(self, name, resource, duration, deps=(), category="", fn=None):
            if fn is not None:
                fn = tracer.wrap(fn, "thunk")
            return orig(self, name, resource, duration, deps, category, fn)

        return tracer.wrap(submit, "HybridRuntime.submit")

    tracer.patch(HybridRuntime, "submit", "HybridRuntime.submit", traced_submit)
