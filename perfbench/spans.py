"""Outside-in span tracer and the small statistics the benchmark reports.

The tracer replaces a function at the attribute its caller looks it up by
(a module global such as ``painforge.training.forward``, or a class attribute
such as ``Tensor.backward``) with a wrapper that records one span per call.
Spans are kept in memory as ``[name, start_ns, end_ns, parent, info]`` and are
only recorded inside a root span, so work done outside a timed pass (setup,
correctness checks) is never traced. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time

NAME, START, END, PARENT, INFO = range(5)


def _resolve(target: str):
    """``"pkg.mod:attr"`` or ``"pkg.mod:Class.attr"`` -> (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder; ``install`` wraps targets, ``uninstall`` restores them."""

    def __init__(self, targets):
        # targets: iterable of (span name, "module:attr", info function or None)
        self.targets = list(targets)
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, target, info in self.targets:
            owner, attr = _resolve(target)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, info))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [name, clock(), 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs)
            return result

        return wrapper

    @contextlib.contextmanager
    def root(self, name: str):
        """Record a root span around the block; yields its index."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        index = len(self.spans)
        span = [name, time.perf_counter_ns(), 0, None, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            span[END] = time.perf_counter_ns()


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that its children cover.

    Children may be nested or back to back; overlapping child intervals are
    merged first so no instant is subtracted twice, and child time outside the
    parent's own interval is ignored.
    """
    children: dict = {}
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(i)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0
        cur_lo = cur_hi = None
        for s, e in sorted((max(spans[c][START], lo), min(spans[c][END], hi))
                           for c in children.get(i, ())):
            if e <= s:
                continue
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def median(values) -> float:
    values = sorted(values)
    n = len(values)
    if n == 0:
        return 0.0
    mid = n // 2
    return float(values[mid]) if n % 2 else (values[mid - 1] + values[mid]) / 2.0


def tail_percentile(values, beyond: int = 10):
    """Highest whole percentile with at least ``beyond`` samples above it.

    Uses the nearest-rank percentile: the q-th percentile of n sorted samples
    is the sample at 1-based rank ceil(q * n / 100), which leaves n - rank
    samples after it. Returns (q, value, n), or (None, None, n) when there are
    too few samples for any percentile to have ``beyond`` samples past it.
    """
    values = sorted(values)
    n = len(values)
    if n <= beyond:
        return None, None, n
    q = (100 * (n - beyond)) // n
    rank = max(1, math.ceil(q * n / 100))
    return q, float(values[rank - 1]), n
