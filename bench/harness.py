"""Timing and bookkeeping shared by the workloads and the layer probes.

Shared hosts have slow phases: on the 2-core host the benchmark was built
on, all code ran up to 1.7x slower for a second to more than a whole run.
No statistic of raw times taken inside one run gets past a phase that
covers the run. So every timed operation is
measured against a fixed reference block of plain Python and numpy that
uses no fraccount code, timed right before and right after it: the
operation's cost is its duration over the mean of those two reference
times, times the reference's nominal time. A slow phase stretches both
alike, so a figure reads in seconds on a machine that runs the reference
in its nominal time. The run reports the median over its repeats.

The reference has two parts. The compute part mixes interpreter
arithmetic, small numpy calls with `math`, a small sort and scattered
reads; the analytic code, the verify suite and path reads are measured
against it alone. The memory part streams through arrays larger than the
caches; Monte Carlo batches and estimators, which do the same, are
measured against the sum of both parts.
"""
from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Nominal seconds of each reference part: about its low time on the
# 2.1 GHz Xeon the benchmark was built on. Constants, so figures from
# different runs and commits share one scale.
COMPUTE_S = 0.0055
MEMORY_S = 0.0045
# A reference timing that ended this recently also serves as the next
# operation's "before" timing, which halves the blocks a round spends.
REUSE_S = 0.02
# A long operation that calls `Recorder.checkpoint` is measured in slices of
# about this length, each against the reference timings at its two ends.
SLICE_S = 0.1

_rng = np.random.default_rng(20140724)
_SORT = _rng.random(100_000)
_SMALL = np.arange(64.0)
_BIG = _rng.random(2_000_000)  # 16 MB, beyond the caches
_PICKS = [int(i) for i in _rng.integers(0, len(_BIG), 2_000)]
_GATHER = _rng.permutation(500_000)
_OUT = np.empty(1_000_000)
_WANT = None


def reference_block() -> tuple[float, float]:
    """Seconds for the compute part and for the memory part."""
    global _WANT
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc = (acc + i * i) % 1_000_003
    x = 0.0
    for i in range(800):
        x += float(np.sum(_SMALL * 1.0001)) + math.lgamma(1.5 + i % 7)
    ordered = np.sort(_SORT)
    big = _BIG
    y = 0.0
    for j in _PICKS:
        y += float(big[j])
    mid = time.perf_counter()
    np.add(big[:1_000_000], 1.0, out=_OUT)
    np.take(big, _GATHER, out=_OUT[:500_000])
    end = time.perf_counter()
    got = (acc, x, float(ordered[0]), float(ordered[-1]), y, float(_OUT[0]), float(_OUT[-1]))
    if _WANT is None:
        _WANT = got
    elif got != _WANT:
        raise RuntimeError(f"reference block computed {got}, not {_WANT}")
    return mid - start, end - mid


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


class Recorder:
    """Durations at the reference pace per operation name, the reference
    timings themselves, and with tracing on, every span.

    A span is (id, parent id, name, start ns, end ns); parents come from
    nesting. Spans stay in memory until the run writes its trace file.
    """

    def __init__(self, trace: bool):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.meta: dict[str, tuple[str, int]] = {}
        self.refs: list[tuple[float, float]] = []
        self.spans: list[tuple[int, int, str, int, int]] | None = [] if trace else None
        self._open: list[int] = []
        self._next_id = 0
        self._last_ref = (-math.inf, (0.0, 0.0))  # (perf_counter at its end, parts)
        # for the open outer block: [its kind, reference parts at the slice's
        # start, the slice's start in ns, the block's duration so far]
        self._slice: list | None = None

    def reference(self, reuse: bool = True) -> tuple[float, float]:
        end, parts = self._last_ref
        if reuse and time.perf_counter() - end < REUSE_S:
            return parts
        parts = reference_block()
        self.refs.append(parts)
        self._last_ref = (time.perf_counter(), parts)
        return parts

    @contextmanager
    def timed(self, name: str, category: str = "", items: int = 1, memory: bool = False):
        """Time the block under `name` against the reference, both parts of
        it if `memory`; it adds `items` operations to `category`. A block
        that raises records nothing. Nested blocks are only spanned."""
        self.meta.setdefault(name, (category, items))
        outer = not self._open
        if outer:
            self._slice = [memory, self.reference(), 0, 0.0]
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else -1
        self._open.append(span_id)
        start = time.perf_counter_ns()
        if outer:
            self._slice[2] = start
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            if outer:
                seconds = self._close_slice(end)
                self._slice = None
        if outer:
            self.samples[name].append(seconds)
        if self.spans is not None:
            self.spans.append((span_id, parent, name, start, end))

    def _close_slice(self, end_ns: int) -> float:
        memory, ref0, start_ns, total = self._slice
        ref1 = self.reference(reuse=False)
        if memory:
            ref, nominal = ref0[0] + ref0[1] + ref1[0] + ref1[1], COMPUTE_S + MEMORY_S
        else:
            ref, nominal = ref0[0] + ref1[0], COMPUTE_S
        total += (end_ns - start_ns) * 1e-9 / (0.5 * ref) * nominal
        self._slice = [memory, ref1, 0, total]
        return total

    def checkpoint(self) -> None:
        """Inside a long timed block: once a slice has run SLICE_S, stop the
        clock, time a reference block and start the next slice. The
        block's spans then include these reference timings."""
        now = time.perf_counter_ns()
        if self._slice is not None and now - self._slice[2] >= SLICE_S * 1e9:
            self._close_slice(now)
            self._slice[2] = time.perf_counter_ns()

    def seconds(self, name: str) -> float:
        """One `name` at the reference pace, the median over its repeats;
        0 when it never ran (as in smoke runs, which time no metric)."""
        samples = self.samples[name]
        return median(samples) if samples else 0.0

    def rate(self, category: str) -> float:
        """Operations per second at the reference pace over every name in
        the category."""
        items = 0
        seconds = 0.0
        for name, (cat, n) in self.meta.items():
            if cat == category and self.samples[name]:
                items += n
                seconds += self.seconds(name)
        return items / seconds if seconds > 0 else 0.0


class Round:
    """Counts the operations of one round and collects failed checks."""

    def __init__(self, rec: Recorder, error_type: type[BaseException]):
        self.rec = rec
        self.error_type = error_type
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, name: str, category: str, items: int, fn, calls: int | None = None, memory: bool = False):
        """Run and time `calls` calls (default `items`) that yield `items`
        units of the category; a package error counts them failed."""
        calls = items if calls is None else calls
        self.attempted += calls
        try:
            with self.rec.timed(name, category, items, memory):
                return fn()
        except self.error_type as exc:
            self.failed += calls
            print(f"operation {name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def known_failure(self, fn) -> None:
        """Run an operation that fails today, untimed; count it if it fails."""
        self.attempted += 1
        try:
            fn()
        except self.error_type:
            self.failed += 1

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)
