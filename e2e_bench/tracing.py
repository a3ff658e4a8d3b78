"""Outside-in span tracing for the benchmark's traced run.

The program under test carries no instrumentation of its own.  The traced
run wraps the public functions of each layer where the program looks them
up (module globals such as ``repro.scenarios.runner.build_simulator``, names
imported into ``repro.sim.placement.policies``, class methods), records one
span per call and restores every original object afterwards.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index of
the enclosing span (``None`` at top level) and ``run`` is the repetition
the span belongs to.  Spans stay in memory and are written out once, when
the run ends.  Calls made once per simulated request (the phase collector)
would produce hundreds of thousands of spans, so they are *aggregated*: one
``[name, count, total_s, parent, run]`` record per enclosing span.  An
aggregated call is a leaf, so its self time is its duration and summing it
loses nothing.

A layer's self time is its span durations minus the time covered by its
child spans and aggregated children.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

Name = Union[str, Callable[[Optional[str]], str]]
OnResult = Callable[["Tracer", str, tuple, object], None]

_clock = time.perf_counter


class Tracer:
    """Patches layer entry points, records spans, restores everything.

    ``install`` is called with the tracer to put the patches in (through
    :meth:`wrap`); :meth:`installed` brackets a block with it and
    :meth:`restore`.
    """

    def __init__(self, install: Optional[Callable[["Tracer"], None]] = None) -> None:
        self.spans: List[list] = []
        self.aggregates: Dict[Tuple[str, Optional[int]], list] = {}
        #: metric -> run -> amount, for counts taken at layer boundaries.
        self.counts: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        self.run = 0
        self._install = install
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    @property
    def patches(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, original)`` of every patch currently in."""
        return list(self._patches)

    def count(self, metric: str, amount: float = 1.0) -> None:
        """Add ``amount`` to ``metric`` for the current run."""
        self.counts[metric][self.run] += amount

    @contextmanager
    def installed(self, install: Optional[Callable[["Tracer"], None]] = None) -> Iterator["Tracer"]:
        """Patches in for the duration of the block, restored however it ends.

        ``install`` overrides the installer given at construction.
        """
        try:
            (install or self._install)(self)
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: object,
        attribute: str,
        name: Name,
        on_result: Optional[OnResult] = None,
        aggregate: bool = False,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``owner`` is a module or a class; the raw object from its
        ``__dict__`` is kept so :meth:`restore` puts back exactly what was
        there (a ``classmethod`` stays a ``classmethod``).  ``name`` may be a
        function of the enclosing span's name, for one function that plays
        two roles (the serial replay nested inside the vectorized one).
        """
        raw = vars(owner)[attribute]
        function = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapper = self._aggregated(function, name) if aggregate else self._spanned(function, name, on_result)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)

    def restore(self) -> None:
        """Put back every patched object, most recent first."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    def _current_name(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _open(self, label: str) -> list:
        record = [label, _clock(), 0.0, self._stack[-1] if self._stack else None, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = _clock()
        self._stack.pop()

    def _spanned(self, function, name: Name, on_result: Optional[OnResult]):
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(tracer._current_name()) if callable(name) else name
            record = tracer._open(label)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(record)
            if on_result is not None:
                on_result(tracer, label, args, result)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def _aggregated(self, function, label: str):
        tracer = self

        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                parent = tracer._stack[-1] if tracer._stack else None
                entry = tracer.aggregates.get((label, parent))
                if entry is None:
                    entry = tracer.aggregates[(label, parent)] = [label, 0, 0.0, parent, tracer.run]
                entry[1] += 1
                entry[2] += elapsed

        wrapper.__wrapped__ = function
        return wrapper

    # ------------------------------------------------------------------ #
    # Explicit spans and analysis
    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        """A span around a block of benchmark code (one traced call)."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def self_times(self) -> Dict[str, Dict[int, float]]:
        """Self time per span name and run."""
        child_time: Dict[int, float] = defaultdict(float)
        for _name, start, end, parent, _run in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for _name, _count, total, parent, _run in self.aggregates.values():
            if parent is not None:
                child_time[parent] += total
        result: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, _parent, run) in enumerate(self.spans):
            result[name][run] += (end - start) - child_time[index]
        for name, _count, total, _parent, run in self.aggregates.values():
            result[name][run] += total
        return result

    def inclusive(self, name: str) -> Dict[int, float]:
        """Inclusive duration of the spans called ``name``, per run."""
        result: Dict[int, float] = defaultdict(float)
        for label, start, end, _parent, run in self.spans:
            if label == name:
                result[run] += end - start
        return result

    def calls(self, name: str) -> Dict[int, float]:
        """Number of calls recorded under ``name``, per run."""
        result: Dict[int, float] = defaultdict(float)
        for label, _start, _end, _parent, run in self.spans:
            if label == name:
                result[run] += 1
        for label, calls, _total, _parent, run in self.aggregates.values():
            if label == name:
                result[run] += calls
        return result

    def write(self, path: Path) -> None:
        """Write every span and aggregate as gzip'd JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index, (name, start, end, parent, run) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end, "parent": parent, "run": run}
                    )
                    + "\n"
                )
            for name, count, total, parent, run in self.aggregates.values():
                handle.write(
                    json.dumps({"name": name, "calls": count, "total_s": total, "parent": parent, "run": run})
                    + "\n"
                )


def wrapper_cost_s(calls: int, samples: int = 200_000) -> float:
    """Estimated cost of ``calls`` aggregated-wrapper invocations.

    Times a no-op through an aggregated wrapper against the bare no-op, so
    the inflation the per-request hook wrapper adds to ``scenarios.hook_s``
    can be reported next to it.
    """

    class _Probe:
        def noop(self, _item):
            return None

    probe = _Probe()
    bare = probe.noop
    start = _clock()
    for _ in range(samples):
        bare(None)
    bare_s = _clock() - start
    tracer = Tracer(lambda tracer: tracer.wrap(_Probe, "noop", "probe", aggregate=True))
    with tracer.installed():
        wrapped = probe.noop
        start = _clock()
        for _ in range(samples):
            wrapped(None)
        wrapped_s = _clock() - start
    return max(0.0, (wrapped_s - bare_s) / samples) * calls
