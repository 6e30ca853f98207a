"""Span recorder for the traced benchmark run.

Layer boundaries are timed from outside the program: each boundary's function
is replaced, at every attribute it is called through, by a wrapper that
records one span (boundary, start, end, parent span, episode).  The originals
are put back afterwards and checked by object identity.  Spans stay in memory
and are summarised, and written out, once the timed call has ended.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

PACKAGE = "cep"


@dataclass(frozen=True)
class Boundary:
    """A layer boundary: metric name, defining module, attribute path in it.

    ``timed=False`` counts calls without recording spans, for functions too
    cheap to time without distorting them.  ``starts_episode`` marks the call
    that opens a new episode, so later spans carry its episode id.
    """

    name: str
    module: str
    attr: str
    timed: bool = True
    starts_episode: bool = False


class Span(NamedTuple):
    boundary: int
    start_ns: int
    end_ns: int
    parent: int
    episode: int


@dataclass
class Recorder:
    """The spans of one traced call, in start order; ``names`` maps a span's
    boundary id to its name, and ``counts`` holds count-only boundaries."""

    names: list[str] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    stack: list[int] = field(default_factory=list)
    episode: int = -1

    def timed(self, name: str, fn, starts_episode: bool = False):
        """Wrap ``fn`` so that each call records one span."""
        self.names.append(name)
        bid = len(self.names) - 1
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_episode:
                self.episode += 1
            episode = self.episode
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(bid, start, end, parent, episode)

        return traced

    def counted(self, name: str, fn):
        """Wrap ``fn`` so that each call only increments a counter."""
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def count(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return count


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap one another.
    """
    child = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end_ns - s.start_ns
    return [s.end_ns - s.start_ns - c for s, c in zip(spans, child)]


def has_ancestor(spans: list[Span], index: int, boundary: int) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].boundary == boundary:
            return True
        parent = spans[parent].parent
    return False


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile, as numpy's default; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _resolve(boundary: Boundary):
    """(owner, attribute name, original object), or None if absent."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{boundary.module}")
    except ImportError:
        return None
    *path, attr = boundary.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


def _call_sites(original) -> list[tuple[object, str]]:
    """Every module-level name in the package bound to ``original``."""
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE
                               or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, attr))
    return sites


@contextlib.contextmanager
def installed(recorder: Recorder, boundaries: list[Boundary]):
    """Install wrappers for ``boundaries``; yield the names found absent.

    Functions are replaced at every module attribute bound to them, methods
    on their class.  On exit every patched attribute gets its original object
    back, and a site that does not hold it afterwards raises.
    """
    patched: list[tuple[object, str, object]] = []
    absent: list[str] = []
    try:
        for b in boundaries:
            found = _resolve(b)
            if found is None:
                absent.append(b.name)
                continue
            owner, attr, original = found
            if b.timed:
                wrapper = recorder.timed(b.name, original, b.starts_episode)
            else:
                wrapper = recorder.counted(b.name, original)
            sites = [(owner, attr)] if isinstance(owner, type) \
                else _call_sites(original)
            for site, name in sites:
                setattr(site, name, wrapper)
                patched.append((site, name, original))
        yield absent
    finally:
        for site, name, original in reversed(patched):
            setattr(site, name, original)
        for site, name, original in patched:
            current = site.__dict__[name] if isinstance(site, type) \
                else getattr(site, name)
            if current is not original:
                raise RuntimeError(f"failed to restore {site!r}.{name}")
