"""In-memory span tracer installed around polarlink's public functions.

The tracer wraps each traced function at every attribute a caller looks it up
through (the defining module, every module that imported it by name, or the
class that owns a method), records one span per call and restores the
original objects afterwards.  Spans stay in memory until the run ends.

Spans are timed on the calling thread's CPU clock.  With ``--seeds`` the op
fans out over threads that take turns holding the interpreter lock, and a
wall-clock span would also count the time its thread waited for the lock
while another thread ran.  A span's self time is its duration minus its
children's; the outermost spans of each thread have no parent.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    span_id: int
    parent_id: int | None  # None: outermost traced call of its thread
    op_id: int
    thread: int
    name: str
    start: float  # thread CPU seconds
    end: float
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One traced function: span name, owner module and attribute path.

    ``attrs`` maps (args, kwargs, result) to a dict of per-call quantities
    such as walk steps or a session outcome, or is None.
    """

    name: str
    module: str
    attr: str
    attrs: object = None


@dataclass
class _Installed:
    holder: object
    attr: str
    original: object


class TraceError(RuntimeError):
    """The span tree or the wrapper bookkeeping is inconsistent."""


class Tracer:
    """Records spans of wrapped calls; ``op_id`` labels the spans of one op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[_Installed] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped so that each call records a span."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.thread_time()
                stack.pop()
            tracer.spans.append(
                Span(
                    span_id,
                    parent,
                    tracer.op_id,
                    threading.get_ident(),
                    name,
                    start,
                    end,
                    attrs(args, kwargs, result) if attrs else None,
                )
            )
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self, targets) -> None:
        """Install a wrapper for each target at every lookup site."""
        if self._installed:
            raise TraceError("wrappers are already installed")
        for target in targets:
            for holder, attr, original in _lookup_sites(target):
                wrapper = self.wrap(target.name, original, target.attrs)
                self._installed.append(_Installed(holder, attr, original))
                setattr(holder, attr, wrapper)

    def restore(self) -> int:
        """Put every original object back and check that it is the original.

        Returns the number of attributes restored.
        """
        n = len(self._installed)
        for item in reversed(self._installed):
            setattr(item.holder, item.attr, item.original)
        for item in self._installed:
            current = (
                item.holder.__dict__[item.attr]
                if isinstance(item.holder, type)
                else getattr(item.holder, item.attr)
            )
            if current is not item.original:
                raise TraceError(f"{item.holder!r}.{item.attr} was not restored")
        self._installed.clear()
        return n


def _lookup_sites(target: Target):
    """Yield (holder, attribute, original) for each place callers look up."""
    module = importlib.import_module(target.module)
    owner_path, _, attr = target.attr.rpartition(".")
    if owner_path:
        owner = module
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        # Methods are looked up on the class at call time: one site.
        yield owner, attr, owner.__dict__[attr]
        return
    original = getattr(module, attr)
    package = target.module.split(".")[0]
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                yield mod, key, original


# -- arithmetic on finished spans ------------------------------------------


@dataclass
class OpAccount:
    """Self times of one operation's spans and the untraced remainder."""

    op_seconds: float  # CPU seconds of the op, all threads
    self_s: dict  # span id -> self seconds
    remainder_s: float  # op CPU time spent outside every span


def account(spans, op_seconds: float, tolerance: float = 1e-5) -> OpAccount:
    """Derive self times and check that they add up to the operation's time.

    Spans of one thread nest: each lies inside its parent and siblings do not
    overlap.  A span's self time is its duration minus its children's.  The
    remainder is the op's CPU time minus the top-level spans of every thread,
    so self times plus remainder equal the op's CPU time.
    """
    by_id = {s.span_id: s for s in spans}
    children: dict = {}
    for s in spans:
        if s.end < s.start:
            raise TraceError(f"span {s.span_id} ({s.name}) ends before it starts")
        if s.parent_id is not None:
            parent = by_id.get(s.parent_id)
            if parent is None or parent.thread != s.thread:
                raise TraceError(f"span {s.span_id} ({s.name}) has no parent in its thread")
            if s.start < parent.start or s.end > parent.end:
                raise TraceError(f"span {s.span_id} ({s.name}) lies outside its parent")
        children.setdefault((s.thread, s.parent_id), []).append(s)
    for group in children.values():
        group.sort(key=lambda c: c.start)
        for a, b in zip(group, group[1:]):
            if b.start < a.end:
                raise TraceError(f"spans {a.span_id} and {b.span_id} overlap in one thread")
    self_s = {
        s.span_id: s.duration - sum(c.duration for c in children.get((s.thread, s.span_id), ()))
        for s in spans
    }
    traced = sum(c.duration for (_, parent), group in children.items() if parent is None for c in group)
    remainder = op_seconds - traced
    if remainder < -tolerance:
        raise TraceError(f"top-level spans take {traced:.6f} s of a {op_seconds:.6f} s op")
    total = sum(self_s.values()) + remainder
    if abs(total - op_seconds) > tolerance:
        raise TraceError(f"self times add up to {total:.9f} s, not the op's {op_seconds:.9f} s")
    return OpAccount(op_seconds, self_s, remainder)
