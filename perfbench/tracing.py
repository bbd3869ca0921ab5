"""Spans around the calls into each reactlin module, kept in memory.

``Tracer.install`` wraps every public function (a name in a module's
``__all__`` that the module defines) at every ``reactlin.*`` module
binding that holds it.  ``from .core import decompose`` copies the name
into the importing module, so wrapping only ``reactlin.core.decompose``
would miss the calls that ``amplification`` or ``cli`` make through their
own copies.  Calls inside the defining module go through its globals and
are wrapped too.

A span is a list ``[name, parent, t0_ns, t1_ns, op, exc, value]``:
``parent`` is the index of the enclosing span (None for a root),
``op`` the index of the benchmark operation that caused it, ``exc`` the
exception type name if the call raised, and ``value`` the ``rho_max`` of
the result when it has one.  Times are ``time.perf_counter_ns``, which is
CLOCK_MONOTONIC on Linux, so spans from a child process line up with the
parent's.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

NAME, PARENT, T0, T1, OP, EXC, VALUE = range(7)
PACKAGE = "reactlin"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else None, 0, 0, self.op, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[T0] = perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[T1] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        except BaseException as exc:
            rec[EXC] = type(exc).__name__
            raise
        finally:
            self._close(rec)

    def wrap(self, fn, name: str):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = open_(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[EXC] = type(exc).__name__
                raise
            finally:
                close(rec)
            rec[VALUE] = getattr(result, "rho_max", None)
            return result

        return traced

    def install(self) -> None:
        """Wrap the package's public functions at every binding."""
        mods = [
            m for n, m in sorted(sys.modules.items())
            if (n == PACKAGE or n.startswith(PACKAGE + ".")) and inspect.ismodule(m)
        ]
        for mod in mods:
            short = mod.__name__.rpartition(".")[2]
            for attr in getattr(mod, "__all__", ()):
                fn = vars(mod).get(attr)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                traced = self.wrap(fn, f"{short}.{attr}")
                for holder in mods:
                    for key, val in list(vars(holder).items()):
                        if val is fn:
                            self._patches.append((holder, key, fn))
                            setattr(holder, key, traced)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, fn = self._patches.pop()
            setattr(holder, key, fn)

    def merge(self, child_spans: list[list]) -> None:
        """Append spans recorded in another process under the open span."""
        parent = self._stack[-1]
        offset = len(self.spans)
        for rec in child_spans:
            rec = list(rec)
            rec[PARENT] = parent if rec[PARENT] is None else rec[PARENT] + offset
            rec[OP] = self.op
            self.spans.append(rec)


# ---------------------------------------------------------------------------
# analysis


def covered(intervals, lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def children(spans: list[list]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[PARENT] is not None:
            kids[rec[PARENT]].append(i)
    return kids


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its child spans cover (ns)."""
    kids = children(spans)
    return [
        rec[T1] - rec[T0]
        - covered(((spans[k][T0], spans[k][T1]) for k in kids.get(i, ())), rec[T0], rec[T1])
        for i, rec in enumerate(spans)
    ]


def has_ancestor(spans: list[list], i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p is not None:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False
