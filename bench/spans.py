"""Timing spans around fdsolve's layer boundaries, installed from outside.

``Recorder.patch`` swaps each boundary function for a wrapper that records
calls, total time and self time (duration minus the time covered by the
wrapped calls nested inside it).  Self times over all spans therefore add
up to the time of the outermost spans without double counting.

A wrapper only sees calls that look the function up where it was patched:
``search`` imports ``build_constraint_graph`` and ``decompose_analysis`` by
name, so those are patched in ``search`` as well as in ``graph``.
``check_lookups`` fails if any fdsolve module still holds an unwrapped
reference to a patched function.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Recorder:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        # filter calls that removed at least one value
        self.pruned: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for table in (self.calls, self.total_s, self.self_s, self.pruned):
            table.clear()

    def _wrap(self, name: str, fn, prunes: bool):
        stack = self._stack
        calls, total_s, self_s, pruned = (self.calls, self.total_s,
                                          self.self_s, self.pruned)

        def span(*args, **kwargs):
            if prunes:
                counters = args[1].counters
                before = counters.domain_events
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                calls[name] += 1
                total_s[name] += dur
                self_s[name] += dur - child
                if stack:
                    stack[-1] += dur
                if prunes and counters.domain_events != before:
                    pruned[name] += 1

        return span

    def patch(self, targets) -> None:
        """Wrap ``owner.attr`` for each ``(owner, attr, span_name, prunes)``.

        ``prunes`` marks propagator ``filter(self, state)`` methods, whose
        calls are also counted when they change a domain.
        """
        for owner, attr, name, prunes in targets:
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn, prunes)
            setattr(owner, attr, wrapper)
            self._saved.append((owner, attr, fn))
            if getattr(owner, attr) is not wrapper:
                raise RuntimeError(f"could not patch {owner!r}.{attr}")

    def unpatch(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def check_lookups(self, package: str, skip: tuple[str, ...]) -> None:
        """Fail if a submodule of ``package`` (other than those in ``skip``)
        still binds a patched function to an unwrapped name.  The package
        itself only re-exports names for callers outside it."""
        originals = {id(fn): f"{getattr(owner, '__name__', owner)}.{attr}"
                     for owner, attr, fn in self._saved}
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith(package + ".") or modname in skip:
                continue
            for name, value in vars(mod).items():
                if id(value) in originals:
                    raise RuntimeError(
                        f"{modname}.{name} still calls the unwrapped "
                        f"{originals[id(value)]}; patch it there too")


class CountingFactory:
    """Stands in for a class so every instance created through this name is
    kept; used for the per-run ``PropagationCounters`` of each search."""

    def __init__(self, cls):
        self.cls = cls
        self.made: list = []

    def __call__(self, *args, **kwargs):
        obj = self.cls(*args, **kwargs)
        self.made.append(obj)
        return obj
