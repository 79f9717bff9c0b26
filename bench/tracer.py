"""In-memory spans around the library's public functions.

The tracer wraps a function at every name its callers look it up by:
each ``confocal_billiards`` module whose global of that name *is* the
function gets the wrapper (``from .geometry import cartesian_to_elliptic``
makes ``engine.cartesian_to_elliptic`` such a name).  Nothing under
``src/`` changes; :meth:`Tracer.uninstall` puts the originals back.

A span is (id, parent id, item id, name, start, end, ok, work).  ``ok``
is false when the call raised, or when ``outcome`` judged the result a
miss; ``work`` is an amount of work read from the arguments (orbit
bounces, say).  Spans stay in a list until :meth:`Tracer.write` saves
them as one ``.npz`` of columns: ``id``, ``parent`` (-1 at the top),
``item``, ``name`` (index into ``names``), ``t0``, ``t1`` (seconds, one
clock), ``ok`` and ``work``.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

PACKAGE = "confocal_billiards"


@dataclass(frozen=True)
class Target:
    """A public function to trace: ``module`` is where it is defined."""

    module: str
    name: str
    outcome: Callable | None = None     # result -> bool (hit / miss)
    work: Callable | None = None        # (args, kwargs) -> float

    @property
    def label(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    item: int = -1
    active: bool = False
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def install(self, targets) -> None:
        """Patch every lookup site of each target; unknown targets are noted."""
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for target in targets:
            home = sys.modules.get(f"{PACKAGE}.{target.module}")
            original = getattr(home, target.name, None) if home else None
            if not callable(original):
                self.missing.append(target.label)
                continue
            wrapper = self._wrap(target, original)
            for mod in mods:
                if getattr(mod, target.name, None) is original:
                    setattr(mod, target.name, wrapper)
                    self._patched.append((mod, target.name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        label, outcome, work = target.label, target.outcome, target.work
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            amount = work(args, kwargs) if work else 0.0
            stack.append(sid)
            spans.append(None)      # reserve the id; filled on exit
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = outcome(result) if outcome else True
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.item, label, t0, t1, ok, amount)

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        names = sorted({s[3] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 8
        np.savez_compressed(
            path, names=np.array(names, dtype=str),
            id=np.array(cols[0], dtype=np.int64), parent=np.array(cols[1], dtype=np.int64),
            item=np.array(cols[2], dtype=np.int64),
            name=np.array([index[n] for n in cols[3]], dtype=np.int32),
            t0=np.array(cols[4], dtype=float), t1=np.array(cols[5], dtype=float),
            ok=np.array(cols[6], dtype=bool), work=np.array(cols[7], dtype=float))


@dataclass
class LayerStats:
    calls: int = 0
    ok: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    work: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


def layer_stats(spans) -> dict[str, LayerStats]:
    """Per-name calls, hits, inclusive and self time, and work.

    Calls are sequential, so a span's children never overlap and its self
    time is its duration minus the sum of its direct children's.
    """
    stats: dict[str, LayerStats] = {}
    for sid, parent, _item, name, t0, t1, ok, work in spans:
        st = stats.setdefault(name, LayerStats())
        st.calls += 1
        st.ok += bool(ok)
        st.total_s += t1 - t0
        st.work += work
        if parent >= 0:
            pname = spans[parent][3]
            stats.setdefault(pname, LayerStats()).child_s += t1 - t0
    return stats
