"""Measurement helpers shared by the benchmark workloads.

Spans are recorded from outside the program: the benchmark opens a span
around each call it makes into a fraclayer layer, and forwarding wrappers
record child spans when the program calls back into a profile, a layer
profile or a potential that the benchmark passed in. Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import contextmanager, nullcontext

def percentile(samples, q: float) -> float:
    """The q-th percentile (linear interpolation), kept only when at least ten
    samples lie beyond it; raises ValueError otherwise."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0 or n * (1.0 - q / 100.0) < 10.0 - 1e-9:
        raise ValueError(f"p{q:g} needs at least ten samples beyond it, "
                         f"have {n} samples")
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tracer:
    """In-memory spans (name, start, end, parent, attrs) and call counts."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, attrs]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name: str, fn, points: bool = False):
        """Forward calls to fn inside a child span; count calls, points."""

        def forward(*args, **kwargs):
            self.count(name + ".calls")
            if points and args:
                self.count(name + ".points", _size(args[0]))
            with self.span(name):
                return fn(*args, **kwargs)

        return forward

    # -- reading spans back ---------------------------------------------------

    def named(self, name: str, **attrs) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name
                and all(s[4].get(k) == v for k, v in attrs.items())]

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def children(self, i: int) -> list[int]:
        return [j for j, s in enumerate(self.spans) if s[3] == i]

    def self_time(self, i: int) -> float:
        """Span duration minus the time its child spans cover."""
        return self.duration(i) - sum(self.duration(j)
                                      for j in self.children(i))

    def dump(self) -> list[dict]:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 **({"attrs": s[4]} if s[4] else {})} for s in self.spans]


class NullTracer:
    """Tracing off: no spans, no counts, objects passed through unwrapped."""

    enabled = False

    def span(self, name: str, **attrs):
        return nullcontext()

    def count(self, name: str, k: float = 1) -> None:
        pass

    def wrap(self, name: str, fn, points: bool = False):
        return fn


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return int(math.prod(shape))


# ---------------------------------------------------------------------------
# forwarding wrappers for objects the program calls back into
# ---------------------------------------------------------------------------

def traced_profile(tr, u):
    """The ProfileFn u with its value and derivative callables forwarded."""
    if not tr.enabled:
        return u
    return dataclasses.replace(
        u, fn=tr.wrap("profile", u.fn, points=True),
        derivs=tuple(tr.wrap("profile", d, points=True) for d in u.derivs))


class TracedLayerProfile:
    """Forwards LayerProfile.eval through a child span; all else untouched."""

    def __init__(self, prof, tr):
        self._prof = prof
        self.eval = tr.wrap("construction.eval", prof.eval, points=True)

    def __getattr__(self, attr):
        return getattr(self._prof, attr)


def traced_layer_profile(tr, prof):
    return TracedLayerProfile(prof, tr) if tr.enabled else prof


def traced_potential(tr, pot):
    """The PotentialFn pot with W1, the solver's per-step call, forwarded."""
    if not tr.enabled:
        return pot
    return dataclasses.replace(pot, W1=tr.wrap("potentials.W1", pot.W1))
