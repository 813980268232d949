"""Calibration: a fixed kernel timed between slices of a pass, so pass times
can be rescaled to a steady machine speed.

The host this benchmark runs on changes speed by up to 1.5-2x for seconds to
minutes at a time, and the process cannot see why.  `SliceClock` cuts a
pass into slices of about SLICE_S seconds with a one-shot interval timer
(SIGALRM, so no extra thread or process): at the end of each slice the
signal handler runs `kernel()` once and times it.  Each slice's time is then
scaled by REF_KERNEL_S / (the kernel's time right after that slice), and a
pass's scaled time is the sum over its slices: the time the pass would have
taken on a machine where the kernel takes REF_KERNEL_S throughout.  The
kernel's own time is not part of the pass time.

The kernel does the kinds of work coverpack does -- exponent tuples folded
and reduced to an antichain through packed-integer divisibility tests,
branch-and-bound over bit masks, a depth-first packing search -- in code of
its own, so a change to coverpack does not change the yardstick.
"""

from __future__ import annotations

import signal
from itertools import combinations
from time import perf_counter, process_time

SLICE_S = 0.2
# the machine speed the scaled times refer to: one kernel() in 20 ms
REF_KERNEL_S = 0.020
_FIELD = 8


def _fold(n: int, s: int) -> int:
    """Generators of the intersection of s-th powers of the primes spanned by
    n-cycle windows of three variables, folded prime by prime."""
    high = sum(1 << (_FIELD * i + _FIELD - 1) for i in range(n))
    primes = [tuple((i + j) % n for j in range(3)) for i in range(n)]
    current = [tuple(s if v == k else 0 for v in range(n)) for k in primes[0]]
    for p in primes[1:]:
        cands = set()
        for g in current:
            need = s - sum(g[i] for i in p)
            if need <= 0:
                cands.add(g)
                continue
            for a in range(need + 1):
                for b in range(need - a + 1):
                    gg = list(g)
                    gg[p[0]] += a
                    gg[p[1]] += b
                    gg[p[2]] += need - a - b
                    cands.add(tuple(gg))
        kept, kept_packed = [], []
        for m in sorted(cands, key=lambda m: (sum(m), m)):
            pm = 0
            for i, e in enumerate(m):
                pm |= e << (_FIELD * i)
            if all(((pm | high) - a) & high != high for a in kept_packed):
                kept.append(m)
                kept_packed.append(pm)
        current = kept
    return len(current)


def _transversals(n: int) -> int:
    """Minimal hitting sets of the connected 3-windows of an n-cycle."""
    edges = tuple(sorted(sum(1 << ((i + j) % n) for j in range(3)) for i in range(n)))
    found = set()

    def rec(chosen, remaining, excluded):
        if not remaining:
            found.add(chosen)
            return
        m = remaining[0] & ~excluded
        seen = 0
        while m:
            low = m & -m
            m ^= low
            rec(chosen | low, tuple(f for f in remaining if not f & low), excluded | seen)
            seen |= low

    rec(0, edges, 0)
    minimal = []
    for t in sorted(found, key=lambda t: (bin(t).count("1"), t)):
        if not any(t & s == s for s in minimal):
            minimal.append(t)
    return len(minimal)


def _packing(n: int, cap: int) -> int:
    """Most 3-windows of an n-path packable with each vertex used <= cap."""
    cols = [tuple(range(i, i + 3)) for i in range(n - 2)]
    cols += [c for c in combinations(range(n), 2) if c[1] - c[0] == 2]
    residual = [cap] * n
    best = 0

    def dfs(i, count):
        nonlocal best
        best = max(best, count)
        if i == len(cols):
            return
        hi = min(residual[r] for r in cols[i])
        for z in range(hi, -1, -1):
            for r in cols[i]:
                residual[r] -= z
            dfs(i + 1, count + z)
            for r in cols[i]:
                residual[r] += z

    dfs(0, 0)
    return best


def kernel() -> tuple[int, int, int]:
    return _fold(7, 3), _transversals(13), _packing(8, 2)


# kernel()'s result; a different one means the yardstick changed
EXPECTED = (144, 78, 8)


class SliceClock:
    """Times a pass in slices, with a kernel timing after each slice.

    Use as a context manager around the timed call; afterwards `wall` and
    `cpu` are the pass's own times (kernel runs excluded) and `scaled_wall`
    and `scaled_cpu` the same rescaled slice by slice to REF_KERNEL_S.
    """

    def __init__(self):
        self.slices: list[tuple[float, float, float, float]] = []
        self.kernel_ok = True

    def _tick(self, *_):
        w, c = perf_counter() - self._w0, process_time() - self._c0
        w0, c0 = perf_counter(), process_time()
        self.kernel_ok &= kernel() == EXPECTED
        self.slices.append((w, c, perf_counter() - w0, process_time() - c0))
        self._w0, self._c0 = perf_counter(), process_time()

    def _tick_and_rearm(self, *_):
        self._tick()
        # a signal already pending when the pass ended must not re-arm
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, SLICE_S)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick_and_rearm)
        self._armed = True
        self._w0, self._c0 = perf_counter(), process_time()
        signal.setitimer(signal.ITIMER_REAL, SLICE_S)
        return self

    def __exit__(self, *exc):
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()
        signal.signal(signal.SIGALRM, self._saved)
        return False

    @property
    def wall(self) -> float:
        return sum(s[0] for s in self.slices)

    @property
    def cpu(self) -> float:
        return sum(s[1] for s in self.slices)

    @property
    def scaled_wall(self) -> float:
        return sum(w * REF_KERNEL_S / kw for w, _c, kw, _kc in self.slices)

    @property
    def scaled_cpu(self) -> float:
        return sum(c * REF_KERNEL_S / kc for _w, c, _kw, kc in self.slices)

    @property
    def kernel_s(self) -> float:
        return sum(s[2] for s in self.slices)
