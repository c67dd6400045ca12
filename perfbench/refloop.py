"""A fixed pure-Python reference loop, to divide machine speed out of timings.

It does the three kinds of work the library does, in fixed amounts: dict
updates keyed by tuples of names (paths and bases), polynomial arithmetic
modulo a prime on coefficient tuples wrapped in frozen dataclasses
(extension fields), and exact ``Fraction`` elimination (window linear
algebra over Q).  It imports nothing from the library, so a change to the
library cannot change its cost.  On a shared host the speed of this code
and of the library move together, so timings are reported both raw and
divided by the time of this loop measured right beside them.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class _Poly:
    coeffs: tuple


def _dict_work(rounds: int = 500) -> int:
    table: dict[tuple, int] = {}
    path: tuple = ()
    for i in range(rounds):
        path = (path + (f"e{i % 5}",))[-6:]
        key = (path[:3], i % 17)
        table[key] = table.get(key, 0) + 1
    return len(table)


def _mulmod(a: tuple, b: tuple, modulus: tuple, p: int) -> _Poly:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    d = len(modulus) - 1
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i]
        if c:
            for j in range(d + 1):
                out[i - d + j] = (out[i - d + j] - c * modulus[j]) % p
    return _Poly(tuple(out[:d]))


def _poly_work(rounds: int = 150) -> int:
    modulus, p = (1, 1, 0, 1), 5
    a = _Poly((1, 2, 3))
    seen: dict[tuple, int] = {}
    for i in range(rounds):
        b = _Poly((i % 5, (i * 3) % 5, 1))
        a = _mulmod(a.coeffs if any(a.coeffs) else (1,), b.coeffs, modulus, p)
        seen[a.coeffs] = seen.get(a.coeffs, 0) + 1
    return len(seen)


def _fraction_work(n: int = 7) -> int:
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(n + 1)] for i in range(n)]
    r = 0
    for c in range(n + 1):
        pivot = next((i for i in range(r, n) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(n):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == n:
            break
    return r


def reference_work() -> tuple:
    return _dict_work(), _poly_work(), _fraction_work()


def time_reference() -> float:
    """Seconds for one ``reference_work()``, with the garbage collector paused.

    Pausing it keeps the size of the caller's heap out of the timing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
