"""Small numeric helpers: bisection, adaptive Simpson quadrature, and a
thread-pool map that returns in input order."""

from __future__ import annotations

import os
from typing import Callable, Iterable

from .errors import ConfigParseError

BISECT_MAX_ITER = 200
SIMPSON_MAX_DEPTH = 40


def bisect_root(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Locate a sign change of f in [a, b] by bisection.

    Requires f(a) and f(b) to have opposite signs (zero endpoints are returned
    directly). Returns the midpoint of the final bracket of width <= tol, or
    of two adjacent floats when tol is below their spacing.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise ValueError(f"root not bracketed on [{a}, {b}]: f(a)={fa}, f(b)={fb}")
    for _ in range(BISECT_MAX_ITER):
        m = 0.5 * (a + b)
        if b - a <= tol or not a < m < b:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive_simpson(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _adaptive_simpson(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1))


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-10) -> float:
    """Adaptive Simpson quadrature of f over [a, b] with absolute tolerance tol."""
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(fa, fm, fb, b - a)
    return _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, SIMPSON_MAX_DEPTH)


def thread_count() -> int:
    """Worker count for parallel scans; capped by the integer env variable NMFLOW_THREADS."""
    n = os.cpu_count() or 1
    cap = os.environ.get("NMFLOW_THREADS")
    if cap is not None:
        try:
            n = max(1, min(n, int(cap)))
        except ValueError:
            raise ConfigParseError(f"NMFLOW_THREADS must be an integer, got {cap!r}") from None
    return n


def parallel_map(fn: Callable, items: Iterable, workers: int) -> list:
    """[fn(x) for x in items], in input order; with more than one worker the
    calls run on a pool of that many threads. An exception raised by a call
    is raised here, that of the first failing item in input order."""
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay its import
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def chunk_indices(n: int, chunk: int) -> Iterable[tuple[int, int]]:
    """Yield (start, stop) pairs covering range(n) in chunks."""
    for start in range(0, n, chunk):
        yield start, min(start + chunk, n)
