"""Machine-speed probe: a fixed pure-Python kernel, timed between jobs.

On a shared 2-core host the same code runs up to ~1.7x slower in phases
of seconds to minutes.  The process's CPU time slows exactly as much as
its wall time, so the slowdown is in the core (other tenants), not in
scheduling, and neither CPU time nor the fastest of a few runs removes
it.  run.py therefore times this kernel just before and just after each
job run, and reports the job's time scaled to a machine on which the
kernel takes REF_MS:

    scaled = measured * REF_MS / kernel   (kernel: geometric mean of the two)

The kernel imports nothing from the program and runs with the garbage
collector off, so a change to the program moves a scaled time by the
same factor as the measured one.  Its loops are the program's kind of
work: dict-of-int sparse products and reduced integer fractions under
tuple keys.
"""

from __future__ import annotations

import gc
from math import gcd, sqrt
from time import perf_counter

REF_MS = 3.0  # about the kernel's time on the host it was built on, in fast phases


def _reduce(num, den):
    g = gcd(num, den)
    return num // g, den // g


def _kernel():
    a = {k: (k * 7919) % 97 - 48 for k in range(-24, 24)}
    out = {}
    for i, x in a.items():
        for j, y in a.items():
            k = i + j
            s = out.get(k, 0) + x * y
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    p = {(i, j): _reduce(i - j, 1 + i + j) for i in range(7) for j in range(7)}
    q = {}
    for ka, (na, da) in p.items():
        for kb, (nb, db) in p.items():
            k = (ka[0] + kb[0], ka[1] + kb[1])
            n, d = q.get(k, (0, 1))
            q[k] = _reduce(n * da * db + na * nb * d, d * da * db)
    return len(out) + len(q)


def kernel_ms():
    """One timed run of the kernel, in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        return (perf_counter() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()


def median_kernel_ms(runs=5):
    xs = sorted(kernel_ms() for _ in range(runs))
    return xs[len(xs) // 2]


def scale(measured, before_ms, after_ms):
    """`measured` at the reference speed, from kernel times around it."""
    return measured * REF_MS / sqrt(before_ms * after_ms)
