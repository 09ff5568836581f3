"""Scan every float32 the sampler's float32 route can take its cos and sin of, against float64.

Run from anywhere, with numpy:

    python tools/f32_trig_scan.py

``oracle._filtered_counts`` takes ``np.cos`` and ``np.sin`` in float32 of
d = theta2 - theta1 rounded to float32, with both angles in [0, 2 pi), so d
rounds to a float32 of magnitude at most float32(2 pi), about 1.1e9 values of
each sign.  This script evaluates both functions on every one of them, in
chunks of consecutive bit patterns, and prints the most float32 ulps by which
each lies from the float64 function at the same argument (the ulp being the
float32 spacing just below the float64 value, the finer one at a power of two;
float64's own error is below 1e-8 of that).  ``oracle._ULPS32`` is the bound
the filter assumes.  Chunks of 2^21 values run on one thread per usable core,
since numpy releases the interpreter lock in its ufuncs; each thread holds a
few arrays of 16 MiB.  The package never imports this file.
"""

from __future__ import annotations

import math
import os
import threading
import time

import numpy as np

# The largest bit pattern scanned: float32(2 pi), the float32 nearest 2 pi, which lies just above it.
LAST = int(np.float32(2.0 * math.pi).view(np.uint32))
CHUNK = 1 << 21


def ulps32(value: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Float32 ulps between ``value`` and the float64 ``reference``, in the spacing just below ``|reference|``."""
    below = np.nextafter(np.abs(reference), 0.0)
    exponent = np.where(below > 0.0, np.frexp(below)[1], -125)
    return np.abs(value.astype(float) - reference) / np.ldexp(1.0, np.maximum(exponent - 24, -149))


def scan_chunk(first: int, count: int, sign: int) -> dict:
    """Worst ulps and their arguments for cos and sin over ``count`` bit patterns from ``first``, with ``sign``."""
    bits = np.arange(first, first + count, dtype=np.uint32) | np.uint32(sign << 31)
    x = bits.view(np.float32)
    wide = x.astype(float)
    worst = {}
    for name, fn in (("cos", np.cos), ("sin", np.sin)):
        off = ulps32(fn(x), fn(wide))
        i = int(np.argmax(off))
        worst[name] = (float(off[i]), float(x[i]))
    return worst


def scan(workers: int) -> dict:
    """The worst ulps of float32 cos and sin over every float32 of magnitude up to float32(2 pi)."""
    tasks = [(first, min(CHUNK, LAST + 1 - first), sign) for sign in (0, 1) for first in range(0, LAST + 1, CHUNK)]
    results, lock = [], threading.Lock()

    def work(k):
        for task in tasks[k::workers]:
            worst = scan_chunk(*task)
            with lock:
                results.append(worst)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if len(results) != len(tasks):
        raise RuntimeError(f"{len(tasks) - len(results)} chunks failed")
    return {name: max(r[name] for r in results) for name in ("cos", "sin")}


def main() -> None:
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    start = time.perf_counter()
    worst = scan(workers)
    print(f"{2 * (LAST + 1)} float32 values, |x| <= {float(np.float32(2.0 * math.pi))!r}")
    for name, (ulps, x) in worst.items():
        print(f"float32 {name}: at most {ulps:.4f} ulps, at x = {x!r}")
    print(f"{time.perf_counter() - start:.1f} s on {workers} threads")


if __name__ == "__main__":
    main()
