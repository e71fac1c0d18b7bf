"""The machine's current speed, measured by a fixed reference workload.

The benchmark shares a few cores of a busy host.  How fast the same
Python code runs moves by a third within a second, and for minutes at a
time, with the load of other tenants.  A worker times `reference()`
between operations (worker.REF_GAP_S), and run.py scales the pass's
operation times by `factor` of the median of those samples.  Both run in
the same interpreter on the same kind of work (small tuples, dicts and
frozensets, hashed and sorted), so load slows them together, and the
scaled time follows the program's cost more closely than the host's.
The reference uses ints only, so it does the same work under every hash
seed, and it does not touch `actorcap`.
"""

from __future__ import annotations

import time

# The reference's median time between operations on the machine the
# benchmark was defined on (a shared 2-core x86-64 KVM guest, Python
# 3.11), so scaled times read as seconds there.
REF_S = 0.0125

# How much of the reference's slowdown the operations share, in log terms:
# the factor is (REF_S / median) ** sensitivity.  Short operations, which
# weigh most in op_geomean_ms, slow down with the reference; long ones,
# which make up most of wall_s, less.  Over sets of five to six runs of
# each workload on that machine, the spread between runs was least at
# 1.0 for op_geomean_ms and about 0.6 for wall_s (0.058 and 0.062 as
# IQR/median, mean of 7 sets; 0.091 for wall_s at 1.0).  Set-up, also
# short work, uses the short exponent.
SENSITIVITY_SUM = 0.6
SENSITIVITY_SHORT = 1.0


def factor(ref_median_s: float, sensitivity: float) -> float:
    """Multiplier from a time measured at this reference median to REF_S.

    Multiplying a time measured while the reference's median was
    ref_median_s by it gives the time at the speed where it takes REF_S.
    """
    return (REF_S / ref_median_s) ** sensitivity


def _work(n: int = 7500) -> int:
    memo: dict[tuple[int, int, int], int] = {}
    acc = 0
    for i in range(n):
        key = (i % 97, (i * 31) % 101, i % 53)
        fs = frozenset((key[0], key[1], i % 7))
        memo[key] = memo.get(key, 0) + len(fs)
        acc += hash(fs) & 7
    return acc + len(sorted(memo.items()))


def reference() -> float:
    """Seconds the fixed reference workload takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
