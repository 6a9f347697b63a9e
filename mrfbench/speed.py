"""Machine-speed reference for scaling timings on a shared host.

On a shared host the speed of one core drifts. On the 2-core host this
benchmark was written on, it drifted by 20-100% over tens of seconds, for
BLAS, element-wise NumPy and interpreter-bound work alike. The benchmark
therefore times this fixed kernel just before and just after each round and
each set-up. It then scales that round's times by
``REFERENCE_S / median kernel time``. Scaled times are in "reference
seconds": the time the work would take if the kernel took ``REFERENCE_S``.
The kernel calls nothing in ``mrfmap``, so a change to the program moves
scaled times exactly as it moves raw ones. mrfbench/README.md gives the
spreads measured with and without scaling.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's time on the host above (OpenBLAS, 1 thread).
REFERENCE_S = 0.008
SAMPLES = 10

_RNG = np.random.default_rng(0)
_GEMM = _RNG.standard_normal((200, 200))
# The shape of the dict-build EPG state: 36 atoms x (N + 1) orders, complex.
_WAVE = _RNG.standard_normal((36, 1751)) + 1j * _RNG.standard_normal((36, 1751))
# Every result goes to a preallocated buffer. A kernel that allocated would
# time the allocator, whose state depends on what the program did before.
_GEMM_OUT = np.empty_like(_GEMM)
_WAVE_OUT = np.empty_like(_WAVE)
_WAVE_TMP = np.empty_like(_WAVE)


def _gemm() -> None:
    for _ in range(6):
        np.matmul(_GEMM, _GEMM, out=_GEMM_OUT)


def _waves() -> None:
    _WAVE_OUT[...] = _WAVE
    for _ in range(20):
        np.multiply(_WAVE_OUT, 0.999, out=_WAVE_OUT)
        np.multiply(_WAVE, 0.001, out=_WAVE_TMP)
        np.add(_WAVE_OUT, _WAVE_TMP, out=_WAVE_OUT)


def _interpreter() -> None:
    s = 0.0
    for i in range(30000):
        s += i * 0.5


PARTS = {"gemm": _gemm, "waves": _waves, "interpreter": _interpreter}


def kernel_times(samples: int = SAMPLES) -> list[dict]:
    """Wall time of each kernel part, for ``samples`` runs of the kernel.

    One untimed run goes first: the round before leaves the kernel's arrays
    out of cache, and the very first run also pays for page faults.
    """
    for part in PARTS.values():
        part()
    runs = []
    for _ in range(samples):
        times = {}
        for name, part in PARTS.items():
            t0 = time.perf_counter()
            part()
            times[name] = time.perf_counter() - t0
        runs.append(times)
    return runs


def scale(runs: list[dict]) -> float:
    """Factor that turns wall seconds into reference seconds."""
    return REFERENCE_S / statistics.median(sum(t.values()) for t in runs)
