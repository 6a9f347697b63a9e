"""Helpers shared by the tests: a constant flip-angle schedule, and a time
limit and a pool counter for the tests that start worker processes or
threads."""

import concurrent.futures
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from mrfmap.schedule import DEFAULT_TR_MS, SequenceSchedule


def constant_schedule(n_excitations, flip_deg, tr_ms=DEFAULT_TR_MS, *,
                      inversion_prep=True):
    """Constant flip-angle schedule at phase 0 and a constant TR."""
    return SequenceSchedule(
        flip_angles_rad=np.full(n_excitations, np.deg2rad(flip_deg)),
        rf_phases_rad=np.zeros(n_excitations),
        tr_ms=np.full(n_excitations, float(tr_ms)),
        inversion_prep=inversion_prep,
    )


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the main thread if the block runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class Pools(list):
    """Worker counts of every ProcessPoolExecutor made while a test runs,
    and in ``threads`` those of every ThreadPoolExecutor."""

    def __init__(self):
        super().__init__()
        self.threads = []


@pytest.fixture
def pools(monkeypatch):
    """The pools made while the test runs, counted as ``Pools``."""
    made = Pools()
    for name, counts in (("ProcessPoolExecutor", made), ("ThreadPoolExecutor", made.threads)):
        def counting_pool(max_workers, real_pool=getattr(concurrent.futures, name),
                          counts=counts, **kwargs):
            counts.append(max_workers)
            return real_pool(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, name, counting_pool)
    return made
