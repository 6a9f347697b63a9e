"""Helpers shared by the tests that fork worker processes."""

import concurrent.futures
import signal
from contextlib import contextmanager

import pytest


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


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of every ProcessPoolExecutor made while the test runs."""
    made = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def counting_pool(max_workers, **kwargs):
        made.append(max_workers)
        return real_pool(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
    return made
