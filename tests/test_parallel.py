"""``parallel.fan_out``: every chunk's result once, in chunk order, from the
caller alone at one process and from the caller and forked workers above
it, on as many processes as the chunks fill."""

import multiprocessing
import subprocess
import sys
import time

import pytest

from conftest import time_limit
from mrfmap import parallel
from mrfmap.parallel import fan_out


def square(chunk):
    return chunk * chunk


def fail_on_five(chunk):
    if chunk == 5:
        raise RuntimeError("chunk 5 failed")
    return chunk


def sleep_then_clock(seconds):
    """Sleep ``seconds``, then return them with the finishing time."""
    time.sleep(seconds)
    return seconds, time.monotonic()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_every_index_once_with_its_result(monkeypatch, pools, cpus):
    monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
    chunks = [3, -1, 4, 1, -5, 9, 2, 6]  # more chunks than processes
    with time_limit(60):
        got = list(fan_out(square, chunks))
    assert got == [square(chunk) for chunk in chunks]
    assert pools == ([cpus - 1] if cpus > 1 else [])
    assert multiprocessing.active_children() == []


def test_results_come_in_chunk_order_whenever_they_finish(monkeypatch, pools):
    # Three processes: the caller takes chunks 0 and 3, two workers the
    # others. Chunk 1 sleeps longest, so chunk 2 and others after it finish
    # before it, and are held until its turn.
    monkeypatch.setattr(parallel, "available_cpus", lambda: 3)
    chunks = [0.0, 0.6, 0.0, 0.0, 0.0, 0.0]
    with time_limit(60):
        got = list(fan_out(sleep_then_clock, chunks))
    assert [seconds for seconds, _ in got] == chunks
    finished = [clock for _, clock in got]
    assert finished[2] < finished[1] and finished[4] < finished[1]
    assert pools == [2]


def test_more_cpus_than_chunks_start_one_worker_per_other_chunk(monkeypatch, pools):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 8)
    with time_limit(60):
        assert list(fan_out(square, [1, 2, 3])) == [1, 4, 9]
    assert pools == [2]
    assert parallel.processes_for(3) == 3 and parallel.processes_for(0) == 1


def test_early_close_joins_the_workers(monkeypatch, pools):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    results = fan_out(sleep_then_clock, [0.0, 0.2, 0.2, 0.2, 0.2])
    with time_limit(60):
        assert next(results)[0] == 0.0
        results.close()
    assert pools == [1]
    assert multiprocessing.active_children() == []


def test_one_process_imports_no_pool_machinery():
    # One chunk is one process whatever the CPUs; two are one on one CPU.
    code = ("import sys\n"
            "from mrfmap import parallel\n"
            "assert list(parallel.fan_out(abs, [-1])) == [1]\n"
            "parallel.available_cpus = lambda: 1\n"
            "assert list(parallel.fan_out(abs, [-1, -2])) == [1, 2]\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


# The failing chunk sits at index 0, the caller's at every process count,
# or at index 5, a worker's at 2 and 3 processes.
@pytest.mark.parametrize("bad_first", [False, True])
@pytest.mark.parametrize("processes", [1, 2, 3])
def test_worker_error_reaches_caller(monkeypatch, processes, bad_first):
    monkeypatch.setattr(parallel, "available_cpus", lambda: processes)
    chunks = [5, 0, 1, 2, 3, 4, 6] if bad_first else list(range(7))
    got = []
    with time_limit(60), pytest.raises(RuntimeError, match="chunk 5 failed"):
        got.extend(fan_out(fail_on_five, chunks))
    # Every chunk before the failing one has come in, and none after it.
    assert got == chunks[:chunks.index(5)]
    assert multiprocessing.active_children() == []
