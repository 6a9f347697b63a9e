"""``parallel.fan_out`` and ``parallel.thread_map``: every chunk's result
once, in chunk order, from the caller alone at one CPU and from the caller
and forked workers or threads above it, on as many as the chunks fill, each
worker pinned off the caller's CPU."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

from conftest import time_limit
from mrfmap import parallel
from mrfmap.parallel import fan_out, thread_map


def square(chunk):
    return chunk * chunk


def fail_on_five(chunk):
    if chunk == 5:
        raise RuntimeError("chunk 5 failed")
    return chunk


def affinity(_):
    return os.sched_getaffinity(0)


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
    # One chunk is one process or thread whatever the CPUs; two are one on
    # one CPU.
    code = ("import sys\n"
            "from mrfmap import parallel\n"
            "assert list(parallel.fan_out(abs, [-1])) == [1]\n"
            "parallel.available_cpus = lambda: 1\n"
            "assert list(parallel.fan_out(abs, [-1, -2])) == [1, 2]\n"
            "import threading\n"
            "threading.Thread.start = lambda self: sys.exit('a thread started')\n"
            "assert parallel.thread_map(abs, [-1, -2]) == [1, 2]\n"
            "parallel.available_cpus = lambda: 2\n"
            "assert parallel.thread_map(abs, [-1]) == [1] and parallel.thread_map(abs, []) == []\n"
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


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_threads_keep_chunk_order_and_the_caller_runs_chunk_zero(monkeypatch, cpus):
    monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
    threads = threading.active_count()
    chunks = [3, -1, 4, 1, -5, 9, 2, 6]
    with time_limit(60):
        got = thread_map(lambda chunk: (square(chunk), threading.current_thread()), chunks)
    assert [result for result, _ in got] == [square(chunk) for chunk in chunks]
    # Chunk i runs in the thread of chunk i mod P, chunk 0's is the caller.
    ran_in = [thread for _, thread in got]
    assert ran_in[0] is threading.current_thread()
    assert ran_in == [ran_in[i % cpus] for i in range(len(chunks))]
    assert len(set(ran_in)) == cpus
    assert threading.active_count() == threads


@pytest.mark.parametrize("failing", [0, 1])
def test_thread_error_is_raised_after_every_thread_is_joined(monkeypatch, failing):
    # Three threads: the caller runs chunks 0 and 3, two threads 1 and 4,
    # and 2 and 5. The failing chunk fails at once, the caller's or a
    # thread's, while the third thread sleeps in chunk 2 and then runs 5.
    monkeypatch.setattr(parallel, "available_cpus", lambda: 3)
    threads, done = threading.active_count(), []

    def work(chunk):
        if chunk == failing:
            raise RuntimeError(f"chunk {chunk} failed")
        if chunk == 2:
            time.sleep(0.3)
        done.append(chunk)
        return chunk

    with time_limit(60), pytest.raises(RuntimeError, match=f"chunk {failing} failed"):
        thread_map(work, list(range(6)))
    assert {2, 5} <= set(done)
    assert threading.active_count() == threads


def test_first_failed_chunk_in_chunk_order_is_raised(monkeypatch):
    # Chunk 1's thread fails late, chunk 2's at once: chunk 1's turn is first.
    monkeypatch.setattr(parallel, "available_cpus", lambda: 3)

    def work(chunk):
        if chunk == 1:
            time.sleep(0.2)
        if chunk:
            raise RuntimeError(f"chunk {chunk} failed")
        return chunk

    with time_limit(60), pytest.raises(RuntimeError, match="chunk 1 failed"):
        thread_map(work, [0, 1, 2])


def test_many_threads_on_a_short_switch_interval(monkeypatch):
    # More threads than cores, switched every microsecond: each result
    # still lands in its own chunk's slot.
    monkeypatch.setattr(parallel, "available_cpus", lambda: 8)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with time_limit(60):
            for _ in range(20):
                assert thread_map(square, list(range(64))) == [square(i) for i in range(64)]
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads


def caller_cpus(monkeypatch):
    """The CPUs ``_current_cpu`` reads for each runner call while the test runs."""
    read, real = [], parallel._current_cpu
    monkeypatch.setattr(parallel, "_current_cpu", lambda: read.append(real()) or read[-1])
    return read


needs_two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                                    reason="pinning off a CPU needs a mask of 2 or more")


@needs_two_cpus
def test_threads_pin_off_the_callers_cpu(monkeypatch):
    mask = os.sched_getaffinity(0)
    read = caller_cpus(monkeypatch)
    with time_limit(60):
        got = thread_map(affinity, [0, 1, 2, 3])
    assert read[0] in mask
    # The caller keeps its mask; the thread runs off the caller's CPU.
    assert got[0] == got[2] == mask == os.sched_getaffinity(0)
    assert got[1] == got[3] == mask - {read[0]}


@needs_two_cpus
def test_fan_out_workers_pin_off_the_callers_cpu(monkeypatch, pools):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    mask = os.sched_getaffinity(0)
    read = caller_cpus(monkeypatch)
    with time_limit(60):
        got = list(fan_out(affinity, [0, 1, 2, 3]))
    assert got == [mask, mask - {read[0]}, mask, mask - {read[0]}]
    assert pools == [1] and os.sched_getaffinity(0) == mask


def test_no_pin_where_the_cpu_cannot_be_read(monkeypatch):
    def unreadable(*args, **kwargs):
        raise FileNotFoundError("/proc/thread-self/stat")

    monkeypatch.setattr(parallel, "open", unreadable, raising=False)
    assert parallel._current_cpu() is None
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    with time_limit(60):
        assert thread_map(affinity, [0, 1]) == [os.sched_getaffinity(0)] * 2


def test_current_cpu_is_in_the_mask():
    assert parallel._current_cpu() in os.sched_getaffinity(0)
