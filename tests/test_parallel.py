"""``parallel.fan_out``: every chunk's result exactly once, from the caller
alone at one process and from the caller and forked workers above it."""

import multiprocessing
import subprocess
import sys

import pytest

from conftest import time_limit
from mrfmap.parallel import fan_out


def square(chunk):
    return chunk * chunk


def fail_on_five(chunk):
    if chunk == 5:
        raise RuntimeError("chunk 5 failed")
    return chunk


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_every_index_once_with_its_result(pools, processes):
    chunks = [3, -1, 4, 1, -5, 9, 2, 6]  # more chunks than processes
    with time_limit(60):
        got = list(fan_out(square, chunks, processes))
    assert sorted(i for i, _ in got) == list(range(len(chunks)))
    assert dict(got) == {i: square(chunk) for i, chunk in enumerate(chunks)}
    assert pools == ([processes - 1] if processes > 1 else [])
    assert multiprocessing.active_children() == []


def test_one_process_imports_no_pool_machinery():
    code = ("import sys\n"
            "from mrfmap.parallel import fan_out\n"
            "assert list(fan_out(abs, [-1, -2], 1)) == [(0, 1), (1, 2)]\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


# The failing chunk sits at index 0, the caller's at every process count,
# or at index 5, a worker's at 2 and 3 processes.
@pytest.mark.parametrize("bad_first", [False, True])
@pytest.mark.parametrize("processes", [1, 2, 3])
def test_worker_error_reaches_caller(processes, bad_first):
    chunks = [5, 0, 1, 2, 3, 4, 6] if bad_first else list(range(7))
    with time_limit(60), pytest.raises(RuntimeError, match="chunk 5 failed"):
        list(fan_out(fail_on_five, chunks, processes))
    assert multiprocessing.active_children() == []
