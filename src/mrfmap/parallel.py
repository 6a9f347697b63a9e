"""The CPU count and the forked worker pool that spread work over cores.

``build_dictionary`` fans its atom batches out through ``fan_out``, and
``nn.backprop.loss_and_grads`` the chunks of a training minibatch. The
chunks are the whole contract: ``fan_out`` yields their results in chunk
order, on as many processes as ``processes_for`` gives their count. No
option or environment variable changes that; every caller reads the CPU
count here, through ``available_cpus``. At one process ``fan_out`` runs
every chunk in the caller and starts no pool. Starting and joining a pool
of one worker costs 4.5-6.1 ms: median of 20 no-op calls at two processes
from callers of 30 to 280 MB resident, 2-core Xeon.
"""

from __future__ import annotations

import os


def available_cpus() -> int:
    """CPUs ``fan_out`` may spread work over.

    The size of this process's affinity mask, else the machine's count; 1
    where the platform cannot fork, so that the work stays in the caller.
    """
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def processes_for(count: int) -> int:
    """Processes ``fan_out`` runs ``count`` chunks on: one per chunk, up to
    ``available_cpus()``, and at least one."""
    return max(1, min(available_cpus(), count))


def fan_out(work, chunks: list):
    """Yield ``work(chunk)`` for every chunk, in chunk order.

    The chunks fill P = ``processes_for(len(chunks))`` processes. At P = 1
    the calling process runs every chunk and no pool starts. Otherwise the
    caller runs every P-th chunk from the first itself, and P - 1 forked
    workers take the rest, all submitted when the first result is asked
    for. A worker that finishes a chunk before its turn holds the result
    in the caller's pool until then. A forked worker starts from the
    caller's memory, so it imports nothing again and sees the module
    globals the caller had when the pool started; ``work`` and each chunk
    are pickled to it and its result pickled back. An error raised by
    ``work`` in a worker is raised again in the caller when that chunk's
    turn comes. Shutting the pool down on the way out, also after an error
    or when the caller closes the generator early, cancels the chunks no
    worker has started and joins the workers.
    """
    processes = processes_for(len(chunks))
    if processes == 1:
        yield from map(work, chunks)
        return
    # Imported here: they cost about 2 MB of resident memory, which
    # processes that never fan out should not pay.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(processes - 1, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = {i: pool.submit(work, chunk) for i, chunk in enumerate(chunks) if i % processes}
        for i, chunk in enumerate(chunks):
            yield futures.pop(i).result() if i % processes else work(chunk)
    finally:
        pool.shutdown(cancel_futures=True)
