"""The CPU count and the forked worker pool that spread work over cores.

``build_dictionary`` fans its atom batches out through ``fan_out``, and
``nn.backprop.loss_and_grads`` the row slabs of a training minibatch. No
option or environment variable changes either: both read ``available_cpus``.
At one process ``fan_out`` runs every chunk in the caller and starts no pool.
Starting and joining a pool of one worker costs 4.5-6.1 ms: median of 20
no-op calls at two processes from callers of 30 to 280 MB resident, 2-core
Xeon.
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


def fan_out(work, chunks: list, processes: int):
    """Yield ``(index, work(chunks[index]))`` for every chunk, in no fixed order.

    With ``processes`` <= 1 the calling process runs every chunk in order
    and no pool starts. Otherwise it runs every ``processes``-th chunk
    itself and ``processes - 1`` forked workers take the rest. A worker's
    results are collected after each of the caller's own chunks, so the
    caller holds about one result per worker at a time, not a whole share. A
    forked worker starts from the caller's memory, so it imports nothing
    again and sees the module globals the caller had when the pool started;
    ``work`` and each chunk are pickled to it and its result pickled back.
    An error raised by ``work`` in a worker is raised again in the caller.
    Shutting the pool down on the way out, also after an error, cancels the
    chunks no worker has started and joins the workers.
    """
    if processes <= 1:
        yield from enumerate(map(work, chunks))
        return
    # Imported here: they cost about 2 MB of resident memory, which
    # processes that never fan out should not pay.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    pool = ProcessPoolExecutor(processes - 1,
                               mp_context=multiprocessing.get_context("fork"))
    try:
        pending = {pool.submit(work, chunk): i
                   for i, chunk in enumerate(chunks) if i % processes}
        for i in range(0, len(chunks), processes):
            yield i, work(chunks[i])
            for future in [f for f in pending if f.done()]:
                yield pending.pop(future), future.result()
        for future in as_completed(pending):
            yield pending.pop(future), future.result()
    finally:
        pool.shutdown(cancel_futures=True)
