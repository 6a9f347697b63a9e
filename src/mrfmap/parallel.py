"""The CPU count, and the one loop that spreads chunks of work over cores.

``_in_order(pool_of, work, chunks)`` is that loop, and the two runners
are each one call to it with a different kind of pool. Given ``work`` and
a list of chunks, it runs every P-th chunk from the first in the caller,
P = ``processes_for(len(chunks))``, and the rest in a pool of P - 1
workers. It gives the results in chunk order and raises a chunk's error
at that chunk's turn. No option or environment variable changes P; every
caller reads the CPU count here, through ``available_cpus``. At P = 1 the
caller runs every chunk and no pool starts.

- ``fan_out`` uses a pool of forked processes. ``build_dictionary`` fans
  its atom batches out through it, and ``nn.backprop.loss_and_grads`` the
  chunks of a training minibatch. That work is mostly short NumPy calls
  made from Python, for which threads would wait on the interpreter
  lock: two GRU training slabs took 890 ms on two threads against 826 ms
  on two processes. A process also keeps its own memory, so a BPTT
  slab's 179 MB tape does not count in the caller's peak. Starting and
  joining a pool of one worker costs 4.5-6.1 ms: median of 20 no-op
  calls at two processes from callers of 30 to 280 MB resident, 2-core
  Xeon.
- ``thread_map`` uses a pool of threads, and ``dictionary.match_batch``
  and ``nn.models.predict_batch`` split their rows over it. Their blocks
  spend their time in BLAS, ufunc and einsum loops, which release the
  interpreter lock. Forking instead costs more than it saves there: each
  half of an 8,192-voxel ``match_batch`` took 275-332 ms to come back
  from a forked ~350 MB process, against 247-289 ms for the whole call
  serial. Starting, pinning and joining a pool of one thread costs
  0.14-0.16 ms: medians of 400 no-op calls at two threads, 2-core Xeon.
  A thread shares the caller's memory, so its pool is made and shut down
  within one call, and no later fork copies a process that has other
  threads.

Placement. Linux keeps a freshly woken worker, thread or forked process,
on the CPU of the caller that woke it, so unpinned, both halves often
run on one CPU while the other idles. Unpinned threads gained nothing,
and in 14 of 16 standalone ``fan_out`` builds of the benchmark's 36-atom
dict-build grid both chunks ran on one CPU (155-237 ms, against 96-157 ms
with the worker pinned). So the pool's initializer pins every worker,
thread or process, to the affinity mask minus the CPU the caller ran on
when the pool was made, read from ``/proc/thread-self/stat``. Where that
file cannot be read, no worker pins. A thread's mask goes with the
thread, and a forked worker's with its process; the caller's own mask
never changes.
"""

from __future__ import annotations

import os


def available_cpus() -> int:
    """CPUs ``fan_out`` and ``thread_map`` may spread work over.

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
    """Processes or threads, the caller's included, that run ``count``
    chunks: one per chunk, up to ``available_cpus()``, and at least one."""
    return max(1, min(available_cpus(), count))


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on, field 39 of
    ``/proc/thread-self/stat``; None where that cannot be read."""
    try:
        with open("/proc/thread-self/stat") as fh:
            # The command name, field 2, may hold spaces and parentheses.
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _pin_off(cpu: int | None) -> None:
    """Pin the calling thread, and so a forked worker's process, to the
    affinity mask without ``cpu``; no pin for None or a one-CPU mask."""
    if cpu is None:
        return
    others = os.sched_getaffinity(0) - {cpu}
    try:
        if others:
            os.sched_setaffinity(0, others)
    except OSError:  # the allowed CPUs changed since the mask was read
        pass  # placement only: the worker runs where the kernel puts it


def _in_order(pool_of, work, chunks: list):
    """Yield ``work(chunk)`` for every chunk, in chunk order: the loop both
    runners are (see the module docstring).

    At P = ``processes_for(len(chunks))`` = 1 the caller runs every chunk,
    and no pool starts or is imported. Otherwise ``pool_of(P - 1,
    initializer=, initargs=)`` makes a pool whose workers pin themselves
    off the caller's CPU as they start. Every chunk but every P-th from the
    first is submitted to it when the first result is asked for, and the
    caller runs the others at their turn. A result that comes back before
    its turn is held by its future until then, and an error raised by
    ``work`` is raised at its chunk's turn. Shutting the pool down on the
    way out, also after an error or when the caller closes the generator
    early, cancels the chunks no worker has started and joins the workers.
    """
    processes = processes_for(len(chunks))
    if processes == 1:
        yield from map(work, chunks)
        return
    pool = pool_of(processes - 1, initializer=_pin_off, initargs=(_current_cpu(),))
    try:
        futures = {i: pool.submit(work, chunk) for i, chunk in enumerate(chunks) if i % processes}
        for i, chunk in enumerate(chunks):
            yield futures.pop(i).result() if i % processes else work(chunk)
    finally:
        pool.shutdown(cancel_futures=True)


# Imported at the first pool: ``concurrent.futures`` and ``multiprocessing``
# cost about 2 MB of resident memory, which processes that never split
# work should not pay.
def _fork_pool(workers: int, **pin):
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"), **pin)


def _thread_pool(workers: int, **pin):
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, **pin)


def fan_out(work, chunks: list):
    """Yield ``work(chunk)`` for every chunk, in chunk order, the chunks
    spread over forked worker processes.

    A worker starts from the caller's memory, so it imports nothing again
    and sees the module globals the caller had when the pool started.
    ``work`` and each chunk are pickled to it, and its result pickled back.
    """
    yield from _in_order(_fork_pool, work, chunks)


def thread_map(work, chunks: list) -> list:
    """``[work(chunk) for chunk in chunks]``, the chunks spread over
    threads. ``work`` must be safe to run in several threads at once."""
    return list(_in_order(_thread_pool, work, chunks))
