"""Forked worker processes for the chunked hot loops.

Monte Carlo blocks, loading-sweep chunks and joint-lattice row chunks are
independent jobs reassembled in job order: the same bytes in any process.
:func:`start` runs one task, such as fig4/fig5's joint search, in a worker
beside the caller's own work.  Both leave the caller through one gate,
:func:`_fork_context`: only with two or more workers, where ``fork`` exists,
and never from inside a daemonic worker.
"""

from __future__ import annotations

import os

# The work floor of a pool, in operations of about 10 ns: a lattice cell formed, or
# a sweep curve value per bit of its node count.  Break-evens on a 2-core x86
# machine (medians of interleaved runs, in two workers against one process):
# lattice row stream 3-6 ms faster at 2^22.5 cells, 4-14 ms faster at 2^23 and
# 10-15 ms faster at 2^23.25 (two sets of 15 runs), so its break-even sits at or
# below 2^22.5; sweep 12 ms slower at 2^23.16 operations, 14 ms faster (n = 2500)
# or 5 ms slower (n = 10000) at 2^23.38 (9 runs).  Whether the two CPUs share their
# vector units flipped between sets of runs: two processes that each run a 21,536-element
# multiply/divide/subtract/max loop took 1.82-2.04x as long as one alone, or 0.95-1.01x,
# so a break-even measured at one setting may not hold at the other.
_MIN_WORK = 10_000_000

_task = None  # the job function of a worker process, set at fork


def _init_worker(task):
    global _task
    _task = task


def _run_job(job):
    return _task(job)


def _worker_count(jobs: int) -> int:
    """Worker processes for ``jobs`` jobs: one per usable CPU, at most one per job."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, jobs)


def _fork_context(workers: int):
    """The ``fork`` context to start ``workers`` workers from, or None where the work runs in-process."""
    import multiprocessing

    if (workers < 2 or multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        return None
    return multiprocessing.get_context("fork")


def map(task, jobs, work=float("inf")):
    """Yield ``task(job)`` for each of ``jobs``, in order, as each comes in.

    The jobs run in one forked worker per usable CPU when there are several
    jobs and CPUs and ``work``, their operations, reaches ``_MIN_WORK``: by
    default it does, as for simulation blocks.  The task reaches the workers
    at fork and is never pickled; the jobs, results and exceptions are.
    """
    workers = _worker_count(len(jobs)) if work >= _MIN_WORK else 1
    context = _fork_context(workers)
    if context is None:
        yield from (task(job) for job in jobs)
        return
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_init_worker,
                               initargs=(task,))
    try:
        yield from pool.map(_run_job, jobs)
    finally:
        pool.shutdown(cancel_futures=True)


def _send(conn, task):
    try:
        conn.send((True, task()))
    except Exception as exc:  # an unpicklable value's error too
        conn.send((False, exc))


def start(task):
    """Run ``task()`` beside the caller; returns the function that waits for its value.

    One forked daemonic worker runs it wherever a second usable CPU can take it, the
    caller at once elsewhere; :func:`map`'s work floor prices a job list split over
    a pool, not one task beside the caller.  A plain ``Process`` and a one-way ``Pipe``
    leave no thread alive for the caller's next fork.  The returned function re-raises the
    task's exception, raises ``RuntimeError`` if the worker exits without a result, and joins
    the worker: call it on every path.
    """
    context = _fork_context(_worker_count(2))
    if context is None:
        value = task()
        return lambda: value
    receive, send = context.Pipe(duplex=False)
    worker = context.Process(target=_send, args=(send, task), daemon=True)
    worker.start()
    send.close()

    def collect():
        try:
            ok, value = receive.recv()
        except EOFError:
            ok, value = False, None
        finally:
            receive.close()
            worker.join()
        if ok:
            return value
        raise value or RuntimeError(f"worker exited with code {worker.exitcode} before sending a result")

    return collect
