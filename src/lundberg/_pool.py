"""Forked worker processes for the chunked hot loops.

Monte Carlo blocks, loading-sweep chunks and joint-lattice row chunks are
independent jobs reassembled in job order: the same bytes in any process.
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


def _fork_context():
    """The ``fork`` context to start workers from, or None where jobs must run in-process."""
    import multiprocessing

    if (multiprocessing.current_process().daemon
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
    context = _fork_context() if workers > 1 else None
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
