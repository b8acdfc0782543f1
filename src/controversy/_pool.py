"""Independent tasks spread over forked worker processes, one per CPU.

The planted sweep (:func:`controversy.synthetic.rwc_sweep`) and the
measure stage of ``score`` (:func:`controversy.cli.run_pipeline`) both
run here. Their results are the same as from one process; see
:func:`workers` for when the tasks run in the calling process instead.
``multiprocessing`` and ``concurrent.futures.process`` are imported on
the way to a pool only, not with the package.
"""
from __future__ import annotations

import os
import sys
import threading
import warnings
from contextlib import contextmanager


def workers(tasks) -> int:
    """Processes to run ``tasks`` independent tasks in: the CPUs of this
    process's affinity mask, at most one per task. 1 (run them here) off
    Linux, when other threads exist (forking them is unsafe), or inside a
    daemonic process, which may not start children."""
    if sys.platform != "linux" or threading.active_count() != 1:
        return 1
    count = min(len(os.sched_getaffinity(0)), tasks)
    if count < 2:
        return 1
    import multiprocessing

    return 1 if multiprocessing.current_process().daemon else count


def _executor(count):
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(count, mp_context=multiprocessing.get_context("fork"))


def map_runs(fn, tasks):
    """``[fn(t) for t in tasks]`` through :func:`results`: the first task
    to fail, in order, raises, and the pool is joined before returning."""
    with results(fn, {i: (t,) for i, t in enumerate(tasks)}) as result:
        return [result(i) for i in range(len(tasks))]


@contextmanager
def results(fn, tasks):
    """Yield ``result(key)``, the value of ``fn(*tasks[key])``; each task
    runs once.

    ``tasks`` maps keys to argument tuples; put the longest tasks first.
    With more than one worker every task is submitted at once, in that
    order, one task per submission. ``result`` then waits for its task,
    emits here the warnings the task raised and raises its error, so
    that asking for the results in some order gives the values, warnings
    and first error of running the tasks in that order in this process.
    With one worker a task runs here when its result is first asked for.
    On leaving the block, tasks not yet started are cancelled and the
    pool is joined."""
    done, count = {}, workers(len(tasks))
    pool = _executor(count) if count > 1 else None
    try:
        if pool:
            futures = {key: pool.submit(_attempt, fn, args) for key, args in tasks.items()}

        def result(key):
            if key not in done:
                done[key] = _settle(*futures[key].result()) if pool else fn(*tasks[key])
            return done[key]

        yield result
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def _attempt(fn, args):
    """Run in a worker: ``fn(*args)``'s value or error, and every warning
    it raised as (message, category, filename, lineno)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value, error = fn(*args), None
        except Exception as exc:
            value, error = None, exc
    return value, error, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _settle(value, error, caught):
    """Emit a worker's warnings here, through this process's filters and
    the registry of the module they name, as ``warnings.warn`` would have;
    then raise its error or return its value."""
    if caught:
        modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
        for message, category, filename, lineno in caught:
            scope = vars(modules[filename]) if filename in modules else {}
            warnings.warn_explicit(message, category, filename, lineno, scope.get("__name__"),
                                   scope.setdefault("__warningregistry__", {}), scope or None)
    if error is not None:
        raise error
    return value
