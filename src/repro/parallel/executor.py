"""Ordered process fan-out with fault and hang containment.

:func:`parallel_imap` is the one primitive the library fans out with:
map a picklable top-level function over a task list and yield the
results *in task order*, streaming — result ``k`` is yielded as soon as
tasks ``0..k`` are done, while later tasks are still running.  Ordered
streaming is what lets the simulation harness keep its per-trial
checkpointing loop unchanged under parallelism.

There is one dispatch path.  Every task is submitted to the pool on its
own, and a worker stamps a shared heartbeat array when it starts one.

Failure semantics:

* a worker exception is re-raised in the parent on the failing task's
  turn (the pool is terminated first, so no orphaned work keeps
  burning CPU) — callers that want softer behaviour catch inside the
  worker function, exactly as the serial code catches around the call;
* with ``config.timeout_seconds`` set, each task gets a *soft
  deadline*: a started task whose heartbeat goes silent past the
  timeout while nothing else progresses is treated as wedged.  The
  wedged pool is terminated (``terminate``, not ``join``), unfinished
  healthy tasks are resubmitted to a fresh pool, and the wedged task
  itself is retried up to ``config.max_resubmits`` times.  A task that
  exhausts its resubmissions surfaces as :class:`WorkerTimeoutError` —
  raised at its in-order turn, or routed through the caller's
  ``on_timeout`` hook (its return value yielded in the task's place) so
  a sweep can degrade per-trial instead of aborting.  With
  ``timeout_seconds=None`` no wedge is ever declared: the parent waits
  on the next task for as long as it takes.

Supervision changes *when* results are computed, never *what*: every
task's arguments and the order of the results are those of the
in-process loop, so serial parity is preserved (pinned in
``tests/parallel/test_serial_parity.py``).
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.parallel.config import ParallelConfig
from repro.utils.errors import ReproError

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")

#: ``on_timeout(task_index, task, error) -> substitute result``.
TimeoutHook = Callable[[int, TaskT, "WorkerTimeoutError"], ResultT]


class WorkerTimeoutError(ReproError):
    """A task's heartbeat went silent past the configured timeout.

    Carries enough context to turn the wedge into per-trial failure
    records: which task wedged (``chunk_index`` and ``task_indices``
    both name it, since a worker takes one task per dispatch), how long
    the parent waited and how many resubmissions were burned before
    giving up.
    """

    def __init__(
        self,
        message: str,
        *,
        chunk_index: Optional[int] = None,
        task_indices: Tuple[int, ...] = (),
        elapsed_seconds: float = 0.0,
        n_resubmits: int = 0,
    ) -> None:
        super().__init__(message)
        self.chunk_index = chunk_index
        self.task_indices = tuple(task_indices)
        self.elapsed_seconds = elapsed_seconds
        self.n_resubmits = n_resubmits


#: Per-process shared heartbeat array, installed by the pool initializer.
_HEARTBEATS = None


def _init_heartbeats(array) -> None:
    global _HEARTBEATS
    _HEARTBEATS = array


def _run_task(payload):
    """Run one task in a worker (pool entry point), stamping its heartbeat.

    ``time.monotonic`` is system-wide on the platforms the process
    backend supports, so the parent compares worker stamps directly
    against its own clock.
    """
    index, fn, task = payload
    _HEARTBEATS[index] = time.monotonic()
    return fn(task)


def _pool_imap(
    fn: Callable[[TaskT], ResultT],
    tasks: List[TaskT],
    jobs: int,
    config: ParallelConfig,
    on_timeout: Optional[TimeoutHook],
) -> Iterator[ResultT]:
    """Ordered fan-out over ``jobs`` workers with bounded resubmission."""
    timeout = config.timeout_seconds
    poll = None if timeout is None else max(0.01, min(timeout / 4.0, 0.25))
    n = len(tasks)
    context = multiprocessing.get_context(config.start_method)
    heartbeats = context.Array("d", n)

    resubmits = [0] * n
    results: dict = {}  # task index -> result
    worker_errors: dict = {}  # task index -> exception from the worker
    failures: dict = {}  # task index -> WorkerTimeoutError
    pending = set(range(n))
    last_beat = [0.0] * n
    now = time.monotonic()
    progress_at = [now] * n  # last time task i demonstrably advanced
    last_progress = now  # last time *anything* advanced

    def make_pool():
        return context.Pool(
            processes=jobs,
            initializer=_init_heartbeats,
            initargs=(heartbeats,),
        )

    def submit(pool, indices):
        return {
            i: pool.apply_async(_run_task, ((i, fn, tasks[i]),))
            for i in sorted(indices)
        }

    pool = make_pool()
    handles = submit(pool, pending)
    alive = True
    try:
        next_index = 0
        while next_index < n:
            if next_index in results:
                yield results.pop(next_index)
                next_index += 1
                continue
            if next_index in worker_errors:
                # Fail-fast parity with the serial path: stop the
                # remaining work before re-raising.
                if alive:
                    pool.terminate()
                    alive = False
                raise worker_errors[next_index]
            if next_index in failures:
                error = failures[next_index]
                if on_timeout is None:
                    if alive:
                        pool.terminate()
                        alive = False
                    raise error
                yield on_timeout(next_index, tasks[next_index], error)
                next_index += 1
                continue

            handles[next_index].wait(poll)

            # Harvest everything that finished, in any order.
            progressed = False
            for i in sorted(pending):
                handle = handles.get(i)
                if handle is None or not handle.ready():
                    continue
                pending.discard(i)
                progressed = True
                try:
                    results[i] = handle.get()
                except Exception as error:  # worker-raised
                    worker_errors[i] = error
            if timeout is None:
                continue

            # Observe heartbeats.
            now = time.monotonic()
            for i in sorted(pending):
                beat = heartbeats[i]
                if beat > last_beat[i]:
                    last_beat[i] = beat
                    progress_at[i] = now
                    progressed = True
            if progressed:
                last_progress = now
                continue
            if now - last_progress <= timeout:
                continue

            # Wedge: nothing progressed for a full timeout.  Started
            # tasks whose own heartbeat is stale are the culprits; when
            # none has even started, blame the task being waited on
            # (the whole pool is starved).
            stale = {
                i
                for i in pending
                if last_beat[i] > 0.0 and now - progress_at[i] > timeout
            }
            if not stale:
                stale = {min(pending)}
            pool.terminate()
            pool.join()
            alive = False
            for i in sorted(stale):
                resubmits[i] += 1
                if resubmits[i] > config.max_resubmits:
                    pending.discard(i)
                    failures[i] = WorkerTimeoutError(
                        f"task {i} made no progress within {timeout:g}s "
                        f"after {resubmits[i] - 1} resubmission(s); pool of "
                        f"{jobs} terminated",
                        chunk_index=i,
                        task_indices=(i,),
                        elapsed_seconds=now - progress_at[i],
                        n_resubmits=resubmits[i] - 1,
                    )
            if pending:
                now = time.monotonic()
                for i in pending:
                    heartbeats[i] = 0.0
                    last_beat[i] = 0.0
                    progress_at[i] = now
                last_progress = now
                pool = make_pool()
                alive = True
                handles = submit(pool, pending)
            else:
                handles = {}
    except GeneratorExit:
        # The consumer abandoned the stream (e.g. its own error path);
        # don't make close() wait for work nobody will read.
        if alive:
            pool.terminate()
            alive = False
        raise
    finally:
        if alive:
            pool.close()
        pool.join()


def parallel_imap(
    fn: Callable[[TaskT], ResultT],
    tasks: Sequence[TaskT],
    *,
    config: ParallelConfig,
    on_timeout: Optional[TimeoutHook] = None,
) -> Iterator[ResultT]:
    """Yield ``fn(task)`` for every task, in order, possibly from workers.

    ``fn`` must be a module-level (picklable) function when more than
    one worker is used.  With a single effective worker the tasks run
    in-process, one after another, in the same order — which is what
    makes ``n_jobs=1`` vs ``n_jobs=k`` parity tests meaningful.

    ``on_timeout`` (requires ``config.timeout_seconds``) is called once
    for a task that exhausted its resubmissions, as
    ``on_timeout(task_index, task, error)``; its return value is
    yielded in the task's place, so a wedged task degrades into a
    substitute result instead of aborting the sweep.  Without the hook
    the :class:`WorkerTimeoutError` is raised at the wedged task's
    in-order turn.
    """
    tasks = list(tasks)
    if not tasks:
        return
    jobs = config.effective_jobs(len(tasks))
    if jobs <= 1:
        for task in tasks:
            yield fn(task)
        return
    yield from _pool_imap(fn, tasks, jobs, config, on_timeout)


__all__ = ["TimeoutHook", "WorkerTimeoutError", "parallel_imap"]
