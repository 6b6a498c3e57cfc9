"""Resilient execution: retries, timeouts, pool recovery, shutdown.

The parallel sweep engine (:mod:`repro.sim.parallel`) originally drove a
bare ``ProcessPoolExecutor.map``: one worker death aborted the whole
grid and an interrupted run lost every finished cell.  This module is
the fault-tolerance layer it now runs on:

* :class:`RetryPolicy` -- per-cell retries with exponential backoff and
  an optional per-cell wall-clock timeout (``REPRO_RETRIES`` /
  ``REPRO_CELL_TIMEOUT`` are the ambient knobs);
* :func:`run_resilient` -- the submit/``wait`` execution engine:
  input-order results, per-cell retry accounting, deadline enforcement,
  ``BrokenProcessPool`` recovery by pool respawn (only unfinished cells
  re-run), degradation to serial in-process execution after N
  consecutive pool failures, and graceful SIGINT/SIGTERM shutdown;
* :func:`graceful_shutdown` -- scoped signal handling that turns
  SIGINT/SIGTERM into a clean :class:`SweepInterrupted` at the next
  loop tick (completed work cached, observability flushable).

There is no separate checkpoint: finished cells land in the result
cache, and :func:`repro.sim.parallel.run_cells` serves them from there
before dispatch, so re-running an interrupted grid resumes it.

Every recovery action is visible: the engine emits
``resilience.retry`` / ``resilience.cell_timeout`` /
``resilience.pool_respawn`` / ``resilience.serial_fallback`` trace
events through whatever ``emit`` hook the caller provides (the obs
session's event stream, in practice).
All recovery paths are exercised deterministically by the seeded
fault-injection framework in :mod:`repro.faults`; see
``docs/resilience.md`` for the fault model and a cookbook.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro import config, faults

__all__ = [
    "CellFailed",
    "CellTimeout",
    "RetryPolicy",
    "SweepInterrupted",
    "graceful_shutdown",
    "positive_env",
    "run_resilient",
]

#: Default per-cell retry budget (re-executions after a failure).
DEFAULT_RETRIES = 2
#: Consecutive pool deaths tolerated before degrading to serial.
DEFAULT_MAX_POOL_FAILURES = 3
#: The engine's wait granularity: deadline checks and shutdown polls.
_WAIT_TICK_S = 0.05

#: Re-exported for existing callers; the implementation (and the
#: warn-once state) now lives in :mod:`repro.config`.
positive_env = config.positive_env


class CellTimeout(RuntimeError):
    """A cell exceeded its per-cell wall-clock budget."""


class CellFailed(RuntimeError):
    """A cell exhausted its retry budget; ``cause`` is the last error."""

    def __init__(self, index: int, cause: BaseException):
        super().__init__(f"cell {index} failed after retries: {cause!r}")
        self.index = index
        self.cause = cause


class SweepInterrupted(KeyboardInterrupt):
    """SIGINT/SIGTERM arrived; ``completed`` maps index -> finished output.

    Subclasses :class:`KeyboardInterrupt` so un-caught interrupts behave
    exactly like a plain Ctrl-C to callers above the sweep harness.
    """

    def __init__(self, completed: Dict[int, object], signum: Optional[int]):
        super().__init__(f"sweep interrupted by signal {signum}")
        self.completed = completed
        self.signum = signum


@dataclass(frozen=True)
class RetryPolicy:
    """Per-cell retry/timeout discipline for :func:`run_resilient`.

    ``retries`` is the number of *re*-executions allowed after failures
    (0 = fail fast, the pre-resilience behaviour).  Backoff before the
    k-th retry is ``min(backoff_base_s * 2**(k-1), backoff_max_s)``.
    ``cell_timeout_s`` bounds one cell's wall clock in the parallel path
    (a timed-out cell counts as one failure and is re-run; serial
    execution cannot preempt a cell and ignores it).  After
    ``max_pool_failures`` consecutive ``BrokenProcessPool`` deaths the
    engine stops respawning and finishes the grid serially in-process.
    """

    retries: int = DEFAULT_RETRIES
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    cell_timeout_s: Optional[float] = None
    max_pool_failures: int = DEFAULT_MAX_POOL_FAILURES

    def backoff_s(self, failure_count: int) -> float:
        if self.backoff_base_s <= 0 or failure_count <= 0:
            return 0.0
        return min(self.backoff_base_s * 2 ** (failure_count - 1), self.backoff_max_s)

    @classmethod
    def from_env(
        cls,
        retries: Optional[int] = None,
        cell_timeout: Optional[float] = None,
    ) -> "RetryPolicy":
        """Explicit arguments, else ``REPRO_RETRIES``/``REPRO_CELL_TIMEOUT``."""
        if retries is None:
            env = positive_env("REPRO_RETRIES", int, minimum=0)
            retries = DEFAULT_RETRIES if env is None else int(env)
        if cell_timeout is None:
            cell_timeout = positive_env("REPRO_CELL_TIMEOUT", float, minimum=1e-6)
        return cls(retries=max(0, int(retries)), cell_timeout_s=cell_timeout)


# -- graceful shutdown -------------------------------------------------------


class ShutdownGuard:
    """Latches the first SIGINT/SIGTERM seen while installed."""

    def __init__(self):
        self.triggered = False
        self.signum: Optional[int] = None

    def trip(self, signum, _frame=None) -> None:
        self.triggered = True
        self.signum = signum


@contextmanager
def graceful_shutdown():
    """Install SIGINT/SIGTERM latches for the duration of a sweep.

    Inside the block the first signal only *flags* the guard -- the
    execution loop notices at its next tick, keeps what finished and
    raises :class:`SweepInterrupted`.  A second signal falls through to
    the previous (default) handler, so a stuck sweep can still be
    killed.  Off the main thread (where ``signal.signal`` is illegal)
    the guard is inert and signals behave as before.
    """
    guard = ShutdownGuard()
    previous = {}
    installed = threading.current_thread() is threading.main_thread()
    if installed:
        def _handler(signum, frame):
            if guard.triggered:  # second signal: restore + re-deliver
                handler = previous.get(signum, signal.SIG_DFL)
                signal.signal(signum, handler)
                raise KeyboardInterrupt
            guard.trip(signum, frame)

        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous[signum] = signal.signal(signum, _handler)
        except ValueError:  # non-main thread after all
            installed = False
    try:
        yield guard
    finally:
        if installed:
            for signum, handler in previous.items():
                signal.signal(signum, handler)


# -- the execution engine ----------------------------------------------------

_UNSET = object()


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    """Abandon a pool whose workers may be wedged or mid-crash.

    A worker that dies abruptly mid-task (hard exit, segfault, OOM kill)
    can take the shared call-queue lock down with it, leaving its
    sibling workers blocked on that lock forever.  Those zombies park
    the executor's management thread in ``terminate_broken`` -- a busy
    loop feeding exit sentinels that are never consumed -- and the
    interpreter then hangs at exit on the ``concurrent.futures`` atexit
    join of that thread.  Kill the children first so every teardown
    path can actually finish.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            if proc.is_alive():
                proc.kill()
        except (OSError, ValueError):
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _noop_emit(category: str, severity: str = "info", **fields) -> None:
    return None


def run_resilient(
    payloads: Sequence[dict],
    worker_fn: Callable,
    run_local: Callable,
    n_jobs: int,
    policy: Optional[RetryPolicy] = None,
    emit: Optional[Callable] = None,
    on_complete: Optional[Callable[[int, object], None]] = None,
    fault_tokens: Optional[Sequence[str]] = None,
) -> List[object]:
    """Execute ``payloads``, resiliently, returning outputs in input order.

    ``worker_fn`` is the picklable per-payload callable run in pool
    workers; ``run_local(payload, attempt)`` is its in-process twin
    (serial mode, and the degraded path after repeated pool deaths).
    Workers receive their attempt number as ``payload["fault_attempt"]``
    and their identity as ``payload["fault_token"]`` so fault-injection
    decisions stay deterministic across retries.  ``emit`` is an
    obs-style event hook (``(category, severity, **fields)``);
    ``on_complete(index, output)`` fires as each cell finishes (in
    completion order).

    Raises :class:`CellFailed` when a cell exhausts its retry budget and
    :class:`SweepInterrupted` on SIGINT/SIGTERM (completed outputs
    attached).
    """
    policy = policy or RetryPolicy()
    emit = emit or _noop_emit
    on_complete = on_complete or (lambda index, output: None)
    n = len(payloads)
    tokens = list(fault_tokens) if fault_tokens is not None else [
        f"cell{i}" for i in range(n)
    ]
    results: List[object] = [_UNSET] * n
    failures = [0] * n   # cell-attributable failures, vs policy.retries
    attempts = [0] * n   # executions started, the fault-decision epoch

    def record(index: int, output: object) -> None:
        results[index] = output
        on_complete(index, output)

    def note_failure(index: int, exc: BaseException, kind: str) -> None:
        """Charge one failure; raise CellFailed when the budget is gone."""
        failures[index] += 1
        attempts[index] += 1
        if failures[index] > policy.retries:
            raise CellFailed(index, exc) from exc
        emit(
            "resilience.retry",
            "warn",
            cell=index,
            kind=kind,
            failure=failures[index],
            error=f"{type(exc).__name__}: {exc}",
        )
        delay = policy.backoff_s(failures[index])
        if delay:
            time.sleep(delay)

    def completed() -> Dict[int, object]:
        return {i: results[i] for i in range(n) if results[i] is not _UNSET}

    def run_serial(indices, guard) -> None:
        for index in indices:
            while True:
                if guard.triggered:
                    raise SweepInterrupted(completed(), guard.signum)
                payload = dict(payloads[index], fault_token=tokens[index])
                try:
                    output = run_local(payload, attempts[index])
                except Exception as exc:
                    note_failure(index, exc, kind="serial")
                    continue
                attempts[index] += 1
                record(index, output)
                break

    with graceful_shutdown() as guard:
        if n_jobs <= 1 or n <= 1:
            run_serial(range(n), guard)
            return results

        todo = deque(range(n))
        inflight: Dict[object, tuple] = {}  # future -> (index, deadline)
        pool: Optional[ProcessPoolExecutor] = None
        pool_failures = 0
        workers = min(n_jobs, n)
        try:
            while todo or inflight:
                if guard.triggered:
                    raise SweepInterrupted(completed(), guard.signum)
                if pool is None:
                    pool = ProcessPoolExecutor(max_workers=workers)

                broken = False
                while todo and not broken:
                    index = todo.popleft()
                    payload = dict(
                        payloads[index],
                        fault_token=tokens[index],
                        fault_attempt=attempts[index],
                    )
                    try:
                        faults.fire("pickle", tokens[index], attempts[index])
                        future = pool.submit(worker_fn, payload)
                    except BrokenProcessPool:
                        todo.appendleft(index)
                        broken = True
                    except Exception as exc:  # injected or real pickle error
                        note_failure(index, exc, kind="submit")
                        todo.append(index)
                    else:
                        # Deadline is assigned lazily, once the future is
                        # observed *running*: a cell queued behind busy
                        # workers must not burn its wall-clock budget.
                        inflight[future] = (index, None)

                done = set()
                if inflight and not broken:
                    done, _ = wait(
                        set(inflight),
                        timeout=_WAIT_TICK_S,
                        return_when=FIRST_COMPLETED,
                    )
                for future in done:
                    index, _deadline = inflight.pop(future)
                    try:
                        output = future.result()
                    except BrokenProcessPool:
                        todo.append(index)
                        broken = True
                    except Exception as exc:
                        note_failure(index, exc, kind="worker")
                        todo.append(index)
                    else:
                        attempts[index] += 1
                        pool_failures = 0
                        record(index, output)

                expired = False
                if not broken and policy.cell_timeout_s:
                    now = time.monotonic()
                    for future, (index, deadline) in list(inflight.items()):
                        if deadline is None:
                            if future.running():
                                inflight[future] = (
                                    index,
                                    now + policy.cell_timeout_s,
                                )
                            continue
                        if now < deadline or future.done():
                            continue
                        # Abandon it: a running pool future cannot be
                        # preempted, so the result (if any) is ignored
                        # and the cell is re-run.
                        inflight.pop(future)
                        future.cancel()
                        expired = True
                        timeout_exc = CellTimeout(
                            f"cell {index} exceeded {policy.cell_timeout_s}s"
                        )
                        emit(
                            "resilience.cell_timeout",
                            "warn",
                            cell=index,
                            timeout_s=policy.cell_timeout_s,
                        )
                        note_failure(index, timeout_exc, kind="timeout")
                        todo.append(index)
                if expired:
                    # The stuck workers cannot be preempted one by one,
                    # so replace the whole pool; other in-flight cells
                    # are re-queued *without* being charged a failure
                    # (their fault/attempt epoch stays put too, so
                    # injection decisions remain deterministic).
                    for _future, (index, _deadline) in inflight.items():
                        todo.append(index)
                    inflight.clear()
                    _discard_pool(pool)
                    pool = None
                    emit(
                        "resilience.pool_respawn",
                        "warn",
                        reason="cell_timeout",
                        remaining=len(todo),
                    )

                if broken:
                    for future, (index, _deadline) in inflight.items():
                        attempts[index] += 1  # the crasher re-rolls its fault
                        todo.append(index)
                    inflight.clear()
                    _discard_pool(pool)
                    pool = None
                    pool_failures += 1
                    if pool_failures >= policy.max_pool_failures:
                        emit(
                            "resilience.serial_fallback",
                            "warn",
                            reason="pool_failures",
                            consecutive=pool_failures,
                            remaining=len(todo),
                        )
                        print(
                            f"warning: process pool died {pool_failures} times in "
                            f"a row; finishing {len(todo)} cell(s) serially",
                            file=sys.stderr,
                        )
                        run_serial(list(todo), guard)
                        todo.clear()
                    else:
                        emit(
                            "resilience.pool_respawn",
                            "warn",
                            reason="pool_broken",
                            consecutive=pool_failures,
                            remaining=len(todo),
                        )
        finally:
            if pool is not None:
                _discard_pool(pool)
    return results
