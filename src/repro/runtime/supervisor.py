"""Supervised task execution: deadlines, retries, crash isolation, drains.

The campaign engines used to fan tasks over a bare
``ProcessPoolExecutor``: a hung driver stalled the pool forever, a dead
worker raised ``BrokenProcessPool`` and lost everything completed so
far, and Ctrl-C tore the run down without a checkpoint.
:func:`run_supervised` replaces that with a pool the campaign actually
supervises:

* **deadlines** — a task running past ``timeout`` seconds has its worker
  killed and is retried on a fresh process;
* **crash isolation** — a worker that dies (segfault, ``os._exit``,
  OOM-kill) only costs the one attempt it was running;
* **retries** — failed attempts are re-dispatched up to ``retries``
  times behind a *deterministic* capped-exponential backoff
  (:func:`backoff_schedule`; no jitter, so campaign reports stay
  byte-identical run to run);
* **structured failure** — a task that exhausts its budget becomes a
  :class:`TaskFailure` in the report instead of aborting the campaign;
* **graceful shutdown** — SIGINT/SIGTERM stop dispatch, drain in-flight
  tasks for a grace period (each completion still reaches ``on_result``,
  i.e. the checkpoint), then terminate workers and return a report with
  ``interrupted=True``.

Results stream to the caller through ``on_result`` as they land — that
callback is where the campaign engines append to their checkpoints, so
nothing completed is ever lost to a later fault.

Homogeneous small tasks (fuzz oracle runs, cross-validation cases) can
be *batched*: ``batch=N`` (or ``batch="adaptive"``) dispatches up to N
tasks per pipe message to one warm worker, which runs them back to back
— keeping its decode cache hot — and still reports each task
individually, so retries, chaos injection, checkpoints and ``on_result``
stay per-task.  A worker that dies or stalls mid-batch costs every
outstanding task of that batch one attempt (they are re-dispatched,
typically spread over other workers).  Batching changes only dispatch
granularity, never results: serial and parallel runs of the same
campaign remain byte-identical.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.errors import ConfigError
from repro.runtime.chaos import ChaosPlan
from repro.telemetry.metrics import registry

__all__ = [
    "DEFAULT_RETRIES",
    "DEFAULT_GRACE_S",
    "MAX_BATCH",
    "adaptive_batch",
    "TaskFailure",
    "SupervisorReport",
    "backoff_schedule",
    "run_supervised",
]

DEFAULT_RETRIES = 2
DEFAULT_GRACE_S = 5.0

#: Upper bound on one dispatch batch; adaptive chunking never exceeds it
#: (a longer batch delays failure detection and retry without measurably
#: cutting dispatch overhead further).
MAX_BATCH = 32

_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 2.0
_POLL_S = 0.05

#: Failure kinds recorded in :class:`TaskFailure` entries.
FAILURE_KINDS = ("error", "crash", "timeout", "invalid-result")


def backoff_schedule(
    retries: int, *, base: float = _BACKOFF_BASE_S, cap: float = _BACKOFF_CAP_S
) -> tuple[float, ...]:
    """Delay before retry attempt ``i`` (0-based): ``min(cap, base * 2**i)``.

    Deterministic by design — no jitter — so two runs of the same
    campaign retry on the same schedule and their artifacts can be
    compared byte-for-byte.
    """
    return tuple(min(cap, base * (2.0 ** attempt)) for attempt in range(max(0, retries)))


def adaptive_batch(total: int, workers: int) -> int:
    """Chunk size for ``batch="adaptive"``: ~4 batches per worker.

    Small enough that a mid-batch death or straggler costs at most a
    quarter of one worker's share, large enough to amortize the pipe
    round-trip and per-dispatch bookkeeping, and capped at
    :data:`MAX_BATCH` for very large campaigns.
    """
    if total <= 0 or workers <= 0:
        return 1
    return max(1, min(MAX_BATCH, -(-total // (workers * 4))))


@dataclass(frozen=True)
class TaskFailure:
    """One task that exhausted its retry budget; a manifest entry, not an abort."""

    task: Any       # task id: experiment name (str) or fuzz task index (int)
    kind: str       # one of FAILURE_KINDS
    attempts: int   # total attempts made (1 + retries consumed)
    message: str    # last attempt's diagnosis (deterministic: no pids/timestamps)

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "kind": self.kind,
            "attempts": self.attempts,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TaskFailure":
        return cls(
            task=data["task"],
            kind=str(data["kind"]),
            attempts=int(data["attempts"]),
            message=str(data["message"]),
        )


@dataclass
class SupervisorReport:
    """Outcome of one supervised run: results keyed by task id, plus telemetry."""

    results: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    interrupted: bool = False
    retried: int = 0


def _worker_main(worker, chaos_spec, chaos_dir, inbox, results) -> None:
    """Worker process loop: pull a task, run it, report — never die quietly.

    SIGINT is ignored (a terminal Ctrl-C reaches the whole foreground
    process group; shutdown is the supervisor's job) and SIGTERM is reset
    to its default so the supervisor's ``terminate()`` actually kills us
    instead of re-raising the parent's inherited handler.

    ``results`` is this worker's private pipe end, written synchronously
    from this thread.  A queue shared between workers would report through
    a feeder thread holding a cross-process write lock — and a worker that
    dies mid-send (segfault, chaos ``os._exit``) would take that lock to
    the grave and deadlock every surviving worker's reports.  With one
    pipe per worker a death can only sever its own channel, which the
    supervisor observes as EOF.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    plan = ChaosPlan(chaos_spec, chaos_dir) if chaos_spec else None
    while True:
        batch = inbox.get()
        if batch is None:
            return
        # A batch is a list of (task_id, payload) pairs run back to back
        # on this (warm) process; each task still gets its own chaos
        # hooks, its own result message and its own error isolation, so
        # the supervisor's per-task retry policy is unchanged.
        for task_id, payload in batch:
            try:
                if plan is not None:
                    plan.before_task(task_id)
                result = worker(payload)
                if plan is not None:
                    result = plan.after_task(task_id, result)
                results.send(("ok", task_id, result))
            except BaseException as exc:  # the supervisor owns retry policy
                results.send(("error", task_id, f"{type(exc).__name__}: {exc}"))


class _Worker:
    """One supervised pool process plus its dispatch bookkeeping."""

    def __init__(self, ctx, worker, chaos) -> None:
        self.inbox = ctx.SimpleQueue()
        self.results, child_end = ctx.Pipe(duplex=False)
        spec = chaos.spec if chaos is not None else ""
        state = chaos.state_dir if chaos is not None else ""
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker, spec, state, self.inbox, child_end),
            daemon=True,
        )
        self.process.start()
        # Close the parent's copy of the write end, or the worker's death
        # would never surface as EOF on self.results.
        child_end.close()
        #: Task ids dispatched to this worker whose results have not
        #: come back yet, in dispatch (= execution) order.
        self.outstanding: list = []
        self.deadline: float | None = None
        self.timeout: float | None = None

    @property
    def busy(self) -> bool:
        return bool(self.outstanding)

    def dispatch(self, batch: "list[tuple[Any, Any]]", timeout: float | None) -> None:
        self.outstanding = [task_id for task_id, _ in batch]
        self.timeout = timeout
        self.deadline = (time.monotonic() + timeout) if timeout else None
        self.inbox.put(batch)

    def complete(self, task_id: Any) -> None:
        """One task of the current batch reported back.

        The deadline is re-armed: within a batch each task gets the full
        ``timeout`` measured from when the worker could start it (batch
        dispatch for the first, the predecessor's completion after), so
        batching never shrinks a task's time budget.
        """
        try:
            self.outstanding.remove(task_id)
        except ValueError:
            return
        if not self.outstanding:
            self.deadline = None
        elif self.timeout:
            self.deadline = time.monotonic() + self.timeout

    def clear(self) -> None:
        self.outstanding = []
        self.deadline = None

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)


@contextmanager
def _sigterm_as_interrupt() -> Iterator[None]:
    """Deliver SIGTERM as KeyboardInterrupt for the duration (main thread only)."""

    def handler(signum, frame):  # noqa: ARG001 - signal handler signature
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, handler)
    except ValueError:  # not the main thread; SIGTERM keeps its disposition
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def run_supervised(
    tasks: Sequence[tuple[Any, Any]],
    worker: Callable[[Any], Any],
    *,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = DEFAULT_RETRIES,
    batch: "int | str" = 1,
    chaos: ChaosPlan | None = None,
    validate: Callable[[Any], Any] | None = None,
    on_result: Callable[[Any, Any], None] | None = None,
    progress: Callable[[str], None] | None = None,
    grace_s: float = DEFAULT_GRACE_S,
) -> SupervisorReport:
    """Run ``(task_id, payload)`` pairs through ``worker`` under supervision.

    ``worker`` must be a module-level callable (it crosses the process
    boundary); ``validate`` (if given) checks/parses each raw result and
    its return value is what lands in ``report.results`` and
    ``on_result`` — a validation error counts as a failed attempt
    (``invalid-result``) and is retried like any other.

    ``batch`` groups up to that many tasks per dispatch to one warm
    worker (``"adaptive"`` picks :func:`adaptive_batch`); results,
    retries, chaos hooks and checkpoints stay per-task, and a worker
    lost mid-batch costs each outstanding task one attempt.  Use it for
    homogeneous small tasks where per-dispatch overhead is comparable to
    the task itself; the default of 1 is the classic one-task-per-pipe
    protocol.

    Runs inline (no subprocesses) when ``jobs <= 1`` and neither a
    deadline nor a chaos plan demands real process isolation; inline
    mode still retries errors but cannot survive hangs or hard crashes
    (and has no dispatch overhead to batch away).
    """
    say = progress or (lambda line: None)
    report = SupervisorReport()
    items = [(task_id, payload) for task_id, payload in tasks]
    if batch != "adaptive" and (not isinstance(batch, int) or batch < 1):
        raise ConfigError(
            f"batch must be a positive int or 'adaptive', not {batch!r}"
        )
    if not items:
        return report
    schedule = backoff_schedule(retries)
    if jobs <= 1 and timeout is None and chaos is None:
        _run_inline(items, worker, retries, schedule, validate, on_result, say, report)
    else:
        _run_pool(
            items, worker, jobs=jobs, timeout=timeout, retries=retries,
            batch=batch, schedule=schedule, chaos=chaos, validate=validate,
            on_result=on_result, say=say, report=report, grace_s=grace_s,
        )
    return report


def _run_inline(items, worker, retries, schedule, validate, on_result, say, report):
    for task_id, payload in items:
        attempts = 0
        while True:
            attempts += 1
            kind = "error"
            # Counted before the worker runs, so a task's own metrics
            # delta (snapshotted inside the worker) never includes it.
            registry().counter("supervisor.dispatched").inc()
            try:
                value = worker(payload)
                kind = "invalid-result"
                value = validate(value) if validate is not None else value
            except KeyboardInterrupt:
                report.interrupted = True
                return
            except Exception as exc:
                message = f"{type(exc).__name__}: {exc}"
                if attempts > retries:
                    report.failures.append(
                        TaskFailure(task_id, kind, attempts, message)
                    )
                    say(f"task {task_id}: failed ({kind}) after "
                        f"{attempts} attempt(s): {message}")
                    break
                delay = schedule[attempts - 1]
                report.retried += 1
                registry().counter("supervisor.retries").inc()
                say(f"task {task_id}: attempt {attempts} failed ({kind}); "
                    f"retrying in {delay:.2f}s")
                time.sleep(delay)
                continue
            report.results[task_id] = value
            registry().counter("supervisor.completed").inc()
            if on_result is not None:
                on_result(task_id, value)
            break


def _run_pool(
    items, worker, *, jobs, timeout, retries, batch, schedule, chaos, validate,
    on_result, say, report, grace_s,
):
    ctx = mp.get_context()
    payloads = dict(items)
    count = max(1, min(jobs, len(items)))
    chunk = adaptive_batch(len(items), count) if batch == "adaptive" else batch

    def spawn() -> _Worker:
        return _Worker(ctx, worker, chaos)

    workers: list[_Worker] = [spawn() for _ in range(count)]
    # (task_id, attempts_so_far, ready_at): attempts_so_far counts dispatches
    # already consumed; ready_at gates retry dispatch on the backoff schedule.
    pending: list[tuple[Any, int, float]] = [(task_id, 0, 0.0) for task_id, _ in items]
    done: set = set()

    def handle_attempt_failure(task_id: Any, attempts: int, kind: str, message: str):
        registry().counter(f"supervisor.failures.{kind}").inc()
        if attempts > retries:
            failure = TaskFailure(task_id, kind, attempts, message)
            report.failures.append(failure)
            done.add(task_id)
            say(f"task {task_id}: failed ({kind}) after "
                f"{attempts} attempt(s): {message}")
        else:
            delay = schedule[attempts - 1]
            report.retried += 1
            registry().counter("supervisor.retries").inc()
            pending.append((task_id, attempts, time.monotonic() + delay))
            say(f"task {task_id}: attempt {attempts} failed ({kind}); "
                f"retrying in {delay:.2f}s")

    def dispatch_ready() -> None:
        now = time.monotonic()
        idle = [w for w in workers if not w.busy and w.process.is_alive()]
        for n, w in enumerate(idle):
            # Never let one worker swallow work that would leave the
            # remaining idle workers dry: a tail of R ready tasks over I
            # idle workers dispatches in ceil(R/I)-sized batches.
            ready = [
                i for i, (tid, _, ready_at) in enumerate(pending)
                if ready_at <= now and tid not in done
            ]
            if not ready:
                break
            take = min(chunk, -(-len(ready) // (len(idle) - n)))
            group = []
            for i in reversed(ready[:take]):  # pop back to front
                task_id, attempts, _ = pending.pop(i)
                group.append((task_id, payloads[task_id]))
                attempt_counts[task_id] = attempts + 1
            group.reverse()  # restore pending order within the batch
            w.dispatch(group, timeout)
            registry().counter("supervisor.dispatched").inc(len(group))
            registry().counter("supervisor.batches").inc()

    attempt_counts: dict[Any, int] = {}

    def owner_of(task_id: Any) -> _Worker | None:
        return next((w for w in workers if task_id in w.outstanding), None)

    def drain_results(block: bool, honor_chaos: bool) -> None:
        conns = [w.results for w in workers if not w.results.closed]
        if not conns:
            return
        # wait() also flags connections at EOF (dead worker) as ready;
        # recv() drains any buffered result first, then raises.  Messages
        # are processed one recv at a time so an interrupt raised here
        # leaves the rest buffered in the pipes for the graceful drain.
        for conn in mp_connection.wait(conns, timeout=_POLL_S if block else 0):
            while True:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    break  # severed pipe: check_crashes owns the bookkeeping
                status, task_id, value = message
                w = owner_of(task_id)
                if w is not None:
                    w.complete(task_id)
                if task_id in done or task_id in report.results:
                    continue  # stale duplicate from a worker we already wrote off
                attempts = attempt_counts.get(task_id, 1)
                if status == "ok":
                    try:
                        parsed = validate(value) if validate is not None else value
                    except Exception as exc:
                        handle_attempt_failure(
                            task_id, attempts, "invalid-result",
                            f"{type(exc).__name__}: {exc}",
                        )
                        continue
                    report.results[task_id] = parsed
                    done.add(task_id)
                    registry().counter("supervisor.completed").inc()
                    if on_result is not None:
                        on_result(task_id, parsed)
                    if honor_chaos and chaos is not None and chaos.wants_interrupt(task_id):
                        say(f"chaos: injecting interrupt after task {task_id}")
                        raise KeyboardInterrupt
                else:
                    handle_attempt_failure(task_id, attempts, "error", str(value))

    def check_deadlines() -> None:
        now = time.monotonic()
        for i, w in enumerate(workers):
            if w.busy and w.deadline is not None and now > w.deadline:
                stalled = list(w.outstanding)
                say(f"task {stalled[0]}: exceeded {timeout:.1f}s deadline; "
                    f"killing worker pid {w.process.pid} and respawning")
                w.kill()
                w.clear()
                workers[i] = spawn()
                # The head task blew its deadline; the rest of the batch
                # died with the worker and each costs one attempt too.
                handle_attempt_failure(
                    stalled[0], attempt_counts.get(stalled[0], 1), "timeout",
                    f"exceeded {timeout:.1f}s deadline",
                )
                for task_id in stalled[1:]:
                    handle_attempt_failure(
                        task_id, attempt_counts.get(task_id, 1), "timeout",
                        f"batch abandoned: worker killed after task "
                        f"{stalled[0]} exceeded its {timeout:.1f}s deadline",
                    )

    def check_crashes() -> None:
        for i, w in enumerate(workers):
            if not w.process.is_alive():
                stalled, code = list(w.outstanding), w.process.exitcode
                w.kill()  # reap
                w.clear()
                workers[i] = spawn()
                if stalled:
                    say(f"worker died (exit {code}) running task {stalled[0]}; "
                        f"respawning")
                    for task_id in stalled:
                        handle_attempt_failure(
                            task_id, attempt_counts.get(task_id, 1), "crash",
                            f"worker died with exit code {code}",
                        )

    try:
        with _sigterm_as_interrupt():
            try:
                while (any(tid not in done for tid, _, _ in pending)
                       or any(w.busy for w in workers)):
                    dispatch_ready()
                    drain_results(block=True, honor_chaos=True)
                    check_deadlines()
                    check_crashes()
            except KeyboardInterrupt:
                report.interrupted = True
                in_flight = sum(1 for w in workers if w.busy)
                say(f"interrupted: draining {in_flight} in-flight task(s) "
                    f"for up to {grace_s:.0f}s")
                _graceful_drain(workers, drain_results, grace_s, say)
    finally:
        _shutdown(workers)


def _graceful_drain(workers, drain_results, grace_s, say) -> None:
    """Collect what the busy workers can still finish inside the grace period."""
    deadline = time.monotonic() + grace_s
    try:
        while any(w.busy for w in workers) and time.monotonic() < deadline:
            drain_results(True, False)
            for w in workers:  # a crash during the drain just ends that task
                if w.busy and not w.process.is_alive():
                    w.clear()
    except KeyboardInterrupt:
        say("second interrupt: abandoning the drain")


def _shutdown(workers: list[_Worker]) -> None:
    """Stop every worker: sentinel for the idle, terminate for the stubborn."""
    for w in workers:
        if w.process.is_alive() and not w.busy:
            try:
                w.inbox.put(None)
            except (OSError, ValueError):
                pass
    for w in workers:
        w.process.join(timeout=1.0)
    for w in workers:
        if w.process.is_alive():
            w.process.terminate()
            w.process.join(timeout=1.0)
        if w.process.is_alive():
            w.kill()
