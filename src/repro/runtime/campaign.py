"""The campaign kernel: one supervised run of a task list, done once.

Every batch job in the repo — the experiment runner, the fuzz campaign,
scan cross-validation, batch scans and trace recording — is the same
loop: skip what is already done, run the rest under
:func:`repro.runtime.supervisor.run_supervised`, hand each completion to
the caller's checkpoint, and come back with results in task order plus
the failures.  :func:`execute_campaign` is that loop.  Callers keep only
what is really theirs: how tasks are built, what the on-disk checkpoint
looks like and how results are rendered.

The kernel owns three rules so no caller can get them wrong:

* the chaos plan (``--chaos``) is parsed here and its marker directory
  is removed however the run ends;
* an interrupted run raises :class:`repro.errors.CampaignInterrupted`,
  carrying the partial result, never a result that looks complete;
* ``resume`` without a checkpoint location is a
  :class:`repro.errors.ConfigError`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.errors import CampaignInterrupted, ConfigError
from repro.runtime.chaos import ChaosPlan
from repro.runtime.supervisor import (
    DEFAULT_GRACE_S,
    DEFAULT_RETRIES,
    TaskFailure,
    run_supervised,
)

__all__ = ["CampaignResult", "execute_campaign"]


class CampaignResult(list):
    """Completed results in task order, plus campaign telemetry.

    A list of per-task results; failed and unfinished tasks are absent,
    and ``task_ids`` names the completed tasks in the same order.  It
    also carries the structured failures, the number of corrupt files
    quarantined, the tasks resumed from a checkpoint and the attempts
    that were retried.  A caller may replace the items with a derived
    list (one finding per entry, say); ``task_ids`` still lists the
    completed tasks.
    """

    def __init__(
        self,
        results: Sequence[Any] = (),
        *,
        task_ids: Sequence[Any] = (),
        failures: Sequence[TaskFailure] = (),
        quarantined: int = 0,
        resumed: int = 0,
        retried: int = 0,
    ) -> None:
        super().__init__(results)
        self.task_ids = list(task_ids)
        self.failures = list(failures)
        self.quarantined = quarantined
        self.resumed = resumed
        self.retried = retried


def execute_campaign(
    tasks: Sequence[tuple[Any, Any]],
    worker: Callable[[Any], Any],
    *,
    validate: Callable[[Any], Any] | None = None,
    recovered: Mapping[Any, Any] | None = None,
    cached: Mapping[Any, Any] | None = None,
    quarantined: int = 0,
    on_result: Callable[[Any, Any], None] | None = None,
    describe: Callable[[Any, Any], str] | None = None,
    progress: Callable[[str], None] | None = None,
    checkpoint: Path | None = None,
    resume: bool = False,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = DEFAULT_RETRIES,
    batch: "int | str" = 1,
    chaos: str | None = None,
    grace_s: float = DEFAULT_GRACE_S,
) -> CampaignResult:
    """Run ``(task_id, payload)`` pairs through ``worker``; results in task order.

    ``recovered`` holds results a previous run checkpointed (counted as
    ``resumed``) and ``cached`` results the caller already has from
    elsewhere; both are skipped and returned in place.  ``quarantined``
    is the number of corrupt files the caller's recovery moved aside.
    Each fresh completion goes to ``on_result`` (the caller's checkpoint
    write), then ``describe(task_id, result)`` becomes a ``progress``
    line.  ``checkpoint`` is where the caller's checkpoint lives; it is
    what an interrupt reports.  The remaining keywords are passed to
    :func:`repro.runtime.supervisor.run_supervised`; ``chaos`` is a
    :mod:`repro.runtime.chaos` spec.

    Raises :class:`repro.errors.CampaignInterrupted` after a SIGINT or
    SIGTERM, once the in-flight tasks have drained.
    """
    if resume and checkpoint is None:
        raise ConfigError("resume needs a checkpoint location to resume from")
    say = progress or (lambda line: None)
    done = {**(cached or {}), **(recovered or {})}

    def landed(task_id: Any, result: Any) -> None:
        if on_result is not None:
            on_result(task_id, result)
        if describe is not None:
            say(describe(task_id, result))

    plan = ChaosPlan.from_spec(chaos) if chaos else None
    try:
        report = run_supervised(
            [(task_id, payload) for task_id, payload in tasks if task_id not in done],
            worker,
            jobs=jobs,
            timeout=timeout,
            retries=retries,
            batch=batch,
            chaos=plan,
            validate=validate,
            on_result=landed,
            progress=say,
            grace_s=grace_s,
        )
    finally:
        if plan is not None:
            plan.cleanup()

    done.update(report.results)
    order = [task_id for task_id, _ in tasks if task_id in done]
    campaign = CampaignResult(
        [done[task_id] for task_id in order],
        task_ids=order,
        failures=report.failures,
        quarantined=quarantined,
        resumed=len(recovered or {}),
        retried=report.retried,
    )
    if report.interrupted:
        raise CampaignInterrupted(
            f"campaign interrupted with {len(campaign)}/{len(tasks)} task(s) done",
            partial=campaign,
            checkpoint=checkpoint,
        )
    return campaign
