"""The ``repro-scan`` CLI: static scans, fence advice, cross-validation.

Three subcommands over the same analyzer:

* ``scan`` — lift and scan programs (corpus entries, ``case:`` targets,
  generated batches) per mitigation, emitting a canonical findings JSONL
  in stable task order.  ``--jobs N`` fans programs out over worker
  processes; the artifact is byte-identical whatever ``N`` was, which
  ``make scan-smoke`` enforces with a literal ``cmp``.
* ``advise`` — compute, apply and verify a minimal fence placement for
  each target (:mod:`repro.static.advisor`).
* ``crossval`` — replay corpus/shrunk/generated cases through both the
  scanner and the dynamic two-fill oracle and print the agreement
  matrix (:mod:`repro.static.crossval`); exits 1 on any soundness
  violation, because a dynamic leak the scanner missed is a bug in the
  scanner, never in the program.

Exit codes follow the shared campaign contract
(:mod:`repro.runtime.exitcodes`): 0 clean, 1 failures/violations, 2 bad
usage, 3 interrupted.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, Sequence

from repro.core.config import ZEN3_MODELS
from repro.errors import ArtifactError, ConfigError, ReproError
from repro.fuzz import corpus as corpus_mod
from repro.fuzz.cli import derive_case
from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, Corpus
from repro.fuzz.gen import GENERATORS, build_program
from repro.fuzz.harness import MITIGATIONS
from repro.runtime import exitcodes
from repro.runtime.atomic import atomic_write_text
from repro.runtime.cliutil import build_parser
from repro.runtime.supervisor import DEFAULT_RETRIES, run_supervised
from repro.static import crossval as crossval_mod
from repro.static.advisor import advise
from repro.static.gadgets import scan_program
from repro.static.report import canonical, render_crossval, render_plan, render_scan

__all__ = ["main", "parse_target", "run_scan_batch"]

_EPILOG = """\
targets are `case:<generator>:<seed>:<blocks>` (the repro-trace syntax);
`scan` with no targets scans the persistent corpus replay set.
`crossval` exits 1 on any soundness violation: a dynamically observed
leak the scanner failed to flag"""


def parse_target(target: str) -> tuple[str, int, int]:
    """Parse a ``case:<generator>:<seed>:<blocks>`` program target."""
    parts = target.split(":")
    if len(parts) != 4 or parts[0] != "case":
        raise ConfigError(
            f"bad target {target!r}: expected case:<generator>:<seed>:<blocks>"
        )
    _, generator, seed, blocks = parts
    if generator not in GENERATORS:
        raise ConfigError(
            f"unknown generator {generator!r}; known: {', '.join(sorted(GENERATORS))}"
        )
    try:
        return generator, int(seed), int(blocks)
    except ValueError:
        raise ConfigError(
            f"bad target {target!r}: seed and blocks must be integers"
        ) from None


def _scan_tasks(
    targets: Sequence[str],
    *,
    corpus_dir: str | Path | None,
    budget: int,
    seed: int,
    mitigations: Sequence[str],
) -> list[dict]:
    """The scan task list: explicit targets, else corpus + generated."""
    cases: list[tuple[str, int, int, str]] = []
    if targets:
        for target in targets:
            generator, case_seed, blocks = parse_target(target)
            cases.append((generator, case_seed, blocks, target))
    else:
        corp = Corpus(corpus_dir) if corpus_dir is not None else None
        for entry in corpus_mod.replay_order(corp):
            cases.append((entry.generator, entry.seed, entry.blocks, entry.label))
    for index in range(budget):
        case_seed, blocks = derive_case(seed, index)
        for generator in ("fuzz-v1", "oracle-v1"):
            cases.append((generator, case_seed, blocks, f"gen-{index}"))
    tasks = []
    for generator, case_seed, blocks, label in cases:
        for mitigation in mitigations:
            tasks.append(
                {
                    "task": len(tasks),
                    "generator": generator,
                    "seed": case_seed,
                    "blocks": blocks,
                    "label": label,
                    "mitigation": mitigation,
                }
            )
    return tasks


def _scan_one(task: dict) -> dict:
    """Worker: scan one (program, mitigation); returns the JSONL record."""
    instructions = build_program(task["generator"], task["seed"], task["blocks"])
    report = scan_program(
        instructions,
        mitigation=task["mitigation"],
        name=f"{task['generator']}:{task['seed']}:{task['blocks']}",
    )
    from repro.static.report import SCAN_SCHEMA

    return {
        "schema": SCAN_SCHEMA,
        "generator": task["generator"],
        "seed": task["seed"],
        "blocks": task["blocks"],
        "label": task["label"],
        **report.to_dict(),
    }


def _validate_record(record: object) -> dict:
    if not isinstance(record, dict) or "gadgets" not in record:
        raise ArtifactError(f"malformed scan record: {record!r}")
    return record


def run_scan_batch(
    tasks: list[dict],
    *,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = DEFAULT_RETRIES,
    progress: Callable[[str], None] | None = None,
):
    """Supervised fan-out of scan tasks; records in stable task order."""
    say = progress or (lambda line: None)
    results: dict[int, dict] = {}

    def on_result(task_id: int, record: dict) -> None:
        results[task_id] = record
        verdict = "clean" if record["clean"] else f"{len(record['gadgets'])} gadget(s)"
        say(
            f"task {task_id:3d} {record['name']:<24s} "
            f"[{record['mitigation']}]: {verdict}"
        )

    report = run_supervised(
        [(task["task"], task) for task in tasks],
        _scan_one,
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        validate=_validate_record,
        on_result=on_result,
        progress=say,
    )
    return [results[task_id] for task_id in sorted(results)], report


def _mitigation_list(text: str) -> list[str]:
    mitigations = [part.strip() for part in text.split(",") if part.strip()]
    for mitigation in mitigations:
        if mitigation not in MITIGATIONS:
            raise ConfigError(
                f"unknown mitigation {mitigation!r}; "
                f"known: {', '.join(MITIGATIONS)}"
            )
    return mitigations


def _cmd_scan(args) -> int:
    say = (lambda line: print(f"  .. {line}", file=sys.stderr)) if args.progress \
        else (lambda line: None)
    tasks = _scan_tasks(
        args.targets,
        corpus_dir=None if args.no_corpus else args.corpus_dir,
        budget=max(0, args.budget),
        seed=args.seed,
        mitigations=_mitigation_list(args.mitigation),
    )
    records, report = run_scan_batch(
        tasks, jobs=max(1, args.jobs), timeout=args.timeout,
        retries=max(0, args.retries), progress=say,
    )
    if args.out:
        path = atomic_write_text(
            args.out, "".join(canonical(record) + "\n" for record in records)
        )
        print(f"scan findings written to {path}")
    flagged = sum(1 for record in records if not record["clean"])
    gadgets = sum(len(record["gadgets"]) for record in records)
    print(
        f"scanned {len(records)} (program, mitigation) case(s): "
        f"{flagged} flagged, {gadgets} gadget(s) total"
    )
    if args.verbose:
        for record in records:
            if not record["clean"]:
                print(f"  {record['name']} [{record['mitigation']}]: "
                      f"{record['kinds']}")
    for failure in report.failures:
        print(
            f"  FAILED task {failure.task}: {failure.kind} after "
            f"{failure.attempts} attempt(s) — {failure.message}"
        )
    return exitcodes.EXIT_FAILURES if report.failures else exitcodes.EXIT_OK


def _cmd_advise(args) -> int:
    status = exitcodes.EXIT_OK
    for target in args.targets:
        generator, seed, blocks = parse_target(target)
        instructions = build_program(generator, seed, blocks)
        plan = advise(instructions, name=target)
        print(render_plan(plan))
        if args.verbose:
            print(render_scan(plan.before, verbose=True))
        if not plan.bypass_clean:
            status = exitcodes.EXIT_FAILURES
    return status


def _cmd_crossval(args) -> int:
    say = (lambda line: print(f"  .. {line}", file=sys.stderr)) if args.progress \
        else (lambda line: None)
    report = crossval_mod.run_crossval(
        corpus_dir=None if args.no_corpus else args.corpus_dir,
        findings=args.findings,
        budget=max(0, args.budget),
        seed=args.seed,
        mitigations=_mitigation_list(args.mitigation),
        model_name=args.cpu_model,
        jobs=max(1, args.jobs),
        timeout=args.timeout,
        retries=max(0, args.retries),
        progress=say,
    )
    if args.out:
        path = atomic_write_text(args.out, canonical(report.to_dict()) + "\n")
        print(f"agreement report written to {path}")
    print(render_crossval(report))
    for failure in report.failures:
        print(
            f"  FAILED case {failure.task}: {failure.kind} after "
            f"{failure.attempts} attempt(s) — {failure.message}"
        )
    return exitcodes.EXIT_OK if report.sound else exitcodes.EXIT_FAILURES


def main(argv: list[str] | None = None) -> int:
    parser = build_parser(
        "repro-scan",
        "Static speculative-leakage scanner: taint-based gadget detection "
        "over the micro-ISA, cross-validated against the dynamic two-fill "
        "oracle.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, targets_help: str, nargs: str) -> None:
        p.add_argument("targets", nargs=nargs, help=targets_help)
        p.add_argument("--verbose", "-v", action="store_true",
                       help="print per-gadget spans and preconditions")

    scan = sub.add_parser("scan", help="scan programs for leakage gadgets")
    common(scan, "case:<generator>:<seed>:<blocks> targets "
                 "(default: the corpus replay set)", "*")
    scan.add_argument("--mitigation", default=",".join(MITIGATIONS), metavar="LIST",
                      help=f"comma-separated configs to scan under "
                           f"(default {','.join(MITIGATIONS)})")
    scan.add_argument("--budget", type=int, default=0, metavar="N",
                      help="additionally scan N generated cases "
                           "(fuzz-v1 + oracle-v1 each, default 0)")
    scan.add_argument("--seed", type=int, default=0,
                      help="master seed for --budget derivation (default 0)")
    scan.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                      help="worker processes (default 1; output is identical)")
    scan.add_argument("--out", default="scan-findings.jsonl", metavar="FILE",
                      help="findings JSONL path (default scan-findings.jsonl; "
                           "'' disables)")
    scan.add_argument("--corpus-dir", default=DEFAULT_CORPUS_DIR, metavar="DIR",
                      help=f"corpus location (default {DEFAULT_CORPUS_DIR})")
    scan.add_argument("--no-corpus", action="store_true",
                      help="skip on-disk corpus entries "
                           "(built-in regressions still scan)")
    scan.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                      help="per-task deadline; hung workers are retried")
    scan.add_argument("--retries", type=int, default=DEFAULT_RETRIES, metavar="N",
                      help=f"retry budget per task (default {DEFAULT_RETRIES})")
    scan.add_argument("--progress", action="store_true",
                      help="stream per-task progress to stderr")
    scan.set_defaults(func=_cmd_scan)

    adv = sub.add_parser("advise", help="minimal fence placement per target")
    common(adv, "case:<generator>:<seed>:<blocks> targets", "+")
    adv.set_defaults(func=_cmd_advise)

    cross = sub.add_parser(
        "crossval", help="agreement matrix: scanner vs dynamic oracle"
    )
    cross.add_argument("--mitigation", default=",".join(MITIGATIONS), metavar="LIST",
                       help=f"comma-separated configs "
                            f"(default {','.join(MITIGATIONS)})")
    cross.add_argument("--budget", type=int, default=0, metavar="N",
                       help="generated cases on top of the corpus (default 0)")
    cross.add_argument("--seed", type=int, default=0,
                       help="master seed for --budget derivation (default 0)")
    cross.add_argument("--findings", action="append", default=[], metavar="FILE",
                       help="replay shrunk reproducers from this findings "
                            "JSONL (repeatable)")
    cross.add_argument("--cpu-model", default=None, choices=sorted(ZEN3_MODELS),
                       metavar="NAME", help="TABLE III platform "
                                            "(default: ryzen9-5900x)")
    cross.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                       help="worker processes (default 1; output is identical)")
    cross.add_argument("--out", default="", metavar="FILE",
                       help="also write the full agreement report as JSON")
    cross.add_argument("--corpus-dir", default=DEFAULT_CORPUS_DIR, metavar="DIR",
                       help=f"corpus location (default {DEFAULT_CORPUS_DIR})")
    cross.add_argument("--no-corpus", action="store_true",
                       help="skip on-disk corpus entries")
    cross.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="per-case deadline; hung workers are retried")
    cross.add_argument("--retries", type=int, default=DEFAULT_RETRIES, metavar="N",
                       help=f"retry budget per case (default {DEFAULT_RETRIES})")
    cross.add_argument("--progress", action="store_true",
                       help="stream per-case progress to stderr")
    cross.set_defaults(func=_cmd_crossval)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ArtifactError) as exc:
        print(f"repro-scan: {exc}", file=sys.stderr)
        return exitcodes.EXIT_USAGE
    except ReproError as exc:
        print(f"repro-scan: {exc}", file=sys.stderr)
        return exitcodes.EXIT_FAILURES


if __name__ == "__main__":
    sys.exit(main())
