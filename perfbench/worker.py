"""One measured repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this file once per repetition, so every repetition pays
what a user's CLI call pays: interpreter start, imports, a cold decode
LRU and cold hash caches.  It prints one JSON object as its last line of
standard output.  It can also be run by hand, for example to compare
execution engines (``REPRO_ENGINE`` is honoured here; ``run.py`` removes
it from the environment)::

    PYTHONPATH=src python3 perfbench/worker.py --workload spectre-stl \\
        --seed 1 --trace 0 --jobs 1 --spawned-at 0 --tmp /some/dir

The timed region is one call of the workload's public entry point.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

#: Workload sizes.  ``fuzz-oracle`` uses the CLI's default mitigations.
FUZZ_BUDGET = 120
FIG11_SAMPLES_PER_MODEL = 1
FIG11_ROUNDS = 2


def _counters() -> dict[str, int]:
    from repro.telemetry.metrics import registry

    return dict(registry().snapshot(timers=False)["counters"])


def _delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    """Counters only grow, so the delta names just what moved."""
    return {n: v - before.get(n, 0) for n, v in after.items() if v != before.get(n, 0)}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _collect_pool_counters(out_dir: Path) -> None:
    """Make each supervised pool worker leave its counter delta in ``out_dir``.

    Pool workers are forked and exit on their own; the simulated-work
    counters they accumulate would otherwise die with them.
    """
    from repro.runtime import supervisor

    original = supervisor._worker_main

    def worker_main(*args):
        before = _counters()
        try:
            original(*args)
        finally:
            (out_dir / f"pool-{os.getpid()}.json").write_text(
                json.dumps(_delta(_counters(), before))
            )

    supervisor._worker_main = worker_main


def _pool_counters(out_dir: Path) -> dict[str, int]:
    total: dict[str, int] = {}
    for path in sorted(out_dir.glob("pool-*.json")):
        for name, value in json.loads(path.read_text()).items():
            total[name] = total.get(name, 0) + value
    return total


def fuzz_oracle(seed: int, jobs: int, tmp: Path, tracer, budget: int = FUZZ_BUDGET) -> dict:
    from repro.fuzz import cli
    from repro.fuzz import corpus as corpus_mod

    pool_dir = tmp / "pool"
    pool_dir.mkdir()
    _collect_pool_counters(pool_dir)
    out = tmp / "findings.jsonl"
    argv = [
        "--budget", str(budget), "--seed", str(seed), "--jobs", str(jobs),
        "--no-corpus", "--out", str(out),
    ]
    tasks = 2 * budget + len(corpus_mod.replay_order(None))
    stdout = io.StringIO()
    run = _timed(tracer, lambda: cli.main(argv), stdout)
    text = stdout.getvalue()
    findings = out.read_bytes() if out.exists() else b""
    clean = run["value"] == 0 and "\nclean: " in "\n" + text
    run.update(
        ok=clean,
        problem="" if clean else f"repro-fuzz exit {run['value']}: {text.strip().splitlines()[-1:]}",
        regressions="\nREGRESSIONS: " in text,
        digest=_digest(findings),
        cases=budget,
        tasks=tasks,
        task_failures=text.count("\n  FAILED task "),
        findings=findings.count(b"\n"),
        mitigations=len(cli.DEFAULT_MITIGATIONS),
        oracle_cases=budget * len(cli.DEFAULT_MITIGATIONS),
        pool=_pool_counters(pool_dir),
    )
    return run


def fig11_fingerprint(seed: int, jobs: int, tmp: Path, tracer) -> dict:
    from repro.experiments import fig11_fingerprint as fig11

    run = _timed(
        tracer,
        lambda: fig11.run(
            samples_per_model=FIG11_SAMPLES_PER_MODEL, rounds=FIG11_ROUNDS, seed=seed
        ),
    )
    result = run["value"]
    run.update(_experiment_outcome(result), cases=FIG11_SAMPLES_PER_MODEL * result.metrics["models"])
    return run


def spectre_stl(seed: int, jobs: int, tmp: Path, tracer) -> dict:
    from repro.experiments.attack_evals import run_stl

    run = _timed(tracer, lambda: run_stl(seed=seed))
    result = run["value"]
    # One case is one secret byte leaked and compared with the planted one.
    run.update(_experiment_outcome(result), cases=int(result.rows[0][1]))
    return run


def _experiment_outcome(result) -> dict:
    data = result.to_dict()
    data.pop("wall_time_s", None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return {"ok": True, "problem": "", "digest": _digest(canonical), "tasks": 1, "task_failures": 0}


WORKLOADS = {
    "fuzz-oracle": fuzz_oracle,
    "fig11-fingerprint": fig11_fingerprint,
    "spectre-stl": spectre_stl,
}


class SetupDone(Exception):
    """Raised where the timed region would start, in a setup-only repetition."""


class SetupOnly:
    """Stands in for the tracer when only the set-up is to be measured."""

    def begin(self) -> None:
        raise SetupDone

    def finish(self) -> None:
        pass


def _timed(tracer, call, stdout: io.StringIO | None = None) -> dict:
    """Run ``call`` as the timed region; record wall time and counter deltas."""
    before = _counters()
    redirect = contextlib.redirect_stdout(stdout) if stdout is not None else contextlib.nullcontext()
    with redirect:
        timed_at = time.monotonic()
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin()
        try:
            value = call()
        finally:
            if tracer is not None:
                tracer.finish()
            wall = time.perf_counter() - start
    return {"value": value, "wall_s": wall, "timed_at": timed_at, "counters": _delta(_counters(), before)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--tmp", type=Path, required=True, help="scratch directory for this repetition")
    parser.add_argument("--spans", type=Path, default=None, help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the timed region would start; report setup_s only")
    args = parser.parse_args(argv)

    from repro.cpu.engine import default_engine
    from repro.cpu.isa import decode_cache_info

    tracer = SetupOnly() if args.setup_only else None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        run = WORKLOADS[args.workload](args.seed, args.jobs, args.tmp, tracer)
    except SetupDone:
        print(json.dumps({"setup_s": time.monotonic() - args.spawned_at}))
        return 0
    run.pop("value")
    run["setup_s"] = run.pop("timed_at") - args.spawned_at
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run.update(
        rss_self_mb=self_kb / 1024,
        rss_worker_mb=children_kb / 1024,
        jobs=args.jobs,
        engine=default_engine(),
        python=platform.python_version(),
        nproc=os.cpu_count(),
        decode=decode_cache_info(),
    )
    if tracer is not None:
        run["layers"] = tracer.aggregate()
        run["trace_wall_s"] = tracer.wall_s()
        run["atomic_bytes"] = tracer.atomic_bytes
        run["collision_candidates"] = tracer.collision_candidates
        run["collision_validated"] = tracer.collision_validated
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(run, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
