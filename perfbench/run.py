"""End-to-end benchmark of the simulator: run one workload, check it, report.

    python3 perfbench/run.py --workload fuzz-oracle --seed 1 --seconds 25 --trace 0

Each repetition runs in a fresh interpreter (``worker.py``) with its own
scratch directory, no corpus, no result cache, and ``REPRO_ENGINE`` /
``REPRO_RUNTIME_CHAOS`` removed from its environment.  ``--trace 0``
repeats the workload for about ``--seconds`` and reports the end-to-end
metrics as medians over the repetitions.  ``--trace 1`` runs untraced
repetitions and then one traced repetition, and reports the per-layer
metrics (NOTES.md lists them and the end-to-end metric each should move).

Every repetition is checked: ``fuzz-oracle`` must end with the clean
verdict, the output digest must equal the committed one for the seeds in
``digests.json`` and must be the same in every repetition of the run
(traced or not), and so must the simulated pipeline counters.  The last
line of standard output is one JSON object; the exit code is 1 when any
check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"

WORKLOADS = ("fuzz-oracle", "fig11-fingerprint", "spectre-stl")
#: Worker processes for fuzz-oracle's untraced runs, fixed so that runs
#: compare across hosts.  Its traced run uses one: spans recorded in
#: forked pool workers never reach the parent.
FUZZ_JOBS = 2
#: Repetitions per untraced run, at least; more while --seconds allows.
MIN_REPS = 2
#: setup_s is the median of this many set-ups per untraced run; the
#: repetitions' own set-ups are topped up with set-up-only starts.
SETUP_SAMPLES = 9
#: No repetition starts after this many seconds, so a run ends in time.
LAST_START_S = 120.0
RUN_DEADLINE_S = 170.0
SIM_COUNTERS = ("pipeline.runs", "pipeline.retired", "pipeline.cycles", "pipeline.rollbacks")


class Rep:
    """One repetition's result (``data``) plus the checks it failed."""

    def __init__(self, data: dict | None, problem: str = "") -> None:
        self.data = data or {}
        self.problems = [problem] if problem else []

    @property
    def ran(self) -> bool:
        return bool(self.data)

    def sim(self) -> dict[str, int]:
        """Simulated pipeline counters, summed over the process and its pool."""
        counters, pool = self.data.get("counters", {}), self.data.get("pool", {})
        return {n: counters.get(n, 0) + pool.get(n, 0) for n in SIM_COUNTERS}


def hermetic_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("REPRO_ENGINE", "REPRO_RUNTIME_CHAOS", "PYTHONPATH"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(SCRATCH / "tmp")
    return env


def run_rep(
    workload: str, seed: int, *, trace: int, jobs: int, timeout: float,
    spans: Path | None = None, setup_only: bool = False,
) -> Rep:
    """Start one worker interpreter, wait for it and every process it started."""
    (SCRATCH / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH / "tmp"))
    try:
        with (tmp / "stderr.txt").open("w+b") as err:
            spawned_at = time.monotonic()
            cmd = [
                sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--trace", str(trace), "--jobs", str(jobs),
                "--spawned-at", repr(spawned_at), "--tmp", str(tmp),
            ]
            if spans is not None:
                cmd += ["--spans", str(spans)]
            if setup_only:
                cmd.append("--setup-only")
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err, cwd=tmp,
                env=hermetic_env(), start_new_session=True,
            )
            try:
                out, _ = proc.communicate(timeout=max(1.0, timeout))
            except subprocess.TimeoutExpired:
                _kill_group(proc.pid)
                proc.communicate()
                return Rep(None, f"timed out after {timeout:.0f}s")
            finally:
                _kill_group(proc.pid)
            if proc.returncode != 0:
                err.seek(0)
                tail = err.read().decode(errors="replace").strip().splitlines()[-3:]
                return Rep(None, f"worker exit {proc.returncode}: {' | '.join(tail)}")
        lines = out.decode().strip().splitlines()
        try:
            return Rep(json.loads(lines[-1]))
        except (IndexError, json.JSONDecodeError):
            return Rep(None, "worker printed no result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _kill_group(pgid: int) -> None:
    """Kill whatever is left of a worker's process group and wait for it to go."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def check(reps: list[Rep], workload: str, seed: int) -> None:
    """Attach a problem to every repetition whose outputs are wrong."""
    committed = json.loads((HERE / "digests.json").read_text())[workload].get(str(seed))
    ran = [rep for rep in reps if rep.ran]
    if not ran:
        return
    first = ran[0]
    for rep in ran:
        data = rep.data
        if not data["ok"]:
            rep.problems.append(data["problem"])
        if committed is not None and data["digest"] != committed:
            rep.problems.append(f"digest {data['digest'][:12]} != committed {committed[:12]}")
        if data["digest"] != first.data["digest"]:
            rep.problems.append("digest differs between repetitions of one seed")
        if rep.sim() != first.sim():
            rep.problems.append(f"simulated counters differ: {rep.sim()} vs {first.sim()}")
        if "layers" in data:
            rep.problems += wrapper_gaps(workload, data, rep.sim())


def wrapper_gaps(workload: str, data: dict, sim: dict[str, int]) -> list[str]:
    """Traced call counts that differ from the work the program counted.

    A wrapper missing from one binding (say a module that did
    ``from repro.runtime.atomic import atomic_write_json``) shows up here
    as too few calls.
    """
    expected = {"cpu.run": ("pipeline.runs", sim["pipeline.runs"])}
    if workload == "fuzz-oracle":
        executions = sum(
            v for n, v in data["counters"].items() if n.startswith("fuzz.executions.")
        )
        task_runs = data["tasks"] * data["mitigations"]
        expected.update({
            "cpu.machine": ("fuzz.executions.*", executions),
            "runtime.atomic": ("checkpoint rewrites + findings file", data["tasks"] + 1),
            "fuzz.gen": ("tasks x mitigations", task_runs),
            "fuzz.harness": ("fuzz.executions.*", executions),
            "fuzz.compare": ("tasks x mitigations", task_runs),
        })
    calls = {layer: data["layers"][layer]["calls"] for layer in expected}
    return [
        f"traced {layer}.calls {calls[layer]} != {what} {want}"
        for layer, (what, want) in expected.items() if calls[layer] != want
    ]


def ops(rep: Rep) -> tuple[int, int]:
    """(attempted, failed) operations: fuzz tasks, or whole runs otherwise."""
    if not rep.ran:
        return 1, 1
    data = rep.data
    attempted, failures = data["tasks"], data["task_failures"]
    own = [] if data["ok"] else [data["problem"]]
    if rep.problems and not (rep.problems == own and failures and not data.get("regressions")):
        return attempted, attempted
    return attempted, failures


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list[Rep], setups: list[float]) -> dict[str, float]:
    ran = [rep for rep in reps if rep.ran]
    return {
        "setup_s": median(setups),
        "wall_s": median([r.data["wall_s"] for r in ran]),
        "cases_per_s": median([r.data["cases"] / r.data["wall_s"] for r in ran]),
        "sim_ips": median([r.sim()["pipeline.retired"] / r.data["wall_s"] for r in ran]),
        "peak_rss_mb": median(
            [max(r.data["rss_self_mb"], r.data["rss_worker_mb"]) for r in ran]
        ),
    }


def per_layer(traced: Rep, untraced: list[Rep]) -> dict[str, float]:
    data = traced.data
    layers = data["layers"]
    sim = traced.sim()
    decode = data["decode"]
    lookups = decode["hits"] + decode["misses"]
    supervisor = untraced[0].data["counters"] if untraced and untraced[0].ran else {}
    same_jobs = [r.data["wall_s"] for r in untraced if r.ran and r.data["jobs"] == data["jobs"]]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "mem.cache.builds": layers["mem.cache"]["calls"],
        "mem.cache.build_s": layers["mem.cache"]["self_s"],
    }
    for layer in ("cpu.machine", "cpu.load", "cpu.isa", "cpu.run", "core.predictor",
                  "osm.kernel", "runtime.atomic"):
        metrics[f"{layer}.calls"] = layers[layer]["calls"]
        metrics[f"{layer}.self_s"] = layers[layer]["self_s"]
    for layer in ("cpu.reference", "fuzz.gen", "fuzz.harness", "fuzz.compare", "runtime.supervisor",
                  "attacks.collision", "attacks.fingerprint", "workloads.cnn", "analysis.svm"):
        metrics[f"{layer}.self_s"] = layers[layer]["self_s"]
    metrics.update({
        "cpu.isa.decode_hit_ratio": ratio(decode["hits"], lookups),
        "cpu.isa.decode_lookups": lookups,
        "cpu.run.us.p50": layers["cpu.run"]["us_p50"],
        "cpu.run.us.p99": layers["cpu.run"]["us_p99"],
        "cpu.run.steps_per_call": ratio(sim["pipeline.retired"], sim["pipeline.runs"]),
        "cpu.run.retired": sim["pipeline.retired"],
        "cpu.run.cycles": sim["pipeline.cycles"],
        "cpu.run.rollbacks": sim["pipeline.rollbacks"],
        "fuzz.oracle.observe_self_s": layers["fuzz.oracle.observe"]["self_s"],
        "fuzz.finding_ratio": ratio(data.get("findings", 0), data.get("oracle_cases", 0)),
        "fuzz.oracle_cases": data.get("oracle_cases", 0),
        "runtime.supervisor.tasks": supervisor.get("supervisor.completed", 0),
        "runtime.supervisor.batches": supervisor.get("supervisor.batches", 0),
        "runtime.supervisor.retries": supervisor.get("supervisor.retries", 0),
        "runtime.supervisor.failures": sum(
            v for n, v in supervisor.items() if n.startswith("supervisor.failures.")
        ),
        "runtime.atomic.bytes": data["atomic_bytes"],
        "attacks.collision.hit_ratio": ratio(
            data["collision_validated"], data["collision_candidates"]
        ),
        "attacks.collision.candidates": data["collision_candidates"],
        "trace.wall_s": data["trace_wall_s"],
        "trace.overhead": ratio(data["trace_wall_s"], median(same_jobs)),
        "trace.outside_layers_s": layers["workload"]["self_s"],
        "trace.spans": sum(layer["spans"] for layer in layers.values()),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    began = time.monotonic()
    fuzz = args.workload == "fuzz-oracle"
    reps: list[Rep] = []
    if args.trace:
        plans = [FUZZ_JOBS, 1] if fuzz else [1, 1]
        for jobs in plans:
            reps.append(run_rep(args.workload, args.seed, trace=0, jobs=jobs,
                                timeout=RUN_DEADLINE_S - (time.monotonic() - began)))
        spans = SCRATCH / "spans" / f"{args.workload}-seed{args.seed}.tsv"
        reps.append(run_rep(args.workload, args.seed, trace=1, jobs=1, spans=spans,
                            timeout=RUN_DEADLINE_S - (time.monotonic() - began)))
    else:
        jobs = FUZZ_JOBS if fuzz else 1
        durations: list[float] = []
        while True:
            elapsed = time.monotonic() - began
            if len(reps) >= MIN_REPS and elapsed + median(durations) > args.seconds:
                break
            if reps and elapsed > LAST_START_S:
                break
            start = time.monotonic()
            reps.append(run_rep(args.workload, args.seed, trace=0, jobs=jobs,
                                timeout=RUN_DEADLINE_S - elapsed))
            durations.append(time.monotonic() - start)
        setups = [rep.data["setup_s"] for rep in reps if rep.ran]
        while len(setups) < SETUP_SAMPLES and time.monotonic() - began < LAST_START_S:
            rep = run_rep(args.workload, args.seed, trace=0, jobs=jobs, setup_only=True,
                          timeout=RUN_DEADLINE_S - (time.monotonic() - began))
            if not rep.ran:
                reps.append(rep)
                break
            setups.append(rep.data["setup_s"])
    check(reps, args.workload, args.seed)

    attempted = failed = 0
    for rep in reps:
        a, f = ops(rep)
        attempted, failed = attempted + a, failed + f
    correct = all(not rep.problems for rep in reps)
    first = next((rep.data for rep in reps if rep.ran), {})
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} engine={first.get('engine')} "
          f"python={first.get('python')} nproc={first.get('nproc')}")
    for index, rep in enumerate(reps):
        for problem in rep.problems:
            print(f"  FAILED repetition {index}: {problem}")
    print(f"  failed_ratio {failed}/{attempted} = {failed / attempted:.4f} "
          f"({'tasks' if fuzz else 'runs'})")

    metrics: dict[str, float] = {}
    if any(rep.ran for rep in reps):
        if args.trace:
            untraced = reps[:-1]
            if reps[-1].ran:
                metrics = per_layer(reps[-1], untraced)
                if fuzz:
                    print("  note: the traced run is the same campaign at --jobs 1; "
                          "spans recorded in forked pool workers never reach the parent")
                _print_shares(reps[-1].data)
        else:
            metrics = end_to_end(reps, setups)
            walls = [rep.data["wall_s"] for rep in reps if rep.ran]
            for name, values in (("setup_s", setups), ("wall_s", walls)):
                print(f"  {name} median {median(values):.4f} s, range "
                      f"{min(values):.4f}-{max(values):.4f} over {len(values)} runs")
    units = {m["name"]: m["unit"] for m in wanted}
    for name in units:
        if name in metrics:
            print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    missing = [name for name in units if name not in metrics]
    if missing:
        correct = False
        print(f"  FAILED: no value for {', '.join(missing)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _print_shares(data: dict) -> None:
    wall = data["trace_wall_s"]
    print(f"  traced wall {wall:.3f} s; self time by layer:")
    for name, layer in sorted(data["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        if layer["spans"]:
            print(f"    {name:<22s} {layer['self_s']:9.4f} s  {layer['self_s'] / wall:6.1%}  "
                  f"calls {layer['calls']}")


if __name__ == "__main__":
    sys.exit(main())
