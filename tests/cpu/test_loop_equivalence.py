"""The interpreter's one scheduling loop, driven every way it is driven.

``Pipeline.run`` runs ``_ExecState``'s loop to completion, the SMT
runner drives the same loop one decision at a time through ``step()``,
and trace emission sits inline in it behind ``trace is not None``
guards.  These tests pin that each way of driving it is the same
program: with and without a tracer attached, and stepped or run, every
result, memory image, PMC count and predictor entry is identical.

The cases are campaign fuzz programs under every mitigation (memory
squashes and branch windows), plus copies that open a fault window at
the start — one with a ``fault_handler`` that resumes the program, one
without, so the fault escapes the run.
"""

import random

from repro import telemetry
from repro.cpu.isa import Label, Load, MovImm, Program
from repro.cpu.machine import Machine
from repro.errors import SegmentationFault
from repro.fuzz.gen import BUF_BYTES, BUF_PAGES, fuzz_program
from repro.fuzz.harness import DEFAULT_FILL, MITIGATIONS, apply_mitigation, execute_program
from repro.telemetry import registry

_FAULT = [MovImm("bad", 0xDEAD0000), Load("x", base="bad")]


def _cases():
    """(seed, instructions) pairs: plain, handled-fault and escaping-fault."""
    cases = []
    for seed in range(10):
        instructions = fuzz_program(random.Random(seed), 16)
        cases.append((seed, instructions))
        if seed % 3 == 0:
            cases.append((seed, _FAULT + [Label("fault_handler")] + instructions))
        if seed == 1:
            cases.append((seed, _FAULT + instructions))
    return cases


CASES = _cases()


def _pipeline_counters(before: dict) -> dict:
    delta = registry().delta_since(before, timers=False)["counters"]
    return {name: value for name, value in delta.items() if name.startswith("pipeline.")}


def test_traced_and_untraced_runs_are_the_same_program():
    reasons = set()
    for mitigation in MITIGATIONS:
        for seed, instructions in CASES:
            runs = []
            for traced in (False, True):
                before = registry().snapshot(timers=False)
                if traced:
                    sink = telemetry.RingBufferSink(capacity=1 << 20)
                    with telemetry.recording(sink):
                        execution = execute_program(instructions, seed=seed, mitigation=mitigation)
                    reasons.update(
                        event["reason"] for event in sink.events() if event["kind"] == "squash"
                    )
                else:
                    execution = execute_program(instructions, seed=seed, mitigation=mitigation)
                runs.append((
                    execution.status,
                    None if execution.result is None else execution.result.to_dict(),
                    execution.memory,
                    _pipeline_counters(before),
                ))
            assert runs[0] == runs[1], (seed, mitigation)
    # The cases must open every kind of transient window.
    assert reasons >= {"memory", "branch", "fault"}


def _machine(instructions, seed: int, mitigation: str):
    """A fresh machine set up the way the fuzz harness sets one up."""
    machine = Machine(seed=seed)
    if mitigation == "ssbd":
        machine.core.set_ssbd(True)
    process = machine.kernel.create_process("fuzz")
    buf = machine.kernel.map_anonymous(process, pages=BUF_PAGES)
    machine.kernel.write(process, buf, DEFAULT_FILL)
    program = machine.load_program(
        process, Program(apply_mitigation(instructions, mitigation), name="fuzz")
    )
    return machine, process, program, buf


def _outcome(instructions, seed: int, mitigation: str, stepped: bool):
    machine, process, program, buf = _machine(instructions, seed, mitigation)
    try:
        if stepped:
            (result,) = machine.run_smt([(process, program, {"buf": buf})])
        else:
            result = machine.run(process, program, {"buf": buf})
        outcome = result.to_dict()
    except SegmentationFault as fault:
        outcome = {"escaped": str(fault)}
    thread = machine.core.thread(0)
    unit = thread.unit
    return (
        outcome,
        machine.kernel.read(process, buf, BUF_BYTES),
        dict(thread.pmc.counts),
        thread.cycles,
        [(e.store_tag, e.load_tag, e.c0, e.c1, e.c2) for e in unit.psfp.entries()],
        [(e.load_tag, e.c3, e.c4) for e in unit.ssbp.entries()],
    )


def test_stepped_and_run_executions_agree():
    rollbacks = escaped = 0
    for mitigation in MITIGATIONS:
        for seed, instructions in CASES:
            run = _outcome(instructions, seed, mitigation, stepped=False)
            stepped = _outcome(instructions, seed, mitigation, stepped=True)
            assert stepped == run, (seed, mitigation)
            rollbacks += run[0].get("rollbacks", 0)
            escaped += "escaped" in run[0]
    # Not vacuous: the cases squash, and some fault escapes a run.
    assert rollbacks > 50
    assert escaped >= 1
