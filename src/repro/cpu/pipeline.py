"""The speculative execution pipeline.

An interpreter-level out-of-order core model: instructions execute in
program order, but every value carries a *ready cycle* (dataflow timing),
stores sit in the store queue until their address generation completes,
and loads that race an unresolved older store consult the predictor unit
— opening transient windows exactly the way the paper's Fig 8 describes:

* **predict aliasing + PSF armed** — the store's data is forwarded before
  its address exists; if the addresses turn out disjoint the window is
  squashed (type D);
* **predict aliasing, PSF off** — the load stalls until address
  generation (types A/B/E/F, no squash);
* **predict non-aliasing** — the load bypasses the store and reads the
  *stale* value from cache/memory; if the addresses collide the window is
  squashed (type G).

Architectural effects (registers, store-queue contents) are rolled back
on a squash; microarchitectural effects — cache fills and **predictor
updates** — persist, which is Vulnerability 4 and the foundation of the
Spectre-CTL covert channel.

Branch mispredictions and faulting loads open windows through the same
rollback machinery (used by the Section IV-D experiments).

Performance notes (docs/performance.md has the full story):

* Programs are interpreted from their pre-decoded dense form
  (:meth:`repro.cpu.isa.Program.decoded`) — integer opcode dispatch
  instead of an isinstance chain, built once and reused across the
  thousands of repeated runs every experiment performs.
* Rollback state is a **delta journal**, not a register-file copy: while
  any rollback point is live, every register write appends an undo
  record, and a squash replays the journal backwards to the rollback
  point's mark (see :class:`_Snapshot`).  Outside speculation the
  journal is empty and writes pay one integer check.
* The equivalence gate (:mod:`repro.bench.equivalence`) pins this
  machinery: any observable divergence from the pre-optimization
  interpreter — registers, memory, cycle counts, trace events — fails
  the gate byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.exec_types import ExecType
from repro.core.hashfn import ipa_hash
from repro.core.state_machine import Prediction
from repro.cpu.core import Core
from repro.cpu.isa import (
    OP_ALU,
    OP_ALUIMM,
    OP_CLFLUSH,
    OP_HALT,
    OP_IMUL,
    OP_IMULIMM,
    OP_JZ,
    OP_LABEL,
    OP_LOAD,
    OP_MFENCE,
    OP_MOV,
    OP_MOVIMM,
    OP_PAD,
    OP_RDPRU,
    OP_STORE,
    ALU_ADD,
    ALU_AND,
    ALU_OR,
    ALU_SUB,
    ALU_XOR,
    Program,
)
from repro.cpu.pmc import PmcEvent
from repro.cpu.thread import HardwareThread
from repro.errors import (
    InvalidInstruction,
    SegmentationFault,
    SimulationLimitExceeded,
)
from repro.mem.store_queue import StoreEntry
from repro.osm.address_space import Perm
from repro.osm.kernel import Kernel
from repro.osm.process import Process
from repro.telemetry import current_tracer, registry
from repro.telemetry.events import (
    BranchPredictEvent,
    BranchResolveEvent,
    CommitEvent,
    DispatchEvent,
    FaultEvent,
    RestoreEvent,
    SquashEvent,
    StldBypassEvent,
    StldForwardEvent,
    StldPredictEvent,
    StldStallEvent,
)

__all__ = ["StldEvent", "RunResult", "Pipeline", "FAULT_WINDOW", "CHAOS_HOOKS"]

_U64 = (1 << 64) - 1

#: Cycles between a faulting load's execution and fault delivery (retire).
FAULT_WINDOW = 30

#: Fault-injection hooks for the differential fuzzing harness
#: (:func:`repro.fuzz.harness.chaos`).  Adding a name here disables one
#: squash-repair step, deliberately breaking the architectural contract so
#: the harness can prove it would catch the corresponding bug class:
#:
#: * ``skip-register-repair`` — a squash stops restoring the register
#:   file, so wrong-path values survive rollback;
#: * ``skip-store-squash`` — a squash stops dropping younger store-queue
#:   entries, so wrong-path stores can commit to memory.
#:
#: Production code must never populate this set, and hooks must stay
#: armed for *whole runs* (the :func:`repro.fuzz.harness.chaos` context
#: manager wraps complete executions): with ``skip-register-repair``
#: armed, skipped rollbacks discard their undo records, so repair cannot
#: be meaningfully re-enabled midway through a run.
CHAOS_HOOKS: set[str] = set()

#: Journal sentinel: the register/ready slot did not exist before the
#: journaled write (undo = delete the key).
_ABSENT = object()


@dataclass(slots=True)
class _SpecLoad:
    """A load that executed against an unresolved store."""

    load_seq: int
    load_index: int
    load_ipa: int
    load_hash: int
    store_hash: int
    paddr: int
    width: int
    prediction: Prediction
    truth: bool
    covers: bool
    #: Rollback point to restore if this load's speculation squashes, or
    #: None when the speculation is known-benign (stall paths).  Shared
    #: with this load's guard records on other store entries — the object
    #: is refcounted (:attr:`_Snapshot.refs`), not copied.
    snapshot: "_Snapshot | None"
    #: An alias guard: the load read around this (non-nearest) unresolved
    #: store and the addresses overlap — a memory-ordering squash with no
    #: predictor involvement (the predictor pair is the *nearest* store).
    guard: bool = False


class _Snapshot:
    """A rollback point into the register delta journal.

    Semantics (the delta-journal invariants — enforced in
    :meth:`_ExecState._restore` and pinned by the property test in
    ``tests/cpu/test_journal_equivalence.py``):

    * ``mark`` is the journal length when the rollback point was taken.
      Restoring replays journal entries *newest-first* down to ``mark``
      (reinstating each register's and ready-cycle's prior value, or
      deleting slots that did not exist), then truncates the journal to
      ``mark``.  Because register slots are only ever added or
      overwritten between snapshot and restore — never deleted — this
      reproduces the old full-copy restore exactly, including dict
      insertion order.
    * Restores only ever travel *backwards*: whenever a restore to
      ``mark`` happens, every other live snapshot's mark is <= ``mark``
      (younger rollback points die in the same squash, via
      ``_train_squashed_records``), so truncation never strands a live
      mark.  The same snapshot object may be restored again later — the
      journal simply regrows from its mark.
    * ``refs`` counts the holders (the speculated-load record, its alias
      guards on other store entries, or a transient window).  The
      executor journals register writes only while at least one snapshot
      is live and clears the journal when the last one dies, so straight-
      line execution pays one integer check per write and no copies.
    """

    __slots__ = ("mark", "index", "retired", "refs")

    def __init__(self, mark: int, index: int, retired: int) -> None:
        self.mark = mark
        self.index = index
        self.retired = retired
        self.refs = 1


@dataclass(slots=True)
class _TransientWindow:
    """A branch-mispredict or pending-fault wrong-path context."""

    stop: int                 # cycle at which the window squashes
    snapshot: _Snapshot
    resume_index: int         # correct-path index after the squash
    base_seq: int             # memory-op seq at window entry
    fault: SegmentationFault | None = None


@dataclass(frozen=True, slots=True)
class StldEvent:
    """One resolved store-load interaction (for tests and experiments)."""

    exec_type: ExecType
    store_ipa: int
    load_ipa: int
    cycle: int

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON form, shared by experiment drivers and telemetry
        export (the one serialization — drivers must not hand-roll it)."""
        return {
            "exec_type": self.exec_type.name,
            "store_ipa": self.store_ipa,
            "load_ipa": self.load_ipa,
            "cycle": self.cycle,
        }


@dataclass
class RunResult:
    """Outcome of one :meth:`Pipeline.run`."""

    regs: dict[str, int]
    cycles: int
    events: list[StldEvent] = field(default_factory=list)
    rollbacks: int = 0
    fault: SegmentationFault | None = None
    retired: int = 0

    def exec_types(self) -> list[ExecType]:
        """The A–H classification of each store-load event, in order."""
        return [event.exec_type for event in self.events]

    def has_exec_type(self, exec_type: ExecType) -> bool:
        """Whether any store-load event classified as ``exec_type``."""
        return any(event.exec_type is exec_type for event in self.events)

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON form (registers, timing, events, fault)."""
        return {
            "regs": dict(self.regs),
            "cycles": self.cycles,
            "events": [event.to_dict() for event in self.events],
            "rollbacks": self.rollbacks,
            "fault": None
            if self.fault is None
            else {"address": self.fault.address, "access": self.fault.access},
            "retired": self.retired,
        }


class Pipeline:
    """Executes programs of one process on one hardware thread."""

    def __init__(self, core: Core, thread: HardwareThread, kernel: Kernel) -> None:
        self.core = core
        self.thread = thread
        self.kernel = kernel
        self.lat = core.model.latency
        #: 2-bit branch direction counters, keyed by branch IVA.
        self.branch_counters: dict[int, int] = {}
        #: Active tracer at construction time (None = telemetry off).  A
        #: later activation can be picked up via :meth:`attach_tracer`.
        self.trace = current_tracer()
        if self.trace is not None:
            self.attach_tracer(self.trace)
        # Run-level metrics: instruments are resolved once here so the
        # per-run cost is four integer adds and one histogram observe.
        metrics = registry()
        self._m_runs = metrics.counter("pipeline.runs")
        self._m_retired = metrics.counter("pipeline.retired")
        self._m_cycles = metrics.counter("pipeline.cycles")
        self._m_rollbacks = metrics.counter("pipeline.rollbacks")
        self._m_run_cycles = metrics.histogram("pipeline.run_cycles")

    def attach_tracer(self, tracer) -> None:
        """Route this pipeline's (and its predictor unit's) events to
        ``tracer``; ``None`` detaches.

        Takes effect for executions started *after* the call — an
        in-flight :class:`_ExecState` keeps the tracer it was built with,
        so a run's event stream is always all-or-nothing.
        """
        self.trace = tracer
        self.thread.unit.trace = tracer
        self.thread.unit.trace_thread = self.thread.thread_id

    def run(
        self,
        process: Process,
        program: Program,
        regs: dict[str, int] | None = None,
        max_steps: int = 200_000,
    ) -> RunResult:
        """Execute ``program`` to completion; returns the run result.

        The hardware thread's cycle counter advances by the program's
        execution time, so back-to-back runs model back-to-back calls of
        a measured routine while microarchitectural state (predictors,
        caches, branch counters) persists between them.  Repeated runs of
        the same ``program`` object reuse its cached decoded form
        (:meth:`repro.cpu.isa.Program.decoded`); ``regs`` is copied, so
        the caller's dict is never mutated.
        """
        state = _ExecState(self, process, program, dict(regs or {}))
        result = state.execute(max_steps)
        self.thread.advance(result.cycles)
        self._m_runs.inc()
        self._m_retired.inc(result.retired)
        self._m_cycles.inc(result.cycles)
        self._m_rollbacks.inc(result.rollbacks)
        self._m_run_cycles.observe(result.cycles)
        return result

    def begin(
        self,
        process: Process,
        program: Program,
        regs: dict[str, int] | None = None,
    ) -> "_ExecState":
        """Start a steppable execution (see :meth:`_ExecState.step`).

        Unlike :meth:`run`, the caller drives the execution — one
        :meth:`_ExecState.step` per scheduling decision until it returns
        False — then collects :meth:`_ExecState.finalize` and accounts
        thread cycles from the result.  The SMT runner interleaves two
        hardware threads this way; each state owns its thread's store
        queue and rollback journal, so interleaved states never share
        mutable interpreter state.
        """
        return _ExecState(self, process, program, dict(regs or {}))

    # Branch prediction: 2-bit saturating direction counters.
    def predict_branch(self, iva: int) -> bool:
        return self.branch_counters.get(iva, 1) >= 2

    def train_branch(self, iva: int, taken: bool) -> None:
        counter = self.branch_counters.get(iva, 1)
        self.branch_counters[iva] = min(counter + 1, 3) if taken else max(counter - 1, 0)


class _ExecState:
    """Mutable interpreter state for one program run.

    Collaborator attributes (store queue, memory, hierarchy, PMC,
    predictor unit, hash salt) are bound once at construction — they are
    stable for the lifetime of a run, and the per-step hot paths below
    read the locals instead of re-walking ``self.thread.…`` chains.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        process: Process,
        program: Program,
        regs: dict[str, int],
    ) -> None:
        self.pipe = pipeline
        self.core = pipeline.core
        self.thread = pipeline.thread
        self.kernel = pipeline.kernel
        self.lat = pipeline.lat
        self.process = process
        self.program = program
        self.dec = program.decoded()
        self.regs = regs
        self.ready: dict[str, int] = {}
        self.index = 0
        self.dispatch = 0
        self.seq = 0
        self.retired = 0
        self.result = RunResult(regs=self.regs, cycles=0)
        self.window: _TransientWindow | None = None
        self.halted = False
        self.trace = pipeline.trace
        self.tid = pipeline.thread.thread_id
        # Hot-path collaborator bindings (stable for the whole run).
        self.sq = pipeline.thread.store_queue
        self.sq_entries = self.sq.live_entries()  # identity-stable list
        self.memory = pipeline.core.memory
        self.hierarchy = pipeline.core.hierarchy
        self.pmc = pipeline.thread.pmc
        # Raw counter bank: the per-dispatch ITLB event is incremented
        # directly (equivalent to Pmc.add, minus the call overhead).
        self._pmcc = self.pmc.counts
        self.unit = pipeline.thread.unit
        self.salt = self.unit.hash_salt
        # Register delta journal (see _Snapshot): undo records appended
        # by _set_reg while any rollback point is live.
        self._journal: list[tuple] = []
        self._jlive = 0      # live _Snapshot objects
        self._nrec = 0       # _SpecLoad records attached to store entries

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def _reg(self, name: str) -> int:
        return self.regs.get(name, 0)

    def _ready_of(self, *names: str) -> int:
        return max((self.ready.get(name, 0) for name in names), default=0)

    def _set_reg(self, name: str, value: int, ready: int) -> None:
        """The single register-write point: journals the previous slot
        values while any rollback point is live (delta journal)."""
        if self._jlive:
            self._journal.append(
                (name, self.regs.get(name, _ABSENT), self.ready.get(name, _ABSENT))
            )
        self.regs[name] = value & _U64
        self.ready[name] = ready

    def _snapshot(self) -> _Snapshot:
        """Open a rollback point at the current journal position."""
        self._jlive += 1
        return _Snapshot(len(self._journal), self.index, self.retired)

    def _deref(self, snap: _Snapshot) -> None:
        """Drop one holder of ``snap``; the journal is cleared when the
        last rollback point dies (non-speculative fast path resumes)."""
        snap.refs -= 1
        if snap.refs == 0:
            self._jlive -= 1
            if self._jlive == 0:
                self._journal.clear()

    def _restore(self, snap: _Snapshot) -> None:
        """Rewind registers to ``snap`` by undoing journal entries.

        Entries above the snapshot's mark are applied newest-first —
        reinstating overwritten values and deleting slots created after
        the snapshot — then discarded.  See :class:`_Snapshot` for why
        this is exactly equivalent to restoring a full register-file
        copy.  Under the ``skip-register-repair`` chaos hook the undo is
        skipped (wrong-path values survive) but the journal is still
        truncated, matching the old behaviour of discarding the copy.
        """
        journal = self._journal
        mark = snap.mark
        if "skip-register-repair" not in CHAOS_HOOKS:
            regs = self.regs
            ready = self.ready
            for pos in range(len(journal) - 1, mark - 1, -1):
                name, old_reg, old_ready = journal[pos]
                if old_reg is _ABSENT:
                    del regs[name]
                else:
                    regs[name] = old_reg
                if old_ready is _ABSENT:
                    del ready[name]
                else:
                    ready[name] = old_ready
        del journal[mark:]
        self.index = snap.index
        self.retired = snap.retired

    def _squash_stores(self, seq: int) -> None:
        if "skip-store-squash" not in CHAOS_HOOKS:
            self.sq.squash_younger(seq)

    def _translate(self, vaddr: int, access: Perm) -> int:
        return self.kernel.translate(self.process, vaddr, access, self.thread)

    def _ipa_of_instruction(self, index: int) -> int:
        iva = self.dec.ivas[index]
        paddr = self.process.address_space.translate_nofault(iva)
        if paddr is None:
            raise SegmentationFault(iva, access="execute")
        return paddr

    def _hash(self, ipa: int) -> int:
        return ipa_hash(ipa, self.salt)

    def _in_speculative_context(self) -> bool:
        # O(1): _jlive counts live rollback points, which exist exactly
        # while some speculated-load record or window could still squash.
        return self.window is not None or self._jlive > 0

    def _sq_horizon(self) -> int:
        horizon = self.dispatch
        for entry in self.sq_entries:
            if entry.addr_ready > horizon:
                horizon = entry.addr_ready
            if entry.data_ready > horizon:
                horizon = entry.data_ready
        return horizon

    def _noisy(self, cycles: int) -> int:
        noise = self.core.model.timer_noise
        if not noise:
            return cycles
        jitter = self.core.rng.uniform(-noise, noise)
        return max(0, round(cycles * (1.0 + jitter)))

    # ------------------------------------------------------------------
    # Memory views (store-queue overlay)
    # ------------------------------------------------------------------
    def _merged_read(
        self, seq: int, paddr: int, width: int, now: int, include_unresolved: bool
    ) -> int:
        """Memory bytes overlaid with older uncommitted stores.

        Unresolved stores (address not generated by ``now``) cannot
        forward; a bypassing load reads around them — the stale read that
        Spectre-CTL exploits.
        """
        data = None
        for entry in self.sq_entries:
            if entry.seq >= seq or entry.committed:
                continue
            if not include_unresolved and entry.addr_ready > now:
                continue
            if entry.overlaps(paddr, width):
                if data is None:
                    data = bytearray(self.memory.read(paddr, width))
                lo = max(paddr, entry.paddr)
                hi = min(paddr + width, entry.paddr + entry.size)
                data[lo - paddr : hi - paddr] = entry.data[
                    lo - entry.paddr : hi - entry.paddr
                ]
        if data is None:  # no overlapping store: plain memory read
            return int.from_bytes(self.memory.read(paddr, width), "little")
        return int.from_bytes(data, "little")

    @staticmethod
    def _forward_value(entry: StoreEntry, width: int) -> int:
        return int.from_bytes(entry.data[:width].ljust(width, b"\x00"), "little")

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def execute(self, max_steps: int) -> RunResult:
        steps = 0
        step = self.step
        while not self.halted:
            steps += 1
            if steps > max_steps:
                raise SimulationLimitExceeded(
                    f"program {self.program.name!r} exceeded {max_steps} steps"
                )
            step()
        return self.finalize()

    def step(self) -> bool:
        """Advance by one scheduling decision; returns False once halted.

        Exposed so an SMT runner can interleave two hardware threads'
        executions instruction by instruction.
        """
        if self.halted:
            return False
        window = self.window
        if window is not None and (
            self.dispatch >= window.stop or self.index >= self.dec.n
        ):
            self._close_window()
            return not self.halted
        # With an empty store queue _resolve_stores is a no-op (nothing to
        # train, nothing to commit) — skip the call on the ALU-only fast
        # path.  sq_entries is the live list, so emptiness is current.
        if self.sq_entries and self._resolve_stores(self.dispatch):
            return True  # a squash rewound the state
        if self.index >= self.dec.n:
            if not self._quiesce():
                self.halted = True
            return not self.halted
        self._dispatch_one(self.index)
        return not self.halted

    def finalize(self) -> RunResult:
        frontier = max([self.dispatch] + list(self.ready.values()) + [self._sq_horizon()])
        self.sq.drain(self.memory)
        self.pmc.add(PmcEvent.RETIRED_OPS, self.retired)
        self.result.cycles = frontier
        self.result.retired = self.retired
        return self.result

    def _commit_ceiling(self) -> int | None:
        """Stores younger than an open window's base must never commit."""
        return self.window.base_seq if self.window is not None else None

    def _quiesce(self) -> bool:
        """Resolve every pending store at end of program/fence.

        Returns True when a squash rewound execution (caller re-loops).
        """
        horizon = self._sq_horizon()
        if self._resolve_stores(horizon):
            return True
        if horizon > self.dispatch:
            self.dispatch = horizon
        self.sq.commit_ready(self.memory, self.dispatch, self._commit_ceiling())
        return False

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_one(self, index: int) -> None:
        dec = self.dec
        op = dec.ops[index]
        if op == OP_LABEL:
            self.index = index + 1
            return  # zero-size, zero-time
        self._pmcc[PmcEvent.ITLB_HIT_4K] += 1
        d = self.dispatch
        if self.trace is not None:
            self.trace.emit(
                DispatchEvent(
                    cycle=d,
                    thread=self.tid,
                    index=index,
                    op=dec.names[index],
                )
            )
        args = dec.args[index]
        # Opcode chain ordered roughly by dynamic frequency in the fuzz
        # and experiment workloads (ALU/IMUL address-generation chains
        # dominate, then memory ops).
        if op == OP_ALU:
            dst, a, b, code, opname = args
            regs = self.regs
            ready = self.ready
            av = regs.get(a, 0)
            bv = regs.get(b, 0)
            start = d
            ra = ready.get(a, 0)
            if ra > start:
                start = ra
            rb = ready.get(b, 0)
            if rb > start:
                start = rb
            if code == ALU_ADD:
                value = av + bv
            elif code == ALU_SUB:
                value = av - bv
            elif code == ALU_XOR:
                value = av ^ bv
            elif code == ALU_AND:
                value = av & bv
            elif code == ALU_OR:
                value = av | bv
            else:
                raise InvalidInstruction(f"unknown ALU op {opname!r}")
            self._set_reg(dst, value, start + self.lat.alu)
        elif op == OP_ALUIMM:
            dst, src, imm, code, opname = args
            av = self.regs.get(src, 0)
            start = d
            rs = self.ready.get(src, 0)
            if rs > start:
                start = rs
            if code == ALU_ADD:
                value = av + imm
            elif code == ALU_SUB:
                value = av - imm
            elif code == ALU_XOR:
                value = av ^ imm
            elif code == ALU_AND:
                value = av & imm
            elif code == ALU_OR:
                value = av | imm
            else:
                raise InvalidInstruction(f"unknown ALU op {opname!r}")
            self._set_reg(dst, value, start + self.lat.alu)
        elif op == OP_IMUL:
            dst, a, b = args
            value = self.regs.get(a, 0) * self.regs.get(b, 0)
            start = d
            ra = self.ready.get(a, 0)
            if ra > start:
                start = ra
            rb = self.ready.get(b, 0)
            if rb > start:
                start = rb
            self._set_reg(dst, value, start + self.lat.imul)
        elif op == OP_IMULIMM:
            dst, src, imm = args
            value = self.regs.get(src, 0) * imm
            start = d
            rs = self.ready.get(src, 0)
            if rs > start:
                start = rs
            self._set_reg(dst, value, start + self.lat.imul)
        elif op == OP_MOVIMM:
            self._set_reg(args[0], args[1], d)
        elif op == OP_MOV:
            dst, src = args
            rs = self.ready.get(src, 0)
            self._set_reg(dst, self.regs.get(src, 0), rs if rs > d else d)
        elif op == OP_LOAD:
            self._exec_load(index, args, d)
        elif op == OP_STORE:
            self._exec_store(index, args, d)
        elif op == OP_PAD:
            pass
        elif op == OP_JZ:
            self._exec_branch(index, args, d)
            return  # the branch manages index/dispatch itself
        elif op == OP_HALT:
            if self.window is not None:
                # A wrong path ran into Halt: fast-forward to the window's
                # resolve point; the main loop will squash it.
                if self.window.stop > self.dispatch:
                    self.dispatch = self.window.stop
                return
            self.retired += 1
            if self.trace is not None:
                self._trace_commit(index, dec.names[index], d)
            if not self._quiesce():
                self.halted = True
            return
        elif op == OP_MFENCE:
            before = self.index
            self._exec_mfence()
            if self.index != before:
                return  # a squash rewound us; the fence will re-execute
            self.retired += 1
            if self.trace is not None:
                self._trace_commit(index, dec.names[index], d)
            self.index = index + 1
            if d + 1 > self.dispatch:
                self.dispatch = d + 1
            return
        elif op == OP_RDPRU:
            frontier = max(self.ready.values(), default=0)
            if d > frontier:
                frontier = d
            self._set_reg(args[0], self.thread.cycles + self._noisy(frontier), d)
        elif op == OP_CLFLUSH:
            base, offset = args
            vaddr = (self.regs.get(base, 0) + offset) & _U64
            paddr = self._translate(vaddr, Perm.R)
            self.hierarchy.clflush(paddr)
        else:
            raise InvalidInstruction(f"unhandled instruction {dec.insts[index]!r}")
        self.retired += 1
        if self.trace is not None:
            self._trace_commit(index, dec.names[index], d)
        self.index = index + 1
        self.dispatch = d + 1

    def _trace_commit(self, index: int, opname: str, cycle: int) -> None:
        self.trace.emit(
            CommitEvent(
                cycle=cycle,
                thread=self.tid,
                index=index,
                op=opname,
                retired=self.retired,
            )
        )

    def _exec_mfence(self) -> None:
        ready = self.ready
        horizon = self._sq_horizon()
        if ready:
            frontier = max(ready.values())
            if frontier > horizon:
                horizon = frontier
        if self._resolve_stores(horizon):
            return
        if horizon > self.dispatch:
            self.dispatch = horizon
        self.sq.commit_ready(self.memory, self.dispatch, self._commit_ceiling())

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------
    def _exec_store(self, index: int, args: tuple, d: int) -> None:
        base, src, offset, width = args
        regs = self.regs
        ready = self.ready
        vaddr = (regs.get(base, 0) + offset) & _U64
        paddr = self._translate(vaddr, Perm.W)
        rb = ready.get(base, 0)
        addr_ready = (rb if rb > d else d) + self.lat.alu
        rs = ready.get(src, 0)
        data_ready = rs if rs > d else d
        value = regs.get(src, 0)
        self.seq += 1
        self.sq.push(
            StoreEntry(
                seq=self.seq,
                paddr=paddr,
                size=width,
                data=value.to_bytes(8, "little")[:width],
                addr_ready=addr_ready,
                data_ready=data_ready,
                store_ipa=self._ipa_of_instruction(index),
            )
        )

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------
    def _exec_load(self, index: int, args: tuple, d: int) -> None:
        dst, base, offset, width = args
        self._pmcc[PmcEvent.LD_DISPATCH] += 1
        vaddr = (self.regs.get(base, 0) + offset) & _U64
        rb = self.ready.get(base, 0)
        addr_ready = (rb if rb > d else d) + self.lat.alu
        try:
            paddr = self._translate(vaddr, Perm.R)
        except SegmentationFault as fault:
            self._faulting_load(dst, addr_ready, fault)
            return

        self.seq += 1
        load_seq = self.seq
        pending = self.sq.nearest_unresolved(load_seq, addr_ready)

        if pending is None:
            self._plain_load(dst, width, load_seq, paddr, addr_ready)
            return

        load_ipa = self._ipa_of_instruction(index)

        # A load racing an unresolved older store: consult the predictors.
        store_hash = ipa_hash(pending.store_ipa, self.salt)
        load_hash = ipa_hash(load_ipa, self.salt)
        prediction = self.unit.predict(store_hash, load_hash)
        truth = pending.overlaps(paddr, width)
        covers = pending.covers(paddr, width)
        if self.trace is not None:
            self.trace.emit(
                StldPredictEvent(
                    cycle=addr_ready,
                    thread=self.tid,
                    index=index,
                    store_ipa=pending.store_ipa,
                    load_ipa=load_ipa,
                    aliasing=prediction.aliasing,
                    psf_forward=prediction.psf_forward,
                    sticky=prediction.sticky,
                    covers=covers,
                )
            )

        # Other unresolved older stores the load will read around: if any
        # aliases, the bypass/forward result is wrong no matter what the
        # (nearest-store) prediction said — a memory-ordering violation.
        unresolved = self.sq.unresolved_older(load_seq, addr_ready)
        aliasing_others = [
            entry
            for entry in unresolved
            if entry is not pending and entry.overlaps(paddr, width)
        ]

        will_squash = (
            (prediction.aliasing and prediction.psf_forward and not covers)
            or (not prediction.aliasing and truth)
            or (not (prediction.aliasing and not prediction.psf_forward)
                and bool(aliasing_others))
        )
        snapshot = self._snapshot() if will_squash else None

        if prediction.aliasing and prediction.psf_forward:
            # Predictive store forwarding (type C right / D wrong).
            value = self._forward_value(pending, width)
            complete = max(addr_ready, pending.data_ready) + self.lat.sq_forward
            self.pmc.add(PmcEvent.STLF)
            if self.trace is not None:
                self.trace.emit(
                    StldForwardEvent(
                        cycle=complete,
                        thread=self.tid,
                        index=index,
                        value=value,
                        correct=covers,
                    )
                )
        elif prediction.aliasing:
            # Stall until address generation of *every* older unresolved
            # store (A/B/E/F): with PSF off the load cannot disambiguate
            # until the addresses are known, and waiting only for the
            # nearest store would read around an older aliasing store
            # whose address resolves later — with no guard to repair it.
            # This wait-for-all is also exactly SSBD's guarantee.
            stall_until = max(
                [addr_ready] + [entry.addr_ready for entry in unresolved]
            )
            self.pmc.add(
                PmcEvent.SQ_STALL_TOKENS, max(0, stall_until - addr_ready)
            )
            aliasing = [
                entry
                for entry in unresolved
                if entry.overlaps(paddr, width)
            ]
            if aliasing:
                value = self._merged_read(
                    load_seq, paddr, width, stall_until, True
                )
                complete = (
                    max([stall_until] + [entry.data_ready for entry in aliasing])
                    + self.lat.sq_forward
                )
                self.pmc.add(PmcEvent.STLF)
            else:
                latency, _ = self.hierarchy.load(paddr)
                value = self._merged_read(
                    load_seq, paddr, width, stall_until, False
                )
                complete = stall_until + latency + self.lat.post_stall_replay
            if self.trace is not None:
                self.trace.emit(
                    StldStallEvent(
                        cycle=stall_until,
                        thread=self.tid,
                        index=index,
                        ready_cycle=complete,
                    )
                )
        else:
            # Speculative store bypass: stale read around the store (H/G).
            latency, _ = self.hierarchy.load(paddr)
            value = self._merged_read(
                load_seq, paddr, width, addr_ready, False
            )
            complete = addr_ready + latency
            if self.trace is not None:
                self.trace.emit(
                    StldBypassEvent(
                        cycle=complete,
                        thread=self.tid,
                        index=index,
                        value=value,
                        correct=not truth,
                    )
                )

        record = _SpecLoad(
            load_seq=load_seq,
            load_index=index,
            load_ipa=load_ipa,
            load_hash=load_hash,
            store_hash=store_hash,
            paddr=paddr,
            width=width,
            prediction=prediction,
            truth=truth,
            covers=covers,
            snapshot=snapshot,
        )
        pending.speculated_loads.append(record)
        self._nrec += 1
        if not (prediction.aliasing and not prediction.psf_forward):
            # Bypass and PSF paths read around *every* unresolved store;
            # attach a guard to each aliasing one so its resolution
            # squashes the load even though the nearest-store prediction
            # was "right".  (The stall path reads the final merged value,
            # so it needs no guards.)  Guards share the load's rollback
            # point — one more holder each, not one more copy.
            for entry in aliasing_others:
                snapshot.refs += 1
                entry.speculated_loads.append(
                    _SpecLoad(
                        load_seq=load_seq,
                        load_index=index,
                        load_ipa=load_ipa,
                        load_hash=load_hash,
                        store_hash=store_hash,
                        paddr=paddr,
                        width=width,
                        prediction=prediction,
                        truth=True,
                        covers=entry.covers(paddr, width),
                        snapshot=snapshot,
                        guard=True,
                    )
                )
                self._nrec += 1
        self._set_reg(dst, value, complete)

    def _plain_load(
        self, dst: str, width: int, load_seq: int, paddr: int, addr_ready: int
    ) -> None:
        forwarding = self.sq.forwarding_store(load_seq, paddr, width, addr_ready)
        value = self._merged_read(load_seq, paddr, width, addr_ready, False)
        if forwarding is not None and forwarding.covers(paddr, width):
            complete = max(addr_ready, forwarding.data_ready) + self.lat.sq_forward
            self.pmc.add(PmcEvent.STLF)
        else:
            latency, _ = self.hierarchy.load(paddr)
            complete = addr_ready + latency
        self._set_reg(dst, value, complete)

    def _faulting_load(
        self, dst: str, addr_ready: int, fault: SegmentationFault
    ) -> None:
        """A faulting load: younger work runs transiently until the fault
        delivers at retire.  AMD does not forward faulting-load data, so
        the destination reads as zero (never secret-bearing)."""
        if self._in_speculative_context():
            # Fault inside an existing window: suppressed entirely.
            self._set_reg(dst, 0, addr_ready + self.lat.l1_hit)
            return
        self.window = _TransientWindow(
            stop=addr_ready + FAULT_WINDOW,
            snapshot=self._snapshot(),
            resume_index=self.index,  # unused for faults
            base_seq=self.seq,
            fault=fault,
        )
        if self.trace is not None:
            self.trace.emit(
                FaultEvent(
                    cycle=addr_ready,
                    thread=self.tid,
                    index=self.index,
                    vaddr=fault.address,
                    window_stop=self.window.stop,
                )
            )
        self._set_reg(dst, 0, addr_ready + self.lat.l1_hit)

    # ------------------------------------------------------------------
    # Branches
    # ------------------------------------------------------------------
    def _exec_branch(self, index: int, args: tuple, d: int) -> None:
        cond, target, label = args
        iva = self.dec.ivas[index]
        taken = self.regs.get(cond, 0) == 0
        predicted = self.pipe.predict_branch(iva)
        rc = self.ready.get(cond, 0)
        resolve = (rc if rc > d else d) + self.lat.alu
        self.pipe.train_branch(iva, taken)
        if self.trace is not None:
            self.trace.emit(
                BranchPredictEvent(
                    cycle=d,
                    thread=self.tid,
                    index=index,
                    iva=iva,
                    predicted_taken=predicted,
                )
            )
            self.trace.emit(
                BranchResolveEvent(
                    cycle=resolve,
                    thread=self.tid,
                    index=index,
                    iva=iva,
                    taken=taken,
                    mispredicted=predicted != taken,
                )
            )
        if target is None:
            raise InvalidInstruction(f"unknown label {label!r}")
        fallthrough = index + 1
        self.retired += 1
        if self.trace is not None:
            self._trace_commit(index, self.dec.names[index], d)
        if predicted == taken or self.window is not None:
            # Correct prediction — or a nested mispredict inside an open
            # window (single-level wrong-path model): follow the truth.
            self.index = target if taken else fallthrough
            self.dispatch = d + 1
            return
        # Mispredicted: run the wrong path transiently until resolution.
        self.window = _TransientWindow(
            stop=resolve,
            snapshot=self._snapshot(),
            resume_index=target if taken else fallthrough,
            base_seq=self.seq,
        )
        self.index = target if predicted else fallthrough  # wrong path
        self.dispatch = d + 1

    # ------------------------------------------------------------------
    # Squash machinery
    # ------------------------------------------------------------------
    def _train_squashed_records(self, after_load_seq: int, now: int) -> None:
        """Vulnerability 4: predictor updates from executed-but-squashed
        store-load pairs are applied before the pairs die."""
        if not self._nrec:
            return
        for entry in self.sq_entries:
            records = entry.speculated_loads
            if not records:
                continue
            keep = []
            for record in records:
                if record.load_seq > after_load_seq:
                    if not record.guard:
                        self._apply_predictor_update(entry, record, now)
                    if record.snapshot is not None:
                        self._deref(record.snapshot)
                    self._nrec -= 1
                else:
                    keep.append(record)
            entry.speculated_loads = keep

    def _apply_predictor_update(
        self, entry: StoreEntry, record: _SpecLoad, now: int
    ) -> ExecType:
        if self.trace is not None:
            self.unit.trace_cycle = now
        result = self.unit.access(
            record.store_hash, record.load_hash, record.truth
        )
        self.result.events.append(
            StldEvent(
                exec_type=result.exec_type,
                store_ipa=entry.store_ipa,
                load_ipa=record.load_ipa,
                cycle=now,
            )
        )
        return result.exec_type

    def _close_window(self) -> None:
        """A branch/fault window reached its resolve point: squash it."""
        assert self.window is not None
        window, self.window = self.window, None
        self._train_squashed_records(window.base_seq, window.stop)
        self._squash_stores(window.base_seq)
        self._restore(window.snapshot)
        self._deref(window.snapshot)
        self.dispatch = window.stop + self.lat.rollback
        self.result.rollbacks += 1
        self.pmc.add(PmcEvent.ROLLBACK)
        if self.trace is not None:
            self.trace.emit(
                SquashEvent(
                    cycle=window.stop,
                    thread=self.tid,
                    reason="fault" if window.fault is not None else "branch",
                    from_index=window.snapshot.index,
                    penalty=self.lat.rollback,
                )
            )
        if window.fault is None:
            self.index = window.resume_index
            if self.trace is not None:
                self._trace_restore()
            return
        handler = window.fault and self.program._labels.get("fault_handler")
        if handler is None:
            self.result.fault = window.fault
            self.result.cycles = self.dispatch
            self.result.retired = self.retired
            self._squash_stores(window.base_seq)
            self.halted = True
            raise window.fault
        self.index = handler
        if self.trace is not None:
            self._trace_restore()

    def _resolve_stores(self, now: int) -> bool:
        """Process stores whose address generation completed by ``now``.

        Applies the TABLE I update for every speculated load of every
        resolved store (in program order), then squashes from the first
        load whose speculation turned out wrong.  Returns True when a
        squash rewound the pipeline.
        """
        if self._nrec:
            for entry in self.sq_entries:
                if entry.addr_ready > now:
                    continue
                records = entry.speculated_loads
                if not records:
                    continue
                entry.speculated_loads = []
                self._nrec -= len(records)
                squashing: _SpecLoad | None = None
                for record in records:
                    if record.guard:
                        wrong = True  # guards are only attached when aliasing
                    else:
                        exec_type = self._apply_predictor_update(entry, record, now)
                        wrong = exec_type.rollback or (
                            exec_type is ExecType.C and not record.covers
                        )
                    if squashing is None and wrong and record.snapshot is not None:
                        squashing = record
                if squashing is not None:
                    self._squash_from(squashing, entry, now)
                    # The rollback points of the records just consumed die
                    # only now, after the restore used the journal.
                    for record in records:
                        if record.snapshot is not None:
                            self._deref(record.snapshot)
                    return True
                for record in records:
                    if record.snapshot is not None:
                        self._deref(record.snapshot)
        # commit_ready commits nothing unless the head store is fully
        # ready and under the window ceiling — replicate its break
        # conditions here so the common not-yet case costs no call.
        entries = self.sq_entries
        if entries:
            head = entries[0]
            if head.addr_ready <= now and head.data_ready <= now:
                window = self.window
                ceiling = None if window is None else window.base_seq
                if ceiling is None or head.seq <= ceiling:
                    self.sq.commit_ready(self.memory, now, ceiling)
        return False

    def _squash_from(self, record: _SpecLoad, entry: StoreEntry, now: int) -> None:
        """Roll back to the mispredicted load and replay it correctly."""
        self._train_squashed_records(record.load_seq, now)
        self._squash_stores(record.load_seq)
        if self.window is not None and record.load_seq <= self.window.base_seq:
            # The branch (or faulting load) that opened the window sits
            # *after* the load we are rewinding to: its window context is
            # stale — the instruction will re-execute and re-open it.
            # Leaving it armed would later "close" onto wrong-path state.
            self._deref(self.window.snapshot)
            self.window = None
        assert record.snapshot is not None
        self._restore(record.snapshot)
        penalty = self.lat.rollback
        if record.prediction.psf_forward:
            penalty += self.lat.psf_rollback_extra
        self.dispatch = max(now, entry.addr_ready) + penalty
        self.result.rollbacks += 1
        self.pmc.add(PmcEvent.ROLLBACK)
        if self.trace is not None:
            self.trace.emit(
                SquashEvent(
                    cycle=now,
                    thread=self.tid,
                    reason="memory",
                    from_index=record.load_index,
                    penalty=penalty,
                )
            )
            self._trace_restore()
        # The store is resolved by now (addr_ready <= dispatch), so the
        # replayed load will not re-speculate against it.

    def _trace_restore(self) -> None:
        self.trace.emit(
            RestoreEvent(
                cycle=self.dispatch,
                thread=self.tid,
                index=self.index,
                retired=self.retired,
            )
        )
