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
* One scheduling loop (:meth:`_ExecState._run`) holds every opcode's
  semantics and the window-close, store-resolution and quiesce
  decisions, with the hot state in locals.  :meth:`_ExecState.execute`
  runs it to completion and :meth:`_ExecState.step` (the SMT runner)
  runs it for one decision; tracing is an inline ``trace is not None``
  guard in the same body.
* Store resolution runs only when a store holding speculated-load
  records has resolved (``_resolve_at``); until then a step pays one
  comparison and the inline head-commit check.
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

#: Enum members and facts used on hot paths, bound once: reading a member
#: off its enum class, or an enum property, costs several times a module
#: global.  ``_ROLLBACK_TYPES`` is ``ExecType.rollback`` as a tuple.
_ROLLBACK_TYPES = tuple(t for t in ExecType if t.rollback)
_TYPE_C = ExecType.C
_PERM_R, _PERM_W = Perm.R, Perm.W

#: ``_ExecState._resolve_at`` while no store holds speculated-load records.
_NEVER = 1 << 62


@dataclass(slots=True)
class _SpecLoad:
    """A load that executed against an unresolved store."""

    load_seq: int
    load_index: int
    load_ipa: int
    load_hash: int
    store_hash: int
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
        False, the same loop :meth:`run` runs to completion — then
        collects :meth:`_ExecState.finalize` and accounts thread cycles
        from the result.  The SMT runner interleaves two
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

    Collaborator attributes (store queue, memory, hierarchy, PMC bank,
    predictor unit, hash salt) are bound once at construction — they are
    stable for the lifetime of a run.  One state is built per run, so its
    slots keep construction cheap.
    """

    __slots__ = (
        "pipe", "core", "thread", "kernel", "lat", "process", "program", "dec",
        "regs", "ready", "index", "dispatch", "seq", "retired", "result",
        "window", "halted", "trace", "tid", "sq", "sq_entries", "memory",
        "hierarchy", "_pmcc", "unit", "salt", "_journal", "_jlive", "_nrec",
        "_resolve_at",
    )

    def __init__(
        self,
        pipeline: Pipeline,
        process: Process,
        program: Program,
        regs: dict[str, int],
    ) -> None:
        thread = pipeline.thread
        core = pipeline.core
        self.pipe = pipeline
        self.core = core
        self.thread = thread
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
        self.result = RunResult(regs, 0)
        self.window: _TransientWindow | None = None
        self.halted = False
        self.trace = pipeline.trace
        self.tid = thread.thread_id
        self.sq = thread.store_queue
        self.sq_entries = self.sq.live_entries()  # identity-stable list
        self.memory = core.memory
        self.hierarchy = core.hierarchy
        # The raw PMC counter bank: ``counts[event] += n`` is Pmc.add
        # minus the call.
        self._pmcc = thread.pmc.counts
        self.unit = thread.unit
        self.salt = self.unit.hash_salt
        # Register delta journal (see _Snapshot): undo records appended
        # by every register write while any rollback point is live.
        self._journal: list[tuple] = []
        self._jlive = 0      # live _Snapshot objects
        self._nrec = 0       # _SpecLoad records attached to store entries
        # No store holding speculated-load records resolves before this
        # cycle (a lower bound; _resolve_stores makes it exact).  Records
        # left in the queue by an earlier run that faulted out are
        # covered by starting at 0 whenever the queue is not empty.
        self._resolve_at = 0 if self.sq_entries else _NEVER

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
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

    def _ipa_of_instruction(self, index: int) -> int:
        iva = self.dec.ivas[index]
        paddr = self.process.address_space.translate_nofault(iva)
        if paddr is None:
            raise SegmentationFault(iva, access="execute")
        return paddr

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
    # The scheduling loop
    # ------------------------------------------------------------------
    def execute(self, max_steps: int) -> RunResult:
        """Run to completion in at most ``max_steps`` scheduling decisions."""
        self._run(max_steps)
        if not self.halted:
            raise SimulationLimitExceeded(
                f"program {self.program.name!r} exceeded {max_steps} steps"
            )
        return self.finalize()

    def step(self) -> bool:
        """Advance by one scheduling decision; returns False once halted.

        The SMT runner interleaves two hardware threads' executions this
        way; it is :meth:`execute`'s loop bounded to one decision.
        """
        if not self.halted:
            self._run(1)
        return not self.halted

    def _run(self, budget: int) -> None:
        """Take up to ``budget`` scheduling decisions, stopping at halt.

        A decision is one of: close a transient window that reached its
        resolve point; resolve stores whose speculated loads are due (a
        squash rewinds and ends the decision); quiesce at the end of the
        program; or dispatch one instruction.  Every opcode is executed
        here, once (loads and stores through :meth:`_exec_load` and
        :meth:`_exec_store`).  ``index``, ``dispatch`` and ``retired``
        live in locals, written back to ``self`` before any helper that
        reads or writes them and on exit; they, the live-snapshot count
        and the open window are reloaded after each such helper.
        """
        dec = self.dec
        ops, argv, names, n = dec.ops, dec.args, dec.names, dec.n
        regs, ready, journal = self.regs, self.ready, self._journal
        entries = self.sq_entries
        pmcc = self._pmcc
        trace, tid = self.trace, self.tid
        alu_lat, imul_lat = self.lat.alu, self.lat.imul
        itlb_hit = PmcEvent.ITLB_HIT_4K
        index, dispatch, retired = self.index, self.dispatch, self.retired
        jlive, window = self._jlive, self.window
        while budget:
            budget -= 1
            if window is not None and (dispatch >= window.stop or index >= n):
                self.index, self.dispatch, self.retired = index, dispatch, retired
                self._close_window()
                index, dispatch, retired = self.index, self.dispatch, self.retired
                jlive, window = self._jlive, self.window
                continue
            if entries:
                # _resolve_stores only when a store holding speculated-load
                # records has resolved; until then it would do nothing.
                if self._nrec and self._resolve_at <= dispatch:
                    self.index, self.dispatch, self.retired = index, dispatch, retired
                    squashed = self._resolve_stores(dispatch)
                    index, dispatch, retired = self.index, self.dispatch, self.retired
                    jlive, window = self._jlive, self.window
                    if squashed:
                        continue
                # commit_ready commits nothing unless the head store is
                # fully ready and under the window ceiling — its break
                # conditions, checked here so the common case costs no call.
                head = entries[0]
                if head.addr_ready <= dispatch and head.data_ready <= dispatch:
                    ceiling = None if window is None else window.base_seq
                    if ceiling is None or head.seq <= ceiling:
                        self.sq.commit_ready(self.memory, dispatch, ceiling)
            if index >= n:
                self.index, self.dispatch, self.retired = index, dispatch, retired
                self._quiesce()
                index, dispatch, retired = self.index, self.dispatch, self.retired
                jlive, window = self._jlive, self.window
                if self.halted:
                    break
                continue

            op = ops[index]
            if op == OP_LABEL:
                index += 1
                continue  # zero-size, zero-time
            pmcc[itlb_hit] += 1
            d = dispatch
            if trace is not None:
                trace.emit(DispatchEvent(cycle=d, thread=tid, index=index, op=names[index]))
            args = argv[index]
            # Opcode chain ordered roughly by dynamic frequency in the fuzz
            # and experiment workloads (ALU/IMUL address-generation chains
            # dominate, then memory ops).  Register-writing opcodes set
            # dst/value/when for the one register write below; the others
            # set dst to None or leave the iteration themselves.
            if op == OP_ALU:
                dst, a, b, code, opname = args
                av = regs.get(a, 0)
                bv = regs.get(b, 0)
                when = d
                ra = ready.get(a, 0)
                if ra > when:
                    when = ra
                rb = ready.get(b, 0)
                if rb > when:
                    when = rb
                when += alu_lat
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
            elif op == OP_ALUIMM:
                dst, src, imm, code, opname = args
                av = regs.get(src, 0)
                when = d
                rs = ready.get(src, 0)
                if rs > when:
                    when = rs
                when += alu_lat
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
            elif op == OP_IMULIMM:
                dst, src, imm = args
                value = regs.get(src, 0) * imm
                when = d
                rs = ready.get(src, 0)
                if rs > when:
                    when = rs
                when += imul_lat
            elif op == OP_IMUL:
                dst, a, b = args
                value = regs.get(a, 0) * regs.get(b, 0)
                when = d
                ra = ready.get(a, 0)
                if ra > when:
                    when = ra
                rb = ready.get(b, 0)
                if rb > when:
                    when = rb
                when += imul_lat
            elif op == OP_MOVIMM:
                dst, value = args
                when = d
            elif op == OP_MOV:
                dst, src = args
                value = regs.get(src, 0)
                when = ready.get(src, 0)
                if d > when:
                    when = d
            elif op == OP_LOAD:
                dst = args[0]
                self.index, self.retired = index, retired
                value, when = self._exec_load(index, args, d)
                jlive, window = self._jlive, self.window
            elif op == OP_STORE:
                dst = None
                self._exec_store(index, args, d)
            elif op == OP_PAD:
                dst = None
            elif op == OP_JZ:
                cond, target, label = args
                iva = dec.ivas[index]
                taken = regs.get(cond, 0) == 0
                predicted = self.pipe.predict_branch(iva)
                rc = ready.get(cond, 0)
                resolve = (rc if rc > d else d) + alu_lat
                self.pipe.train_branch(iva, taken)
                if trace is not None:
                    trace.emit(
                        BranchPredictEvent(
                            cycle=d, thread=tid, index=index, iva=iva,
                            predicted_taken=predicted,
                        )
                    )
                    trace.emit(
                        BranchResolveEvent(
                            cycle=resolve, thread=tid, index=index, iva=iva,
                            taken=taken, mispredicted=predicted != taken,
                        )
                    )
                if target is None:
                    raise InvalidInstruction(f"unknown label {label!r}")
                retired += 1
                if trace is not None:
                    self._trace_commit(index, names[index], d, retired)
                dispatch = d + 1
                fallthrough = index + 1
                if predicted == taken or window is not None:
                    # Correct prediction — or a nested mispredict inside an
                    # open window (single-level wrong-path model): follow
                    # the truth.
                    index = target if taken else fallthrough
                    continue
                # Mispredicted: run the wrong path transiently until
                # resolution.
                self.index, self.retired = index, retired
                window = self.window = _TransientWindow(
                    stop=resolve,
                    snapshot=self._snapshot(),
                    resume_index=target if taken else fallthrough,
                    base_seq=self.seq,
                )
                jlive = self._jlive
                index = target if predicted else fallthrough  # wrong path
                continue
            elif op == OP_HALT:
                if window is not None:
                    # A wrong path ran into Halt: fast-forward to the
                    # window's resolve point; the next decision squashes it.
                    if window.stop > dispatch:
                        dispatch = window.stop
                    continue
                retired += 1
                if trace is not None:
                    self._trace_commit(index, names[index], d, retired)
                self.index, self.dispatch, self.retired = index, dispatch, retired
                self._quiesce()
                index, dispatch, retired = self.index, self.dispatch, self.retired
                jlive, window = self._jlive, self.window
                if self.halted:
                    break
                continue
            elif op == OP_MFENCE:
                self.index, self.dispatch, self.retired = index, dispatch, retired
                horizon = self._sq_horizon()
                if ready:
                    frontier = max(ready.values())
                    if frontier > horizon:
                        horizon = frontier
                squashed = self._resolve_stores(horizon)
                index, dispatch, retired = self.index, self.dispatch, self.retired
                jlive, window = self._jlive, self.window
                if squashed:
                    continue  # the fence re-executes after the replay
                if horizon > dispatch:
                    dispatch = horizon
                if entries:
                    self.sq.commit_ready(
                        self.memory, dispatch, None if window is None else window.base_seq
                    )
                retired += 1
                if trace is not None:
                    self._trace_commit(index, names[index], d, retired)
                index += 1
                if d + 1 > dispatch:
                    dispatch = d + 1
                continue
            elif op == OP_RDPRU:
                dst = args[0]
                frontier = max(ready.values(), default=0)
                if d > frontier:
                    frontier = d
                value = self.thread.cycles + self._noisy(frontier)
                when = d
            elif op == OP_CLFLUSH:
                dst = None
                base, offset = args
                vaddr = (regs.get(base, 0) + offset) & _U64
                self.hierarchy.clflush(
                    self.kernel.translate(self.process, vaddr, _PERM_R, self.thread)
                )
            else:
                raise InvalidInstruction(f"unhandled instruction {dec.insts[index]!r}")
            if dst is not None:
                if jlive:
                    journal.append((dst, regs.get(dst, _ABSENT), ready.get(dst, _ABSENT)))
                regs[dst] = value & _U64
                ready[dst] = when
            retired += 1
            if trace is not None:
                self._trace_commit(index, names[index], d, retired)
            index += 1
            dispatch = d + 1
        self.index, self.dispatch, self.retired = index, dispatch, retired

    def finalize(self) -> RunResult:
        frontier = self._sq_horizon()
        if self.ready:
            latest = max(self.ready.values())
            if latest > frontier:
                frontier = latest
        if self.sq_entries:
            self.sq.drain(self.memory)
        self._pmcc[PmcEvent.RETIRED_OPS] += self.retired
        result = self.result
        result.cycles = frontier
        result.retired = self.retired
        return result

    def _quiesce(self) -> None:
        """Resolve every pending store at the end of the program and halt,
        unless a squash rewound execution."""
        horizon = self._sq_horizon()
        if self._resolve_stores(horizon):
            return
        if horizon > self.dispatch:
            self.dispatch = horizon
        if self.sq_entries:
            window = self.window
            self.sq.commit_ready(
                self.memory, self.dispatch, None if window is None else window.base_seq
            )
        self.halted = True

    def _trace_commit(self, index: int, opname: str, cycle: int, retired: int) -> None:
        self.trace.emit(
            CommitEvent(
                cycle=cycle,
                thread=self.tid,
                index=index,
                op=opname,
                retired=retired,
            )
        )

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------
    def _exec_store(self, index: int, args: tuple, d: int) -> None:
        base, src, offset, width = args
        regs = self.regs
        ready = self.ready
        vaddr = (regs.get(base, 0) + offset) & _U64
        paddr = self.kernel.translate(self.process, vaddr, _PERM_W, self.thread)
        rb = ready.get(base, 0)
        addr_ready = (rb if rb > d else d) + self.lat.alu
        rs = ready.get(src, 0)
        data_ready = rs if rs > d else d
        value = regs.get(src, 0)
        self.seq += 1
        # Fields in order: seq, paddr, size, data, addr_ready, data_ready,
        # store_ipa (positional for the same reason as _SpecLoad).
        self.sq.push(
            StoreEntry(
                self.seq, paddr, width, value.to_bytes(8, "little")[:width],
                addr_ready, data_ready, self._ipa_of_instruction(index),
            )
        )

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------
    def _exec_load(self, index: int, args: tuple, d: int) -> tuple[int, int]:
        """Execute a load; returns ``(value, ready cycle)`` for the
        caller's register write (after any rollback point it opened)."""
        dst, base, offset, width = args
        self._pmcc[PmcEvent.LD_DISPATCH] += 1
        vaddr = (self.regs.get(base, 0) + offset) & _U64
        rb = self.ready.get(base, 0)
        addr_ready = (rb if rb > d else d) + self.lat.alu
        try:
            paddr = self.kernel.translate(self.process, vaddr, _PERM_R, self.thread)
        except SegmentationFault as fault:
            return self._faulting_load(addr_ready, fault)

        self.seq += 1
        load_seq = self.seq
        pending = self.sq.nearest_unresolved(load_seq, addr_ready)

        if pending is None:
            return self._plain_load(width, load_seq, paddr, addr_ready)

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

        # Every unresolved older store delays a stall until its address
        # generation; the ones other than ``pending`` that alias the load
        # make a bypass/forward result wrong no matter what the
        # (nearest-store) prediction said — a memory-ordering violation.
        # One pass, and a list only when such a store exists.
        stall_until = addr_ready
        aliasing_others = None
        for entry in self.sq_entries:
            if entry.addr_ready <= addr_ready or entry.seq >= load_seq or entry.committed:
                continue
            if entry.addr_ready > stall_until:
                stall_until = entry.addr_ready
            if entry is not pending and entry.overlaps(paddr, width):
                if aliasing_others is None:
                    aliasing_others = [entry]
                else:
                    aliasing_others.append(entry)

        stalls = prediction.aliasing and not prediction.psf_forward
        will_squash = (
            (prediction.aliasing and prediction.psf_forward and not covers)
            or (not prediction.aliasing and truth)
            or (not stalls and aliasing_others is not None)
        )
        snapshot = self._snapshot() if will_squash else None

        if prediction.aliasing and prediction.psf_forward:
            # Predictive store forwarding (type C right / D wrong).
            value = self._forward_value(pending, width)
            complete = max(addr_ready, pending.data_ready) + self.lat.sq_forward
            self._pmcc[PmcEvent.STLF] += 1
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
        elif stalls:
            # Stall until address generation of *every* older unresolved
            # store (A/B/E/F): with PSF off the load cannot disambiguate
            # until the addresses are known, and waiting only for the
            # nearest store would read around an older aliasing store
            # whose address resolves later — with no guard to repair it.
            # This wait-for-all is also exactly SSBD's guarantee.
            self._pmcc[PmcEvent.SQ_STALL_TOKENS] += stall_until - addr_ready
            if truth or aliasing_others is not None:
                value = self._merged_read(
                    load_seq, paddr, width, stall_until, True
                )
                # Wait for the data of every unresolved store that aliases.
                complete = stall_until
                if truth and pending.data_ready > complete:
                    complete = pending.data_ready
                for entry in aliasing_others or ():
                    if entry.data_ready > complete:
                        complete = entry.data_ready
                complete += self.lat.sq_forward
                self._pmcc[PmcEvent.STLF] += 1
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

        # Positional: a keyword call costs this hot path about twice as much.
        pending.speculated_loads.append(
            _SpecLoad(
                load_seq, index, load_ipa, load_hash, store_hash, prediction,
                truth, covers, snapshot,
            )
        )
        self._nrec += 1
        if pending.addr_ready < self._resolve_at:
            self._resolve_at = pending.addr_ready
        if not stalls and aliasing_others is not None:
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
                        load_seq, index, load_ipa, load_hash, store_hash, prediction,
                        True, entry.covers(paddr, width), snapshot, True,
                    )
                )
                self._nrec += 1
                if entry.addr_ready < self._resolve_at:
                    self._resolve_at = entry.addr_ready
        return value, complete

    def _plain_load(
        self, width: int, load_seq: int, paddr: int, addr_ready: int
    ) -> tuple[int, int]:
        forwarding = self.sq.forwarding_store(load_seq, paddr, width, addr_ready)
        value = self._merged_read(load_seq, paddr, width, addr_ready, False)
        if forwarding is not None and forwarding.covers(paddr, width):
            complete = max(addr_ready, forwarding.data_ready) + self.lat.sq_forward
            self._pmcc[PmcEvent.STLF] += 1
        else:
            latency, _ = self.hierarchy.load(paddr)
            complete = addr_ready + latency
        return value, complete

    def _faulting_load(
        self, addr_ready: int, fault: SegmentationFault
    ) -> tuple[int, int]:
        """A faulting load: younger work runs transiently until the fault
        delivers at retire.  AMD does not forward faulting-load data, so
        the destination reads as zero (never secret-bearing)."""
        complete = addr_ready + self.lat.l1_hit
        # Inside an existing window (a live rollback point means some
        # speculation could still squash) the fault is suppressed entirely.
        if self.window is not None or self._jlive:
            return 0, complete
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
        return 0, complete

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
        # Positional: exec_type, store_ipa, load_ipa, cycle.
        self.result.events.append(
            StldEvent(result.exec_type, entry.store_ipa, record.load_ipa, now)
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
        self._pmcc[PmcEvent.ROLLBACK] += 1
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
        squash rewound the pipeline.  Committing resolved stores is the
        caller's job.
        """
        if not self._nrec:
            return False
        upcoming = _NEVER
        for entry in self.sq_entries:
            records = entry.speculated_loads
            if not records:
                continue
            if entry.addr_ready > now:
                if entry.addr_ready < upcoming:
                    upcoming = entry.addr_ready
                continue
            entry.speculated_loads = []
            self._nrec -= len(records)
            squashing: _SpecLoad | None = None
            for record in records:
                if record.guard:
                    wrong = True  # guards are only attached when aliasing
                else:
                    exec_type = self._apply_predictor_update(entry, record, now)
                    wrong = exec_type in _ROLLBACK_TYPES or (
                        exec_type is _TYPE_C and not record.covers
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
                self._resolve_at = 0  # stores not scanned yet: rescan
                return True
            for record in records:
                if record.snapshot is not None:
                    self._deref(record.snapshot)
        self._resolve_at = upcoming
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
        self._pmcc[PmcEvent.ROLLBACK] += 1
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
