"""The closure-compilation execution engine (``Machine(engine="compiled")``).

The reference interpreter (:meth:`repro.cpu.pipeline._ExecState.
_dispatch_one`) re-pays per step what is constant for the life of a
program: the opcode comparison chain, the operand-tuple unpack, the ALU
sub-opcode branch and the latency-constant attribute walks.  This module
lowers each cached :class:`~repro.cpu.isa.DecodedProgram` once into a
table of per-instruction *specialized closures* — threaded-code style:
``code[i]`` is a zero-lookup callable with its operand register names,
immediates (pre-masked), ALU operation and latency constants bound in
cell variables at compile time.  Executing instruction ``i`` is then one
``code[i](state)`` call.

Equivalence is the hard constraint, not a goal: every closure body is a
transliteration of the corresponding ``_dispatch_one`` arm, including

* the delta-journal register-write protocol (``_set_reg`` inlined: the
  undo record is appended *before* the write while any rollback point is
  live — see :class:`repro.cpu.pipeline._Snapshot`);
* PMC attribution (the per-dispatch ITLB event, load events via the
  shared ``_exec_load``) in the same order;
* telemetry (``DispatchEvent`` before the op, ``CommitEvent`` after,
  nothing for zero-size ``Label``) — still one ``is not None`` check
  when tracing is off;
* deferred decode errors (``ALU_BAD``, unknown labels, ``OP_UNKNOWN``
  raise at *execution*, after the dispatch preamble, exactly like the
  interpreter).

Heavyweight ops (loads, stores, branches, fences) delegate to the very
same ``_ExecState`` methods the interpreter uses, so the predictor
consultations, squash machinery and store-queue interactions are not
merely equivalent but the same code.  The equivalence gate
(:mod:`repro.bench.equivalence`) and the interpreter-vs-compiled
property tests in ``tests/cpu/test_engine_equivalence.py`` pin all of
this byte-for-byte.

Compiled tables are cached in a bounded content-keyed LRU (the same key
discipline as the decode cache in :mod:`repro.cpu.isa`, extended with
the latency constants that were baked into the closures), so warm
campaign workers recompile nothing across repeated runs of the same
program content.
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from typing import Callable

from repro.core.config import LatencyModel
from repro.cpu.isa import (
    ALU_ADD,
    ALU_AND,
    ALU_OR,
    ALU_SUB,
    ALU_XOR,
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
    DecodedProgram,
    Program,
)
from repro.core.hashfn import ipa_hash
from repro.core.predictor_unit import _SSBD_BLOCK
from repro.core.state_machine import predict as _predict_state
from repro.cpu.pipeline import _ABSENT, _ExecState, _SpecLoad
from repro.cpu.pmc import PmcEvent
from repro.errors import (
    InvalidInstruction,
    SegmentationFault,
    SimulationLimitExceeded,
)
from repro.mem.store_queue import StoreEntry
from repro.osm.address_space import CowFault, Perm
from repro.telemetry.events import DispatchEvent

__all__ = [
    "COMPILE_CACHE_SIZE",
    "compile_program",
    "compile_decoded",
    "compile_cache_info",
    "clear_compile_cache",
    "set_compile_cache_size",
    "CompiledExecState",
]

_U64 = (1 << 64) - 1
_ITLB = PmcEvent.ITLB_HIT_4K
_LD_DISPATCH = PmcEvent.LD_DISPATCH
_STLF = PmcEvent.STLF
_SQ_STALL = PmcEvent.SQ_STALL_TOKENS
_PERM_R = Perm.R
_PERM_W = Perm.W

#: Stand-in for "no speculated-load record constrains scheduling" in the
#: execute loop's cached bound (far beyond any reachable cycle count).
_NO_BOUND = 1 << 62

#: Default bound on the compiled-closure LRU (entries, i.e. distinct
#: program contents × latency models).  Sized like the decode cache: a
#: long fuzz campaign cycles thousands of generated programs through one
#: worker, and without a bound every one would pin its closure table.
COMPILE_CACHE_SIZE = 256

_OP_FN = {
    ALU_ADD: operator.add,
    ALU_SUB: operator.sub,
    ALU_XOR: operator.xor,
    ALU_AND: operator.and_,
    ALU_OR: operator.or_,
}


# ----------------------------------------------------------------------
# Per-opcode closure factories.  Each returns ``op(state) -> None`` with
# everything constant bound in the enclosing scope; the bodies replicate
# the matching ``_dispatch_one`` arm plus its shared pre/postlude.
# ----------------------------------------------------------------------

def _c_label(index: int) -> Callable:
    next_index = index + 1

    def op(state) -> None:
        state.index = next_index  # zero-size, zero-time: no PMC, no trace

    return op


def _c_movimm(index: int, name: str, dst: str, value: int) -> Callable:
    next_index = index + 1
    masked = value & _U64

    def op(state) -> None:
        state._bitlb += 1
        d = state.dispatch
        trace = state.trace
        if trace is not None:
            trace.emit(DispatchEvent(cycle=d, thread=state.tid, index=index, op=name))
        regs = state.regs
        ready = state.ready
        if state._jlive:
            state._journal.append(
                (dst, regs.get(dst, _ABSENT), ready.get(dst, _ABSENT))
            )
        regs[dst] = masked
        ready[dst] = d
        state.retired += 1
        if trace is not None:
            state._trace_commit(index, name, d)
        state.index = next_index
        state.dispatch = d + 1

    return op


def _c_mov(index: int, name: str, dst: str, src: str) -> Callable:
    next_index = index + 1

    def op(state) -> None:
        state._bitlb += 1
        d = state.dispatch
        trace = state.trace
        if trace is not None:
            trace.emit(DispatchEvent(cycle=d, thread=state.tid, index=index, op=name))
        regs = state.regs
        ready = state.ready
        rs = ready.get(src, 0)
        value = regs.get(src, 0)
        if state._jlive:
            state._journal.append(
                (dst, regs.get(dst, _ABSENT), ready.get(dst, _ABSENT))
            )
        regs[dst] = value & _U64
        ready[dst] = rs if rs > d else d
        state.retired += 1
        if trace is not None:
            state._trace_commit(index, name, d)
        state.index = next_index
        state.dispatch = d + 1

    return op


def _c_alu(
    index: int, name: str, dst: str, a: str, b: str, fn: Callable, lat_alu: int
) -> Callable:
    next_index = index + 1

    def op(state) -> None:
        state._bitlb += 1
        d = state.dispatch
        trace = state.trace
        if trace is not None:
            trace.emit(DispatchEvent(cycle=d, thread=state.tid, index=index, op=name))
        regs = state.regs
        ready = state.ready
        value = fn(regs.get(a, 0), regs.get(b, 0))
        start = d
        ra = ready.get(a, 0)
        if ra > start:
            start = ra
        rb = ready.get(b, 0)
        if rb > start:
            start = rb
        if state._jlive:
            state._journal.append(
                (dst, regs.get(dst, _ABSENT), ready.get(dst, _ABSENT))
            )
        regs[dst] = value & _U64
        ready[dst] = start + lat_alu
        state.retired += 1
        if trace is not None:
            state._trace_commit(index, name, d)
        state.index = next_index
        state.dispatch = d + 1

    return op


def _c_aluimm(
    index: int, name: str, dst: str, src: str, imm: int, fn: Callable, lat_alu: int
) -> Callable:
    next_index = index + 1

    def op(state) -> None:
        state._bitlb += 1
        d = state.dispatch
        trace = state.trace
        if trace is not None:
            trace.emit(DispatchEvent(cycle=d, thread=state.tid, index=index, op=name))
        regs = state.regs
        ready = state.ready
        value = fn(regs.get(src, 0), imm)
        rs = ready.get(src, 0)
        start = rs if rs > d else d
        if state._jlive:
            state._journal.append(
                (dst, regs.get(dst, _ABSENT), ready.get(dst, _ABSENT))
            )
        regs[dst] = value & _U64
        ready[dst] = start + lat_alu
        state.retired += 1
        if trace is not None:
            state._trace_commit(index, name, d)
        state.index = next_index
        state.dispatch = d + 1

    return op


def _c_imul(
    index: int, name: str, dst: str, a: str, b: str, lat_imul: int
) -> Callable:
    next_index = index + 1

    def op(state) -> None:
        state._bitlb += 1
        d = state.dispatch
        trace = state.trace
        if trace is not None:
            trace.emit(DispatchEvent(cycle=d, thread=state.tid, index=index, op=name))
        regs = state.regs
        ready = state.ready
        value = regs.get(a, 0) * regs.get(b, 0)
        start = d
        ra = ready.get(a, 0)
        if ra > start:
            start = ra
        rb = ready.get(b, 0)
        if rb > start:
            start = rb
        if state._jlive:
            state._journal.append(
                (dst, regs.get(dst, _ABSENT), ready.get(dst, _ABSENT))
            )
        regs[dst] = value & _U64
        ready[dst] = start + lat_imul
        state.retired += 1
        if trace is not None:
            state._trace_commit(index, name, d)
        state.index = next_index
        state.dispatch = d + 1

    return op


def _c_imulimm(
    index: int, name: str, dst: str, src: str, imm: int, lat_imul: int
) -> Callable:
    next_index = index + 1

    def op(state) -> None:
        state._bitlb += 1
        d = state.dispatch
        trace = state.trace
        if trace is not None:
            trace.emit(DispatchEvent(cycle=d, thread=state.tid, index=index, op=name))
        regs = state.regs
        ready = state.ready
        value = regs.get(src, 0) * imm
        rs = ready.get(src, 0)
        start = rs if rs > d else d
        if state._jlive:
            state._journal.append(
                (dst, regs.get(dst, _ABSENT), ready.get(dst, _ABSENT))
            )
        regs[dst] = value & _U64
        ready[dst] = start + lat_imul
        state.retired += 1
        if trace is not None:
            state._trace_commit(index, name, d)
        state.index = next_index
        state.dispatch = d + 1

    return op


def _c_pad(index: int, name: str) -> Callable:
    next_index = index + 1

    def op(state) -> None:
        state._bitlb += 1
        d = state.dispatch
        trace = state.trace
        if trace is not None:
            trace.emit(DispatchEvent(cycle=d, thread=state.tid, index=index, op=name))
        state.retired += 1
        if trace is not None:
            state._trace_commit(index, name, d)
        state.index = next_index
        state.dispatch = d + 1

    return op


def _c_rdpru(index: int, name: str, dst: str) -> Callable:
    next_index = index + 1

    def op(state) -> None:
        state._bitlb += 1
        d = state.dispatch
        trace = state.trace
        if trace is not None:
            trace.emit(DispatchEvent(cycle=d, thread=state.tid, index=index, op=name))
        regs = state.regs
        ready = state.ready
        frontier = max(ready.values(), default=0)
        if d > frontier:
            frontier = d
        value = state.thread.cycles + state._noisy(frontier)
        if state._jlive:
            state._journal.append(
                (dst, regs.get(dst, _ABSENT), ready.get(dst, _ABSENT))
            )
        regs[dst] = value & _U64
        ready[dst] = d
        state.retired += 1
        if trace is not None:
            state._trace_commit(index, name, d)
        state.index = next_index
        state.dispatch = d + 1

    return op


def _c_clflush(index: int, name: str, base: str, offset: int) -> Callable:
    next_index = index + 1

    def op(state) -> None:
        state._bitlb += 1
        d = state.dispatch
        trace = state.trace
        if trace is not None:
            trace.emit(DispatchEvent(cycle=d, thread=state.tid, index=index, op=name))
        vaddr = (state.regs.get(base, 0) + offset) & _U64
        paddr = state._translate(vaddr, _PERM_R)
        state.hierarchy.clflush(paddr)
        state.retired += 1
        if trace is not None:
            state._trace_commit(index, name, d)
        state.index = next_index
        state.dispatch = d + 1

    return op


def _c_load(index: int, name: str, args: tuple, iva: int, lat) -> Callable:
    """A load with the whole :meth:`_ExecState._exec_load` body inlined.

    Operands, the instruction's IVA and the latency constants are bound
    at compile time; the statements mirror the interpreter's, line for
    line and in the same order, with the trace-``None`` branches dropped
    — a recording run (the rare, already-slow mode) delegates to the
    inherited method so event emission cannot drift.
    """
    dst, base, offset, width = args
    next_index = index + 1
    lat_alu = lat.alu
    lat_fwd = lat.sq_forward
    lat_replay = lat.post_stall_replay

    def op(state) -> None:
        state._bitlb += 1
        d = state.dispatch
        if state.trace is not None:
            state.trace.emit(
                DispatchEvent(cycle=d, thread=state.tid, index=index, op=name)
            )
            state._exec_load(index, args, d)
            state.retired += 1
            state._trace_commit(index, name, d)
            state.index = next_index
            state.dispatch = d + 1
            return
        state._bldd += 1
        regs = state.regs
        ready = state.ready
        vaddr = (regs.get(base, 0) + offset) & _U64
        rb = ready.get(base, 0)
        addr_ready = (rb if rb > d else d) + lat_alu
        try:
            # kernel.translate only adds COW-write resolution, which a
            # Perm.R access can never trigger, so loads go straight to
            # the page table (same faults, same result, one frame less).
            paddr = state.process.address_space.translate(vaddr, _PERM_R)
        except SegmentationFault as fault:
            state._faulting_load(dst, addr_ready, fault)
            state.retired += 1
            state.index = next_index
            state.dispatch = d + 1
            return

        load_seq = state.seq + 1
        state.seq = load_seq
        sq = state.sq
        pending = sq.nearest_unresolved(load_seq, addr_ready)

        if pending is None:
            # _plain_load, inlined.
            forwarding = sq.forwarding_store(load_seq, paddr, width, addr_ready)
            value = state._merged_read(load_seq, paddr, width, addr_ready, False)
            if forwarding is not None and forwarding.covers(paddr, width):
                fdr = forwarding.data_ready
                complete = (fdr if fdr > addr_ready else addr_ready) + lat_fwd
                state._bstlf += 1
            else:
                latency, _ = state.hierarchy.load(paddr)
                complete = addr_ready + latency
        else:
            # A load racing an unresolved older store: the predictor path.
            load_ipa = state.process.address_space.translate_nofault(iva)
            if load_ipa is None:
                raise SegmentationFault(iva, access="execute")
            salt = state.salt
            store_hash = ipa_hash(pending.store_ipa, salt)
            load_hash = ipa_hash(load_ipa, salt)
            # unit.predict, unrolled: the SSBD gate then the memoized
            # prediction for the assembled counter state.
            unit = state.unit
            if unit.spec_ctrl.ssbd:
                prediction = _SSBD_BLOCK
            else:
                prediction = _predict_state(unit.state_for(store_hash, load_hash))
            truth = pending.overlaps(paddr, width)
            covers = pending.covers(paddr, width)
            p_alias = prediction.aliasing
            p_fwd = prediction.psf_forward

            # sq.unresolved_older and the aliasing-others filter, as one
            # pass over the live entries.
            unresolved = []
            aliasing_others = []
            for entry in state.sq_entries:
                if (
                    entry.seq < load_seq
                    and not entry.committed
                    and entry.addr_ready > addr_ready
                ):
                    unresolved.append(entry)
                    if entry is not pending and entry.overlaps(paddr, width):
                        aliasing_others.append(entry)

            will_squash = (
                (p_alias and p_fwd and not covers)
                or (not p_alias and truth)
                or (not (p_alias and not p_fwd) and bool(aliasing_others))
            )
            snapshot = state._snapshot() if will_squash else None

            if p_alias and p_fwd:
                # Predictive store forwarding (type C right / D wrong).
                data = pending.data
                value = int.from_bytes(
                    data[:width].ljust(width, b"\x00"), "little"
                )
                pdr = pending.data_ready
                complete = (pdr if pdr > addr_ready else addr_ready) + lat_fwd
                state._bstlf += 1
            elif p_alias:
                # Stall until every older unresolved store resolves.
                stall_until = addr_ready
                for entry in unresolved:
                    if entry.addr_ready > stall_until:
                        stall_until = entry.addr_ready
                state._pmcc[_SQ_STALL] += (
                    stall_until - addr_ready if stall_until > addr_ready else 0
                )
                aliasing = [
                    entry
                    for entry in unresolved
                    if entry.overlaps(paddr, width)
                ]
                if aliasing:
                    value = state._merged_read(
                        load_seq, paddr, width, stall_until, True
                    )
                    complete = stall_until
                    for entry in aliasing:
                        if entry.data_ready > complete:
                            complete = entry.data_ready
                    complete += lat_fwd
                    state._bstlf += 1
                else:
                    latency, _ = state.hierarchy.load(paddr)
                    value = state._merged_read(
                        load_seq, paddr, width, stall_until, False
                    )
                    complete = stall_until + latency + lat_replay
            else:
                # Speculative store bypass: stale read around the store.
                latency, _ = state.hierarchy.load(paddr)
                value = state._merged_read(
                    load_seq, paddr, width, addr_ready, False
                )
                complete = addr_ready + latency

            pending.speculated_loads.append(
                _SpecLoad(
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
            )
            state._nrec += 1
            if not (p_alias and not p_fwd):
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
                    state._nrec += 1

        if state._jlive:
            state._journal.append(
                (dst, regs.get(dst, _ABSENT), ready.get(dst, _ABSENT))
            )
        regs[dst] = value & _U64
        ready[dst] = complete
        state.retired += 1
        state.index = next_index
        state.dispatch = d + 1

    return op


def _c_store(index: int, name: str, args: tuple, iva: int, lat_alu: int) -> Callable:
    """A store with :meth:`_ExecState._exec_store` inlined (see _c_load)."""
    base, src, offset, width = args
    next_index = index + 1

    def op(state) -> None:
        state._bitlb += 1
        d = state.dispatch
        if state.trace is not None:
            state.trace.emit(
                DispatchEvent(cycle=d, thread=state.tid, index=index, op=name)
            )
            state._exec_store(index, args, d)
            state.retired += 1
            state._trace_commit(index, name, d)
            state.index = next_index
            state.dispatch = d + 1
            return
        regs = state.regs
        ready = state.ready
        vaddr = (regs.get(base, 0) + offset) & _U64
        paddr = state.kernel.translate(state.process, vaddr, _PERM_W, state.thread)
        rb = ready.get(base, 0)
        rs = ready.get(src, 0)
        seq = state.seq + 1
        state.seq = seq
        store_ipa = state.process.address_space.translate_nofault(iva)
        if store_ipa is None:
            raise SegmentationFault(iva, access="execute")
        state.sq.push(
            StoreEntry(
                seq=seq,
                paddr=paddr,
                size=width,
                data=regs.get(src, 0).to_bytes(8, "little")[:width],
                addr_ready=(rb if rb > d else d) + lat_alu,
                data_ready=rs if rs > d else d,
                store_ipa=store_ipa,
            )
        )
        state.retired += 1
        state.index = next_index
        state.dispatch = d + 1

    return op


def _c_jz(index: int, name: str, args: tuple) -> Callable:
    def op(state) -> None:
        state._bitlb += 1
        d = state.dispatch
        if state.trace is not None:
            state.trace.emit(
                DispatchEvent(cycle=d, thread=state.tid, index=index, op=name)
            )
        state._exec_branch(index, args, d)  # the branch manages index/dispatch

    return op


def _c_halt(index: int, name: str) -> Callable:
    def op(state) -> None:
        state._bitlb += 1
        d = state.dispatch
        trace = state.trace
        if trace is not None:
            trace.emit(DispatchEvent(cycle=d, thread=state.tid, index=index, op=name))
        window = state.window
        if window is not None:
            # A wrong path ran into Halt: fast-forward to the window's
            # resolve point; the main loop will squash it.
            if window.stop > state.dispatch:
                state.dispatch = window.stop
            return
        state.retired += 1
        if trace is not None:
            state._trace_commit(index, name, d)
        if not state._quiesce():
            state.halted = True

    return op


def _c_mfence(index: int, name: str) -> Callable:
    next_index = index + 1

    def op(state) -> None:
        state._bitlb += 1
        d = state.dispatch
        trace = state.trace
        if trace is not None:
            trace.emit(DispatchEvent(cycle=d, thread=state.tid, index=index, op=name))
        before = state.index
        state._exec_mfence()
        if state.index != before:
            return  # a squash rewound us; the fence will re-execute
        state.retired += 1
        if trace is not None:
            state._trace_commit(index, name, d)
        state.index = next_index
        if d + 1 > state.dispatch:
            state.dispatch = d + 1

    return op


def _c_raise(index: int, name: str, message: str) -> Callable:
    """Deferred decode error: raises at execution, after the preamble,
    matching the interpreter's lazy rejection of unreachable garbage."""

    def op(state) -> None:
        state._bitlb += 1
        d = state.dispatch
        if state.trace is not None:
            state.trace.emit(
                DispatchEvent(cycle=d, thread=state.tid, index=index, op=name)
            )
        raise InvalidInstruction(message)

    return op


# ----------------------------------------------------------------------
# Superblock fusion
#
# A maximal run of register ops and stores (no loads, branches, fences
# or anything that can snapshot or squash) can be executed as one
# straight-line *fused* function: operand names, immediates, dispatch
# offsets and latency constants folded into generated source,
# `regs`/`ready` hoisted into locals, the per-dispatch ITLB count and
# retire count batched into two adds at the end (flushed early before
# each store, whose translate may fault).  The
# scheduling loop may only take a fused block when its per-step checks
# are provably no-ops for the block's whole dispatch range (see
# ``CompiledExecState.execute``), so fusion never changes what the
# reference interpreter would have done — it skips work the interpreter
# would have done to conclude "nothing to do".
# ----------------------------------------------------------------------

_ALU_SYM = {ALU_ADD: "+", ALU_SUB: "-", ALU_XOR: "^", ALU_AND: "&", ALU_OR: "|"}
_FUSE_SIMPLE = frozenset((OP_MOVIMM, OP_MOV, OP_PAD, OP_LABEL, OP_IMUL, OP_IMULIMM))


def _fusable(dec: DecodedProgram, i: int) -> bool:
    op = dec.ops[i]
    if op in _FUSE_SIMPLE:
        return True
    if op == OP_ALU or op == OP_ALUIMM:
        return dec.args[i][3] in _ALU_SYM
    # Stores fuse too: they cannot squash or complete out of order, and
    # the codegen flushes the batched counters before each one so any
    # fault inside the store (segfault, COW break) — and the store-queue
    # push itself — observes exactly the interpreter's state.  The
    # scheduler refuses store-bearing blocks that could overflow the
    # queue (see ``CompiledExecState.execute``), falling back to scalar
    # dispatch where capacity overflow raises on the interpreter's step.
    return op == OP_STORE


def _gen_fused(
    dec: DecodedProgram, start: int, end: int, lat: LatencyModel, journaled: bool
):
    """Generate one fused straight-line function for ``dec[start:end)``.

    Returns ``(dispatch_count, store_count, fn)``.  The body replicates
    each instruction's interpreter arm — with the delta-journal appends
    inlined before every register write when ``journaled`` (the variant
    run while a rollback point is live), omitted otherwise — and with
    ``dispatch`` kept as a compile-time offset from the entry value
    (labels occupy no dispatch slot, exactly like the interpreter).

    Stores are fused *segmented*: the batched ITLB/retire counts and the
    running ``dispatch``/``index`` are flushed immediately before each
    store body, so if the store faults (segfault on translate, missing
    instruction page) the exception propagates with every observable
    counter exactly where the scalar closure would have left it.  The
    store body itself is :func:`_c_store`'s hot path with the operands,
    IVA and latency folded in.

    Register values written inside the block live in Python locals until
    a flush point (the segment boundary before each store, and the block
    tail) — a read-after-write within the block hits the local instead
    of the ``regs``/``ready`` dicts, and a register written several
    times pays only one dict store.  The deferral is invisible: nothing
    inside a block observes the dicts except the generated code itself
    (journal entries read the same locals, so the rollback journal gets
    the identical old values), and every path that can raise or leave
    the block flushes first.
    """
    mask = hex(_U64)
    has_store = any(dec.ops[i] == OP_STORE for i in range(start, end))
    lines = [
        "def _fused(state):",
        "    regs = state.regs",
        "    ready = state.ready",
        "    rget = regs.get",
        "    yget = ready.get",
        "    d = state.dispatch",
    ]
    if has_store:
        lines.append("    _spc = state.process")
        lines.append("    _tr = _spc.address_space.translate")
        lines.append("    _tnf = _spc.address_space.translate_nofault")
        lines.append("    _push = state.sq.push")
    if journaled:
        lines.append("    japp = state._journal.append")
    emit = lines.append
    stores = 0
    flushed_itlb = 0  # dispatches whose ITLB count is already flushed
    flushed_ret = 0  # retires already flushed
    loc: dict[str, tuple[str, str]] = {}  # reg -> (value local, ready local)
    dirty: list[str] = []  # block-written regs not yet flushed to the dicts

    def rread(reg: str) -> str:
        pair = loc.get(reg)
        return pair[0] if pair is not None else f"rget({reg!r}, 0)"

    def yread(reg: str) -> str:
        pair = loc.get(reg)
        return pair[1] if pair is not None else f"yget({reg!r}, 0)"

    def journal(dst: str) -> None:
        if journaled:
            pair = loc.get(dst)
            if pair is not None:
                emit(f"    japp(({dst!r}, {pair[0]}, {pair[1]}))")
            else:
                emit(
                    f"    japp(({dst!r}, rget({dst!r}, _ABSENT),"
                    f" yget({dst!r}, _ABSENT)))"
                )

    def locals_for(dst: str) -> tuple[str, str]:
        pair = loc.get(dst)
        if pair is None:
            pair = loc[dst] = (f"_L{len(loc)}", f"_Y{len(loc)}")
        if dst not in dirty:
            dirty.append(dst)
        return pair

    def flush_regs() -> None:
        for reg in dirty:
            value, when = loc[reg]
            emit(f"    regs[{reg!r}] = {value}")
            emit(f"    ready[{reg!r}] = {when}")
        dirty.clear()

    k = 0  # dispatch offset of the next non-label instruction
    for i in range(start, end):
        op = dec.ops[i]
        args = dec.args[i]
        dk = f"d + {k}" if k else "d"
        if op == OP_LABEL:
            continue  # zero-size, zero-time; consumes a step, not a slot
        if op == OP_MOVIMM:
            dst, value = args
            journal(dst)
            lv, ly = locals_for(dst)
            emit(f"    {lv} = {value & _U64}")
            emit(f"    {ly} = {dk}")
        elif op == OP_MOV:
            dst, src = args
            emit(f"    _r = {yread(src)}")
            emit(f"    _v = {rread(src)}")
            journal(dst)
            lv, ly = locals_for(dst)
            emit(f"    {lv} = _v & {mask}")
            emit(f"    {ly} = _r if _r > {dk} else {dk}")
        elif op == OP_ALU or op == OP_IMUL:
            if op == OP_IMUL:
                dst, a, b = args
                sym, lat_c = "*", lat.imul
            else:
                dst, a, b, alu_code, _opname = args
                sym, lat_c = _ALU_SYM[alu_code], lat.alu
            emit(f"    _v = {rread(a)} {sym} {rread(b)}")
            emit(f"    _s = {dk}")
            emit(f"    _t = {yread(a)}")
            emit("    if _t > _s: _s = _t")
            emit(f"    _t = {yread(b)}")
            emit("    if _t > _s: _s = _t")
            journal(dst)
            lv, ly = locals_for(dst)
            emit(f"    {lv} = _v & {mask}")
            emit(f"    {ly} = _s + {lat_c}")
        elif op == OP_ALUIMM or op == OP_IMULIMM:
            if op == OP_IMULIMM:
                dst, src, imm = args
                sym, lat_c = "*", lat.imul
            else:
                dst, src, imm, alu_code, _opname = args
                sym, lat_c = _ALU_SYM[alu_code], lat.alu
            emit(f"    _v = {rread(src)} {sym} {imm}")
            emit(f"    _t = {yread(src)}")
            emit(f"    _s = _t if _t > {dk} else {dk}")
            journal(dst)
            lv, ly = locals_for(dst)
            emit(f"    {lv} = _v & {mask}")
            emit(f"    {ly} = _s + {lat_c}")
        elif op == OP_STORE:
            base, src, offset, width = args
            stores += 1
            # Flush batched state: anything from here on can raise (the
            # interpreter's state at a raise includes the store's own
            # ITLB count but not its retire/dispatch/index advance).
            flush_regs()
            emit(f"    state._bitlb += {k + 1 - flushed_itlb}")
            if k - flushed_ret:
                emit(f"    state.retired += {k - flushed_ret}")
            if k:
                emit(f"    state.dispatch = d + {k}")
            emit(f"    state.index = {i}")
            flushed_itlb = k + 1
            flushed_ret = k
            emit(f"    _va = ({rread(base)} + {offset}) & {mask}")
            # kernel.translate == page-table translate except that it
            # resolves CowFault and retries; take the direct path and
            # fall back to the kernel only on an actual COW break.
            emit("    try:")
            emit("        _pa = _tr(_va, _PERM_W)")
            emit("    except _Cow:")
            emit("        _pa = state.kernel.translate(_spc, _va, _PERM_W, state.thread)")
            emit(f"    _rb = {yread(base)}")
            emit(f"    _rs = {yread(src)}")
            emit("    _sn = state.seq + 1")
            emit("    state.seq = _sn")
            emit(f"    _ipa = _tnf({dec.ivas[i]})")
            emit("    if _ipa is None:")
            emit(f"        raise _SegF({dec.ivas[i]}, access='execute')")
            emit(
                f"    _push(_StoreEntry(seq=_sn, paddr=_pa, size={width},"
                f" data={rread(src)}.to_bytes(8, 'little')[:{width}],"
                f" addr_ready=(_rb if _rb > {dk} else {dk}) + {lat.alu},"
                f" data_ready=_rs if _rs > {dk} else {dk}, store_ipa=_ipa))"
            )
        # OP_PAD: dispatches and retires, moves no data
        k += 1
    flush_regs()
    if k - flushed_itlb:
        emit(f"    state._bitlb += {k - flushed_itlb}")
    emit(f"    state.retired += {k - flushed_ret}")
    emit(f"    state.dispatch = d + {k}")
    emit(f"    state.index = {end}")
    namespace: dict = {}
    exec(
        compile("\n".join(lines), "<repro.cpu.compiler fused>", "exec"),
        {
            "_ITLB": _ITLB,
            "_ABSENT": _ABSENT,
            "_PERM_W": _PERM_W,
            "_Cow": CowFault,
            "_SegF": SegmentationFault,
            "_StoreEntry": StoreEntry,
        },
        namespace,
    )
    return k, stores, namespace["_fused"]


def _c_block(ops: tuple, fused: Callable, fused_j: Callable) -> Callable:
    """One fused superblock: plain straight-line code normally, the
    journaled variant while a rollback point is live, and the exact
    per-instruction closures when telemetry is watching."""

    def blk(state) -> None:
        if state.trace is not None:
            for op in ops:
                op(state)
            return
        if state._jlive:
            fused_j(state)
        else:
            fused(state)

    return blk


#: Fused chunk sizes generated per offset, tried largest-first at run
#: time.  A store-queue event (speculated-load resolution, window stop)
#: bounds how far a block may advance ``dispatch``; graded sizes let the
#: scheduler take the largest chunk that still fits before the next
#: event instead of falling all the way back to scalar dispatch.
FUSE_SIZES = (32, 16, 8, 4, 2)

#: Executions of one compiled program before fused codegen is worth it.
#: ``exec``-compiling the graded superblock bodies costs milliseconds per
#: program — a pure loss for the run-once programs attack search loops
#: mint by the thousand (collision probes, training gadgets).  Until a
#: program has run this many times every offset stays on the scalar
#: closure path (bit-identical by construction, just slower); from then
#: on offsets materialize lazily as before and the generated bodies are
#: shared through the compile cache with every later run.  The value is
#: the measured break-even: codegen and per-run savings both scale with
#: program length, so the run count where fusion pays is roughly
#: length-independent (~15 runs on this interpreter).
FUSE_AFTER_RUNS = 16


def _fuse_blocks(dec: DecodedProgram) -> "list[list | tuple | None]":
    """The superblock table: one entry per fusable offset, else ``None``.

    Control flow can land at *any* index (branch targets, post-squash
    resume points, the instruction after a load or store), so every
    offset whose run-tail is at least two instructions long gets an
    entry.  Entries start as lazy ``[start, run_end]`` markers — the
    fused bodies are generated on first execution by
    :meth:`CompiledProgram.materialize`, so cold paths never pay
    codegen — and are replaced in place by tuples of graded
    ``(steps, dispatches, stores, blk, fused, fused_j)`` options,
    warming the shared
    cached table for every later run of the same program content.
    """
    blocks: list = [None] * dec.n
    i = 0
    while i < dec.n:
        if not _fusable(dec, i):
            i += 1
            continue
        j = i
        while j < dec.n and _fusable(dec, j):
            j += 1
        for p in range(i, j - 1):
            blocks[p] = [p, j]
        i = j
    return blocks


class CompiledProgram:
    """A compiled program: the per-instruction closure table plus the
    superblock table indexed by block-entry instruction."""

    __slots__ = ("code", "blocks", "runs", "partial", "_dec", "_lat")

    def __init__(
        self, code: list, blocks: list, dec: DecodedProgram, lat: LatencyModel
    ) -> None:
        self.code = code
        self.blocks = blocks
        #: Executions so far; gates fused codegen (:data:`FUSE_AFTER_RUNS`).
        self.runs = 0
        #: Offsets whose option tuple holds only the largest grade so
        #: far, mapped to their ``(start, run_end)`` marker.  The
        #: smaller grades are generated by :meth:`densify` the first
        #: time the largest chunk does not fit a dispatch.
        self.partial: dict[int, tuple[int, int]] = {}
        self._dec = dec
        self._lat = lat

    def _gen_option(self, start: int, size: int) -> "tuple | None":
        """One graded ``(steps, dispatches, stores, blk, fused,
        fused_j)`` option, or ``None`` if the chunk dispatches nothing."""
        end = start + size
        dispatches, stores, fused = _gen_fused(
            self._dec, start, end, self._lat, journaled=False
        )
        if dispatches < 1:
            return None
        _, _, fused_j = _gen_fused(
            self._dec, start, end, self._lat, journaled=True
        )
        return (
            size,
            dispatches,
            stores,
            _c_block(tuple(self.code[start:end]), fused, fused_j),
            fused,
            fused_j,
        )

    def materialize(self, index: int) -> "tuple | None":
        """Generate the fused chunk options for a lazy marker at ``index``.

        Replaces the marker in :attr:`blocks` (shared through the
        compile cache, so one generation serves every subsequent run)
        with a tuple of ``(steps, dispatches, stores, blk, fused,
        fused_j)`` options, or ``None`` when the chunk would dispatch
        nothing (an all-label tail — and a shorter prefix of a no-op
        prefix is also a no-op, so no smaller grade can do better).
        Only the largest grade is generated here; the smaller fallback
        grades cost the same ``exec`` codegen each and are usually dead
        weight, so they wait in :attr:`partial` until :meth:`densify`
        proves a dispatch actually needs them.  The execute loop
        dispatches the bare ``fused``/``fused_j`` bodies directly (it
        already knows whether telemetry and a journal are live);
        ``blk`` re-derives the same choice per call for :meth:`step`
        and other callers.
        """
        marker = self.blocks[index]
        start, run_end = marker
        tail = run_end - start
        first = self._gen_option(start, min(FUSE_SIZES[0], tail))
        if first is None:
            self.blocks[index] = None
            return None
        blk = (first,)
        if first[0] > FUSE_SIZES[-1]:
            self.partial[index] = (start, run_end)
        self.blocks[index] = blk
        return blk

    def densify(self, index: int) -> "tuple":
        """Generate the smaller fallback grades for a partial offset.

        Called by the execute loop when the largest chunk at ``index``
        does not fit the current dispatch (window stop, record bound or
        store-queue room).  Extends the option tuple in descending
        size order — selection semantics are identical to eager
        generation, just paid for on first need — and drops the offset
        from :attr:`partial` so the check never fires twice.
        """
        blk = self.blocks[index]
        pending = self.partial.pop(index, None)
        if pending is None:
            return blk
        start, _ = pending
        first_size = blk[0][0]
        options = list(blk)
        for size in FUSE_SIZES:
            if size >= first_size:
                continue
            option = self._gen_option(start, size)
            if option is not None:
                options.append(option)
        blk = tuple(options)
        self.blocks[index] = blk
        return blk


def compile_decoded(dec: DecodedProgram, lat: LatencyModel) -> CompiledProgram:
    """Lower one decoded program into its closure table (uncached)."""
    lat_alu = lat.alu
    lat_imul = lat.imul
    code: list[Callable] = []
    for index in range(dec.n):
        op = dec.ops[index]
        args = dec.args[index]
        name = dec.names[index]
        if op == OP_ALU:
            dst, a, b, alu_code, opname = args
            fn = _OP_FN.get(alu_code)
            if fn is None:
                code.append(_c_raise(index, name, f"unknown ALU op {opname!r}"))
            else:
                code.append(_c_alu(index, name, dst, a, b, fn, lat_alu))
        elif op == OP_ALUIMM:
            dst, src, imm, alu_code, opname = args
            fn = _OP_FN.get(alu_code)
            if fn is None:
                code.append(_c_raise(index, name, f"unknown ALU op {opname!r}"))
            else:
                code.append(_c_aluimm(index, name, dst, src, imm, fn, lat_alu))
        elif op == OP_IMUL:
            code.append(_c_imul(index, name, *args, lat_imul))
        elif op == OP_IMULIMM:
            code.append(_c_imulimm(index, name, *args, lat_imul))
        elif op == OP_MOVIMM:
            code.append(_c_movimm(index, name, *args))
        elif op == OP_MOV:
            code.append(_c_mov(index, name, *args))
        elif op == OP_LOAD:
            code.append(_c_load(index, name, args, dec.ivas[index], lat))
        elif op == OP_STORE:
            code.append(_c_store(index, name, args, dec.ivas[index], lat_alu))
        elif op == OP_PAD:
            code.append(_c_pad(index, name))
        elif op == OP_JZ:
            code.append(_c_jz(index, name, args))
        elif op == OP_HALT:
            code.append(_c_halt(index, name))
        elif op == OP_MFENCE:
            code.append(_c_mfence(index, name))
        elif op == OP_RDPRU:
            code.append(_c_rdpru(index, name, *args))
        elif op == OP_CLFLUSH:
            code.append(_c_clflush(index, name, *args))
        elif op == OP_LABEL:
            code.append(_c_label(index))
        else:
            code.append(
                _c_raise(
                    index, name, f"unhandled instruction {dec.insts[index]!r}"
                )
            )
    return CompiledProgram(code, _fuse_blocks(dec), dec, lat)


# ----------------------------------------------------------------------
# Bounded content-keyed LRU over compiled tables
# ----------------------------------------------------------------------
_cache: "OrderedDict[tuple, list[Callable]]" = OrderedDict()
_cache_size = COMPILE_CACHE_SIZE
_stats = {"hits": 0, "misses": 0, "evictions": 0}


def compile_program(program: Program, lat: LatencyModel) -> CompiledProgram:
    """The compiled form of ``program``, via the bounded LRU.

    The key is the program content (instruction tuple + base IVA — the
    same identity :meth:`Program.decoded` caches on) extended with the
    latency constants baked into the closures, so two machines with
    different :class:`LatencyModel` values never share a table.  A
    program whose instructions do not hash (an exotic subclass) is
    compiled uncached.

    A per-:class:`Program` fast path fronts the LRU: ``decoded()``
    returns an identity-stable table while the content is unchanged, so
    ``(decoded identity, latency constants)`` proves the cached closure
    table is still valid without re-hashing the instruction tuple on
    every run.
    """
    dec = program.decoded()
    ckey = program._compiled_key
    if ckey is not None and ckey[0] is dec and ckey[1] == lat.alu and ckey[2] == lat.imul:
        _stats["hits"] += 1
        return program._compiled
    key = (program._layout_src, program._layout_base, lat.alu, lat.imul)
    try:
        code = _cache.get(key)
    except TypeError:
        _stats["misses"] += 1
        code = compile_decoded(dec, lat)
        program._compiled = code
        program._compiled_key = (dec, lat.alu, lat.imul)
        return code
    if code is not None:
        _cache.move_to_end(key)
        _stats["hits"] += 1
        program._compiled = code
        program._compiled_key = (dec, lat.alu, lat.imul)
        return code
    _stats["misses"] += 1
    code = compile_decoded(dec, lat)
    _cache[key] = code
    while len(_cache) > _cache_size:
        _cache.popitem(last=False)
        _stats["evictions"] += 1
    program._compiled = code
    program._compiled_key = (dec, lat.alu, lat.imul)
    return code


def compile_cache_info() -> dict[str, int]:
    """Current compile-cache occupancy and hit/miss/eviction counters."""
    return {"size": len(_cache), "max_size": _cache_size, **_stats}


def clear_compile_cache() -> None:
    """Drop every cached closure table and reset the counters."""
    _cache.clear()
    for name in _stats:
        _stats[name] = 0


def set_compile_cache_size(size: int) -> int:
    """Rebound the LRU (evicting down if needed); returns the old size."""
    global _cache_size
    previous = _cache_size
    _cache_size = max(1, int(size))
    while len(_cache) > _cache_size:
        _cache.popitem(last=False)
        _stats["evictions"] += 1
    return previous


class CompiledExecState(_ExecState):
    """An interpreter state whose dispatch runs the compiled table.

    Only the instruction-dispatch step differs from the base class; the
    scheduling loop (window closure, store resolution, end-of-program
    quiesce) is replicated verbatim from :meth:`_ExecState.step` with
    the ``_dispatch_one`` call replaced by the closure call.  Everything
    else — journaling, squash machinery, loads/stores/branches,
    finalize — is the inherited code, so the two engines cannot drift on
    the hard parts and the shadow-verifier property tests instrument
    both through the same base-class methods.
    """

    def __init__(self, pipeline, process, program, regs) -> None:
        super().__init__(pipeline, process, program, regs)
        self.compiled = compile_program(program, pipeline.lat)
        self.compiled.runs += 1
        self.code = self.compiled.code
        self.blocks = self.compiled.blocks
        # Batched PMC deltas (ITLB dispatch, load dispatch, forwards).
        # The closures accumulate plain ints; the deltas drain into the
        # shared Counter at every point control can leave the engine
        # (per run in execute, per step on the verifier path, finalize,
        # and on any raise via the execute finally) — so every outside
        # observer sees exactly the interpreter's counts.  Only events
        # whose sites always add a positive amount are batched: a
        # zero-amount add must still create the Counter key (the
        # interpreter's ``+= 0`` does), so ``SQ_STALL_TOKENS`` keeps
        # writing through directly.
        self._bitlb = 0
        self._bldd = 0
        self._bstlf = 0

    def _flush_pmc(self) -> None:
        pmcc = self._pmcc
        n = self._bitlb
        if n:
            pmcc[_ITLB] += n
            self._bitlb = 0
        n = self._bldd
        if n:
            pmcc[_LD_DISPATCH] += n
            self._bldd = 0
        n = self._bstlf
        if n:
            pmcc[_STLF] += n
            self._bstlf = 0

    def finalize(self) -> "RunResult":
        self._flush_pmc()
        return super().finalize()

    def execute(self, max_steps: int) -> "RunResult":
        try:
            return self._execute_loop(max_steps)
        finally:
            # Exception escapes (limit, fault) must leave the Counter
            # exact; the normal path already drained via finalize().
            self._flush_pmc()

    def _execute_loop(self, max_steps: int) -> "RunResult":
        """The base-class loop with :meth:`step` inlined and superblocks.

        Two compiled-only shortcuts, both no-op-elision rather than
        reordering, keep this bit-identical to :meth:`_ExecState.
        execute`:

        * A fused superblock at ``index`` is taken only when skipping
          the per-step checks is invisible for the block's whole
          dispatch range ``[d, d + D)``: the window (if open) cannot
          close before ``d + D``, no speculated-load record resolves
          before ``d + D`` (resolution trains predictors with the
          current cycle and can squash, so it must happen on the
          interpreter's exact step), and a store-bearing block must fit
          in the store queue even with every commit deferred — commits
          only shrink the queue, so if the whole block fits now the
          interpreter's pushes succeeded too, and when it doesn't fit
          the scalar fallback raises (or commits and proceeds) on the
          interpreter's exact step.  Store
          commits falling inside the range are *deferred*, not skipped:
          ``commit_ready`` records no cycle and pure register ops
          cannot observe memory or queue occupancy, so the next scalar
          resolve commits the same entries with identical effect.
          ``steps`` advances by the block's step count, and
          blocks that would cross ``max_steps`` fall back to the scalar
          path so :class:`SimulationLimitExceeded` fires on exactly the
          interpreter's step — "limit" statuses are part of the corpus
          digests, so the counting is load-bearing, not cosmetic.
        * ``_resolve_stores`` is called only when it can act.  The loop
          caches ``bound`` — the earliest cycle any speculated-load
          record resolves (min ``addr_ready`` over record-bearing store
          entries) — and skips the call while ``dispatch`` has not
          reached it, replicating only the call's commit tail (head
          store fully ready and under the window ceiling).  The skip is
          exact: before ``bound`` no record-bearing entry passes the
          resolve loop's readiness filter, and the committed head
          cannot carry records (its ``addr_ready`` is below ``bound``).
          ``bound`` depends only on the record-bearing entry set, and
          every record attach/consume moves ``self._nrec``, so an
          ``_nrec`` delta around each scalar dispatch — plus
          unconditional invalidation at the resolve/quiesce/
          window-close sites — is a sound recompute trigger.
        """
        steps = 0
        code = self.code
        blocks = self.blocks
        n = self.dec.n
        sq = self.sq
        cap = sq.capacity
        memory = self.memory
        # The store queue's live-entry list is identity-stable (squash
        # slice-assigns in place), so it can be hoisted out of the loop.
        entries = self.sq_entries
        # The tracer cannot attach mid-run, so the telemetry check hoists
        # out of the dispatch; the journal flag cannot (windows open and
        # close between block dispatches) and is read per dispatch.
        tracing = self.trace is not None
        # Fused codegen only pays off on repeat runs; cold programs keep
        # every lazy marker unmaterialized and dispatch scalar closures.
        hot = self.compiled.runs >= FUSE_AFTER_RUNS
        partial = self.compiled.partial
        bound = -1  # cached record-resolution bound; -1 = stale
        while not self.halted:
            window = self.window
            if window is None:
                index = self.index
                nrec = self._nrec
                if nrec and bound < 0:
                    bound = _NO_BOUND
                    for entry in entries:
                        if entry.speculated_loads:
                            ready_at = entry.addr_ready
                            if ready_at < bound:
                                bound = ready_at
                if index < n:
                    blk = blocks[index]
                    if blk is not None and type(blk) is not tuple:
                        blk = self.compiled.materialize(index) if hot else None
                    if blk is not None:
                        d = self.dispatch
                        while True:
                            chosen = None
                            if nrec:
                                for opt in blk:
                                    if (
                                        steps + opt[0] <= max_steps
                                        and d + opt[1] <= bound
                                        and (
                                            not opt[2]
                                            or len(entries) + opt[2] <= cap
                                        )
                                    ):
                                        chosen = opt
                                        break
                            else:
                                for opt in blk:
                                    if steps + opt[0] <= max_steps and (
                                        not opt[2]
                                        or len(entries) + opt[2] <= cap
                                    ):
                                        chosen = opt
                                        break
                            if chosen is None and index in partial:
                                blk = self.compiled.densify(index)
                                continue  # retry with the fallback grades
                            break
                        if chosen is not None:
                            steps += chosen[0]
                            if tracing:
                                chosen[3](self)
                            else:
                                chosen[5 if self._jlive else 4](self)
                            continue
                steps += 1
                if steps > max_steps:
                    raise SimulationLimitExceeded(
                        f"program {self.program.name!r} exceeded {max_steps} steps"
                    )
                if entries:
                    now = self.dispatch
                    if nrec:
                        if now >= bound:
                            bound = -1
                            if self._resolve_stores(now):
                                continue  # a squash rewound the state
                        else:
                            head = entries[0]
                            if head.addr_ready <= now and head.data_ready <= now:
                                sq.commit_ready(memory, now, None)
                    else:
                        head = entries[0]
                        if head.addr_ready <= now and head.data_ready <= now:
                            self._resolve_stores(now)
                if index >= n:
                    if not self._quiesce():
                        self.halted = True
                    bound = -1
                    continue
                code[index](self)
                if self._nrec != nrec:
                    bound = -1
                continue
            index = self.index
            nrec = self._nrec
            if nrec and bound < 0:
                bound = _NO_BOUND
                for entry in entries:
                    if entry.speculated_loads:
                        ready_at = entry.addr_ready
                        if ready_at < bound:
                            bound = ready_at
            if index < n and self.dispatch < window.stop:
                blk = blocks[index]
                if blk is not None and type(blk) is not tuple:
                    blk = self.compiled.materialize(index) if hot else None
                if blk is not None:
                    limit = window.stop
                    if nrec and bound < limit:
                        limit = bound
                    d = self.dispatch
                    while True:
                        chosen = None
                        for opt in blk:
                            if (
                                steps + opt[0] <= max_steps
                                and d + opt[1] <= limit
                                and (
                                    not opt[2] or len(entries) + opt[2] <= cap
                                )
                            ):
                                chosen = opt
                                break
                        if chosen is None and index in partial:
                            blk = self.compiled.densify(index)
                            continue  # retry with the fallback grades
                        break
                    if chosen is not None:
                        steps += chosen[0]
                        if tracing:
                            chosen[3](self)
                        else:
                            chosen[5 if self._jlive else 4](self)
                        continue
            steps += 1
            if steps > max_steps:
                raise SimulationLimitExceeded(
                    f"program {self.program.name!r} exceeded {max_steps} steps"
                )
            if self.dispatch >= window.stop or index >= n:
                self._close_window()
                bound = -1
                continue
            if entries:
                now = self.dispatch
                if nrec:
                    if now >= bound:
                        bound = -1
                        if self._resolve_stores(now):
                            continue
                    else:
                        head = entries[0]
                        if (
                            head.addr_ready <= now
                            and head.data_ready <= now
                            and head.seq <= window.base_seq
                        ):
                            sq.commit_ready(memory, now, window.base_seq)
                else:
                    head = entries[0]
                    if (
                        head.addr_ready <= now
                        and head.data_ready <= now
                        and head.seq <= window.base_seq
                    ):
                        sq.commit_ready(memory, now, window.base_seq)
            if index >= n:
                if not self._quiesce():
                    self.halted = True
                bound = -1
                continue
            code[index](self)
            if self._nrec != nrec:
                bound = -1
        return self.finalize()

    def step(self) -> bool:
        try:
            return self._step_inner()
        finally:
            self._flush_pmc()

    def _step_inner(self) -> bool:
        if self.halted:
            return False
        window = self.window
        if window is not None and (
            self.dispatch >= window.stop or self.index >= self.dec.n
        ):
            self._close_window()
            return not self.halted
        if self.sq_entries and self._resolve_stores(self.dispatch):
            return True  # a squash rewound the state
        index = self.index
        if index >= self.dec.n:
            if not self._quiesce():
                self.halted = True
            return not self.halted
        self.code[index](self)
        return not self.halted
