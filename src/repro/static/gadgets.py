"""Gadget classification: turning taint facts into findings.

A *gadget* is an instruction (plus the secret sources feeding it) whose
execution makes one of the two-fill oracle's observation channels
secret-dependent.  The kinds map one-to-one onto those channels:

``transmit-load`` / ``transmit-store`` / ``transmit-flush``
    A memory operation whose **address** carries taint.  Addresses
    select cache lines, so a tainted address is the classic cache
    transmitter (``cached_lines`` / PMC / cycle differences) — this is
    the Spectre disclosure-gadget shape, and it fires whether the taint
    is architectural or only reachable transiently.

``transmit-branch``
    A ``Jz`` whose condition carries taint: the executed (or
    transiently executed) path shape becomes secret-dependent, which
    shows up in rollback counts, cycles and execution-type traces.

``stale-value-probe``
    A store→load bypass edge whose endpoints may alias.  Even with a
    clean address, the bypassing load transiently reads stale (secret)
    memory and the pipeline *validates* that value when the store
    resolves — whether it squashes depends on whether the secret equals
    the stored value, so rollback/cycle counts become secret-dependent.

``architectural-secret-value``
    A tracked result register still architecturally tainted at program
    end.  This is the scanner's image of the oracle's
    ``architectural-secret-dependence`` invariant violation.

Every gadget carries its source span (instruction indices + reprs), the
predictor preconditions required to realize it (TABLE I phrasing, from
:mod:`repro.static.windows`) and the mitigations that kill it.
Soundness note: the mapping is over-approximate by construction — each
kind is derived from taint facts that are themselves conservative — and
the cross-validation layer (:mod:`repro.static.crossval`) tests the
resulting invariant against the dynamic oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

from repro.cpu.isa import DecodedProgram, Instruction, Program
from repro.fuzz.gen import BUF_BYTES, REGS
from repro.static.ir import IRProgram, lift
from repro.static.taint import EMPTY, TaintResult, analyze_taint
from repro.static.windows import (
    BranchWindow,
    BypassEdge,
    branch_windows,
    bypass_edges,
    bypass_preconditions,
    psf_preconditions,
)
from repro.telemetry.metrics import registry

__all__ = ["GADGET_KINDS", "StaticGadget", "ScanReport", "scan_program"]

GADGET_KINDS = (
    "transmit-load",
    "transmit-store",
    "transmit-flush",
    "transmit-branch",
    "stale-value-probe",
    "architectural-secret-value",
)

#: Precondition line attached to gadgets that need a transient wrong path.
_BRANCH_PRECONDITION = (
    "branch-mispredict: the flagged span executes transiently on the "
    "wrong path of an unresolved Jz"
)


class StaticGadget(NamedTuple):
    """One finding: a transmitting instruction plus its secret sources."""

    kind: str                      # one of GADGET_KINDS
    node: int                      # index of the transmitting instruction
    channel: str                   # "arch" | "spec"
    sources: tuple[int, ...]       # secret-source node indices (sorted)
    span: tuple[str, ...]          # reprs of sources + transmitter, in order
    preconditions: tuple[str, ...]
    killed_by: tuple[str, ...]     # mitigations that remove this gadget
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "node": self.node,
            "channel": self.channel,
            "sources": list(self.sources),
            "span": list(self.span),
            "preconditions": list(self.preconditions),
            "killed_by": list(self.killed_by),
            "detail": self.detail,
        }


@dataclass
class ScanReport:
    """Everything one static scan of one program produced."""

    name: str
    mitigation: str
    instructions: int
    edges: list[BypassEdge]
    windows: list[BranchWindow]
    sources: dict[int, str]        # node index -> secret-source kind
    gadget_count: int              # len(gadgets), known before they are built
    _build_gadgets: Callable[[], list[StaticGadget]] = field(repr=False, compare=False)

    @cached_property
    def gadgets(self) -> list[StaticGadget]:
        """The findings in node order, built (spans, preconditions) on first use.

        The fuzz prefilter reads only :attr:`clean`, so it never builds them.
        """
        return self._build_gadgets()

    @property
    def clean(self) -> bool:
        """No gadget of any kind — the program cannot leak (soundness)."""
        return not self.gadget_count

    def kinds(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for gadget in self.gadgets:
            counts[gadget.kind] = counts.get(gadget.kind, 0) + 1
        return {kind: counts[kind] for kind in sorted(counts)}

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "mitigation": self.mitigation,
            "instructions": self.instructions,
            "clean": self.clean,
            "kinds": self.kinds(),
            "gadgets": [gadget.to_dict() for gadget in self.gadgets],
            "edges": [edge.to_dict() for edge in self.edges],
            "windows": [window.to_dict() for window in self.windows],
            "sources": {
                str(index): kind for index, kind in sorted(self.sources.items())
            },
        }


#: Memory-op node kind -> the gadget kind of a tainted address in it.
_TRANSMIT_KINDS = {
    "load": "transmit-load", "store": "transmit-store", "flush": "transmit-flush",
}


def _gadget_order(gadget: StaticGadget) -> tuple:
    return (gadget.node, GADGET_KINDS.index(gadget.kind), gadget.sources)


def _buffer_ranges(ir: IRProgram, taint: TaintResult) -> dict[int, tuple[int, int] | None]:
    """Memory-op node index -> the ``buf`` byte range it touches.

    ``None`` marks an address that is unknown, off the buffer or out of
    bounds: such an access may alias anything (conservative).
    """
    nodes = ir.nodes
    ranges: dict[int, tuple[int, int] | None] = {}
    for index, (region, offset) in taint.values.items():
        if region != "buf":
            ranges[index] = None
            continue
        node = nodes[index]
        lo = offset + node.offset
        hi = lo + max(1, node.width)
        ranges[index] = None if lo < 0 or hi > BUF_BYTES else (lo, hi)
    return ranges


def scan_program(
    program: Program | DecodedProgram | list[Instruction],
    *,
    mitigation: str = "none",
    tracked: tuple[str, ...] | list[str] | None = None,
    name: str | None = None,
) -> ScanReport:
    """Statically scan one program for speculative-leakage gadgets.

    Pure and deterministic: the report is a function of the instruction
    list, the mitigation and the tracked-register set alone (default:
    the fuzz result registers ``r0..r3``).
    """
    if name is None:
        name = program.name if isinstance(program, (Program, DecodedProgram)) else "program"
    tracked_regs = tuple(tracked) if tracked is not None else tuple(REGS)

    ir = lift(program)
    edges = bypass_edges(ir, mitigation)
    windows = branch_windows(ir)
    taint = analyze_taint(ir, edges, windows)

    # Each finding as (kind, node, arch, spec, detail); built into
    # StaticGadget objects only when the report's gadgets are read.
    found: list[tuple] = []
    nodes = ir.nodes
    for index, (arch, spec) in sorted(taint.address.items()):
        if arch or spec:
            node = nodes[index]
            found.append((_TRANSMIT_KINDS[node.kind], index, arch, spec,
                          f"tainted address in {node.op}"))
    for index, (arch, spec) in sorted(taint.condition.items()):
        if arch or spec:
            found.append(("transmit-branch", index, arch, spec,
                          "secret-dependent branch condition"))
    ranges = _buffer_ranges(ir, taint)
    for edge in edges:
        store, load = ranges[edge.store], ranges[edge.load]
        if store is None or load is None or (store[0] < load[1] and load[0] < store[1]):
            found.append((
                "stale-value-probe", edge.load, EMPTY, frozenset((edge.load,)),
                f"bypass of store@{edge.store} makes squash-on-"
                "mismatch depend on stale (secret) data",
            ))
    halt = len(ir) - 1
    for reg in tracked_regs:
        value = taint.regs.get(reg)
        if value is not None and value.arch:
            found.append((
                "architectural-secret-value", halt, value.arch, value.spec,
                f"tracked register {reg} holds secret-derived data at halt",
            ))

    metrics = registry()
    metrics.counter("scan.programs").inc()
    metrics.counter("scan.gadgets").inc(len(found))
    metrics.counter("scan.edges").inc(len(edges))
    metrics.counter("scan.windows").inc(len(windows))
    if not found:
        metrics.counter("scan.clean").inc()
    return ScanReport(
        name=name,
        mitigation=mitigation,
        instructions=len(ir),
        edges=edges,
        windows=windows,
        sources=dict(taint.sources),
        gadget_count=len(found),
        _build_gadgets=partial(_build_gadgets, ir, taint, windows, found),
    )


def _build_gadgets(
    ir: IRProgram, taint: TaintResult, windows: list[BranchWindow], found: list[tuple]
) -> list[StaticGadget]:
    """StaticGadget objects for ``scan_program``'s findings, in node order."""
    maybe = [False] * len(ir)
    for window in windows:
        for index in range(window.start, min(window.end, len(ir))):
            maybe[index] = True
    maybe_nodes = frozenset(index for index, flag in enumerate(maybe) if flag)
    stale = frozenset(
        index for index, kind in taint.sources.items() if kind == "stale-bypass"
    )
    bypass_lines = bypass_preconditions() + psf_preconditions()
    gadgets = []
    for kind, node, arch, spec, detail in found:
        sources = arch or spec
        channel = "arch" if arch else "spec"
        preconditions = bypass_lines if not stale.isdisjoint(sources) else ()
        if maybe[max(node, 0)] or not maybe_nodes.isdisjoint(sources):
            preconditions += (_BRANCH_PRECONDITION,)
        # Purely bypass-fed: both the chicken bit and the fence transform
        # remove every edge, so the taint never arises.
        killed_by = ("ssbd", "fence") if channel == "spec" and sources <= stale else ()
        span_nodes = sources | {node} if node >= 0 else sources
        gadgets.append(StaticGadget(
            kind, node, channel, tuple(sorted(sources)), ir.reprs(span_nodes),
            preconditions, killed_by, detail,
        ))
    gadgets.sort(key=_gadget_order)
    return gadgets
